"""Smith normal form, K-groups, multiplication-by-m certificates."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphck as G
from graphck import ktheory
from graphck.errors import ContractViolation
from graphck.ktheory import connectivity_matrix, smith_normal_form

from conftest import (dumbbell, mixed_m, random_graph, single_loop, three_loop,
                      two_loop, two_vertex_pi, u_graph)
from oracles import k0_class, smith_diagonal_by_minors, vertex_range_counts


def test_snf_examples():
    assert smith_normal_form([[-2]]).d == [[2]]
    assert smith_normal_form([[0]]).d == [[0]]
    snf = smith_normal_form([[2, 4], [6, 8]])
    assert snf.verify()
    assert snf.diagonal == [2, 4]


def test_snf_empty_and_rectangular():
    assert smith_normal_form([]).verify()
    snf = smith_normal_form([[1, 2, 3]])
    assert snf.verify() and snf.diagonal == [1]
    snf = smith_normal_form([[0, 0], [0, 0], [0, 0]])
    assert snf.verify() and snf.diagonal == [0, 0]


def test_snf_random_reverification(rng):
    for _ in range(300):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        mat = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        snf = smith_normal_form(mat)
        assert snf.verify()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10**9))
def test_snf_against_minor_gcd_oracle(n, m, seed):
    r = random.Random(seed)
    mat = [[r.randint(-4, 4) for _ in range(m)] for _ in range(n)]
    snf = smith_normal_form(mat)
    assert snf.verify()
    assert snf.diagonal == smith_diagonal_by_minors(mat)


def test_graph_k_theory_n_loops():
    for n in (2, 3, 4, 7):
        g = G.DirectedGraph.build(["v"], [(f"e{i}", "v", "v") for i in range(n)])
        res = G.graph_k_theory(g)
        assert res.k0_free_rank == 0
        # invariant factor n-1; trivial for n = 2 where the group vanishes
        assert res.k0_torsion == ([n - 1] if n >= 3 else [])
        assert res.k1_rank == 0


def test_graph_k_theory_single_loop():
    res = G.graph_k_theory(single_loop())
    assert (res.k0_free_rank, res.k0_torsion, res.k1_rank) == (1, [], 1)


def test_graph_k_theory_two_vertex():
    res = G.graph_k_theory(two_vertex_pi())
    assert connectivity_matrix(two_vertex_pi()) == [[-1, 0], [-1, -1]]
    assert (res.k0_free_rank, res.k0_torsion, res.k1_rank) == (0, [], 0)


def test_graph_k_theory_refuses_sinks():
    with pytest.raises(ContractViolation, match="sink"):
        G.graph_k_theory(mixed_m())


def test_graph_k_theory_refuses_capped_tails():
    capped = G.add_tails(G.DirectedGraph.build(["v", "w"], [("e", "v", "w")]), 2)
    with pytest.raises(ContractViolation):
        G.graph_k_theory(capped)


def test_induced_endomorphism_examples():
    assert G.induced_endomorphism_matrix(three_loop(), 2) == [[4]]
    assert G.induced_endomorphism_matrix(two_loop(), 3) == [[7]]
    g = two_vertex_pi()
    assert G.induced_endomorphism_matrix(g, 1) == [[1, 0], [0, 1]]


def test_induced_endomorphism_columns_count_paths(rng):
    for _ in range(40):
        g = random_graph(rng, max_vertices=5, max_edges=8)
        for m in (1, 2, 3):
            b = G.induced_endomorphism_matrix(g, m)
            for j, v in enumerate(g.vertices):
                col = [b[i][j] for i in range(len(g.vertices))]
                assert col == vertex_range_counts(g, v, m)


def test_verify_multiplication_examples():
    cert = G.verify_multiplication_by_m(three_loop(), 2)
    assert cert.ok and cert.reverify()
    assert cert.k0_witnesses["v"] == [-1]
    for m in (1, 2, 3, 5):
        cert = G.verify_multiplication_by_m(single_loop(), m)
        assert cert.ok and cert.reverify()
        assert cert.k1_basis  # kernel is rank one


def test_verify_multiplication_random_suite(rng):
    for _ in range(120):
        g = random_graph(rng, max_vertices=6, max_edges=12, no_sinks=True)
        for m in (1, 2, 3, 4, 5):
            cert = G.verify_multiplication_by_m(g, m)
            assert cert.ok and cert.reverify(), (g, m, cert.failure)


def test_subquotient_examples():
    g = two_vertex_pi()
    for m in (2, 3):
        report = G.verify_on_subquotients(g, m)
        assert report.ok
        by_name = {e.target: e for e in report.entries}
        assert by_name["ideal {w}"].status == "pass"
        assert by_name["quotient by {w}"].status == "pass"
        assert by_name["ideal {}"].status == "pass"
        assert by_name["quotient by {}"].status == "pass"


def test_subquotient_pieces_are_sink_free():
    """Saturation forces every piece of a sink-free graph to be sink-free, so
    every entry of a full sweep is certified and passes."""
    for make in (dumbbell, u_graph, two_vertex_pi):
        report = G.verify_on_subquotients(make(), 2)
        assert report.ok
        assert all(e.status == "pass" for e in report.entries)


def test_k0_class_coordinates():
    res = G.graph_k_theory(three_loop())
    assert k0_class(res, [1]) in {(0,), (1,)}
    assert k0_class(res, [2]) != k0_class(res, [1])
    assert k0_class(res, [3]) == k0_class(res, [1])  # classes mod 2


def _sink_free_graph(rng: random.Random, n: int, max_out: int = 4) -> G.DirectedGraph:
    """n vertices, each emitting 1..max_out edges to uniformly chosen ranges."""
    vs = [f"v{i}" for i in range(n)]
    es = [(f"e{i}_{k}", v, rng.choice(vs))
          for i, v in enumerate(vs) for k in range(rng.randint(1, max_out))]
    return G.DirectedGraph.build(vs, es)


# sha256 of the (u, d, v) triples and of the m = 2, 3 certificate witnesses
# on the graphs of `test_smith_form_and_witnesses_are_pinned`.  A change of
# pivot order changes these digests and the witness payloads of every
# `ktheory --verify-m` report: update them only as a declared result change.
SNF_DIGEST = "0580a51b0d69874bf9c52e91b2613b5d50cf4cc5adaea55c80183d05844f9fb7"
WITNESS_DIGEST = "5998c3979cc8415250c6246ccbad2994663c80f05bf2a791d33346d9869cec2d"


def test_smith_form_and_witnesses_are_pinned():
    rng = random.Random(41017)
    snf_hash, witness_hash = hashlib.sha256(), hashlib.sha256()
    for n in (20, 20, 25, 30, 35, 40, 50, 50, 60, 65, 70, 80, 90, 100):
        g = _sink_free_graph(rng, n)
        snf = smith_normal_form(connectivity_matrix(g))
        assert snf.verify(), n
        snf_hash.update(repr((snf.u, snf.d, snf.v)).encode())
        if n <= 65:
            for m in (2, 3):
                cert = G.verify_multiplication_by_m(g, m)
                assert cert.ok, cert.failure
                witness_hash.update(repr((m, cert.k0_witnesses, cert.k1_basis)).encode())
    assert snf_hash.hexdigest() == SNF_DIGEST
    assert witness_hash.hexdigest() == WITNESS_DIGEST


def test_snf_without_unit_entries_reaches_the_divisibility_step(rng):
    # the pivot 2 divides its row and column (all 6s) but not the 3s in the
    # block, so the first step must mix an offending row in
    offender = [[6 if i != j and (i + j) % 3 == 0 else 0 for j in range(6)]
                for i in range(6)]
    for i, x in enumerate((2, 3, 6, 2, 3, 6)):
        offender[i][i] = x
    mats = [offender]
    for _ in range(6):
        n = rng.randint(6, 8)
        mats.append([[rng.choice((0, 2, -2, 3, -3, 6, -6)) for _ in range(n)]
                     for _ in range(n)])
    for mat in mats:
        snf = smith_normal_form(mat)
        assert snf.verify()
        assert snf.diagonal == smith_diagonal_by_minors(mat)


def _component_graph(rng: random.Random, n_comp: int) -> G.DirectedGraph:
    """Sink-free graph of n_comp strongly connected components joined by
    one-way edges from earlier components to later ones.  A component is a
    cycle on 1-3 vertices with up to two extra inner edges, or, when a later
    component exists to feed, a lone transit vertex without a loop."""
    vs: list[str] = []
    es: list[tuple[str, str, str]] = []
    comps: list[list[str]] = []
    for c in range(n_comp):
        if c < n_comp - 1 and rng.random() < 0.2:
            comps.append([f"c{c}t"])
            vs.append(f"c{c}t")
            continue
        members = [f"c{c}v{i}" for i in range(rng.randint(1, 3))]
        vs += members
        es += [(f"c{c}e{i}", v, members[(i + 1) % len(members)]) for i, v in enumerate(members)]
        es += [(f"c{c}x{k}", rng.choice(members), rng.choice(members))
               for k in range(rng.randint(0, 2))]
        comps.append(members)
    for c in range(n_comp - 1):
        transit = comps[c][0].endswith("t")
        for k in range(rng.randint(1, 2) if transit else rng.randint(0, 1)):
            later = comps[rng.randrange(c + 1, n_comp)]
            es.append((f"j{c}_{k}", rng.choice(comps[c]), rng.choice(later)))
    return G.DirectedGraph.build(vs, es)


def _sweep_graphs(seed: int, count: int) -> list[G.DirectedGraph]:
    """`count` seeded component graphs whose lattices have 4-40 sets."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = _component_graph(rng, rng.randint(2, 7))
        if 4 <= len(G.enumerate_hereditary_saturated(g)) <= 40:
            out.append(g)
    return out


# sha256 of (target, kind, status, k0_witnesses, k1_basis) of every entry of
# the m = 2, 3 subquotient sweeps of `test_subquotient_sweep_is_pinned`.  The
# entries, their order and their certificates are the `verifications` of
# `ktheory --verify-m M --subquotients`: update only as a declared result change.
SWEEP_DIGEST = "6adab5a0612bbe8c37f15d5c22f8220bea08f0c14de9fac26bb9f7f93f7d40c7"


def test_subquotient_sweep_is_pinned():
    digest = hashlib.sha256()
    entries = 0
    for g in _sweep_graphs(60311, 30):
        for m in (2, 3):
            report = G.verify_on_subquotients(g, m)
            assert report.ok
            for e in report.entries:
                digest.update(repr((e.target, e.kind, e.status, e.certificate.k0_witnesses,
                                    e.certificate.k1_basis)).encode())
            entries += len(report.entries)
    assert entries > 1000
    assert digest.hexdigest() == SWEEP_DIGEST


def test_verify_multiplication_refuses_a_sink():
    with pytest.raises(ContractViolation, match=r"sink \(w\)"):
        G.verify_multiplication_by_m(mixed_m(), 2)


def test_subquotient_pieces_are_induced_and_certified_once(rng, monkeypatch):
    """Each piece is the graph the restriction and quotient builders give, has
    no sink, and each distinct vertex set is certified by one call."""
    calls = []
    real = ktheory.verify_multiplication_by_m
    monkeypatch.setattr(ktheory, "verify_multiplication_by_m",
                        lambda g, m: calls.append(g) or real(g, m))
    graphs = _sweep_graphs(60311, 30) + [_component_graph(rng, rng.randint(1, 6))
                                         for _ in range(30)]
    for g in graphs:
        calls.clear()
        report = G.verify_on_subquotients(g, 2)
        sets = G.enumerate_hereditary_saturated(g)
        want = []
        for h in sets:
            ideal = G.restriction_graph(g, h)
            want += [ideal, G.quotient_graph(g, h)]
            want += [G.quotient_graph(ideal, j) for j in sets if j < h and j]
        pieces = [e.certificate.graph for e in report.entries]
        assert pieces == want
        assert not any(G.sinks(piece) for piece in pieces)
        distinct = {frozenset(piece.vertices) for piece in pieces}
        assert len({id(e.certificate) for e in report.entries}) == len(distinct) == len(calls)
