"""Smith normal form, K-groups, multiplication-by-m certificates."""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphck as G
import graphck.cli as cli
from graphck import ktheory
from graphck.errors import ContractViolation
from graphck.ktheory import connectivity_matrix, smith_diagonal, smith_normal_form

from conftest import (dumbbell, mixed_m, random_graph, single_loop, three_loop,
                      two_loop, two_vertex_pi, u_graph)
from oracles import add_tails, k0_class, smith_diagonal_by_minors, vertex_range_counts


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
    with pytest.raises(ContractViolation, match="sink") as err:
        G.graph_k_theory(mixed_m())
    # add_tails leaves a sink at each tail end, so it is no way around this
    assert "(w)" in str(err.value) and "add_tails" not in str(err.value)


def test_graph_k_theory_refuses_capped_tails():
    # capping leaves a sink at the end of each tail, and the sink check refuses it
    capped = add_tails(G.DirectedGraph.build(["v", "w"], [("e", "v", "w")]), 2)
    with pytest.raises(ContractViolation, match=r"sink \(w_tail2\)"):
        G.graph_k_theory(capped)


def _geometric_sum(g: G.DirectedGraph, x: list[int], m: int) -> list[int]:
    """B x for B = sum_{j<m} (A^t)^j, by the walker."""
    return ktheory._power_sum(ktheory._out_ranges(g), {i: c for i, c in enumerate(x) if c},
                              [1] * m)


def test_induced_endomorphism_examples():
    assert _geometric_sum(three_loop(), [1], 2) == [4]
    assert _geometric_sum(two_loop(), [1], 3) == [7]
    assert _geometric_sum(two_loop(), [-2], 3) == [-14]
    g = two_vertex_pi()
    assert [_geometric_sum(g, x, 1) for x in ([1, 0], [0, 1])] == [[1, 0], [0, 1]]
    # v has two loops and the bridge to w, w two loops: from v, 1 + 2 + 4
    # paths of length < 3 end at v and 0 + 1 + 4 at w
    assert _geometric_sum(g, [1, 0], 3) == [1 + 2 + 4, 0 + 1 + 4]
    assert _geometric_sum(g, [0, 1], 3) == [0, 1 + 2 + 4]
    assert ktheory._power_sum(ktheory._out_ranges(g), {0: 1}, [5, 0, -1]) == [5 - 4, -4]


def test_induced_endomorphism_columns_count_paths(rng):
    """B's columns are the path counts of `vertex_range_counts`, B acts
    linearly on integer vectors, and fixes-and-scales the kernel of I - A^t."""
    loops = multi = kernel = 0
    for _ in range(60):
        g = random_graph(rng, max_vertices=5, max_edges=8)
        n = len(g.vertices)
        pairs = [(e.source, e.range) for e in g.edges]
        loops += any(s == r for s, r in pairs)
        multi += len(set(pairs)) < len(pairs)
        basis = ktheory.integer_kernel_basis(smith_normal_form(connectivity_matrix(g)))
        kernel += bool(basis)
        x = [rng.randint(-3, 3) for _ in range(n)]
        for m in (1, 2, 3, 4, 5):
            cols = [vertex_range_counts(g, v, m) for v in g.vertices]
            for j, col in enumerate(cols):
                assert _geometric_sum(g, [int(i == j) for i in range(n)], m) == col
            assert _geometric_sum(g, x, m) == [sum(c * col[i] for c, col in zip(x, cols))
                                               for i in range(n)]
            for y in basis:
                assert _geometric_sum(g, y, m) == [m * c for c in y]
    assert min(loops, multi, kernel) >= 10, (loops, multi, kernel)


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


def _chain_with_kernel() -> G.DirectedGraph:
    """A loop at a feeding a 2-cycle b <-> c, which feeds a loop at d: K1 has
    rank one, spanned by e_d, and no column of I - A^t but d's is zero."""
    return G.DirectedGraph.build(
        ["a", "b", "c", "d"],
        [("l", "a", "a"), ("x", "a", "b"), ("p", "b", "c"), ("q", "c", "b"),
         ("y", "c", "d"), ("r", "d", "d")])


def test_reverify_rejects_tampered_certificates():
    """Each graph's first column of I - A^t is nonzero and some vertex sends
    two edges, so moving a witness entry or a kernel vector by e_0, or
    changing m, breaks an equation that `reverify` checks."""
    with_kernel = 0
    for g in (two_vertex_pi(), u_graph(), three_loop(), dumbbell(), _chain_with_kernel()):
        for m in (2, 3, 5):
            cert = G.verify_multiplication_by_m(g, m)
            assert cert.ok and cert.reverify()
            for vid in cert.k0_witnesses:
                witnesses = {k: list(x) for k, x in cert.k0_witnesses.items()}
                witnesses[vid][0] += 1
                assert not replace(cert, k0_witnesses=witnesses).reverify(), (g, m, vid)
            for i in range(len(cert.k1_basis)):
                basis = [list(x) for x in cert.k1_basis]
                basis[i][0] += 1
                assert not replace(cert, k1_basis=basis).reverify(), (g, m, i)
                with_kernel += 1
            assert not replace(cert, m=m + 1).reverify(), (g, m)
            assert not replace(cert, m=m - 1).reverify(), (g, m)
            with pytest.raises(ContractViolation, match="m must be positive"):
                replace(cert, m=0).reverify()
    assert with_kernel == 6


def test_reverify_requires_one_witness_per_vertex():
    assert not ktheory.MultiplicationCertificate(three_loop(), 3, True).reverify()
    for g in (two_vertex_pi(), three_loop(), dumbbell(), _chain_with_kernel()):
        cert = G.verify_multiplication_by_m(g, 3)
        assert cert.reverify()
        for vid in cert.k0_witnesses:
            partial = {k: x for k, x in cert.k0_witnesses.items() if k != vid}
            assert not replace(cert, k0_witnesses=partial).reverify(), (g, vid)
        stranger = dict(cert.k0_witnesses, zz=[0] * len(g.vertices))
        assert not replace(cert, k0_witnesses=stranger).reverify(), g


def test_reverify_rejects_vectors_of_the_wrong_length():
    """A witness or kernel vector one entry too long or too short is refused,
    though the equations read only its first n entries."""
    for g in (two_vertex_pi(), dumbbell(), _chain_with_kernel()):
        cert = G.verify_multiplication_by_m(g, 3)
        for vid, x in cert.k0_witnesses.items():
            for y in (x + [0], x[:-1]):
                witnesses = dict(cert.k0_witnesses, **{vid: y})
                assert not replace(cert, k0_witnesses=witnesses).reverify(), (g, vid)
        for i, x in enumerate(cert.k1_basis):
            for y in (x + [0], x[:-1]):
                basis = [y if j == i else z for j, z in enumerate(cert.k1_basis)]
                assert not replace(cert, k1_basis=basis).reverify(), (g, i)


def test_reverify_requires_a_basis_of_the_kernel():
    """Every vector below lies in ker(I - A^t) and is scaled by m, but a K1
    basis must also span that kernel over the integers: too few vectors, a
    repeated vector, a multiple of a basis vector or a basis of an index-2
    sublattice is refused, and a unimodular change of basis is accepted."""
    two_loops = G.DirectedGraph.build(["a", "b"], [("x", "a", "a"), ("y", "b", "b")])
    for g in (dumbbell(), _chain_with_kernel(), single_loop(), two_loops):
        for m in (2, 3):
            cert = G.verify_multiplication_by_m(g, m)
            basis = cert.k1_basis
            assert cert.reverify() and basis, (g, m)
            doubled = [[2 * c for c in basis[0]]] + basis[1:]
            negated = [[-c for c in basis[0]]] + basis[1:]
            for wrong in ([], basis[1:], basis + [basis[0]], doubled):
                assert not replace(cert, k1_basis=wrong).reverify(), (g, m, wrong)
            assert replace(cert, k1_basis=negated).reverify(), (g, m)
    cert = G.verify_multiplication_by_m(two_loops, 3)
    x, y = cert.k1_basis
    plus = [a + b for a, b in zip(x, y)]
    minus = [a - b for a, b in zip(x, y)]
    assert replace(cert, k1_basis=[plus, y]).reverify()
    assert not replace(cert, k1_basis=[x, x]).reverify()
    assert not replace(cert, k1_basis=[plus, minus]).reverify()
    for g in (three_loop(), two_vertex_pi()):
        cert = G.verify_multiplication_by_m(g, 3)
        assert cert.reverify() and not cert.k1_basis
        assert not replace(cert, k1_basis=[[0] * len(g.vertices)]).reverify(), g


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


# sha256 of (K1 rank, m, k0_witnesses, k1_basis) of the m = 2, 3, 5
# certificates of `test_witnesses_with_k1_are_pinned`; 33 of its 60 graphs
# have K1 > 0.  These are the `--verify-m` payloads: update only as a
# declared result change.
K1_WITNESS_DIGEST = "a2cfa92d106bfa31c468f633dcb3b6488d150a9b0e1cdcc09c3f3b4c84751a1e"


def test_witnesses_with_k1_are_pinned():
    rng = random.Random(52021)
    digest = hashlib.sha256()
    kinds = {True: 0, False: 0}
    for i in range(60):
        g = (_component_graph(rng, rng.randint(1, 6)) if i % 2
             else _sink_free_graph(rng, rng.randint(2, 30), max_out=3))
        k1 = G.graph_k_theory(g).k1_rank
        kinds[k1 > 0] += 1
        for m in (2, 3, 5):
            cert = G.verify_multiplication_by_m(g, m)
            assert cert.ok and cert.reverify(), cert.failure
            digest.update(repr((k1, m, cert.k0_witnesses, cert.k1_basis)).encode())
    assert kinds[True] >= 15 and kinds[False] >= 15, kinds
    assert digest.hexdigest() == K1_WITNESS_DIGEST


def _matrices_without_unit_entries(rng: random.Random) -> list[list[list[int]]]:
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
    return mats


def test_snf_without_unit_entries_reaches_the_divisibility_step(rng):
    for mat in _matrices_without_unit_entries(rng):
        snf = smith_normal_form(mat)
        assert snf.verify()
        assert snf.diagonal == smith_diagonal_by_minors(mat)


def test_smith_diagonal_against_minor_gcd_oracle(rng):
    """Matrices with no unit entry go to the dense remainder whole; the
    random ones mix unit pivots and a remainder, in every shape up to 6 x 6."""
    mats = _matrices_without_unit_entries(rng) + [
        [], [[]], [[], []], [[0, 0], [0, 0], [0, 0]], [[1, 2, 3]], [[2], [4], [6]],
        [[0, 1], [1, 0]], [[1, 1], [1, 1]], [[-1, 2], [3, -1]]]
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        values = rng.choice(((-1, 0, 1), (-2, -1, 0, 0, 1, 2), (-4, -3, -1, 0, 0, 0, 2, 3, 4)))
        mats.append([[rng.choice(values) for _ in range(m)] for _ in range(n)])
    for mat in mats:
        assert smith_diagonal(mat) == smith_diagonal_by_minors(mat), mat


def _differential_graphs(seed: int) -> list[G.DirectedGraph]:
    """200 sink-free graphs of 2-60 vertices with loops and multi-edges, and
    100 component graphs, most of which have K1 > 0."""
    rng = random.Random(seed)
    graphs = [_sink_free_graph(rng, rng.randint(2, 60), max_out=rng.randint(1, 4))
              for _ in range(200)]
    graphs += [_component_graph(rng, rng.randint(1, 8)) for _ in range(100)]
    return graphs


def test_smith_diagonal_matches_the_smith_form_on_graphs():
    loops = multi = kernel = torsion = 0
    for g in _differential_graphs(70117):
        mat = connectivity_matrix(g)
        want = smith_normal_form(mat).diagonal
        assert smith_diagonal(mat) == want
        res = G.graph_k_theory(g)
        assert (res.k0_free_rank, res.k0_torsion, res.k1_rank) == (
            want.count(0), [x for x in want if x > 1], want.count(0))
        pairs = [(e.source, e.range) for e in g.edges]
        loops += any(s == r for s, r in pairs)
        multi += len(set(pairs)) < len(pairs)
        kernel += res.k1_rank > 0
        torsion += bool(res.k0_torsion)
    assert min(loops, multi, kernel, torsion) >= 50, (loops, multi, kernel, torsion)


def test_closed_form_witnesses_are_the_solver_witnesses():
    """Where K1 = 0, each certificate's K0 witness is the U/V solver's
    solution for (B - m) e_v, with B's column counted by path enumeration."""
    checked = 0
    for g in _differential_graphs(70117):
        snf = smith_normal_form(connectivity_matrix(g))
        if 0 in snf.diagonal:
            continue
        for m in (1, 2, 3, 5):
            cert = G.verify_multiplication_by_m(g, m)
            assert cert.ok and cert.reverify() and cert.k1_basis == []
            for idx, v in enumerate(g.vertices):
                y = vertex_range_counts(g, v, m)
                y[idx] -= m
                assert cert.k0_witnesses[v.id] == ktheory._solve_integer(snf, y)
                checked += 1
    assert checked > 6000, checked


def test_ktheory_verify_m_factors_once(tmp_path, monkeypatch):
    """One `ktheory --verify-m` command computes the Smith diagonal of I - A^t
    once for its K-groups, solves through U and V only where K1 > 0, and
    multiplies no matrices.  `reverify` re-checks from scratch: it takes the
    diagonal of I - A^t again for the kernel rank, and that of the n x k
    kernel basis."""
    calls = {"diagonal": [], "solve": 0, "product": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def diagonal(rows, size):
        calls["diagonal"].append((len(rows), size))
        return sparse_diagonal(rows, size)

    sparse_diagonal = ktheory._sparse_smith_diagonal
    monkeypatch.setattr(ktheory, "_sparse_smith_diagonal", diagonal)
    monkeypatch.setattr(ktheory, "_solve_integer", counted("solve", ktheory._solve_integer))
    monkeypatch.setattr(ktheory, "_mat_mul", counted("product", ktheory._mat_mul))
    for g, k1, solves in ((two_vertex_pi(), 0, 0), (single_loop(), 1, 1), (dumbbell(), 1, 2)):
        path = tmp_path / "g.g"
        path.write_text(G.emit_graph(g))
        calls.update(diagonal=[], solve=0, product=0)
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main(["ktheory", "--verify-m", "3", "--json", str(path)]) == 0
        result = json.loads(out.getvalue())["result"]
        assert result["k1"]["rank"] == k1 and result["verifications"][0]["pass"]
        n = len(g.vertices)
        assert calls == {"diagonal": [(n, n), (n, n), (n, k1)], "solve": solves, "product": 0}


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
