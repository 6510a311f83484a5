"""Smith normal form, K-groups, multiplication-by-m certificates."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphck as G
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
    a full sweep records no skips."""
    for make in (dumbbell, u_graph, two_vertex_pi):
        report = G.verify_on_subquotients(make(), 2)
        assert report.ok
        assert all(e.status == "pass" for e in report.entries)


def test_run_target_skips_sink_pieces():
    from graphck.ktheory import _run_target

    entry = _run_target("demo", "ideal", mixed_m(), 2)
    assert entry.status == "skip" and "sink" in entry.reason


def test_k0_class_coordinates():
    res = G.graph_k_theory(three_loop())
    assert k0_class(res, [1]) in {(0,), (1,)}
    assert k0_class(res, [2]) != k0_class(res, [1])
    assert k0_class(res, [3]) == k0_class(res, [1])  # classes mod 2
