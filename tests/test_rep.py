"""Truncated representation, weight matrices, compressions, coefficient sums."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

import graphck as G
from graphck.errors import ContractViolation, GraphckError, ResourceLimit
from graphck.graphs import Path, paths, paths_from
from graphck.rep import KappaMatrix, _window_weights, compression_route
from graphck.sparse import RatMatrix
from graphck.symbolic import (AlgebraMode, FormalSum, Word, iota_path_image, normal_form,
                              vertex_projection)

import rep_oracles
from conftest import (REP_CORPUS, mixed_m, random_graph, single_edge, single_loop,
                      two_cycle, two_loop)
from rep_oracles import (check_matrix_units, identity_matrix, lambda_map,
                         operator_norm, schur_multiply, schur_via_projections)


def test_build_rep_two_loop_basis():
    rep = G.build_rep(two_loop(), 3)
    assert rep.dimension == 15  # 1 + 2 + 4 + 8


def test_build_rep_single_edge():
    g = single_edge()
    rep = G.build_rep(g, 2)
    assert [p.id for p in rep.basis] == ["v", "w", "e"]
    te = rep.t(g.edge("e"))
    iw, ie = rep.index[Path.at(g.vertex("w"))], rep.index[Path((g.edge("e"),))]
    assert te.matrix.get(ie, iw) == 1 and te.matrix.nnz() == 1


def test_operators_build_no_basis_path():
    """The 0/1 operators and evaluate read only the tree's index arrays: after
    them the tree still holds no path but its roots."""
    g = two_loop()
    e, f = g.edge("e"), g.edge("f")
    rep = G.build_rep(g, 10)
    ef, fe = Path((e, f)), Path((f, e))
    rep.t_path(ef)
    rep.word_operator(ef, Path((f,)))
    G.path_projection(rep, ef)
    G.matrix_unit(rep, ef, fe)
    G.window_projection(rep, 4)
    rep.evaluate(FormalSum(g, {Word(ef, fe): Fraction(1, 2), Word(Path((e,)), ef): 3}))
    assert len(rep.tree._paths) == len(g.vertices)


def test_basis_index_is_a_read_only_view(rng):
    stranger = G.DirectedGraph.build(["s"], [("l", "s", "s")])
    for _ in range(10):
        g = random_graph(rng, max_vertices=4, max_edges=7)
        cutoff = rng.randint(1, 4)
        rep = G.build_rep(g, cutoff)
        assert len(rep.index) == rep.dimension == len(rep.basis)
        assert list(rep.index.items()) == [(p, i) for i, p in enumerate(paths(g, 0, cutoff + 1))]
        outside = list(paths(g, cutoff + 1, cutoff + 2))[:5] + [
            Path((stranger.edge("l"),)), Path.at(stranger.vertex("s")), "v"]
        for p in outside:
            assert rep.index.get(p) is None and p not in rep.index
            with pytest.raises(KeyError):
                rep.index[p]
        with pytest.raises(TypeError):
            rep.index[Path.at(g.vertices[0])] = 0


@pytest.mark.parametrize("cutoff", [3, 4, 5, 6])
@pytest.mark.parametrize("shape", sorted(REP_CORPUS))
def test_direct_operators_match_composed_oracles(shape, cutoff):
    """Every operator built from index maps equals its composed construction
    on the whole matrix, creation bounds included, not only on the exact
    region; legs one longer than the cutoff give zero matrix units."""
    g = REP_CORPUS[shape]()
    rep = G.build_rep(g, cutoff)

    def same(direct, oracle):
        return (direct.matrix == oracle.matrix and direct.creations == oracle.creations
                and direct.star_creations == oracle.star_creations)

    for e in g.edges:
        assert same(rep.t(e), rep_oracles.edge_operator(rep, e)), e
    for v in g.vertices:
        assert same(rep.q(v), rep_oracles.vertex_operator(rep, v)), v
    legs = list(paths(g, 0, 3)) + list(paths(g, cutoff, cutoff + 2))[:6]
    for mu in legs:
        assert same(rep.t_path(mu), rep_oracles.t_path(rep, mu)), mu
        if len(mu) + 1 <= cutoff:
            assert same(G.path_projection(rep, mu), rep_oracles.path_projection(rep, mu)), mu
    for mu in legs:
        for nu in legs:
            assert same(rep.word_operator(mu, nu), rep_oracles.word_operator(rep, mu, nu))
            if mu.range == nu.range:
                assert same(G.matrix_unit(rep, mu, nu),
                            rep_oracles.matrix_unit(rep, mu, nu)), (mu, nu)
    for m in range(0, cutoff + 1):
        assert same(G.window_projection(rep, m), rep_oracles.window_projection(rep, m)), m


def test_max_basis_env_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("GRAPHCK_MAX_BASIS", "abc")
    with pytest.raises(GraphckError, match="GRAPHCK_MAX_BASIS"):
        G.build_rep(two_loop(), 3)


def test_max_basis_message_names_bound_size_and_knob(monkeypatch):
    # the two-loop basis grows 1, 3, 7, 15: the layer of length 3 crosses 10
    monkeypatch.setenv("GRAPHCK_MAX_BASIS", "10")
    with pytest.raises(ResourceLimit) as err:
        G.build_rep(two_loop(), 3)
    msg = str(err.value)
    assert "15 paths" in msg and "bound 10" in msg and msg.endswith("raise GRAPHCK_MAX_BASIS")
    monkeypatch.setenv("GRAPHCK_MAX_BASIS", "15")
    assert G.build_rep(two_loop(), 3).dimension == 15


def test_max_basis_counts_the_vertex_layer(monkeypatch):
    g = G.DirectedGraph.build(["u", "v", "w"])
    monkeypatch.setenv("GRAPHCK_MAX_BASIS", "2")
    with pytest.raises(ResourceLimit, match="3 paths of length <= 0"):
        G.build_rep(g, 1)
    monkeypatch.setenv("GRAPHCK_MAX_BASIS", "3")
    assert G.build_rep(g, 1).dimension == 3


def test_vertex_projections_sum_to_identity():
    for make in REP_CORPUS.values():
        g = make()
        rep = G.build_rep(g, 3)
        total = RatMatrix(rep.dimension, rep.dimension)
        for v in g.vertices:
            total = total + rep.q(v).matrix
        assert total == identity_matrix(rep.dimension)


def test_tck_relations_on_exact_region():
    for make in REP_CORPUS.values():
        g = make()
        rep = G.build_rep(g, 4)
        for e in g.edges:
            te = rep.t(e)
            assert rep.equal_on_exact_region(te.star() * te, rep.q(e.range))
        for v in g.vertices:
            qv = rep.q(v)
            total = RatMatrix(rep.dimension, rep.dimension)
            for e in g.out_edges(v):
                te = rep.t(e)
                total = total + (te * te.star()).matrix
            # strict domination witnessed by the basis vector at v
            iv = rep.index[Path.at(v)]
            assert qv.matrix.get(iv, iv) == 1 and total.get(iv, iv) == 0
            diff = qv.matrix - total
            cols = rep.exact_columns(2)
            assert all(diff.get(i, i) in (0, 1) for i in cols)


def test_delta_examples():
    g = two_loop()
    v = g.vertex("v")
    rep = G.build_rep(g, 4)
    dv = G.path_projection(rep, Path.at(v))
    iv = rep.index[Path.at(v)]
    ie = rep.index[Path((g.edge("e"),))]
    assert dv.matrix.get(iv, iv) == 1
    assert dv.matrix.get(ie, ie) == 0
    de = G.path_projection(rep, Path((g.edge("e"),)))
    te = rep.t_path(Path((g.edge("e"),)))
    assert rep.equal_on_exact_region(de, te * dv * te.star())
    df = G.path_projection(rep, Path((g.edge("f"),)))
    prod = de * df
    assert prod.matrix.is_zero()


def test_delta_is_rank_one_on_exact_region():
    for make in REP_CORPUS.values():
        g = make()
        rep = G.build_rep(g, 5)
        for mu in paths(g, 0, 3):
            d = G.path_projection(rep, mu)
            cols = rep.exact_columns(d.creations)
            imu = rep.index[mu]
            for i in cols:
                for j in cols:
                    expect = 1 if (i == j == imu) else 0
                    assert d.matrix.get(i, j) == expect


def test_delta_precondition():
    rep = G.build_rep(two_loop(), 2)
    with pytest.raises(ContractViolation):
        G.path_projection(rep, Path((two_loop().edge("e"),) * 2))


def test_matrix_unit_rules():
    g = two_loop()
    e, f = g.edge("e"), g.edge("f")
    rep = G.build_rep(g, 6)
    th_ef = G.matrix_unit(rep, Path((e,)), Path((f,)))
    th_fe = G.matrix_unit(rep, Path((f,)), Path((e,)))
    th_ee = G.matrix_unit(rep, Path((e,)), Path((e,)))
    th_ff = G.matrix_unit(rep, Path((f,)), Path((f,)))
    prod = th_ef * th_fe
    assert rep.equal_on_exact_region(prod, RatMatrixOp(th_ee, prod.creations))
    assert rep.equal_on_exact_region(th_ef.star(), th_fe)
    assert (th_ee * th_ff).matrix.is_zero()
    assert check_matrix_units(rep, 2)


def RatMatrixOp(op, creations):
    from graphck.rep import RepOperator
    return RepOperator(op.matrix, creations)


def test_matrix_unit_range_mismatch():
    g = single_edge()
    rep = G.build_rep(g, 3)
    with pytest.raises(ContractViolation):
        G.matrix_unit(rep, Path((g.edge("e"),)), Path.at(g.vertex("v")))


def test_window_projection_examples():
    g = single_loop()
    rep = G.build_rep(g, 4)
    phi1 = G.window_projection(rep, 1)
    dv = G.path_projection(rep, Path.at(g.vertex("v")))
    assert phi1.matrix == dv.matrix
    g2 = two_loop()
    rep2 = G.build_rep(g2, 6)
    phi2 = G.window_projection(rep2, 2)
    assert rep2.equal_on_exact_region(phi2 * phi2, phi2)
    diag = [phi2.matrix.get(i, i) for i in range(rep2.dimension)]
    assert sum(diag) == 3 and set(diag) <= {0, 1}
    fixed = {rep2.basis[i].id for i, d in enumerate(diag) if d}
    assert fixed == {"v", "e", "f"}
    for m in (-1, 7):
        with pytest.raises(ContractViolation):
            G.window_projection(rep2, m)


def test_phi_compression_display():
    """Phi_m T_a T_b* Phi_m equals the windowed sum of matrix units."""
    for make in (two_loop, two_cycle, mixed_m):
        g = make()
        rep = G.build_rep(g, 8)
        for m in (2, 3):
            phi = G.window_projection(rep, m)
            for e in g.edges:
                for f in g.edges:
                    if e.range != f.range:
                        continue
                    a, b = Path((e,)), Path((f,))
                    word = rep.t_path(a) * rep.t_path(b).star()
                    lhs = phi * word * phi
                    rhs = RatMatrix(rep.dimension, rep.dimension)
                    for t in range(0, m - 1):
                        for tau in paths_from(g, a.range, t):
                            rhs = rhs + G.matrix_unit(rep, a * tau, b * tau).matrix
                    from graphck.rep import RepOperator
                    assert rep.equal_on_exact_region(lhs, RepOperator(rhs, lhs.creations))


def test_kappa_displayed_matrices():
    def frac_rows(denom, rows):
        return tuple(tuple(Fraction(x, denom) for x in row) for row in rows)

    assert G.kappa_matrix(2).entries == frac_rows(2, [[1, 1], [1, 1]])
    assert G.kappa_matrix(3).entries == frac_rows(3, [[1, 1, 1], [1, 2, 1], [1, 1, 1]])
    assert G.kappa_matrix(4).entries == frac_rows(
        3, [[1, 1, 1, 1], [1, 2, 2, 1], [1, 2, 2, 1], [1, 1, 1, 1]])
    assert G.kappa_matrix(5).entries == frac_rows(
        4, [[1, 1, 1, 1, 1], [1, 2, 2, 2, 1], [1, 2, 3, 2, 1],
            [1, 2, 2, 2, 1], [1, 1, 1, 1, 1]])


def test_kappa_zero_extension_and_symmetry():
    k = G.kappa_matrix(4)
    assert k.entry(0, 1) == 0 and k.entry(1, 5) == 0 and k.entry0(-1, 0) == 0
    for m in (2, 3, 4, 5, 6, 7):
        km = G.kappa_matrix(m)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                assert km.entry(i, j) == km.entry(j, i)
                assert km.entry(i, j) == km.entry(m + 1 - i, j)
                assert 0 < km.entry(i, j) <= 1


def test_schur_decomposition_exact(rng):
    for m in list(range(1, 13)) + [20, 31, 40]:
        kappa = G.kappa_matrix(m)
        for _ in range(4):
            a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m)]
                 for _ in range(m)]
            assert schur_multiply(kappa, a) == schur_via_projections(kappa, a)


def test_schur_positivity_and_norm(rng):
    for m in range(2, 9):
        kappa = G.kappa_matrix(m)
        kf = np.array([[float(x) for x in row] for row in kappa.entries])
        bound = kappa.half / (kappa.half + 1)
        for _ in range(20):
            c = np.array([[rng.gauss(0, 1) for _ in range(m)] for _ in range(m)])
            psd = c @ c.T
            eigs = np.linalg.eigvalsh(kf * psd)
            assert eigs.min() >= -1e-9
            a = np.array([[rng.gauss(0, 1) for _ in range(m)] for _ in range(m)])
            norm = np.linalg.norm(a, 2)
            if norm == 0:
                continue
            assert np.linalg.norm(kf * (a / norm), 2) <= bound + 1e-9


def test_band_compression_display_example():
    g = two_loop()
    v = g.vertex("v")
    rep = G.build_rep(g, 8)
    p2 = G.band_compression(rep, 2, Word(Path.at(v), Path.at(v)))
    # P_2 is half the sum of the units e_{tau,tau} over 2 <= |tau| <= 4
    units = RatMatrix(rep.dimension, rep.dimension)
    for tau in paths(g, 2, 4):
        units = units + G.matrix_unit(rep, tau, tau).matrix
    assert p2.matrix + p2.matrix == units


def test_band_compression_empty_window():
    g = two_loop()
    rep = G.build_rep(g, 10)
    mu = Path(tuple(g.edge("e") for _ in range(4)))
    out = G.band_compression(rep, 2, Word(mu, mu))
    assert out.matrix.is_zero()


def test_pm_qm_match_compression_route():
    """The route equals both compressions, with their creation bounds in
    both directions, so that its adjoint is exact only where theirs is."""
    loop_and_cycle = G.DirectedGraph.build(
        ["v", "w"], [("e", "v", "w"), ("f", "w", "v"), ("l", "v", "v")])
    for make in (two_loop, two_cycle, single_loop, lambda: loop_and_cycle):
        g = make()
        rep = G.build_rep(g, 8)
        words = [Word(Path.at(v), Path.at(v)) for v in g.vertices]
        words += [Word(Path((e,)), Path.at(e.range)) for e in g.edges]
        words += [Word(Path.at(e.range), Path((e,))) for e in g.edges]
        for w in words:
            for shifted, compress in ((2, G.band_compression), (3, G.shifted_band_compression)):
                direct, route = compress(rep, 2, w), compression_route(rep, 2, w, shifted)
                assert rep.equal_on_exact_region(direct, route)
                assert rep.equal_on_exact_region(direct.star(), route.star())
                assert ((route.creations, route.star_creations)
                        == (direct.creations, direct.star_creations)), (w, shifted)


def test_pm_preserves_adjoints():
    g = two_loop()
    rep = G.build_rep(g, 8)
    w = Word(Path((g.edge("e"),)), Path.at(g.vertex("v")))
    pm_star = G.band_compression(rep, 2, w.star())
    pm = G.band_compression(rep, 2, w)
    assert pm_star.matrix == pm.matrix.star()


def test_pm_cutoff_guard():
    rep = G.build_rep(two_loop(), 3)
    with pytest.raises(ContractViolation):
        G.band_compression(rep, 2, Word(Path.at(two_loop().vertex("v")),
                              Path.at(two_loop().vertex("v"))))


def test_lambda_map_examples():
    g = two_loop()
    e, f = g.edge("e"), g.edge("f")
    bg = G.blowup_graph(g, 2)
    ef = Path((e, f))
    lm = lambda_map(bg, 2, ef, ef)
    (w, c), = lm.terms.items()
    assert c == 1 and w.alpha.id == "e__f.f__v" and w.alpha == w.beta
    with pytest.raises(ContractViolation):
        lambda_map(bg, 2, Path((e,)), Path((e,)))


def test_lambda_map_is_multiplicative():
    """Matrix units map to words multiplying like matrix units."""
    g = two_loop()
    bg = G.blowup_graph(g, 2)
    window = [p for p in paths(g, 2, 4)]
    for mu in window[:4]:
        for nu in window[:4]:
            for sg in window[:4]:
                left = lambda_map(bg, 2, mu, nu) * lambda_map(bg, 2, nu, sg)
                right = lambda_map(bg, 2, mu, sg)
                assert sums_equal_toeplitz(left, right)
    a, b = window[0], window[1]
    assert lambda_map(bg, 2, a, b).star() == lambda_map(bg, 2, b, a)


def sums_equal_toeplitz(a, b):
    from graphck.symbolic import AlgebraMode, sums_equal
    return sums_equal(a, b, AlgebraMode.TOEPLITZ)


def test_lambda_map_kills_mismatched_units():
    g = two_loop()
    bg = G.blowup_graph(g, 2)
    window = [p for p in paths(g, 2, 4)]
    mu, nu, rho, sg = window[0], window[1], window[2], window[3]
    if nu != rho:
        prod = lambda_map(bg, 2, mu, nu) * lambda_map(bg, 2, rho, sg)
        assert prod.is_zero()


def test_evaluate_drops_rows_its_terms_cancel():
    """p_v - sum_e s_e s_e* in Toeplitz form cancels on every row but v's;
    evaluate stores no zero entry and no empty row, and equals the sum of
    the composed word operators."""
    for make in REP_CORPUS.values():
        g = make()
        rep = G.build_rep(g, 5)
        for v in g.vertices:
            terms = {Word(Path.at(v), Path.at(v)): Fraction(1, 2)}
            for e in g.out_edges(v):
                terms[Word(Path((e,)), Path((e,)))] = Fraction(-1, 2)
                terms[Word(Path((e,)), Path.at(e.range))] = 3
            op = rep.evaluate(FormalSum(g, terms))
            assert all(row and all(row.values()) for row in op.matrix.rows.values())
            want = RatMatrix(rep.dimension, rep.dimension)
            for w, c in terms.items():
                word = rep_oracles.word_operator(rep, w.alpha, w.beta).matrix
                want = want + RatMatrix(rep.dimension, rep.dimension,
                                        {(i, j): c * x for i, row in word.rows.items()
                                         for j, x in row.items()})
            assert op.matrix == want
            iv = rep.index[Path.at(v)]
            assert op.matrix.rows[iv] == {iv: Fraction(1, 2)}


def test_k_coefficients_examples():
    kc = G.k_coefficients(2, 0, 0)
    assert list(kc.values) == [1, 1] and kc.max_defect == 0
    with pytest.raises(ContractViolation):
        G.k_coefficients(3, 3, 0)


def test_k_coefficients_bounds():
    # strict positivity holds away from the extreme gap d = m-1, where the
    # half-shifted window pushes the short leg out of range and the top
    # coefficient is exactly 0 (confirmed by the symbolic gap computation)
    for m in range(1, 41):
        for d in (0, 1, 2):
            if d >= m:
                continue
            kc = G.k_coefficients(m, d, 0)
            assert all(0 <= v <= 1 for v in kc.values)
            if d < m - 1:
                assert all(v > 0 for v in kc.values)


def test_k_coefficients_match_the_compressions():
    """K_{m,i} sums the entries of both compressions of s_mu s_nu* whose row
    length is a+i modulo m; on a single loop there is one path per length."""
    g = single_loop()
    v, e = g.vertex("v"), g.edge("e")

    def leg(n):
        return Path((e,) * n) if n else Path.at(v)

    for m in range(1, 10):
        rep = G.build_rep(g, 2 * m + (m + 1) // 2)
        for a in range(m):
            for b in range(m):
                w = Word(leg(a), leg(b))
                total = (G.band_compression(rep, m, w).matrix
                         + G.shifted_band_compression(rep, m, w).matrix)
                sums = [Fraction(0)] * m
                for i, row in total.rows.items():
                    for x in row.values():
                        sums[(len(rep.basis[i]) - a) % m] += x
                assert sums == list(G.k_coefficients(m, a, b).values), (m, a, b)


def test_k_coefficient_zero_at_extreme_gap():
    assert min(G.k_coefficients(3, 2, 0).values) == 0
    assert min(G.k_coefficients(4, 3, 0).values) == 0


def test_k_coefficients_decay():
    for d in (0, 1, 2):
        defects = [G.k_coefficients(m, d, 0).max_defect for m in (4, 8, 16, 32)]
        assert all(a >= b for a, b in zip(defects, defects[1:]))
        if d >= 1:
            assert defects[-1] < defects[0]


def test_faithfulness_of_truncation(rng):
    """Windows agree between a small and a larger cutoff on the exact region."""
    g = two_loop()
    small, big = G.build_rep(g, 5), G.build_rep(g, 10)
    words = [w for w in _short_words(g)]
    for w in words:
        a = small.evaluate(G.normal_form(_sum_of(g, w), _toe(), None))
        b = big.evaluate(_sum_of(g, w))
        cols_small = small.exact_columns(a.creations)
        for j in cols_small:
            p = small.basis[j]
            jb = big.index[p]
            for i_small, row in a.matrix.rows.items():
                if j in row:
                    assert b.matrix.get(big.index[small.basis[i_small]], jb) == row[j]
            for ib, rowb in b.matrix.rows.items():
                if jb in rowb:
                    assert a.matrix.get(small.index[big.basis[ib]], j) == rowb[jb]


def _toe():
    from graphck.symbolic import AlgebraMode
    return AlgebraMode.TOEPLITZ


def _sum_of(g, w):
    from graphck.symbolic import FormalSum
    return FormalSum.of(g, w)


def _short_words(g):
    out = []
    for mu in paths(g, 0, 3):
        for nu in paths(g, 0, 3):
            if mu.range == nu.range:
                out.append(Word(mu, nu))
    return out


def test_prop26_two_loop_m2_exactly_zero():
    g = two_loop()
    bg = G.blowup_graph(g, 2)
    v = Path.at(g.vertex("v"))
    gap = G.approximation_gap(bg, v, v)
    assert gap.max_coefficient == 0 and gap.difference_terms == 0


def test_prop26_matches_coefficient_table():
    g = single_loop()
    e = g.edge("e")
    v = Path.at(g.vertex("v"))
    for m in (2, 3, 4, 5):
        bg = G.blowup_graph(g, m)
        for mu in (v, Path((e,)), Path((e, e))):
            if len(mu) >= m:
                continue
            gap = G.approximation_gap(bg, mu, v)
            assert gap.max_coefficient == gap.coefficients.max_defect


def _sorted_terms(s: FormalSum) -> str:
    return repr(sorted((repr(w), str(c)) for w, c in s.terms.items()))


# sha256 of the blow-up embedding, the inclusion and the approximation gap, m =
# 1..4, on the graphs of `test_embedding_inclusion_and_gap_are_pinned`: the
# embedded id of every path of length <= 2m+1, the inclusion image of every
# path of length <= m+1 and of every generator, and the sorted difference
# terms of sampled gaps, listed by `rep_oracles.gap_difference`.  `approx`
# and `verify-hom --which iota` read these: update only as a declared result
# change.
EMBEDDING_DIGEST = "a0f7c5c750b6b26676b3a2f852fd73bdb9445432956472464d2d8452a27d875f"


def test_embedding_inclusion_and_gap_are_pinned():
    rng = random.Random(40917)
    graphs = [two_loop(), mixed_m(), single_edge(), two_cycle()]
    graphs += [random_graph(rng, max_vertices=3, max_edges=5) for _ in range(4)]
    graphs += [random_graph(rng, max_vertices=3, max_edges=4, no_sinks=True) for _ in range(4)]
    digest = hashlib.sha256()
    gaps = 0
    for g in graphs:
        for m in range(1, 5):
            bg = G.blowup_graph(g, m)
            for mu in paths(g, 0, 2 * m + 2):
                digest.update(G.embed_path(bg, mu).id.encode())
            for mu in paths(g, 0, m + 2):
                digest.update(_sorted_terms(iota_path_image(bg, mu)).encode())
            for gen in (*g.vertices, *g.edges):
                digest.update(_sorted_terms(G.iota_image(bg, gen)).encode())
            if G.sinks(g):
                continue
            legs = paths(g, 0, m)
            pairs = [(mu, nu) for mu in legs for nu in legs if mu.range == nu.range]
            for mu, nu in rng.sample(pairs, min(3, len(pairs))):
                gap = rep_oracles.gap_difference(bg, mu, nu)
                digest.update(_sorted_terms(gap).encode())
                assert G.approximation_gap(bg, mu, nu).difference_terms == len(gap.terms)
                gaps += 1
    assert gaps > 30
    assert digest.hexdigest() == EMBEDDING_DIGEST


def _longest_left_leg(m: int, a: int, b: int) -> int:
    """|mu| plus the longest extension that either window weights."""
    kappa = G.kappa_matrix(m)
    return a + max(t for shift in (m, m + kappa.half)
                   for t in _window_weights(kappa, shift, a, b))


def _gap_or_refusal(gap, bg, mu, nu, depth):
    try:
        return gap(bg, mu, nu, depth)
    except ContractViolation as err:
        return str(err)


def _max_abs(s: FormalSum) -> Fraction:
    return max((abs(c) for c in s.terms.values()), default=Fraction(0))


_GAP_REFUSALS = ("base graph has a sink", "need m greater than both leg lengths",
                 "legs must share their range", "leveling depth")


def test_gap_counts_match_the_listing_oracle():
    """The per-trunk count against the listed normal form: seeded sink-free
    graphs at m = 1..3, legs that share a suffix, depths past the longest
    left leg, and every refusal in the same order with the same message."""
    rng = random.Random(23017)
    suffixed = G.DirectedGraph.build(["x", "y"], [("a", "x", "y"), ("b", "y", "y"),
                                                  ("c", "y", "x")])
    graphs = [suffixed, two_loop(), mixed_m()]
    graphs += [random_graph(rng, max_vertices=3, max_edges=4, no_sinks=True) for _ in range(16)]
    counted, refused = 0, set()
    for g in graphs:
        # the listing grows exponentially with m and the depth
        for m in (1, 2, 3) if len(g.edges) < 3 or g is suffixed else (1, 2):
            bg = G.blowup_graph(g, m)
            legs = paths(g, 0, m + 1)
            pairs = [(mu, nu) for mu in legs for nu in legs if len(mu) < m and len(nu) < m]
            cases = rng.sample(pairs, min(3, len(pairs)))
            cases += [(rng.choice(legs), rng.choice(legs)) for _ in range(2)]
            if g is suffixed and m == 3:  # a.b and b share the suffix b
                cases.append((Path((g.edge("a"), g.edge("b"))), Path((g.edge("b"),))))
            for mu, nu in cases:
                depths = [None]
                if len(mu) < m and len(nu) < m and mu.range == nu.range:
                    top = _longest_left_leg(m, len(mu), len(nu))
                    depths += [top - 1, top, top + 1 + rng.randint(0, 1)]
                for depth in depths:
                    want = _gap_or_refusal(rep_oracles.gap_difference, bg, mu, nu, depth)
                    got = _gap_or_refusal(G.approximation_gap, bg, mu, nu, depth)
                    if isinstance(want, str):
                        assert got == want, (g, m, mu.id, nu.id, depth)
                        refused.add(next(r for r in _GAP_REFUSALS if want.startswith(r)))
                    else:
                        assert (got.difference_terms, got.max_coefficient) == (
                            len(want.terms), _max_abs(want)), (g, m, mu.id, nu.id, depth)
                        counted += 1
    assert counted > 200 and refused == set(_GAP_REFUSALS)


def _trunk(w: Word) -> tuple[Word, tuple]:
    """(trunk, common suffix): w's legs without their longest common suffix,
    with w's matrix unit."""
    a, b = w.alpha.edges, w.beta.edges
    k = 0
    while k < min(len(a), len(b)) and a[-1 - k] == b[-1 - k]:
        k += 1
    end = a[len(a) - k].source if k else w.alpha.range

    def cut(es):
        return Path(es[:len(es) - k]) if len(es) > k else Path.at(end)
    return Word(cut(a), cut(b), w.unit), a[len(a) - k:]


def _trie_walk(g, trunk: Word, support: dict[tuple, Fraction], depth: int) -> tuple[int, Fraction]:
    """Nonzero leaves and largest |coefficient| of one trunk's normal form,
    by a walk over the trie of its support: a leaf's coefficient is the sum
    on its prefixes in the support, and L(v, k) counts the leaves below a
    node that no longer meets the support."""
    def leaves(v, k):
        out = g.out_edges(v)
        return 1 if k == 0 or not out else sum(leaves(e.range, k - 1) for e in out)

    prefixes = {s[:i] for s in support for i in range(len(s) + 1)}
    count, top = 0, Fraction(0)
    stack = [((), trunk.alpha.range, support.get((), Fraction(0)))]
    while stack:
        node, v, acc = stack.pop()
        k = depth - len(trunk.alpha) - len(node)
        if k == 0 or not g.out_edges(v):
            if acc:
                count, top = count + 1, max(top, abs(acc))
            continue
        for e in g.out_edges(v):
            child = node + (e,)
            if child in prefixes:
                stack.append((child, e.range, acc + support.get(child, Fraction(0))))
            elif acc:
                count, top = count + leaves(e.range, k - 1), max(top, abs(acc))
    return count, top


def test_leveling_splits_by_trunk():
    """The lemma in `approximation_gap`'s docstring, on random sums with and
    without matrix units: the normal form is the disjoint union of the normal
    forms of the sum's trunks, each of them made of words of that trunk, and
    the walk over each trunk's trie gives its term count and its largest
    |coefficient|."""
    rng = random.Random(7741)
    checked = 0
    for _ in range(60):
        g = random_graph(rng, max_vertices=3, max_edges=5)
        short = paths(g, 0, 3)
        tensored = rng.random() < 0.4
        terms: dict[Word, Fraction] = {}
        for _ in range(rng.randint(1, 8)):
            alpha = rng.choice(short)
            beta = rng.choice([p for p in short if p.range == alpha.range])
            unit = (rng.choice(short), rng.choice(short)) if tensored else None
            w = Word(alpha, beta, unit)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            terms[w] = terms.get(w, 0) + c
            if rng.random() < 0.4:  # cancel part of w against its extensions
                for e in g.out_edges(alpha.range):
                    x = Word(alpha.extend(e), beta.extend(e), unit)
                    terms[x] = terms.get(x, 0) - c
        s = FormalSum(g, terms)
        longest = max((len(w.alpha) for w in s.terms), default=0)
        depth = longest + rng.randint(0, 2)
        whole = normal_form(s, AlgebraMode.CUNTZ_KRIEGER, depth)
        by_trunk: dict[Word, dict[Word, Fraction]] = {}
        for w, c in s.terms.items():
            by_trunk.setdefault(_trunk(w)[0], {})[w] = c
        union: dict[Word, Fraction] = {}
        count, top = 0, Fraction(0)
        for trunk, part in by_trunk.items():
            leveled = normal_form(FormalSum(g, part), AlgebraMode.CUNTZ_KRIEGER, depth)
            assert all(_trunk(w)[0] == trunk for w in leveled.terms)
            assert not union.keys() & leveled.terms.keys()
            union.update(leveled.terms)
            n, t = _trie_walk(g, trunk, {_trunk(w)[1]: c for w, c in part.items()}, depth)
            assert (n, t) == (len(leveled.terms), _max_abs(leveled))
            count, top = count + n, max(top, t)
        assert union == whole.terms
        assert (count, top) == (len(whole.terms), _max_abs(whole))
        checked += len(by_trunk)
    assert checked > 150


def test_prop26_preconditions():
    g = mixed_m()
    bg = G.blowup_graph(g, 2)
    with pytest.raises(ContractViolation):
        G.approximation_gap(bg, Path.at(g.vertex("v")), Path.at(g.vertex("v")))
    g2 = two_loop()
    bg2 = G.blowup_graph(g2, 2)
    long = Path((g2.edge("e"), g2.edge("f")))
    with pytest.raises(ContractViolation):
        G.approximation_gap(bg2, long, long)


def test_operator_norm_small():
    m = RatMatrix(2, 2, {(0, 0): Fraction(3), (1, 1): Fraction(-4)})
    assert abs(operator_norm(m) - 4.0) < 1e-12


def test_operator_norm_power_iteration_branch():
    rng = np.random.default_rng(3)
    a = np.diag(rng.uniform(0.1, 5.0, size=2100))
    a[0, 0] = 9.25
    assert abs(operator_norm(a) - 9.25) < 1e-6


def test_kappa_matrix_is_positive_semidefinite():
    for m in range(1, 21):
        kf = np.array([[float(x) for x in row] for row in G.kappa_matrix(m).entries])
        assert np.linalg.eigvalsh(kf).min() >= -1e-9


def _rows(op: G.RepOperator) -> list:
    return [op.creations, op.star_creations,
            sorted((i, sorted(row.items())) for i, row in op.matrix.rows.items())]


# sha256 of the basis, offsets and operator matrices at cutoff 1..5 on the
# graphs of `test_basis_and_operators_are_pinned`, and of each graph's
# refusal of a basis over a GRAPHCK_MAX_BASIS bound.  Basis order fixes every
# matrix index the representation reports: update this digest only as a
# declared result change.
REP_DIGEST = "0c928a0c9ce98b51c85e795a1856e7a2e0c09b190fc4b011c736e3cc3c269d6d"


def test_basis_and_operators_are_pinned(monkeypatch):
    rng = random.Random(60311)
    graphs = [two_loop(), mixed_m(), two_cycle()]
    graphs += [random_graph(rng, max_vertices=3, max_edges=4) for _ in range(4)]
    digest = hashlib.sha256()
    for g in graphs:
        legs = paths(g, 0, 3)
        words = [Word(a, b) for a in legs for b in legs if a.range == b.range]
        mixed = FormalSum(g, {w: Fraction(k + 1, 3) for k, w in enumerate(words)})
        for cutoff in range(1, 6):
            rep = G.build_rep(g, cutoff)
            ops = [rep.t(e) for e in g.edges] + [rep.q(v) for v in g.vertices]
            ops += [rep.t_path(mu) for mu in legs]
            ops += [rep.word_operator(w.alpha, w.beta) for w in words]
            ops.append(rep.evaluate(mixed))
            for m in range(1, cutoff // 2 + 1):
                ops += [G.band_compression(rep, m, w) for w in words]
            digest.update(repr(([p.id for p in rep.basis], rep.offsets,
                                [_rows(op) for op in ops])).encode())
        with monkeypatch.context() as env, pytest.raises(ResourceLimit) as err:
            env.setenv("GRAPHCK_MAX_BASIS", str(len(g.vertices) + len(g.edges) - 1))
            G.build_rep(g, 5)
        digest.update(str(err.value).encode())
    assert digest.hexdigest() == REP_DIGEST
