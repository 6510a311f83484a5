"""Acceptance gate: one test per criterion, each printing a PASS line.

Every expected value here is either frozen from an independent computation
(brute force, enumeration, minor gcds, coefficient tables) or is a direct
structural fact; tolerances and runtime budgets are pinned in-line.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np

import graphck as G
from graphck.graphs import Path, is_hereditary, is_saturated, paths, paths_from
from graphck.ktheory import smith_normal_form
from graphck.rep import RepOperator, compression_route
from graphck.sparse import RatMatrix
from graphck.symbolic import (AlgebraMode, FormalSum, Word, edge_isometry,
                              iota_path_image, sums_equal, vertex_projection)

from conftest import (REP_CORPUS, SINK_FREE_CORPUS, mixed_m, random_condition_k_graph,
                      random_graph, single_edge, single_loop, two_cycle, two_loop,
                      two_vertex_pi, u_graph)
from oracles import path_isometry, path_vertices, smith_diagonal_by_minors, truncate_path
from rep_oracles import check_matrix_units

CK = AlgebraMode.CUNTZ_KRIEGER
TOEPLITZ = AlgebraMode.TOEPLITZ


class _budget:
    """Context manager asserting the criterion's runtime budget."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s, budget {self.seconds}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded budget: {elapsed:.2f}s"
        else:
            print(f"ACCEPTANCE {self.name}: FAIL")
        return False


def test_c01_kappa_fidelity():
    with _budget("C1 kappa fidelity + Schur decomposition", 5):
        def rows(denom, r):
            return tuple(tuple(Fraction(x, denom) for x in row) for row in r)

        assert G.kappa_matrix(2).entries == rows(2, [[1, 1], [1, 1]])
        assert G.kappa_matrix(3).entries == rows(3, [[1, 1, 1], [1, 2, 1], [1, 1, 1]])
        assert G.kappa_matrix(4).entries == rows(
            3, [[1, 1, 1, 1], [1, 2, 2, 1], [1, 2, 2, 1], [1, 1, 1, 1]])
        assert G.kappa_matrix(5).entries == rows(
            4, [[1, 1, 1, 1, 1], [1, 2, 2, 2, 1], [1, 2, 3, 2, 1],
                [1, 2, 2, 2, 1], [1, 1, 1, 1, 1]])

        # exact decomposition on >= 100 random rational matrices per size:
        # a common denominator is cleared, leaving an integer identity that
        # int64 holds exactly (entries stay far below 2^40)
        rng = np.random.default_rng(11)
        for m in range(1, 41):
            half = -(-m // 2)
            counts = np.array([[min(i, j, m + 1 - i, m + 1 - j)
                                for j in range(1, m + 1)] for i in range(1, m + 1)],
                              dtype=np.int64)
            for _ in range(100):
                numer = rng.integers(-99, 100, size=(m, m)).astype(np.int64)
                lhs = counts * numer  # (half+1) * kappa entrywise product
                rhs = np.zeros_like(numer)
                for l in range(1, half + 1):
                    rhs[l - 1:m - l + 1, l - 1:m - l + 1] += numer[l - 1:m - l + 1,
                                                                   l - 1:m - l + 1]
                assert np.array_equal(lhs, rhs)


def test_c02_schur_norm_bound():
    with _budget("C2 Schur multiplier norm bound", 10):
        rng = np.random.default_rng(12)
        for m in range(2, 13):
            kappa = G.kappa_matrix(m)
            kf = np.array([[float(x) for x in row] for row in kappa.entries])
            bound = kappa.half / (kappa.half + 1)
            for _ in range(100):
                a = rng.standard_normal((m, m))
                a /= np.linalg.norm(a, 2)
                assert np.linalg.norm(kf * a, 2) <= bound + 1e-9


def test_c03_compacts_suite():
    with _budget("C3 matrix units, path projections, band compressions", 30):
        for name, make in REP_CORPUS.items():
            g = make()
            rep = G.build_rep(g, 10)
            assert check_matrix_units(rep, 2), name
            for mu in paths(g, 0, 4):
                d = G.path_projection(rep, mu)
                dv = G.path_projection(rep, Path.at(mu.range))
                tm = rep.t_path(mu)
                assert rep.equal_on_exact_region(d, tm * dv * tm.star()), name
            for m in range(1, 5):
                phi = G.window_projection(rep, m)
                assert rep.equal_on_exact_region(phi * phi, phi), name
                assert phi.matrix == phi.matrix.star(), name
                # band compression of generator words matches the unit sum
                words = [(Path.at(v), Path.at(v)) for v in g.vertices]
                words += [(Path((e,)), Path((f,))) for e in g.edges for f in g.edges
                          if e.range == f.range]
                for a, b in words:
                    lhs = phi * rep.word_operator(a, b) * phi
                    rhs = RatMatrix(rep.dimension, rep.dimension)
                    for t in range(0, m - max(len(a), len(b))):
                        for tau in paths_from(g, a.range, t):
                            rhs = rhs + G.matrix_unit(rep, a * tau, b * tau).matrix
                    assert rep.equal_on_exact_region(
                        lhs, RepOperator(rhs, lhs.creations, lhs.star_creations)), name


def test_c04_inclusion_suite(monkeypatch):
    monkeypatch.setenv("GRAPHCK_MAX_BASIS", "400000")
    with _budget("C4 inclusion family and embedded-path identities", 60):
        for name, make in REP_CORPUS.items():
            g = make()
            for m in (1, 2, 3):
                bg = G.blowup_graph(g, m)
                check = G.verify_tck_family(
                    g, {v: G.iota_image(bg, v) for v in g.vertices},
                    {e: G.iota_image(bg, e) for e in g.edges}, TOEPLITZ)
                assert check.ok, (name, m, check.failed_relation)
                em = bg.graph
                repm = G.build_rep(em, 2 * m + 2)
                for mu in paths(g, 0, 2 * m + 1):
                    img = G.embed_path(bg, mu)
                    lhs_sym = path_isometry(em, img)
                    q_r = vertex_projection(em, bg.vertex_of_path(Path.at(mu.range)))
                    q_head = vertex_projection(
                        em, bg.vertex_of_path(truncate_path(mu, m).head))
                    inc = iota_path_image(bg, mu)
                    assert inc * q_r == lhs_sym, (name, m, mu.id)
                    assert q_head * inc == lhs_sym, (name, m, mu.id)
                    lhs_rep = repm.t_path(img)
                    inc_rep = repm.evaluate(inc)
                    qr_rep = repm.q(bg.vertex_of_path(Path.at(mu.range)))
                    qh_rep = repm.q(bg.vertex_of_path(truncate_path(mu, m).head))
                    assert repm.equal_on_exact_region(inc_rep * qr_rep, lhs_rep)
                    assert repm.equal_on_exact_region(qh_rep * inc_rep, lhs_rep)


def test_c05_reinclusion_family():
    with _budget("C5 reinclusion family in relation mode", 60):
        for name, make in SINK_FREE_CORPUS.items():
            g = make()
            for m in (1, 2, 3):
                bg = G.blowup_graph(g, m)
                em = bg.graph
                vertex_images = {v: G.jm_image(bg, v) for v in em.vertices}
                edge_images = {e: G.jm_image(bg, e) for e in em.edges}
                check = G.verify_tck_family(em, vertex_images, edge_images, CK)
                assert check.ok, (name, m, check.failed_relation)
        # negative control: swap a range vertex inside one image
        g = two_loop()
        bg = G.blowup_graph(g, 2)
        em = bg.graph
        vertex_images = {v: G.jm_image(bg, v) for v in em.vertices}
        edge_images = {e: G.jm_image(bg, e) for e in em.edges}
        ev, fv = em.edge("e__v"), em.edge("f__v")
        edge_images[ev] = edge_images[fv]
        chk = G.verify_tck_family(em, vertex_images, edge_images, CK)
        assert not chk.ok and chk.failed_relation is not None


def test_c06_multiplication_by_m_random():
    with _budget("C6 multiplication-by-m on 200 random sink-free graphs", 60):
        rng = random.Random(987654)
        failures = 0
        for _ in range(200):
            g = random_graph(rng, max_vertices=6, max_edges=12, no_sinks=True)
            for m in (1, 2, 3, 4, 5):
                cert = G.verify_multiplication_by_m(g, m)
                if not (cert.ok and cert.reverify()):
                    failures += 1
        assert failures == 0


def test_c07_subquotient_sweep():
    with _budget("C7 multiplication-by-m on ideals, quotients, subquotients", 60):
        for name, make in SINK_FREE_CORPUS.items():
            g = make()
            for m in (1, 2, 3):
                report = G.verify_on_subquotients(g, m)
                assert not any(e.status == "fail" for e in report.entries), (name, m)
                for e in report.entries:
                    assert e.status in ("pass", "skip")
                    if e.certificate is not None:
                        assert e.certificate.reverify()


def test_c08_approximation_gap():
    with _budget("C8 compression-vs-inclusion gap decay", 120):
        # base case: exactly zero on the two-loop graph at m = 2, equal legs
        g2 = two_loop()
        v2 = Path.at(g2.vertex("v"))
        gap0 = G.approximation_gap(G.blowup_graph(g2, 2), v2, v2)
        assert gap0.max_coefficient == 0 and gap0.difference_terms == 0

        # the scan runs on the linear-growth corpus graphs, where the blow-up
        # stays a cycle-like graph even at m = 16
        scan = {}
        for name, make in (("single_loop", single_loop), ("two_cycle", two_cycle)):
            g = make()
            legs = {}
            for d in (0, 1, 2):
                found = None
                for mu in paths(g, d, d + 1):
                    for nu in paths(g, 0, 1):
                        if mu.range == nu.range:
                            found = (mu, nu)
                            break
                    if found:
                        break
                assert found is not None
                legs[d] = found
            for m in (4, 8, 16):
                bg = G.blowup_graph(g, m)
                for d, (mu, nu) in legs.items():
                    gap = G.approximation_gap(bg, mu, nu)
                    assert gap.max_coefficient == gap.coefficients.max_defect, (name, m, d)
                    scan[(name, m, d)] = gap.max_coefficient
            for d in (0, 1, 2):
                seq = [scan[(name, m, d)] for m in (4, 8, 16)]
                assert seq[0] >= seq[1] >= seq[2], (name, d, seq)
                if d >= 1:
                    assert seq[2] < seq[0], (name, d, seq)

        # branching cross-check: the gap agrees with the coefficient table on
        # the two-loop graph as well (m = 4 keeps the blow-up tractable)
        bg4 = G.blowup_graph(g2, 4)
        e, f = g2.edge("e"), g2.edge("f")
        for mu, nu in ((v2, v2), (Path((e,)), v2), (Path((e, f)), v2),
                       (Path((e,)), Path((f,)))):
            gap = G.approximation_gap(bg4, mu, nu)
            assert gap.max_coefficient == gap.coefficients.max_defect


def test_c09_window_projections():
    with _budget("C9 window projections: idempotent, central, monotone", 60):
        corpus = dict(REP_CORPUS)
        corpus["two_vertex_pi"] = two_vertex_pi
        for name, make in corpus.items():
            g = make()
            gens = [("p", v.id, Word(Path.at(v), Path.at(v))) for v in g.vertices]
            gens += [("s", e.id, Word(Path((e,)), Path.at(e.range))) for e in g.edges]
            for h in G.enumerate_hereditary_saturated(g):
                if not G.is_acyclic(G.quotient_graph(g, h)):
                    continue
                full = G.gabe_approximate_identity(g, h, set(g.vertices))
                assert sums_equal(full * full, full, CK), name
                for kind, label, w in gens:
                    needed = set(path_vertices(w.alpha)) | set(path_vertices(w.beta))
                    ex = G.gabe_approximate_identity(g, h, needed)
                    assert G.commutator_is_zero(ex, w), (name, kind, label)
                    assert G.commutator_is_zero(full, w), (name, kind, label)
                    # monotone: the smaller window is absorbed by the larger
                    assert sums_equal(ex * full, ex, CK), (name, kind, label)
                    assert sums_equal(full * ex, ex, CK), (name, kind, label)


def test_c10_closure_subgraph():
    with _budget("C10 closure subgraph properties on 100 random graphs", 30):
        rng = random.Random(24680)
        for _ in range(100):
            g = random_condition_k_graph(rng)
            k = rng.randint(0, len(g.vertices))
            v_set = set(rng.sample(list(g.vertices), k))
            f_set = set(rng.sample(list(g.edges), rng.randint(0, min(3, len(g.edges)))))
            sub = G.jeong_park_subgraph(g, v_set, f_set)
            assert G.satisfies_condition_K(sub)
            assert G.every_vertex_connects_to_cycle(sub)
            assert v_set <= set(sub.vertices) and f_set <= set(sub.edges)
            assert set(sub.vertices) <= set(g.vertices)
            assert set(sub.edges) <= set(g.edges)


def test_c11_classifier_corpus():
    with _budget("C11 classifier corpus", 10):
        from test_classify import CORPUS

        assert len(CORPUS) >= 12
        for name, make, lo, hi, rule in CORPUS:
            verdict = G.classify(make())
            assert (verdict.lower, verdict.upper) == (lo, hi), (name, verdict)
            assert rule in {r.rule for r in verdict.rules_fired}, (name, verdict)


def test_c12_oracle_equivalence():
    with _budget("C12 oracle equivalence", 120):
        rng = random.Random(13579)
        # hereditary-saturated enumeration vs exhaustive subset filtering
        for _ in range(60):
            g = random_graph(rng, max_vertices=8, max_edges=16)
            fast = {frozenset(v.id for v in s)
                    for s in G.enumerate_hereditary_saturated(g)}
            brute = set()
            for k in range(len(g.vertices) + 1):
                for sub in combinations(g.vertices, k):
                    if is_hereditary(g, sub) and is_saturated(g, sub):
                        brute.add(frozenset(v.id for v in sub))
            assert fast == brute

        # Smith form vs the minor-gcd oracle, 10^4 randomized cases
        for _ in range(10_000):
            n = rng.randint(1, 6)
            m = rng.randint(1, 6)
            mat = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
            snf = smith_normal_form(mat)
            assert snf.verify()
            assert snf.diagonal == smith_diagonal_by_minors(mat)

        # symbolic canonical-form equality vs equality in the truncated
        # representation: with legs of length <= 2 leveled at depth 3, every
        # canonical word has its right leg of length <= 5, so the columns of
        # length <= cutoff - 3 = 5 both act exactly and contain the witness
        # column of any nonzero canonical word
        depth, max_leg = 3, 2
        for make in (two_loop, two_cycle, mixed_m):
            g = make()
            ws = [Word(mu, nu) for mu in paths(g, 0, max_leg + 1)
                  for nu in paths(g, 0, max_leg + 1) if mu.range == nu.range]
            rep = G.build_rep(g, depth + max_leg + depth)
            col_limit = rep.cutoff - depth
            cols = {i for i, p in enumerate(rep.basis) if len(p) <= col_limit}

            def rand_sum():
                return FormalSum(
                    g, {rng.choice(ws): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for _ in range(rng.randint(1, 4))})

            agreements = 0
            for _ in range(120):
                a = rand_sum()
                b = rand_sum() if rng.random() < 0.5 else G.normal_form(a, CK, depth)
                diff = G.normal_form(a - b, CK, depth)
                eq_sym = diff.is_zero()
                op = rep.evaluate(diff)
                eq_num = all(v == 0
                             for i, row in op.matrix.rows.items()
                             for j, v in row.items() if j in cols)
                assert eq_sym == eq_num
                agreements += 1
            assert agreements == 120
