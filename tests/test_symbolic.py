"""Word arithmetic, leveling normal form, family checks, window projections."""

from __future__ import annotations

from fractions import Fraction

import pytest

import graphck as G
from graphck.errors import ContractViolation
from graphck.graphs import Path, paths
from graphck.symbolic import (AlgebraMode, FormalSum, Word, edge_isometry,
                              iota_path_image, path_isometry, sums_equal,
                              vertex_projection)

from conftest import (SINK_FREE_CORPUS, mixed_m, random_graph, two_cycle,
                      two_loop, u_graph)

CK = AlgebraMode.CUNTZ_KRIEGER
TOEPLITZ = AlgebraMode.TOEPLITZ


def _gens(g):
    out = {("p", v.id): vertex_projection(g, v) for v in g.vertices}
    out.update({("s", e.id): edge_isometry(g, e) for e in g.edges})
    return out


def test_multiply_prefix_collapse():
    g = two_loop()
    e, f = g.edge("e"), g.edge("f")
    se, sf = edge_isometry(g, e), edge_isometry(g, f)
    ee = se * se.star()          # s_e s_e*
    ef = se * sf.star()          # s_e s_f*
    assert (ee * ef).terms == ef.terms
    assert (ee * (sf * sf.star())).is_zero()
    pv = vertex_projection(g, g.vertex("v"))
    assert (pv * ee).terms == ee.terms


def test_multiply_adjoint_and_degree():
    g = two_cycle()
    a = edge_isometry(g, g.edge("a"))
    w = next(iter(a.terms))
    assert w.degree == 1 and w.star().degree == -1
    assert (a.star() * a).terms == vertex_projection(g, g.vertex("w")).terms


def test_word_requires_matching_ranges():
    g = two_cycle()
    with pytest.raises(ContractViolation):
        Word(Path((g.edge("a"),)), Path.at(g.vertex("v")))


def test_normal_form_ck_relation():
    g = two_loop()
    v = g.vertex("v")
    x = vertex_projection(g, v)
    for e in g.edges:
        s = edge_isometry(g, e)
        x = x - s * s.star()
    assert G.normal_form(x, CK, 1).is_zero()
    assert not G.normal_form(x, TOEPLITZ).is_zero()
    leveled = G.normal_form(vertex_projection(g, v), CK, 2)
    assert len(leveled.terms) == 4
    assert all(len(w.alpha) == 2 and w.alpha == w.beta for w in leveled.terms)


def test_normal_form_stops_at_sinks():
    m = mixed_m()
    pw = vertex_projection(m, m.vertex("w"))
    assert G.normal_form(pw, CK, 3) == pw


def test_normal_form_depth_too_small():
    g = two_loop()
    x = path_isometry(g, Path((g.edge("e"), g.edge("f"))))
    with pytest.raises(ContractViolation):
        G.normal_form(x, CK, 1)


def test_normal_form_compatible_with_multiplication(rng):
    """nf(a*b) == nf(nf(a)*nf(b)) at a common depth."""
    for _ in range(60):
        g = random_graph(rng, max_vertices=4, max_edges=6, no_sinks=True)
        ws = []
        for mu in paths(g, 0, 3):
            for nu in paths(g, 0, 3):
                if mu.range == nu.range:
                    ws.append(Word(mu, nu))
        if not ws:
            continue
        def rand_sum():
            out = {}
            for _ in range(rng.randint(1, 4)):
                out[rng.choice(ws)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            return FormalSum(g, out)
        a, b = rand_sum(), rand_sum()
        left = a * b
        na, nb = G.normal_form(a, CK, 3), G.normal_form(b, CK, 3)
        right = na * nb
        depth = max((len(w.alpha) for s in (left, right) for w in s.terms), default=0)
        assert G.normal_form(left, CK, depth) == G.normal_form(right, CK, depth)


def test_iota_images_two_loop():
    g = two_loop()
    bg = G.blowup_graph(g, 2)
    qv = G.iota_image(bg, g.vertex("v"))
    assert {w.alpha.id for w in qv.terms} == {"v", "e", "f"}
    te = G.iota_image(bg, g.edge("e"))
    assert {w.alpha.id for w in te.terms} == {"e__v", "e__e", "e__f"}


def test_iota_m1_is_relabeling(rng):
    for _ in range(10):
        g = random_graph(rng, max_vertices=4, max_edges=6)
        bg = G.blowup_graph(g, 1)
        for v in g.vertices:
            img = G.iota_image(bg, v)
            assert len(img.terms) == 1
        for e in g.edges:
            img = G.iota_image(bg, e)
            assert len(img.terms) == 1


def test_verify_iota_family_toeplitz():
    for name, make in SINK_FREE_CORPUS.items():
        g = make()
        for m in (1, 2, 3, 4):
            if name in ("three_loop", "two_vertex_pi") and m == 4:
                continue  # larger blow-ups are covered by the slim graphs
            bg = G.blowup_graph(g, m)
            check = G.verify_tck_family(
                g, {v: G.iota_image(bg, v) for v in g.vertices},
                {e: G.iota_image(bg, e) for e in g.edges}, TOEPLITZ)
            assert check.ok, (name, m, check.failed_relation)


def test_verify_jm_family_ck():
    for name, make in SINK_FREE_CORPUS.items():
        g = make()
        for m in (1, 2, 3):
            bg = G.blowup_graph(g, m)
            em = bg.graph
            check = G.verify_tck_family(
                em, {v: G.jm_image(bg, v) for v in em.vertices},
                {e: G.jm_image(bg, e) for e in em.edges}, CK)
            assert check.ok, (name, m, check.failed_relation)


def test_jm_images_two_loop():
    g = two_loop()
    bg = G.blowup_graph(g, 2)
    em = bg.graph
    pe = G.jm_image(bg, em.vertex("e"))
    (w, c), = pe.terms.items()
    assert c == 1 and w.alpha.id == "v" and w.unit == (Path((g.edge("e"),)),) * 2
    sef = G.jm_image(bg, em.edge("e__f"))
    (w, _), = sef.terms.items()
    assert w.alpha.id == "e.f" and w.unit[0].id == "v" and w.unit[1].id == "f"
    sev = G.jm_image(bg, em.edge("e__v"))
    (w, _), = sev.terms.items()
    assert w.alpha.id == "v" and w.unit[0].id == "e" and w.unit[1].id == "v"


def test_jm_requires_sink_free():
    m = mixed_m()
    bg = G.blowup_graph(m, 2)
    with pytest.raises(ContractViolation, match="w"):
        G.jm_image(bg, bg.graph.vertices[0])


def test_corrupted_family_fails_with_named_relation():
    g = two_loop()
    bg = G.blowup_graph(g, 2)
    vertex_images = {v: G.iota_image(bg, v) for v in g.vertices}
    edge_images = {e: G.iota_image(bg, e) for e in g.edges}
    edge_images[g.edge("e")] = edge_images[g.edge("f")]
    check = G.verify_tck_family(g, vertex_images, edge_images, TOEPLITZ)
    assert not check.ok and check.failed_relation is not None


def test_gabe_examples():
    m = mixed_m()
    h = {m.vertex("v")}
    ex = G.gabe_approximate_identity(m, h, set(m.vertices))
    assert {(w.alpha.id, w.beta.id) for w in ex.terms} == {("v", "v"), ("a", "a")}
    small = G.gabe_approximate_identity(m, h, {m.vertex("v")})
    assert {w.alpha.id for w in small.terms} == {"v"}
    full = G.gabe_approximate_identity(m, set(m.vertices), set(m.vertices))
    assert {w.alpha.id for w in full.terms} == {"u", "v", "w"}


def test_gabe_preconditions():
    m = mixed_m()
    with pytest.raises(ContractViolation, match="hereditary and saturated"):
        G.gabe_approximate_identity(m, {m.vertex("u")}, set(m.vertices))
    with pytest.raises(ContractViolation, match="acyclic"):
        # quotient by {w} keeps the loops at v
        G.gabe_approximate_identity(m, {m.vertex("w")}, set(m.vertices))


def test_gabe_commutation_examples():
    m = mixed_m()
    h = {m.vertex("v")}
    ex = G.gabe_approximate_identity(m, h, set(m.vertices))
    loop_word = Word(Path((m.edge("e1"),)), Path.at(m.vertex("v")))
    assert G.commutator_is_zero(ex, loop_word)
    small = G.gabe_approximate_identity(m, h, {m.vertex("v")})
    bridge = Word(Path((m.edge("a"),)), Path.at(m.vertex("v")))
    assert not G.commutator_is_zero(small, bridge)
    assert G.commutator_is_zero(FormalSum.zero(m), bridge)


def test_gabe_projection_and_monotone():
    m = mixed_m()
    h = {m.vertex("v")}
    u, v, w = m.vertex("u"), m.vertex("v"), m.vertex("w")
    windows = [{v}, {u, v}, {u, v, w}]
    sums = [G.gabe_approximate_identity(m, h, x) for x in windows]
    for ex in sums:
        assert sums_equal(ex * ex, ex, CK)
    for small, big in zip(sums, sums[1:]):
        assert sums_equal(small * big, small, CK)
        assert sums_equal(big * small, small, CK)


def test_gabe_commutation_once_window_covers_word():
    for make in (mixed_m, u_graph, two_loop):
        g = make()
        for h in G.enumerate_hereditary_saturated(g):
            if not G.is_acyclic(G.quotient_graph(g, h)):
                continue
            for name, word_sum in _gens(g).items():
                word = next(iter(word_sum.terms))
                needed = set(word.alpha.vertices()) | set(word.beta.vertices())
                for extra in (set(), set(g.vertices)):
                    x = needed | extra
                    ex = G.gabe_approximate_identity(g, h, x)
                    assert G.commutator_is_zero(ex, word), (name, sorted(v.id for v in x))
