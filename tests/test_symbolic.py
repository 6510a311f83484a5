"""Word arithmetic, leveling normal form, family checks, window projections."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

import graphck as G
from graphck import symbolic
from graphck.errors import ContractViolation
from graphck.graphs import Path, paths
from graphck.symbolic import (AlgebraMode, FormalSum, Word, edge_isometry,
                              iota_path_image, sums_equal, vertex_projection)

from conftest import (SINK_FREE_CORPUS, mixed_m, random_graph, two_cycle,
                      two_loop, two_vertex_pi, u_graph)
from oracles import path_isometry, path_vertices, product_over_all_pairs

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


def test_indexed_products_match_the_all_pairs_oracle():
    """Seeded rational sums of untensored and tensored words, on graphs with
    and without sinks, with legs of length 0-2 at several sources: the
    indexed product has the terms of the product over every pair of words,
    with the same values in the same insertion order."""
    rng = random.Random(18031)
    nonzero = {False: 0, True: 0}
    empty_legs_at_several_sources = 0
    for k in range(150):
        g = random_graph(rng, max_vertices=4, max_edges=6, no_sinks=k % 2 == 0)
        legs = paths(g, 0, 2)
        words = [Word(a, b) for a in legs for b in legs if a.range == b.range]
        indices = legs[:3]
        tensored = [Word(w.alpha, w.beta, (rng.choice(indices), rng.choice(indices)))
                    for w in words]
        for pool in (words, tensored):
            def rand_sum():
                return FormalSum(g, {rng.choice(pool): Fraction(rng.randint(-3, 3),
                                                                rng.randint(1, 3))
                                     for _ in range(rng.randint(0, 8))})

            a, b = rand_sum(), rand_sum()
            got = list((a * b).terms.items())
            assert got == list(product_over_all_pairs(a, b).terms.items()), (a, b)
            nonzero[pool is tensored] += bool(got)
            empty_legs_at_several_sources += len(
                {w.beta.source for w in a.terms if not w.beta.edges}) > 1
    assert min(nonzero.values()) > 60, nonzero
    assert empty_legs_at_several_sources > 30, empty_legs_at_several_sources


def test_mixed_products_are_refused():
    """A tensored sum times an untensored one is refused in either order, also
    when no pair of words shares a source, and when only some words of a sum
    are tensored; a zero factor has no word to refuse."""
    g = two_cycle()
    v, w = g.vertex("v"), g.vertex("w")
    at_v, at_w = Path.at(v), Path.at(w)
    plain = vertex_projection(g, v)
    tensored = FormalSum.of(g, Word(at_w, at_w, (at_v, at_v)))
    mixed = plain + FormalSum.of(g, Word(at_v, at_v, (at_v, at_v)))
    for x, y in ((plain, tensored), (tensored, plain), (mixed, plain), (plain, mixed),
                 (mixed, tensored), (mixed, mixed)):
        with pytest.raises(ContractViolation, match="tensored with untensored"):
            x * y
    assert (FormalSum(g) * mixed).is_zero() and (mixed * FormalSum(g)).is_zero()


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


def test_iota_refuses_generators_outside_the_base_graph():
    g = two_loop()
    bg = G.blowup_graph(g, 2)
    v = g.vertex("v")
    for gen in (G.Vertex("zz"), G.Edge("x", v, v), G.Edge("y", v, G.Vertex("zz")),
                G.Edge("e", v, G.Vertex("zz"))):
        with pytest.raises(ContractViolation, match=gen.id):
            G.iota_image(bg, gen)


def test_jm_refuses_generators_outside_the_blowup():
    bg = G.blowup_graph(two_loop(), 2)
    v = bg.graph.vertex("v")
    for gen in (G.Vertex("zz"), G.Edge("x", v, v)):
        with pytest.raises(ContractViolation, match=gen.id):
            G.jm_image(bg, gen)


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
    assert G.commutator_is_zero(FormalSum(m), bridge)


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
                needed = set(path_vertices(word.alpha)) | set(path_vertices(word.beta))
                for extra in (set(), set(g.vertices)):
                    x = needed | extra
                    ex = G.gabe_approximate_identity(g, h, x)
                    assert G.commutator_is_zero(ex, word), (name, sorted(v.id for v in x))


def _iota_family(bg):
    g = bg.base
    return ({v: G.iota_image(bg, v) for v in g.vertices},
            {e: G.iota_image(bg, e) for e in g.edges})


def _jm_family(bg):
    em = bg.graph
    return ({v: G.jm_image(bg, v) for v in em.vertices},
            {e: G.jm_image(bg, e) for e in em.edges})


def _set(images, key, value):
    images[key] = value


def test_planted_iota_failures_name_the_first_relation():
    """One planted failure per relation kind on the inclusion of the two-vertex
    graph (vertices v, w; out-edges e1, e2, c at v and f1, f2 at w)."""
    g = two_vertex_pi()
    bg = G.blowup_graph(g, 2)
    V, E = g.vertex, g.edge
    cases = [
        (lambda q, t: _set(q, V("v"), t[E("e1")]), "selfadjoint(v)", "selfadjoint(v)"),
        (lambda q, t: _set(q, V("v"), q[V("v")] + q[V("v")]), "projection(v)", "projection(v)"),
        # two overlapping vertex images
        (lambda q, t: _set(q, V("w"), q[V("w")] + q[V("v")]),
         "orthogonality(v,w)", "orthogonality(v,w)"),
        # a later vertex image that is not a projection
        (lambda q, t: _set(q, V("w"), q[V("w")] + q[V("w")]), "projection(w)", "projection(w)"),
        (lambda q, t: _set(t, E("e2"), t[E("e2")] + t[E("e2")]), "CK1(e2)", "CK1(e2)"),
        (lambda q, t: _set(t, E("e2"), t[E("e1")]),
         "CK2-orthogonality(e1,e2)", "CK2-orthogonality(e1,e2)"),
        (lambda q, t: _set(t, E("c"), t[E("f1")]), "CK2-domination(c)", "CK2-domination(c)"),
        # s_e1 s_e1 is an isometry onto a smaller range: a Toeplitz family only
        (lambda q, t: _set(t, E("e1"), t[E("e1")] * t[E("e1")]), None, "CK2-sum(v)"),
    ]
    for plant, in_toeplitz, in_ck in cases:
        q, t = _iota_family(bg)
        plant(q, t)
        assert G.verify_tck_family(g, q, t, TOEPLITZ).failed_relation == in_toeplitz
        assert G.verify_tck_family(g, q, t, CK).failed_relation == in_ck


def test_planted_jm_failures_name_the_first_relation():
    """One planted failure per relation kind on the reinclusion of the two-loop
    graph's blow-up at m = 2: vertices v, e, f; out-edges e__e, e__f, f__e, f__f
    at v, e__v at e and f__v at f."""
    bg = G.blowup_graph(two_loop(), 2)
    em = bg.graph
    V, E = em.vertex, em.edge
    cases = [
        (lambda q, t: _set(q, V("e"), t[E("e__v")]), "selfadjoint(e)"),
        (lambda q, t: _set(q, V("v"), q[V("v")] + q[V("v")]), "projection(v)"),
        (lambda q, t: _set(q, V("e"), q[V("e")] + q[V("v")]), "orthogonality(v,e)"),
        (lambda q, t: _set(q, V("f"), q[V("f")] + q[V("e")]), "orthogonality(e,f)"),
        (lambda q, t: _set(q, V("f"), q[V("f")] + q[V("f")]), "projection(f)"),
        (lambda q, t: _set(t, E("f__v"), t[E("f__v")] + t[E("f__v")]), "CK1(f__v)"),
        (lambda q, t: _set(t, E("f__e"), t[E("e__e")]), "CK2-orthogonality(e__e,f__e)"),
        (lambda q, t: _set(t, E("e__v"), t[E("f__v")]), "CK2-domination(e__v)"),
        (lambda q, t: _set(t, E("e__v"), t[E("e__v")] * t[E("e__e")] * t[E("e__v")]),
         "CK2-sum(e)"),
        (lambda q, t: _set(t, E("e__v"), t[E("e__v")].star()), "CK1(e__v)"),
    ]
    for plant, name in cases:
        q, t = _jm_family(bg)
        plant(q, t)
        check = G.verify_tck_family(em, q, t, CK)
        assert (check.ok, check.failed_relation) == (False, name)


def test_family_checks_grow_linearly(monkeypatch):
    """A passing family costs a bounded number of products per generator:
    on the two-loop graph's blow-ups at m = 3..6 the jm check makes at most
    2 (|V| + |E|) `FormalSum` products, where the pairwise relations alone
    would make |V| (|V| - 1) / 2, and the iota check at m = 6 at most 8000
    word products."""
    calls = {"sums": 0, "words": 0}
    product, word_product = FormalSum.__mul__, symbolic._word_product

    def counted_product(a, b):
        calls["sums"] += 1
        return product(a, b)

    def counted_word_product(a, b):
        calls["words"] += 1
        return word_product(a, b)

    monkeypatch.setattr(FormalSum, "__mul__", counted_product)
    monkeypatch.setattr(symbolic, "_word_product", counted_word_product)
    g = two_loop()
    for m in (3, 4, 5, 6):
        bg = G.blowup_graph(g, m)
        em = bg.graph
        q, t = _jm_family(bg)
        calls.update(sums=0)
        assert G.verify_tck_family(em, q, t, CK)
        size = len(em.vertices) + len(em.edges)
        assert calls["sums"] <= 2 * size, (m, calls, size)
    # 63 vertices: 1953 pairs of vertex images
    assert calls["sums"] <= 400
    q, t = _iota_family(bg)
    calls.update(words=0)
    assert G.verify_tck_family(g, q, t, TOEPLITZ)
    assert calls["words"] <= 8000, calls


def test_idempotent_vertex_images_must_be_selfadjoint():
    """Idempotents that are not selfadjoint fail as vertex images, named by
    selfadjoint(v): theta_{x,x} + theta_{x,y} for one vertex x of the jm
    family, and p_v + s_a over the 2-cycle v -a-> w -b-> v as the image of an
    isolated vertex, where every other relation holds."""
    bg = G.blowup_graph(two_loop(), 3)
    em = bg.graph
    x, y = em.vertices[3], em.vertices[4]
    at = Path.at(bg.base.vertex("v"))
    q, t = _jm_family(bg)
    q[x] = q[x] + FormalSum.of(bg.base, Word(at, at, (bg.path_of_vertex(x),
                                                     bg.path_of_vertex(y))))
    assert G.normal_form(q[x] * q[x] - q[x], CK).is_zero()
    check = G.verify_tck_family(em, q, t, CK)
    assert (check.ok, check.failed_relation) == (False, f"selfadjoint({x.id})")

    target = two_cycle()
    idempotent = (vertex_projection(target, target.vertex("v"))
                  + edge_isometry(target, target.edge("a")))
    assert (idempotent * idempotent).terms == idempotent.terms
    isolated = G.DirectedGraph.build(["x"], [])
    for mode in (TOEPLITZ, CK):
        check = G.verify_tck_family(isolated, {isolated.vertex("x"): idempotent}, {}, mode)
        assert (check.ok, check.failed_relation) == (False, "selfadjoint(x)")


def test_vertex_images_must_each_be_projections():
    """2 p_v and -p_v sum to the projection p_v, but neither is one: as the
    images of two isolated vertices they fail projection(x)."""
    g = two_loop()
    pv = vertex_projection(g, g.vertex("v"))
    isolated = G.DirectedGraph.build(["x", "y"], [])
    images = {isolated.vertex("x"): pv + pv, isolated.vertex("y"): -pv}
    for mode in (TOEPLITZ, CK):
        check = G.verify_tck_family(isolated, images, {}, mode)
        assert (check.ok, check.failed_relation) == (False, "projection(x)")


# sha256 of (ok, failed_relation) for seeded perturbed families, see
# `test_family_verdicts_are_pinned`.  `verify-hom` reports these names: update
# only as a declared result change.
FAMILY_DIGEST = "38085331b69057fd8246fa94cab641c85be1428b45d7396cb584aabfade43c32"


def test_family_verdicts_are_pinned():
    """Iota and jm families of seeded sink-free graphs at m = 1..3, each with one
    image scaled by 2, added to another image, zeroed, swapped with another
    image, replaced by its adjoint, replaced by another image or multiplied by
    another image on the right, checked in both modes."""
    rng = random.Random(15077)
    digest = hashlib.sha256()
    families = failures = 0
    names = set()
    while families < 520:
        g = random_graph(rng, max_vertices=3, max_edges=4, no_sinks=True)
        bg = G.blowup_graph(g, rng.randint(1, 3))
        for which, domain, make in (("iota", g, _iota_family), ("jm", bg.graph, _jm_family)):
            q, t = make(bg)
            gens = [(q, v) for v in domain.vertices] + [(t, e) for e in domain.edges]
            images, key = rng.choice(gens)
            other_images, other = rng.choice(gens)
            kind = rng.choice(("scale", "add", "zero", "swap", "adjoint", "copy", "product"))
            if kind == "scale":
                images[key] = images[key] + images[key]
            elif kind == "add":
                images[key] = images[key] + other_images[other]
            elif kind == "zero":
                images[key] = FormalSum(images[key].graph)
            elif kind == "swap":
                images[key], other_images[other] = other_images[other], images[key]
            elif kind == "adjoint":
                images[key] = images[key].star()
            elif kind == "copy":
                images[key] = other_images[other]
            else:
                images[key] = images[key] * other_images[other]
            for mode in (TOEPLITZ, CK):
                check = G.verify_tck_family(domain, q, t, mode)
                digest.update(repr((which, kind, check.ok, check.failed_relation)).encode())
                failures += not check.ok
                names.add(check.failed_relation)
            families += 1
    assert failures > 800
    assert {n.split("(")[0] for n in names if n} == {
        "selfadjoint", "projection", "orthogonality", "CK1", "CK2-orthogonality",
        "CK2-domination", "CK2-sum"}
    assert digest.hexdigest() == FAMILY_DIGEST


# sha256 of the sorted terms of seeded normal forms, see
# `test_normal_forms_are_pinned`.  Every symbolic verdict reads these: update
# only as a declared result change.
NORMAL_FORM_DIGEST = "d8dbd765a0e93fb817b1edfe1c7e2cd883ef90192058a0967174fd67ce2eb26a"


def test_normal_forms_are_pinned():
    """Seeded rational sums of untensored and tensored words, on graphs with and
    without sinks, and the cancelling differences a - nf(a) with one planted
    word, leveled at the default depth and one and two steps past it."""
    rng = random.Random(91501)
    digest = hashlib.sha256()
    sums = 0
    for k in range(80):
        g = random_graph(rng, max_vertices=3, max_edges=5, no_sinks=k % 2 == 0)
        legs = paths(g, 0, 2)
        words = [Word(a, b) for a in legs for b in legs if a.range == b.range]
        units = [(a, b) for a in legs for b in legs][:6]
        tensored = [Word(w.alpha, w.beta, u) for w in words[:8] for u in units]

        def rand_sum(pool):
            return FormalSum(g, {rng.choice(pool): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                 for _ in range(rng.randint(1, 5))})

        for pool in (words, tensored):
            a = rand_sum(pool)
            for s in (a, a - G.normal_form(a, CK, 3) + FormalSum(g, {rng.choice(pool): 2}),
                      a * rand_sum(pool) - rand_sum(pool)):
                longest = max((len(w.alpha) for w in s.terms), default=0)
                for mode, depth in ((TOEPLITZ, None), (CK, None), (CK, longest + 1),
                                    (CK, longest + 2)):
                    digest.update(_sorted_terms(G.normal_form(s, mode, depth)).encode())
                digest.update(repr(sums_equal(s, a, CK)).encode())
                sums += 1
    assert sums == 480
    assert digest.hexdigest() == NORMAL_FORM_DIGEST


def _sorted_terms(s: FormalSum) -> str:
    return repr(sorted((repr(w), str(c)) for w, c in s.terms.items()))
