"""The partial-injection algebra against its dict-of-dicts oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest

import graphck as G
from graphck.graphs import Path
from graphck.rep import RepOperator
from graphck.sparse import Injection, RatMatrix

from conftest import two_loop
from rep_oracles import injection_matrix


def _typed(m) -> dict:
    """Rows with each entry's type, so that int 1 and Fraction(1) differ."""
    return {i: {j: (type(v), v) for j, v in row.items()} for i, row in m.rows.items()}


def _random_injection(rng, n: int) -> dict[int, int]:
    cols = rng.sample(range(n), rng.randint(0, n))
    return dict(zip(cols, rng.sample(range(n), len(cols))))


def _random_matrix(rng, n: int) -> RatMatrix:
    m = RatMatrix(n, n)
    for _ in range(rng.randint(0, 2 * n)):
        v = rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
        if v:
            m.rows.setdefault(rng.randrange(n), {})[rng.randrange(n)] = v
    return m


def _near(rng, m: RatMatrix) -> RatMatrix:
    """A copy of m with at most one entry changed, so comparisons go both ways."""
    out = m + RatMatrix(m.nrows, m.ncols)
    if rng.random() < 0.5:
        i, j = rng.randrange(m.nrows), rng.randrange(m.ncols)
        out = out + RatMatrix(m.nrows, m.ncols, {(i, j): Fraction(rng.choice((-1, 1)), 2)})
    return out


def test_injection_algebra_matches_the_dict_oracle(rng):
    seen = set()
    for trial in range(300):
        n = rng.randint(1, 7)
        a = {} if trial % 25 == 0 else _random_injection(rng, n)
        b = dict(a) if rng.random() < 0.3 else _random_injection(rng, n)
        if b and rng.random() < 0.5:
            del b[next(iter(b))]
        i, j = Injection(n, a), Injection(n, b)
        oi, oj = injection_matrix(n, a), injection_matrix(n, b)
        m = _random_matrix(rng, n)
        if rng.random() < 0.3:
            m = oi + RatMatrix(n, n)  # equal to i, stored as a RatMatrix
        near = _near(rng, m)

        assert _typed(i) == _typed(oi) and i.rows == oi.rows
        assert _typed(i * j) == _typed(oi * oj) and isinstance(i * j, Injection)
        assert _typed(i * m) == _typed(oi * m)
        assert _typed(m * i) == _typed(m * oi)
        assert _typed(i.star()) == _typed(oi.star()) and isinstance(i.star(), Injection)
        assert _typed(i + j) == _typed(oi + oj)
        assert _typed(i - m) == _typed(oi - m)
        assert _typed(m - i) == _typed(m - oi)
        assert _typed(-i) == _typed(-oi)
        assert i.nnz() == oi.nnz() and i.is_zero() == oi.is_zero()
        for r in range(n):
            for c in range(n):
                got, want = i.get(r, c), oi.get(r, c)
                assert got == want and type(got) is type(want)
        for x, ox in ((j, oj), (m, m), (near, near)):
            assert (i == x) == (oi == ox) == (x == i)
            kinds = (set(rng.sample(range(n), rng.randint(0, n))),
                     range(rng.randint(0, n)), list(range(0, n, 2)))
            for cols in kinds:
                want = oi.equal_on_columns(ox, cols)
                assert i.equal_on_columns(x, cols) == want
                assert x.equal_on_columns(i, cols) == want
                seen.add(want)
    assert seen == {True, False}


def test_injection_shapes_are_checked():
    a, b = Injection(2, {0: 1}), Injection(3, {})
    for op in (lambda: a * b, lambda: a * RatMatrix(3, 3), lambda: RatMatrix(3, 3) * a,
               lambda: a + b, lambda: a.equal_on_columns(b, [0]),
               lambda: RatMatrix(3, 3).equal_on_columns(a, [0])):
        with pytest.raises(ValueError):
            op()
    assert a != b and Injection(2, {}) != RatMatrix(3, 3)


def test_unit_identities_multiply_no_rational_matrix(monkeypatch):
    """The C3 identity, window idempotence and matrix-unit products on the
    two-loop graph at cutoff 10 compose index maps: no `RatMatrix` product."""
    calls = []
    mul = RatMatrix.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(RatMatrix, "__mul__", counting)
    g = two_loop()
    e, f = Path((g.edge("e"),)), Path((g.edge("f"),))
    ef = Path((g.edge("e"), g.edge("f")))
    rep = G.build_rep(g, 10)
    for mu in (Path.at(g.vertex("v")), e, ef):
        tm = rep.t_path(mu)
        rhs = tm * G.path_projection(rep, Path.at(mu.range)) * tm.star()
        assert rep.equal_on_exact_region(G.path_projection(rep, mu), rhs)
    for m in range(1, 5):
        phi = G.window_projection(rep, m)
        assert rep.equal_on_exact_region(phi * phi, phi)
    prod = G.matrix_unit(rep, e, f) * G.matrix_unit(rep, f, ef)
    want = RepOperator(G.matrix_unit(rep, e, ef).matrix, prod.creations)
    assert rep.equal_on_exact_region(prod, want)
    assert not rep.equal_on_exact_region(
        G.matrix_unit(rep, e, f) * G.matrix_unit(rep, e, ef), want)
    assert calls == []
