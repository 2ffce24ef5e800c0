"""Euclidean division semantics.

The oracle below derives the quotient from the defining property alone
(search over a window), so the closed-form implementation is tested against
the definition rather than against itself.  The evaluator's array path and
its positive-constant fast path are tested against the scalar functions.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from minisched.ir import BinOp, Const, Var, compiled, hdiv, hmod


def oracle_hdiv(x: int, y: int) -> int:
    """The unique q with x == y*q + r and 0 <= r < |y|, found by search."""
    assert y != 0
    base = x // abs(y)  # candidate neighbourhood
    for q in range(base - 2, base + 3):
        qq = q if y > 0 else -q
        r = x - y * qq
        if 0 <= r < abs(y):
            return qq
    raise AssertionError(f"no Euclidean quotient found for {x}, {y}")


def test_matches_oracle_on_small_window():
    for x in range(-40, 41):
        for y in range(-12, 13):
            if y == 0:
                continue
            q = oracle_hdiv(x, y)
            assert hdiv(x, y) == q, (x, y)
            assert hmod(x, y) == x - y * q, (x, y)


def test_division_by_zero_is_total():
    for x in (-7, -1, 0, 1, 9):
        assert hdiv(x, 0) == 0
        assert hmod(x, 0) == x


def test_exhaustive_algebra_small_square():
    """Decomposition, remainder range, and totality over [-200, 200]^2,
    y == 0 included.  ``test_array_path_matches_scalar`` runs the same
    square through the evaluator's array path."""
    for x in range(-200, 201):
        for y in range(-200, 201):
            q = hdiv(x, y)
            r = hmod(x, y)
            if y == 0:
                assert q == 0 and r == x
                continue
            assert x == y * q + r
            assert 0 <= r < abs(y)


@given(st.integers(-(2**40), 2**40), st.integers(-(2**20), 2**20))
def test_decomposition_property(x: int, y: int):
    q, r = hdiv(x, y), hmod(x, y)
    if y == 0:
        assert q == 0 and r == x
    else:
        assert x == y * q + r
        assert 0 <= r < abs(y)


@given(st.integers(-(2**30), 2**30), st.integers(1, 2**16))
def test_positive_divisor_matches_python_floor(x: int, y: int):
    assert hdiv(x, y) == x // y
    assert hmod(x, y) == x % y


@given(st.integers(-(2**30), 2**30), st.integers(-(2**16), -1))
def test_negative_divisor_negates_quotient(x: int, y: int):
    assert hdiv(x, y) == -hdiv(x, -y)
    assert hmod(x, y) == hmod(x, -y)


def test_array_path_matches_scalar():
    """hdiv/hmod evaluated as arrays over [-200, 200]^2, y == 0 included,
    agree element by element with the scalar functions."""
    xs, ys = np.meshgrid(np.arange(-200, 201), np.arange(-200, 201), indexing="ij")
    env = {"x": xs.ravel(), "y": ys.ravel()}
    q = compiled(BinOp("hdiv", Var("x"), Var("y")))(env, None)
    r = compiled(BinOp("hmod", Var("x"), Var("y")))(env, None)
    assert q.dtype == np.int64 and q.shape == env["x"].shape
    want_q = [hdiv(x, y) for x, y in zip(env["x"].tolist(), env["y"].tolist())]
    want_r = [hmod(x, y) for x, y in zip(env["x"].tolist(), env["y"].tolist())]
    assert q.tolist() == want_q
    assert r.tolist() == want_r


def test_positive_constant_divisor_fast_path():
    x = np.arange(-200, 201)
    for k in (1, 2, 3, 7, 64, 199):
        q = compiled(BinOp("hdiv", Var("x"), Const(k)))({"x": x}, None)
        r = compiled(BinOp("hmod", Var("x"), Const(k)))({"x": x}, None)
        assert (q == x // k).all() and (r == x % k).all()
        assert q.tolist() == [hdiv(v, k) for v in x.tolist()]
        assert r.tolist() == [hmod(v, k) for v in x.tolist()]
