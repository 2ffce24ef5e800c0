"""Independent expected outputs for the six corpus pipelines.

Each function is plain numpy written from the pipeline's ``.hal`` source,
sharing no code with ``minisched``.  Buffers arrive as ``(lanes, size)``
int64 arrays in the declared flat layout, where the first declared
dimension has stride 1, so a buffer ``b(x in [0, X), y in [0, Y))`` is
``b.reshape(lanes, Y, X)`` indexed ``[lane, y, x]``.  Each function returns
the output function's values in the same flat layout.
"""

from __future__ import annotations

import numpy as np


def blur(inputs, x, y):
    # Two 3-tap box filters; `/` in the source is floor division.
    img = inputs["inp"].reshape(-1, y + 2, x + 2)
    bx = (img[:, :, 0:x] + img[:, :, 1 : x + 1] + img[:, :, 2 : x + 2]) // 3
    by = (bx[:, 0:y, :] + bx[:, 1 : y + 1, :] + bx[:, 2 : y + 2, :]) // 3
    return by.reshape(by.shape[0], -1)


def count(inputs, w):
    # Per column, the number of strictly positive entries over 10 rows.
    grid = inputs["inp"].reshape(-1, 10, w)
    return (grid > 0).sum(axis=1).astype(np.int64)


def matmul(inputs, n):
    # prod(i, j) = sum over k in [0, 8) of a(i, k) * b(k, j).
    a = inputs["a"].reshape(-1, 8, n)  # [lane, k, i]
    b = inputs["b"].reshape(-1, n, 8)  # [lane, j, k]
    prod = np.einsum("lki,ljk->lji", a, b)  # [lane, j, i]
    return prod.reshape(prod.shape[0], -1)


def conv1d(inputs, n):
    # out(x) = sum over r in [0, 3) of w(r) * sig(x + r).
    sig, w = inputs["sig"], inputs["w"]
    return sum(w[:, r : r + 1] * sig[:, r : r + n] for r in range(3))


def chain3(inputs, n):
    # The pipeline's `ensures` gives lift in closed form.
    src = inputs["src"].reshape(-1, n, n + 1)  # [lane, y, x]
    x = np.arange(n)
    left, right = src[:, :, 0:n], src[:, :, 1 : n + 1]
    lift = (left * 2 + 1 + x) + (right * 2 + 1 + x + 1) - left
    return lift.reshape(lift.shape[0], -1)


def update2(inputs, n):
    # Fill grid(x, y) = src(x, y) + y, then grid(x, 0) += grid(x, 3).
    src = inputs["src"].reshape(-1, 8, n)  # [lane, y, x]
    grid = src + np.arange(8)[None, :, None]
    grid[:, 0, :] = grid[:, 0, :] + grid[:, 3, :]
    return grid.reshape(grid.shape[0], -1)


ORACLES = {
    "blur": blur,
    "count": count,
    "matmul": matmul,
    "conv1d": conv1d,
    "chain3": chain3,
    "update2": update2,
}


def expected(algo: str, inputs: dict[str, np.ndarray], sizes: dict[str, int]) -> np.ndarray:
    return ORACLES[algo](inputs, **sizes)
