"""Seeded gradient sets for the direction workloads.

Every set is a plain ``(T, d)`` float array; the program under test sees
nothing else. A block is one set per (T, family) pair, in a fixed order,
drawn from a generator seeded by ``(seed, block_index)``, so block k of a
seed is bitwise the same whichever phase of a run asks for it.

Families:

* ``generic``: Gaussian directions with row scales ``e^U(-2, 2)``.
* ``near_stationary``: the origin lies within 1e-6 of the convex hull.
* ``duplicate``: half the rows are rescaled copies of the others, a
  quarter of the copies pointing the opposite way.
* ``rank_deficient``: every row lies in one random 4-dimensional subspace.
"""

from __future__ import annotations

import numpy as np

FAMILIES = ("generic", "near_stationary", "duplicate", "rank_deficient")

RANK = 4
HULL_OFFSET = 1e-6


def _scales(rng: np.random.Generator, T: int) -> np.ndarray:
    return np.exp(rng.uniform(-2.0, 2.0, size=(T, 1)))


def _generic(rng, T, d):
    return rng.standard_normal((T, d)) * _scales(rng, T)


def _near_stationary(rng, T, d):
    G = _generic(rng, T, d)
    w = rng.dirichlet(np.ones(T))
    G -= w @ G  # now sum_i w_i g_i is zero up to round-off
    u = rng.standard_normal(d)
    G += rng.uniform(0.0, HULL_OFFSET) * (u / np.sqrt(u @ u))
    return G


def _duplicate(rng, T, d):
    k = max(1, T // 2)
    base = _generic(rng, T=k, d=d)
    src = rng.integers(k, size=T - k)
    sign = np.where(rng.random(T - k) < 0.25, -1.0, 1.0)
    copies = (sign[:, None] * np.exp(rng.uniform(-1.0, 1.0, size=(T - k, 1)))) * base[src]
    return np.concatenate([base, copies])[rng.permutation(T)]


def _rank_deficient(rng, T, d):
    basis = rng.standard_normal((RANK, d))
    return (rng.standard_normal((T, RANK)) @ basis) * _scales(rng, T)


_MAKERS = {
    "generic": _generic,
    "near_stationary": _near_stationary,
    "duplicate": _duplicate,
    "rank_deficient": _rank_deficient,
}


def gradient_set(rng: np.random.Generator, family: str, T: int, d: int) -> np.ndarray:
    """One ``(T, d)`` gradient set of the named family."""
    return _MAKERS[family](rng, T, d)


def block(seed: int, index: int, Ts, families, d: int):
    """Yield ``(T, family, G)`` for block ``index`` of the stream ``seed``.

    Sets are made one at a time, so only one is alive while the caller
    uses it.
    """
    rng = np.random.default_rng([seed, index])
    for T in Ts:
        for family in families:
            yield T, family, gradient_set(rng, family, T, d)
