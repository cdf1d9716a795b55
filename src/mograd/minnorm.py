"""Minimum-norm point in the convex hull of vectors, via Wolfe's method.

Given vectors v_1, ..., v_T, the weights beta minimizing
``|| sum_i beta_i v_i ||^2`` over the probability simplex are found by
Wolfe's min-norm-point active-set method (Wolfe 1976, Math. Programming
11) on the Gram matrix M_ij = <v_i, v_j>. Each major cycle adds one
vertex to a working set (the corral) and strictly decreases the
objective; on a corral the optimum is the solution of a small linear
system, so the method is exact on every face. It stops on the relative
duality gap of the simplex problem.

The solver's public names (``FwConfig``, ``FwResult``,
``frank_wolfe_min_norm``) keep their spelling from the Frank-Wolfe solver
this module used to run, so existing callers and configurations still
work. ``fw_line_search``, the exact Frank-Wolfe step, stays as a
standalone helper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError

__all__ = [
    "FwConfig",
    "FwResult",
    "gram_matrix",
    "combination_norm_sq",
    "fw_line_search",
    "frank_wolfe_min_norm",
]

# Line-search denominators below this are treated as zero (flat objective).
_DENOM_GUARD = 1e-18


@dataclass(frozen=True)
class FwConfig:
    """Stopping parameters for the min-norm solver.

    ``tolerance`` bounds the relative duality gap
    ``(beta^T M beta - min_i (M beta)_i) / max_i M_ii``: the solve stops
    once the gap is at or below it. ``max_iters`` caps the major cycles.
    """

    tolerance: float = 1e-10
    max_iters: int = 500

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class FwResult:
    """Solver output: simplex weights plus convergence diagnostics.

    ``last_eta`` is the final relative duality gap; values above the
    configured tolerance mean the major-cycle budget ran out before the
    stopping test fired. ``iterations`` counts major cycles.
    ``objectives[k]`` is the quadratic form after k major cycles (index 0
    is the starting vertex); it never increases.
    """

    weights: np.ndarray
    last_eta: float
    iterations: int
    objectives: np.ndarray


def gram_matrix(vectors) -> np.ndarray:
    """Matrix of pairwise inner products, exactly symmetric by construction.

    Parameters
    ----------
    vectors : array-like, shape (T, d) or a sequence of length-d vectors

    Returns
    -------
    ndarray, shape (T, T)
    """
    try:
        V = np.asarray(vectors, dtype=float)
    except ValueError as exc:
        raise ValueError("all vectors must share the same dimension") from exc
    if V.ndim == 1:
        V = V[None, :]
    if V.ndim != 2 or V.shape[0] < 1 or V.shape[1] < 1:
        raise ValueError(f"expected at least one vector of dimension >= 1, got shape {V.shape}")
    # BLAS may round M_ij and M_ji differently. Taking the larger of the two
    # symmetrizes without arithmetic, so nothing rounds or overflows (an
    # average would for entries above half the float max).
    M = V @ V.T
    return np.maximum(M, M.T)


def combination_norm_sq(M, w) -> float:
    """Squared norm ``w^T M w`` of the combination with weights w, clamped at 0."""
    M = np.asarray(M, dtype=float)
    w = np.asarray(w, dtype=float)
    if w.shape != (M.shape[0],):
        raise ValueError(f"weights of length {w.shape} do not match matrix of dim {M.shape[0]}")
    return max(float(w @ M @ w), 0.0)


def fw_line_search(M, w, target: int) -> float:
    """Exact step size toward a vertex for the quadratic simplex objective.

    Minimizes ``q(eta) = ||(1-eta) w + eta e_t||_M^2`` over eta in [0, 1].
    The minimizer has three regimes: 0 when w already beats the vertex
    direction, 1 when the vertex dominates outright, and otherwise an
    interior ratio clamped into [0, 1].
    """
    M = np.asarray(M, dtype=float)
    w = np.asarray(w, dtype=float)
    T = M.shape[0]
    if w.shape != (T,):
        raise ValueError(f"weights of length {w.shape} do not match matrix of dim {T}")
    if not 0 <= target < T:
        raise ValueError(f"target index {target} out of range for dim {T}")

    Mw = M @ w
    w_M_w = float(w @ Mw)
    w_M_e = float(Mw[target])
    e_M_e = float(M[target, target])

    if w_M_w <= w_M_e:
        return 0.0
    if e_M_e <= w_M_e:
        return 1.0
    denom = e_M_e - 2.0 * w_M_e + w_M_w
    if denom < _DENOM_GUARD:
        return 0.0
    eta = (w_M_w - w_M_e) / denom
    return min(max(eta, 0.0), 1.0)


def _affine_minimizer(M_SS: np.ndarray, scale: float) -> np.ndarray:
    """Weights summing to one that minimize ``y^T M_SS y``, ignoring signs.

    Solves the bordered system ``[M_SS s1; s1^T 0] [y; mu] = [0; s]`` by
    least squares, so corrals whose points are affinely dependent (where
    the system is singular) still get a minimizer. The border carries the
    matrix's own scale s, which keeps the system balanced at any
    magnitude of M.
    """
    k = M_SS.shape[0]
    bordered = np.full((k + 1, k + 1), scale)
    bordered[:k, :k] = M_SS
    bordered[k, k] = 0.0
    rhs = np.zeros(k + 1)
    rhs[k] = scale
    return np.linalg.lstsq(bordered, rhs, rcond=None)[0][:k]


def _minor_cycles(M: np.ndarray, beta: np.ndarray, corral: list[int], scale: float) -> None:
    """Move beta to the minimizer over the corral's affine hull, staying feasible.

    While that minimizer has a negative weight, step from beta toward it
    only as far as the simplex boundary and drop the corral vertex whose
    weight reaches zero there. Updates ``beta`` and ``corral`` in place;
    weights off the corral stay exact zeros.
    """
    while True:
        y = _affine_minimizer(M[np.ix_(corral, corral)], scale)
        out = np.flatnonzero(y < 0.0)
        if out.size == 0:
            beta[corral] = y
            return
        x = beta[corral]
        ratio = x[out] / (x[out] - y[out])
        x = np.maximum(x + ratio.min() * (y - x), 0.0)
        x[out[np.argmin(ratio)]] = 0.0
        beta[corral] = x
        corral[:] = [i for i in corral if beta[i] > 0.0]


def frank_wolfe_min_norm(M, cfg: FwConfig = FwConfig()) -> FwResult:
    """Minimize ``beta^T M beta`` over the probability simplex.

    Wolfe's min-norm-point method. Starts at the vertex with the smallest
    ``M_ii``. Each major cycle adds to the corral the vertex whose
    coordinate of the objective gradient ``M beta`` is smallest (ties go
    to the smallest index), then minor cycles move to the minimizer over
    the corral's affine hull, stepping back to the simplex boundary and
    dropping the vertex that hits zero while that minimizer has a
    negative weight. The solve stops once the relative duality gap is at
    or below the configured tolerance, or when the chosen vertex is
    already in the corral. Weights off the corral are exact zeros.

    Parameters
    ----------
    M : ndarray, shape (T, T)
        Gram matrix of the vectors whose combination is being shortened.
    cfg : FwConfig

    Returns
    -------
    FwResult
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    T = M.shape[0]
    if T == 0:
        raise ValueError("need at least one vector")
    if not np.all(np.isfinite(M)):
        raise NumericalError("non-finite Gram matrix entries")

    diag = np.diag(M)
    scale = float(diag.max())
    corral = [int(np.argmin(diag))]
    beta = np.zeros(T)
    beta[corral[0]] = 1.0
    objectives = [combination_norm_sq(M, beta)]
    iterations = 0
    while True:
        Mb = M @ beta
        j = int(np.argmin(Mb))
        gap = max(float(beta @ Mb - Mb[j]), 0.0) / scale if scale > 0.0 else 0.0
        if gap <= cfg.tolerance or j in corral or iterations == cfg.max_iters:
            break
        corral.append(j)
        iterations += 1
        _minor_cycles(M, beta, corral, scale)
        objectives.append(combination_norm_sq(M, beta))

    return FwResult(
        weights=beta / beta.sum(),
        last_eta=gap,
        iterations=iterations,
        objectives=np.asarray(objectives),
    )
