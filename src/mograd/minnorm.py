"""Minimum-norm point in the convex hull of vectors, via Wolfe's method.

Given vectors v_1, ..., v_T, the weights beta minimizing
``|| sum_i beta_i v_i ||^2`` over the probability simplex are found by
Wolfe's min-norm-point active-set method (Wolfe 1976, Math. Programming
11) on the Gram matrix M_ij = <v_i, v_j>. Each major cycle adds one
vertex to a working set (the corral) and strictly decreases the
objective; on a corral the optimum is the solution of a small bordered
linear system, solved by LU and checked against its residual, with least
squares as the fallback, so the method is exact on every face. Every
corral's system is gathered from one bordered system of the whole Gram
matrix, built once per solve. For three or more vectors the solver first
works top down (by LU alone): it solves that system once for all of them,
and while some weights are not positive, drops those vertices and solves
again on the rest. When the chain ends on positive weights that the gap
test certifies, that point is the optimum and no major cycle runs. This is
the common case both for many nearly orthogonal objectives (an interior
optimum, one solve) and for raw gradients of unequal scale (an optimum on
a proper face, usually two or three solves). When only the gap test
rejects the chain's point, usually because dropping every non-positive
weight at once dropped a vertex the optimum keeps, the major cycles start
from that point and its support (a warm start), which is a valid state of
Wolfe's method. When the chain fails, or the warm start ends uncertified,
the major cycles start from a vertex. For two vectors the method is a
single exact line search from the shorter vertex toward the other (the
closed form of Sener & Koltun, NeurIPS 2018, Alg. 1), which the solver runs
at T=2 in Python floats. It stops on the relative duality gap of the
simplex problem.

The solver's public names (``FwConfig``, ``FwResult``,
``frank_wolfe_min_norm``) keep their spelling from the Frank-Wolfe solver
this module used to run, so existing callers and configurations still
work. ``fw_line_search``, the exact Frank-Wolfe step, is the T=2 step.
"""

from __future__ import annotations

import logging
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

# An LU solution of the bordered system is accepted when its residual is at
# most this many units of round-off, eps * (||A|| ||x|| + s).
_RESIDUAL_ULPS = 16.0
_EPS = float(np.finfo(float).eps)

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FwConfig:
    """Stopping parameters for the min-norm solver.

    ``tolerance`` bounds the relative duality gap
    ``(beta^T M beta - min_i (M beta)_i) / max_i M_ii``: the solve stops
    once the gap is at or below it. ``max_iters`` caps the major cycles.
    """

    tolerance: float = 1e-12
    max_iters: int = 500

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class FwResult:
    """Solver output: simplex weights plus convergence diagnostics.

    ``last_eta`` is the relative duality gap of ``weights``. Above the
    configured tolerance it means the gap test never fired: the budget of
    major cycles ran out, or round-off stalled the solve, as happens when
    the tolerance is below the gap that the Gram matrix resolves.
    ``iterations`` counts the major cycles kept. ``objectives[k]`` is the
    quadratic form after k major cycles (index 0 is the starting point); its
    last entry is that of ``weights``, and it never increases by more than
    round-off. For T >= 3 the starting point is the end of the top-down
    chain whenever the cycles from there answer: ``iterations`` 0 then means
    the chain's point was certified as it stood, and ``objectives`` holds
    only its quadratic form; otherwise ``objectives[0]`` is still the chain's
    point and ``iterations`` counts the major cycles after it. When the
    chain fails or its cycles end uncertified, the starting point is the
    vertex with the smallest ``M_ii``, and ``iterations`` 0 means that
    vertex was already certified. At T=2, ``iterations`` is at most 1
    and ``objectives`` has at most 2 entries; the gap and objective after
    the line step are computed in scalar arithmetic there, so ``last_eta``
    may differ by round-off from one taken with a numpy matrix-vector
    product.
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
    return _gram(V)


def _gram(V: np.ndarray) -> np.ndarray:
    """``gram_matrix`` of a 2-D float array, without its input checks."""
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
    direction, 1 when the vertex dominates outright, and otherwise the ratio
    of the objective's slope to its curvature along the segment, in (0, 1].
    """
    M = np.asarray(M, dtype=float)
    w = np.asarray(w, dtype=float)
    T = M.shape[0]
    if w.shape != (T,):
        raise ValueError(f"weights of length {w.shape} do not match matrix of dim {T}")
    if not 0 <= target < T:
        raise ValueError(f"target index {target} out of range for dim {T}")

    Mw = M @ w
    return _line_step(float(w @ Mw), float(Mw[target]), float(M[target, target]))


def _line_step(w_M_w: float, w_M_e: float, e_M_e: float) -> float:
    """``fw_line_search``'s step from the three quadratic forms it needs."""
    if w_M_w <= w_M_e:
        return 0.0
    if e_M_e <= w_M_e:
        return 1.0
    # Both differences are positive, so the ratio lies in (0, 1] at any
    # magnitude of M. Their sum overflows only for entries above half the
    # float max; there the quarters are exact and keep it finite. Quartering
    # everywhere would round subnormal entries, down to 0/0.
    toward = w_M_w - w_M_e
    away = e_M_e - w_M_e
    if toward + away == np.inf:
        toward = 0.25 * w_M_w - 0.25 * w_M_e
        away = 0.25 * e_M_e - 0.25 * w_M_e
    return toward / (toward + away)


def _bordered(M: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The optimality system ``A [y; mu] = [0; s]``, ``A = [M s1; s1^T 0]``, of all T vertices.

    A subset S of the vertices has the system ``A[ix[:, None], ix]``,
    ``rhs[-len(ix):]`` with ``ix = S + [T]``, so one build serves a whole
    solve. Its solution y sums to one and minimizes ``y^T M_SS y`` over the
    affine hull of S, ignoring signs. The border carries the matrix's own
    scale s, which keeps the system balanced at any magnitude of M.
    """
    T = M.shape[0]
    bordered = np.full((T + 1, T + 1), scale)
    bordered[:T, :T] = M
    bordered[T, T] = 0.0
    rhs = np.zeros(T + 1)
    rhs[T] = scale
    return bordered, rhs


def _lu_minimizer(bordered: np.ndarray, rhs: np.ndarray, scale: float) -> np.ndarray | None:
    """The y of the bordered system by LU, or None unless certified.

    The LU solution is kept only when it is finite and its residual is at
    round-off, at most a small multiple of ``eps * (||A|| ||x|| + s)`` in
    the max norm. None means LU found an exactly singular pivot, or the
    system is so close to singular that LU lost the residual.
    """
    try:
        x = np.linalg.solve(bordered, rhs)
    except np.linalg.LinAlgError:
        return None
    # Measured in units of s, so the test itself cannot overflow near the
    # float max; an overflowed residual is inf or nan and fails it.
    size = np.abs(x).max()
    norm = len(rhs) * (np.abs(bordered).max() / scale)
    residual = np.abs(bordered @ x - rhs).max() / scale
    if np.isfinite(size) and residual <= _RESIDUAL_ULPS * _EPS * (norm * size + 1.0):
        return x[:-1]
    return None


def _affine_minimizer(bordered: np.ndarray, rhs: np.ndarray, ix: np.ndarray, scale: float) -> np.ndarray:
    """Weights summing to one that minimize ``y^T M_SS y`` over ``S = ix[:-1]``, ignoring signs.

    Gathers the system of S from the full bordered system (``_bordered``)
    and solves it by LU (``_lu_minimizer``). When LU is not certified, the
    system is solved again by least squares, which returns a minimizer for
    singular systems too.
    """
    A = bordered[ix[:, None], ix]
    b = rhs[-ix.size:]
    y = _lu_minimizer(A, b, scale)
    if y is None:
        y = np.linalg.lstsq(A, b, rcond=None)[0][:-1]
    return y


def _swap_step(M: np.ndarray, beta: np.ndarray, corral: list[int]) -> bool:
    """Move weight from one corral vertex to the entering vertex ``corral[-1]``.

    Takes the exact line search along ``e_j - e_k`` for the corral vertex k
    that lowers the objective most, with the step capped at ``beta_k``.
    Returns whether k emptied, in which case it leaves the corral.
    """
    j = corral[-1]
    others = np.array(corral[:-1])
    Mb = M @ beta
    slope = Mb[others] - Mb[j]
    curv = M[j, j] - 2.0 * M[j, others] + M[others, others]
    step = beta[others]
    inner = (slope > 0.0) & (curv * step > slope)
    step[inner] = slope[inner] / curv[inner]
    step[slope <= 0.0] = 0.0
    best = int(np.argmax(2.0 * slope * step - curv * step * step))
    k, t = int(others[best]), float(step[best])
    beta[j] += t
    if t < beta[k]:
        beta[k] -= t
        return False
    beta[k] = 0.0
    corral.remove(k)
    return True


def _minor_cycles(
    M: np.ndarray, bordered: np.ndarray, rhs: np.ndarray, beta: np.ndarray, corral: list[int], scale: float
) -> None:
    """Move beta to the minimizer over the corral's affine hull, staying feasible.

    While that minimizer has a negative weight, step from beta toward it
    only as far as the simplex boundary and drop the corral vertex whose
    weight reaches zero there. Updates ``beta`` and ``corral`` in place;
    weights off the corral stay exact zeros.

    In exact arithmetic the vertex that just entered, ``corral[-1]``, gets
    positive weight. When rounding denies it any (it nearly duplicates a
    corral vertex, closer than the Gram matrix resolves), the first cycle
    would drop it again without moving, and the next major cycle would add
    it back. A swap step toward it is taken instead.
    """
    T = M.shape[0]
    entering = True
    while True:
        ix = np.array(corral + [T])
        idx = ix[:-1]
        y = _affine_minimizer(bordered, rhs, ix, scale)
        if entering and y[-1] <= 0.0:
            if not _swap_step(M, beta, corral):
                return
            entering = False
            continue
        entering = False
        out = (y < 0.0).nonzero()[0]
        if out.size == 0:
            beta[idx] = y
            return
        x = beta[idx]
        ratio = x[out] / (x[out] - y[out])
        x = np.maximum(x + ratio.min() * (y - x), 0.0)
        x[out[np.argmin(ratio)]] = 0.0
        beta[idx] = x
        corral[:] = [i for i in corral if beta[i] > 0.0]


def _solve_two(M: list[list[float]], tolerance: float) -> FwResult:
    """Wolfe's method at T=2, in scalar arithmetic.

    The same steps as the general loop: start at the vertex with the
    smaller ``M_ii`` (ties go to index 0), pick the smallest entry of
    ``M beta`` (column s of M), and unless the gap test stops the solve
    there, take one exact line search toward that vertex, which ends it.
    """
    (m00, m01), (m10, m11) = M
    scale = max(m00, m11)
    s = 1 if m11 < m00 else 0
    col = (M[0][s], M[1][s])
    j = 1 if col[1] < col[0] else 0
    objective = col[s]
    gap = max(objective - col[j], 0.0) / scale if scale > 0.0 else 0.0
    objectives = [max(objective, 0.0)]
    beta = [0.0, 0.0]
    beta[s] = 1.0
    if gap > tolerance:
        # A positive gap means col[j] < col[s], so j is the other vertex.
        eta = _line_step(objective, col[j], M[j][j])
        beta[s] = 1.0 - eta
        beta[j] = eta
        b0, b1 = beta
        Mb0 = m00 * b0 + m01 * b1
        Mb1 = m10 * b0 + m11 * b1
        objective = b0 * Mb0 + b1 * Mb1
        gap = max(objective - min(Mb0, Mb1), 0.0) / scale
        objectives.append(max(objective, 0.0))
    total = beta[0] + beta[1]
    return FwResult(
        weights=np.array([beta[0] / total, beta[1] / total]),
        last_eta=gap,
        iterations=len(objectives) - 1,
        objectives=np.array(objectives),
    )


def _support_start(bordered: np.ndarray, rhs: np.ndarray, scale: float) -> tuple[list[int], np.ndarray] | None:
    """A starting state for the major cycles, found top down from the full support, or None.

    Takes the minimizer over the affine hull of all T vertices. While some
    of its weights are not positive, drops those vertices and takes the
    minimizer over the affine hull of the rest, so every solve shrinks the
    support and there are at most T of them. Each is one LU solve of a
    system gathered from ``bordered``, with its round-off residual test and
    no least-squares fallback. When every solve passes, the chain ends on
    positive weights over its support: that pair ``(corral, beta)``, with
    beta zero off the corral, is returned. It is a valid state for Wolfe's
    major cycles, the affine minimizer of its corral with positive weights,
    and when the gap test certifies it, the optimum. None means an LU solve
    failed or the support emptied.
    """
    T = rhs.size - 1
    y = _lu_minimizer(bordered, rhs, scale)
    if y is None:
        return None
    support = None
    while not (y > 0.0).all():
        support = (y > 0.0).nonzero()[0] if support is None else support[y > 0.0]
        if support.size == 0:
            return None
        ix = np.concatenate((support, [T]))
        y = _lu_minimizer(bordered[ix[:, None], ix], rhs[-ix.size:], scale)
        if y is None:
            return None
    if support is None:
        return list(range(T)), y
    beta = np.zeros(T)
    beta[support] = y
    return support.tolist(), beta


def _major_cycles(
    M: np.ndarray,
    bordered: np.ndarray | None,
    rhs: np.ndarray | None,
    scale: float,
    cfg: FwConfig,
    corral: list[int],
    beta: np.ndarray,
) -> tuple[np.ndarray, float, int, list[float]]:
    """Wolfe's major cycles from ``corral`` and its affine minimizer ``beta``.

    Returns the final beta (not normalized), its relative gap, the major
    cycles kept and the objective before each of them and at the end. The
    first entry is the starting point's. ``bordered`` may be None only when
    no minor cycle can run: one vertex, or a zero scale.
    """
    objectives = []
    iterations = 0
    kept = None
    while True:
        Mb = M @ beta
        j = int(np.argmin(Mb))
        objective = float(beta @ Mb)
        gap = max(objective - float(Mb[j]), 0.0) / scale if scale > 0.0 else 0.0
        if kept is not None and gap > cfg.tolerance and objective >= kept[1]:
            # The last major cycle moved only by round-off, and later ones
            # would circle at the same level: undo it and stop.
            beta, _, gap = kept
            iterations -= 1
            break
        objectives.append(max(objective, 0.0))
        if gap <= cfg.tolerance or j in corral or iterations == cfg.max_iters:
            break
        corral.append(j)
        iterations += 1
        kept = (beta.copy(), objective, gap)
        _minor_cycles(M, bordered, rhs, beta, corral, scale)
    return beta, gap, iterations, objectives


def frank_wolfe_min_norm(M, cfg: FwConfig = FwConfig()) -> FwResult:
    """Minimize ``beta^T M beta`` over the probability simplex.

    Wolfe's min-norm-point method. Each major cycle adds to the corral the
    vertex whose coordinate of the objective gradient ``M beta`` is
    smallest (ties go to the smallest index), then minor cycles move to
    the minimizer over the corral's affine hull, stepping back to the
    simplex boundary and dropping the vertex that hits zero while that
    minimizer has a negative weight. Every corral system is gathered from
    one bordered system of the whole M, built once per solve.

    For T >= 3 the cycles first start where the top-down chain ends
    (``_support_start``): LU solves over the full support, then over the
    positive weights of the last solve, until the weights are all
    positive. When the gap test certifies that point, no major cycle runs.
    When only the gap test rejects it, the major cycles run from the
    chain's support and point (a warm start), and their answer is returned
    if it ends certified. Otherwise, and whenever the chain has no end
    point (an LU solve failed or the support emptied), the cycles run from
    the vertex with the smallest ``M_ii``, exactly as if the chain had not
    been tried. For two vectors the method is one exact line search
    (``fw_line_search``) from the starting vertex toward the other, so it
    runs as one, in scalar arithmetic on ``M.tolist()``.

    The solve stops once the relative duality gap is at or below the
    configured tolerance. Failing that, it stops when a major cycle did not
    lower the objective (that cycle is undone), when the chosen vertex is
    already in the corral, or when the budget of major cycles is spent; the
    last case, with the returned gap still above tolerance, logs a warning
    on the ``mograd.minnorm`` logger. Weights off the corral are exact
    zeros.

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
    if M.shape[0] == 0:
        raise ValueError("need at least one vector")
    if not np.isfinite(M).all():
        raise NumericalError("non-finite Gram matrix entries")
    return _min_norm(M, cfg)


def _min_norm(M: np.ndarray, cfg: FwConfig) -> FwResult:
    """``frank_wolfe_min_norm`` without its input checks.

    M must be a finite, square float array with at least one row, as a
    ``GradientSet``'s Gram matrix is.
    """
    T = M.shape[0]
    if T == 2:
        return _solve_two(M.tolist(), cfg.tolerance)

    diag = M.diagonal()
    scale = float(diag.max())
    bordered = rhs = None
    # Near the float max an LU residual or a gap can overflow. That only
    # fails the residual test or leaves the point uncertified, so the solve
    # runs silently.
    with np.errstate(over="ignore", invalid="ignore"):
        if T > 2 and scale > 0.0:
            bordered, rhs = _bordered(M, scale)
            chain = _support_start(bordered, rhs, scale)
            if chain is not None:
                warm = _major_cycles(M, bordered, rhs, scale, cfg, *chain)
                if warm[1] <= cfg.tolerance:
                    return _result(*warm)
        corral = [int(np.argmin(diag))]
        beta = np.zeros(T)
        beta[corral[0]] = 1.0
        beta, gap, iterations, objectives = _major_cycles(M, bordered, rhs, scale, cfg, corral, beta)
    if iterations == cfg.max_iters and gap > cfg.tolerance:
        _log.warning(
            "min-norm solve stopped at max_iters=%d with relative gap %.3g above tolerance %.3g",
            cfg.max_iters, gap, cfg.tolerance,
        )
    return _result(beta, gap, iterations, objectives)


def _result(beta: np.ndarray, gap: float, iterations: int, objectives: list[float]) -> FwResult:
    return FwResult(
        weights=beta / beta.sum(),
        last_eta=gap,
        iterations=iterations,
        objectives=np.asarray(objectives),
    )
