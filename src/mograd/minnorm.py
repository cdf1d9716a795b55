"""Minimum-norm point in the convex hull of vectors, via Wolfe's method.

Given vectors v_1, ..., v_T, the weights beta minimizing
``|| sum_i beta_i v_i ||^2`` over the probability simplex are found by
Wolfe's min-norm-point active-set method (Wolfe 1976, Math. Programming
11) on the Gram matrix M_ij = <v_i, v_j>. Each major cycle adds one
vertex to a working set (the corral) and strictly decreases the
objective; on a corral the optimum is the solution of a small bordered
linear system, solved by LU and checked against its residual, so the
method is exact on every face. When LU cannot certify a corral's system
(its vertices are affinely dependent up to rounding), the solver keeps the
feasible point it has and moves weight by an exact pairwise line search
instead. Every corral's system is gathered from one bordered system of the
whole Gram matrix, built once per solve, after the matrix is scaled by a
power of two into [-1, 1): that scaling is exact, so the solve takes the
same steps at any magnitude and nothing in it overflows. Unless there are
two vectors, the solver first works top down (by LU alone): it solves that
system once for all of them, and while some weights are not positive,
drops those vertices and solves again on the rest. The major cycles start
from the chain's end point and support (a warm start, a valid state of
Wolfe's method), or from a vertex when the chain fails. A start that the
gap test certifies ends the solve before the first major cycle: one LU
solve for many nearly orthogonal objectives (an interior optimum), usually
two or three for raw gradients of unequal scale (an optimum on a proper
face). For two vectors the method is a single exact line search from
the shorter vertex toward the other (the closed form of Sener & Koltun,
NeurIPS 2018, Alg. 1), run in Python floats. It stops on the relative
duality gap of the simplex problem.

The solve core ``_min_norm`` returns the weights, their gap and the major
cycles as plain values, and the directions in ``mograd.direction`` call
it. ``frank_wolfe_min_norm`` checks its input, calls the core and is the
one place that builds an ``FwResult``. The public names keep their
spelling from the Frank-Wolfe solver this module used to run, so existing
callers and configurations still work. ``fw_line_search``, the exact
Frank-Wolfe step, is the T=2 step.
"""

from __future__ import annotations

import logging
import math
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
# most this many units of round-off, eps * (||A|| ||x|| + 1).
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
        if not (0 < self.tolerance < math.inf):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer)):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True, eq=False)
class FwResult:
    """Solver output: simplex weights plus convergence diagnostics.

    Only ``frank_wolfe_min_norm`` builds one; the directions take the same
    weights, gap and cycle count from the solve core as plain values.
    ``last_eta`` is the relative duality gap of ``weights``. Above the
    configured tolerance it means the gap test never fired: the budget of
    major cycles ran out, or round-off stalled the solve, as happens when
    the tolerance is below the gap that the Gram matrix resolves.
    ``iterations`` counts the major cycles kept. ``objectives[k]`` is the
    quadratic form after k major cycles (index 0 is the starting point); its
    last entry is that of ``weights``, and it never increases by more than
    round-off. For T != 2 the starting point is the end of the top-down
    chain, or the vertex with the smallest ``M_ii`` when the chain fails;
    ``iterations`` 0 means the solve stopped at it. At T=2,
    ``iterations`` is at most 1 and ``objectives`` has at most 2 entries;
    the gap and objective after the line step are computed in scalar
    arithmetic there, so ``last_eta`` may differ by round-off from one taken
    with a numpy matrix-vector product.
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
    return _gram(_rows(vectors))


def _rows(vectors) -> np.ndarray:
    """``vectors`` as a (T, d) float array with T, d >= 1; a vector is one row."""
    try:
        V = np.asarray(vectors, dtype=float)
    except ValueError as exc:
        raise ValueError("all vectors must share the same dimension") from exc
    if V.ndim == 1:
        V = V[None, :]
    if V.ndim != 2 or V.shape[0] < 1 or V.shape[1] < 1:
        raise ValueError(f"expected (T, d) gradients with T, d >= 1, got shape {V.shape}")
    return V


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


def _exponent(M: np.ndarray) -> int:
    """The e with the largest ``|M_ij|`` in ``[2^(e-1), 2^e)``: the solve runs on ``M 2^-e``."""
    return math.frexp(float(np.maximum.reduce(np.abs(M), axis=None)))[1]


def _bordered(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The optimality system ``A [y; mu] = [0; 1]``, ``A = [M 1; 1^T 0]``, of all T vertices.

    A subset S of the vertices has the system ``A[ix[:, None], ix]``,
    ``rhs[-len(ix):]`` with ``ix = S + [T]``, so one build serves a whole
    solve. Its solution y sums to one and minimizes ``y^T M_SS y`` over the
    affine hull of S, ignoring signs. M comes prescaled into [-1, 1) by
    ``_min_norm``, so a border of ones keeps the system balanced.
    """
    T = M.shape[0]
    bordered = np.ones((T + 1, T + 1))
    bordered[:T, :T] = M
    bordered[T, T] = 0.0
    rhs = np.zeros(T + 1)
    rhs[T] = 1.0
    return bordered, rhs


def _lu_minimizer(bordered: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """The y of the bordered system by LU, or None unless certified.

    The LU solution is kept only when it is finite and its residual is at
    round-off, at most a small multiple of ``eps * (||A|| ||x|| + 1)`` in
    the max norm, with ``||A|| <= len(rhs)`` as no entry exceeds the border's
    1. None means LU found an exactly singular pivot, or the system is so
    close to singular (affinely dependent vertices, up to rounding) that LU
    lost the residual; the callers then keep the feasible point they have.
    ``rhs`` is the last unit vector, as every system gathered from
    ``_bordered`` has.
    """
    try:
        x = np.linalg.solve(bordered, rhs)
    except np.linalg.LinAlgError:
        return None
    # Max norms of Python floats: an infinite x makes the bound infinite, and a
    # NaN anywhere in x makes all of A x NaN, which fails the residual test.
    bound = len(rhs) * max(map(abs, x.tolist()))
    if not bound < math.inf:
        return None
    # With every entry of A at most 1, no sum in A x exceeds the finite bound.
    # rhs is the last unit vector, so A x - rhs differs from A x in its last entry only.
    r = (bordered @ x).tolist()
    r[-1] -= 1.0
    if max(map(abs, r)) <= _RESIDUAL_ULPS * _EPS * (bound + 1.0):
        return x[:-1]
    return None


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


def _minor_cycles(M: np.ndarray, bordered: np.ndarray, rhs: np.ndarray, beta: np.ndarray, corral: list[int]) -> None:
    """Move beta to the minimizer over the corral's affine hull, staying feasible.

    While that minimizer has a negative weight, step from beta toward it
    only as far as the simplex boundary and drop the corral vertex whose
    weight reaches zero there. Updates ``beta`` and ``corral`` in place;
    weights off the corral stay exact zeros.

    In exact arithmetic the vertex that just entered, ``corral[-1]``, gets
    positive weight. When rounding denies it any (it nearly duplicates a
    corral vertex, closer than the Gram matrix resolves), the first cycle
    would drop it again without moving, and the next major cycle would add
    it back. A swap step toward it is taken instead, also when LU cannot
    certify the corral's system (``_lu_minimizer`` returns None). A later
    cycle that LU cannot certify ends the minor cycles at the feasible beta
    they reached.
    """
    T = M.shape[0]
    entering = True
    while True:
        ix = np.array(corral + [T])
        idx = ix[:-1]
        y = _lu_minimizer(bordered.take(ix, 0).take(ix, 1), rhs[-ix.size:])
        if y is None and not entering:
            return
        if entering and (y is None or y[-1] <= 0.0):
            if not _swap_step(M, beta, corral):
                return
            entering = False
            continue
        entering = False
        out = (y < 0.0).nonzero()[0]
        if out.size:
            x = beta[idx]
            ratio = x[out] / (x[out] - y[out])
            y = np.maximum(x + ratio.min() * (y - x), 0.0)
            y[out[np.argmin(ratio)]] = 0.0
        beta[idx] = y
        # Every weight at zero leaves the corral, also one that the minimizer
        # leaves at exactly zero: a zero-weight member would end the next
        # cycle's first step at once and drop the vertex entering there with it.
        corral[:] = [i for i in corral if beta[i] > 0.0]
        if not out.size:
            return


def _solve_two(
    M: list[list[float]], tolerance: float
) -> tuple[float, float, float, list[float]]:
    """Wolfe's method at T=2, in scalar arithmetic: ``(w0, w1, gap, objectives)``.

    The same steps as the general loop: start at the vertex with the
    smaller ``M_ii`` (ties go to index 0), pick the smallest entry of
    ``M beta`` (column s of M), and unless the gap test stops the solve
    there, take one exact line search toward that vertex, which ends it.
    The weights and the relative gap are floats; ``objectives`` lists the
    quadratic form before and after each major cycle, as in ``FwResult``,
    so the solve took ``len(objectives) - 1`` cycles.
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
    return beta[0] / total, beta[1] / total, gap, objectives


def _support_start(bordered: np.ndarray, rhs: np.ndarray) -> tuple[list[int], np.ndarray] | None:
    """A starting state for the major cycles, found top down from the full support, or None.

    Takes the minimizer over the affine hull of all T vertices. While some
    of its weights are not positive, drops those vertices and takes the
    minimizer over the affine hull of the rest: at most T LU solves of
    systems gathered from ``bordered``, each with its residual test. When
    every solve passes, the chain ends on positive weights over its support:
    ``(corral, beta)``, beta zero off the corral, a valid state for Wolfe's
    major cycles and, when the gap test certifies it, the optimum. None
    means an LU solve failed. An emptied support gathers the 1x1 system
    ``[[0]]``, which LU rejects, and an all-zero M with T >= 2 fails at
    once; at T=1 the chain ends on ``([0], [1.0])``, the vertex itself.
    """
    T = rhs.size - 1
    y = _lu_minimizer(bordered, rhs)
    support = None
    while y is not None:
        keep = (y > 0.0).nonzero()[0]
        if keep.size == y.size:
            if support is None:
                return list(range(T)), y
            beta = np.zeros(T)
            beta[support] = y
            return support.tolist(), beta
        support = keep if support is None else support[keep]
        ix = np.concatenate((support, [T]))
        y = _lu_minimizer(bordered.take(ix, 0).take(ix, 1), rhs[-ix.size:])
    return None


def _gap(M: np.ndarray, beta: np.ndarray, scale: float) -> tuple[int, float, float]:
    """``(j, objective, gap)`` of beta: the smallest entry of ``M beta``, ``beta^T M beta``
    and the relative duality gap."""
    Mb = M @ beta
    j = int(Mb.argmin())
    objective = float(beta @ Mb)
    return j, objective, max(objective - float(Mb[j]), 0.0) / scale if scale > 0.0 else 0.0


def _major_cycles(M: np.ndarray, bordered: np.ndarray, rhs: np.ndarray, scale: float, cfg: FwConfig,
                  corral: list[int], beta: np.ndarray, objectives: list[float]) -> tuple[np.ndarray, float, int]:
    """Wolfe's major cycles from ``corral`` and its affine minimizer ``beta``.

    Returns the final beta (not normalized), its relative gap and the major
    cycles kept, and appends to ``objectives`` the objective before each of
    them and at the end. The first entry is the starting point's.
    """
    iterations = 0
    kept = None
    while True:
        j, objective, gap = _gap(M, beta, scale)
        if kept is not None and gap > cfg.tolerance and objective >= kept[1]:
            # The last major cycle moved only by round-off, and later ones
            # would circle at the same level: undo it and stop.
            beta, _, gap = kept
            iterations -= 1
            break
        objectives.append(max(objective, 0.0))
        if gap <= cfg.tolerance or corral == [j] or iterations == cfg.max_iters:
            break
        iterations += 1
        kept = (beta.copy(), objective, gap)
        if j in corral:
            # beta is not its corral's minimizer: LU could not certify a corral
            # system that rounding left singular, or round-off in the minor
            # cycles left beta short of it. Swap weight toward j from the
            # corral vertex that gains most, then solve again.
            corral.remove(j)
            corral.append(j)
            _swap_step(M, beta, corral)
        else:
            corral.append(j)
        _minor_cycles(M, bordered, rhs, beta, corral)
    return beta, gap, iterations


def frank_wolfe_min_norm(M, cfg: FwConfig = FwConfig()) -> FwResult:
    """Minimize ``beta^T M beta`` over the probability simplex.

    Wolfe's min-norm-point method. Each major cycle adds to the corral the
    vertex whose coordinate of the objective gradient ``M beta`` is
    smallest (ties go to the smallest index), then minor cycles move to
    the minimizer over the corral's affine hull, stepping back to the
    simplex boundary and dropping the vertex that hits zero while that
    minimizer has a negative weight. For T != 2, M is first multiplied by
    the power of two that puts its largest entry in [0.5, 1). That is exact:
    M times any power of two that keeps every entry finite and normal gives
    bitwise the same weights. An LU solve that fails its residual test
    gives the entering vertex a swap step (``_swap_step``) and stops a later
    minor cycle, so a chosen vertex can already be in the corral; that
    major cycle first takes a swap step toward it, then runs the minor
    cycles. For T != 2 the cycles start where the top-down chain ends
    (``_support_start``), and the first gap test may stop the solve there;
    when the chain has no end point (an LU solve failed, also on the empty
    support), they start from the vertex with the smallest ``M_ii``.
    For two vectors the method is one exact line search
    (``fw_line_search``), run in scalar arithmetic on ``M.tolist()``.

    The solve stops once the relative duality gap is at or below the
    configured tolerance. Failing that, it stops when a major cycle did not
    lower the objective (that cycle is undone), when the chosen vertex is
    the corral's only one, or when the budget of major cycles is spent. For
    T >= 3, a solve that returns a gap above the tolerance, whichever way it
    stopped, logs one warning on the ``mograd.minnorm`` logger. Weights off
    the corral are exact zeros.

    This function checks M, runs the solve core ``_min_norm`` and wraps its
    plain result in an ``FwResult``, scaling the objectives back to M. For
    T >= 3 it raises ``ValueError`` on a diagonal that no Gram matrix has:
    a negative entry, or no positive entry while some entry is nonzero.

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
    # For T >= 3 the gap certifies weights only when M's diagonal is a Gram
    # matrix's: no negative entry, and all zero only when every entry is.
    diag = M.diagonal()
    if M.shape[0] > 2 and (diag.min() < 0.0 or diag.max() == 0.0 and M.any()):
        raise ValueError("not a Gram matrix: a negative diagonal entry, or a zero diagonal"
                         " beside a nonzero entry")
    objectives: list[float] = []
    weights, gap, iterations = _min_norm(M, cfg, objectives)
    return FwResult(weights, gap, iterations, np.ldexp(objectives, 0 if M.shape[0] == 2 else _exponent(M)))


def _min_norm(M: np.ndarray, cfg: FwConfig, objectives: list[float] | None = None) -> tuple[np.ndarray, float, int]:
    """The solve core: ``(weights, gap, iterations)``, the fields of ``FwResult`` by those names.

    M must be a finite, square float array with at least one row, as a
    ``GradientSet``'s Gram matrix is; it is not checked here. A list passed
    as ``objectives`` receives ``FwResult.objectives`` as the solve sees
    them: of ``M 2^-_exponent(M)`` (of M itself at T=2).
    """
    T = M.shape[0]
    if objectives is None:
        objectives = []
    if T == 2:
        w0, w1, gap, trail = _solve_two(M.tolist(), cfg.tolerance)
        objectives += trail
        return np.array([w0, w1]), gap, len(trail) - 1

    # Scaling by a power of two is exact, so the solve below sees the same
    # matrix (entries in [-1, 1)) at any magnitude of M and never overflows.
    M = np.ldexp(M, -_exponent(M))
    bordered, rhs = _bordered(M)
    diag = M.diagonal()
    scale = float(np.maximum.reduce(diag))
    start = _support_start(bordered, rhs)
    if start is None:
        vertex = int(diag.argmin())
        beta = np.zeros(T)
        beta[vertex] = 1.0
        start = [vertex], beta
    beta, gap, iterations = _major_cycles(M, bordered, rhs, scale, cfg, *start, objectives)
    if gap > cfg.tolerance:
        _log.warning(
            "min-norm solve stopped after %d of max_iters=%d major cycles with relative gap"
            " %.3g above tolerance %.3g", iterations, cfg.max_iters, gap, cfg.tolerance,
        )
    return beta / np.add.reduce(beta), gap, iterations
