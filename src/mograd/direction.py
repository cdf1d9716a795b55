"""Descent directions for several objectives at once.

Two constructions over the loss gradients g_1, ..., g_T at the current
point:

* the *equiangular* direction ``d_b``: the min-norm convex combination of
  the normalized gradients, which forms the same angle with every gradient
  it is supported on, rescaled by a factor ``gamma`` so the step lives on
  the scale of the raw gradients;
* the *min-norm hull* direction ``d_h``: the shortest convex combination
  of the raw gradients, which is zero exactly when the gradients certify a
  stationary point.

Both solve their simplex problem on the Gram matrix ``M = G G^T`` of the
gradients and only then combine the rows of ``G``. Normalizing the rows
turns ``M`` into ``D^-1 M D^-1`` with ``D = diag(sqrt(M_ii))``, so the
equiangular direction never forms a normalized copy of the gradients. That
normalization makes it invariant to rescaling any single loss; the
min-norm hull direction is not.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .minnorm import FwConfig, _gram, _min_norm, _rows, _solve_two

__all__ = [
    "ZERO_GRADIENT_THRESHOLD",
    "GradientSet",
    "DirectionResult",
    "edm_direction",
    "mgda_direction",
    "bisector_two",
    "stationarity_residual",
]

# Gradients with norm at or below this are treated as exactly zero: their
# objective is locally stationary and normalizing them would divide by ~0.
ZERO_GRADIENT_THRESHOLD = 1e-12

_log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class GradientSet:
    """Per-objective gradients with their Gram matrix and norms.

    ``gram`` is ``gram_matrix(gradients)`` and ``norms`` is the square root
    of its diagonal; ``active`` lists the objectives whose norm is above
    the zero threshold. ``from_gradients`` raises ``NumericalError`` unless
    ``gram`` is finite, which also certifies that every gradient entry is:
    a NaN or infinite entry makes its row's squared norm non-finite.
    """

    gradients: np.ndarray  # (T, d)
    gram: np.ndarray  # (T, T)
    norms: np.ndarray  # (T,)
    active: np.ndarray  # indices with norm above ZERO_GRADIENT_THRESHOLD

    @classmethod
    def from_gradients(cls, gradients) -> "GradientSet":
        G = _rows(gradients)
        with np.errstate(over="ignore", invalid="ignore"):
            gram = _gram(G)
        if not np.isfinite(gram).all():
            # A finite gram certifies G, so G is scanned only to name the cause.
            if not np.isfinite(G).all():
                raise NumericalError("non-finite gradient entries")
            raise NumericalError("gradient norm overflow")
        norms = np.sqrt(gram.diagonal())
        active = (norms > ZERO_GRADIENT_THRESHOLD).nonzero()[0]
        return cls(gradients=G, gram=gram, norms=norms, active=active)

    @property
    def n_objectives(self) -> int:
        return self.gradients.shape[0]


@dataclass(frozen=True, eq=False)
class DirectionResult:
    """A computed descent direction and the weights that built it.

    ``raw_direction`` is the plain convex combination (of normalized
    gradients for the equiangular method, of raw gradients for the
    min-norm hull method), formed as ``coef @ gradients`` from the solved
    weights. ``gamma`` is the rescaling factor of the equiangular method
    and is None otherwise; ``normalized_direction`` is
    ``gamma * raw_direction`` when gamma is present and equals
    ``raw_direction`` when it is not. ``direction_norm`` is the Euclidean
    norm of ``raw_direction``. ``support`` lists the objectives with
    positive weight; the solver leaves exact zeros everywhere else.
    """

    weights: np.ndarray
    raw_direction: np.ndarray
    gamma: float | None
    normalized_direction: np.ndarray
    direction_norm: float
    support: np.ndarray


def _as_gradient_set(grads) -> GradientSet:
    if isinstance(grads, GradientSet):
        return grads
    return GradientSet.from_gradients(grads)


def _stationary_result(T: int, d: int) -> DirectionResult:
    zero = np.zeros(d)
    return DirectionResult(
        weights=np.full(T, 1.0 / T),
        raw_direction=zero,
        gamma=None,
        normalized_direction=zero.copy(),
        direction_norm=0.0,
        support=np.empty(0, dtype=np.intp),
    )


def _combine(G: np.ndarray, weights, coef, gamma, support) -> DirectionResult:
    raw = coef @ G
    return DirectionResult(
        weights=weights,
        raw_direction=raw,
        gamma=gamma,
        normalized_direction=raw if gamma is None else gamma * raw,
        direction_norm=math.sqrt(raw @ raw),
        support=support,
    )


def _pair(grads) -> tuple[list[list[float]], float, float] | None:
    """The Gram matrix (as lists) and norms of a raw (2, d) float array they certify, or None."""
    if type(grads) is not np.ndarray or grads.ndim != 2 or len(grads) != 2 or grads.dtype != float:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        A = grads @ grads.T
        M = A.tolist()
        # OpenBLAS's syrk makes A exactly symmetric; a BLAS that rounds the two
        # products apart gets _gram's larger one (a NaN fails both ways).
        if M[0][1] != M[1][0]:
            M = np.maximum(A, A.T).tolist()
    n0, n1 = math.sqrt(M[0][0]), math.sqrt(M[1][1])
    certified = math.isfinite(sum(M[0] + M[1])) and min(n0, n1) > ZERO_GRADIENT_THRESHOLD
    return (M, n0, n1) if certified else None


def edm_direction(grads, cfg: FwConfig = FwConfig()) -> DirectionResult:
    """Equiangular descent direction with its rescaling factor.

    Solves the min-norm problem over the *normalized* active gradients on
    their Gram matrix ``M_ij / (||g_i|| ||g_j||)``, forms
    ``d_b = sum_i (beta_i / ||g_i||) g_i`` from the resulting weights, and
    rescales it by ``gamma = 1 / sum_i(beta_i / ||g_i||)``. Objectives
    whose gradient is at or below the zero threshold get weight zero, and
    one warning on the ``mograd.direction`` logger names them; if every
    gradient is below it, the result is the zero direction with
    ``direction_norm`` 0, which signals a stationary point rather than
    raising.
    """
    pair = _pair(grads)
    if pair is not None:  # the generic route's operations below, in Python floats: bitwise equal
        ((m00, m01), (m10, m11)), n0, n1 = pair
        N = [[m00 / (n0 * n0), m01 / (n0 * n1)], [m10 / (n1 * n0), m11 / (n1 * n1)]]
        w0, w1, _, _ = _solve_two(N, cfg.tolerance)
        w = np.array([w0, w1])
        q0, q1 = w0 / n0, w1 / n1  # a weight off the support is exactly 0
        return _combine(grads, w, np.array([q0, q1]), 1.0 / (q0 + q1), w.nonzero()[0])
    gs = _as_gradient_set(grads)
    if gs.active.size == 0:
        return _stationary_result(*gs.gradients.shape)
    return _combine(gs.gradients, *_edm_solve(gs, cfg))


def _edm_solve(gs: GradientSet, cfg: FwConfig) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """``edm_direction``'s solve on a set with an active objective: its weights and
    coefficients ``beta_i / ||g_i||`` over all T objectives, gamma and the support."""
    T = gs.n_objectives
    act = gs.active
    # Scaling row i by 2^k scales M_ij, ||g_i|| and g_i exactly, so the
    # solve, beta and every term (beta_i / ||g_i||) g_i are bitwise unchanged.
    every = act.size == T
    n = gs.norms if every else gs.norms[act]
    M = gs.gram if every else gs.gram[act[:, None], act]
    # |M_ij| <= n_i n_j, so the normalized Gram matrix is finite too.
    w = _min_norm(M / (n[:, None] * n), cfg)[0]
    q = w / n
    support = (w > 0).nonzero()[0]
    # gamma = (sum_i beta_i / ||g_i||)^-1 over the positive weights.
    gamma = 1.0 / float(np.add.reduce(q[support]))
    if every:
        return w, q, gamma, support
    _log.warning(
        "edm_direction drops objectives %s: gradient norm at or below ZERO_GRADIENT_THRESHOLD=%g",
        (gs.norms <= ZERO_GRADIENT_THRESHOLD).nonzero()[0].tolist(), ZERO_GRADIENT_THRESHOLD,
    )
    weights = np.zeros(T)
    weights[act] = w
    coef = np.zeros(T)
    coef[act] = q
    return weights, coef, gamma, act[support]


def mgda_direction(grads, cfg: FwConfig = FwConfig()) -> DirectionResult:
    """Min-norm point of the convex hull of the raw gradients.

    Zero gradients are allowed; they enter the hull as zero vectors (and a
    zero vector in the hull makes the min-norm point zero, i.e. the point
    is already stationary for that objective alone).
    """
    pair = _pair(grads)
    if pair is not None:
        w = np.array(_solve_two(pair[0], cfg.tolerance)[:2])
        return _combine(grads, w, w, None, w.nonzero()[0])
    gs = _as_gradient_set(grads)
    w = _min_norm(gs.gram, cfg)[0]
    return _combine(gs.gradients, w, w, None, (w > 0).nonzero()[0])


def bisector_two(g1, g2) -> np.ndarray:
    """Closed-form rescaled bisector of two gradients.

    Returns ``(g1/||g1|| + g2/||g2||) / (1/||g1|| + 1/||g2||)``, a point of
    the convex hull of g1 and g2. For two non-parallel gradients this
    matches the equiangular method's rescaled direction exactly.
    """
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    if g1.shape != g2.shape or g1.ndim != 1:
        raise ValueError("expected two vectors of the same dimension")
    r1 = float(np.sqrt(g1 @ g1))
    r2 = float(np.sqrt(g2 @ g2))
    if r1 <= ZERO_GRADIENT_THRESHOLD or r2 <= ZERO_GRADIENT_THRESHOLD:
        raise ValueError("bisector is undefined for a zero-norm gradient")
    return (g1 / r1 + g2 / r2) / (1.0 / r1 + 1.0 / r2)


def stationarity_residual(grads, cfg: FwConfig = FwConfig()) -> tuple[float, np.ndarray]:
    """Norm of the convex gradient combination that EDM's weights give, and those weights.

    Recovers simplex weights ``alpha_i = gamma * beta_i / ||g_i||`` from the
    equiangular solution (zero for inactive objectives, renormalized onto
    the simplex) and returns ``(||sum_i alpha_i g_i||, alpha)``. The weights
    come from ``edm_direction``'s solve whatever method made the steps. A gradient
    of norm exactly zero puts the origin in the hull: the residual is then
    0.0, with all weight on the first such gradient. Otherwise the residual
    is zero exactly when the min-norm point ``d_h`` of the active gradients'
    hull is zero, so a zero residual certifies a stationary point; else it
    is at least ``||d_h||``, and in general larger.
    """
    gs = _as_gradient_set(grads)
    T = gs.n_objectives
    if gs.active.size == 0:
        return 0.0, np.full(T, 1.0 / T)
    zero = (gs.norms == 0.0).nonzero()[0]
    if zero.size:
        alpha = np.zeros(T)
        alpha[zero[0]] = 1.0
        return 0.0, alpha

    weights, _, gamma, _ = _edm_solve(gs, cfg)
    alpha = np.zeros(T)
    act = gs.active
    alpha[act] = gamma * weights[act] / gs.norms[act]
    alpha = alpha / alpha.sum()
    combo = alpha @ gs.gradients
    return float(np.sqrt(combo @ combo)), alpha
