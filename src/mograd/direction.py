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
from .minnorm import FwConfig, _gram, _min_norm

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


@dataclass(frozen=True)
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
        G = np.asarray(gradients, dtype=float)
        if G.ndim == 1:
            G = G[None, :]
        if G.ndim != 2 or G.shape[0] < 1 or G.shape[1] < 1:
            raise ValueError(f"expected (T, d) gradients with T, d >= 1, got shape {G.shape}")
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


@dataclass(frozen=True)
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


def _combine(gs: GradientSet, weights, coef, gamma, support) -> DirectionResult:
    raw = coef @ gs.gradients
    return DirectionResult(
        weights=weights,
        raw_direction=raw,
        gamma=gamma,
        normalized_direction=raw if gamma is None else gamma * raw,
        direction_norm=math.sqrt(raw @ raw),
        support=support,
    )


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
    gs = _as_gradient_set(grads)
    T, d = gs.gradients.shape
    act = gs.active
    if act.size == 0:
        return _stationary_result(T, d)

    # Scaling row i by 2^k scales M_ij, ||g_i|| and g_i exactly, so the
    # solve, beta and every term (beta_i / ||g_i||) g_i are bitwise unchanged.
    every = act.size == T
    n = gs.norms if every else gs.norms[act]
    M = gs.gram if every else gs.gram[act[:, None], act]
    # |M_ij| <= n_i n_j, so the normalized Gram matrix is finite too.
    sol = _min_norm(M / (n[:, None] * n), cfg)
    q = sol.weights / n
    support = (sol.weights > 0).nonzero()[0]
    # gamma = (sum_i beta_i / ||g_i||)^-1 over the positive weights.
    gamma = float(1.0 / np.sum(q[support]))
    if every:
        return _combine(gs, sol.weights, q, gamma, support)
    _log.warning(
        "edm_direction drops objectives %s: gradient norm at or below ZERO_GRADIENT_THRESHOLD=%g",
        (gs.norms <= ZERO_GRADIENT_THRESHOLD).nonzero()[0].tolist(), ZERO_GRADIENT_THRESHOLD,
    )
    weights = np.zeros(T)
    weights[act] = sol.weights
    coef = np.zeros(T)
    coef[act] = q
    return _combine(gs, weights, coef, gamma, act[support])


def mgda_direction(grads, cfg: FwConfig = FwConfig()) -> DirectionResult:
    """Min-norm point of the convex hull of the raw gradients.

    Zero gradients are allowed; they enter the hull as zero vectors (and a
    zero vector in the hull makes the min-norm point zero, i.e. the point
    is already stationary for that objective alone).
    """
    gs = _as_gradient_set(grads)
    sol = _min_norm(gs.gram, cfg)
    return _combine(gs, sol.weights, sol.weights, None, (sol.weights > 0).nonzero()[0])


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
    """Norm of the best convex combination of gradients, with its weights.

    Recovers simplex weights ``alpha_i = gamma * beta_i / ||g_i||`` from the
    equiangular solution (zero for inactive objectives, renormalized onto
    the simplex) and returns ``(||sum_i alpha_i g_i||, alpha)``. A residual
    of zero certifies a stationary point through this alpha.
    """
    gs = _as_gradient_set(grads)
    T = gs.n_objectives
    if gs.active.size == 0:
        return 0.0, np.full(T, 1.0 / T)

    res = edm_direction(gs, cfg)
    alpha = np.zeros(T)
    act = gs.active
    alpha[act] = res.gamma * res.weights[act] / gs.norms[act]
    alpha = alpha / alpha.sum()
    combo = alpha @ gs.gradients
    return float(np.sqrt(combo @ combo)), alpha
