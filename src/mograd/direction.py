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

Normalizing first makes the equiangular direction invariant to rescaling
any single loss; the min-norm hull direction is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .minnorm import FwConfig, frank_wolfe_min_norm, gram_matrix

__all__ = [
    "ZERO_GRADIENT_THRESHOLD",
    "GradientSet",
    "DirectionResult",
    "edm_direction",
    "mgda_direction",
    "bisector_two",
    "normalization_factor",
    "stationarity_residual",
]

# Gradients with norm at or below this are treated as exactly zero: their
# objective is locally stationary and normalizing them would divide by ~0.
ZERO_GRADIENT_THRESHOLD = 1e-12


@dataclass(frozen=True)
class GradientSet:
    """Per-objective gradients with cached norms and unit-norm copies.

    ``normalized`` rows are defined only for ``active`` objectives (norm
    above the zero threshold); inactive rows are zero.
    """

    gradients: np.ndarray  # (T, d)
    norms: np.ndarray  # (T,)
    normalized: np.ndarray  # (T, d)
    active: np.ndarray  # indices with norm above ZERO_GRADIENT_THRESHOLD

    @classmethod
    def from_gradients(cls, gradients) -> "GradientSet":
        G = np.asarray(gradients, dtype=float)
        if G.ndim == 1:
            G = G[None, :]
        if G.ndim != 2 or G.shape[0] < 1 or G.shape[1] < 1:
            raise ValueError(f"expected (T, d) gradients with T, d >= 1, got shape {G.shape}")
        if not np.all(np.isfinite(G)):
            raise NumericalError("non-finite gradient entries")
        # sqrt of an explicit square-sum: rescaling a row by a power of two
        # rescales its norm exactly, which keeps normalized rows bitwise
        # stable under per-objective rescaling.
        with np.errstate(over="ignore"):
            norms = np.sqrt((G * G).sum(axis=1))
        if not np.all(np.isfinite(norms)):
            raise NumericalError("gradient norm overflow")
        active = np.flatnonzero(norms > ZERO_GRADIENT_THRESHOLD)
        U = np.zeros_like(G)
        U[active] = G[active] / norms[active, None]
        return cls(gradients=G, norms=norms, normalized=U, active=active)

    @property
    def n_objectives(self) -> int:
        return self.gradients.shape[0]

    @property
    def dim(self) -> int:
        return self.gradients.shape[1]


@dataclass(frozen=True)
class DirectionResult:
    """A computed descent direction and the weights that built it.

    ``raw_direction`` is the plain convex combination (of normalized
    gradients for the equiangular method, of raw gradients for the
    min-norm hull method). ``gamma`` is the rescaling factor of the
    equiangular method and is None otherwise; ``normalized_direction`` is
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


def edm_direction(grads, cfg: FwConfig = FwConfig()) -> DirectionResult:
    """Equiangular descent direction with its rescaling factor.

    Solves the min-norm problem over the *normalized* active gradients,
    forms ``d_b`` from the resulting weights, and rescales it by
    ``gamma = 1 / sum_i(beta_i / ||g_i||)``. Objectives whose gradient is
    below the zero threshold get weight zero; if every gradient is below
    it, the result is the zero direction with ``direction_norm`` 0, which
    signals a stationary point rather than raising.
    """
    gs = _as_gradient_set(grads)
    T, d = gs.gradients.shape
    act = gs.active
    if act.size == 0:
        return _stationary_result(T, d)

    U = gs.normalized[act]
    sol = frank_wolfe_min_norm(gram_matrix(U), cfg)
    weights = np.zeros(T)
    weights[act] = sol.weights
    raw = sol.weights @ U
    gamma = normalization_factor(sol.weights, gs.norms[act])
    return DirectionResult(
        weights=weights,
        raw_direction=raw,
        gamma=gamma,
        normalized_direction=gamma * raw,
        direction_norm=float(np.sqrt(raw @ raw)),
        support=np.flatnonzero(weights > 0),
    )


def mgda_direction(grads, cfg: FwConfig = FwConfig()) -> DirectionResult:
    """Min-norm point of the convex hull of the raw gradients.

    Zero gradients are allowed; they enter the hull as zero vectors (and a
    zero vector in the hull makes the min-norm point zero, i.e. the point
    is already stationary for that objective alone).
    """
    gs = _as_gradient_set(grads)
    sol = frank_wolfe_min_norm(gram_matrix(gs.gradients), cfg)
    raw = sol.weights @ gs.gradients
    return DirectionResult(
        weights=sol.weights,
        raw_direction=raw,
        gamma=None,
        normalized_direction=raw,
        direction_norm=float(np.sqrt(raw @ raw)),
        support=np.flatnonzero(sol.weights > 0),
    )


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


def normalization_factor(weights, norms) -> float:
    """Rescaling factor ``(sum_i weights_i / norms_i)^-1`` over nonzero weights."""
    w = np.asarray(weights, dtype=float)
    n = np.asarray(norms, dtype=float)
    if w.shape != n.shape:
        raise ValueError(f"weights shape {w.shape} does not match norms shape {n.shape}")
    nz = w > 0
    if not np.any(nz):
        raise ValueError("at least one weight must be positive")
    if np.any(n[nz] <= 0):
        raise ValueError("nonzero weight paired with zero norm")
    return float(1.0 / np.sum(w[nz] / n[nz]))


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
