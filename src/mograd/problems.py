"""Analytic multi-objective benchmarks and a finite-difference gradient oracle.

A problem is any callable ``theta -> (losses, gradients)`` returning a
length-T loss vector and a (T, d) gradient matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import NumericalError

__all__ = [
    "MultiLossProblem",
    "QuadraticPair",
    "ScaledProblem",
    "finite_diff_gradient",
    "pareto_set_distance",
]

MultiLossProblem = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class QuadraticPair:
    """Two axis-aligned quadratic bowls ``L_i = 0.5 (theta-c_i)^T A_i (theta-c_i)``.

    ``scale1``/``scale2`` are the diagonals of A_1/A_2; None means identity.
    With identity scales the set of trade-off optima is exactly the segment
    between the two centers, which makes convergence checkable in closed
    form.
    """

    center1: np.ndarray
    center2: np.ndarray
    scale1: np.ndarray | None = None
    scale2: np.ndarray | None = None

    def __post_init__(self) -> None:
        c1 = np.asarray(self.center1, dtype=float)
        c2 = np.asarray(self.center2, dtype=float)
        if c1.shape != c2.shape or c1.ndim != 1:
            raise ValueError("centers must be vectors of the same dimension")
        object.__setattr__(self, "center1", c1)
        object.__setattr__(self, "center2", c2)
        for name in ("scale1", "scale2"):
            s = getattr(self, name)
            if s is None:
                continue
            s = np.asarray(s, dtype=float)
            if s.shape != c1.shape:
                raise ValueError(f"{name} must match the center dimension")
            if np.any(s <= 0):
                raise ValueError(f"{name} entries must be strictly positive")
            object.__setattr__(self, name, s)

    @property
    def dim(self) -> int:
        return self.center1.shape[0]

    def __call__(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Losses and gradients of both bowls at ``theta``."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise ValueError(f"theta of shape {theta.shape} does not match dimension {self.dim}")
        losses = np.empty(2)
        grads = np.empty((2, self.dim))
        for i, (center, scale) in enumerate(
            [(self.center1, self.scale1), (self.center2, self.scale2)]
        ):
            diff = theta - center
            scaled = diff if scale is None else scale * diff
            losses[i] = 0.5 * float(diff @ scaled)
            grads[i] = scaled
        return losses, grads


@dataclass(frozen=True)
class ScaledProblem:
    """Wraps a problem and multiplies one loss (and its gradient) by ``kappa``."""

    inner: MultiLossProblem
    kappa: float
    target: int = 1

    def __post_init__(self) -> None:
        if not (1 <= self.kappa < math.inf):
            raise ValueError(f"kappa must be >= 1 and finite, got {self.kappa}")

    def __call__(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Inner losses/gradients with the target loss multiplied by kappa."""
        losses, grads = self.inner(theta)
        losses = np.array(losses, dtype=float)
        grads = np.array(grads, dtype=float)
        if not 0 <= self.target < losses.shape[0]:
            raise ValueError(
                f"target index {self.target} out of range for {losses.shape[0]} losses"
            )
        losses[self.target] *= self.kappa
        grads[self.target] *= self.kappa
        return losses, grads


def finite_diff_gradient(loss: Callable[[np.ndarray], float], theta, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient ``(L(theta + h e_j) - L(theta - h e_j)) / 2h``."""
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for j in range(theta.shape[0]):
        step = np.zeros_like(theta)
        step[j] = h
        up = float(loss(theta + step))
        down = float(loss(theta - step))
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericalError(f"non-finite loss evaluation near coordinate {j}")
        grad[j] = (up - down) / (2.0 * h)
    return grad


def pareto_set_distance(pair: QuadraticPair, theta) -> float:
    """Euclidean distance from ``theta`` to the segment between the centers.

    Only meaningful for identity scales, where that segment is exactly the
    set of trade-off optima; anisotropic scales are rejected.
    """
    for name in ("scale1", "scale2"):
        s = getattr(pair, name)
        if s is not None and not np.all(s == 1.0):
            raise ValueError("distance to the optimal set is only supported for identity scales")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (pair.dim,):
        raise ValueError(f"theta of shape {theta.shape} does not match dimension {pair.dim}")
    span = pair.center2 - pair.center1
    span_sq = float(span @ span)
    if span_sq == 0.0:
        t = 0.0
    else:
        t = min(max(float((theta - pair.center1) @ span) / span_sq, 0.0), 1.0)
    closest = pair.center1 + t * span
    return float(np.linalg.norm(theta - closest))
