"""Analytic multi-objective benchmarks and a finite-difference gradient oracle.

A problem is any callable ``theta -> (losses, gradients)`` returning a
length-T loss vector and a (T, d) gradient matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import NumericalError

__all__ = [
    "MultiLossProblem",
    "QuadraticPair",
    "finite_diff_gradient",
    "pareto_set_distance",
]

MultiLossProblem = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

# The step h of ``finite_diff_gradient``.
_FD_STEP = 1e-5


@dataclass(frozen=True)
class QuadraticPair:
    """Two unit quadratic bowls ``L_i = 0.5 ||theta - c_i||^2``.

    The set of trade-off optima is exactly the segment between the two
    centers, which makes convergence checkable in closed form.
    """

    center1: np.ndarray
    center2: np.ndarray

    def __post_init__(self) -> None:
        c1 = np.asarray(self.center1, dtype=float)
        c2 = np.asarray(self.center2, dtype=float)
        if c1.shape != c2.shape or c1.ndim != 1:
            raise ValueError("centers must be vectors of the same dimension")
        object.__setattr__(self, "center1", c1)
        object.__setattr__(self, "center2", c2)

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
        for i, center in enumerate((self.center1, self.center2)):
            diff = theta - center
            losses[i] = 0.5 * float(diff @ diff)
            grads[i] = diff
        return losses, grads


def finite_diff_gradient(loss: Callable[[np.ndarray], float], theta) -> np.ndarray:
    """Central-difference gradient ``(L(theta + h e_j) - L(theta - h e_j)) / 2h``."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for j in range(theta.shape[0]):
        step = np.zeros_like(theta)
        step[j] = _FD_STEP
        up = float(loss(theta + step))
        down = float(loss(theta - step))
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericalError(f"non-finite loss evaluation near coordinate {j}")
        grad[j] = (up - down) / (2.0 * _FD_STEP)
    return grad


def pareto_set_distance(pair: QuadraticPair, theta) -> float:
    """Euclidean distance from ``theta`` to the segment between the centers,
    which is the set of trade-off optima."""
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
