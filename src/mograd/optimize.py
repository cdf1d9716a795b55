"""Descent loops over multi-loss problems, with per-iteration traces.

A problem is any callable ``theta -> (losses, gradients)``. Each loop
computes the chosen direction, records a trace entry, tests the stopping
rule before applying the update, and steps with a constant learning rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .direction import GradientSet, edm_direction, mgda_direction, stationarity_residual
from .exceptions import NumericalError
from .minnorm import FwConfig
from .neural import TwoHeadMlp, two_task_gradients
from .problems import MultiLossProblem

__all__ = [
    "OptimizerConfig",
    "IterationTrace",
    "RunResult",
    "run_edm",
    "run_mgda",
    "run_weighted_sum",
    "run_multitask",
]

METHODS = ("edm", "mgda", "weighted_sum")


@dataclass(frozen=True)
class OptimizerConfig:
    """Shared knobs of the descent loops.

    ``stop_tolerance`` applies to the norm of the stepped direction.
    ``weights`` is only consulted by the weighted-sum method. ``max_iters``
    may be zero, in which case a run returns its starting point untouched.
    """

    method: str = "edm"
    learning_rate: float = 0.1
    max_iters: int = 1000
    stop_tolerance: float = 1e-8
    weights: np.ndarray | None = None
    fw: FwConfig = field(default_factory=FwConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.stop_tolerance <= 0:
            raise ValueError(f"stop_tolerance must be positive, got {self.stop_tolerance}")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1 or np.any(w < 0) or w.sum() <= 0:
                raise ValueError(
                    "weights must be a vector of nonnegative entries with a positive sum"
                )
            object.__setattr__(self, "weights", w)


@dataclass
class IterationTrace:
    iteration: int
    losses: np.ndarray
    direction_norm: float
    gamma: float | None
    weights: np.ndarray
    step_norm: float


@dataclass
class RunResult:
    final_point: np.ndarray
    converged: bool
    iterations_used: int
    trace: list[IterationTrace]
    stationarity: float


def _step_edm(gs: GradientSet, cfg: OptimizerConfig):
    res = edm_direction(gs, cfg.fw)
    return res.normalized_direction, res.gamma, res.weights


def _step_mgda(gs: GradientSet, cfg: OptimizerConfig):
    res = mgda_direction(gs, cfg.fw)
    return res.raw_direction, None, res.weights


def _step_weighted_sum(gs: GradientSet, cfg: OptimizerConfig):
    if cfg.weights is None:
        raise ValueError("weighted_sum needs cfg.weights")
    w = cfg.weights
    if w.shape[0] != gs.n_objectives:
        raise ValueError(
            f"{w.shape[0]} weights do not match {gs.n_objectives} objectives"
        )
    return w @ gs.gradients, None, w / w.sum()


_STEPS: dict[str, Callable] = {
    "edm": _step_edm,
    "mgda": _step_mgda,
    "weighted_sum": _step_weighted_sum,
}


def _check_finite(what: str, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError(f"non-finite {what}")


def _at(exc: NumericalError, where: str, k: int) -> NumericalError:
    return NumericalError(f"{exc} at {where} {k}", iteration=k)


def _descend(problem: MultiLossProblem, theta0, cfg: OptimizerConfig, method: str) -> RunResult:
    step_fn = _STEPS[method]
    theta = np.array(theta0, dtype=float)
    trace: list[IterationTrace] = []
    converged = False
    iterations_used = cfg.max_iters
    for k in range(cfg.max_iters):
        losses, grads = problem(theta)
        losses = np.asarray(losses, dtype=float)
        # The GradientSet certifies the gradients; the loop checks the rest.
        try:
            _check_finite("loss", losses)
            gs = GradientSet.from_gradients(grads)
            direction, gamma, trace_weights = step_fn(gs, cfg)
            _check_finite("direction", direction)
        except NumericalError as exc:
            raise _at(exc, "iteration", k) from exc
        direction_norm = float(np.sqrt(direction @ direction))
        if direction_norm <= cfg.stop_tolerance:
            trace.append(
                IterationTrace(k, losses.copy(), direction_norm, gamma, trace_weights, 0.0)
            )
            converged = True
            iterations_used = k
            break
        new_theta = theta - cfg.learning_rate * direction
        # np.linalg.norm's own path for a 1-D vector, without its overhead.
        step = new_theta - theta
        trace.append(
            IterationTrace(
                k,
                losses.copy(),
                direction_norm,
                gamma,
                trace_weights,
                float(np.sqrt(step @ step)),
            )
        )
        theta = new_theta

    _, final_grads = problem(theta)
    try:
        residual, _ = stationarity_residual(final_grads, cfg.fw)
    except NumericalError as exc:
        raise _at(exc, "iteration", iterations_used) from exc
    return RunResult(theta, converged, iterations_used, trace, residual)


def run_edm(problem: MultiLossProblem, theta0, cfg: OptimizerConfig) -> RunResult:
    """Iterate ``theta <- theta - s * gamma * d_b``, stopping once the
    rescaled equiangular direction's norm drops to the tolerance."""
    return _descend(problem, theta0, cfg, "edm")


def run_mgda(problem: MultiLossProblem, theta0, cfg: OptimizerConfig) -> RunResult:
    """Iterate along the min-norm hull direction, stopping on its norm."""
    return _descend(problem, theta0, cfg, "mgda")


def run_weighted_sum(problem: MultiLossProblem, theta0, cfg: OptimizerConfig) -> RunResult:
    """Plain gradient descent on the fixed conical combination of the losses."""
    return _descend(problem, theta0, cfg, "weighted_sum")


def _apply_kappa(losses, shared, head_grads, kappa: float):
    if kappa == 1.0:
        return losses, shared, head_grads
    losses = losses.copy()
    shared = shared.copy()
    losses[1] *= kappa
    shared[1] *= kappa
    if head_grads is None:
        return losses, shared, None
    return losses, shared, (head_grads[0], head_grads[1] * kappa)


def run_multitask(
    model: TwoHeadMlp,
    data,
    cfg: OptimizerConfig,
    *,
    kappa: float = 1.0,
    batch_size: int = 64,
    epochs: int | None = None,
) -> tuple[TwoHeadMlp, RunResult]:
    """Train a two-head network: multi-objective trunk, per-task head steps.

    Per batch, both task losses are backpropagated separately; the chosen
    method turns the two shared-block gradients into one trunk direction,
    and each head takes a plain gradient step on its own loss at the same
    learning rate. All gradients of a batch are computed before any
    parameter moves, and the steps update the parameter buffers of a copy
    of ``model`` in place; the caller's model is never changed. ``kappa``
    rescales the second task's loss (and hence every gradient of it). The
    trace holds one record per epoch with batch-averaged losses, direction
    norms, and weights; a zero-epoch run returns the model unchanged.

    Returns the trained model and the run record; ``final_point`` is the
    full flat parameter vector.
    """
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if data.labels2 is None:
        raise ValueError("multitask training needs a dataset with two labels per sample")
    n_epochs = cfg.max_iters if epochs is None else epochs
    if n_epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {n_epochs}")
    step_fn = _STEPS[cfg.method]

    model = model.copy()
    X, y1, y2 = data.features, data.labels, data.labels2
    rng = np.random.default_rng(cfg.seed)
    s = cfg.learning_rate
    trace: list[IterationTrace] = []
    converged = False
    used = 0

    for epoch in range(n_epochs):
        start_flat = model.flatten()
        order = rng.permutation(X.shape[0])
        sum_losses = np.zeros(2)
        sum_dnorm = 0.0
        sum_gamma = 0.0
        gamma_count = 0
        sum_weights = np.zeros(2)
        n_batches = 0
        for lo in range(0, order.size, batch_size):
            idx = order[lo : lo + batch_size]
            losses, shared, head_grads = two_task_gradients(model, X[idx], y1[idx], y2[idx])
            losses, shared, head_grads = _apply_kappa(losses, shared, head_grads, kappa)
            try:
                _check_finite("loss or head gradient", losses, *head_grads)
                gs = GradientSet.from_gradients(shared)
                direction, gamma, trace_weights = step_fn(gs, cfg)
                _check_finite("direction", direction)
            except NumericalError as exc:
                raise _at(exc, "epoch", epoch) from exc

            model.trunk.flat -= s * direction
            for head, g in zip(model.heads, head_grads):
                head.flat -= s * g

            sum_losses += losses
            sum_dnorm += float(np.sqrt(direction @ direction))
            if gamma is not None:
                sum_gamma += gamma
                gamma_count += 1
            sum_weights += trace_weights
            n_batches += 1

        mean_weights = sum_weights / sum_weights.sum()
        mean_dnorm = sum_dnorm / n_batches
        trace.append(
            IterationTrace(
                iteration=epoch,
                losses=sum_losses / n_batches,
                direction_norm=mean_dnorm,
                gamma=sum_gamma / gamma_count if gamma_count else None,
                weights=mean_weights,
                step_norm=float(np.linalg.norm(model.flatten() - start_flat)),
            )
        )
        used = epoch + 1
        if mean_dnorm <= cfg.stop_tolerance:
            converged = True
            break

    losses, shared, _ = two_task_gradients(model, X, y1, y2)
    _, shared, _ = _apply_kappa(losses, shared, None, kappa)
    try:
        residual, _ = stationarity_residual(shared, cfg.fw)
    except NumericalError as exc:
        raise _at(exc, "epoch", used) from exc
    return model, RunResult(model.flatten(), converged, used, trace, residual)
