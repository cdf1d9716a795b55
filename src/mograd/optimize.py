"""Descent loops over multi-loss problems, with per-iteration traces.

A problem is any callable ``theta -> (losses, gradients)``. ``METHODS`` is
the one registry of step methods: each entry maps a ``(T, d)`` gradient
array or a ``GradientSet``, and an ``OptimizerConfig``, to a certified
``DirectionResult``; every loop steps along its ``normalized_direction``.
The flat loop (``run_edm``/``run_mgda``/``run_weighted_sum``) tests the
stopping rule before each update and traces every step; ``run_multitask``
steps a two-head network per batch and traces each epoch's means. Both make
each direction through one step core, which checks the caller's arrays and
names the iteration or epoch in any ``NumericalError``. The two studies'
trainers live here too: ``train_imbalanced`` runs the flat loop on
per-class batch losses, and ``run_multitask`` is the two-task trainer.

The oracle contract: the flat loop is done with the arrays of one problem
call before it makes the next, and keeps none of them (a trace holds its
own copy of the losses). So a problem may return the same buffers from
every call, overwritten in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import Dataset, class_batches
from .direction import (
    DirectionResult,
    GradientSet,
    _combine,
    _rows,
    edm_direction,
    mgda_direction,
    stationarity_residual,
)
from .exceptions import NumericalError
from .minnorm import FwConfig
from .neural import (
    MlpParams,
    TwoHeadMlp,
    _class_plan,
    _grouped_losses,
    _two_task_plan,
    _two_task_run,
    init_mlp,
    per_class_losses,
    two_task_gradients,
)
from .problems import MultiLossProblem

__all__ = [
    "METHODS",
    "OptimizerConfig",
    "IterationTrace",
    "RunResult",
    "run_edm",
    "run_mgda",
    "run_weighted_sum",
    "run_multitask",
    "train_imbalanced",
]


def _weighted_sum(grads, cfg: OptimizerConfig) -> DirectionResult:
    """``w @ G`` for the configured weights, without a Gram matrix: rows whose own
    norms overflow are accepted when ``w @ G`` and its norm are finite."""
    w = cfg.weights
    if w is None:
        raise ValueError("weighted_sum needs cfg.weights")
    G = grads.gradients if isinstance(grads, GradientSet) else _rows(grads)
    if w.shape[0] != G.shape[0]:
        raise ValueError(f"{w.shape[0]} weights do not match {G.shape[0]} objectives")
    # OptimizerConfig rejects negative weights, so the nonzero ones are the support.
    with np.errstate(over="ignore", invalid="ignore"):
        res = _combine(G, w / w.sum(), w, None, w.nonzero()[0])
    # Unlike edm's and mgda's, w @ G can overflow. A non-finite entry of G or
    # an overflow leaves the norm non-finite, so G is scanned only then.
    if not math.isfinite(res.direction_norm):
        if not np.isfinite(G).all():
            raise NumericalError("non-finite gradient entries")
        if np.isfinite(res.raw_direction).all():
            raise NumericalError("direction norm overflow")
        raise NumericalError("non-finite direction")
    return res


# The entries look up the direction functions in this module's globals at
# call time, so wrappers installed on the module (the benchmark's tracer) see them.
METHODS: dict[str, Callable[[np.ndarray | GradientSet, OptimizerConfig], DirectionResult]] = {
    "edm": lambda grads, cfg: edm_direction(grads, cfg.fw),
    "mgda": lambda grads, cfg: mgda_direction(grads, cfg.fw),
    "weighted_sum": _weighted_sum,
}


@dataclass(frozen=True)
class OptimizerConfig:
    """Shared knobs of the descent loops.

    ``stop_tolerance`` applies to the norm of the stepped direction.
    ``weights`` is only consulted by the weighted-sum method. ``max_iters``
    may be zero, in which case a run returns its starting point untouched.
    ``seed`` seeds ``run_multitask``'s batch shuffle; the flat loop draws
    nothing, so it ignores it.
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
            raise ValueError(f"method must be one of {tuple(METHODS)}, got {self.method!r}")
        if not (0 < self.learning_rate < math.inf):
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not (0 < self.stop_tolerance < math.inf):
            raise ValueError(
                f"stop_tolerance must be positive and finite, got {self.stop_tolerance}"
            )
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1 or not np.isfinite(w).all() or np.any(w < 0) or w.sum() <= 0:
                raise ValueError(
                    "weights must be a vector of finite nonnegative entries with a positive sum"
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


def _at(exc: NumericalError, where: str, k: int) -> NumericalError:
    return NumericalError(f"{exc} at {where} {k}")


def _step(
    method: str, cfg: OptimizerConfig, grads, what: str, arrays, where: str, k: int
) -> tuple[DirectionResult, float]:
    """The registry's direction for one step, and the norm of that step's direction.

    ``arrays`` (named ``what`` in the error) must be finite; the registry
    entry takes ``grads`` as given and certifies it and its direction. A
    ``NumericalError`` is re-raised as ``"... at {where} {k}"``.
    """
    try:
        for a in arrays:
            if not np.isfinite(a).all():
                raise NumericalError(f"non-finite {what}")
        res = METHODS[method](grads, cfg)
    except NumericalError as exc:
        raise _at(exc, where, k) from exc
    # Without gamma the stepped direction is raw_direction, whose norm res holds.
    d = res.normalized_direction
    return res, res.direction_norm if res.gamma is None else math.sqrt(d @ d)


def _final_residual(grads, cfg: OptimizerConfig, where: str, k: int) -> float:
    try:
        return stationarity_residual(grads, cfg.fw)[0]
    except NumericalError as exc:
        raise _at(exc, where, k) from exc


def _descend(problem: MultiLossProblem, theta0, cfg: OptimizerConfig, method: str) -> RunResult:
    theta = np.array(theta0, dtype=float)
    trace: list[IterationTrace] = []
    converged = False
    iterations_used = cfg.max_iters
    for k in range(cfg.max_iters):
        losses, grads = problem(theta)
        losses = np.array(losses, dtype=float)  # the trace's own copy
        res, direction_norm = _step(method, cfg, grads, "loss", (losses,), "iteration", k)
        if direction_norm <= cfg.stop_tolerance:
            trace.append(IterationTrace(k, losses, direction_norm, res.gamma, res.weights, 0.0))
            converged = True
            iterations_used = k
            break
        new_theta = theta - cfg.learning_rate * res.normalized_direction
        # np.linalg.norm's own path for a 1-D vector, without its overhead.
        step = new_theta - theta
        step_norm = math.sqrt(step @ step)
        trace.append(IterationTrace(k, losses, direction_norm, res.gamma, res.weights, step_norm))
        theta = new_theta

    _, final_grads = problem(theta)
    residual = _final_residual(final_grads, cfg, "iteration", iterations_used)
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


def _run_flat(problem: MultiLossProblem, theta0, cfg: OptimizerConfig) -> RunResult:
    """The flat loop of ``cfg.method``, looked up in this module at call time
    so that wrappers installed on it (the benchmark's tracer) see the call."""
    return globals()[f"run_{cfg.method}"](problem, theta0, cfg)


def _epoch_batch_oracle(net, ds: Dataset, batches_per_epoch: int, seed: int, epochs: int):
    """Stateful problem oracle: each call evaluates the next per-class batch.

    The classes are ``net``'s outputs, as in ``per_class_losses``: ``ds``
    may have at most ``net.dims[-1]`` classes, checked once here. Writes
    ``theta`` into ``net``'s buffer in place. Single-consumer (the
    descent loop). The batches are the rows of ``class_batches``'s
    ``epochs`` epochs, in order. Once they are spent, every later call
    evaluates the whole of ``ds`` with ``per_class_losses``, which returns
    fresh arrays: a run of ``epochs * batches_per_epoch`` iterations takes
    its final residual on the training set. A run that stops early takes
    it on the next batch instead (an early stop needs a direction norm at
    most the trainer's 1e-300 tolerance).

    Every batch holds the same number of rows of each class, in class
    order, so its labels and class segments are fixed for the run, and one
    per-class plan (label picks, segments, gradient buffer and its layer
    views) serves every step. Each batch call returns that same gradient
    buffer, valid until the next call, as the descent loops allow. Each
    epoch's index array is checked against ``ds.labels`` once when it is
    drawn; a step then only runs the forward pass, the loss and the
    backward pass.
    """
    X = ds.features
    epochs_iter = class_batches(ds, batches_per_epoch, seed, epochs)
    sizes = [idx.size // batches_per_epoch for idx in ds.class_index_sets]
    if ds.n_classes > net.dims[-1]:
        raise ValueError(f"labels must lie in [0, {net.dims[-1]})")
    labels = np.repeat(np.arange(len(sizes)), sizes)
    class_plan = _class_plan(net, labels)
    schedule, step = None, batches_per_epoch

    def problem(theta):
        nonlocal schedule, step
        net.flat[:] = theta
        if step == batches_per_epoch:
            schedule = next(epochs_iter, None)
            if schedule is None:
                return per_class_losses(net, X, ds.labels)
            if not (ds.labels[schedule] == labels).all():
                raise ValueError("a batch's rows are not grouped by class")
            step = 0
        rows = schedule[step]
        step += 1
        return _grouped_losses(net, X[rows], class_plan)

    return problem


def _imbalanced_method(method: str) -> str:
    """The registry method behind an imbalanced-study ``method``: ``edm``,
    ``mgda``, or ``sgd``, the class-weighted sum (``weighted_sum`` itself
    is not accepted)."""
    if method not in ("edm", "mgda", "sgd"):
        raise ValueError(f"method must be edm, mgda, or sgd, got {method!r}")
    return "weighted_sum" if method == "sgd" else method


def train_imbalanced(
    train_ds: Dataset,
    method: str,
    mu: float,
    lr: float,
    epochs: int,
    batches_per_epoch: int,
    seed: int,
    hidden: int = 100,
    fw: FwConfig = FwConfig(),
) -> tuple[MlpParams, RunResult]:
    """Train the two-layer classifier on per-class batch losses.

    ``method`` is ``edm``, ``mgda``, or ``sgd`` (gradient descent on the
    class-weighted total loss with minor-class weight ``mu``). Returns the
    trained network, whose ``flat`` is the run's ``final_point``, and the
    run, whose ``stationarity`` is taken on all of ``train_ds``.
    """
    run_method = _imbalanced_method(method)
    n_classes = train_ds.n_classes
    net = init_mlp([train_ds.n_features, hidden, n_classes], seed)
    problem = _epoch_batch_oracle(net, train_ds, batches_per_epoch, seed + 1, epochs)
    cfg = OptimizerConfig(
        method=run_method,
        learning_rate=lr,
        max_iters=epochs * batches_per_epoch,
        stop_tolerance=1e-300,
        weights=[1.0] + [float(mu)] * (n_classes - 1),
        fw=fw,
    )
    # The loop's last oracle call writes final_point into net.flat.
    result = _run_flat(problem, net.flat, cfg)
    return net, result


def _apply_kappa(losses, shared, head_grads, kappa: float):
    """Task 2's loss and gradients times ``kappa``, in fresh arrays (``1.0 * x`` is
    exact); ``head_grads`` is None or a pair of vectors. ``run_multitask``
    takes the same products in place."""
    if kappa == 1.0:
        return losses, shared, head_grads
    col = np.array([[1.0], [kappa]])
    if head_grads is not None:
        head_grads = (head_grads[0], head_grads[1] * kappa)
    return losses * col[:, 0], shared * col, head_grads


def run_multitask(
    model: TwoHeadMlp,
    data,
    cfg: OptimizerConfig,
    *,
    kappa: float = 1.0,
    batch_size: int = 64,
) -> tuple[TwoHeadMlp, RunResult]:
    """Train a two-head network: multi-objective trunk, per-task head steps.

    Per batch, both task losses are backpropagated in one stacked pass; the
    chosen method turns the two shared-block gradients into one trunk
    direction, and each head takes a plain gradient step on its own loss at
    the same learning rate. The labels of both tasks are checked, and the
    batches' backward pass planned, once per run; a bad label raises before
    any step. All gradients of a batch are computed before any parameter
    moves, and the steps update the parameter buffer of a copy of
    ``model`` in place, both heads with one update whatever their shapes;
    the caller's model is never changed. ``kappa`` rescales the second
    task's loss (and hence every gradient of it). It runs
    ``cfg.max_iters`` epochs. The trace holds one record per epoch with
    batch-averaged losses, direction norms, and weights; a zero-epoch run
    returns the model unchanged.

    Returns the trained model and the run record; ``final_point`` is the
    full flat parameter vector.

    The oracle contract: each batch's oracle call returns fresh losses, but
    its shared and head gradients are views into the plan's buffer, which
    the next batch's call overwrites. The loop scales task 2's loss and
    rows by ``kappa`` in place, makes the trunk direction and steps the
    heads (``plan.heads``, laid out like the model's head parameters)
    before that call, and keeps none of them.
    """
    if not (1 <= kappa < math.inf):
        raise ValueError(f"kappa must be >= 1 and finite, got {kappa}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if data.labels2 is None:
        raise ValueError("multitask training needs a dataset with two labels per sample")

    model = model.copy()
    head_params = model.flat[model.n_shared :]
    X, y1, y2 = data.features, data.labels, data.labels2
    plan = _two_task_plan(model, y1, y2)
    rng = np.random.default_rng(cfg.seed)
    s = cfg.learning_rate
    trace: list[IterationTrace] = []
    converged = False
    used = 0

    for epoch in range(cfg.max_iters):
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
            losses, shared, head_grads = _two_task_run(model, X.take(idx, axis=0), idx, plan)
            if kappa != 1.0:  # _apply_kappa's products, in the plan's buffer
                losses[1] *= kappa
                for row in (shared[1], head_grads[1]):
                    row *= kappa
            res, direction_norm = _step(cfg.method, cfg, shared, "loss or head gradient",
                                        (losses, plan.heads), "epoch", epoch)
            model.trunk.flat -= s * res.normalized_direction
            head_params -= s * plan.heads

            sum_losses += losses
            sum_dnorm += direction_norm
            if res.gamma is not None:
                sum_gamma += res.gamma
                gamma_count += 1
            sum_weights += res.weights
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
                step_norm=float(np.linalg.norm(model.flat - start_flat)),
            )
        )
        used = epoch + 1
        if mean_dnorm <= cfg.stop_tolerance:
            converged = True
            break

    losses, shared, _ = two_task_gradients(model, X, y1, y2)
    _, shared, _ = _apply_kappa(losses, shared, None, kappa)
    residual = _final_residual(shared, cfg, "epoch", used)
    return model, RunResult(model.flatten(), converged, used, trace, residual)
