"""Small dense networks with hand-rolled backpropagation.

A network's parameters live in one flat buffer with a fixed layout: layer
by layer, weight entries row-major, then the bias. Each per-layer weight
matrix and bias is a view into that buffer, so writing the buffer moves
the layers. Every gradient is a flat vector in the same layout, which is
what the descent loops in :mod:`mograd.optimize` operate on.

Per-sample losses are cross-entropies and per-class or per-task losses are
*sums* (not means) over their samples, so a class with more samples in the
batch produces a proportionally larger gradient.

The per-class oracle takes one backward pass and splits its per-layer sums
by row segment. The two-task oracle stacks two heads of equal shape over a
leading task axis and backpropagates both tasks through them and the
shared trunk in one pass. Each stacked slice runs the same matrix product
as its own 2-D pass would, so the results are bitwise those of one pass
per task.

A backward pass is planned, then run: the plan is the gradient buffer and
its per-layer, per-segment write views, and a run fills that buffer. A
per-class plan adds the label picks of the cross-entropy and the class
segments. A training loop whose batches share one layout builds that plan
once and runs every step into the same buffer; one-off calls build a plan
per call and return fresh arrays. A two-task plan holds a whole run's
labels of both tasks, stacked and range-checked once, and the buffer of
each stacked pass. Neither depends on the number of rows in a batch, so a
two-task loop runs every batch into one plan, the short last batch of an
epoch included, and picks each batch's labels by its row indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exceptions import NumericalError

__all__ = [
    "MlpParams",
    "TwoHeadMlp",
    "ClassLossSpec",
    "init_mlp",
    "init_two_head_mlp",
    "forward",
    "cross_entropy",
    "per_class_losses",
    "two_task_gradients",
    "predict_two_task",
]


@dataclass
class MlpParams:
    """Feedforward parameters: rectifier between layers, linear last layer.

    ``layers[j]`` is ``(W_j, b_j)`` with W_j of shape (d_out, d_in). The
    parameters are copied into one buffer ``flat`` on construction, and
    every ``(W_j, b_j)`` is a view into it: per layer, the row-major weight
    entries followed by the bias. ``flatten``, ``copy`` and ``from_flat``
    return fresh copies that alias nothing, and round-trip bitwise.
    """

    layers: list[tuple[np.ndarray, np.ndarray]]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("need at least one layer")
        prev_out = None
        for j, (W, b) in enumerate(self.layers):
            if W.ndim != 2 or b.ndim != 1 or b.shape[0] != W.shape[0]:
                raise ValueError(f"layer {j}: weight {W.shape} and bias {b.shape} do not chain")
            if prev_out is not None and W.shape[1] != prev_out:
                raise ValueError(
                    f"layer {j}: input dim {W.shape[1]} does not match previous output {prev_out}"
                )
            prev_out = W.shape[0]
        self.flat = np.concatenate([part for W, b in self.layers for part in (W.ravel(), b)],
                                   dtype=float)
        self.layers, _ = _layer_views(self.flat, self.dims)

    @property
    def dims(self) -> list[int]:
        return [self.layers[0][0].shape[1]] + [W.shape[0] for W, _ in self.layers]

    @property
    def n_params(self) -> int:
        return self.flat.shape[0]

    def flatten(self) -> np.ndarray:
        return self.flat.copy()

    @classmethod
    def from_flat(cls, flat: np.ndarray, dims: list[int]) -> "MlpParams":
        flat = np.asarray(flat, dtype=float)
        layers, size = _layer_views(flat, dims)
        if size != flat.shape[0]:
            raise ValueError(f"flat vector of length {flat.shape[0]} does not match dims {dims}")
        return cls(layers)

    def copy(self) -> "MlpParams":
        return MlpParams(self.layers)


def _layer_views(flat: np.ndarray, dims: list[int]) -> tuple[list, int]:
    """``(W_j, b_j)`` views into ``flat`` and the number of entries they cover."""
    layers = []
    offset = 0
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        W = flat[offset : offset + d_in * d_out].reshape(d_out, d_in)
        offset += d_in * d_out
        layers.append((W, flat[offset : offset + d_out]))
        offset += d_out
    return layers, offset


def init_mlp(dims: list[int], rng: np.random.Generator | int) -> MlpParams:
    """Seeded initialization: weights uniform in +-sqrt(6/(fan_in+fan_out)), biases 0."""
    if min(dims) < 1:
        raise ValueError(f"layer width must be >= 1, got {min(dims)} in dims {list(dims)}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (d_in + d_out))
        layers.append((rng.uniform(-bound, bound, size=(d_out, d_in)), np.zeros(d_out)))
    return MlpParams(layers)


def _forward_cached(layers, X: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """All layer inputs plus the final logits, for reuse by backprop.

    ``layers`` are ``(W, b)`` pairs, each 2-D as in :class:`MlpParams` or
    stacked over a leading axis: W of shape (k, d_out, d_in) and b of shape
    (k, 1, d_out) run k networks on the same rows at once, one matmul per
    layer, and every output then carries that leading axis. Each layer's
    bias and rectifier act in place on its fresh product.
    """
    activations = [X]
    a = X
    for W, b in layers[:-1]:
        a = a @ W.swapaxes(-1, -2)
        a += b
        np.maximum(a, 0.0, out=a)
        activations.append(a)
    W, b = layers[-1]
    logits = a @ W.swapaxes(-1, -2)
    logits += b
    return activations, logits


def forward(net: MlpParams, x) -> np.ndarray:
    """Logits for a single feature vector or a batch of rows."""
    x = np.asarray(x, dtype=float)
    X = x[None, :] if x.ndim == 1 else x
    if X.ndim != 2 or X.shape[1] != net.dims[0]:
        raise ValueError(f"input of shape {x.shape} does not match input dim {net.dims[0]}")
    _, logits = _forward_cached(net.layers, X)
    return logits[0] if x.ndim == 1 else logits


def _backward_plan(layers, lead: tuple[int, ...], n_segments: int) -> tuple[np.ndarray, list]:
    """A gradient buffer for :func:`_backward_run` and its write views.

    The buffer has shape ``lead + (n_segments, n_params)``, ``lead`` being
    the leading stack axes of the pass's ``delta`` (empty for a 2-D pass).
    ``views[j][k]`` is the ``(weight, bias)`` pair of views into row k of
    the buffer that layer ``j``'s gradient goes to, the weight view shaped
    ``lead + W_j.shape[-2:]``. One plan serves any number of passes over
    the same layer shapes; each pass overwrites the buffer.
    """
    n_params = sum(W.shape[-2] * (W.shape[-1] + 1) for W, _ in layers)
    grads = np.empty(lead + (n_segments, n_params))
    views = []
    start = 0
    for W, _ in layers:
        mid = start + W.shape[-2] * W.shape[-1]
        end = mid + W.shape[-2]
        views.append([
            (grads[..., k, start:mid].reshape(lead + W.shape[-2:]), grads[..., k, mid:end])
            for k in range(n_segments)
        ])
        start = end
    return grads, views


def _backward_run(layers, activations: list[np.ndarray], delta: np.ndarray, segments,
                  views) -> None:
    """Backpropagate ``delta`` and write each segment's gradient into ``views``.

    ``delta`` is the loss gradient at the logits, one row per sample, and
    ``activations[j]`` is the input of ``layers[j]``. Rows backpropagate
    independently, so one pass gives every row's delta at every layer; row
    k of the buffer becomes the gradient of the rows ``segments[k]`` alone,
    the per-layer segment sums ``delta[s].T @ act[s]`` and ``delta[s].sum(0)``.

    Stacked layers and activations, as :func:`_forward_cached` takes and
    gives them, and a ``delta`` stacked the same way carry that leading
    axis into the buffer, shape (k, len(segments), n_params); 2-D layers
    and activations broadcast over it, so networks that share them share
    their pass through those layers. ``views`` comes from
    :func:`_backward_plan` for these layers, the leading axes of ``delta``
    and ``len(segments)`` segments.
    """
    for j in range(len(layers) - 1, -1, -1):
        W, _ = layers[j]
        act = activations[j]
        for s, (w_out, b_out) in zip(segments, views[j]):
            seg = delta[..., s, :]
            np.matmul(seg.swapaxes(-1, -2), act[..., s, :], out=w_out)
            np.add.reduce(seg, axis=-2, out=b_out)
        if j > 0:
            delta = delta @ W
            delta *= act > 0


def cross_entropy(logits, label: int) -> float:
    """Negative log-softmax of the labeled class, stable for huge logits."""
    z = np.asarray(logits, dtype=float)
    if z.ndim != 1:
        raise ValueError("expected a single logits vector")
    if not 0 <= label < z.shape[0]:
        raise ValueError(f"label {label} out of range for {z.shape[0]} classes")
    m = z.max()
    return float(m + np.log(np.exp(z - m).sum()) - z[label])


def _label_picks(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Flat indices of each row's labeled entry in a C-contiguous (N, n_classes) array."""
    picks = np.arange(0, labels.shape[0] * n_classes, n_classes)
    picks += labels.astype(np.intp, casting="same_kind", copy=False)
    return picks


def _ce_rows(logits: np.ndarray, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy of each row and its gradient (softmax minus one-hot).

    Works in place: the C-contiguous ``logits`` buffer becomes the gradient.
    ``picks`` are the labels as :func:`_label_picks` gives them for the width
    of ``logits``. A label outside ``[0, c)`` would pick another row's
    entry; the callers check the range.
    """
    flat = logits.reshape(-1)
    picked = flat[picks]
    m = logits.max(axis=1, keepdims=True)
    np.subtract(logits, m, out=logits)
    np.exp(logits, out=logits)
    total = logits.sum(axis=1, keepdims=True)
    per_row = np.log(total[:, 0])
    per_row += m[:, 0]
    per_row -= picked
    logits /= total
    flat[picks] -= 1.0
    return per_row, logits


@dataclass(frozen=True)
class ClassLossSpec:
    """Per-class loss weights."""

    class_weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.class_weights, dtype=float)
        if w.ndim != 1 or w.shape[0] < 1:
            raise ValueError("class_weights must be a nonempty vector")
        if not np.isfinite(w).all() or np.any(w < 0):
            raise ValueError("class weights must be finite and nonnegative")
        object.__setattr__(self, "class_weights", w)

    @property
    def n_classes(self) -> int:
        return self.class_weights.shape[0]


def per_class_losses(
    net: MlpParams, X, y, spec: ClassLossSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Summed cross-entropy and flat gradient for each class separately.

    Loss i sums over the batch rows labeled i (an absent class contributes
    zero loss and a zero gradient); gradient i is the backpropagation of
    loss i alone. A stable sort of the rows by label makes each class one
    contiguous segment in its original row order; rows already grouped by
    class in increasing label order skip the sort. One forward pass and
    one backward pass of the whole batch then give every class's gradient
    as per-layer segment sums. Summing the per-class losses reproduces the
    whole-batch loss exactly, since the classes partition the batch. Each
    call plans its own pass, so the returned arrays are fresh.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("expected a nonempty (N, m) batch")
    if y.shape != (X.shape[0],):
        raise ValueError("labels must match the batch rows")
    c = spec.n_classes
    if y.min() < 0 or y.max() >= c:
        raise ValueError(f"labels must lie in [0, {c})")

    if not (y[:-1] <= y[1:]).all():
        order = np.argsort(y, kind="stable")
        X, y = X[order], y[order]
    return _grouped_losses(net, X, _class_plan(net, y, c))


class _ClassPlan(NamedTuple):
    """What every per-class pass over one batch layout reuses.

    ``picks`` are the batch labels as :func:`_label_picks` gives them for
    the network's output width, ``segments[i]`` the rows of class i, and
    ``grads`` the (len(segments), n_params) gradient buffer that ``views``
    (from :func:`_backward_plan`) write into.
    """

    picks: np.ndarray
    segments: list[slice]
    grads: np.ndarray
    views: list


def _class_plan(net: MlpParams, y: np.ndarray, n_classes: int) -> _ClassPlan:
    """The per-class plan for batches of ``net`` labeled ``y``, sorted in increasing order."""
    bounds = np.searchsorted(y, np.arange(n_classes + 1))
    segments = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    grads, views = _backward_plan(net.layers, (), n_classes)
    return _ClassPlan(_label_picks(y, net.dims[-1]), segments, grads, views)


def _grouped_losses(net: MlpParams, X: np.ndarray, plan: _ClassPlan) -> tuple[np.ndarray, np.ndarray]:
    """:func:`per_class_losses` without its checks, into ``plan``'s buffer.

    ``X`` is a float (N, m) batch whose rows are grouped by class as
    ``plan`` was built for. The losses are a fresh array; the gradients are
    ``plan.grads``, which the next call with the same plan overwrites.
    """
    activations, logits = _forward_cached(net.layers, X)
    if not np.isfinite(logits).all():
        raise NumericalError("non-finite activations in forward pass")
    picks, segments, grads, views = plan
    per_row, dlogits = _ce_rows(logits, picks)
    losses = np.array([per_row[s].sum() for s in segments])
    _backward_run(net.layers, activations, dlogits, segments, views)
    return losses, grads


@dataclass
class TwoHeadMlp:
    """A shared trunk feeding two task heads.

    The trunk output passes through the same rectifier used between layers
    before it reaches either head, so the junction behaves exactly like an
    internal layer boundary. The flat-vector view is trunk parameters, then
    head 1, then head 2; ``shared_slice`` marks the trunk block.
    """

    trunk: MlpParams
    heads: tuple[MlpParams, MlpParams]

    def __post_init__(self) -> None:
        out = self.trunk.dims[-1]
        for k, head in enumerate(self.heads):
            if head.dims[0] != out:
                raise ValueError(
                    f"head {k} input dim {head.dims[0]} does not match trunk output {out}"
                )

    @property
    def n_shared(self) -> int:
        return self.trunk.n_params

    @property
    def shared_slice(self) -> slice:
        return slice(0, self.n_shared)

    @property
    def head_slices(self) -> tuple[slice, slice]:
        n0 = self.n_shared
        n1 = n0 + self.heads[0].n_params
        return slice(n0, n1), slice(n1, n1 + self.heads[1].n_params)

    def flatten(self) -> np.ndarray:
        return np.concatenate(
            [self.trunk.flatten(), self.heads[0].flatten(), self.heads[1].flatten()]
        )

    def copy(self) -> "TwoHeadMlp":
        return TwoHeadMlp(self.trunk.copy(), (self.heads[0].copy(), self.heads[1].copy()))


def init_two_head_mlp(
    input_dim: int,
    trunk_hidden: tuple[int, ...] = (32, 16),
    head_classes: tuple[int, int] = (2, 2),
    seed: int = 0,
) -> TwoHeadMlp:
    rng = np.random.default_rng(seed)
    trunk = init_mlp([input_dim, *trunk_hidden], rng)
    rep = trunk_hidden[-1]
    heads = (init_mlp([rep, head_classes[0]], rng), init_mlp([rep, head_classes[1]], rng))
    return TwoHeadMlp(trunk, heads)


def two_task_gradients(
    model: TwoHeadMlp, X, y1, y2
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Both task losses with their shared-block and head-block gradients.

    The trunk runs forward once. When the heads have equal ``dims``, each
    head layer is stacked over a leading task axis, so one matmul per
    layer runs both heads, one cross-entropy call covers both tasks' rows,
    and one backward pass through the stacked head layers and the trunk
    (the junction is an internal layer boundary) gives both tasks'
    gradients; heads of unequal ``dims`` take that pass as two groups of
    one head. Every task's arithmetic is that of its own pass. The two
    shared gradients are the rows of a C-contiguous (2, n_shared) array,
    and each head gradient is a flat vector over the matching head slice.
    Each call plans its own pass, so the returned arrays are fresh.
    """
    X = np.asarray(X, dtype=float)
    y1, y2 = np.asarray(y1), np.asarray(y2)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("expected a nonempty (N, m) batch")
    for y in (y1, y2):
        if y.shape != (X.shape[0],):
            raise ValueError("each task needs one label per sample")
    return _two_task_run(model, X, np.arange(X.shape[0]), _two_task_plan(model, y1, y2))


class _TwoTaskPlan(NamedTuple):
    """What every two-task pass over one run's labels reuses.

    ``labels`` are both tasks' labels, a (2, n) ``intp`` array checked
    against each head's class count. Each of ``groups`` is a ``(tasks,
    n_classes, grads, views)`` tuple: the task slice that one stacked pass
    covers (both tasks when the heads have equal ``dims``, else one task
    each), its heads' class count, and its (len(tasks), 1, n_params)
    gradient buffer over trunk and heads with the ``views`` (from
    :func:`_backward_plan`) that write into it. No part depends on the
    number of rows in a batch.
    """

    labels: np.ndarray
    groups: list[tuple[slice, int, np.ndarray, list]]


def _two_task_plan(model: TwoHeadMlp, y1: np.ndarray, y2: np.ndarray) -> _TwoTaskPlan:
    """The two-task plan for batches of ``model`` drawn from the rows labeled ``y1``, ``y2``."""
    labels = np.stack((y1, y2), dtype=np.intp, casting="same_kind")
    equal = model.heads[0].dims == model.heads[1].dims
    groups = []
    for tasks in [slice(0, 2)] if equal else [slice(0, 1), slice(1, 2)]:
        c = model.heads[tasks.start].dims[-1]
        # A negative label wraps to a huge unsigned one, so one test checks both ends.
        if np.maximum.reduce(labels[tasks].view(np.uintp), axis=None) >= c:
            raise ValueError(f"task labels must lie in [0, {c})")
        layers = model.trunk.layers + model.heads[tasks.start].layers
        grads, views = _backward_plan(layers, (tasks.stop - tasks.start,), 1)
        groups.append((tasks, c, grads, views))
    return _TwoTaskPlan(labels, groups)


def _two_task_run(
    model: TwoHeadMlp, X: np.ndarray, idx, plan: _TwoTaskPlan
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """:func:`two_task_gradients` without its checks, into ``plan``'s buffers.

    ``X`` is the float (N, m) batch of the rows ``idx`` (an index array) of
    the labels ``plan`` was built for. The losses and the shared
    gradients are fresh arrays; the head gradients are views into the
    plan's buffers, which the next call with the same plan overwrites.
    """
    trunk_acts, h = _forward_cached(model.trunk.layers, X)
    np.maximum(h, 0.0, out=h)

    n = model.n_shared
    losses = np.empty(2)
    shared = np.empty((2, n))
    head_grads = [None, None]
    for tasks, c, grads, views in plan.groups:
        heads = model.heads[tasks]
        head_layers = [
            (np.array([W for W, _ in layer]), np.array([b for _, b in layer])[:, None, :])
            for layer in zip(*(head.layers for head in heads))
        ]
        head_acts, logits = _forward_cached(head_layers, h)
        if not np.isfinite(logits).all():
            first = np.isfinite(logits).all(axis=(1, 2)).argmin()
            raise NumericalError(
                f"non-finite activations in task {tasks.start + first + 1} forward pass"
            )
        picks = _label_picks(plan.labels[tasks].take(idx, axis=1).reshape(-1), c)
        # The (tasks * N, c) view: _ce_rows turns the stacked logits into their gradient.
        per_row, _ = _ce_rows(logits.reshape(-1, c), picks)
        losses[tasks] = np.add.reduce(per_row.reshape(len(heads), -1), axis=1)
        _backward_run(
            model.trunk.layers + head_layers, trunk_acts + head_acts, logits, [slice(None)], views
        )
        shared[tasks] = grads[:, 0, :n]
        head_grads[tasks] = grads[:, 0, n:]
    return losses, shared, tuple(head_grads)


def predict_two_task(model: TwoHeadMlp, X) -> tuple[np.ndarray, np.ndarray]:
    """Logit matrices of both heads for a batch of rows."""
    X = np.asarray(X, dtype=float)
    _, trunk_out = _forward_cached(model.trunk.layers, X)
    h = np.maximum(trunk_out, 0.0)
    return forward(model.heads[0], h), forward(model.heads[1], h)
