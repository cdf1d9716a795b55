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
by row segment. A two-head model holds its trunk and both heads in one
buffer, and views two heads of equal shape as layers stacked over a task
axis; the two-task oracle backpropagates both tasks through them and the
shared trunk in one pass. Each stacked slice runs the same matrix product
as its own 2-D pass would, so the results are bitwise those of one pass
per task.

A backward pass is planned, then run: the plan is a gradient buffer and
its per-layer, per-segment write views, and a run fills that buffer. A
per-class plan adds the label picks of the cross-entropy and the class
segments. A training loop whose batches share one layout builds that plan
once and runs every step into the same buffer; one-off calls build a plan
per call and return fresh arrays. A two-task plan holds a whole run's
labels of both tasks, stacked and range-checked once, the flat offsets of
their picks, and one buffer laid out like the model's ``flat`` with the
trunk part twice: a (2, n_shared) block of trunk gradients, then both
heads' gradients in the order of ``flat``'s head part. Neither depends on
the number of rows in a batch, so a two-task loop runs every batch into
one plan, the short last batch of an epoch included, picks each batch's
labels by its row indices, and reads its gradients where the pass wrote
them, whatever the heads' shapes; the next batch overwrites them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exceptions import NumericalError

__all__ = [
    "MlpParams",
    "TwoHeadMlp",
    "init_mlp",
    "init_two_head_mlp",
    "forward",
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

    @classmethod
    def _over(cls, flat: np.ndarray, dims: list[int]) -> "MlpParams":
        """The network of ``dims`` whose ``flat`` is the float vector ``flat`` itself."""
        net = cls.__new__(cls)
        net.flat = flat
        net.layers, _ = _layer_views(flat, dims)
        return net


def _layer_views(flat: np.ndarray, dims: list[int]) -> tuple[list, int]:
    """``(W_j, b_j)`` views into ``flat`` and the number of entries they cover.

    A 2-D ``flat`` holds one network per row, and the views stack them as
    :func:`_forward_cached` runs them: W_j of shape (rows, d_out, d_in) and
    b_j of shape (rows, 1, d_out).
    """
    lead = flat.shape[:-1]
    layers = []
    offset = 0
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        W = flat[..., offset : offset + d_in * d_out].reshape(lead + (d_out, d_in))
        offset += d_in * d_out
        b = flat[..., offset : offset + d_out]
        layers.append((W, b[..., None, :] if lead else b))
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


def _batch(X, n_in: int) -> np.ndarray:
    """``X`` as a nonempty float (N, n_in) batch."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("expected a nonempty (N, m) batch")
    if X.shape[1] != n_in:
        raise ValueError(f"input of shape {X.shape} does not match input dim {n_in}")
    return X


def _backward_plan(layers, block: np.ndarray) -> list:
    """The write views of :func:`_backward_run` into the caller's ``block``.

    ``block`` is a C-contiguous float array of shape ``lead + (n_segments,
    n_params)`` for these ``layers``, ``lead`` being the leading stack axes
    of the pass's ``delta`` (empty for a 2-D pass). ``views[j][k]`` is the
    ``(weight, bias)`` pair of views into segment k of ``block`` that layer
    ``j``'s gradient goes to, the weight view shaped ``lead +
    W_j.shape[-2:]``. One plan serves any number of passes over the same
    layer shapes; each pass overwrites the block.
    """
    lead = block.shape[:-2]
    views = []
    start = 0
    for W, _ in layers:
        mid = start + W.shape[-2] * W.shape[-1]
        end = mid + W.shape[-2]
        views.append([
            (block[..., k, start:mid].reshape(lead + W.shape[-2:]), block[..., k, mid:end])
            for k in range(block.shape[-2])
        ])
        start = end
    return views


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
    :func:`_backward_plan` for these layers and a block with the leading
    axes of ``delta`` and ``len(segments)`` segments.
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
    # A max is exact in any order, so each row's max is taken down the few
    # columns of a transposed copy: one vector op per class.
    m = np.maximum.reduce(logits.T.copy(), axis=0)[:, None]
    np.subtract(logits, m, out=logits)
    np.exp(logits, out=logits)
    total = logits.sum(axis=1, keepdims=True)
    per_row = np.log(total[:, 0])
    per_row += m[:, 0]
    per_row -= picked
    logits /= total
    flat[picks] -= 1.0
    return per_row, logits


def per_class_losses(net: MlpParams, X, y) -> tuple[np.ndarray, np.ndarray]:
    """Summed cross-entropy and flat gradient for each class separately.

    The classes are the network's outputs: labels lie in ``[0, c)`` for
    ``c = net.dims[-1]``, and row i of each result is class i's. Loss i
    sums over the batch rows labeled i (an absent class contributes
    zero loss and a zero gradient); gradient i is the backpropagation of
    loss i alone. A stable sort of the rows by label makes each class one
    contiguous segment in its original row order; rows already grouped by
    class in increasing label order skip the sort. One forward pass and
    one backward pass of the whole batch then give every class's gradient
    as per-layer segment sums. Summing the per-class losses reproduces the
    whole-batch loss exactly, since the classes partition the batch. Each
    call plans its own pass, so the returned arrays are fresh.
    """
    X, y = _batch(X, net.dims[0]), np.asarray(y)
    if y.shape != (X.shape[0],):
        raise ValueError("labels must match the batch rows")
    c = net.dims[-1]
    if y.min() < 0 or y.max() >= c:
        raise ValueError(f"labels must lie in [0, {c})")

    if not (y[:-1] <= y[1:]).all():
        order = np.argsort(y, kind="stable")
        X, y = X[order], y[order]
    return _grouped_losses(net, X, _class_plan(net, y))


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


def _class_plan(net: MlpParams, y: np.ndarray) -> _ClassPlan:
    """The per-class plan for batches of ``net`` labeled ``y``, sorted in increasing order."""
    n_classes = net.dims[-1]
    bounds = np.searchsorted(y, np.arange(n_classes + 1))
    segments = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    grads = np.empty((n_classes, net.n_params))
    views = _backward_plan(net.layers, grads)
    return _ClassPlan(_label_picks(y, n_classes), segments, grads, views)


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


class TwoHeadMlp:
    """A shared trunk feeding two task heads, all in one parameter buffer.

    The trunk output passes through the same rectifier used between layers
    before it reaches either head, so the junction behaves exactly like an
    internal layer boundary. ``flat`` holds the trunk's parameters, then
    head 0's, then head 1's (``shared_slice``, ``head_slices``). ``trunk``,
    ``heads[k]`` and their layers are views into it, and so are the head
    layers of each group that one two-task pass runs: both heads stacked
    over a task axis when their ``dims`` are equal, else each on its own.
    Construction copies the given networks into a new buffer; ``trunk`` and
    ``heads`` are read-only, so a model with other networks is a new
    ``TwoHeadMlp``. ``flatten`` and ``copy`` alias nothing.
    """

    def __init__(self, trunk: MlpParams, heads: tuple[MlpParams, MlpParams]) -> None:
        out = trunk.dims[-1]
        for k, head in enumerate(heads):
            if head.dims[0] != out:
                raise ValueError(
                    f"head {k} input dim {head.dims[0]} does not match trunk output {out}"
                )
        nets = (trunk, *heads)
        self.flat = np.concatenate([net.flat for net in nets])
        ends = np.cumsum([net.n_params for net in nets]).tolist()
        self._trunk, *views = [
            MlpParams._over(self.flat[lo:hi], net.dims)
            for net, lo, hi in zip(nets, [0] + ends, ends)
        ]
        self._heads = tuple(views)
        # Each head group's tasks, slice of flat, and head layers stacked over those tasks.
        equal = heads[0].dims == heads[1].dims
        self._head_groups = []
        for tasks in [slice(0, 2)] if equal else [slice(0, 1), slice(1, 2)]:
            part = slice(ends[tasks.start], ends[tasks.stop])
            block = self.flat[part].reshape(tasks.stop - tasks.start, -1)
            layers, _ = _layer_views(block, heads[tasks.start].dims)
            self._head_groups.append((tasks, part, layers))

    trunk = property(lambda self: self._trunk)
    heads = property(lambda self: self._heads)

    @property
    def n_shared(self) -> int:
        return self._trunk.n_params

    @property
    def shared_slice(self) -> slice:
        return slice(0, self.n_shared)

    @property
    def head_slices(self) -> tuple[slice, slice]:
        n0 = self.n_shared
        n1 = n0 + self._heads[0].n_params
        return slice(n0, n1), slice(n1, self.flat.shape[0])

    def flatten(self) -> np.ndarray:
        return self.flat.copy()

    def copy(self) -> "TwoHeadMlp":
        return TwoHeadMlp(self._trunk, self._heads)


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

    The trunk runs forward once. When the heads have equal ``dims``, the
    model's stacked head layers run both heads with one matmul per layer,
    one cross-entropy call covers both tasks' rows, and one backward pass
    through the stacked head layers and the trunk (the junction is an
    internal layer boundary) gives both tasks' gradients; heads of unequal
    ``dims`` take that pass as two groups of one head. Every task's
    arithmetic is that of its own pass. The two shared gradients are the
    rows of a C-contiguous (2, n_shared) array, and the head gradients a
    pair of flat vectors over the matching head slices, whatever the
    heads' shapes. Each call plans its own pass, so the returned arrays
    are fresh (views into one new buffer).
    """
    X = _batch(X, model.trunk.dims[0])
    y1, y2 = np.asarray(y1), np.asarray(y2)
    for y in (y1, y2):
        if y.shape != (X.shape[0],):
            raise ValueError("each task needs one label per sample")
    return _two_task_run(model, X, np.arange(X.shape[0]), _two_task_plan(model, y1, y2))


class _TwoTaskPlan(NamedTuple):
    """What every two-task pass over one run's labels reuses.

    ``labels`` are both tasks' labels, a (2, n) ``intp`` array checked
    against each head's class count. Each of ``groups`` is a ``(tasks,
    n_classes, offsets, views)`` tuple: the task slice that one stacked
    pass covers (both tasks when the heads have equal ``dims``, else one
    task each), its heads' class count c, the flat offsets ``c * r`` of
    the rows r of its stacked (len(tasks) * n, c) logits, and the views
    (from :func:`_backward_plan`) that write its rows of ``shared`` and its
    part of ``heads``. The buffer is ``shared``, a C-contiguous (2,
    n_shared) block, then ``heads``, laid out like ``flat[n_shared:]``, whose
    halves ``rows`` are. No part depends on the number of rows in a batch.
    """

    labels: np.ndarray
    groups: list[tuple[slice, int, np.ndarray, list]]
    shared: np.ndarray
    heads: np.ndarray
    rows: tuple[np.ndarray, np.ndarray]


def _two_task_plan(model: TwoHeadMlp, y1: np.ndarray, y2: np.ndarray) -> _TwoTaskPlan:
    """The two-task plan for batches of ``model`` drawn from the rows labeled ``y1``, ``y2``."""
    labels = np.stack((y1, y2), dtype=np.intp, casting="same_kind")
    n = model.n_shared
    grads = np.empty(n + model.flat.shape[0])
    shared = grads[: 2 * n].reshape(2, n)
    # grads[n:] is as long as flat, and each head's gradient sits at that head's slice of it.
    tail = grads[n:]
    groups = []
    for tasks, part, head_layers in model._head_groups:
        c = model.heads[tasks.start].dims[-1]
        # A negative label wraps to a huge unsigned one, so one test checks both ends.
        if np.maximum.reduce(labels[tasks].view(np.uintp), axis=None) >= c:
            raise ValueError(f"task labels must lie in [0, {c})")
        t = tasks.stop - tasks.start
        views = _backward_plan(model.trunk.layers, shared[tasks, None])
        views += _backward_plan(head_layers, tail[part].reshape(t, 1, -1))
        groups.append((tasks, c, np.arange(0, t * labels.shape[1] * c, c), views))
    rows = tuple(tail[part] for part in model.head_slices)
    return _TwoTaskPlan(labels, groups, shared, tail[n:], rows)


def _two_task_run(
    model: TwoHeadMlp, X: np.ndarray, idx, plan: _TwoTaskPlan
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """:func:`two_task_gradients` without its checks, into ``plan``'s buffer.

    ``X`` is the float (N, m) batch of the rows ``idx`` (an index array) of
    the labels ``plan`` was built for. The losses are a fresh array; the
    shared and head gradients are ``plan.shared`` and ``plan.rows``
    themselves, which the next call with the same plan overwrites.
    """
    trunk_acts, h = _forward_cached(model.trunk.layers, X)
    np.maximum(h, 0.0, out=h)

    losses = np.empty(2)
    for (tasks, c, offsets, views), (_, _, head_layers) in zip(plan.groups, model._head_groups):
        head_acts, logits = _forward_cached(head_layers, h)
        if not np.isfinite(logits).all():
            first = np.isfinite(logits).all(axis=(1, 2)).argmin()
            raise NumericalError(
                f"non-finite activations in task {tasks.start + first + 1} forward pass"
            )
        # Each row's labeled entry in the (tasks * N, c) view of the stacked logits.
        picks = plan.labels[tasks].take(idx, axis=1).reshape(-1)
        picks += offsets[: picks.size]
        # _ce_rows turns the stacked logits into their gradient.
        per_row, _ = _ce_rows(logits.reshape(-1, c), picks)
        losses[tasks] = np.add.reduce(per_row.reshape(len(logits), -1), axis=1)
        _backward_run(
            model.trunk.layers + head_layers, trunk_acts + head_acts, logits, [slice(None)], views
        )
    return losses, plan.shared, plan.rows


def predict_two_task(model: TwoHeadMlp, X) -> tuple[np.ndarray, np.ndarray]:
    """Logit matrices of both heads for a batch of rows."""
    h = np.maximum(forward(model.trunk, X), 0.0)
    return forward(model.heads[0], h), forward(model.heads[1], h)
