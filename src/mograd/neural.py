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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _backward(layers, activations: list[np.ndarray], delta: np.ndarray, segments) -> np.ndarray:
    """Flat parameter gradients of row segments, from one backward pass.

    ``delta`` is the loss gradient at the logits, one row per sample, and
    ``activations[j]`` is the input of ``layers[j]``. Rows backpropagate
    independently, so one pass gives every row's delta at every layer; row
    k of the result is the gradient of the rows ``segments[k]`` alone, the
    per-layer segment sums ``delta[s].T @ act[s]`` and ``delta[s].sum(0)``.

    Stacked layers and activations, as :func:`_forward_cached` takes and
    gives them, and a ``delta`` stacked the same way carry that leading
    axis into the result, shape (k, len(segments), n_params); 2-D layers
    and activations broadcast over it, so networks that share them share
    their pass through those layers.
    """
    n_params = sum(W.shape[-2] * (W.shape[-1] + 1) for W, _ in layers)
    grads = np.empty(delta.shape[:-2] + (len(segments), n_params))
    end = n_params
    for j in range(len(layers) - 1, -1, -1):
        W, _ = layers[j]
        mid = end - W.shape[-2]
        start = mid - W.shape[-2] * W.shape[-1]
        act = activations[j]
        for k, s in enumerate(segments):
            seg = delta[..., s, :]
            out = grads[..., k, start:mid].reshape(grads.shape[:-2] + W.shape[-2:])
            np.matmul(seg.swapaxes(-1, -2), act[..., s, :], out=out)
            np.add.reduce(seg, axis=-2, out=grads[..., k, mid:end])
        if j > 0:
            delta = delta @ W
            delta *= act > 0
        end = start
    return grads


def cross_entropy(logits, label: int) -> float:
    """Negative log-softmax of the labeled class, stable for huge logits."""
    z = np.asarray(logits, dtype=float)
    if z.ndim != 1:
        raise ValueError("expected a single logits vector")
    if not 0 <= label < z.shape[0]:
        raise ValueError(f"label {label} out of range for {z.shape[0]} classes")
    m = z.max()
    return float(m + np.log(np.exp(z - m).sum()) - z[label])


def _ce_rows(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy of each row and its gradient (softmax minus one-hot).

    Works in place: the C-contiguous ``logits`` buffer becomes the gradient.
    Labels are picked by flat index, so a label outside ``[0, c)`` would read
    another row's entry; the callers check the range.
    """
    n, c = logits.shape
    flat = logits.reshape(-1)
    picks = np.arange(0, n * c, c)
    picks += labels.astype(np.intp, casting="same_kind", copy=False)
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
    whole-batch loss exactly, since the classes partition the batch.
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
    return _grouped_losses(net, X, y, _class_segments(y, c))


def _class_segments(y: np.ndarray, n_classes: int) -> list[slice]:
    """Row slice of each class in labels ``y`` sorted in increasing order."""
    bounds = np.searchsorted(y, np.arange(n_classes + 1))
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _grouped_losses(
    net: MlpParams, X: np.ndarray, y: np.ndarray, segments: list[slice]
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`per_class_losses` without its checks.

    ``X`` is a float (N, m) batch whose rows are grouped by class, ``y``
    its labels, and ``segments[i]`` the rows of class i.
    """
    activations, logits = _forward_cached(net.layers, X)
    if not np.isfinite(logits).all():
        raise NumericalError("non-finite activations in forward pass")
    per_row, dlogits = _ce_rows(logits, y)
    losses = np.array([per_row[s].sum() for s in segments])
    return losses, _backward(net.layers, activations, dlogits, segments)


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
    """
    X = np.asarray(X, dtype=float)
    labels = (np.asarray(y1), np.asarray(y2))
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("expected a nonempty (N, m) batch")
    for y, head in zip(labels, model.heads):
        if y.shape != (X.shape[0],):
            raise ValueError("each task needs one label per sample")
        c = head.dims[-1]
        if y.min() < 0 or y.max() >= c:
            raise ValueError(f"task labels must lie in [0, {c})")

    trunk_acts, h = _forward_cached(model.trunk.layers, X)
    np.maximum(h, 0.0, out=h)

    n = model.n_shared
    losses = np.empty(2)
    shared = np.empty((2, n))
    head_grads = [None, None]
    equal = model.heads[0].dims == model.heads[1].dims
    for tasks in [slice(0, 2)] if equal else [slice(0, 1), slice(1, 2)]:
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
        # The (tasks * N, c) view: _ce_rows turns the stacked logits into their gradient.
        y = np.concatenate(labels[tasks], dtype=np.intp, casting="same_kind")
        per_row, _ = _ce_rows(logits.reshape(-1, logits.shape[-1]), y)
        losses[tasks] = np.add.reduce(per_row.reshape(len(heads), -1), axis=1)
        grads = _backward(
            model.trunk.layers + head_layers, trunk_acts + head_acts, logits, [slice(None)]
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
