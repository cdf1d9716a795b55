"""Dataset generation, CSV ingestion, stratified splitting, per-class batching.

The CSV layout is a header row, then feature columns plus one or two
integer label columns, comma-separated UTF-8 with unquoted numeric
fields. Floats are written with full round-trip precision so a saved
dataset reloads bitwise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .exceptions import DataError
from .neural import MlpParams, TwoHeadMlp, forward, predict_two_task

__all__ = [
    "Dataset",
    "BatchPlan",
    "synth_imbalanced",
    "synth_two_task",
    "load_csv",
    "save_csv",
    "stratified_split",
    "stratified_counts",
    "class_batches",
    "accuracy_per_class",
    "two_task_accuracy",
]


@dataclass
class Dataset:
    """Feature matrix with integer labels and optional second-task labels."""

    features: np.ndarray
    labels: np.ndarray
    labels2: np.ndarray | None = None
    feature_names: list[str] | None = None
    class_index_sets: tuple[np.ndarray, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be an (N, m) matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must have one entry per feature row")
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("labels must be nonnegative")
        if self.labels2 is not None:
            self.labels2 = np.asarray(self.labels2, dtype=np.int64)
            if self.labels2.shape != self.labels.shape:
                raise ValueError("second labels must match the first")
        self.class_index_sets = tuple(
            np.flatnonzero(self.labels == i) for i in range(self.n_classes)
        )

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            features=self.features[indices],
            labels=self.labels[indices],
            labels2=None if self.labels2 is None else self.labels2[indices],
            feature_names=self.feature_names,
        )


@dataclass(frozen=True)
class BatchPlan:
    """How many per-class batches each epoch draws, and the shuffle seed."""

    batches_per_epoch: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batches_per_epoch < 1:
            raise ValueError(f"batches_per_epoch must be >= 1, got {self.batches_per_epoch}")


def synth_imbalanced(
    n_major: int, n_minor: int, m: int, separation: float, seed: int
) -> Dataset:
    """Two Gaussian clouds at the given mean distance, labels 0 (major) / 1 (minor)."""
    if n_major < 1 or n_minor < 1:
        raise ValueError("both classes need at least one sample")
    if m < 1:
        raise ValueError("need at least one feature")
    if not math.isfinite(separation):
        raise ValueError(f"separation must be finite, got {separation}")
    rng = np.random.default_rng(seed)
    offset = separation / np.sqrt(m)
    major = rng.standard_normal((n_major, m))
    minor = rng.standard_normal((n_minor, m)) + offset
    features = np.vstack([major, minor])
    labels = np.concatenate([np.zeros(n_major, dtype=np.int64), np.ones(n_minor, dtype=np.int64)])
    return Dataset(features=features, labels=labels)


def synth_two_task(n: int, m: int, seed: int, separation: float = 4.0) -> Dataset:
    """Two independent binary cluster structures in disjoint feature halves.

    The first task's label shifts coordinates 0..m//2, the second task's
    label shifts the rest; the two labels are drawn independently.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if m < 2:
        raise ValueError("need at least two features to host two tasks")
    if not math.isfinite(separation):
        raise ValueError(f"separation must be finite, got {separation}")
    rng = np.random.default_rng(seed)
    half = m // 2
    y1 = rng.integers(0, 2, size=n)
    y2 = rng.integers(0, 2, size=n)
    X = rng.standard_normal((n, m))
    X[:, :half] += (2.0 * y1 - 1.0)[:, None] * (separation / 2.0) / np.sqrt(half)
    X[:, half:] += (2.0 * y2 - 1.0)[:, None] * (separation / 2.0) / np.sqrt(m - half)
    return Dataset(features=X, labels=y1, labels2=y2)


def _parse_label(cell: str, row: int, column: str) -> int:
    try:
        value = float(cell)
    except ValueError as exc:
        raise DataError(
            f"non-numeric label {cell!r} at data row {row}, column {column!r}"
        ) from exc
    if not value.is_integer():
        raise DataError(f"label {cell!r} at data row {row} is not an integer")
    label = int(value)
    if label < 0:
        raise DataError(f"label {label} at data row {row} is out of range (must be >= 0)")
    return label


def load_csv(
    path, label_column: str, second_label_column: str | None = None
) -> Dataset:
    """Read a dataset CSV: header row, feature columns, integer label column(s)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"empty file: {path}")
    header = rows[0]
    label_columns = [label_column] + ([second_label_column] if second_label_column else [])
    for name in label_columns:
        if name not in header:
            raise DataError(f"label column {name!r} not found in header {header}")
    feature_names = [name for name in header if name not in label_columns]
    col_index = {name: header.index(name) for name in header}

    features = np.empty((len(rows) - 1, len(feature_names)))
    labels = np.empty(len(rows) - 1, dtype=np.int64)
    labels2 = np.empty(len(rows) - 1, dtype=np.int64) if second_label_column else None
    for r, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise DataError(
                f"data row {r} has {len(row)} cells, header has {len(header)} columns"
            )
        for j, name in enumerate(feature_names):
            cell = row[col_index[name]]
            try:
                features[r - 1, j] = float(cell)
            except ValueError as exc:
                raise DataError(
                    f"non-numeric value {cell!r} at data row {r}, column {name!r}"
                ) from exc
        labels[r - 1] = _parse_label(row[col_index[label_column]], r, label_column)
        if labels2 is not None:
            labels2[r - 1] = _parse_label(
                row[col_index[second_label_column]], r, second_label_column
            )
    return Dataset(features=features, labels=labels, labels2=labels2, feature_names=feature_names)


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset with full-precision floats so a reload is bitwise equal."""
    path = Path(path)
    names = ds.feature_names or [f"f{j}" for j in range(ds.n_features)]
    header = names + ["label"] + (["label2"] if ds.labels2 is not None else [])
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n_samples):
            row = [repr(float(v)) for v in ds.features[i]] + [str(int(ds.labels[i]))]
            if ds.labels2 is not None:
                row.append(str(int(ds.labels2[i])))
            writer.writerow(row)


def stratified_counts(class_sizes: list[int], test_fraction: float) -> list[int]:
    """Per-class test counts: round to nearest, at least one sample per side."""
    counts = []
    for size in class_sizes:
        n_test = int(round(size * test_fraction))
        counts.append(min(max(n_test, 1), size - 1))
    return counts


def stratified_split(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Per-class proportional split preserving class ratios within one sample."""
    if not 0 < test_fraction < 1:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    for i, idx in enumerate(ds.class_index_sets):
        if idx.size < 2:
            raise DataError(f"class {i} has {idx.size} samples; need at least 2 to split")
    rng = np.random.default_rng(seed)
    test_counts = stratified_counts([idx.size for idx in ds.class_index_sets], test_fraction)
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for idx, n_test in zip(ds.class_index_sets, test_counts):
        perm = rng.permutation(idx)
        test_idx.append(perm[:n_test])
        train_idx.append(perm[n_test:])
    train = np.sort(np.concatenate(train_idx))
    test = np.sort(np.concatenate(test_idx))
    return ds.subset(train), ds.subset(test)


def class_batches(
    ds: Dataset, plan: BatchPlan, epochs: int = 1
) -> Iterator[list[tuple[np.ndarray, ...]]]:
    """Yield, per epoch, the planned number of per-class index-batch tuples.

    Each epoch reshuffles every class and slices it into
    ``batches_per_epoch`` equal batches of ``floor(|C_i| / batches_per_epoch)``
    samples; leftover tail samples are dropped for that epoch. Tuple k of
    an epoch holds batch k of every class.
    """
    sizes = [idx.size // plan.batches_per_epoch for idx in ds.class_index_sets]
    for i, size in enumerate(sizes):
        if size < 1:
            raise ValueError(
                f"class {i} has {ds.class_index_sets[i].size} samples, "
                f"fewer than {plan.batches_per_epoch} batches per epoch"
            )
    rng = np.random.default_rng(plan.seed)
    for _ in range(epochs):
        shuffled = [rng.permutation(idx) for idx in ds.class_index_sets]
        yield [
            tuple(
                shuffled[c][k * sizes[c] : (k + 1) * sizes[c]]
                for c in range(len(shuffled))
            )
            for k in range(plan.batches_per_epoch)
        ]


def accuracy_per_class(net: MlpParams, ds: Dataset) -> list[float | None]:
    """Fraction of correct argmax predictions per class; None for an empty class.

    Argmax ties resolve toward the smaller class index.
    """
    if net.dims[-1] < ds.n_classes:
        raise ValueError(
            f"net has {net.dims[-1]} outputs but the dataset has {ds.n_classes} classes"
        )
    predictions = np.argmax(forward(net, ds.features), axis=1)
    result: list[float | None] = []
    for idx in ds.class_index_sets:
        if idx.size == 0:
            result.append(None)
        else:
            result.append(float(np.mean(predictions[idx] == ds.labels[idx])))
    return result


def two_task_accuracy(model: TwoHeadMlp, ds: Dataset) -> list[float]:
    """Test accuracy of each head on its own task."""
    logits1, logits2 = predict_two_task(model, ds.features)
    return [
        float(np.mean(np.argmax(logits1, axis=1) == ds.labels)),
        float(np.mean(np.argmax(logits2, axis=1) == ds.labels2)),
    ]
