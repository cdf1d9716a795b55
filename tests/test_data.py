import numpy as np
import pytest

from mograd.data import (
    Dataset,
    _stratified_counts,
    accuracy_per_class,
    class_batches,
    load_csv,
    save_csv,
    stratified_split,
    synth_imbalanced,
    synth_two_task,
    two_task_accuracy,
)
from mograd.exceptions import DataError
from mograd.neural import MlpParams, init_two_head_mlp


def linear_probe_per_class_accuracy(X, y, n_classes):
    """Least-squares one-hot probe; independent sanity oracle for separability."""
    A = np.hstack([X, np.ones((X.shape[0], 1))])
    Y = np.eye(n_classes)[y]
    W = np.linalg.lstsq(A, Y, rcond=None)[0]
    preds = np.argmax(A @ W, axis=1)
    return [float(np.mean(preds[y == i] == i)) for i in range(n_classes)]


class TestSynthImbalanced:
    def test_minor_fraction_by_construction(self):
        ds = synth_imbalanced(1000, 50, 4, 3.0, seed=0)
        assert ds.n_samples == 1050
        assert ds.class_index_sets[1].size == 50
        assert ds.class_index_sets[1].size / ds.n_samples == pytest.approx(50 / 1050)

    def test_well_separated_clouds_are_linearly_separable(self):
        ds = synth_imbalanced(1000, 50, 2, 10.0, seed=1)
        acc = linear_probe_per_class_accuracy(ds.features, ds.labels, 2)
        assert acc[0] >= 0.99 and acc[1] >= 0.99

    def test_deterministic_under_seed(self):
        a = synth_imbalanced(100, 10, 3, 2.0, seed=42)
        b = synth_imbalanced(100, 10, 3, 2.0, seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            synth_imbalanced(0, 10, 2, 1.0, seed=0)

    @pytest.mark.parametrize("separation", [np.nan, np.inf, -np.inf])
    def test_non_finite_separation(self, separation):
        with pytest.raises(ValueError, match="separation must be finite"):
            synth_imbalanced(10, 5, 2, separation, seed=0)


class TestSynthTwoTask:
    def test_per_task_linear_separability(self):
        ds = synth_two_task(2000, 8, seed=0)
        acc1 = linear_probe_per_class_accuracy(ds.features, ds.labels, 2)
        acc2 = linear_probe_per_class_accuracy(ds.features, ds.labels2, 2)
        assert min(acc1) >= 0.95
        assert min(acc2) >= 0.95

    def test_labels_independent_across_tasks(self):
        ds = synth_two_task(2000, 8, seed=1)
        corr = np.corrcoef(ds.labels, ds.labels2)[0, 1]
        assert abs(corr) <= 0.1

    def test_deterministic(self):
        a = synth_two_task(50, 4, seed=9)
        b = synth_two_task(50, 4, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels2, b.labels2)

    def test_too_few_features(self):
        with pytest.raises(ValueError):
            synth_two_task(10, 1, seed=0)


class TestCsv:
    def test_toy_round_trip(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("f0,f1,label\n1.5,2.5,0\n-0.25,0.5,1\n3.0,4.0,0\n")
        ds = load_csv(path, label_column="label")
        assert ds.n_samples == 3
        assert ds.n_features == 2
        assert np.array_equal(ds.labels, [0, 1, 0])
        assert ds.features[1, 0] == -0.25

    def test_thirty_feature_shape(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = Dataset(features=rng.standard_normal((5, 30)), labels=np.array([0, 1, 0, 1, 0]))
        path = tmp_path / "wide.csv"
        save_csv(ds, path)
        loaded = load_csv(path, label_column="label")
        assert loaded.n_features == 30

    def test_malformed_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\nabc,3.0,1\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path, label_column="label")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b,label\n1.0,2.0,0\n3.0,{cell},1\n")
        with pytest.raises(DataError, match=f"non-finite value '{cell}' at data row 2, column 'b'"):
            load_csv(path, label_column="label")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "nope.csv", label_column="label")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(path, label_column="label")

    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = synth_imbalanced(40, 8, 5, 2.0, seed=4)
        path = tmp_path / "rt.csv"
        save_csv(ds, path)
        loaded = load_csv(path, label_column="label")
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_two_label_round_trip(self, tmp_path):
        ds = synth_two_task(25, 4, seed=5)
        path = tmp_path / "two.csv"
        save_csv(ds, path)
        loaded = load_csv(path, label_column="label", second_label_column="label2")
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels2, ds.labels2)

    def test_noninteger_label_rejected(self, tmp_path):
        path = tmp_path / "frac.csv"
        path.write_text("f0,label\n1.0,0.5\n2.0,1\n")
        with pytest.raises(DataError):
            load_csv(path, label_column="label")

    def test_label_column_position_is_free(self, tmp_path):
        path = tmp_path / "first.csv"
        path.write_text("label,f0,f1\n1,0.5,2.5\n0,1.5,3.5\n")
        ds = load_csv(path, label_column="label")
        assert np.array_equal(ds.labels, [1, 0])
        assert np.array_equal(ds.features, [[0.5, 2.5], [1.5, 3.5]])
        assert ds.feature_names == ["f0", "f1"]


class TestStratifiedSplit:
    def test_imbalanced_counts(self):
        ds = synth_imbalanced(1000, 50, 3, 2.0, seed=6)
        train, test = stratified_split(ds, 0.2, seed=0)
        assert test.class_index_sets[0].size == 200
        assert test.class_index_sets[1].size == 10
        assert train.n_samples == 840

    def test_balanced_even_split(self):
        ds = synth_imbalanced(100, 100, 2, 2.0, seed=7)
        train, test = stratified_split(ds, 0.5, seed=1)
        assert test.class_index_sets[0].size == 50
        assert test.class_index_sets[1].size == 50

    def test_rounding_rule_reproduces_production_scale_counts(self):
        # 284315 + 492 samples at the fraction implied by a 227845/56962 split
        counts = _stratified_counts([284315, 492], 56962 / 284807)
        assert sum(counts) == 56962
        assert (284315 + 492) - sum(counts) == 227845

    def test_ratio_preserved_within_one_sample(self):
        ds = synth_imbalanced(997, 53, 2, 2.0, seed=8)
        train, test = stratified_split(ds, 0.25, seed=2)
        full_fraction = 53 / 1050
        train_fraction = train.class_index_sets[1].size / train.n_samples
        assert abs(train_fraction - full_fraction) <= 1.0 / train.n_samples

    def test_class_too_small(self):
        ds = Dataset(features=np.zeros((3, 2)), labels=np.array([0, 0, 1]))
        with pytest.raises(DataError):
            stratified_split(ds, 0.5, seed=0)

    def test_split_is_disjoint_and_complete(self):
        ds = synth_imbalanced(80, 40, 2, 2.0, seed=9)
        train, test = stratified_split(ds, 0.3, seed=3)
        assert train.n_samples + test.n_samples == ds.n_samples
        combined = np.vstack([train.features, test.features])
        assert np.array_equal(
            np.sort(combined.ravel()), np.sort(ds.features.ravel())
        )


def tuple_class_batches(ds, batches_per_epoch, seed, epochs):
    """The per-class schedule in its earlier format: per epoch, a list of
    ``batches_per_epoch`` tuples holding batch k of every class."""
    sizes = [idx.size // batches_per_epoch for idx in ds.class_index_sets]
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        shuffled = [rng.permutation(idx) for idx in ds.class_index_sets]
        yield [
            tuple(shuffled[c][k * sizes[c] : (k + 1) * sizes[c]] for c in range(len(shuffled)))
            for k in range(batches_per_epoch)
        ]


class TestClassBatches:
    def test_floor_division_batch_sizes(self):
        ds = synth_imbalanced(400, 40, 2, 2.0, seed=10)
        (epoch,) = list(class_batches(ds, 40, 0, 1))
        assert epoch.shape == (40, 11)
        for batch in epoch:
            assert np.array_equal(ds.labels[batch], [0] * 10 + [1])

    def test_no_duplicates_within_epoch(self):
        ds = synth_imbalanced(100, 50, 2, 2.0, seed=11)
        (epoch,) = list(class_batches(ds, 10, 1, 1))
        for c in range(2):
            seen = epoch[ds.labels[epoch] == c]
            assert seen.size == np.unique(seen).size
            assert set(seen) <= set(ds.class_index_sets[c])

    def test_epochs_reshuffle_but_reruns_reproduce(self):
        ds = synth_imbalanced(60, 30, 2, 2.0, seed=12)
        run1 = list(class_batches(ds, 3, 2, 2))
        run2 = list(class_batches(ds, 3, 2, 2))
        assert not np.array_equal(run1[0], run1[1])
        for first, second in zip(run1, run2, strict=True):
            assert np.array_equal(first, second)

    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_rows_are_the_concatenated_tuples_bitwise(self, c):
        rng = np.random.default_rng(c)
        labels = np.repeat(np.arange(c), [23, 9, 14, 7, 11][:c])
        rng.shuffle(labels)
        ds = Dataset(rng.standard_normal((labels.size, 2)), labels)
        epochs = list(class_batches(ds, 3, 40 + c, 3))
        old = list(tuple_class_batches(ds, 3, 40 + c, 3))
        assert len(epochs) == len(old) == 3
        for epoch, old_epoch in zip(epochs, old):
            stacked = np.array([np.concatenate(batch) for batch in old_epoch])
            assert (epoch.shape, epoch.dtype) == (stacked.shape, stacked.dtype)
            assert epoch.tobytes() == stacked.tobytes()

    def test_class_smaller_than_batch_count_rejected(self):
        ds = synth_imbalanced(100, 39, 2, 2.0, seed=13)
        with pytest.raises(ValueError, match="fewer than 40 batches per epoch"):
            class_batches(ds, 40, 0, 1)

    def test_batch_count_below_one_rejected(self):
        ds = synth_imbalanced(100, 39, 2, 2.0, seed=13)
        with pytest.raises(ValueError, match="batches_per_epoch must be >= 1, got 0"):
            class_batches(ds, 0, 0, 1)


class TestAccuracyPerClass:
    def test_perfect_classifier(self):
        # single linear layer routing feature sign to the right logit
        net = MlpParams([(np.array([[-1.0], [1.0]]), np.zeros(2))])
        ds = Dataset(
            features=np.array([[-2.0], [-1.0], [1.0], [2.0]]),
            labels=np.array([0, 0, 1, 1]),
        )
        assert accuracy_per_class(net, ds) == [1.0, 1.0]

    def test_constant_major_predictor(self):
        net = MlpParams([(np.zeros((2, 1)), np.array([1.0, 0.0]))])
        ds = Dataset(
            features=np.array([[0.5], [1.5], [-0.5], [2.0]]),
            labels=np.array([0, 0, 0, 1]),
        )
        assert accuracy_per_class(net, ds) == [1.0, 0.0]

    def test_one_minor_error(self):
        net = MlpParams([(np.array([[-1.0], [1.0]]), np.zeros(2))])
        ds = Dataset(
            features=np.array([[-1.0], [-2.0], [1.0], [-0.5]]),
            labels=np.array([0, 0, 1, 1]),
        )
        assert accuracy_per_class(net, ds) == [1.0, 0.5]

    def test_argmax_ties_go_to_smaller_class(self):
        net = MlpParams([(np.zeros((2, 1)), np.zeros(2))])
        ds = Dataset(features=np.array([[1.0]]), labels=np.array([0]))
        assert accuracy_per_class(net, ds) == [1.0]

    def test_output_dim_checked(self):
        net = MlpParams([(np.zeros((2, 1)), np.zeros(2))])
        ds = Dataset(features=np.zeros((3, 1)), labels=np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            accuracy_per_class(net, ds)

    def test_empty_class_reported_as_absent(self):
        net = MlpParams([(np.zeros((3, 1)), np.array([1.0, 0.0, 0.0]))])
        ds = Dataset(features=np.array([[1.0], [2.0]]), labels=np.array([0, 2]))
        accuracy = accuracy_per_class(net, ds)
        assert accuracy[0] == 1.0
        assert accuracy[1] is None
        assert accuracy[2] == 0.0


class TestTwoTaskAccuracy:
    def test_negative_labels_rejected_for_either_task(self):
        # A negative label would otherwise reach two_task_accuracy and be
        # scored as a miss there.
        with pytest.raises(ValueError, match="^labels must be nonnegative$"):
            Dataset(np.zeros((5, 4)), [0, -1, 1, -1, 0], [0, 1, 0, 1, 0])
        with pytest.raises(ValueError, match="^second labels must be nonnegative$"):
            Dataset(np.zeros((5, 4)), [0, 1, 0, 1, 0], [0, -1, 1, -1, 0])

    def test_one_label_dataset_rejected(self):
        ds = synth_imbalanced(20, 10, 4, 3.0, seed=0)
        with pytest.raises(ValueError, match="needs a dataset with two labels per sample"):
            two_task_accuracy(init_two_head_mlp(4, seed=0), ds)

    @pytest.mark.parametrize("task", [0, 1])
    def test_output_dim_checked_for_each_head(self, task):
        labels = [np.array([0, 1, 0, 1, 0]), np.array([1, 0, 1, 0, 1])]
        labels[task] = np.array([0, 1, 2, 1, 0])
        ds = Dataset(features=np.zeros((5, 4)), labels=labels[0], labels2=labels[1])
        model = init_two_head_mlp(4, head_classes=(2, 2), seed=0)
        with pytest.raises(ValueError, match="^net has 2 outputs but the dataset has 3 classes$"):
            two_task_accuracy(model, ds)
