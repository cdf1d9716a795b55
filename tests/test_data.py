import numpy as np
import pytest

from mograd.data import (
    BatchPlan,
    Dataset,
    accuracy_per_class,
    class_batches,
    load_csv,
    save_csv,
    stratified_counts,
    stratified_split,
    synth_imbalanced,
    synth_two_task,
)
from mograd.exceptions import DataError
from mograd.neural import MlpParams


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

    @pytest.mark.parametrize("separation", [np.nan, np.inf, -np.inf])
    def test_non_finite_separation(self, separation):
        with pytest.raises(ValueError, match="separation must be finite"):
            synth_two_task(10, 4, seed=0, separation=separation)


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
        counts = stratified_counts([284315, 492], 56962 / 284807)
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


class TestClassBatches:
    def test_floor_division_batch_sizes(self):
        ds = synth_imbalanced(400, 40, 2, 2.0, seed=10)
        plan = BatchPlan(batches_per_epoch=40, seed=0)
        (epoch,) = list(class_batches(ds, plan, epochs=1))
        assert len(epoch) == 40
        for major_batch, minor_batch in epoch:
            assert major_batch.size == 10
            assert minor_batch.size == 1

    def test_no_duplicates_within_epoch(self):
        ds = synth_imbalanced(100, 50, 2, 2.0, seed=11)
        plan = BatchPlan(batches_per_epoch=10, seed=1)
        (epoch,) = list(class_batches(ds, plan, epochs=1))
        for c in range(2):
            seen = np.concatenate([batch[c] for batch in epoch])
            assert seen.size == np.unique(seen).size
            assert set(seen) <= set(ds.class_index_sets[c])

    def test_epochs_reshuffle_but_reruns_reproduce(self):
        ds = synth_imbalanced(60, 30, 2, 2.0, seed=12)
        plan = BatchPlan(batches_per_epoch=3, seed=2)
        run1 = [epoch for epoch in class_batches(ds, plan, epochs=2)]
        run2 = [epoch for epoch in class_batches(ds, plan, epochs=2)]
        first_epoch = np.concatenate([b[0] for b in run1[0]])
        second_epoch = np.concatenate([b[0] for b in run1[1]])
        assert not np.array_equal(first_epoch, second_epoch)
        for e in range(2):
            for b in range(3):
                for c in range(2):
                    assert np.array_equal(run1[e][b][c], run2[e][b][c])

    def test_class_smaller_than_batch_count_rejected(self):
        ds = synth_imbalanced(100, 39, 2, 2.0, seed=13)
        with pytest.raises(ValueError):
            next(class_batches(ds, BatchPlan(batches_per_epoch=40, seed=0), epochs=1))


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
