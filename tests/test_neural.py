import numpy as np
import pytest

from mograd.exceptions import NumericalError
from mograd.neural import (
    ClassLossSpec,
    MlpParams,
    TwoHeadMlp,
    cross_entropy,
    forward,
    init_mlp,
    init_two_head_mlp,
    per_class_losses,
    predict_two_task,
    two_task_gradients,
)
from mograd.problems import finite_diff_gradient


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


class TestMlpParams:
    def test_flatten_round_trips_bitwise(self):
        net = init_mlp([3, 5, 2], np.random.default_rng(0))
        flat = net.flatten()
        rebuilt = MlpParams.from_flat(flat, net.dims)
        assert np.array_equal(rebuilt.flatten(), flat)
        for (W1, b1), (W2, b2) in zip(net.layers, rebuilt.layers):
            assert np.array_equal(W1, W2)
            assert np.array_equal(b1, b2)

    def test_layers_are_views_of_flat(self):
        net = init_mlp([3, 5, 2], np.random.default_rng(0))
        net.flat[:] = np.arange(net.n_params, dtype=float)
        W0, b0 = net.layers[0]
        W1, b1 = net.layers[1]
        assert np.array_equal(W0, np.arange(15.0).reshape(5, 3))
        assert np.array_equal(b0, np.arange(15.0, 20.0))
        assert np.array_equal(W1, np.arange(20.0, 30.0).reshape(2, 5))
        assert np.array_equal(b1, np.arange(30.0, 32.0))
        for W, b in net.layers:
            assert np.shares_memory(W, net.flat) and np.shares_memory(b, net.flat)

        source = net.flat.copy()
        copies = [net.flatten(), net.copy(), MlpParams.from_flat(source, net.dims)]
        for other in copies:
            buffer = other if isinstance(other, np.ndarray) else other.flat
            assert not np.shares_memory(buffer, net.flat)
            assert not np.shares_memory(buffer, source)
        net.flat[:] = -1.0
        source[:] = -2.0
        expected = np.arange(net.n_params, dtype=float)
        assert np.array_equal(copies[0], expected)
        for other in copies[1:]:
            assert np.array_equal(other.flatten(), expected)
            assert np.array_equal(other.layers[1][0], expected[20:30].reshape(2, 5))

    def test_constructor_copies_its_layers(self):
        W, b = np.ones((2, 3)), np.zeros(2)
        net = MlpParams([(W, b)])
        W[0, 0] = 5.0
        assert net.layers[0][0][0, 0] == 1.0

    def test_shape_chain_enforced(self):
        with pytest.raises(ValueError):
            MlpParams([(np.zeros((4, 3)), np.zeros(4)), (np.zeros((2, 5)), np.zeros(2))])

    def test_init_is_seeded(self):
        a = init_mlp([4, 8, 2], 7).flatten()
        b = init_mlp([4, 8, 2], 7).flatten()
        assert np.array_equal(a, b)

    def test_init_bounds_and_zero_bias(self):
        net = init_mlp([10, 20, 3], 1)
        for W, b in net.layers:
            bound = np.sqrt(6.0 / (W.shape[1] + W.shape[0]))
            assert np.all(np.abs(W) <= bound)
            assert np.array_equal(b, np.zeros_like(b))

    @pytest.mark.parametrize("dims, width", [
        ([4, 0, 2], 0), ([4, -1, 2], -1), ([0, 5, 2], 0), ([4, 5, 0], 0)])
    def test_init_rejects_a_width_below_one(self, dims, width):
        with pytest.raises(ValueError, match=rf"layer width must be >= 1, got {width} in dims"):
            init_mlp(dims, 0)

    def test_two_head_init_rejects_a_zero_trunk_width(self):
        with pytest.raises(ValueError, match="layer width must be >= 1, got 0"):
            init_two_head_mlp(4, trunk_hidden=(6, 0), head_classes=(2, 2), seed=0)


class TestForward:
    def test_zero_net_gives_zero_logits(self):
        net = MlpParams([(np.zeros((3, 2)), np.zeros(3)), (np.zeros((2, 3)), np.zeros(2))])
        assert np.array_equal(forward(net, np.array([1.0, -2.0])), np.zeros(2))

    def test_identity_single_layer(self):
        net = MlpParams([(np.eye(3), np.zeros(3))])
        x = np.array([0.5, -1.5, 2.0])
        assert np.array_equal(forward(net, x), x)

    def test_hand_computed_two_layer(self):
        W1 = np.array([[1.0, -1.0], [0.5, 0.5]])
        b1 = np.array([0.0, 1.0])
        W2 = np.array([[1.0, 2.0], [-1.0, 0.0]])
        b2 = np.array([0.5, 0.0])
        net = MlpParams([(W1, b1), (W2, b2)])
        x = np.array([1.0, 1.0])
        # hidden: relu([0, 2]) = [0, 2]; logits: [0 + 4 + 0.5, 0 + 0] = [4.5, 0]
        assert np.allclose(forward(net, x), [4.5, 0.0], atol=1e-15)

    def test_batch_rows(self):
        net = init_mlp([2, 4, 3], 2)
        X = np.random.default_rng(3).standard_normal((5, 2))
        batch = forward(net, X)
        assert batch.shape == (5, 3)
        for i in range(5):
            assert np.allclose(batch[i], forward(net, X[i]), atol=1e-14)

    def test_dimension_mismatch(self):
        net = init_mlp([2, 3], 0)
        with pytest.raises(ValueError):
            forward(net, np.zeros(4))


class TestCrossEntropy:
    def test_uniform_two_class(self):
        assert cross_entropy(np.array([0.0, 0.0]), 0) == pytest.approx(np.log(2))

    def test_confident_correct_no_overflow(self):
        assert cross_entropy(np.array([1000.0, 0.0]), 0) == pytest.approx(0.0, abs=1e-12)

    def test_confident_wrong_is_stable(self):
        assert cross_entropy(np.array([0.0, 1000.0]), 0) == pytest.approx(1000.0, rel=1e-12)

    def test_finite_up_to_huge_logits(self):
        assert np.isfinite(cross_entropy(np.array([1e6, -1e6, 0.0]), 1))

    def test_bad_label(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.0, 0.0]), 2)


class TestClassLossSpec:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_rejects_bad_weights(self, value):
        with pytest.raises(ValueError, match="class weights must be finite and nonnegative"):
            ClassLossSpec(np.array([1.0, value]))


class TestPerClassLosses:
    def test_single_class_batch(self):
        net = init_mlp([2, 4, 2], 4)
        X = np.random.default_rng(5).standard_normal((6, 2))
        y = np.zeros(6, dtype=int)
        losses, grads = per_class_losses(net, X, y, ClassLossSpec(np.ones(2)))
        assert losses[1] == 0.0
        assert np.array_equal(grads[1], np.zeros(net.n_params))
        assert losses[0] > 0

    def test_successive_calls_return_fresh_arrays(self):
        net = init_mlp([3, 6, 3], 6)
        rng = np.random.default_rng(8)
        X = rng.standard_normal((12, 3))
        y = np.sort(rng.integers(0, 3, size=12))
        spec = ClassLossSpec(np.ones(3))
        first = per_class_losses(net, X, y, spec)
        kept = [a.copy() for a in first]
        second = per_class_losses(net, 2.0 * X, y, spec)
        for a, b, k in zip(first, second, kept):
            assert not np.shares_memory(a, b)
            assert a.tobytes() == k.tobytes()

    def test_partition_identity(self):
        net = init_mlp([3, 6, 3], 6)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((12, 3))
        y = rng.integers(0, 3, size=12)
        losses, _ = per_class_losses(net, X, y, ClassLossSpec(np.ones(3)))
        total = sum(cross_entropy(forward(net, X[i]), int(y[i])) for i in range(12))
        assert abs(losses.sum() - total) <= 1e-10

    def test_gradients_match_finite_differences(self):
        net = init_mlp([2, 5, 2], 8)
        rng = np.random.default_rng(9)
        X = rng.standard_normal((8, 2))
        y = rng.integers(0, 2, size=8)
        spec = ClassLossSpec(np.ones(2))
        _, grads = per_class_losses(net, X, y, spec)
        theta0 = net.flatten()
        for i in range(2):
            def loss_i(theta, i=i):
                candidate = MlpParams.from_flat(theta, net.dims)
                return per_class_losses(candidate, X, y, spec)[0][i]

            fd = finite_diff_gradient(loss_i, theta0)
            assert rel_err(grads[i], fd) <= 1e-4

    @staticmethod
    def masked_backprop_reference(net, X, y, c):
        """One full backward pass per class, over the zero-masked dlogits."""
        acts = [X]
        a = X
        for W, b in net.layers[:-1]:
            a = np.maximum(a @ W.T + b, 0.0)
            acts.append(a)
        W, b = net.layers[-1]
        logits = a @ W.T + b
        m = logits.max(axis=1, keepdims=True)
        exp = np.exp(logits - m)
        rows = np.arange(y.size)
        per_sample = np.log(exp.sum(axis=1)) + m[:, 0] - logits[rows, y]
        dlogits = exp / exp.sum(axis=1, keepdims=True)
        dlogits[rows, y] -= 1.0
        losses = np.zeros(c)
        grads = np.zeros((c, net.n_params))
        for i in range(c):
            mask = y == i
            if not np.any(mask):
                continue
            losses[i] = per_sample[mask].sum()
            delta = np.where(mask[:, None], dlogits, 0.0)
            parts = []
            for j in range(len(net.layers) - 1, -1, -1):
                parts.append(np.concatenate([(delta.T @ acts[j]).ravel(), delta.sum(axis=0)]))
                delta = (delta @ net.layers[j][0]) * (acts[j] > 0)
            grads[i] = np.concatenate(parts[::-1])
        return losses, grads

    def test_matches_masked_backprop_reference(self):
        rng = np.random.default_rng(11)
        for c in (2, 3, 5):
            for trial in range(4):
                dims = [4, 9, 6, c] if trial % 2 else [4, 9, c]
                net = init_mlp(dims, int(rng.integers(0, 10_000)))
                n = int(rng.integers(6, 30))
                X = rng.standard_normal((n, 4))
                # with c = 2 an absent class leaves a one-class batch, so
                # only half of those trials drop a class
                absent = [int(rng.integers(0, c))] if c > 2 or trial < 2 else []
                present = np.delete(np.arange(c), absent)
                y = rng.choice(present, size=n)
                y[: present.size] = rng.permutation(present)
                rng.shuffle(y)
                assert present.size == 1 or not np.all(np.diff(y) >= 0)
                losses, grads = per_class_losses(net, X, y, ClassLossSpec(np.ones(c)))
                ref_losses, ref_grads = self.masked_backprop_reference(net, X, y, c)
                for i in absent:
                    assert np.array_equal(grads[i], np.zeros(net.n_params))
                    assert losses[i] == 0.0
                for i in present:
                    assert rel_err(grads[i], ref_grads[i]) <= 1e-12
                    assert abs(losses[i] - ref_losses[i]) <= 1e-12 * abs(ref_losses[i])

    def test_row_order_does_not_matter(self):
        rng = np.random.default_rng(12)
        for c in (2, 3, 5):
            net = init_mlp([3, 8, 5, c], int(rng.integers(0, 10_000)))
            X = rng.standard_normal((25, 3))
            y = rng.integers(0, c, size=25)
            spec = ClassLossSpec(np.ones(c))
            losses, grads = per_class_losses(net, X, y, spec)
            perm = rng.permutation(25)
            s_losses, s_grads = per_class_losses(net, X[perm], y[perm], spec)
            assert rel_err(s_losses, losses) <= 1e-12
            for i in range(c):
                assert rel_err(s_grads[i], grads[i]) <= 1e-12

    def test_presorted_batch_matches_sorting_path_bitwise(self):
        # A batch already grouped by class skips the sort; it must give what
        # sorting the shuffled batch gives.
        rng = np.random.default_rng(13)
        for c in (2, 3, 5):
            net = init_mlp([3, 8, 5, c], int(rng.integers(0, 10_000)))
            X = rng.standard_normal((25, 3))
            y = rng.integers(0, c, size=25)
            assert not np.all(np.diff(y) >= 0)
            spec = ClassLossSpec(np.ones(c))
            order = np.argsort(y, kind="stable")
            losses, grads = per_class_losses(net, X, y, spec)
            s_losses, s_grads = per_class_losses(net, X[order], y[order], spec)
            assert np.array_equal(s_losses, losses)
            assert np.array_equal(s_grads, grads)

    @pytest.mark.parametrize("dtype", [np.uint64, np.uint32, np.int32, np.uint8])
    def test_any_integer_label_dtype(self, dtype):
        net = init_mlp([3, 6, 3], 3)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((10, 3))
        y = rng.integers(0, 3, size=10)
        spec = ClassLossSpec(np.ones(3))
        losses, grads = per_class_losses(net, X, y, spec)
        d_losses, d_grads = per_class_losses(net, X, y.astype(dtype), spec)
        assert np.array_equal(d_losses, losses)
        assert np.array_equal(d_grads, grads)

    def test_label_out_of_range(self):
        net = init_mlp([2, 3, 2], 0)
        with pytest.raises(ValueError):
            per_class_losses(net, np.zeros((1, 2)), np.array([5]), ClassLossSpec(np.ones(2)))


class TestTwoHead:
    def make_model(self, seed=0):
        return init_two_head_mlp(4, trunk_hidden=(6, 4), head_classes=(2, 2), seed=seed)

    def test_identical_heads_and_labels_give_equal_shared_gradients(self):
        model = self.make_model(1)
        model.heads = (model.heads[0].copy(), model.heads[0].copy())
        rng = np.random.default_rng(2)
        X = rng.standard_normal((6, 4))
        y = rng.integers(0, 2, size=6)
        _, shared, _ = two_task_gradients(model, X, y, y)
        assert np.max(np.abs(shared[0] - shared[1])) <= 1e-10

    def test_kappa_scales_task2_gradients_exactly(self):
        from mograd.optimize import _apply_kappa

        model = self.make_model(3)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((5, 4))
        y1 = rng.integers(0, 2, size=5)
        y2 = rng.integers(0, 2, size=5)
        losses, shared, heads = two_task_gradients(model, X, y1, y2)
        s_losses, s_shared, s_heads = _apply_kappa(losses, shared, heads, 50.0)
        assert np.array_equal(s_shared[1], 50.0 * shared[1])
        assert np.array_equal(s_heads[1], 50.0 * heads[1])
        assert s_losses[1] == 50.0 * losses[1]
        assert np.array_equal(s_shared[0], shared[0])
        assert np.array_equal(s_heads[0], heads[0])

    def test_gradients_match_finite_differences(self):
        model = self.make_model(5)
        rng = np.random.default_rng(6)
        X = rng.standard_normal((4, 4))
        y1 = rng.integers(0, 2, size=4)
        y2 = rng.integers(0, 2, size=4)
        _, shared, heads = two_task_gradients(model, X, y1, y2)

        n_trunk = model.n_shared
        dims_t = model.trunk.dims
        dims_h = [model.heads[0].dims, model.heads[1].dims]

        def task_loss(theta, task):
            trunk = MlpParams.from_flat(theta[: n_trunk], dims_t)
            h0 = MlpParams.from_flat(
                theta[n_trunk : n_trunk + model.heads[0].n_params], dims_h[0]
            )
            h1 = MlpParams.from_flat(theta[n_trunk + model.heads[0].n_params :], dims_h[1])
            candidate = TwoHeadMlp(trunk, (h0, h1))
            losses, _, _ = two_task_gradients(candidate, X, y1, y2)
            return losses[task]

        theta0 = model.flatten()
        for task in range(2):
            fd = finite_diff_gradient(lambda t, task=task: task_loss(t, task), theta0)
            assert rel_err(shared[task], fd[model.shared_slice]) <= 1e-4
            assert rel_err(heads[task], fd[model.head_slices[task]]) <= 1e-4
            # the other head never affects this task
            other = model.head_slices[1 - task]
            assert np.max(np.abs(fd[other])) <= 1e-8

    @pytest.mark.parametrize("dtypes", [(np.uint64, np.int64), (np.uint8, np.int32)])
    def test_any_integer_label_dtypes(self, dtypes):
        model = init_two_head_mlp(4, trunk_hidden=(6, 5), head_classes=(3, 3), seed=11)
        rng = np.random.default_rng(11)
        X = rng.standard_normal((10, 4))
        y1 = rng.integers(0, 3, size=10)
        y2 = rng.integers(0, 3, size=10)
        ref = two_task_gradients(model, X, y1, y2)
        for t1, t2 in (dtypes, dtypes[::-1]):
            losses, shared, heads = two_task_gradients(model, X, y1.astype(t1), y2.astype(t2))
            assert_same_bits(losses, ref[0])
            assert_same_bits(shared, ref[1])
            for h, r in zip(heads, ref[2]):
                assert_same_bits(h, r)

    @pytest.mark.parametrize("head_classes", [(2, 2), (3, 2)])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_logits_name_their_task(self, head_classes, bad):
        model = init_two_head_mlp(4, trunk_hidden=(6, 4), head_classes=head_classes, seed=12)
        X = np.random.default_rng(12).standard_normal((5, 4))
        y = np.zeros(5, dtype=int)
        for task in (2, 1):  # task 2 alone overflows, then both do
            model.heads[task - 1].layers[-1][1][0] = bad
            message = rf"^non-finite activations in task {task} forward pass$"
            with pytest.raises(NumericalError, match=message):
                two_task_gradients(model, X, y, y)

    def test_head_input_dim_checked(self):
        trunk = init_mlp([4, 6, 4], 0)
        bad_head = init_mlp([5, 2], 1)
        with pytest.raises(ValueError):
            TwoHeadMlp(trunk, (bad_head, bad_head))

    def test_predict_shapes(self):
        model = self.make_model(7)
        X = np.random.default_rng(8).standard_normal((9, 4))
        l1, l2 = predict_two_task(model, X)
        assert l1.shape == (9, 2)
        assert l2.shape == (9, 2)


class TestBackpropOracle:
    def test_many_random_nets_match_finite_differences(self):
        rng = np.random.default_rng(10)
        for trial in range(50):
            d_in = int(rng.integers(2, 5))
            hidden = int(rng.integers(2, 7))
            c = int(rng.integers(2, 4))
            net = init_mlp([d_in, hidden, c], int(rng.integers(0, 10_000)))
            n = int(rng.integers(2, 7))
            X = rng.standard_normal((n, d_in))
            y = rng.integers(0, c, size=n)
            spec = ClassLossSpec(np.ones(c))
            _, grads = per_class_losses(net, X, y, spec)
            total = grads.sum(axis=0)

            def batch_loss(theta):
                candidate = MlpParams.from_flat(theta, net.dims)
                return per_class_losses(candidate, X, y, spec)[0].sum()

            fd = finite_diff_gradient(batch_loss, net.flatten())
            assert rel_err(total, fd) <= 1e-4


def planned_backward(layers, activations, delta, segments):
    """One backward pass into the buffer of a fresh plan."""
    from mograd.neural import _backward_plan, _backward_run

    grads, views = _backward_plan(layers, delta.shape[:-2], len(segments))
    _backward_run(layers, activations, delta, segments, views)
    return grads


def assert_same_bits(a, b):
    """Equal shape, dtype and bytes: unlike ``np.array_equal``, tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestInPlaceBuffers:
    """The layer, loss and backward buffers are reused in place; every value
    must stay bitwise that of the out-of-place expressions below."""

    @staticmethod
    def forward_reference(net, X):
        activations = [X]
        a = X
        for W, b in net.layers[:-1]:
            a = np.maximum(a @ W.T + b, 0.0)
            activations.append(a)
        W, b = net.layers[-1]
        return activations, a @ W.T + b

    @staticmethod
    def ce_rows_reference(logits, labels):
        m = logits.max(axis=1, keepdims=True)
        exp = np.exp(logits - m)
        total = exp.sum(axis=1, keepdims=True)
        rows = np.arange(logits.shape[0])
        per_row = np.log(total[:, 0]) + m[:, 0] - logits[rows, labels]
        dlogits = exp / total
        dlogits[rows, labels] -= 1.0
        return per_row, dlogits

    @staticmethod
    def backward_reference(layers, activations, delta, segments):
        grads = np.empty((len(segments), sum(W.size + b.size for W, b in layers)))
        end = grads.shape[1]
        for j in range(len(layers) - 1, -1, -1):
            W, b = layers[j]
            start = end - W.size - b.size
            act = activations[j]
            for g, s in zip(grads, segments):
                seg = delta[s]
                np.matmul(seg.T, act[s], out=g[start : end - b.size].reshape(W.shape))
                seg.sum(axis=0, out=g[end - b.size : end])
            if j > 0:
                delta = (delta @ W) * (act > 0)
            end = start
        return grads

    @classmethod
    def two_task_reference(cls, model, X, y1, y2):
        trunk_acts, trunk_out = cls.forward_reference(model.trunk, X)
        h = np.maximum(trunk_out, 0.0)
        losses = np.empty(2)
        grads = []
        for k, (head, y) in enumerate(zip(model.heads, (y1, y2))):
            head_acts, logits = cls.forward_reference(head, h)
            per_row, dlogits = cls.ce_rows_reference(logits, y)
            losses[k] = np.sum(per_row)
            layers = model.trunk.layers + head.layers
            grads.append(
                cls.backward_reference(layers, trunk_acts + head_acts, dlogits, [slice(None)])[0]
            )
        n = model.n_shared
        return losses, np.stack([g[:n] for g in grads]), (grads[0][n:], grads[1][n:])

    @staticmethod
    def mixed_labels(rng, logits):
        """Labels that are the row's largest logit on even rows and not on odd rows."""
        top = logits.argmax(axis=1)
        other = (top + rng.integers(1, logits.shape[1], size=top.size)) % logits.shape[1]
        labels = np.where(np.arange(top.size) % 2 == 0, top, other)
        assert np.any(labels == top) and np.any(labels != top)
        return labels

    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_ce_rows_bitwise(self, c):
        from mograd.neural import _ce_rows, _label_picks

        rng = np.random.default_rng(c)
        for scale in (1.0, 1e3, 1e150, 1e300):
            logits = np.clip(rng.standard_normal((17, c)) * scale, -1e300, 1e300)
            labels = self.mixed_labels(rng, logits)
            ref_rows, ref_d = self.ce_rows_reference(logits, labels)
            per_row, dlogits = _ce_rows(logits.copy(), _label_picks(labels, c))
            assert_same_bits(per_row, ref_rows)
            assert_same_bits(dlogits, ref_d)

    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_forward_and_backward_bitwise(self, c):
        from mograd.neural import _forward_cached

        rng = np.random.default_rng(10 + c)
        for scale in (1.0, 1e100, 1e290):
            net = init_mlp([4, 9, 6, c], int(rng.integers(0, 10_000)))
            net.layers[-1][0][:] *= scale
            X = rng.standard_normal((13, 4))
            acts, logits = _forward_cached(net.layers, X)
            ref_acts, ref_logits = self.forward_reference(net, X)
            assert len(acts) == len(ref_acts)
            for a, r in zip(acts, ref_acts):
                assert_same_bits(a, r)
            assert_same_bits(logits, ref_logits)
            assert np.abs(logits).max() <= 1e300 * 1e3

            delta = rng.standard_normal(logits.shape)
            segments = [slice(0, 4), slice(4, 4), slice(4, 13)]
            grads = planned_backward(net.layers, acts, delta, segments)
            assert_same_bits(grads, self.backward_reference(net.layers, acts, delta, segments))

    @pytest.mark.parametrize("shared", [0, 1], ids=["all-stacked", "first-layer-shared"])
    def test_stacked_segmented_backward_matches_per_slice(self, shared):
        from mograd.neural import _forward_cached

        rng = np.random.default_rng(40 + shared)
        nets = [init_mlp([4, 7, 5, 3], int(rng.integers(0, 10_000))) for _ in range(2)]
        # the first ``shared`` layers are 2-D and common to both networks
        for k in range(shared):
            for net in nets[1:]:
                for dst, src in zip(net.layers[k], nets[0].layers[k]):
                    dst[:] = src
        layers = nets[0].layers[:shared] + [
            (np.array([W for W, _ in layer]), np.array([b for _, b in layer])[:, None, :])
            for layer in zip(*(net.layers[shared:] for net in nets))
        ]
        X = rng.standard_normal((13, 4))
        acts, logits = _forward_cached(layers, X)
        assert logits.shape == (2, 13, 3)
        delta = rng.standard_normal(logits.shape)
        segments = [slice(0, 5), slice(5, 6), slice(6, 13)]
        grads = planned_backward(layers, acts, delta, segments)
        assert grads.shape == (2, 3, nets[0].n_params)
        for i, net in enumerate(nets):
            net_acts, net_logits = _forward_cached(net.layers, X)
            assert_same_bits(logits[i], net_logits)
            assert_same_bits(grads[i], planned_backward(net.layers, net_acts, delta[i], segments))

    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_per_class_losses_bitwise(self, c):
        rng = np.random.default_rng(20 + c)
        net = init_mlp([3, 8, c], int(rng.integers(0, 10_000)))
        X = rng.standard_normal((21, 3))
        y = np.sort(rng.integers(0, c, size=21))
        losses, grads = per_class_losses(net, X, y, ClassLossSpec(np.ones(c)))
        acts, logits = self.forward_reference(net, X)
        per_row, dlogits = self.ce_rows_reference(logits, y)
        bounds = np.searchsorted(y, np.arange(c + 1))
        segments = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert_same_bits(losses, [per_row[s].sum() for s in segments])
        assert_same_bits(grads, self.backward_reference(net.layers, acts, dlogits, segments))

    @pytest.mark.parametrize("seed, head_dims", [
        pytest.param(2, ([5, 2], [5, 2]), id="2"),
        pytest.param(3, ([5, 3], [5, 2]), id="3"),
        pytest.param(5, ([5, 5], [5, 2]), id="5"),
        pytest.param(7, ([5, 4, 2], [5, 4, 2]), id="deep-equal"),
        pytest.param(8, ([5, 4, 3], [5, 6, 2]), id="deep-unequal"),
    ])
    def test_two_task_gradients_bitwise(self, seed, head_dims):
        # the draws of init_two_head_mlp(4, (6, 5), ..., seed), with any head dims
        init = np.random.default_rng(seed)
        trunk = init_mlp([4, 6, 5], init)
        model = TwoHeadMlp(trunk, tuple(init_mlp(dims, init) for dims in head_dims))
        rng = np.random.default_rng(30 + seed)
        X = rng.standard_normal((11, 4))
        y1 = rng.integers(0, head_dims[0][-1], size=11)
        y2 = rng.integers(0, head_dims[1][-1], size=11)
        losses, shared, heads = two_task_gradients(model, X, y1, y2)
        ref_losses, ref_shared, ref_heads = self.two_task_reference(model, X, y1, y2)
        assert_same_bits(losses, ref_losses)
        assert_same_bits(shared, ref_shared)
        assert shared.flags.c_contiguous
        for h, r in zip(heads, ref_heads):
            assert_same_bits(h, r)

    def test_two_task_labels_out_of_range(self):
        model = init_two_head_mlp(4, trunk_hidden=(6, 5), head_classes=(2, 2), seed=0)
        X = np.zeros((3, 4))
        good = np.array([0, 1, 0])
        for bad in (np.array([0, 2, 1]), np.array([0, -1, 1])):
            with pytest.raises(ValueError, match=r"task labels must lie in \[0, 2\)"):
                two_task_gradients(model, X, bad, good)
            with pytest.raises(ValueError, match=r"task labels must lie in \[0, 2\)"):
                two_task_gradients(model, X, good, bad)



class TestTwoTaskPlan:
    """``run_multitask`` plans its labels and gradient buffer once per run and
    runs every batch into that plan; each run must be bitwise the one-off call."""

    def setup_method(self):
        from mograd.data import synth_two_task

        self.data = synth_two_task(300, 6, seed=0)
        self.model = init_two_head_mlp(6, trunk_hidden=(12, 8), head_classes=(2, 2), seed=1)

    def train(self, monkeypatch, run, kappa=1.0, data=None):
        """Two epochs of 64-row batches (four full, one of 44 rows), each batch
        through ``run(real_run, *args)`` in place of the planned run."""
        import mograd.optimize
        from mograd.optimize import OptimizerConfig, run_multitask

        real = mograd.optimize._two_task_run
        monkeypatch.setattr(mograd.optimize, "_two_task_run", lambda *args: run(real, *args))
        cfg = OptimizerConfig(learning_rate=0.01, max_iters=2, stop_tolerance=1e-14, seed=3)
        return run_multitask(self.model, data or self.data, cfg, kappa=kappa, batch_size=64)

    @pytest.mark.parametrize("kappa", [1.0, 50.0])
    def test_every_batch_matches_the_one_off_call(self, monkeypatch, kappa):
        y1, y2 = self.data.labels, self.data.labels2
        rows = []

        def run(real, model, X_batch, idx, plan):
            ref = two_task_gradients(model, X_batch, y1[idx], y2[idx])
            out = real(model, X_batch, idx, plan)
            assert_same_bits(out[0], ref[0])
            assert_same_bits(out[1], ref[1])
            assert out[1].flags.c_contiguous
            for h, r in zip(out[2], ref[2]):
                assert_same_bits(h, r)
            rows.append(idx.size)
            return out

        self.train(monkeypatch, run, kappa)
        assert rows == [64, 64, 64, 64, 44] * 2

    def test_every_batch_runs_into_one_buffer(self, monkeypatch):
        import mograd.neural

        buffers = []
        real_plan = mograd.neural._backward_plan

        def recorded_plan(*args):
            grads, views = real_plan(*args)
            buffers.append(grads)
            return grads, views

        monkeypatch.setattr(mograd.neural, "_backward_plan", recorded_plan)
        plans = []

        def run(real, model, X_batch, idx, plan):
            out = real(model, X_batch, idx, plan)
            assert len(buffers) == 1
            for h in out[2]:
                assert h.base is buffers[0]
            plans.append(plan)
            return out

        self.train(monkeypatch, run)
        assert len(plans) == 10
        assert all(plan is plans[0] for plan in plans)

    @pytest.mark.parametrize("task, bad", [(0, 2), (1, 2), (1, -1)])
    def test_out_of_range_label_raises_before_any_step(self, monkeypatch, task, bad):
        from mograd.data import Dataset

        labels = [self.data.labels.copy(), self.data.labels2.copy()]
        labels[task][-1] = bad  # the last row: in a late batch of any epoch
        data = Dataset(self.data.features, labels[0], labels[1])
        before = self.model.flatten()
        calls = []
        with pytest.raises(ValueError, match=r"^task labels must lie in \[0, 2\)$"):
            self.train(monkeypatch, lambda real, *args: calls.append(args), data=data)
        assert calls == []
        assert_same_bits(self.model.flatten(), before)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_float_labels_rejected_as_by_the_one_off_call(self, monkeypatch, dtype):
        from types import SimpleNamespace

        from mograd.neural import _two_task_plan

        y1, y2 = self.data.labels, self.data.labels2.astype(dtype)
        X = self.data.features
        with pytest.raises(TypeError) as one_off:
            two_task_gradients(self.model, X[:64], y1[:64], y2[:64])
        with pytest.raises(TypeError) as planned:
            _two_task_plan(self.model, y1, y2)
        with pytest.raises(TypeError) as trained:
            self.train(monkeypatch, lambda real, *args: real(*args),
                       data=SimpleNamespace(features=X, labels=y1, labels2=y2))
        assert str(planned.value) == str(one_off.value)
        assert str(trained.value) == str(one_off.value)
