import numpy as np
import pytest

from mograd.exceptions import NumericalError
from mograd.neural import (
    MlpParams,
    TwoHeadMlp,
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


def one_row_loss(logits, label):
    """``per_class_losses``'s total on one row whose logits are ``logits``:
    a one-layer net with zero weights and the logits as its bias."""
    logits = np.asarray(logits, dtype=float)
    net = MlpParams([(np.zeros((logits.size, 1)), logits)])
    losses, _ = per_class_losses(net, np.zeros((1, 1)), np.array([label]))
    return losses.sum()


def cross_entropy(logits, label):
    """Reference for the partition identity: negative log-softmax of the labeled class."""
    z = np.asarray(logits, dtype=float)
    m = z.max()
    return float(m + np.log(np.exp(z - m).sum()) - z[label])


class TestCrossEntropy:
    def test_uniform_two_class(self):
        assert one_row_loss([0.0, 0.0], 0) == pytest.approx(np.log(2))

    def test_confident_correct_no_overflow(self):
        assert one_row_loss([1000.0, 0.0], 0) == pytest.approx(0.0, abs=1e-12)

    def test_confident_wrong_is_stable(self):
        assert one_row_loss([0.0, 1000.0], 0) == pytest.approx(1000.0, rel=1e-12)

    def test_finite_up_to_huge_logits(self):
        assert np.isfinite(one_row_loss([1e6, -1e6, 0.0], 1))

    def test_bad_label(self):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            one_row_loss([0.0, 0.0], 2)


class TestPerClassLosses:
    def test_single_class_batch(self):
        net = init_mlp([2, 4, 2], 4)
        X = np.random.default_rng(5).standard_normal((6, 2))
        y = np.zeros(6, dtype=int)
        losses, grads = per_class_losses(net, X, y)
        assert losses[1] == 0.0
        assert np.array_equal(grads[1], np.zeros(net.n_params))
        assert losses[0] > 0

    def test_successive_calls_return_fresh_arrays(self):
        net = init_mlp([3, 6, 3], 6)
        rng = np.random.default_rng(8)
        X = rng.standard_normal((12, 3))
        y = np.sort(rng.integers(0, 3, size=12))
        first = per_class_losses(net, X, y)
        kept = [a.copy() for a in first]
        second = per_class_losses(net, 2.0 * X, y)
        for a, b, k in zip(first, second, kept):
            assert not np.shares_memory(a, b)
            assert a.tobytes() == k.tobytes()

    def test_partition_identity(self):
        net = init_mlp([3, 6, 3], 6)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((12, 3))
        y = rng.integers(0, 3, size=12)
        losses, _ = per_class_losses(net, X, y)
        total = sum(cross_entropy(forward(net, X[i]), int(y[i])) for i in range(12))
        assert abs(losses.sum() - total) <= 1e-10

    def test_gradients_match_finite_differences(self):
        net = init_mlp([2, 5, 2], 8)
        rng = np.random.default_rng(9)
        X = rng.standard_normal((8, 2))
        y = rng.integers(0, 2, size=8)
        _, grads = per_class_losses(net, X, y)
        theta0 = net.flatten()
        for i in range(2):
            def loss_i(theta, i=i):
                candidate = MlpParams.from_flat(theta, net.dims)
                return per_class_losses(candidate, X, y)[0][i]

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
                losses, grads = per_class_losses(net, X, y)
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
            losses, grads = per_class_losses(net, X, y)
            perm = rng.permutation(25)
            s_losses, s_grads = per_class_losses(net, X[perm], y[perm])
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
            order = np.argsort(y, kind="stable")
            losses, grads = per_class_losses(net, X, y)
            s_losses, s_grads = per_class_losses(net, X[order], y[order])
            assert np.array_equal(s_losses, losses)
            assert np.array_equal(s_grads, grads)

    @pytest.mark.parametrize("dtype", [np.uint64, np.uint32, np.int32, np.uint8])
    def test_any_integer_label_dtype(self, dtype):
        net = init_mlp([3, 6, 3], 3)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((10, 3))
        y = rng.integers(0, 3, size=10)
        losses, grads = per_class_losses(net, X, y)
        d_losses, d_grads = per_class_losses(net, X, y.astype(dtype))
        assert np.array_equal(d_losses, losses)
        assert np.array_equal(d_grads, grads)

    def test_label_out_of_range(self):
        net = init_mlp([2, 3, 2], 0)
        with pytest.raises(ValueError):
            per_class_losses(net, np.zeros((1, 2)), np.array([5]))

    def test_label_at_the_output_width_is_rejected(self):
        # The classes are the network's outputs: label 2 of a 2-output net
        # is out of range, not a third class.
        net = init_mlp([3, 4, 2], 0)
        with pytest.raises(ValueError, match=r"^labels must lie in \[0, 2\)$"):
            per_class_losses(net, np.zeros((2, 3)), np.array([2, 0]))


class TestTwoHead:
    def make_model(self, seed=0):
        return init_two_head_mlp(4, trunk_hidden=(6, 4), head_classes=(2, 2), seed=seed)

    def test_identical_heads_and_labels_give_equal_shared_gradients(self):
        model = self.make_model(1)
        h = model.heads[0]
        model = TwoHeadMlp(model.trunk, (h, h))
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

    @pytest.mark.parametrize("call", [
        lambda model, X, y: per_class_losses(model.trunk, X, y),
        lambda model, X, y: two_task_gradients(model, X, y, y),
        lambda model, X, y: predict_two_task(model, X),
    ], ids=["per_class_losses", "two_task_gradients", "predict_two_task"])
    def test_batch_of_the_wrong_width_is_named_as_forward_names_it(self, call):
        model = self.make_model(9)
        X, y = np.zeros((5, 3)), np.zeros(5, dtype=int)
        message = r"^input of shape \(5, 3\) does not match input dim 4$"
        with pytest.raises(ValueError, match=message):
            forward(model.trunk, X)
        with pytest.raises(ValueError, match=message):
            call(model, X, y)

    def test_predict_shapes(self):
        model = self.make_model(7)
        X = np.random.default_rng(8).standard_normal((9, 4))
        l1, l2 = predict_two_task(model, X)
        assert l1.shape == (9, 2)
        assert l2.shape == (9, 2)


class TestOneBuffer:
    """A two-head model keeps its trunk and both heads in one buffer, and
    every network, layer and stacked head view is a view into it."""

    @staticmethod
    def views(model):
        nets = [model.trunk, *model.heads]
        yield from (net.flat for net in nets)
        yield from (a for net in nets for layer in net.layers for a in layer)
        for _, part, layers in model._head_groups:
            yield from (a for layer in layers for a in layer)
            yield model.flat[part]

    @staticmethod
    def check_layout(model):
        assert model.flat.flags.c_contiguous and model.flat.dtype == float
        for view in TestOneBuffer.views(model):
            assert np.shares_memory(view, model.flat)
        assert_same_bits(model.flat[model.shared_slice], model.trunk.flat)
        for k, head in enumerate(model.heads):
            assert_same_bits(model.flat[model.head_slices[k]], head.flat)
        groups = model._head_groups
        equal = model.heads[0].dims == model.heads[1].dims
        assert [tasks for tasks, _, _ in groups] == (
            [slice(0, 2)] if equal else [slice(0, 1), slice(1, 2)]
        )
        for tasks, part, layers in groups:
            for k, head in enumerate(model.heads[tasks]):
                for (W, b), (W_k, b_k) in zip(layers, head.layers):
                    assert_same_bits(W[k], W_k)
                    assert_same_bits(b[k, 0], b_k)
        # each group's slice of flat: both heads when their dims are equal, else one each
        n, (head0, head1) = model.n_shared, model.head_slices
        assert [part for _, part, _ in groups] == (
            [slice(n, model.flat.shape[0])] if equal else [head0, head1]
        )

    @pytest.mark.parametrize("head_dims", [
        ([4, 2], [4, 2]), ([4, 3, 2], [4, 3, 2]), ([4, 3], [4, 2]), ([4, 5, 2], [4, 2]),
    ])
    def test_every_view_shares_the_model_buffer(self, head_dims):
        rng = np.random.default_rng(0)
        model = TwoHeadMlp(init_mlp([3, 6, 4], rng), tuple(init_mlp(d, rng) for d in head_dims))
        self.check_layout(model)
        assert model.flat.shape[0] == sum(net.n_params for net in (model.trunk, *model.heads))

    def test_networks_are_read_only(self):
        model = init_two_head_mlp(4, trunk_hidden=(6, 4), head_classes=(2, 2), seed=1)
        with pytest.raises(AttributeError):
            model.heads = (model.heads[0], model.heads[0])
        with pytest.raises(AttributeError):
            model.trunk = init_mlp([4, 5, 4], 4)

    @pytest.mark.parametrize("head_classes", [(2, 2), (3, 2)])
    def test_flatten_and_copy_alias_nothing_and_round_trip(self, head_classes):
        model = init_two_head_mlp(4, trunk_hidden=(6, 4), head_classes=head_classes, seed=5)
        flat = model.flatten()
        clone = model.copy()
        assert_same_bits(flat, model.flat)
        assert_same_bits(clone.flat, model.flat)
        self.check_layout(clone)
        for view in self.views(clone):
            assert not np.shares_memory(view, model.flat)
        assert not np.shares_memory(flat, model.flat)
        before = model.flat.copy()
        model.flat[:] = -1.0
        assert_same_bits(flat, before)
        assert_same_bits(clone.flat, before)
        clone.flat[:] = 2.0
        assert np.all(model.flat == -1.0) and np.all(flat == before)

    @pytest.mark.parametrize("head_classes", [(2, 2), (3, 2)])
    def test_a_write_through_a_head_view_reaches_the_stacked_pass(self, head_classes):
        model = init_two_head_mlp(4, trunk_hidden=(6, 4), head_classes=head_classes, seed=6)
        rng = np.random.default_rng(6)
        X = rng.standard_normal((9, 4))
        y = rng.integers(0, 2, size=9)
        before = two_task_gradients(model, X, y, y)
        W, b = model.heads[1].layers[-1]
        W[0] += 0.5
        b[-1] -= 0.25
        after = two_task_gradients(model, X, y, y)
        # a model built afresh from the written networks
        fresh = TwoHeadMlp(model.trunk.copy(), (model.heads[0].copy(), model.heads[1].copy()))
        ref = two_task_gradients(fresh, X, y, y)
        assert after[0][1] != before[0][1]
        assert_same_bits(after[0], ref[0])
        assert_same_bits(after[1], ref[1])
        for h, r in zip(after[2], ref[2]):
            assert_same_bits(h, r)

    @pytest.mark.parametrize("head_dims", [([4, 2], [4, 2]), ([4, 3, 2], [4, 2])],
                             ids=["equal", "unequal"])
    def test_plan_buffer_is_laid_out_like_flat(self, head_dims):
        from mograd.neural import _two_task_plan, _two_task_run

        rng = np.random.default_rng(9)
        model = TwoHeadMlp(init_mlp([3, 6, 4], rng), tuple(init_mlp(d, rng) for d in head_dims))
        X = rng.standard_normal((7, 3))
        y1, y2 = rng.integers(0, 2, size=7), rng.integers(0, 2, size=7)
        plan = _two_task_plan(model, y1, y2)
        _, shared, heads = _two_task_run(model, X, np.arange(7), plan)
        _, want_shared, want_heads = two_task_gradients(model, X, y1, y2)
        n = model.n_shared
        buffer = plan.shared.base
        assert buffer.shape == (n + model.flat.shape[0],)
        assert shared is plan.shared and heads is plan.rows
        assert_same_bits(np.concatenate([plan.shared.ravel(), plan.heads]), buffer)
        for k, part in enumerate(model.head_slices):
            # task k's [trunk | head k], as in flat: shared[k], then head k at its flat offset
            assert_same_bits(plan.rows[k], plan.heads[part.start - n : part.stop - n])
            assert_same_bits(np.concatenate([plan.shared[k], plan.rows[k]]),
                             np.concatenate([want_shared[k], want_heads[k]]))
            for g in (plan.shared[k], plan.rows[k]):
                assert g.base is buffer

    @staticmethod
    def reference_train(model, data, cfg, kappa, batch_size):
        """``run_multitask``'s loop over three separate networks, each head
        stepped on its own, with the out-of-place passes of ``TestInPlaceBuffers``."""
        from types import SimpleNamespace

        from mograd.optimize import METHODS

        nets = SimpleNamespace(
            trunk=model.trunk.copy(), heads=(model.heads[0].copy(), model.heads[1].copy()),
            n_shared=model.n_shared,
        )
        X, y1, y2 = data.features, data.labels, data.labels2
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.max_iters):
            order = rng.permutation(X.shape[0])
            for lo in range(0, order.size, batch_size):
                idx = order[lo : lo + batch_size]
                _, shared, heads = TestInPlaceBuffers.two_task_reference(
                    nets, X[idx], y1[idx], y2[idx]
                )
                shared[1] *= kappa
                heads = (heads[0], heads[1] * kappa)
                res = METHODS[cfg.method](shared, cfg)
                nets.trunk.flat -= cfg.learning_rate * res.normalized_direction
                for head, g in zip(nets.heads, heads):
                    head.flat -= cfg.learning_rate * g
        return np.concatenate([nets.trunk.flat, nets.heads[0].flat, nets.heads[1].flat])

    @pytest.mark.parametrize("method, kappa", [("edm", 1.0), ("mgda", 50.0), ("weighted_sum", 1.0)])
    @pytest.mark.parametrize("head_dims", [([8, 2], [8, 2]), ([8, 3, 2], [8, 2])],
                             ids=["equal", "unequal"])
    def test_training_matches_separate_networks_bitwise(self, method, kappa, head_dims):
        from mograd.data import synth_two_task
        from mograd.optimize import OptimizerConfig, run_multitask

        data = synth_two_task(150, 6, seed=2)
        init = np.random.default_rng(3)
        model = TwoHeadMlp(init_mlp([6, 12, 8], init), tuple(init_mlp(d, init) for d in head_dims))
        cfg = OptimizerConfig(method=method, learning_rate=0.05, max_iters=2,
                              stop_tolerance=1e-14, weights=np.ones(2), seed=4)
        trained, result = run_multitask(model, data, cfg, kappa=kappa, batch_size=32)
        want = self.reference_train(model, data, cfg, kappa, batch_size=32)
        assert_same_bits(result.final_point, want)
        assert_same_bits(trained.flat, want)
        self.check_layout(trained)


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
            _, grads = per_class_losses(net, X, y)
            total = grads.sum(axis=0)

            def batch_loss(theta):
                candidate = MlpParams.from_flat(theta, net.dims)
                return per_class_losses(candidate, X, y)[0].sum()

            fd = finite_diff_gradient(batch_loss, net.flatten())
            assert rel_err(total, fd) <= 1e-4


def planned_backward(layers, activations, delta, segments):
    """One backward pass into the buffer of a fresh plan."""
    from mograd.neural import _backward_plan, _backward_run

    n_params = sum(W.shape[-2] * (W.shape[-1] + 1) for W, _ in layers)
    grads = np.empty(delta.shape[:-2] + (len(segments), n_params))
    _backward_run(layers, activations, delta, segments, _backward_plan(layers, grads))
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

    @staticmethod
    def tied_rows(rng, c):
        """Rows whose max is tied, or is a zero of either sign, with random labels."""
        rows = [np.zeros(c), np.full(c, -0.0), np.full(c, -1.5), np.full(c, 7.0)]
        for top in (0.0, -0.0, 2.0):
            for _ in range(3):
                row = -rng.uniform(0.5, 3.0, size=c)
                row[rng.choice(c, size=2, replace=False)] = top
                rows.append(row)
        row = np.full(c, -1.0)
        row[::2] = -0.0
        row[1::2] = 0.0
        rows.append(row)
        logits = np.array(rows)
        return logits, rng.integers(0, c, size=len(rows))

    @pytest.mark.parametrize("c", [2, 3, 5, 10])
    def test_ce_rows_bitwise(self, c):
        from mograd.neural import _ce_rows, _label_picks

        rng = np.random.default_rng(c)
        cases = [self.tied_rows(rng, c)]
        for scale in (1.0, 1e3, 1e150, 1e300):
            logits = np.clip(rng.standard_normal((17, c)) * scale, -1e300, 1e300)
            cases.append((logits, self.mixed_labels(rng, logits)))
            # the (2N, c) block of a stacked two-task pass: both tasks' rows
            stacked = np.clip(rng.standard_normal((2, 17, c)) * scale, -1e300, 1e300)
            stacked = stacked.reshape(-1, c)
            cases.append((stacked, self.mixed_labels(rng, stacked)))
        for logits, labels in cases:
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
        losses, grads = per_class_losses(net, X, y)
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

        def recorded_plan(layers, block):
            buffers.append(block.base)
            return real_plan(layers, block)

        monkeypatch.setattr(mograd.neural, "_backward_plan", recorded_plan)
        plans = []

        def run(real, model, X_batch, idx, plan):
            out = real(model, X_batch, idx, plan)
            # the trunk's and the stacked heads' blocks, both in one buffer
            assert len(buffers) == 2 and buffers[1] is buffers[0]
            for g in (out[1], *out[2]):
                assert g.base is buffers[0]
            plans.append(plan)
            return out

        self.train(monkeypatch, run)
        assert len(plans) == 10
        assert all(plan is plans[0] for plan in plans)

    @pytest.mark.parametrize("task, bad", [(0, 2), (1, 2), (1, -1)])
    def test_out_of_range_label_raises_before_any_step(self, monkeypatch, task, bad):
        from mograd.data import Dataset

        data = Dataset(self.data.features, self.data.labels.copy(), self.data.labels2.copy())
        # Written after construction, as Dataset rejects a negative label
        # itself: the trainer checks whatever labels it is handed.
        (data.labels, data.labels2)[task][-1] = bad  # the last row: in a late batch of any epoch
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

    @pytest.mark.parametrize("head_classes", [(2, 2), (3, 2)], ids=["equal", "unequal"])
    def test_kappa_in_place_matches_apply_kappa_bitwise(self, monkeypatch, head_classes):
        import copy

        import mograd.optimize
        from mograd.optimize import _apply_kappa

        self.model = init_two_head_mlp(6, trunk_hidden=(12, 8), head_classes=head_classes, seed=1)
        raw, stepped = [], []

        def run(real, *args):
            out = real(*args)
            raw.append(copy.deepcopy(out))
            return out

        real_step = mograd.optimize._step

        def step(method, cfg, grads, what, arrays, where, k):
            stepped.append((grads.copy(), [a.copy() for a in arrays]))
            return real_step(method, cfg, grads, what, arrays, where, k)

        monkeypatch.setattr(mograd.optimize, "_step", step)
        self.train(monkeypatch, run, kappa=50.0)
        assert len(raw) == len(stepped) == 10
        for (losses, shared, heads), (grads, arrays) in zip(raw, stepped):
            want = _apply_kappa(losses, shared, heads, 50.0)
            assert_same_bits(grads, want[1])
            assert_same_bits(arrays[0], want[0])
            # both heads' gradients are checked as one vector, whatever their shapes
            assert len(arrays) == 2
            assert_same_bits(arrays[1], np.concatenate(want[2]))

    def test_trace_shares_no_memory_with_the_plan_buffer(self, monkeypatch):
        import mograd.neural

        buffers = []
        real_plan = mograd.neural._backward_plan

        def recorded_plan(layers, block):
            buffers.append(block)
            return real_plan(layers, block)

        monkeypatch.setattr(mograd.neural, "_backward_plan", recorded_plan)
        _, result = self.train(monkeypatch, lambda real, *args: real(*args), kappa=50.0)
        assert len(result.trace) == 2 and buffers
        for entry in result.trace:
            for a in (entry.losses, entry.weights):
                assert not any(np.shares_memory(a, b) for b in buffers)
        assert not any(np.shares_memory(result.final_point, b) for b in buffers)

    @pytest.mark.parametrize("head_classes", [(2, 2), (3, 2)], ids=["equal", "unequal"])
    @pytest.mark.parametrize("task", [0, 1])
    @pytest.mark.parametrize("kappa", [1.0, 50.0])
    def test_non_finite_head_gradient_names_its_epoch(self, monkeypatch, head_classes, task,
                                                      kappa):
        self.model = init_two_head_mlp(6, trunk_hidden=(12, 8), head_classes=head_classes, seed=1)
        calls = []

        def run(real, *args):
            out = real(*args)
            calls.append(None)
            if len(calls) == 7:  # the second batch of epoch 1
                out[2][task][-1] = np.inf
            return out

        with pytest.raises(NumericalError) as excinfo:
            self.train(monkeypatch, run, kappa=kappa)
        assert str(excinfo.value) == "non-finite loss or head gradient at epoch 1"

    @pytest.mark.parametrize("head_classes", [(2, 2), (3, 2)], ids=["equal", "unequal"])
    def test_run_leaves_the_shared_rows_where_the_pass_wrote_them(self, head_classes):
        """A copy of the shared rows per batch would set the peak: the trunk
        is wide and the batch is four rows."""
        import tracemalloc

        from mograd.neural import _two_task_plan, _two_task_run

        model = init_two_head_mlp(300, trunk_hidden=(300,), head_classes=head_classes, seed=0)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, 300))
        y1, y2 = rng.integers(0, 2, size=4), rng.integers(0, 2, size=4)
        plan = _two_task_plan(model, y1, y2)
        idx = np.arange(4)
        _two_task_run(model, X, idx, plan)
        tracemalloc.start()
        try:
            _, shared, _ = _two_task_run(model, X, idx, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert shared.shape == (2, model.n_shared) and shared.flags.c_contiguous
        assert peak < shared[0].nbytes
