import itertools
import re

import numpy as np
import pytest

from mograd.data import synth_two_task
from mograd.direction import GradientSet, edm_direction, mgda_direction
from mograd.exceptions import NumericalError
from mograd.neural import (
    MlpParams,
    _two_task_run,
    init_mlp,
    init_two_head_mlp,
    per_class_losses,
    two_task_gradients,
)
from mograd.minnorm import FwConfig, gram_matrix
from mograd.optimize import (
    METHODS,
    OptimizerConfig,
    _apply_kappa,
    run_edm,
    run_mgda,
    run_multitask,
    run_weighted_sum,
)
from mograd.problems import QuadraticPair, pareto_set_distance

PAIR = QuadraticPair(center1=np.array([-1.0, 0.0]), center2=np.array([1.0, 0.0]))


def scaled(problem, s):
    """``problem`` with loss k and gradient row k multiplied by ``s[k]``."""
    def call(theta):
        losses, grads = problem(theta)
        return losses * s, grads * s[:, None]
    return call


def cfg(**kwargs):
    defaults = dict(method="edm", learning_rate=0.1, max_iters=5000, stop_tolerance=1e-8)
    defaults.update(kwargs)
    return OptimizerConfig(**defaults)


class TestRunEdm:
    def test_converges_to_trade_off_segment(self):
        result = run_edm(PAIR, np.array([0.0, 1.0]), cfg())
        assert result.converged
        assert pareto_set_distance(PAIR, result.final_point) <= 1e-3
        assert result.stationarity <= 1e-7

    def test_stationary_start_converges_immediately(self):
        result = run_edm(PAIR, np.array([0.25, 0.0]), cfg())
        assert result.converged
        assert result.iterations_used == 0
        assert len(result.trace) == 1
        assert result.trace[0].direction_norm <= 1e-8

    @pytest.mark.parametrize("k", [1, 5, 20, 300])
    def test_power_of_two_scaled_loss_keeps_each_step_bitwise(self, k):
        # Scaling loss 2 by 2^k leaves a step's weights and raw direction
        # bitwise unchanged. gamma depends on the norms, so the trajectory
        # does not stay the same.
        theta0 = np.array([0.0, 1.0])
        problem = scaled(PAIR, np.array([1.0, 2.0**k]))
        base = run_edm(PAIR, theta0, cfg())
        run = run_edm(problem, theta0, cfg())
        assert np.array_equal(run.trace[0].weights, base.trace[0].weights)
        raw = edm_direction(problem(theta0)[1]).raw_direction
        assert np.array_equal(raw, edm_direction(PAIR(theta0)[1]).raw_direction)
        assert run.trace[0].gamma != base.trace[0].gamma

    def test_single_loss_reduces_to_gradient_descent(self):
        single = lambda theta: (np.array([0.5 * theta @ theta]), theta[None, :])
        result = run_edm(single, np.array([1.0]), cfg(learning_rate=0.5))
        assert abs(result.final_point[0]) <= 1e-6

    def test_every_iteration_decreases_every_loss(self):
        # tolerance high enough that each recorded step moves the losses
        # by more than double-precision resolution
        result = run_edm(PAIR, np.array([0.4, 1.3]), cfg(stop_tolerance=1e-5))
        assert result.converged
        losses = np.array([t.losses for t in result.trace])
        moving = [t.step_norm > 0 for t in result.trace]
        for k in range(len(losses) - 1):
            if moving[k]:
                assert np.all(losses[k + 1] < losses[k])

    def test_stopping_soundness(self):
        result = run_edm(PAIR, np.array([0.9, -0.4]), cfg(stop_tolerance=1e-6))
        assert result.converged
        assert result.stationarity <= 10 * 1e-6

    def test_trace_length_when_budget_exhausted(self):
        result = run_edm(PAIR, np.array([0.0, 1.0]), cfg(max_iters=7, stop_tolerance=1e-14))
        assert not result.converged
        assert result.iterations_used == 7
        assert len(result.trace) == 7

    def test_deterministic_traces(self):
        a = run_edm(PAIR, np.array([0.3, 0.8]), cfg(max_iters=50, stop_tolerance=1e-14))
        b = run_edm(PAIR, np.array([0.3, 0.8]), cfg(max_iters=50, stop_tolerance=1e-14))
        assert np.array_equal(a.final_point, b.final_point)
        for ta, tb in zip(a.trace, b.trace):
            assert np.array_equal(ta.losses, tb.losses)
            assert ta.direction_norm == tb.direction_norm
            assert ta.step_norm == tb.step_norm

    def test_nonfinite_problem_reports_iteration(self):
        def exploding(theta):
            losses, grads = PAIR(theta)
            if abs(theta[1]) < 0.95:  # fine at first, NaN afterwards
                losses = losses * np.nan
            return losses, grads

        with pytest.raises(NumericalError, match=r" at iteration \d+$"):
            run_edm(exploding, np.array([0.0, 1.0]), cfg())

    @pytest.mark.parametrize("run, extra", [
        (run_edm, {}),
        (run_mgda, {"method": "mgda"}),
        (run_weighted_sum, {"method": "weighted_sum", "weights": np.array([1.0, 1.0])}),
    ])
    def test_nonfinite_gradient_reports_iteration(self, run, extra):
        # The loop leaves the gradients to the GradientSet, which must still
        # stop the run with the iteration named.
        def poisoned(theta):
            losses, grads = PAIR(theta)
            if abs(theta[1]) < 0.95:
                grads[1, 0] = np.nan
            return losses, grads

        with pytest.raises(NumericalError) as excinfo:
            run(poisoned, np.array([0.0, 1.0]), cfg(**extra))
        named = re.fullmatch(r"non-finite gradient entries at iteration (\d+)", str(excinfo.value))
        assert named is not None and int(named[1]) >= 1

    def test_overflowing_weighted_sum_reports_iteration(self):
        # A finite Gram matrix bounds the edm and mgda directions, but not the
        # unnormalized w @ G: 1e300 * 1e10 overflows.
        def large(theta):
            losses, _ = PAIR(theta[:2])
            return losses, np.full((2, 3), 1e10)

        weights = np.array([1e300, 1e300])
        with pytest.raises(NumericalError, match=r"^non-finite direction at iteration 0$"):
            run_weighted_sum(large, np.zeros(3), cfg(method="weighted_sum", weights=weights))

    def test_gamma_recorded_in_trace(self):
        result = run_edm(PAIR, np.array([0.0, 1.0]), cfg(max_iters=3, stop_tolerance=1e-14))
        assert all(t.gamma is not None and t.gamma > 0 for t in result.trace)


class PerClassOracle:
    """Per-class summed cross-entropy of a small network on four imbalanced
    Gaussian classes: one loss, and one T=4 solve, per class and step."""

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        counts = (120, 20, 15, 10)
        means = 2.0 * rng.standard_normal((4, 3))
        self.X = np.concatenate([rng.standard_normal((n, 3)) + means[c] for c, n in enumerate(counts)])
        self.y = np.repeat(np.arange(4), counts)
        self.dims = [3, 8, 4]
        self.theta0 = init_mlp(self.dims, seed).flatten()
        self.grads = []

    def __call__(self, theta):
        losses, grads = per_class_losses(MlpParams.from_flat(theta, self.dims), self.X, self.y)
        self.grads.append(grads)
        return losses, grads


def step_gap(G, weights, normalize):
    """Relative duality gap of a step's weights on that step's Gram matrix."""
    M = gram_matrix(G)
    if normalize:
        n = np.sqrt(np.diag(M))
        M = M / np.outer(n, n)
    Mw = M @ weights
    return max(float(weights @ Mw - Mw.min()), 0.0) / float(np.max(np.diag(M)))


class TestFourClassLoop:
    """The T >= 3 solver inside a descent loop, on per-class losses."""

    @pytest.mark.parametrize("run, normalize", [(run_edm, True), (run_mgda, False)])
    def test_every_step_is_certified(self, run, normalize):
        oracle = PerClassOracle()
        result = run(oracle, oracle.theta0, cfg(learning_rate=0.01, max_iters=60, stop_tolerance=1e-12))
        assert len(result.trace) == 60
        for step, G in zip(result.trace, oracle.grads):
            assert G.shape[0] == 4 and np.all(np.linalg.norm(G, axis=1) > 0.0)
            assert step_gap(G, step.weights, normalize) <= 1e-12
        assert result.trace[-1].losses.sum() < result.trace[0].losses.sum()

    @pytest.mark.parametrize("k", [1, 9, 40])
    def test_edm_first_step_invariant_to_a_power_of_two_class_scale(self, k):
        oracle = PerClassOracle()
        one = cfg(learning_rate=0.01, max_iters=1, stop_tolerance=1e-12)
        base = run_edm(oracle, oracle.theta0, one)
        problem = scaled(oracle, np.array([1.0, 1.0, 2.0**k, 1.0]))
        run = run_edm(problem, oracle.theta0, one)
        assert np.array_equal(run.trace[0].weights, base.trace[0].weights)
        G = oracle(oracle.theta0)[1]
        raw = edm_direction(problem(oracle.theta0)[1]).raw_direction
        assert np.array_equal(raw, edm_direction(G).raw_direction)


class Buffered:
    """``problem`` behind one pair of output buffers, overwritten by every
    call (``reuse``), or behind fresh copies of its arrays."""

    def __init__(self, problem, reuse):
        self.problem, self.reuse = problem, reuse
        self.buffers = None

    def __call__(self, theta):
        losses, grads = self.problem(theta)
        if not self.reuse:
            return losses.copy(), grads.copy()
        if self.buffers is None:
            self.buffers = np.empty_like(losses), np.empty_like(grads)
        self.buffers[0][:], self.buffers[1][:] = losses, grads
        return self.buffers


class TestReusedOracleBuffers:
    """The oracle contract: a problem may return the same buffers from every call."""

    @pytest.mark.parametrize("run, method", [
        (run_edm, "edm"), (run_mgda, "mgda"), (run_weighted_sum, "weighted_sum")])
    def test_runs_match_fresh_copies_bitwise(self, run, method):
        config = cfg(method=method, learning_rate=0.01, max_iters=40, stop_tolerance=1e-12,
                     weights=np.array([1.0, 2.0, 3.0, 4.0]))
        oracle = PerClassOracle()
        reused = run(Buffered(oracle, reuse=True), oracle.theta0, config)
        fresh = run(Buffered(oracle, reuse=False), oracle.theta0, config)
        assert reused.final_point.tobytes() == fresh.final_point.tobytes()
        assert reused.stationarity == fresh.stationarity
        assert (reused.converged, reused.iterations_used) == (fresh.converged, fresh.iterations_used)
        assert len(reused.trace) == len(fresh.trace) == 40
        for r, f in zip(reused.trace, fresh.trace):
            assert r.losses.tobytes() == f.losses.tobytes()
            assert r.weights.tobytes() == f.weights.tobytes()
            assert (r.iteration, r.direction_norm, r.gamma, r.step_norm) == (
                f.iteration, f.direction_norm, f.gamma, f.step_norm)


class TestRunMgda:
    def test_converges_to_trade_off_segment(self):
        result = run_mgda(PAIR, np.array([0.5, -1.2]), cfg())
        assert result.converged
        assert pareto_set_distance(PAIR, result.final_point) <= 1e-3

    def test_equal_norm_start_matches_edm_first_step(self):
        # at (0, 1) both gradients have norm sqrt(2)
        start = np.array([0.0, 1.0])
        one = cfg(max_iters=1, stop_tolerance=1e-14)
        a = run_edm(PAIR, start, one)
        b = run_mgda(PAIR, start, one)
        assert np.max(np.abs(a.final_point - b.final_point)) <= 1e-6

    def test_stationary_start(self):
        result = run_mgda(PAIR, np.array([-0.6, 0.0]), cfg())
        assert result.converged
        assert result.iterations_used == 0

    def test_gamma_absent(self):
        result = run_mgda(PAIR, np.array([0.0, 1.0]), cfg(max_iters=2, stop_tolerance=1e-14))
        assert all(t.gamma is None for t in result.trace)


class TestUnitBowls:
    """T unit bowls ``L_i = ½‖θ − c_i‖²``. The gradients are ``θ − c_i``, so the
    optimal set is the hull of the centers, and ``mgda``'s direction norm at θ
    is the distance from θ to that hull."""

    @staticmethod
    def bowls(centers, seen=None):
        """The bowls' problem; each point it is called at is appended to ``seen``."""
        def problem(theta):
            if seen is not None:
                seen.append(theta.copy())
            G = theta - centers
            return 0.5 * np.einsum("ij,ij->i", G, G), G
        return problem

    @staticmethod
    def hull_distance(theta, centers):
        """The distance from θ to the hull of ``centers``. The nearest point of
        the hull is the nearest point of the affine hull of some set of
        centers, with nonnegative weights, so every set is tried."""
        best = np.inf
        for r in range(1, len(centers) + 1):
            for face in itertools.combinations(centers, r):
                base, D = face[0], np.array(face[1:]).reshape(r - 1, theta.size) - face[0]
                z = np.linalg.lstsq(D.T, theta - base, rcond=None)[0]
                if z.min(initial=0.0) >= -1e-12 and z.sum() <= 1.0 + 1e-12:
                    best = min(best, np.linalg.norm(theta - base - z @ D))
        return best

    @staticmethod
    def triangle_distance(theta, a, b, c):
        """The distance from θ to the triangle abc in the plane, in closed form."""
        def to_edge(p, q):
            t = np.clip((theta - p) @ (q - p) / ((q - p) @ (q - p)), 0.0, 1.0)
            return np.linalg.norm(theta - p - t * (q - p))

        edges = ((a, b), (b, c), (c, a))
        sides = [(q - p)[0] * (theta - p)[1] - (q - p)[1] * (theta - p)[0] for p, q in edges]
        if min(sides) >= 0.0 or max(sides) <= 0.0:
            return 0.0
        return min(to_edge(p, q) for p, q in edges)

    @pytest.mark.parametrize("T", [3, 4, 5])
    @pytest.mark.parametrize("run", [run_edm, run_mgda], ids=["edm", "mgda"])
    def test_end_points_lie_on_the_hull_of_the_centers(self, run, T):
        rng = np.random.default_rng(T)
        for d in (2, 5):
            for _ in range(3):
                centers = rng.uniform(-2.0, 2.0, size=(T, d))
                theta0 = rng.uniform(-3.0, 3.0, size=d)
                result = run(self.bowls(centers), theta0,
                             cfg(learning_rate=0.2, max_iters=10_000, stop_tolerance=1e-7))
                assert result.converged
                assert self.hull_distance(result.final_point, centers) <= 1e-3

    def test_mgda_direction_norm_is_the_distance_to_the_triangle(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            centers = rng.uniform(-2.0, 2.0, size=(3, 2))
            seen = []
            result = run_mgda(self.bowls(centers, seen), rng.uniform(-3.0, 3.0, size=2),
                              cfg(learning_rate=0.2, max_iters=10_000, stop_tolerance=1e-7))
            assert result.converged and len(result.trace) > 10
            for entry, theta in zip(result.trace, seen):
                dist = self.triangle_distance(theta, *centers)
                assert abs(entry.direction_norm - dist) <= 1e-12 * (1.0 + dist)
                assert abs(self.hull_distance(theta, centers) - dist) <= 1e-12 * (1.0 + dist)


class TestRunWeightedSum:
    def test_unit_weights_find_midpoint(self):
        result = run_weighted_sum(
            PAIR, np.array([0.7, 0.9]), cfg(method="weighted_sum", weights=np.array([1.0, 1.0]))
        )
        assert np.max(np.abs(result.final_point - [0.0, 0.0])) <= 1e-4

    def test_single_objective_limit(self):
        result = run_weighted_sum(
            PAIR,
            np.array([0.7, 0.9]),
            cfg(method="weighted_sum", weights=np.array([1.0, 0.0])),
        )
        assert np.max(np.abs(result.final_point - [-1.0, 0.0])) <= 1e-4

    def test_uneven_weights_find_weighted_centroid(self):
        result = run_weighted_sum(
            PAIR, np.array([0.0, 1.0]), cfg(method="weighted_sum", weights=np.array([1.0, 3.0]))
        )
        expected = (PAIR.center1 + 3.0 * PAIR.center2) / 4.0
        assert np.max(np.abs(result.final_point - expected)) <= 1e-4

    def test_missing_weights_rejected(self):
        with pytest.raises(ValueError):
            run_weighted_sum(PAIR, np.zeros(2), cfg(method="weighted_sum"))

    def test_trace_weights_are_normalized(self):
        result = run_weighted_sum(
            PAIR,
            np.array([0.0, 1.0]),
            cfg(method="weighted_sum", weights=np.array([1.0, 3.0]), max_iters=2,
                stop_tolerance=1e-14),
        )
        assert np.allclose(result.trace[0].weights, [0.25, 0.75], atol=1e-15)


class TestOptimizerConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="adam")

    def test_rejects_nonpositive_learning_rate(self):
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.0)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="weighted_sum", weights=np.array([1.0, -1.0]))

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="weighted_sum", weights=np.zeros(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_settings(self, value):
        with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
            OptimizerConfig(learning_rate=value)
        with pytest.raises(ValueError, match="stop_tolerance must be positive and finite"):
            OptimizerConfig(stop_tolerance=value)
        with pytest.raises(ValueError, match="weights must be a vector of finite"):
            OptimizerConfig(method="weighted_sum", weights=np.array([1.0, value]))


class TestMethodRegistry:
    @pytest.mark.parametrize("method", ["edm", "mgda", "weighted_sum", "sgd", "EDM", "adam", ""])
    def test_config_accepts_exactly_the_registry(self, method):
        if method in METHODS:
            assert OptimizerConfig(method=method).method == method
        else:
            with pytest.raises(ValueError, match="method must be one of"):
                OptimizerConfig(method=method)

    def test_registry_names_the_three_methods(self):
        assert set(METHODS) == {"edm", "mgda", "weighted_sum"}

    @pytest.mark.parametrize(
        "method, direction", [("edm", edm_direction), ("mgda", mgda_direction)]
    )
    def test_solver_entries_match_their_direction_bitwise(self, method, direction):
        rng = np.random.default_rng(4)
        fw = FwConfig(tolerance=1e-11)
        for T in (2, 3, 6):
            gs = GradientSet.from_gradients(rng.normal(size=(T, 9)))
            got = METHODS[method](gs, OptimizerConfig(method=method, fw=fw))
            want = direction(gs, fw)
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.normalized_direction, want.normalized_direction)
            assert got.gamma == want.gamma

    def test_weighted_sum_entry(self):
        rng = np.random.default_rng(5)
        G = rng.normal(size=(4, 7))
        w = np.array([2.0, 0.0, 0.5, 1.5])
        res = METHODS["weighted_sum"](
            GradientSet.from_gradients(G), OptimizerConfig(method="weighted_sum", weights=w)
        )
        assert np.array_equal(res.raw_direction, w @ G)
        assert np.array_equal(res.normalized_direction, w @ G)
        assert np.array_equal(res.weights, w / w.sum())
        assert res.gamma is None
        assert np.array_equal(res.support, [0, 2, 3])
        assert res.direction_norm == float(np.sqrt((w @ G) @ (w @ G)))

    def test_weighted_sum_builds_no_gram_matrix(self, monkeypatch):
        import mograd.direction

        def no_gram(G):
            raise AssertionError("the weighted sum formed a Gram matrix")

        rng = np.random.default_rng(6)
        sets = [GradientSet.from_gradients(rng.normal(size=(T, 7))) for T in (1, 2, 4)]
        monkeypatch.setattr(mograd.direction, "_gram", no_gram)
        for gs in sets:
            w = rng.uniform(0.0, 2.0, size=gs.n_objectives)
            config = OptimizerConfig(method="weighted_sum", weights=w)
            got = METHODS["weighted_sum"](gs.gradients, config)
            want = METHODS["weighted_sum"](gs, config)
            for field in ("weights", "raw_direction", "normalized_direction", "support"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
            assert got.direction_norm == want.direction_norm and got.gamma is None
        one = METHODS["weighted_sum"](np.arange(3.0), OptimizerConfig(
            method="weighted_sum", weights=np.array([2.0])))
        assert np.array_equal(one.raw_direction, [0.0, 2.0, 4.0])
        with pytest.raises(ValueError, match=r"expected \(T, d\) gradients"):
            METHODS["weighted_sum"](np.ones((2, 0)), OptimizerConfig(
                method="weighted_sum", weights=np.ones(2)))

    def test_weighted_sum_needs_only_a_finite_sum(self):
        # Row 0's squared norm overflows, so no GradientSet can be built, but
        # the weighted sum and its norm are finite: the step is taken.
        G = np.array([[1e200, -1e200, 0.0], [1.0, 2.0, 3.0]])
        with pytest.raises(NumericalError, match="gradient norm overflow"):
            GradientSet.from_gradients(G)
        w = np.array([1e-250, 1.0])
        res = METHODS["weighted_sum"](G, OptimizerConfig(method="weighted_sum", weights=w))
        assert np.array_equal(res.raw_direction, w @ G)
        assert res.direction_norm == float(np.sqrt((w @ G) @ (w @ G)))

    def test_weighted_sum_norm_overflow_raises(self):
        G = np.full((2, 3), 1e200)  # w @ G is finite, its squared norm is not
        config = OptimizerConfig(method="weighted_sum", weights=np.ones(2))
        with pytest.raises(NumericalError, match=r"^direction norm overflow$"):
            METHODS["weighted_sum"](G, config)
        with pytest.raises(NumericalError, match=r"^direction norm overflow at iteration 0$"):
            run_weighted_sum(lambda theta: (np.ones(2), G), np.zeros(3), config)

    def test_weighted_sum_length_mismatch_rejected(self):
        gs = GradientSet.from_gradients(np.eye(2))
        wrong = OptimizerConfig(method="weighted_sum", weights=np.ones(3))
        with pytest.raises(ValueError, match="3 weights do not match 2 objectives"):
            METHODS["weighted_sum"](gs, wrong)
        with pytest.raises(ValueError, match="3 weights do not match 2 objectives"):
            run_weighted_sum(PAIR, np.zeros(2), wrong)


class TestRunMultitask:
    def setup_method(self):
        self.data = synth_two_task(300, 6, seed=0)
        self.model = init_two_head_mlp(6, trunk_hidden=(12, 8), head_classes=(2, 2), seed=1)

    def test_losses_decrease_over_first_epochs(self):
        trained, result = run_multitask(
            self.model,
            self.data,
            cfg(learning_rate=0.01, max_iters=5, stop_tolerance=1e-14),
            batch_size=30,
        )
        losses = np.array([t.losses for t in result.trace])
        assert losses.shape == (5, 2)
        assert np.all(losses[-1] < losses[0])

    def test_zero_epoch_run_returns_model_unchanged(self):
        trained, result = run_multitask(
            self.model, self.data, cfg(max_iters=0), batch_size=30
        )
        assert np.array_equal(trained.flatten(), self.model.flatten())
        assert result.trace == []
        assert result.iterations_used == 0

    def test_input_model_unchanged_after_training(self):
        before = self.model.flatten()
        trained, _ = run_multitask(
            self.model,
            self.data,
            cfg(learning_rate=0.01, max_iters=2, stop_tolerance=1e-14),
            batch_size=30,
        )
        assert np.array_equal(self.model.flatten(), before)
        assert not np.array_equal(trained.flatten(), before)

    def test_loss_scale_invariant_first_direction(self):
        X, y1, y2 = self.data.features, self.data.labels, self.data.labels2
        losses, shared, heads = two_task_gradients(self.model, X[:64], y1[:64], y2[:64])
        d_base = edm_direction(shared).normalized_direction
        _, shared_scaled, _ = _apply_kappa(losses, shared, heads, 50.0)
        d_scaled = edm_direction(shared_scaled).normalized_direction
        cosine = (d_base @ d_scaled) / (np.linalg.norm(d_base) * np.linalg.norm(d_scaled))
        assert abs(cosine - 1.0) <= 1e-10

    def test_deterministic(self):
        run = lambda: run_multitask(
            self.model, self.data, cfg(learning_rate=0.01, max_iters=2, seed=3,
                                       stop_tolerance=1e-14), batch_size=50
        )
        (m1, r1), (m2, r2) = run(), run()
        assert np.array_equal(m1.flatten(), m2.flatten())
        assert np.array_equal(r1.trace[0].losses, r2.trace[0].losses)

    @pytest.mark.parametrize("part, message", [
        ("shared", "non-finite gradient entries at epoch 1"),
        ("head", "non-finite loss or head gradient at epoch 1"),
    ])
    def test_nonfinite_gradient_reports_epoch(self, monkeypatch, part, message):
        calls = itertools.count(1)

        def poisoned(*args):
            losses, shared, heads = _two_task_run(*args)
            if next(calls) == 13:  # the third of ten batches in epoch 1
                (shared if part == "shared" else heads[1])[0, ...] = np.nan
            return losses, shared, heads

        monkeypatch.setattr("mograd.optimize._two_task_run", poisoned)
        with pytest.raises(NumericalError) as excinfo:
            run_multitask(
                self.model,
                self.data,
                cfg(learning_rate=0.01, max_iters=3, stop_tolerance=1e-14),
                batch_size=30,
            )
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("kappa", [0.5, np.nan, np.inf])
    def test_kappa_below_one_or_non_finite_rejected(self, kappa):
        with pytest.raises(ValueError, match="kappa must be >= 1 and finite"):
            run_multitask(self.model, self.data, cfg(), kappa=kappa)

    def test_requires_two_labels(self):
        from mograd.data import synth_imbalanced

        single = synth_imbalanced(20, 10, 4, 2.0, seed=0)
        with pytest.raises(ValueError):
            run_multitask(self.model, single, cfg())

    def test_mgda_and_weighted_sum_methods_run(self):
        for method, extra in [("mgda", {}), ("weighted_sum", {"weights": np.array([1.0, 1.0])})]:
            trained, result = run_multitask(
                self.model,
                self.data,
                cfg(method=method, learning_rate=0.01, max_iters=2,
                    stop_tolerance=1e-14, **extra),
                batch_size=50,
            )
            assert len(result.trace) == 2
