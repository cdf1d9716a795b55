import numpy as np
import pytest

from mograd.problems import (
    QuadraticPair,
    ScaledProblem,
    finite_diff_gradient,
    pareto_set_distance,
)
from mograd.direction import stationarity_residual

PAIR = QuadraticPair(center1=np.array([-1.0, 0.0]), center2=np.array([1.0, 0.0]))


class TestQuadraticLosses:
    def test_at_first_center(self):
        losses, grads = PAIR(np.array([-1.0, 0.0]))
        assert losses[0] == 0.0
        assert np.array_equal(grads[0], np.zeros(2))

    def test_hand_values_off_segment(self):
        losses, grads = PAIR(np.array([0.0, 1.0]))
        assert np.allclose(losses, [1.0, 1.0], atol=1e-12)
        assert np.allclose(grads[0], [1.0, 1.0], atol=1e-12)
        assert np.allclose(grads[1], [-1.0, 1.0], atol=1e-12)

    def test_on_segment_antipodal_gradients(self):
        losses, grads = PAIR(np.array([0.0, 0.0]))
        assert np.allclose(grads[0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(grads[1], [-1.0, 0.0], atol=1e-12)
        residual, _ = stationarity_residual(grads)
        assert residual <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PAIR(np.zeros(3))

    def test_diagonal_scales(self):
        pair = QuadraticPair(
            center1=np.zeros(2), center2=np.ones(2), scale1=np.array([2.0, 3.0])
        )
        losses, grads = pair(np.array([1.0, 1.0]))
        assert losses[0] == pytest.approx(0.5 * (2 + 3))
        assert np.allclose(grads[0], [2.0, 3.0], atol=1e-12)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            QuadraticPair(np.zeros(2), np.ones(2), scale1=np.array([1.0, 0.0]))


class TestScaledLosses:
    def test_kappa_one_is_identity(self):
        sp = ScaledProblem(inner=PAIR, kappa=1.0)
        theta = np.array([0.3, -0.7])
        assert np.array_equal(sp(theta)[0], PAIR(theta)[0])
        assert np.array_equal(sp(theta)[1], PAIR(theta)[1])

    def test_kappa_ten_scales_target(self):
        sp = ScaledProblem(inner=PAIR, kappa=10.0)
        losses, grads = sp(np.array([0.0, 1.0]))
        assert losses[1] == pytest.approx(10.0)
        assert np.allclose(grads[1], [-10.0, 10.0], atol=1e-12)
        assert np.allclose(grads[0], [1.0, 1.0], atol=1e-12)

    def test_gradient_norm_homogeneity(self):
        sp = ScaledProblem(inner=PAIR, kappa=50.0)
        theta = np.array([0.4, 0.2])
        _, raw = PAIR(theta)
        _, scaled = sp(theta)
        assert np.linalg.norm(scaled[1]) == pytest.approx(50.0 * np.linalg.norm(raw[1]))

    def test_kappa_below_one_rejected(self):
        with pytest.raises(ValueError):
            ScaledProblem(inner=PAIR, kappa=0.5)


class TestFiniteDiff:
    def test_known_quadratic_gradient(self):
        grad = finite_diff_gradient(lambda t: 0.5 * float(t @ t), np.array([3.0, 4.0]))
        assert np.max(np.abs(grad - [3.0, 4.0])) <= 1e-8

    def test_constant_loss(self):
        grad = finite_diff_gradient(lambda t: 7.0, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(grad, np.zeros(3))

    def test_matches_quadratic_pair(self):
        theta = np.array([0.0, 1.0])
        grad = finite_diff_gradient(lambda t: PAIR(t)[0][0], theta)
        assert np.max(np.abs(grad - [1.0, 1.0])) <= 1e-8

    def test_gradient_oracle_agreement_at_random_points(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            theta = rng.uniform(-3, 3, size=2)
            _, grads = PAIR(theta)
            for i in range(2):
                fd = finite_diff_gradient(lambda t, i=i: PAIR(t)[0][i], theta)
                denom = max(np.linalg.norm(fd), 1e-12)
                assert np.linalg.norm(grads[i] - fd) / denom <= 1e-6

    def test_nonfinite_loss_raises(self):
        from mograd.exceptions import NumericalError

        with pytest.raises(NumericalError):
            finite_diff_gradient(lambda t: float("nan"), np.array([1.0]))


class TestParetoSetDistance:
    def test_on_segment(self):
        assert pareto_set_distance(PAIR, np.array([0.3, 0.0])) <= 1e-12

    def test_perpendicular_drop(self):
        assert pareto_set_distance(PAIR, np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_beyond_endpoint(self):
        assert pareto_set_distance(PAIR, np.array([2.0, 0.0])) == pytest.approx(1.0)

    def test_anisotropic_scales_rejected(self):
        pair = QuadraticPair(np.zeros(2), np.ones(2), scale1=np.array([2.0, 2.0]))
        with pytest.raises(ValueError):
            pareto_set_distance(pair, np.zeros(2))

    def test_residual_agrees_with_segment_membership(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            x = rng.uniform(-0.9, 0.9)
            on_segment = np.array([x, 0.0])
            off_segment = np.array([x, rng.uniform(0.1, 1.0)])
            for theta in (on_segment, off_segment):
                _, grads = PAIR(theta)
                residual, _ = stationarity_residual(grads)
                distance = pareto_set_distance(PAIR, theta)
                assert (residual <= 1e-8) == (distance <= 1e-8)
