import itertools
import logging
import tracemalloc
import warnings

import numpy as np
import pytest

from mograd.direction import (
    ZERO_GRADIENT_THRESHOLD,
    GradientSet,
    bisector_two,
    edm_direction,
    mgda_direction,
    stationarity_residual,
)
from mograd.exceptions import NumericalError
from mograd.minnorm import FwConfig, frank_wolfe_min_norm, gram_matrix


def random_gradients(rng, T=None, d=None, spread=2.0):
    T = T or int(rng.integers(2, 9))
    d = d or int(rng.integers(3, 51))
    return rng.standard_normal((T, d)) * np.exp(rng.uniform(-spread, spread, (T, 1)))


def degenerate_gradient_sets(rng, T, d=40):
    """One seeded set of each family: generic, rank-deficient,
    duplicate/antiparallel and near-stationary, all rows nonzero."""
    scales = np.exp(rng.uniform(-2.0, 2.0, size=(T, 1)))
    generic = rng.standard_normal((T, d)) * scales
    rank3 = (rng.standard_normal((T, 3)) @ rng.standard_normal((3, d))) * scales
    base = rng.standard_normal(((T + 1) // 2, d))
    signs = np.where(rng.random((T + 1) // 2) < 0.5, -1.0, 1.0)[:, None]
    duplicate = np.concatenate([base, signs * rng.uniform(0.5, 2.0, ((T + 1) // 2, 1)) * base])
    near = rng.standard_normal((T, d)) * scales
    near -= rng.dirichlet(np.ones(T)) @ near
    near += 1e-7 * rng.standard_normal(d)
    return [generic, rank3, duplicate[rng.permutation(T)], near]


class TestGradientSet:
    def test_norms_and_gram(self):
        rng = np.random.default_rng(0)
        G = random_gradients(rng, T=5, d=20)
        gs = GradientSet.from_gradients(G)
        expected = np.linalg.norm(G, axis=1)
        assert np.all(np.abs(gs.norms - expected) <= 1e-12 * expected)
        gram = G @ G.T
        assert np.max(np.abs(gs.gram - gram)) <= 1e-12 * np.max(np.abs(gram))
        diag = np.diag(gs.gram)
        assert np.all(np.abs(gs.norms**2 - diag) <= 1e-15 * diag)

    def test_zero_rows_marked_inactive(self):
        gs = GradientSet.from_gradients([(0.0, 0.0), (1.0, 2.0)])
        assert list(gs.active) == [1]
        assert np.array_equal(gs.gram[0], np.zeros(2))

    def test_squared_norm_overflow_rejected(self):
        # every entry is finite, but the squared norm of row 0 is not
        for direction in (edm_direction, mgda_direction):
            with pytest.raises(NumericalError, match="gradient norm overflow"):
                direction([(1e155, 0.0), (0.0, 1.0)])


NON_FINITE = (np.nan, np.inf, -np.inf)
CERTIFIED_CALLS = (GradientSet.from_gradients, edm_direction, mgda_direction, stationarity_residual)


class TestCertifiedOnce:
    """The Gram matrix is built and checked once, in ``GradientSet``; the
    direction methods reuse it bitwise."""

    def shapes(self):
        rng = np.random.default_rng(11)
        for T, d in ((1, 5), (2, 3), (3, 40), (8, 5), (17, 200)):
            G = random_gradients(rng, T=T, d=d)
            yield G
            G = G.copy()
            G[rng.integers(T)] = 0.0
            yield G

    def test_gram_is_gram_matrix_bitwise(self):
        for G in self.shapes():
            assert np.array_equal(GradientSet.from_gradients(G).gram, gram_matrix(G))

    @pytest.mark.parametrize("direction", [edm_direction, mgda_direction])
    def test_array_and_gradient_set_give_the_same_result_bitwise(self, direction):
        for G in self.shapes():
            a = direction(G)
            b = direction(GradientSet.from_gradients(G))
            assert a.gamma == b.gamma and a.direction_norm == b.direction_norm
            for field in ("weights", "raw_direction", "normalized_direction", "support"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), field

    @pytest.mark.parametrize("direction", [edm_direction, mgda_direction])
    def test_non_finite_rows_still_rejected(self, direction):
        with pytest.raises(NumericalError, match="non-finite gradient entries"):
            direction([[1.0, np.nan], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NumericalError, match="gradient norm overflow"):
            direction([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]])


class TestDroppedObjectiveWarning:
    def test_one_warning_names_the_dropped_objectives(self, caplog):
        G = np.random.default_rng(12).standard_normal((5, 6))
        G[1] = 0.0
        G[3] = 0.5 * ZERO_GRADIENT_THRESHOLD / np.sqrt(6.0)
        with caplog.at_level(logging.DEBUG, logger="mograd"):
            res = edm_direction(G)
        assert [(r.name, r.levelno) for r in caplog.records] == [("mograd.direction", logging.WARNING)]
        assert "[1, 3]" in caplog.records[0].getMessage()
        assert res.weights[1] == 0.0 and res.weights[3] == 0.0

    def test_sets_with_every_objective_active_log_nothing(self, caplog):
        rng = np.random.default_rng(13)
        with caplog.at_level(logging.DEBUG, logger="mograd"):
            for _ in range(20):
                edm_direction(random_gradients(rng))
            for G in degenerate_gradient_sets(rng, 8):
                edm_direction(G)
        assert not caplog.records

    def test_all_zero_and_mgda_log_nothing(self, caplog):
        # With no active objective the result is the stationary point, and
        # mgda keeps zero rows in the hull: neither drops an objective.
        with caplog.at_level(logging.DEBUG, logger="mograd"):
            edm_direction([(0.0, 0.0), (0.0, 0.0)])
            mgda_direction([(0.0, 0.0), (0.0, 2.0), (1.0, 0.0)])
        assert not caplog.records


class TestCertifiedFiniteness:
    """A finite Gram matrix certifies every gradient entry; only a failed
    check scans the gradients, to name the cause."""

    @staticmethod
    def assert_rejected(G, positions):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for (i, j), value in itertools.product(positions, NON_FINITE):
                bad = G.copy()
                bad[i, j] = value
                for call in CERTIFIED_CALLS:
                    with pytest.raises(NumericalError, match="non-finite gradient entries"):
                        call(bad)

    @pytest.mark.parametrize("T", [1, 2, 3, 8])
    @pytest.mark.parametrize("d", [1, 2, 7])
    def test_every_position_of_small_sets(self, T, d):
        rng = np.random.default_rng(10 * T + d)
        G = rng.standard_normal((T, d))
        G[rng.random((T, d)) < 0.3] = 0.0  # 0 * inf makes NaN products as well
        self.assert_rejected(G, itertools.product(range(T), range(d)))

    def test_first_middle_and_last_column_of_a_wide_set(self):
        G = np.random.default_rng(1).standard_normal((4, 100_000))
        self.assert_rejected(G, itertools.product(range(4), (0, 50_000, 99_999)))

    def test_overflowing_row_does_not_hide_a_non_finite_row(self):
        self.assert_rejected(np.array([[1e155, 0.0], [0.5, 1.0]]), [(1, 0), (1, 1)])

    def test_build_makes_no_copy_of_the_gradients(self):
        G = np.random.default_rng(2).standard_normal((8, 200_000))
        tracemalloc.start()
        try:
            GradientSet.from_gradients(G)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # T*d bytes is the size of one boolean mask over G.
        assert peak < G.size


class TestEdmDirection:
    def test_orthogonal_pair(self):
        res = edm_direction([(2, 0), (0, 1)])
        assert np.allclose(res.weights, [0.5, 0.5], atol=1e-12)
        assert np.allclose(res.raw_direction, [0.5, 0.5], atol=1e-12)
        assert res.gamma == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert np.allclose(res.normalized_direction, [2 / 3, 2 / 3], atol=1e-12)

    def test_antipodal_pair_is_stationary(self):
        res = edm_direction([(1, 0), (-1, 0)])
        assert np.allclose(res.raw_direction, [0.0, 0.0], atol=1e-12)
        assert res.direction_norm <= 1e-12

    def test_single_gradient_reduces_to_gradient_descent(self):
        res = edm_direction([(3.0, 4.0)])
        assert np.array_equal(res.weights, np.array([1.0]))
        assert np.allclose(res.raw_direction, [0.6, 0.8], atol=1e-12)
        assert res.gamma == pytest.approx(5.0, abs=1e-12)
        assert np.allclose(res.normalized_direction, [3.0, 4.0], atol=1e-12)

    def test_all_zero_gradients_report_stationary(self):
        res = edm_direction([(0.0, 0.0), (0.0, 0.0)])
        assert res.direction_norm == 0.0
        assert np.array_equal(res.normalized_direction, np.zeros(2))
        assert res.support.size == 0

    def test_inactive_objective_gets_zero_weight(self):
        res = edm_direction([(0.0, 0.0), (0.0, 2.0)])
        assert res.weights[0] == 0.0
        assert np.allclose(res.normalized_direction, [0.0, 2.0], atol=1e-12)

    def test_equiangular_identity_on_support(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            G = random_gradients(rng)
            res = edm_direction(G)
            db = res.raw_direction
            nb2 = float(db @ db)
            for i in res.support:
                ng = float(np.linalg.norm(G[i]))
                assert abs(db @ G[i] - nb2 * ng) <= 1e-5 * max(1.0, ng)

    def test_min_norm_variational_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            G = random_gradients(rng)
            gs = GradientSet.from_gradients(G)
            res = edm_direction(gs)
            nb2 = float(res.raw_direction @ res.raw_direction)
            for i in gs.active:
                assert res.raw_direction @ (G[i] / gs.norms[i]) >= nb2 - 1e-6

    def test_matches_normalize_first_reference(self):
        # the min-norm point is unique where the weights need not be, so
        # compare directions
        rng = np.random.default_rng(9)
        for T in (2, 3, 8, 16, 32):
            for _ in range(3):
                for G in degenerate_gradient_sets(rng, T):
                    U = G / np.linalg.norm(G, axis=1)[:, None]
                    expected = frank_wolfe_min_norm(gram_matrix(U)).weights @ U
                    got = edm_direction(G).raw_direction
                    assert np.max(np.abs(got - expected)) <= 1e-12

    def test_solves_on_the_normalized_gram_bitwise(self):
        # weights are the solver's on M_ij / (||g_i|| ||g_j||) over the active
        # rows, and gamma is (sum_i beta_i / ||g_i||)^-1 over the positive
        # weights, to the last bit
        rng = np.random.default_rng(10)
        for trial in range(80):
            G = random_gradients(rng, T=int(rng.integers(2, 25)))
            if trial % 2:
                G[rng.random(G.shape[0]) < 0.3] = 0.0
            gs = GradientSet.from_gradients(G)
            act = gs.active
            if act.size == 0:
                continue
            n = gs.norms[act]
            sol = frank_wolfe_min_norm(gs.gram[np.ix_(act, act)] / np.outer(n, n))
            res = edm_direction(gs)
            assert np.array_equal(res.weights[act], sol.weights)
            nz = sol.weights > 0
            assert res.gamma == float(1.0 / np.sum(sol.weights[nz] / n[nz]))

    def test_scale_invariance_bitwise(self):
        # power-of-two rescalings keep the normalized Gram matrix bitwise identical
        rng = np.random.default_rng(3)
        for trial in range(120):
            G = random_gradients(rng, spread=1.0)
            if trial >= 100:
                G[rng.integers(G.shape[0])] = 0.0
            scales = 2.0 ** rng.integers(-20, 21, size=G.shape[0])
            base = edm_direction(G)
            scaled = edm_direction(G * scales[:, None])
            assert np.array_equal(base.weights, scaled.weights)
            assert np.array_equal(base.raw_direction, scaled.raw_direction)

    def test_two_gradient_consistency_with_bisector(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            G = random_gradients(rng, T=2, d=6)
            res = edm_direction(G)
            expected = bisector_two(G[0], G[1])
            assert np.max(np.abs(res.normalized_direction - expected)) <= 1e-6

    def test_equal_norm_pair_agrees_with_mgda(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g1 = rng.standard_normal(4)
            g2 = rng.standard_normal(4)
            g2 *= np.linalg.norm(g1) / np.linalg.norm(g2)
            G = np.stack([g1, g2])
            d_edm = edm_direction(G).normalized_direction
            d_mgda = mgda_direction(G).raw_direction
            assert np.max(np.abs(d_edm - d_mgda)) <= 1e-6


class TestMgdaDirection:
    def test_orthogonal_pair(self):
        res = mgda_direction([(2, 0), (0, 1)])
        assert np.allclose(res.weights, [0.2, 0.8], atol=1e-12)
        assert np.allclose(res.raw_direction, [0.4, 0.8], atol=1e-12)
        assert res.gamma is None
        assert np.array_equal(res.normalized_direction, res.raw_direction)

    def test_identical_gradients(self):
        res = mgda_direction([(1.0, 1.0), (1.0, 1.0)])
        assert np.allclose(res.raw_direction, [1.0, 1.0], atol=1e-12)

    def test_antipodal_is_stationary(self):
        res = mgda_direction([(1, 0), (-1, 0)])
        assert np.allclose(res.raw_direction, [0.0, 0.0], atol=1e-12)

    def test_interior_property(self):
        rng = np.random.default_rng(6)
        found = 0
        for _ in range(500):
            G = rng.standard_normal((int(rng.integers(2, 6)), int(rng.integers(3, 20))))
            res = mgda_direction(G)
            if np.all(res.weights > 1e-3):
                found += 1
                dh = res.raw_direction
                n2 = float(dh @ dh)
                for g in G:
                    assert abs(dh @ g - n2) <= 1e-5 * max(1.0, n2)
        assert found > 50


class TestBisector:
    def test_hand_example(self):
        out = bisector_two(np.array([2.0, 0.0]), np.array([0.0, 1.0]))
        assert np.allclose(out, [2 / 3, 2 / 3], atol=1e-12)

    def test_identical_gradients_map_to_themselves(self):
        out = bisector_two(np.array([0.0, 5.0]), np.array([0.0, 5.0]))
        assert np.allclose(out, [0.0, 5.0], atol=1e-12)

    def test_equal_norms_give_hull_midpoint(self):
        out = bisector_two(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.allclose(out, [0.5, 0.5], atol=1e-12)

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            bisector_two(np.zeros(2), np.array([1.0, 0.0]))


class TestStationarityResidual:
    def test_orthogonal_pair_recovery(self):
        residual, alpha = stationarity_residual([(2, 0), (0, 1)])
        assert np.allclose(alpha, [1 / 3, 2 / 3], atol=1e-10)
        assert residual == pytest.approx(2 * np.sqrt(2) / 3, abs=1e-10)

    def test_antipodal_pair_is_stationary(self):
        residual, alpha = stationarity_residual([(1, 0), (-1, 0)])
        assert residual <= 1e-12
        assert np.allclose(alpha, [0.5, 0.5], atol=1e-10)

    def test_zero_gradient_is_stationary(self):
        residual, alpha = stationarity_residual([(0.0, 0.0)])
        assert residual == 0.0
        assert np.array_equal(alpha, np.array([1.0]))

    def test_alpha_is_simplex(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            residual, alpha = stationarity_residual(random_gradients(rng))
            assert np.all(alpha >= 0)
            assert abs(alpha.sum() - 1.0) <= 1e-12
            assert residual >= 0

    def test_recovery_consistency_with_rescaled_direction(self):
        rng = np.random.default_rng(8)
        cfg = FwConfig()
        for _ in range(50):
            G = random_gradients(rng, spread=1.0)
            gs = GradientSet.from_gradients(G)
            if gs.active.size < gs.n_objectives:
                continue
            res = edm_direction(gs, cfg)
            _, alpha = stationarity_residual(gs, cfg)
            combo = alpha @ G
            assert np.max(np.abs(combo - res.gamma * res.raw_direction)) <= 1e-10
