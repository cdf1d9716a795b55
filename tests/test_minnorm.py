import itertools

import numpy as np
import pytest

from mograd.direction import edm_direction, mgda_direction
from mograd.exceptions import NumericalError
from mograd.minnorm import (
    FwConfig,
    combination_norm_sq,
    frank_wolfe_min_norm,
    fw_line_search,
    gram_matrix,
)


def random_psd(rng, T):
    A = rng.standard_normal((T, rng.integers(1, T + 3)))
    return gram_matrix(A)


def relative_gap(M, w):
    """Duality gap ``w'Mw - min(Mw)`` of the simplex QP over the largest diagonal entry."""
    Mw = M @ w
    return max(float(w @ Mw - Mw.min()), 0.0) / float(np.max(np.diag(M)))


def hard_gradient_sets(rng, T, d=60):
    """One seeded set of each degenerate family, as ``(name, G)`` pairs."""
    scales = np.exp(rng.uniform(-2.0, 2.0, size=(T, 1)))
    rank4 = (rng.standard_normal((T, 4)) @ rng.standard_normal((4, d))) * scales
    base = rng.standard_normal((T // 2, d))
    signs = np.where(rng.random(T // 2) < 0.5, -1.0, 1.0)[:, None]
    duplicate = np.concatenate([base, signs * rng.uniform(0.5, 2.0, (T // 2, 1)) * base])
    near = rng.standard_normal((T, d)) * scales
    near -= rng.dirichlet(np.ones(T)) @ near
    near += 1e-7 * rng.standard_normal(d)
    wide = rng.standard_normal((T, 5)) * scales
    return [
        ("rank_deficient", rank4),
        ("duplicate", duplicate[rng.permutation(T)]),
        ("near_stationary", near),
        ("more_objectives_than_dims", wide),
    ]


def kkt_oracle(M):
    """Best feasible point over the optimality systems of every support.

    On each support S the bordered system ``[M_SS 1; 1' 0] [x; mu] = [0; 1]``
    gives the minimizer over the affine hull of S (by pseudo-inverse, so
    affinely dependent supports work too); the simplex optimum is the best
    such point with nonnegative weights.
    """
    T = M.shape[0]
    best = np.inf
    for k in range(1, T + 1):
        supports = np.array(list(itertools.combinations(range(T), k)))
        bordered = np.ones((len(supports), k + 1, k + 1))
        bordered[:, :k, :k] = M[supports[:, :, None], supports[:, None, :]]
        bordered[:, k, k] = 0.0
        x = np.linalg.pinv(bordered)[:, :k, k]
        values = np.einsum("ni,nij,nj->n", x, bordered[:, :k, :k], x)
        feasible = np.all(x >= 0.0, axis=1) & (np.abs(x.sum(axis=1) - 1.0) <= 1e-9)
        if np.any(feasible):
            best = min(best, float(values[feasible].min()))
    return best


class TestGramMatrix:
    def test_orthonormal_basis(self):
        M = gram_matrix([(1, 0), (0, 1)])
        assert np.array_equal(M, np.eye(2))

    def test_single_vector(self):
        assert np.array_equal(gram_matrix([(1, 0)]), np.array([[1.0]]))

    def test_hand_inner_products(self):
        M = gram_matrix([(2, 0), (1, 0)])
        assert np.array_equal(M, np.array([[4.0, 2.0], [2.0, 1.0]]))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        M = gram_matrix(rng.standard_normal((6, 40)))
        assert np.array_equal(M, M.T)

    def test_entries_near_float_max_stay_finite(self):
        M = gram_matrix([(1e154, 0.0), (0.0, 1e154), (1e154, 0.0)])
        assert np.array_equal(M, 1e308 * np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1]]))

    def test_unit_vectors_have_unit_diagonal(self):
        rng = np.random.default_rng(1)
        G = rng.standard_normal((5, 9))
        U = G / np.linalg.norm(G, axis=1, keepdims=True)
        assert np.all(np.abs(np.diag(gram_matrix(U)) - 1.0) <= 1e-12)

    def test_positive_semidefinite_on_random_simplex_points(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            M = random_psd(rng, int(rng.integers(1, 7)))
            w = rng.dirichlet(np.ones(M.shape[0]))
            assert w @ M @ w >= -1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gram_matrix([np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])])


class TestCombinationNormSq:
    def test_orthonormal_half_half(self):
        assert combination_norm_sq(np.eye(2), np.array([0.5, 0.5])) == pytest.approx(0.5)

    def test_single(self):
        assert combination_norm_sq(np.array([[1.0]]), np.array([1.0])) == 1.0

    def test_antipodal_midpoint_is_zero(self):
        M = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert combination_norm_sq(M, np.array([0.5, 0.5])) == 0.0

    def test_tiny_negative_clamped(self):
        M = np.array([[1.0, -1.0], [-1.0, 1.0 - 1e-17]])
        assert combination_norm_sq(M, np.array([0.5, 0.5])) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            combination_norm_sq(np.eye(2), np.ones(3) / 3)


class TestLineSearch:
    def test_orthonormal_from_vertex(self):
        # minimize (1-eta)^2 + eta^2 over eta
        assert fw_line_search(np.eye(2), np.array([1.0, 0.0]), 1) == pytest.approx(0.5)

    def test_already_optimal(self):
        assert fw_line_search(np.eye(2), np.array([0.5, 0.5]), 0) == 0.0

    def test_dominating_vertex_takes_full_step(self):
        M = np.array([[100.0, 10.0], [10.0, 1.0]])
        assert fw_line_search(M, np.array([1.0, 0.0]), 1) == 1.0

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            fw_line_search(np.eye(2), np.array([0.5, 0.5]), 2)

    def test_matches_grid_search_on_random_psd(self):
        # all three closed-form regimes must appear across the instances
        rng = np.random.default_rng(3)
        etas = np.arange(0.0, 1.0 + 1e-12, 1e-4)
        seen = {0.0: 0, 1.0: 0, -1.0: 0}
        for _ in range(200):
            T = int(rng.integers(2, 6))
            M = random_psd(rng, T)
            w = rng.dirichlet(np.ones(T))
            target = int(rng.integers(0, T))
            eta = fw_line_search(M, w, target)
            seen[eta if eta in (0.0, 1.0) else -1.0] += 1

            e = np.zeros(T)
            e[target] = 1.0
            pts = np.outer(1 - etas, w) + np.outer(etas, e)
            values = np.einsum("ij,jk,ik->i", pts, M, pts)
            eta_grid = etas[int(np.argmin(values))]
            assert abs(eta - eta_grid) <= 1e-3
        assert all(count > 0 for count in seen.values())


class TestFrankWolfe:
    def test_orthonormal_pair_splits_evenly(self):
        res = frank_wolfe_min_norm(gram_matrix([(1, 0), (0, 1)]))
        assert np.allclose(res.weights, [0.5, 0.5], atol=1e-12)

    def test_colinear_pair_picks_shorter(self):
        res = frank_wolfe_min_norm(gram_matrix([(10, 0), (1, 0)]))
        assert np.allclose(res.weights, [0.0, 1.0], atol=1e-12)

    def test_single_vector_immediate(self):
        res = frank_wolfe_min_norm(np.array([[1.0]]))
        assert np.array_equal(res.weights, np.array([1.0]))
        assert res.iterations == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            frank_wolfe_min_norm(np.empty((0, 0)))

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(NumericalError):
            frank_wolfe_min_norm(np.array([[np.inf, 1.0], [1.0, 1.0]]))

    def test_weights_satisfy_simplex_invariants(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            M = random_psd(rng, int(rng.integers(1, 8)))
            w = frank_wolfe_min_norm(M).weights
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_objective_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            M = random_psd(rng, int(rng.integers(2, 8)))
            res = frank_wolfe_min_norm(M)
            assert np.all(np.diff(res.objectives) <= 1e-15)

    def test_two_vector_unit_pair_closed_form(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            u = rng.standard_normal(5)
            v = rng.standard_normal(5)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            res = frank_wolfe_min_norm(gram_matrix([u, v]))
            assert np.max(np.abs(res.weights - 0.5)) <= 1e-6

    def test_grid_oracle_t2_t3(self):
        rng = np.random.default_rng(7)
        b1 = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        grid2 = np.stack([b1, 1 - b1], axis=1)
        grid3 = np.array(
            [
                (a, b, 1 - a - b)
                for a in np.arange(0.0, 1.0 + 1e-12, 1e-2)
                for b in np.arange(0.0, 1.0 - a + 1e-12, 1e-2)
            ]
        )
        for trial in range(30):
            T = 2 if trial % 2 == 0 else 3
            M = random_psd(rng, T)
            obj = combination_norm_sq(M, frank_wolfe_min_norm(M).weights)
            grid = grid2 if T == 2 else grid3
            grid_min = float(np.min(np.einsum("ij,jk,ik->i", grid, M, grid)))
            assert obj <= grid_min + 1e-4

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(8)
        M = random_psd(rng, 6)
        cfg = FwConfig(tolerance=1e-10, max_iters=500)
        a = frank_wolfe_min_norm(M, cfg)
        b = frank_wolfe_min_norm(M, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert a.last_eta == b.last_eta
        assert a.iterations == b.iterations

    def test_exposes_last_step_size(self):
        res = frank_wolfe_min_norm(gram_matrix([(1, 0), (0, 1)]))
        assert res.last_eta <= FwConfig().tolerance


class TestCertificate:
    @pytest.mark.parametrize("T", [8, 16, 32])
    def test_relative_gap_at_round_off_on_degenerate_sets(self, T):
        rng = np.random.default_rng(100 + T)
        for _ in range(6):
            for name, G in hard_gradient_sets(rng, T):
                norms = np.linalg.norm(G, axis=1)
                unit_gram = gram_matrix(G / norms[:, None])
                for M in (gram_matrix(G), unit_gram):
                    assert relative_gap(M, frank_wolfe_min_norm(M).weights) <= 1e-12, name
                assert relative_gap(G @ G.T, mgda_direction(G).weights) <= 1e-12, name
                assert relative_gap(unit_gram, edm_direction(G).weights) <= 1e-12, name

    def test_matches_kkt_enumeration_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(120):
            T = int(rng.integers(2, 9))
            sets = [G for _, G in hard_gradient_sets(rng, 8)]
            sets.append(rng.standard_normal((T, int(rng.integers(2, 12)))))
            for G in sets:
                M = gram_matrix(G)
                solver = combination_norm_sq(M, frank_wolfe_min_norm(M).weights)
                assert abs(solver - kkt_oracle(M)) <= 1e-12 * float(np.max(np.diag(M)))

    def test_exhausted_budget_reports_gap_above_tolerance(self):
        rng = np.random.default_rng(102)
        M = gram_matrix(rng.standard_normal((8, 20)))
        cfg = FwConfig(max_iters=1)
        res = frank_wolfe_min_norm(M, cfg)
        assert res.iterations == 1
        assert res.last_eta > cfg.tolerance
        assert res.last_eta == pytest.approx(relative_gap(M, res.weights), rel=1e-9)


class TestFwConfig:
    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            FwConfig(tolerance=0.0)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            FwConfig(max_iters=0)
