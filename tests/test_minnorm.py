import itertools
import logging
from fractions import Fraction

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mograd.direction import edm_direction, mgda_direction
from mograd.exceptions import NumericalError
from mograd.minnorm import (
    FwConfig,
    _affine_minimizer,
    _bordered,
    _support_start,
    _minor_cycles,
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


def support_chain(M):
    """The end of the top-down chain, ``(corral, beta)``, as ``frank_wolfe_min_norm``
    builds it, or None when the chain leaves no warm point."""
    scale = float(np.max(np.diag(M)))
    return _support_start(*_bordered(M, scale), scale)


def support_start(M):
    """The chain's weights when the default gap test certifies its point, so
    that the solve answers with no major cycle; otherwise None."""
    chain = support_chain(M)
    if chain is None:
        return None
    beta = chain[1]
    Mb = M @ beta
    gap = max(float(beta @ Mb) - float(Mb.min()), 0.0) / float(np.max(np.diag(M)))
    return beta / beta.sum() if gap <= FwConfig().tolerance else None


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


def fraction_solve(A, b):
    """Solution of the square system ``A x = b`` in ``Fraction`` arithmetic, or
    None when A is singular (Gauss-Jordan elimination, exact)."""
    n = len(b)
    rows = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * q for a, q in zip(rows[r], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def exact_oracle(M):
    """The simplex optimum of the float matrix M, in exact rational arithmetic.

    Every entry of M converts to a ``Fraction`` without rounding. On each
    support S the bordered system ``[M_SS 1; 1' 0] [x; mu] = [0; 1]`` is
    solved exactly; its x minimizes ``x' M_SS x`` over the affine hull of S,
    at the value ``-mu``. The optimum is the nonnegative x of least value.
    Supports whose system is singular are skipped; a positive definite M
    has none. Returns the T weights as ``Fraction``s.
    """
    T = M.shape[0]
    F = [[Fraction(v) for v in row] for row in M.tolist()]
    one, zero = Fraction(1), Fraction(0)
    best = None
    for k in range(1, T + 1):
        for S in itertools.combinations(range(T), k):
            A = [[F[i][j] for j in S] + [one] for i in S] + [[one] * k + [zero]]
            sol = fraction_solve(A, [zero] * k + [one])
            if sol is None or min(sol[:k]) < 0:
                continue
            if best is None or -sol[k] < best[0]:
                weights = [zero] * T
                for i, v in zip(S, sol):
                    weights[i] = v
                best = (-sol[k], weights)
    return best[1]


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


class TestInputChecks:
    """The public entry points validate their input; the direction methods,
    whose ``GradientSet`` has already certified it, call the unchecked cores."""

    @pytest.mark.parametrize("bad, message", [
        ([[1.0, 2.0], [3.0]], "all vectors must share the same dimension"),
        ([], r"got shape \(1, 0\)"),
        (np.zeros((0, 3)), r"got shape \(0, 3\)"),
        (np.zeros((3, 0)), r"got shape \(3, 0\)"),
        (np.ones((2, 2, 2)), r"got shape \(2, 2, 2\)"),
    ])
    def test_gram_matrix_rejects_malformed_input(self, bad, message):
        with pytest.raises(ValueError, match=message):
            gram_matrix(bad)

    def test_gram_matrix_passes_nan_through(self):
        M = gram_matrix([[1.0, np.nan], [0.0, 1.0]])
        assert np.isnan(M[0]).all() and M[1, 1] == 1.0

    @pytest.mark.parametrize("bad, error, message", [
        ([[1.0, 2.0], [3.0]], ValueError, "inhomogeneous"),
        (np.ones((2, 3)), ValueError, r"expected a square matrix, got shape \(2, 3\)"),
        ([1.0, 2.0], ValueError, r"expected a square matrix, got shape \(2,\)"),
        ([], ValueError, r"expected a square matrix, got shape \(0,\)"),
        (np.zeros((0, 0)), ValueError, "need at least one vector"),
        ([[1.0, np.nan], [np.nan, 1.0]], NumericalError, "non-finite Gram matrix entries"),
        (np.diag([1.0, np.inf, 1.0]), NumericalError, "non-finite Gram matrix entries"),
    ])
    def test_solver_rejects_malformed_input(self, bad, error, message):
        with pytest.raises(error, match=message):
            frank_wolfe_min_norm(bad)


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

    @staticmethod
    def exhausted_budget_gram():
        """Eight Gaussian rows with the first one copied in front: LU meets
        an exact zero pivot, so the chain leaves no warm point and the major
        cycles run from a vertex."""
        G = np.random.default_rng(102).standard_normal((8, 20))
        M = gram_matrix(np.concatenate([G[:1], G]))
        assert support_chain(M) is None
        return M

    def test_exhausted_budget_reports_gap_above_tolerance(self):
        M = self.exhausted_budget_gram()
        cfg = FwConfig(max_iters=1)
        res = frank_wolfe_min_norm(M, cfg)
        assert res.iterations == 1
        assert res.last_eta > cfg.tolerance
        assert res.last_eta == pytest.approx(relative_gap(M, res.weights), rel=1e-9)

    def test_exhausted_budget_logs_one_warning(self, caplog):
        M = self.exhausted_budget_gram()
        with caplog.at_level(logging.DEBUG, logger="mograd"):
            frank_wolfe_min_norm(M, FwConfig(max_iters=1))
        assert [(r.name, r.levelno) for r in caplog.records] == [("mograd.minnorm", logging.WARNING)]
        assert "max_iters=1" in caplog.records[0].getMessage()

    def test_default_solve_logs_nothing(self, caplog):
        rng = np.random.default_rng(103)
        with caplog.at_level(logging.DEBUG, logger="mograd"):
            frank_wolfe_min_norm(self.exhausted_budget_gram())
            for _, G in hard_gradient_sets(rng, 8):
                frank_wolfe_min_norm(gram_matrix(G))
        assert not caplog.records


class TestFwConfig:
    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            FwConfig(tolerance=0.0)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            FwConfig(max_iters=0)


class TestDefaultTolerance:
    def test_default_solve_meets_the_1e12_certificate(self):
        # Hull weights spread over decades (Dirichlet 0.3) on 40 of the 48
        # rows, so one major cycle lands just under a 1e-10 gap: the old
        # default stopped there. The other 8 rows leave the optimum on a
        # proper face, and a copy of row 0 keeps the support start from
        # answering, so the major cycles run.
        rng = np.random.default_rng(0)
        G = rng.standard_normal((48, 200)) * np.exp(rng.uniform(-2.0, 2.0, size=(48, 1)))
        G -= rng.dirichlet(np.full(40, 0.3)) @ G[:40]
        G += 1e-7 * rng.standard_normal(200)
        M = gram_matrix(np.concatenate([G, G[:1]]))
        assert support_start(M) is None
        assert relative_gap(M, frank_wolfe_min_norm(M, FwConfig(tolerance=1e-10)).weights) > 1e-12
        res = frank_wolfe_min_norm(M)
        assert relative_gap(M, res.weights) <= 1e-12
        assert np.any(res.weights == 0.0)


def near_duplicate_rows(rng, T, d):
    """Rows that copy one another up to a 1e-14 relative perturbation."""
    base = rng.standard_normal((T // 2, d)) * np.exp(rng.uniform(-2.0, 2.0, (T // 2, 1)))
    G = np.concatenate([base, base[rng.integers(T // 2, size=T - T // 2)]])
    G *= 1.0 + 1e-14 * rng.standard_normal(G.shape)
    return G[rng.permutation(T)]


def near_stationary_rows(rng, T, d):
    """T rows in d dimensions whose hull passes within 1e-7 of the origin."""
    G = rng.standard_normal((T, d)) * np.exp(rng.uniform(-2.0, 2.0, (T, 1)))
    G -= rng.dirichlet(np.ones(T)) @ G
    return G + 1e-7 * rng.standard_normal(d)


def unit_rows(G):
    return G / np.linalg.norm(G, axis=1, keepdims=True)


@pytest.fixture
def lstsq_calls(monkeypatch):
    """Counts the least-squares fallbacks of the bordered solve."""
    calls = []
    lstsq = np.linalg.lstsq

    def spy(*args, **kwargs):
        calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    return calls


@pytest.fixture
def lu_solves(monkeypatch):
    """Counts the LU solves (``np.linalg.solve`` calls) of the bordered systems."""
    calls = []
    solve = np.linalg.solve

    def spy(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", spy)
    return calls


def bordered_lstsq(M_SS, scale):
    k = M_SS.shape[0]
    A = np.full((k + 1, k + 1), scale)
    A[:k, :k] = M_SS
    A[k, k] = 0.0
    rhs = np.zeros(k + 1)
    rhs[k] = scale
    return np.linalg.lstsq(A, rhs, rcond=None)[0][:k]


class TestFallback:
    def test_stress_sets_certified_and_fallback_fires(self, lstsq_calls):
        # Above round-off, Wolfe's method keeps the corral affinely
        # independent, so LU suffices. A tolerance below round-off lets in
        # vertices whose gain is rounding noise, which is where
        # near-dependent corrals form and the fallback is needed.
        rng = np.random.default_rng(0)
        for _ in range(12):
            for make, d in ((near_duplicate_rows, 3), (near_stationary_rows, 1), (near_stationary_rows, 3)):
                G = make(rng, 12, d)
                unit = G / np.linalg.norm(G, axis=1)[:, None]
                for M in (gram_matrix(G), gram_matrix(unit)):
                    for cfg in (FwConfig(), FwConfig(tolerance=1e-300)):
                        assert relative_gap(M, frank_wolfe_min_norm(M, cfg).weights) <= 1e-12, make.__name__
        assert len(lstsq_calls) >= 1

    def test_overflowed_residual_falls_back(self, lstsq_calls):
        # Entries near the float max: LU's elimination overflows and its
        # finite answer fails the residual test; least squares rescales.
        G = np.array([[1.0, 0.2, 0.0], [-0.9, 0.3, 0.1], [0.1, -1.0, 0.2], [0.0, 0.1, -1.0]]) * 1e154
        M = gram_matrix(G)
        assert np.all(np.isfinite(M))
        res = frank_wolfe_min_norm(M)
        assert len(lstsq_calls) >= 1
        assert relative_gap(M, res.weights) <= 1e-12
        small = frank_wolfe_min_norm(gram_matrix(G * 1e-154))
        assert np.max(np.abs(res.weights - small.weights)) <= 1e-12

    def test_entering_vertex_below_gram_resolution(self):
        # Rows 0 and 1 differ by 1.5e-19 in one entry, a distance the Gram
        # matrix cannot resolve, yet row 1 is closer to row 2 by a relative
        # gap of 3e-11. The affine solve then gives the entering row 1 no
        # weight; without the swap step the solve cycles to its cap.
        a = 2.0**-30
        G = np.array([[0.0, a, a], [-1.5e-19, a, a], [a, a, a]])
        n = np.sqrt(np.diag(gram_matrix(G)))
        unit_gram = gram_matrix(G) / np.outer(n, n)
        res = frank_wolfe_min_norm(unit_gram)
        assert relative_gap(unit_gram, res.weights) <= 1e-12
        assert res.iterations <= 3
        assert relative_gap(unit_gram, edm_direction(G).weights) <= 1e-12

    def test_exactly_singular_corral_returns_lstsq_minimizer(self, lstsq_calls):
        # Rows 0 and 1 of the bordered system are identical, so LU meets an
        # exact zero pivot.
        M_SS = gram_matrix([(3.0, 4.0), (3.0, 4.0), (0.0, 2.0)])
        y = _affine_minimizer(*_bordered(M_SS, 25.0), np.arange(4), 25.0)
        assert len(lstsq_calls) == 1
        assert np.array_equal(y, bordered_lstsq(M_SS, 25.0))
        assert abs(y.sum() - 1.0) <= 1e-12
        best = min(combination_norm_sq(M_SS, w) for w in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])))
        assert float(y @ M_SS @ y) <= best + 1e-12

    def test_well_conditioned_corral_takes_lu(self, lstsq_calls):
        M_SS = gram_matrix(np.random.default_rng(9).standard_normal((4, 6)))
        scale = float(M_SS.diagonal().max())
        y = _affine_minimizer(*_bordered(M_SS, scale), np.arange(5), scale)
        assert not lstsq_calls
        assert np.max(np.abs(y - bordered_lstsq(M_SS, scale))) <= 1e-12


class TestRoundOffFloor:
    def test_tolerance_below_round_off_stops_short_of_the_cap(self):
        # With d < T the hull nearly touches the origin and no gap test can
        # fire at 1e-300. A major cycle that does not lower the objective
        # ends the solve; two of these sets used to circle at the 1e-16
        # level until the 500-cycle cap.
        rng = np.random.default_rng(0)
        cfg = FwConfig(tolerance=1e-300)
        for _ in range(200):
            T = int(rng.integers(3, 12))
            M = gram_matrix(near_stationary_rows(rng, T, int(rng.integers(1, T))))
            res = frank_wolfe_min_norm(M, cfg)
            scale = float(np.max(np.diag(M)))
            assert res.iterations < cfg.max_iters
            assert relative_gap(M, res.weights) <= 1e-12
            assert np.all(np.diff(res.objectives) <= 0.0)
            assert len(res.objectives) == res.iterations + 1
            assert abs(res.objectives[-1] - combination_norm_sq(M, res.weights)) <= 4 * np.finfo(float).eps * scale


class TestTwoObjectives:
    """T=2 runs as one exact line search from the vertex with smaller M_ii."""

    @pytest.mark.parametrize("M, weights", [
        ([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0]),
        ([[2.0, 2.0], [2.0, 2.0]], [1.0, 0.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
    ])
    def test_diagonal_tie_starts_at_smallest_index(self, M, weights):
        res = frank_wolfe_min_norm(np.array(M))
        assert np.array_equal(res.weights, weights)

    @pytest.mark.parametrize("rows, weights", [
        ([(1.0, 0.0), (2.0, 0.0)], [1.0, 0.0]),
        ([(2.0, 0.0), (1.0, 0.0)], [0.0, 1.0]),
        ([(1.0, 0.0), (1.0, 1.0)], [1.0, 0.0]),
        ([(0.0, 0.0), (1.0, 2.0)], [1.0, 0.0]),
        ([(1.0, 2.0), (0.0, 0.0)], [0.0, 1.0]),
    ])
    def test_stops_at_vertex_when_cross_term_dominates(self, rows, weights):
        M = gram_matrix(rows)
        res = frank_wolfe_min_norm(M)
        assert np.array_equal(res.weights, weights)
        assert res.iterations == 0
        assert res.last_eta == 0.0
        assert np.array_equal(res.objectives, [M.diagonal().min()])

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 3.0), (5.0, 0.25), (1e-3, 1e3)])
    def test_antiparallel_rows_reach_zero(self, a, b):
        u = np.array([0.6, -0.8, 0.0])
        M = gram_matrix([a * u, -b * u])
        res = frank_wolfe_min_norm(M)
        assert np.max(np.abs(res.weights - [b / (a + b), a / (a + b)])) <= 1e-15
        assert relative_gap(M, res.weights) <= 1e-12
        assert res.objectives[-1] <= 1e-15 * max(a, b) ** 2

    @pytest.mark.parametrize("scales", [(1e150, 1e150), (1e-150, 1e-150), (1e150, 1.0), (1e-150, 1.0)])
    def test_extreme_magnitudes(self, scales):
        rng = np.random.default_rng(11)
        for _ in range(20):
            G = rng.standard_normal((2, 3))
            scaled = G * np.array(scales)[:, None]
            M = gram_matrix(scaled)
            res = frank_wolfe_min_norm(M)
            assert relative_gap(M, res.weights) <= 1e-12
            if scales[0] == scales[1]:
                ref = frank_wolfe_min_norm(gram_matrix(G)).weights
                assert np.max(np.abs(res.weights - ref)) <= 1e-14

    def test_matches_kkt_enumeration_oracle(self):
        rng = np.random.default_rng(12)
        for trial in range(300):
            G = rng.standard_normal((2, int(rng.integers(1, 6)))) * np.exp(rng.uniform(-3.0, 3.0, (2, 1)))
            if trial % 3 == 0:
                G[1] = -rng.uniform(0.1, 10.0) * G[0] + 1e-3 * rng.standard_normal(G.shape[1])
            M = gram_matrix(G)
            res = frank_wolfe_min_norm(M)
            assert res.iterations <= 1
            solver = combination_norm_sq(M, res.weights)
            assert abs(solver - kkt_oracle(M)) <= 1e-12 * float(np.max(np.diag(M)))

    @staticmethod
    def loop_reference(M, tolerance):
        """The T=2 solve as the general loop runs it: start at the vertex with
        the smaller ``M_ii``, test the gap on ``M @ beta``, take one
        ``fw_line_search`` toward ``argmin(M @ beta)``, then normalize."""
        diag = np.diag(M)
        scale = float(diag.max())
        s = int(np.argmin(diag))
        beta = np.zeros(2)
        beta[s] = 1.0
        Mb = M @ beta
        j = int(np.argmin(Mb))
        gap = max(float(beta @ Mb) - float(Mb[j]), 0.0) / scale if scale > 0.0 else 0.0
        if gap <= tolerance or j == s:
            return beta / beta.sum(), 0
        eta = fw_line_search(M, beta, j)
        beta[s] = 1.0 - eta
        beta[j] = eta
        return beta / beta.sum(), 1

    @staticmethod
    def reference_pairs(rng):
        """Seeded 2x2 inputs from the families where the closed form branches."""
        def unit_gram(G):
            M = gram_matrix(G)
            n = np.sqrt(np.diag(M))
            return M / (n[:, None] * n)

        for trial in range(300):
            d = int(rng.integers(1, 6))
            u, v = rng.standard_normal((2, d))
            a, b = np.exp(rng.uniform(-3.0, 3.0, 2))
            families = [
                np.stack([u, v]),
                np.stack([a * u, a * v * (np.linalg.norm(u) / np.linalg.norm(v))]),  # diagonal near-tie
                np.stack([u, np.zeros(d)]),
                np.stack([np.zeros(d), v]),
                np.stack([a * u, -b * u]),  # antiparallel
                np.stack([u, b * u + 1e-3 * v]),  # cross term dominates one side
                np.stack([u, v]) * np.array([[1e150], [1e150]]),
                np.stack([u, v]) * np.array([[1e-150], [1e-150]]),
                np.stack([u, v]) * np.array([[1e150], [1.0]]),
                np.stack([u, v]) * np.array([[1.0], [1e-150]]),
            ]
            for G in families:
                yield gram_matrix(G)
                if np.all(np.linalg.norm(G, axis=1) > 0.0):
                    yield unit_gram(G)
            c = rng.standard_normal()
            yield np.array([[a, c], [c, a]])  # exact diagonal tie
            yield np.zeros((2, 2))
            yield gram_matrix(np.stack([u, u]))
            # Non-symmetric inputs, PSD-like and arbitrary: the solver reads column s.
            yield gram_matrix(np.stack([u, v])) + 0.3 * rng.standard_normal((2, 2)) * np.array([[0, 1], [1, 0]])
            yield rng.standard_normal((2, 2))

    @pytest.mark.parametrize("tolerance", [1e-12, 1e-3])
    def test_closed_form_matches_the_loop_bitwise(self, tolerance):
        rng = np.random.default_rng(14)
        cfg = FwConfig(tolerance=tolerance)
        for M in self.reference_pairs(rng):
            res = frank_wolfe_min_norm(M, cfg)
            weights, iterations = self.loop_reference(M, tolerance)
            assert np.array_equal(res.weights, weights), M
            assert res.iterations == iterations, M
            assert len(res.objectives) == iterations + 1

    def test_objectives_trace_the_solve(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            M = gram_matrix(rng.standard_normal((2, int(rng.integers(1, 6)))) * np.exp(rng.uniform(-3.0, 3.0, (2, 1))))
            res = frank_wolfe_min_norm(M)
            scale = float(np.max(np.diag(M)))
            assert len(res.objectives) == res.iterations + 1
            assert res.objectives[0] == np.min(np.diag(M))
            assert np.all(np.diff(res.objectives) <= 0.0)
            assert abs(res.objectives[-1] - combination_norm_sq(M, res.weights)) <= 4 * np.finfo(float).eps * scale


class TestSupportStart:
    """For T >= 3 the solver first works top down from all T vertices."""

    @staticmethod
    def vertex_start_reference(M):
        """The default solve without the start: Wolfe's major cycles from the
        vertex with the smallest ``M_ii``, as ``frank_wolfe_min_norm`` runs them."""
        cfg = FwConfig()
        T = M.shape[0]
        diag = np.diag(M)
        scale = float(diag.max())
        bordered, rhs = _bordered(M, scale)
        corral = [int(np.argmin(diag))]
        beta = np.zeros(T)
        beta[corral[0]] = 1.0
        objectives = []
        iterations = 0
        kept = None
        while True:
            Mb = M @ beta
            j = int(np.argmin(Mb))
            objective = float(beta @ Mb)
            gap = max(objective - float(Mb[j]), 0.0) / scale if scale > 0.0 else 0.0
            if kept is not None and gap > cfg.tolerance and objective >= kept[1]:
                beta, _, gap = kept
                iterations -= 1
                break
            objectives.append(max(objective, 0.0))
            if gap <= cfg.tolerance or j in corral or iterations == cfg.max_iters:
                break
            corral.append(j)
            iterations += 1
            kept = (beta.copy(), objective, gap)
            _minor_cycles(M, bordered, rhs, beta, corral, scale)
        return beta / beta.sum(), iterations, np.asarray(objectives)

    @staticmethod
    def interior_grams(rng):
        """Sets whose optimum puts weight on every row: unit rows in 500
        dimensions (nearly orthogonal), and near-stationary sets, raw and
        normalized, with d = 2T and d = 500."""
        for T in (3, 4, 5, 8, 13, 21, 32):
            yield gram_matrix(unit_rows(rng.standard_normal((T, 500))))
            for d in (2 * T, 500):
                G = near_stationary_rows(rng, T, d)
                yield gram_matrix(G)
                yield gram_matrix(unit_rows(G))

    @staticmethod
    def face_grams(rng):
        """Sets whose optimum has unique weights and mostly lies on a proper
        face, as ``(name, M)``: unit rows in 500 dimensions plus one row
        along their sum, which the optimum gives no weight, and raw Gaussian
        rows with scales ``e^U(-2, 2)`` in d = 2T and d = 1000 dimensions."""
        for T in (8, 13, 21, 32):
            U = unit_rows(rng.standard_normal((T, 500)))
            yield "unit_plus_sum", gram_matrix(np.concatenate([U, [5.0 * U.sum(axis=0)]]))
            for d in (2 * T, 1000):
                yield "generic", gram_matrix(rng.standard_normal((T, d)) * np.exp(rng.uniform(-2.0, 2.0, (T, 1))))

    @staticmethod
    def degenerate_grams(rng):
        """Sets whose optimal weights are not unique: duplicate and
        antiparallel rows, rank 4 and T > d, raw and normalized."""
        for T in (8, 16, 32):
            for name, G in hard_gradient_sets(rng, T):
                if name != "near_stationary":
                    yield gram_matrix(G)
                    yield gram_matrix(unit_rows(G))

    @staticmethod
    def exact_duplicate_grams(rng):
        """Gram matrices of raw and normalized Gaussian rows, T <= 6, with one
        row and column repeated exactly. LU usually meets an exact zero pivot
        then, and the chain leaves no warm point; when round-off in the
        elimination breaks the tie, the chain drops one of the copies."""
        for T in (3, 4, 5, 6) * 2:
            G = rng.standard_normal((T, 2 * T)) * np.exp(rng.uniform(-2.0, 2.0, (T, 1)))
            ix = rng.permutation(np.append(np.arange(T), rng.integers(T)))
            for M in (gram_matrix(G), gram_matrix(unit_rows(G))):
                yield M[ix[:, None], ix]

    def warm_grams(self, rng):
        """Face and degenerate sets whose chain ends on a point that only the
        gap test rejects, so the major cycles start from it."""
        grams = itertools.chain((M for _, M in self.face_grams(rng)), self.degenerate_grams(rng))
        for M in grams:
            if support_chain(M) is not None and support_start(M) is None:
                yield M

    def test_interior_sets_take_the_start_certified(self, lstsq_calls, lu_solves):
        rng = np.random.default_rng(30)
        for M in self.interior_grams(rng):
            before = len(lu_solves)
            res = frank_wolfe_min_norm(M)
            assert len(lu_solves) - before == 1
            weights, iterations, objectives = self.vertex_start_reference(M)
            assert res.iterations == 0 and iterations > 0
            assert np.all(res.weights > 0.0)
            assert relative_gap(M, res.weights) <= 1e-12
            assert res.last_eta <= 1e-12
            assert np.max(np.abs(res.weights - weights)) <= 1e-12
            assert abs(res.objectives[-1] - objectives[-1]) <= 1e-12 * float(np.max(np.diag(M)))
        assert not lstsq_calls

    def test_face_optima_take_the_start_certified(self):
        # Dropping every non-positive weight at once can drop a vertex that
        # the optimum keeps; the gap test then rejects the chain's point, and
        # the major cycles run from it (test_warm_started_sets_certified).
        # That happens on some raw sets with d = 2T, never with the summed row.
        rng = np.random.default_rng(34)
        answered = {"unit_plus_sum": 0, "generic": 0}
        total = {"unit_plus_sum": 0, "generic": 0}
        faces = 0
        for _ in range(3):
            for name, M in self.face_grams(rng):
                total[name] += 1
                if support_start(M) is None:
                    continue
                answered[name] += 1
                res = frank_wolfe_min_norm(M)
                weights, iterations, objectives = self.vertex_start_reference(M)
                assert res.iterations == 0 and iterations > 0
                assert np.array_equal(res.weights == 0.0, weights == 0.0)
                faces += bool(np.any(res.weights == 0.0))
                assert relative_gap(M, res.weights) <= 1e-12
                assert res.last_eta <= 1e-12
                assert np.max(np.abs(res.weights - weights)) <= 1e-12
                assert abs(res.objectives[-1] - objectives[-1]) <= 1e-12 * float(np.max(np.diag(M)))
        assert answered["unit_plus_sum"] == total["unit_plus_sum"]
        assert answered["generic"] >= 0.75 * total["generic"]
        assert faces >= 0.75 * sum(answered.values())

    def test_raw_generic_face_takes_at_most_two_solves(self, lu_solves, lstsq_calls):
        # Raw rows of unequal scale, as mgda sees them: the optimum drops
        # four rows, and one re-solve finds it. Some such sets need a third.
        rng = np.random.default_rng(30)
        M = gram_matrix(rng.standard_normal((32, 1000)) * np.exp(rng.uniform(-2.0, 2.0, (32, 1))))
        res = frank_wolfe_min_norm(M)
        assert len(lu_solves) <= 2
        assert not lstsq_calls
        assert res.iterations == 0 and np.any(res.weights == 0.0)
        assert relative_gap(M, res.weights) <= 1e-12

    def test_degenerate_sets_certified_whichever_path_answers(self):
        rng = np.random.default_rng(35)
        for _ in range(3):
            for M in self.degenerate_grams(rng):
                res = frank_wolfe_min_norm(M)
                _, _, objectives = self.vertex_start_reference(M)
                assert relative_gap(M, res.weights) <= 1e-12
                assert res.last_eta <= 1e-12
                assert abs(res.objectives[-1] - objectives[-1]) <= 1e-12 * float(np.max(np.diag(M)))

    def test_rejected_sets_match_the_vertex_start_bitwise(self):
        # A chain that leaves no warm point (an LU solve failed, or the
        # support emptied) hands the solve to the vertex start unchanged.
        rng = np.random.default_rng(31)
        rejected = 0
        for _ in range(3):
            grams = itertools.chain(
                (M for _, M in self.face_grams(rng)), self.degenerate_grams(rng), self.exact_duplicate_grams(rng)
            )
            for M in grams:
                if support_chain(M) is not None:
                    continue
                rejected += 1
                res = frank_wolfe_min_norm(M)
                weights, iterations, objectives = self.vertex_start_reference(M)
                assert np.array_equal(res.weights, weights)
                assert res.iterations == iterations
                assert np.array_equal(res.objectives, objectives)
        assert rejected >= 10, rejected

    def test_warm_started_sets_certified(self, lu_solves, lstsq_calls):
        # The major cycles run from the chain's corral and point, and end
        # certified without the vertex start. Over the sets that takes fewer
        # LU solves than the chain and the vertex start together; on some
        # small sets the vertex start alone needs fewer cycles.
        rng = np.random.default_rng(36)
        warm = 0
        solved = 0
        start = len(lu_solves)
        for _ in range(3):
            for M in self.warm_grams(rng):
                warm += 1
                before = len(lu_solves)
                res = frank_wolfe_min_norm(M)
                solved += len(lu_solves) - before
                support_chain(M)
                _, _, objectives = self.vertex_start_reference(M)
                assert relative_gap(M, res.weights) <= 1e-12
                assert res.last_eta <= 1e-12
                assert len(res.objectives) == res.iterations + 1
                assert res.iterations >= 1
                assert np.all(np.diff(res.objectives) <= 0.0)
                assert abs(res.objectives[-1] - objectives[-1]) <= 1e-12 * float(np.max(np.diag(M)))
        assert warm >= 10
        assert solved < len(lu_solves) - start - solved
        assert not lstsq_calls

    def test_solves_near_the_float_max_are_silent(self):
        # Scaled by a power of two to a largest entry near the float max, an
        # LU residual of the chain or of a minor cycle, or a gap, can
        # overflow. That only fails the test it feeds, so no floating-point
        # warning is raised (the suite turns them into errors), and every
        # start answers as certified as on the unscaled set.
        rng = np.random.default_rng(0)
        grams = list(itertools.chain(
            (M for _, M in self.face_grams(rng)), self.degenerate_grams(rng), self.exact_duplicate_grams(rng)
        ))
        for M in grams:
            for top in (1021, 1022, 1023):
                res = frank_wolfe_min_norm(M * 2.0 ** (top - np.frexp(np.max(np.abs(M)))[1]))
                assert relative_gap(M, res.weights) <= 1e-12
                assert res.last_eta <= 1e-12

    def test_start_makes_no_lstsq_call(self, lstsq_calls, lu_solves):
        rng = np.random.default_rng(32)
        grams = list(itertools.chain(
            self.interior_grams(rng), (M for _, M in self.face_grams(rng)), self.degenerate_grams(rng)
        ))
        # Rows 0 and 1 of the bordered system are identical: LU raises.
        singular = gram_matrix([(3.0, 4.0), (3.0, 4.0), (0.0, 2.0)])
        assert support_chain(singular) is None
        for M in grams:
            before = len(lu_solves)
            support_chain(M)
            assert len(lu_solves) - before <= M.shape[0]
        assert not lstsq_calls

    def test_objectives_trace_the_solve(self):
        rng = np.random.default_rng(33)
        grams = itertools.chain(
            self.interior_grams(rng), (M for _, M in self.face_grams(rng)), self.degenerate_grams(rng)
        )
        for M in grams:
            res = frank_wolfe_min_norm(M)
            assert len(res.objectives) == res.iterations + 1
            assert np.all(np.diff(res.objectives) <= 0.0)
            scale = float(np.max(np.diag(M)))
            assert abs(res.objectives[-1] - combination_norm_sq(M, res.weights)) <= 4 * np.finfo(float).eps * scale


class TestExactOracle:
    """Float weights against the rational KKT optimum of the same float M."""

    def test_weights_match_the_rational_optimum(self):
        # Raw rows with scales e^U(-2, 2) and their normalized rows, T <= 5,
        # d in [2T, 4T]: positive definite and well conditioned. The start
        # answers most T >= 3 sets (interior and face optima); the vertex
        # start answers the few where the chain is rejected.
        rng = np.random.default_rng(60)
        answered_by = {"two": 0, "start": 0, "start_face": 0, "loop": 0}
        for _ in range(25):
            for T in (2, 3, 4, 5):
                d = int(rng.integers(2 * T, 4 * T + 1))
                G = rng.standard_normal((T, d)) * np.exp(rng.uniform(-2.0, 2.0, (T, 1)))
                for M in (gram_matrix(G), gram_matrix(unit_rows(G))):
                    res = frank_wolfe_min_norm(M)
                    exact = exact_oracle(M)
                    assert max(abs(float(x - Fraction(w))) for x, w in zip(exact, res.weights.tolist())) <= 1e-12
                    if T == 2:
                        answered_by["two"] += 1
                    elif support_start(M) is None:
                        answered_by["loop"] += 1
                    else:
                        answered_by["start_face" if 0 in exact else "start"] += 1
        assert all(count > 0 for count in answered_by.values()), answered_by


class TestSubnormalGram:
    """Gram entries near 5e-324, where quartering a difference rounds it away."""

    def test_two_objective_solve(self):
        res = frank_wolfe_min_norm(np.array([[5e-324, 0.0], [0.0, 5e-324]]))
        assert np.array_equal(res.weights, [0.5, 0.5])

    def test_line_search(self):
        M = np.array([[5e-324, 0.0], [0.0, 5e-324]])
        assert fw_line_search(M, np.array([1.0, 0.0]), 1) == 0.5

    def test_mgda_direction(self):
        res = mgda_direction(np.array([[2.2e-162, 0.0], [0.0, 2.2e-162]]))
        assert np.array_equal(res.weights, [0.5, 0.5])

    def test_three_objectives_stay_finite(self):
        res = frank_wolfe_min_norm(np.diag([5e-324] * 3))
        assert np.all(np.isfinite(res.weights))
        assert np.all(res.weights >= 0.0)
        assert abs(res.weights.sum() - 1.0) <= 1e-15


@st.composite
def gradient_sets(draw):
    """Small gradient sets, some rows near-duplicates (1e-14) of others.

    Entries below 1e-100 become zero, so that no Gram entry is subnormal:
    there the Gram matrix itself carries fewer digits than the certificate.
    """
    T = draw(st.integers(1, 10))
    d = draw(st.integers(1, 8))
    entries = st.floats(-10.0, 10.0).map(lambda x: x if abs(x) > 1e-100 else 0.0)
    G = draw(hnp.arrays(float, (T, d), elements=entries))
    G *= draw(hnp.arrays(float, (T, 1), elements=st.sampled_from([2.0**k for k in range(-30, 31, 6)])))
    copies = draw(st.lists(st.tuples(st.integers(0, T - 1), st.integers(0, T - 1), st.floats(-1.0, 1.0)), max_size=T))
    for src, dst, eps in copies:
        G[dst] = G[src] * (1.0 + 1e-14 * eps)
    return G


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(gradient_sets())
    def test_simplex_invariants_and_certificate(self, G):
        M = gram_matrix(G)
        cfg = FwConfig()
        res = frank_wolfe_min_norm(M, cfg)
        assert np.all(res.weights >= 0.0)
        assert abs(res.weights.sum() - 1.0) <= 1e-12
        assert res.iterations <= cfg.max_iters
        if np.max(np.diag(M)) > 0.0:
            assert relative_gap(M, res.weights) <= cfg.tolerance
