"""Diagnostics: weighted decrement, trace metric, condition numbers, bounds."""

import numpy as np
import pytest

from lgbfgs import diagnostics, verify
from lgbfgs.correction import weighted_step_norm
from lgbfgs.data import synth_problem
from lgbfgs.diagnostics import (
    DiagnosticsError,
    contraction_residual,
    hessian_cholesky,
    newton_decrement,
    product_rate_bound,
    relative_condition_numbers,
    trace_metric,
)
from lgbfgs.objectives import QuadraticObjective
from lgbfgs.solvers import SolverConfig, run, warm_start


class TestNewtonDecrement:
    def test_zero_at_minimizer(self):
        obj = QuadraticObjective(np.array([2.0, 3.0]))
        assert newton_decrement(obj, np.zeros(2)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        obj = QuadraticObjective(np.array([1.0, 4.0]))
        assert newton_decrement(obj, np.ones(2)) == pytest.approx(np.sqrt(5.0))

    def test_spectral_bounds(self):
        rng = np.random.default_rng(0)
        obj = synth_problem("logistic", d=8, n=60, mu=1e-2, seed=1)
        mu, L = obj.info.mu, obj.info.lipschitz_L
        for _ in range(20):
            x = rng.standard_normal(8)
            _, g = obj.value_grad(x)
            gn = np.linalg.norm(g)
            lam = newton_decrement(obj, x)
            assert gn / np.sqrt(L) <= lam * (1 + 1e-10)
            assert lam <= gn / np.sqrt(mu) * (1 + 1e-10)

    def test_dense_and_cg_agree(self, monkeypatch):
        """Conjugate gradients, taken above ``DENSE_SOLVE_LIMIT`` dimensions,
        agree with the dense solve taken below it."""
        rng = np.random.default_rng(1)
        obj = synth_problem("logistic", d=60, n=200, mu=1e-2, seed=2)
        xs = [0.3 * rng.standard_normal(60) for _ in range(5)]
        dense = [newton_decrement(obj, x) for x in xs]
        monkeypatch.setattr(diagnostics, "DENSE_SOLVE_LIMIT", 59)
        cg = [newton_decrement(obj, x) for x in xs]
        assert dense == pytest.approx(cg, rel=1e-8)

    def test_given_cholesky_used_above_limit(self, monkeypatch):
        """A caller's Cholesky factor replaces conjugate gradients at any dimension."""
        obj = synth_problem("logistic", d=60, n=200, mu=1e-2, seed=2)
        x = 0.3 * np.random.default_rng(1).standard_normal(60)
        dense = newton_decrement(obj, x)
        chol = hessian_cholesky(obj.hess_matrix(x))
        calls = []
        hess_vec = obj.hess_vec
        monkeypatch.setattr(obj, "hess_vec", lambda *a: calls.append(a) or hess_vec(*a))
        monkeypatch.setattr(diagnostics, "DENSE_SOLVE_LIMIT", 59)
        assert newton_decrement(obj, x, chol=chol) == dense
        assert calls == []


class TestTraceMetric:
    def test_zero_at_exact_hessian(self):
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        assert trace_metric(obj, np.zeros(2), np.diag([1.0, 2.0])) == pytest.approx(0.0)

    def test_doubled_hessian_gives_dimension(self):
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        assert trace_metric(obj, np.zeros(2), np.diag([2.0, 4.0])) == pytest.approx(2.0)

    def test_hand_value(self):
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        assert trace_metric(obj, np.zeros(2), np.diag([2.0, 2.0])) == pytest.approx(1.0)


class TestRelativeConditionNumbers:
    def test_hand_case(self):
        betas, beta_min = relative_condition_numbers(np.array([1.0, 2.0, 4.0]), [0, 1])
        np.testing.assert_allclose(betas, [4.0, 2.0])
        assert beta_min == 2.0

    def test_full_basis_minimum_is_one(self):
        assert verify.check_beta_sanity(cases=50, seed=2).passed

    def test_bounded_by_condition_number(self):
        assert verify.check_beta_sanity(cases=50, seed=3).passed

    def test_subset_monotonicity(self):
        """Growing the subset can only shrink the minimal condition number."""
        rng = np.random.default_rng(4)
        for _ in range(30):
            d = 8
            a = rng.standard_normal((d, d))
            E = a @ a.T + 0.3 * np.eye(d)
            small = sorted(rng.choice(d, size=3, replace=False).tolist())
            extra = [i for i in range(d) if i not in small]
            big = small + extra[:2]
            _, beta_small = relative_condition_numbers(np.diag(E), small)
            _, beta_big = relative_condition_numbers(np.diag(E), big)
            assert beta_small >= beta_big - 1e-12

    def test_degenerate_inf_policy(self):
        """A vanished diagonal entry maps to +inf and drops out of the minimum;
        an error matrix with no positive diagonal entry gives +inf throughout."""
        betas, beta_min = relative_condition_numbers(np.array([1.0, 0.0]), [0, 1])
        assert betas[1] == np.inf
        assert beta_min == 1.0
        betas, beta_min = relative_condition_numbers(-np.ones(2), [0, 1])
        assert np.all(betas == np.inf) and beta_min == np.inf

    def test_matrix_input_rejected(self):
        """Only the diagonal is read, so a whole error matrix is refused rather
        than read as a wrong diagonal."""
        with pytest.raises(ValueError, match="1-D"):
            relative_condition_numbers(np.diag([1.0, 2.0, 4.0]), [0, 1])


def residual(obj, x, x_next, B, B_after, subset):
    """The contraction slack of a step from x to x_next, every row value formed
    from the matrices as the solver loop forms them."""
    hess, hess_next = obj.hess_matrix(x), obj.hess_matrix(x_next)
    phi = weighted_step_norm(obj, obj.at(x), obj.at(x_next))
    corr = 1.0 + obj.info.self_concordant_CM * phi
    _, beta = relative_condition_numbers(corr * np.diag(B) - np.diag(hess_next), subset)
    return contraction_residual(obj.info, B, hess, phi, beta, trace_metric(obj, x, B),
                                trace_metric(obj, x_next, B_after))


class TestContractionResidual:
    def test_exact_hessian_fixed_point(self):
        """Exact approximation and zero step: both sides vanish."""
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        B = np.diag([1.0, 2.0])
        x = np.ones(2)
        assert residual(obj, x, x, B, B, [0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_hypothesis_violation_flagged(self):
        """A B_before that does not dominate the Hessian has no residual."""
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        B_small = 0.5 * np.diag([1.0, 2.0])
        assert residual(obj, np.ones(2), np.ones(2), B_small, B_small, [0, 1]) is None

    def test_randomized_corrected_states(self):
        """Greedy update of a dominating approximation obeys the contraction."""
        from lgbfgs.kernels import dense_bfgs_update

        rng = np.random.default_rng(5)
        worst = -np.inf
        for _ in range(100):
            d = int(rng.integers(2, 7))
            eigs = rng.uniform(1.0, 5.0, size=d)
            obj = QuadraticObjective(eigs)
            x = rng.standard_normal(d)
            scale = float(rng.uniform(1.0, 3.0))
            B = scale * np.diag(eigs)  # dominates the Hessian
            subset = sorted(rng.choice(d, size=int(rng.integers(1, d + 1)),
                                       replace=False).tolist())
            # greedy pick over the subset, then a direct update
            ratios = np.diag(B)[subset] / eigs[subset]
            pick = subset[int(np.argmax(ratios))]
            s = np.zeros(d)
            s[pick] = 1.0
            r = obj.hess_column(x, pick)
            B_after = dense_bfgs_update(B, s, r)
            worst = max(worst, -residual(obj, x, x, B, B_after, subset))
        assert worst <= 1e-9


class TestSharedCholesky:
    def test_factor_stands_in_for_the_hessian(self):
        """Decrement and trace metric from one shared factor and the caller's
        gradient equal the ones that form their own, bit for bit."""
        obj = synth_problem("logistic", d=8, n=60, mu=1e-2, seed=1)
        x = np.random.default_rng(6).standard_normal(8)
        point = obj.at(x)
        chol = hessian_cholesky(obj.hess_matrix(point))
        B = 2.0 * obj.hess_matrix(x) + np.eye(8)
        grad = obj.value_grad(point)[1]
        assert newton_decrement(obj, point, grad=grad, chol=chol) == newton_decrement(obj, x)
        assert trace_metric(obj, point, B, chol=chol) == trace_metric(obj, x, B)

    def test_indefinite_hessian_raises(self):
        with pytest.raises(DiagnosticsError):
            hessian_cholesky(np.diag([1.0, -1.0]))


class TestRateBounds:
    """``product_rate_bound``: the decrement bound from logged condition numbers."""

    def test_zero_iteration_linear_bound_is_one(self):
        assert product_rate_bound([2.0, 3.0], mu=1.0, L=2.0, d=4, t0=0, t=0) == 1.0

    def test_superlinear_spot_value(self):
        """beta = 1 at both steps: (1 - mu/(dL))^(2 + 1) = (7/8)^3."""
        got = product_rate_bound([1.0, 1.0], mu=1.0, L=2.0, d=4, t0=0, t=2)
        assert got == pytest.approx(0.669921875)

    def test_superlinear_bound_monotone_in_t_and_cond(self):
        """The bound falls with t and rises with the logged condition numbers;
        an infinite one (converged error matrix) contributes the factor 1."""
        tight, loose = [1.0] * 10, [3.0] * 10
        prev = np.inf
        for t in range(10):
            val = product_rate_bound(tight, 1.0, 2.0, 4, 0, t)
            assert val <= prev
            assert val <= product_rate_bound(loose, 1.0, 2.0, 4, 0, t) + 1e-15
            prev = val
        assert product_rate_bound([np.inf] * 5, 1.0, 2.0, 4, 0, 5) == 1.0


class TestProductBoundOnInstrumentedRuns:
    """The logged-condition-number product bound against real decrement paths,
    through the registered ``verify.check_memory_rate_tradeoff``."""

    @pytest.mark.parametrize("tau,policy", [(10, "fixed_prefix"),
                                            (5, "fixed_prefix"), (5, "adaptive")])
    def test_bound_dominates_decrements(self, tau, policy):
        d = 10
        obj = synth_problem("quadratic", d=d, spectrum=np.linspace(1.0, 4.0, d),
                            seed=3, rotate=True)
        mu, L = obj.info.mu, obj.info.lipschitz_L
        x0 = warm_start(obj, np.ones(d), 12)
        # deep warm start puts the run inside the locality threshold
        assert newton_decrement(obj, x0) <= mu * np.log(2.0) / (4 * (2 * d + 1) * L)
        result = verify.check_memory_rate_tradeoff(d=d, hi=4.0, seed=3, k0=12, iters=50,
                                                   taus=(tau,), policies=(policy,))
        assert result.passed, result.render()
        if tau == d:
            # full basis: the subset always contains the maximal diagonal
            cfg = SolverConfig(method="lg_bfgs", tau=tau, max_iters=50, grad_tol=0.0,
                               correction="basic",
                               record_dense_diags=True, subset_policy=policy)
            betas = [r.beta_tau for r in run(obj, x0, cfg).records[:-1]]
            assert all(b == pytest.approx(1.0) or np.isinf(b) for b in betas)


class TestTriggerAndProductBound:
    def test_product_bound_matches_closed_form_for_constant_beta(self):
        mu, L, d = 1.0, 2.0, 4
        betas = [2.0] * 30
        t0, t = 3, 5
        got = product_rate_bound(betas, mu, L, d, t0, t)
        factor = 1.0 - mu / (2.0 * d * L)
        expected = (1.0 - mu / (2 * L)) ** t0 * factor ** (t * (t + 1) / 2.0)
        assert got == pytest.approx(expected)
