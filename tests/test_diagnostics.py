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
from lgbfgs.solvers import METHODS, SolverConfig, run, warm_start


def decrement(obj, x):
    """The decrement at x from the objective's gradient and Hessian there."""
    p = obj.at(x)
    return newton_decrement(obj.value_grad(p)[1], hessian_cholesky(obj.hess_matrix(p)))


class TestNewtonDecrement:
    def test_zero_at_minimizer(self):
        obj = QuadraticObjective(np.array([2.0, 3.0]))
        assert decrement(obj, np.zeros(2)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        obj = QuadraticObjective(np.array([1.0, 4.0]))
        assert decrement(obj, np.ones(2)) == pytest.approx(np.sqrt(5.0))

    def test_spectral_bounds(self):
        rng = np.random.default_rng(0)
        obj = synth_problem("logistic", d=8, n=60, mu=1e-2, seed=1)
        mu, L = obj.info.mu, obj.info.lipschitz_L
        for _ in range(20):
            x = rng.standard_normal(8)
            _, g = obj.value_grad(obj.at(x))
            gn = np.linalg.norm(g)
            lam = decrement(obj, x)
            assert gn / np.sqrt(L) <= lam * (1 + 1e-10)
            assert lam <= gn / np.sqrt(mu) * (1 + 1e-10)

    def test_given_cholesky_used(self):
        """The decrement solves with the factor it is given: that of 4 H halves it."""
        obj = synth_problem("logistic", d=60, n=200, mu=1e-2, seed=2)
        x = obj.at(0.3 * np.random.default_rng(1).standard_normal(60))
        grad, hess = obj.value_grad(x)[1], obj.hess_matrix(x)
        assert newton_decrement(grad, hessian_cholesky(4.0 * hess)) == pytest.approx(
            0.5 * newton_decrement(grad, hessian_cholesky(hess)), rel=1e-12)


class TestTraceMetric:
    CHOL = hessian_cholesky(np.diag([1.0, 2.0]))

    def test_zero_at_exact_hessian(self):
        assert trace_metric(np.diag([1.0, 2.0]), self.CHOL) == pytest.approx(0.0)

    def test_doubled_hessian_gives_dimension(self):
        assert trace_metric(np.diag([2.0, 4.0]), self.CHOL) == pytest.approx(2.0)

    def test_hand_value(self):
        assert trace_metric(np.diag([2.0, 2.0]), self.CHOL) == pytest.approx(1.0)


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
    p, p_next = obj.at(x), obj.at(x_next)
    hess, hess_next = obj.hess_matrix(p), obj.hess_matrix(p_next)
    phi = weighted_step_norm(obj, p, p_next)
    corr = 1.0 + obj.info.self_concordant_CM * phi
    _, beta = relative_condition_numbers(corr * np.diag(B) - np.diag(hess_next), subset)
    return contraction_residual(obj.info, B, hess, phi, beta,
                                trace_metric(B, hessian_cholesky(hess)),
                                trace_metric(B_after, hessian_cholesky(hess_next)))


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
            r = obj.hess_column(obj.at(x), pick)
            B_after = dense_bfgs_update(B.copy(), s, r)
            worst = max(worst, -residual(obj, x, x, B, B_after, subset))
        assert worst <= 1e-9


class TestSharedCholesky:
    def test_factor_stands_in_for_the_hessian(self, monkeypatch):
        """``run`` factors the Hessian once per dense-diagnostics row for every
        method; each row's decrement and trace metric are those of that factor,
        bit for bit."""
        obj = synth_problem("logistic", d=8, n=60, mu=1e-2, seed=1)
        x0 = np.random.default_rng(6).standard_normal(8)
        factored = []

        def counting(hess):
            factored.append(hess)
            return hessian_cholesky(hess)

        p0 = obj.at(x0)
        chol = hessian_cholesky(obj.hess_matrix(p0))
        lambda_0 = newton_decrement(obj.value_grad(p0)[1], chol)
        # the seed 1/h0 for the default h0 = 1/L, as the steps build it
        sigma_0 = trace_metric(np.eye(8) / (1.0 / obj.info.lipschitz_L), chol)
        monkeypatch.setattr(diagnostics, "hessian_cholesky", counting)
        for method in METHODS:
            factored.clear()
            trace = run(obj, x0, SolverConfig(method=method, max_iters=3, grad_tol=0.0,
                                              record_dense_diags=True))
            assert len(factored) == len(trace.records) == 4, method
            first = trace.records[0]
            assert first.lambda_f == lambda_0, method
            assert first.sigma == (sigma_0 if method in ("greedy_bfgs", "lg_bfgs")
                                   else None), method

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
        assert decrement(obj, x0) <= mu * np.log(2.0) / (4 * (2 * d + 1) * L)
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
