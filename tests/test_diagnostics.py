"""Diagnostics: weighted decrement, trace metric, condition numbers, bounds."""

import math

import numpy as np
import pytest

from lgbfgs.data import synth_problem
from lgbfgs.diagnostics import (
    DiagnosticsError,
    RateParams,
    contraction_residual,
    newton_decrement,
    product_rate_bound,
    rate_bounds,
    relative_condition_numbers,
    superlinear_trigger,
    trace_metric,
)
from lgbfgs.objectives import QuadraticObjective


class TestNewtonDecrement:
    def test_zero_at_minimizer(self):
        obj = QuadraticObjective(np.array([2.0, 3.0]), offset=np.array([2.0, 3.0]))
        assert newton_decrement(obj, np.ones(2)) == pytest.approx(0.0, abs=1e-12)

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

    def test_dense_and_cg_agree(self):
        rng = np.random.default_rng(1)
        obj = synth_problem("logistic", d=60, n=200, mu=1e-2, seed=2)
        for _ in range(5):
            x = 0.3 * rng.standard_normal(60)
            dense = newton_decrement(obj, x, method="dense")
            cg = newton_decrement(obj, x, method="cg")
            assert dense == pytest.approx(cg, rel=1e-8)


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
        E = np.diag([1.0, 2.0, 4.0])
        betas, beta_min = relative_condition_numbers(E, [0, 1])
        np.testing.assert_allclose(betas, [4.0, 2.0])
        assert beta_min == 2.0

    def test_full_basis_minimum_is_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = int(rng.integers(2, 10))
            a = rng.standard_normal((d, d))
            E = a @ a.T + 0.1 * np.eye(d)
            _, beta_min = relative_condition_numbers(E, range(d))
            assert beta_min == pytest.approx(1.0)

    def test_bounded_by_condition_number(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(2, 10))
            a = rng.standard_normal((d, d))
            E = a @ a.T + 0.5 * np.eye(d)
            betas, _ = relative_condition_numbers(E, range(d))
            eigs = np.linalg.eigvalsh(E)
            assert np.all(betas >= 1.0 - 1e-12)
            assert np.all(betas <= eigs[-1] / eigs[0] + 1e-9)

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
            _, beta_small = relative_condition_numbers(E, small)
            _, beta_big = relative_condition_numbers(E, big)
            assert beta_small >= beta_big - 1e-12

    def test_degenerate_raises_by_default(self):
        with pytest.raises(DiagnosticsError):
            relative_condition_numbers(np.diag([1.0, 0.0]), [0, 1])

    def test_degenerate_inf_policy(self):
        betas, beta_min = relative_condition_numbers(
            np.diag([1.0, 0.0]), [0, 1], degenerate="inf"
        )
        assert betas[1] == np.inf
        assert beta_min == 1.0


class TestContractionResidual:
    def test_exact_hessian_fixed_point(self):
        """Exact approximation and zero step: both sides vanish."""
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        B = np.diag([1.0, 2.0])
        x = np.ones(2)
        res = contraction_residual(obj, x, x, B, B, [0, 1])
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_hypothesis_violation_flagged(self):
        """A B_before that does not dominate the Hessian has no residual."""
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        B_small = 0.5 * np.diag([1.0, 2.0])
        assert contraction_residual(obj, np.ones(2), np.ones(2), B_small, B_small,
                                    [0, 1]) is None

    def test_randomized_corrected_states(self):
        """Greedy update of a dominating approximation obeys the contraction."""
        from lgbfgs.kernels import dense_bfgs_update
        from lgbfgs.pairs import PairStore

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
            store = PairStore(dim=d, tau=d, h0_scale=1.0 / scale / np.max(eigs))
            ratios = np.diag(B)[subset] / eigs[subset]
            pick = subset[int(np.argmax(ratios))]
            s = np.zeros(d)
            s[pick] = 1.0
            r = obj.hess_column(x, pick)
            B_after = dense_bfgs_update(B, s, r)
            res = contraction_residual(obj, x, x, B, B_after, subset)
            worst = max(worst, -res)
        assert worst <= 1e-9


class TestRateBounds:
    def test_zero_iteration_linear_bound_is_one(self):
        p = RateParams(mu=1.0, lipschitz_L=2.0, dim=4)
        assert rate_bounds(p, 0).linear == 1.0

    def test_superlinear_spot_value(self):
        p = RateParams(mu=1.0, lipschitz_L=2.0, dim=4, cond_bound=1.0, t0=0)
        assert rate_bounds(p, 2).superlinear == pytest.approx(0.669921875)

    def test_region_radii(self):
        p = RateParams(mu=1.0, lipschitz_L=2.0, dim=4, self_concordant_cm=0.0)
        bounds = rate_bounds(p, 1)
        assert math.isinf(bounds.linear_region_radius)
        assert bounds.superlinear_region_radius == pytest.approx(
            math.log(2.0) / (4.0 * 9.0 * 2.0)
        )
        p2 = RateParams(mu=1.0, lipschitz_L=2.0, dim=4, self_concordant_cm=0.5)
        assert rate_bounds(p2, 1).linear_region_radius == pytest.approx(
            math.log(1.5) / 4.0
        )

    def test_superlinear_bound_monotone_in_t_and_cond(self):
        p_tight = RateParams(mu=1.0, lipschitz_L=2.0, dim=4, cond_bound=1.0)
        p_loose = RateParams(mu=1.0, lipschitz_L=2.0, dim=4, cond_bound=3.0)
        prev = np.inf
        for t in range(10):
            val = rate_bounds(p_tight, t).superlinear
            assert val <= prev
            assert val <= rate_bounds(p_loose, t).superlinear + 1e-15
            prev = val

    def test_delta_correction_bound_capped_by_linear(self):
        p = RateParams(mu=1.0, lipschitz_L=2.0, dim=4, t0=2, decay=0.9, delta0=0.1)
        for t in range(8):
            b = rate_bounds(p, t)
            lin_step = 1.0 - 1.0 / 4.0
            assert b.delta_correction <= lin_step ** (t + p.t0 + 1) + 1e-15


class TestProductBoundOnInstrumentedRuns:
    """The logged-condition-number product bound against real decrement paths."""

    @pytest.mark.parametrize("tau,policy", [(10, "fixed_prefix"),
                                            (5, "fixed_prefix"), (5, "adaptive")])
    def test_bound_dominates_decrements(self, tau, policy):
        from lgbfgs.correction import CorrectionConfig
        from lgbfgs.greedy import SubsetPolicy
        from lgbfgs.solvers import SolverConfig, run, warm_start

        d = 10
        obj = synth_problem("quadratic", d=d, spectrum=np.linspace(1.0, 4.0, d),
                            seed=3, rotate=True)
        mu, L = obj.info.mu, obj.info.lipschitz_L
        x0 = warm_start(obj, np.ones(d), 12)
        cfg = SolverConfig(method="lg_bfgs", tau=tau, max_iters=50, grad_tol=0.0,
                           correction=CorrectionConfig("basic"),
                           record_dense_diags=True,
                           subset_policy=SubsetPolicy(policy))
        trace = run(obj, x0, cfg)
        lam = [r.lambda_f for r in trace.records]
        # deep warm start puts the run inside the locality threshold
        assert lam[0] <= mu * np.log(2.0) / (4 * (2 * d + 1) * L)
        betas = [r.beta_tau for r in trace.records if r.beta_tau is not None]
        if tau == d:
            # full basis: the subset always contains the maximal diagonal
            assert all(b == pytest.approx(1.0) or np.isinf(b) for b in betas)
        t0 = superlinear_trigger(betas, mu, L, d) or 0
        for t in range(len(betas) - t0 - 1):
            idx = t + t0 + 1
            if idx >= len(lam):
                break
            bound = product_rate_bound(betas, mu, L, d, t0, t) * lam[0]
            assert lam[idx] <= bound * (1 + 1e-9) + 1e-300


class TestTriggerAndProductBound:
    def test_trigger_crossing(self):
        mu, L, d = 1.0, 2.0, 4
        betas = [1.0] * 200
        t0 = superlinear_trigger(betas, mu, L, d)
        product = 2 * d * L / mu
        count = 0
        while product > 1.0:
            product *= 1.0 - mu / (d * L)
            count += 1
        assert t0 == count

    def test_trigger_none_when_flat(self):
        assert superlinear_trigger([np.inf] * 10, 1.0, 2.0, 4) is None

    def test_product_bound_matches_closed_form_for_constant_beta(self):
        mu, L, d = 1.0, 2.0, 4
        betas = [2.0] * 30
        t0, t = 3, 5
        got = product_rate_bound(betas, mu, L, d, t0, t)
        factor = 1.0 - mu / (2.0 * d * L)
        expected = (1.0 - mu / (2 * L)) ** t0 * factor ** (t * (t + 1) / 2.0)
        assert got == pytest.approx(expected)
