"""Solver drivers: step correctness, stopping rules, traces, equivalences."""

from collections import Counter

import numpy as np
import pytest

from lgbfgs.correction import CorrectionConfig
from lgbfgs.data import synth_problem
from lgbfgs.greedy import SubsetPolicy
from lgbfgs.objectives import QuadraticObjective
from lgbfgs.solvers import GREEDY_BFGS, LG_BFGS, METHODS, SolverConfig, run, warm_start


def quad_problem(d=6, lo=1.0, hi=10.0, seed=0, rotate=True):
    return synth_problem("quadratic", d=d, spectrum=np.linspace(lo, hi, d),
                         seed=seed, rotate=rotate)


class TestGradientDescent:
    def test_single_step_hand_value(self):
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        trace = run(obj, np.array([1.0, 1.0]),
                    SolverConfig(method="gd", max_iters=1, grad_tol=0.0))
        np.testing.assert_allclose(trace.x_final, [0.5, 0.0])

    def test_default_step_is_inverse_lipschitz(self):
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        trace = run(obj, np.ones(2), SolverConfig(method="gd", max_iters=50))
        assert trace.stop_reason in ("max_iters", "grad_tol")
        assert trace.records[-1].f_value < trace.records[0].f_value


class TestStoppingRules:
    @pytest.mark.parametrize("method", METHODS)
    def test_start_at_minimizer_yields_single_record(self, method):
        obj = QuadraticObjective(np.array([1.0, 2.0]), offset=np.array([1.0, 2.0]))
        cfg = SolverConfig(method=method, tau=2, max_iters=50, grad_tol=1e-10)
        trace = run(obj, np.ones(2), cfg)
        assert len(trace.records) == 1
        assert trace.records[0].grad_norm <= 1e-10
        assert trace.stop_reason == "grad_tol"

    def test_max_iters_bound(self):
        obj = quad_problem()
        trace = run(obj, np.ones(6), SolverConfig(method="gd", max_iters=7, grad_tol=0.0))
        assert len(trace.records) == 8
        assert trace.records[-1].t == 7
        assert trace.stop_reason == "max_iters"

    def test_divergence_guard(self):
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        cfg = SolverConfig(method="gd", alpha=1.5, max_iters=500, grad_tol=0.0,
                           divergence_patience=20)
        trace = run(obj, np.ones(2), cfg)
        assert trace.stop_reason == "diverged"
        assert len(trace.records) < 500

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("h0_scale", [None, 4.0])
    @pytest.mark.parametrize("record_dense_diags", [False, True])
    @pytest.mark.parametrize("method", METHODS)
    def test_overflowing_step_stops_as_diverged(self, method, record_dense_diags, h0_scale):
        """A step that overflows is caught before the objective or the
        diagnostics see the non-finite iterate, value or gradient.  With the
        default seed scale 1/L only gd overflows the iterate itself (the other
        methods overflow the gradient); with seed scale 4 every method does."""
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        cfg = SolverConfig(method=method, alpha=1e308, max_iters=50, grad_tol=0.0,
                           h0_scale=h0_scale, record_dense_diags=record_dense_diags)
        trace = run(obj, np.ones(2), cfg)
        assert trace.stop_reason == "diverged"
        assert len(trace.records) <= 2
        assert (trace.records[0].lambda_f is not None) == record_dense_diags


class TestObjectiveCallCounts:
    @pytest.mark.parametrize("method", METHODS)
    def test_one_evaluation_per_iterate(self, method):
        """One value_grad per record; one Hessian diagonal, column and
        product per step of the greedy methods and none for the others."""
        obj = synth_problem("logistic", d=8, n=60, mu=1e-2, seed=0)
        calls = Counter()
        for name in ("value_grad", "hess_diag", "hess_column", "hess_vec"):
            def counted(*args, _name=name, _fn=getattr(obj, name)):
                calls[_name] += 1
                return _fn(*args)
            setattr(obj, name, counted)
        cfg = SolverConfig(method=method, tau=4, max_iters=12, grad_tol=0.0)
        trace = run(obj, np.zeros(8), cfg)
        steps = len(trace.records) - 1
        assert trace.stop_reason == "max_iters"
        assert calls["value_grad"] == len(trace.records)
        per_step = 1 if method in (GREEDY_BFGS, LG_BFGS) else 0
        for name in ("hess_diag", "hess_column", "hess_vec"):
            assert calls[name] == per_step * steps, name


class TestClassicLbfgs:
    def test_pair_count_bounded(self):
        obj = quad_problem(d=8, hi=50.0)
        cfg = SolverConfig(method="lbfgs", tau=3, max_iters=500, grad_tol=0.0)
        trace = run(obj, np.ones(8), cfg)
        assert all(r.pair_count <= 3 for r in trace.records)
        assert max(r.pair_count for r in trace.records) == 3

    def test_outperforms_gradient_descent(self):
        obj = quad_problem(d=10, hi=100.0, seed=3)
        x0 = np.ones(10)
        gn_lbfgs = run(obj, x0, SolverConfig(method="lbfgs", tau=5, max_iters=60,
                                             grad_tol=0.0)).final_grad_norm
        gn_gd = run(obj, x0, SolverConfig(method="gd", max_iters=60,
                                          grad_tol=0.0)).final_grad_norm
        assert gn_lbfgs < 1e-3 * gn_gd

    def test_conventional_scaling_option(self):
        obj = quad_problem(d=6, hi=30.0, seed=4)
        cfg = SolverConfig(method="lbfgs", tau=4, max_iters=60, grad_tol=0.0,
                           lbfgs_scaling="latest_pair")
        trace = run(obj, np.ones(6), cfg)
        assert trace.final_grad_norm < 1e-6


class TestDenseBfgs:
    def test_converges_superlinearly_on_quadratic(self):
        obj = quad_problem(d=8, hi=40.0, seed=5)
        trace = run(obj, np.ones(8), SolverConfig(method="bfgs_dense", max_iters=60,
                                                  grad_tol=0.0))
        assert trace.final_grad_norm < 1e-10


class TestLgBfgsStep:
    def test_first_direction_is_scaled_gradient(self):
        """Empty store: the step is minus the seed scale times the gradient."""
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        x0 = np.array([1.0, 1.0])
        cfg = SolverConfig(method="lg_bfgs", tau=2, max_iters=1, h0_scale=0.5)
        trace = run(obj, x0, cfg)
        np.testing.assert_allclose(trace.x_final, x0 - 0.5 * np.array([1.0, 2.0]))
        record = trace.records[0]
        assert record.case_tag == "C1"
        assert record.pair_count == 1

    def test_quadratic_correction_is_noop(self):
        """Zero Hessian variation makes every scale factor exactly one."""
        obj = quad_problem(d=4, seed=6)
        x0 = np.ones(4)
        cfg_on = SolverConfig(method="lg_bfgs", tau=3, max_iters=30, grad_tol=0.0,
                              correction=CorrectionConfig("basic"))
        cfg_off = SolverConfig(method="lg_bfgs", tau=3, max_iters=30, grad_tol=0.0)
        tr_on = run(obj, x0, cfg_on)
        tr_off = run(obj, x0, cfg_off)
        np.testing.assert_array_equal(tr_on.x_final, tr_off.x_final)

    def test_store_size_bounded_across_problems(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            d = int(rng.integers(4, 12))
            tau = int(rng.integers(2, d + 1))
            obj = synth_problem("logistic", d=d, n=60, mu=1e-2, seed=seed)
            cfg = SolverConfig(method="lg_bfgs", tau=tau, max_iters=100, grad_tol=0.0)
            trace = run(obj, np.zeros(d), cfg)
            assert all(r.pair_count <= tau for r in trace.records)


class TestFullMemoryEquivalence:
    def test_matches_dense_greedy_iterates(self):
        """tau = d with the fixed-prefix policy replays the dense greedy run."""
        d = 10
        obj = quad_problem(d=d, hi=10.0, seed=1)
        x0 = np.ones(d)
        common = dict(tau=d, max_iters=50, grad_tol=0.0,
                      correction=CorrectionConfig("basic"))
        tr_lg = run(obj, x0, SolverConfig(method="lg_bfgs",
                                          subset_policy=SubsetPolicy("fixed_prefix"),
                                          **common))
        tr_gb = run(obj, x0, SolverConfig(method="greedy_bfgs", **common))
        for a, b in zip(tr_lg.records, tr_gb.records):
            assert a.grad_norm == pytest.approx(b.grad_norm, rel=1e-8, abs=1e-280)
        np.testing.assert_allclose(tr_lg.x_final, tr_gb.x_final, atol=1e-8)


class TestWarmStart:
    def test_zero_iterations_returns_start(self):
        obj = quad_problem()
        x0 = np.ones(6)
        np.testing.assert_array_equal(warm_start(obj, x0, 0), x0)

    def test_matches_greedy_trace_row(self):
        obj = quad_problem(seed=8)
        x0 = np.ones(6)
        x1 = warm_start(obj, x0, 1)
        cfg = SolverConfig(method="greedy_bfgs", max_iters=1, grad_tol=0.0,
                           correction=CorrectionConfig("off"))
        trace = run(obj, x0, cfg)
        np.testing.assert_allclose(x1, trace.x_final)

    def test_descends_on_convex_problems(self):
        for seed in range(4):
            obj = synth_problem("logistic", d=8, n=50, mu=1e-2, seed=seed)
            x0 = np.zeros(8)
            _, g0 = obj.value_grad(x0)
            _, g1 = obj.value_grad(warm_start(obj, x0, 5))
            assert np.linalg.norm(g1) <= np.linalg.norm(g0)


class TestDeterminism:
    def test_identical_configs_give_identical_traces(self):
        obj = synth_problem("logistic", d=10, n=80, mu=1e-3, seed=3)
        cfg = SolverConfig(method="lg_bfgs", tau=5, max_iters=40, grad_tol=0.0)
        tr1 = run(obj, np.zeros(10), cfg)
        tr2 = run(obj, np.zeros(10), cfg)
        assert [r.f_value for r in tr1.records] == [r.f_value for r in tr2.records]
        assert [r.grad_norm for r in tr1.records] == [r.grad_norm for r in tr2.records]
        assert [r.case_tag for r in tr1.records] == [r.case_tag for r in tr2.records]
        np.testing.assert_array_equal(tr1.x_final, tr2.x_final)


class TestDiagnosticsRecording:
    def test_lambda_decreases_on_warm_started_quadratic(self):
        obj = quad_problem(d=6, hi=8.0, seed=9)
        x0 = warm_start(obj, np.ones(6), 2)
        cfg = SolverConfig(method="lg_bfgs", tau=4, max_iters=30, grad_tol=0.0,
                           correction=CorrectionConfig("basic"),
                           record_dense_diags=True)
        trace = run(obj, x0, cfg)
        lams = [r.lambda_f for r in trace.records]
        assert all(b < a or b == 0.0 for a, b in zip(lams, lams[1:]))

    def test_sigma_and_beta_recorded(self):
        obj = quad_problem(d=5, seed=10)
        cfg = SolverConfig(method="lg_bfgs", tau=3, max_iters=10, grad_tol=0.0,
                           correction=CorrectionConfig("basic"),
                           record_dense_diags=True)
        trace = run(obj, np.ones(5), cfg)
        assert all(r.sigma is not None for r in trace.records)
        stepped = [r for r in trace.records if r.case_tag is not None]
        assert all(r.beta_tau is not None and r.beta_tau >= 1.0 for r in stepped)

    def test_observer_snapshots(self):
        obj = quad_problem(d=4, seed=11)
        snaps = []
        cfg = SolverConfig(method="lg_bfgs", tau=2, max_iters=5, grad_tol=0.0)
        run(obj, np.ones(4), cfg, observer=snaps.append)
        assert len(snaps) == 5
        assert all(s.store_after.size <= 2 for s in snaps)
        assert all(s.psi == 1.0 for s in snaps)  # quadratic: no correction


class TestCorrectedRunProperties:
    def test_dominance_gives_ratio_at_least_one(self):
        """With the correction on, the scaled operator dominates the Hessian,
        so the best greedy ratio over the candidates is at least one."""
        from lgbfgs.kernels import dense_B_from_pairs

        obj = quad_problem(d=6, hi=9.0, seed=12)
        snaps = []
        cfg = SolverConfig(method="lg_bfgs", tau=4, max_iters=40, grad_tol=0.0,
                           correction=CorrectionConfig("basic"))
        run(obj, np.ones(6), cfg, observer=snaps.append)
        for snap in snaps:
            scaled = snap.psi * dense_B_from_pairs(snap.store_before)
            numer = np.diag(scaled)[snap.candidates]
            denom = obj.hess_diag(snap.x_next, snap.candidates)
            assert np.max(numer / denom) >= 1.0 - 1e-12

    def test_weighted_step_bounded_by_decrement(self):
        """Unit quasi-Newton steps under a dominating operator stay inside the
        decrement ball: the weighted step length never exceeds it."""
        from lgbfgs.correction import weighted_step_norm
        from lgbfgs.diagnostics import newton_decrement

        obj = quad_problem(d=6, hi=9.0, seed=13)
        x0 = warm_start(obj, np.ones(6), 2)
        snaps = []
        cfg = SolverConfig(method="lg_bfgs", tau=4, max_iters=30, grad_tol=0.0,
                           correction=CorrectionConfig("basic"))
        run(obj, x0, cfg, observer=snaps.append)
        for snap in snaps:
            phi = weighted_step_norm(obj, snap.x, snap.x_next)
            lam = newton_decrement(obj, snap.x)
            assert phi <= lam * (1.0 + 1e-10)

    def test_delta_mode_scales_every_iteration(self):
        """The decaying-slack variant keeps scaling even with zero Hessian
        variation, shrinking the seed scale monotonically, and still converges."""
        obj = quad_problem(d=5, hi=6.0, seed=14)
        snaps = []
        cfg = SolverConfig(method="lg_bfgs", tau=3, max_iters=40, grad_tol=0.0,
                           correction=CorrectionConfig("delta", delta0=0.05,
                                                       decay=0.5))
        trace = run(obj, np.ones(5), cfg, observer=snaps.append)
        assert all(s.psi > 1.0 for s in snaps)
        h0s = [s.store_after.h0_scale for s in snaps]
        assert all(b < a for a, b in zip(h0s, h0s[1:]))
        assert trace.final_grad_norm < 1e-8


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            SolverConfig(method="bfgsx")

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            SolverConfig(method="gd", alpha=-1.0)

    def test_fixed_prefix_tau_exceeding_dim(self):
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        cfg = SolverConfig(method="lg_bfgs", tau=5,
                           subset_policy=SubsetPolicy("fixed_prefix"))
        with pytest.raises(ValueError):
            run(obj, np.zeros(2), cfg)
