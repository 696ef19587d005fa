"""Solver drivers: step correctness, stopping rules, traces, equivalences."""

from collections import Counter
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from lgbfgs import aggregation, greedy, solvers, verify
from lgbfgs.correction import MODES
from lgbfgs.data import synth_problem
from lgbfgs.errors import AggregationError, CurvatureError
from lgbfgs.greedy import POLICIES
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
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        cfg = SolverConfig(method=method, tau=2, max_iters=50, grad_tol=1e-10)
        trace = run(obj, np.zeros(2), cfg)
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
        cfg = SolverConfig(method="gd", alpha=1.5, max_iters=500, grad_tol=0.0)
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
        methods overflow the gradient); with seed scale 4 every method does.
        The first row's step ends at a row that fails the guard, so it records
        no step diagnostics."""
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        cfg = SolverConfig(method=method, alpha=1e308, max_iters=50, grad_tol=0.0,
                           h0_scale=h0_scale, record_dense_diags=record_dense_diags)
        trace = run(obj, np.ones(2), cfg)
        assert trace.stop_reason == "diverged"
        assert len(trace.records) <= 2
        assert (trace.records[0].lambda_f is not None) == record_dense_diags
        assert trace.records[0].beta_tau is None
        assert trace.records[0].contraction is None

    @pytest.mark.parametrize("error, reason", [(AggregationError, "aggregation_failed"),
                                               (CurvatureError, "curvature_error")])
    def test_failing_step_ends_run(self, monkeypatch, caplog, error, reason):
        """A step that raises at t=3 ends the run with a trace: rows t = 0..3,
        the row-3 iterate as x_final, and one warning naming the cell."""
        obj = quad_problem()
        cfg = SolverConfig(method=LG_BFGS, tau=3, max_iters=10, grad_tol=0.0)
        x3 = run(obj, np.ones(6), replace(cfg, max_iters=3)).x_final
        calls, select = [], solvers.greedy_pair

        def failing_select(*args):
            calls.append(args)
            if len(calls) == 4:
                raise error("injected")
            return select(*args)

        monkeypatch.setattr(solvers, "greedy_pair", failing_select)
        with caplog.at_level("WARNING", logger="lgbfgs.solvers"):
            trace = run(obj, np.ones(6), cfg)
        assert trace.stop_reason == reason
        assert [rec.t for rec in trace.records] == [0, 1, 2, 3]
        np.testing.assert_array_equal(trace.x_final, x3)
        [warning] = caplog.records
        assert warning.levelname == "WARNING"
        assert "lg_bfgs tau=3 stopped at t=3" in warning.getMessage()
        assert "injected" in warning.getMessage()


class TestObjectiveCallCounts:
    @pytest.mark.parametrize("method,record_dense_diags",
                             [pytest.param(m, False, id=m) for m in METHODS]
                             + [pytest.param(m, True, id=f"{m}-dense") for m in METHODS])
    def test_one_evaluation_per_iterate(self, method, record_dense_diags):
        """One point and one value_grad per record; one Hessian diagonal,
        column and product per step of the greedy methods and none for the
        others.  Dense diagnostics add at most one dense Hessian per record
        and no other objective call."""
        obj = synth_problem("logistic", d=8, n=60, mu=1e-2, seed=0)
        calls = Counter()
        for name in ("at", "value_grad", "hess_diag", "hess_column", "hess_vec",
                     "hess_matrix"):
            def counted(*args, _name=name, _fn=getattr(obj, name)):
                calls[_name] += 1
                return _fn(*args)
            setattr(obj, name, counted)
        cfg = SolverConfig(method=method, tau=4, max_iters=12, grad_tol=0.0,
                           record_dense_diags=record_dense_diags)
        trace = run(obj, np.zeros(8), cfg)
        steps = len(trace.records) - 1
        assert trace.stop_reason == "max_iters"
        assert calls["value_grad"] == len(trace.records)
        assert calls["at"] == len(trace.records)
        per_step = 1 if method in (GREEDY_BFGS, LG_BFGS) else 0
        for name in ("hess_diag", "hess_column", "hess_vec"):
            assert calls[name] == per_step * steps, name
        assert calls["hess_matrix"] <= len(trace.records) * record_dense_diags


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
                              correction="basic")
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

    def test_ill_conditioned_c3_events_complete(self):
        """A delta-corrected run whose C3 events are ill-conditioned runs out."""
        obj = synth_problem("logistic", d=30, n=300, mu=1e-3, seed=4)
        cfg = SolverConfig(method="lg_bfgs", tau=6, max_iters=40, grad_tol=0.0,
                           correction="delta")
        trace = run(obj, np.ones(30), cfg)
        assert trace.stop_reason == "max_iters"
        assert "C3" in {r.case_tag for r in trace.records}

    def test_tiny_seed_numerators_and_c3_events_are_exact(self, monkeypatch):
        """On that run, once h0 < 1e-20, the greedy numerators at the stored
        indices match an exact rational fold, and every C3 event's defect is at
        rounding level."""
        numerators, defects = [], []
        diag, gate = greedy.compact_B_diag, aggregation._fold_defect

        def recording_diag(store, indices):
            out = diag(store, indices)
            if store.h0_scale < 1e-20 and len(numerators) < 3:
                numerators.append(((store.indices, store.R.copy(), store.h0_scale),
                                   dict(zip(indices, out))))
            return out

        def recording_gate(*args):
            defect, scale = gate(*args)
            defects.append(defect / scale)
            return defect, scale

        monkeypatch.setattr(greedy, "compact_B_diag", recording_diag)
        monkeypatch.setattr(aggregation, "_fold_defect", recording_gate)
        obj = synth_problem("logistic", d=30, n=300, mu=1e-3, seed=4)
        cfg = SolverConfig(method="lg_bfgs", tau=6, max_iters=40, grad_tol=0.0,
                           correction="delta")
        assert run(obj, np.ones(30), cfg).stop_reason == "max_iters"
        assert len(numerators) == 3
        for (indices, R, h0), got in numerators:
            exact = verify._exact_direct_fold(indices, R, h0)
            for i in indices:
                assert got[i] == pytest.approx(float(exact[i][i]), rel=1e-12)
        assert defects
        assert max(defects) <= 1e-12


class TestFullMemoryEquivalence:
    def test_matches_dense_greedy_iterates(self):
        """tau = d with the fixed-prefix policy replays the dense greedy run."""
        assert verify.check_full_memory_equivalence(seed=1).passed


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
                           correction="off")
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
                           correction="basic",
                           record_dense_diags=True)
        trace = run(obj, x0, cfg)
        lams = [r.lambda_f for r in trace.records]
        assert all(b < a or b == 0.0 for a, b in zip(lams, lams[1:]))

    def test_sigma_and_beta_recorded(self):
        obj = quad_problem(d=5, seed=10)
        cfg = SolverConfig(method="lg_bfgs", tau=3, max_iters=10, grad_tol=0.0,
                           correction="basic",
                           record_dense_diags=True)
        trace = run(obj, np.ones(5), cfg)
        assert all(r.sigma is not None for r in trace.records)
        stepped = [r for r in trace.records if r.case_tag is not None]
        assert all(r.beta_tau is not None and r.beta_tau >= 1.0 for r in stepped)
        assert all(r.contraction >= -1e-9 for r in stepped)
        assert trace.records[-1].contraction is None  # the last row takes no step

    def test_wrapped_scaling_sees_every_step(self, monkeypatch):
        """The step's internals are read by wrapping the name the solver calls:
        five lg_bfgs steps make five scaling calls, all with psi = 1 here."""
        psis, scale = [], solvers.apply_scaling

        def recording_scale(store, psi):
            psis.append(psi)
            scale(store, psi)

        monkeypatch.setattr(solvers, "apply_scaling", recording_scale)
        obj = quad_problem(d=4, seed=11)
        cfg = SolverConfig(method="lg_bfgs", tau=2, max_iters=5, grad_tol=0.0)
        trace = run(obj, np.ones(4), cfg)
        assert len(psis) == 5
        assert all(r.pair_count <= 2 for r in trace.records)
        assert all(psi == 1.0 for psi in psis)  # quadratic: no correction

    def test_failed_premise_records_none_and_run_completes(self):
        """On a basic-corrected logistic problem B can stop dominating the
        Hessian; those steps record no contraction, and the run still ends at
        max_iters (a raising residual would abort it)."""
        obj = synth_problem("logistic", d=20, n=200, mu=1e-3, seed=0)
        x0 = warm_start(obj, np.zeros(20), 3)
        cfg = SolverConfig(method="lg_bfgs", tau=20, max_iters=60, grad_tol=0.0,
                           correction="basic", record_dense_diags=True)
        trace = run(obj, x0, cfg)
        assert trace.stop_reason == "max_iters"
        assert any(r.contraction is None for r in trace.records[:-1])

    @pytest.mark.parametrize("mode", ["off", "delta"])
    def test_contraction_recorded_only_under_basic(self, mode):
        """The inequality's scale is the basic 1 + CM * phi, so steps under any
        other correction record beta_tau but no contraction."""
        obj = quad_problem(d=8, hi=30.0, seed=4)
        cfg = SolverConfig(method="lg_bfgs", tau=4, max_iters=40, grad_tol=0.0,
                           correction=mode, record_dense_diags=True)
        stepped = run(obj, np.ones(8), cfg).records[:-1]
        assert all(r.beta_tau is not None for r in stepped)
        assert all(r.contraction is None for r in stepped)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(3, 10), tau_frac=st.floats(0.0, 1.0),
           log10_top=st.floats(0.3, 3.0), policy=st.sampled_from(["adaptive", "fixed_prefix"]),
           seed=st.integers(0, 2**16))
    def test_contraction_holds_on_corrected_quadratics(self, d, tau_frac, log10_top,
                                                       policy, seed):
        """Basic-corrected rotated quadratics: every step's contraction slack
        exists and is at least -1e-9 (a run may stop early at gradient zero)."""
        tau = 1 + int(tau_frac * (d - 1))
        obj = quad_problem(d=d, hi=10.0 ** log10_top, seed=seed)
        cfg = SolverConfig(method="lg_bfgs", tau=tau, max_iters=30, grad_tol=0.0,
                           correction="basic",
                           subset_policy=policy, record_dense_diags=True)
        trace = run(obj, np.ones(d), cfg)
        steps = [r.contraction for r in trace.records if r.case_tag is not None]
        assert steps
        assert all(c is not None and c >= -1e-9 for c in steps)


class TestCorrectedRunProperties:
    def test_dominance_gives_ratio_at_least_one(self, monkeypatch):
        """With the correction on, the scaled operator dominates the Hessian,
        so the best greedy ratio over the candidates is at least one."""
        from lgbfgs.kernels import dense_B_from_pairs

        ratios, select = [], solvers.greedy_pair

        def recording_select(objective, x_next, store, candidates):
            # the store here is already scaled by psi
            scaled = dense_B_from_pairs(store.indices, store.R, store.h0_scale)
            numer = np.diag(scaled)[candidates]
            ratios.append(np.max(numer / objective.hess_diag(x_next, candidates)))
            return select(objective, x_next, store, candidates)

        monkeypatch.setattr(solvers, "greedy_pair", recording_select)
        obj = quad_problem(d=6, hi=9.0, seed=12)
        cfg = SolverConfig(method="lg_bfgs", tau=4, max_iters=40, grad_tol=0.0,
                           correction="basic")
        run(obj, np.ones(6), cfg)
        assert len(ratios) == 40
        assert min(ratios) >= 1.0 - 1e-12

    def test_weighted_step_bounded_by_decrement(self, monkeypatch):
        """Unit quasi-Newton steps under a dominating operator stay inside the
        decrement ball: the weighted step length never exceeds it."""
        from lgbfgs.diagnostics import newton_decrement

        steps, step_norm = [], solvers.weighted_step_norm

        def recording_norm(objective, point, point_next):
            phi = step_norm(objective, point, point_next)
            steps.append((phi, newton_decrement(objective, point.x)))
            return phi

        obj = quad_problem(d=6, hi=9.0, seed=13)
        x0 = warm_start(obj, np.ones(6), 2)
        monkeypatch.setattr(solvers, "weighted_step_norm", recording_norm)
        cfg = SolverConfig(method="lg_bfgs", tau=4, max_iters=30, grad_tol=0.0,
                           correction="basic")
        run(obj, x0, cfg)
        assert len(steps) == 30
        for phi, lam in steps:
            assert phi <= lam * (1.0 + 1e-10)

    def test_delta_mode_scales_every_iteration(self, monkeypatch):
        """The decaying-slack variant keeps scaling even with zero Hessian
        variation, shrinking the seed scale monotonically, and still converges."""
        scalings, scale = [], solvers.apply_scaling

        def recording_scale(store, psi):
            scale(store, psi)
            scalings.append((psi, store.h0_scale))

        monkeypatch.setattr(solvers, "apply_scaling", recording_scale)
        obj = quad_problem(d=5, hi=6.0, seed=14)
        cfg = SolverConfig(method="lg_bfgs", tau=3, max_iters=40, grad_tol=0.0,
                           correction="delta")
        trace = run(obj, np.ones(5), cfg)
        assert all(psi > 1.0 for psi, _ in scalings)
        h0s = [h0 for _, h0 in scalings]
        assert all(b < a for a, b in zip(h0s, h0s[1:]))
        assert trace.final_grad_norm < 1e-8


class TestFullMemoryCorrectedRuns:
    @pytest.mark.parametrize("correction", ["basic", "delta"])
    def test_lg_bfgs_at_tau_d_completes_where_dense_greedy_fails(self, correction):
        """At tau = d the limited-memory step, whose store carries no seed in its
        floats, runs every corrected step on a problem where the dense greedy
        baseline loses definiteness at t = 7."""
        obj = synth_problem("logistic", d=30, n=300, mu=1e-3, seed=4)
        cfg = SolverConfig(method=LG_BFGS, tau=30, max_iters=40, correction=correction)
        trace = run(obj, np.ones(30), cfg)
        assert trace.stop_reason == "max_iters" and len(trace.records) == 41
        dense = run(obj, np.ones(30), replace(cfg, method=GREEDY_BFGS))
        assert dense.stop_reason == "curvature_error" and dense.records[-1].t == 7


class TestRunEndsInStopReason:
    STOP_REASONS = {"grad_tol", "max_iters", "diverged", "curvature_error",
                    "aggregation_failed", "diagnostics_failed"}

    def test_correction_leaving_float_range_is_a_curvature_error(self):
        """CM = 2.45e9 here, so the product of psi passes 1e306 by t = 40; the
        scaling then refuses to push h0_scale out of the normal floats, and
        the run ends as curvature_error with its rows (it used to raise
        ZeroDivisionError in the compact factor's seed)."""
        obj = synth_problem("logistic", d=19, n=145, mu=1.156772841221496e-07, seed=483)
        cfg = SolverConfig(method=LG_BFGS, tau=11, max_iters=60, grad_tol=0.0,
                           correction="basic", subset_policy="fixed_prefix")
        trace = run(obj, np.ones(19), cfg)
        assert trace.stop_reason == "curvature_error"
        assert len(trace.records) == 42 and trace.records[-1].t == 41

    @settings(max_examples=400, deadline=None)
    @given(logistic=st.booleans(), d=st.integers(2, 24), n=st.integers(5, 199),
           log10_mu=st.floats(-8.0, 0.0), log10_top=st.floats(0.0, 4.0),
           method=st.sampled_from(METHODS), tau=st.integers(1, 24),
           correction=st.sampled_from(MODES), policy=st.sampled_from(POLICIES),
           log10_h0=st.none() | st.floats(-12.0, 2.0), log10_x0=st.floats(-2.0, 2.0),
           seed=st.integers(0, 2**16))
    def test_every_run_ends_in_a_stop_reason(self, logistic, d, n, log10_mu, log10_top,
                                             method, tau, correction, policy, log10_h0,
                                             log10_x0, seed):
        """Small logistic and quadratic problems under every method, correction,
        policy and seed scale: ``run`` returns a trace with a documented stop
        reason instead of raising."""
        obj = (synth_problem("logistic", d=d, n=n, mu=10.0**log10_mu, seed=seed) if logistic
               else quad_problem(d=d, hi=10.0**log10_top, seed=seed))
        x0 = 10.0**log10_x0 * np.random.default_rng(seed).standard_normal(d)
        cfg = SolverConfig(method=method, tau=tau, max_iters=60, grad_tol=0.0,
                           correction=correction, subset_policy=policy,
                           h0_scale=None if log10_h0 is None else 10.0**log10_h0)
        assert run(obj, x0, cfg).stop_reason in self.STOP_REASONS


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            SolverConfig(method="bfgsx")

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            SolverConfig(method="gd", alpha=-1.0)

    @pytest.mark.parametrize("field", ["alpha", "h0_scale", "grad_tol"])
    def test_non_finite_number_rejected(self, field):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=field):
                SolverConfig(**{field: value})

    def test_fixed_prefix_tau_exceeding_dim(self):
        """The store holds min(tau, d) pairs and fixed_prefix takes the first
        store.tau coordinates, so tau = d + 5 runs the tau = d trace, bit for bit."""
        obj = synth_problem("logistic", d=6, n=40, mu=1e-3, seed=1)
        traces = [run(obj, np.ones(6), SolverConfig(method="lg_bfgs", tau=tau, max_iters=15,
                                                    grad_tol=0.0, subset_policy="fixed_prefix"))
                  for tau in (6, 11)]
        rows = [[replace(r, wall_time_s=0.0) for r in tr.records] for tr in traces]
        assert rows[0] == rows[1] and len(rows[0]) == 16
        assert traces[0].x_final.tobytes() == traces[1].x_final.tobytes()
        assert traces[0].stop_reason == traces[1].stop_reason == "max_iters"
