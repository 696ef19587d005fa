"""CLI: experiment runs, CSV schema and determinism, verify suite, synth."""

import functools
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import lgbfgs.kernels as kernels
from lgbfgs import verify
from lgbfgs.cli import (
    CSV_HEADER,
    EXIT_BAD_CONFIG,
    EXIT_BAD_DATASET,
    EXIT_BAD_TAU,
    ExperimentConfig,
    build_parser,
    main,
    run_experiment,
)
from lgbfgs.data import serialize_libsvm, synth_logistic_dataset


def write_config(tmp_path, **overrides):
    cfg = {
        "seed": 0,
        "problem": {"kind": "synth_logistic", "n": 40, "d": 8, "mu": 1e-3},
        "warm_start_k0": 2,
        "max_iters": 30,
        "grad_tol": 0.0,
        "solvers": [
            {"method": "lg_bfgs", "taus": [4]},
            {"method": "gd"},
        ],
        "output": str(tmp_path / "trace.csv"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def read_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# schema=")
    assert lines[1] == CSV_HEADER
    return [line.split(",") for line in lines[2:]]


class TestRunExperiment:
    def test_produces_schema_and_rows(self, tmp_path):
        path, cfg = write_config(tmp_path)
        code = main(["run", str(path)])
        assert code == 0
        rows = read_rows(cfg["output"])
        # two cells, 31 records each
        assert len(rows) == 2 * 31
        solvers = {row[0] for row in rows}
        assert solvers == {"lg_bfgs", "gd"}

    def test_rows_sorted_and_gap_nonnegative(self, tmp_path):
        path, cfg = write_config(tmp_path)
        main(["run", str(path)])
        rows = read_rows(cfg["output"])
        keys = [(r[0], int(r[1]), int(r[2])) for r in rows]
        assert keys == sorted(keys)
        gaps = [float(r[3]) for r in rows]
        assert min(gaps) >= 0.0
        assert min(gaps) == 0.0

    def test_deterministic_apart_from_wall_time(self, tmp_path):
        path, cfg = write_config(tmp_path)
        main(["run", str(path)])
        first = [row[:-1] for row in read_rows(cfg["output"])]
        main(["run", str(path)])
        second = [row[:-1] for row in read_rows(cfg["output"])]
        assert first == second

    def test_failing_cell_keeps_the_sweep(self, tmp_path, caplog):
        """The dense greedy baseline loses definiteness on this problem; its
        cell ends there with one warning, and every cell is written."""
        path, cfg = write_config(
            tmp_path, seed=4, warm_start_k0=0, max_iters=40,
            problem={"kind": "synth_logistic", "n": 300, "d": 30, "mu": 1e-3},
            solvers=[{"method": "lg_bfgs", "taus": [6], "correction": "basic"},
                     {"method": "greedy_bfgs", "correction": "basic"}])
        with caplog.at_level("WARNING"):
            assert main(["run", str(path)]) == 0
        rows = read_rows(cfg["output"])
        assert [int(r[2]) for r in rows if r[0] == "lg_bfgs"] == list(range(41))
        greedy = [int(r[2]) for r in rows if r[0] == "greedy_bfgs"]
        assert greedy == list(range(len(greedy))) and len(greedy) < 41
        [warning] = [r for r in caplog.records if r.levelname == "WARNING"]
        assert f"greedy_bfgs tau=10 stopped at t={greedy[-1]}: CurvatureError" \
            in warning.getMessage()

    def test_correction_out_of_float_range_keeps_the_sweep(self, tmp_path, caplog):
        """The corrected cell's product of psi leaves float range (CM = 2.45e9);
        it ends as curvature_error with one warning, and the lbfgs cell's rows
        are written beside its rows."""
        path, cfg = write_config(
            tmp_path, seed=483, warm_start_k0=0, max_iters=60,
            problem={"kind": "synth_logistic", "n": 145, "d": 19,
                     "mu": 1.156772841221496e-07},
            solvers=[{"method": "lg_bfgs", "tau": 11, "correction": "basic",
                      "subset_policy": "fixed_prefix"},
                     {"method": "lbfgs", "tau": 5}])
        with caplog.at_level("WARNING"):
            assert main(["run", str(path)]) == 0
        rows = read_rows(cfg["output"])
        assert [int(r[2]) for r in rows if r[0] == "lbfgs"] == list(range(61))
        corrected = [int(r[2]) for r in rows if r[0] == "lg_bfgs"]
        assert corrected == list(range(44))
        [warning] = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert "lg_bfgs tau=11 stopped at t=43: CurvatureError" in warning
        assert "float range" in warning

    def test_dense_diagnostics_failure_keeps_the_sweep(self, tmp_path, caplog):
        """With d > n and mu = 1e-18 the Hessian's Cholesky fails in each cell's
        dense diagnostics; each cell ends there with one warning, and both are
        written."""
        path, cfg = write_config(
            tmp_path, warm_start_k0=0, max_iters=5, record_dense_diags=True,
            problem={"kind": "synth_logistic", "n": 5, "d": 60, "mu": 1e-18},
            solvers=[{"method": "lbfgs", "tau": 3}, {"method": "lg_bfgs", "tau": 3}])
        with caplog.at_level("WARNING"):
            assert main(["run", str(path)]) == 0
        assert {r[0] for r in read_rows(cfg["output"])} == {"lbfgs", "lg_bfgs"}
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 2
        assert all("stopped at t=" in w and "DiagnosticsError" in w for w in warnings)

    def test_unallocatable_dense_state_keeps_the_sweep(self, tmp_path, caplog):
        """With d = 5,000,000 neither the warm start's nor the greedy_bfgs
        cell's d x d B can be allocated: each ends out_of_memory with a warning,
        the cells start from the warm start's iterate, and both are written."""
        data = tmp_path / "wide.libsvm"
        data.write_text("+1 1:1.0 5000000:0.5\n-1 2:1.0\n+1 3:0.5 4:1.0\n-1 5000000:1.0\n")
        path, cfg = write_config(tmp_path, warm_start_k0=1, max_iters=1,
                                 problem={"kind": "libsvm", "path": str(data)},
                                 solvers=[{"method": "gd"}, {"method": "greedy_bfgs"}])
        with caplog.at_level("WARNING"):
            assert main(["run", str(path)]) == 0
        rows = read_rows(cfg["output"])
        assert [(r[0], r[2]) for r in rows] == [("gd", "0"), ("gd", "1"), ("greedy_bfgs", "0")]
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 3 and all("out_of_memory" in w for w in warnings)
        assert sum(w.startswith("warm start stopped at t=0") for w in warnings) == 1

    def test_dense_diagnostics_at_tiny_seed_scale(self, tmp_path):
        """Under basic the lg_bfgs seed scale falls below 1e-154, where the
        square of 1/h0 overflows; both cells still write every row with its
        decrement."""
        output = tmp_path / "trace.csv"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "seed": 0, "problem": {"kind": "synth_logistic", "n": 200, "d": 20},
            "solvers": [{"method": "lbfgs", "tau": 5},
                        {"method": "lg_bfgs", "tau": 20, "correction": "basic"}],
            "max_iters": 100, "record_dense_diags": True, "output": str(output)}))
        assert main(["run", str(path)]) == 0
        rows = read_rows(output)
        for method in ("lbfgs", "lg_bfgs"):
            assert [int(r[2]) for r in rows if r[0] == method] == list(range(101))
        assert all(r[5] != "" for r in rows)

    def test_unknown_solver_exit_code(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, solvers=[{"method": "bfgsx"}])
        assert main(["run", str(path)]) == EXIT_BAD_CONFIG
        assert "bfgsx" in capsys.readouterr().err

    def test_unreadable_dataset_exit_code(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path, problem={"kind": "libsvm", "path": str(tmp_path / "nope.txt")}
        )
        assert main(["run", str(path)]) == EXIT_BAD_DATASET

    def test_invalid_tau_exit_code(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, solvers=[{"method": "lg_bfgs", "taus": [0]}])
        assert main(["run", str(path)]) == EXIT_BAD_TAU

    def test_fixed_prefix_tau_above_dimension_exit_code(self, tmp_path):
        """tau = d + 5 under fixed_prefix runs as tau = d: exit 0, same rows."""
        path, cfg = write_config(tmp_path, solvers=[
            {"method": "lg_bfgs", "taus": [8, 13], "subset_policy": "fixed_prefix"}])
        assert main(["run", str(path)]) == 0
        rows = read_rows(cfg["output"])
        by_tau = [[r[2:-1] for r in rows if r[1] == tau] for tau in ("8", "13")]
        assert by_tau[0] == by_tau[1] and len(by_tau[0]) == 31

    @pytest.mark.parametrize("solvers, cell", [
        ([{"method": "lg_bfgs", "tau": 3}, {"method": "lg_bfgs", "tau": 3, "correction": "basic"}],
         "lg_bfgs tau=3"),
        ([{"method": "lbfgs", "taus": [5, 3, 5]}], "lbfgs tau=5"),
    ], ids=["two-entries", "one-taus-list"])
    def test_repeated_cell_exit_code(self, tmp_path, capsys, solvers, cell):
        """The CSV keys rows by (solver, tau), so a second cell for a pair is a
        config error that names it, and nothing is written."""
        path, _ = write_config(tmp_path, solvers=solvers)
        assert main(["run", str(path)]) == EXIT_BAD_CONFIG
        assert f"a second cell for {cell}" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_output_flag_overrides_config(self, tmp_path):
        path, cfg = write_config(tmp_path)
        other = tmp_path / "other.csv"
        assert main(["run", str(path), "--output", str(other)]) == 0
        assert len(read_rows(other)) == 2 * 31
        assert not (tmp_path / "trace.csv").exists()

    def test_exit_code_follows_error_type_not_message(self, tmp_path, capsys):
        """An unwritable output whose path names tau is a config error."""
        path, _ = write_config(tmp_path, output=str(tmp_path / "no_dir" / "tau.csv"))
        assert main(["run", str(path)]) == EXIT_BAD_CONFIG
        assert "tau.csv" in capsys.readouterr().err

    def test_libsvm_problem_roundtrip(self, tmp_path):
        data = tmp_path / "train.txt"
        with open(data, "w") as fh:
            serialize_libsvm(synth_logistic_dataset(n=30, d=6, seed=1), fh)
        path, cfg = write_config(
            tmp_path,
            problem={"kind": "libsvm", "path": str(data), "mu": 1e-3},
            solvers=[{"method": "lbfgs", "taus": [3]}],
        )
        assert main(["run", str(path)]) == 0
        rows = read_rows(cfg["output"])
        assert all(int(r[6]) <= 3 for r in rows)

    def test_dense_diags_fill_lambda_column(self, tmp_path):
        path, cfg = write_config(tmp_path, record_dense_diags=True, max_iters=5)
        assert main(["run", str(path)]) == 0
        rows = read_rows(cfg["output"])
        lambdas = [float(r[5]) for r in rows]
        assert all(v >= 0.0 for v in lambdas)

    def test_unwritable_output_is_config_error(self, tmp_path):
        path, _ = write_config(tmp_path, output=str(tmp_path / "no_dir" / "t.csv"))
        assert main(["run", str(path)]) == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("field,value", [
        ("taus", ["x"]),
        ("correction", "bogus"),
        ("subset_policy", "bogus"),
        ("alpha", -1),
        ("lbfgs_scaling", "zz"),
        ("h0_scale", -1.0),
        ("h0_scale", "x"),
    ])
    def test_malformed_solver_entry_is_config_error(self, tmp_path, capsys, field, value):
        path, _ = write_config(tmp_path, solvers=[{"method": "lg_bfgs", field: value}])
        assert main(["run", str(path)]) == EXIT_BAD_CONFIG
        assert "invalid lg_bfgs solver entry" in capsys.readouterr().err


    @pytest.mark.parametrize("overrides, message", [
        (None, "config must be a JSON object"),
        ({"problem": "x"}, "'problem' must be an object"),
        ({"solvers": ["gd"]}, "'solvers' must be a nonempty list of objects"),
        ({"grad_tol": "x"}, "'grad_tol' must be a number"),
        ({"warm_start_k0": "x"}, "'warm_start_k0' must be an integer >= 0"),
        ({"output": 1}, "'output' must be a string"),
        ({"record_dense_diags": "no"}, "'record_dense_diags' must be true or false"),
    ], ids=["array", "problem", "solvers", "grad_tol", "warm_start_k0", "output",
            "record_dense_diags"])
    def test_malformed_config_field_is_config_error(self, tmp_path, capsys, overrides,
                                                    message):
        """A config field of the wrong type exits 2 before anything runs; the
        array is the whole config as a top-level JSON array."""
        path, cfg = write_config(tmp_path, **(overrides or {}))
        if overrides is None:
            path.write_text(json.dumps([cfg]))
        assert main(["run", str(path)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "trace.csv").exists()


@pytest.fixture(scope="module")
def cached_checks():
    """Every registered check, wrapped to run at most once in this module."""
    return {scope: [functools.cache(check) for check in checks]
            for scope, checks in verify.SCOPES.items()}


@pytest.fixture
def cached_scopes(monkeypatch, cached_checks):
    """``verify.SCOPES`` holding the module's cached checks."""
    for scope, checks in cached_checks.items():
        monkeypatch.setitem(verify.SCOPES, scope, checks)


class TestVerifySuite:
    @pytest.mark.usefixtures("cached_scopes")
    def test_kernels_scope_passes(self, capsys):
        assert main(["verify", "kernels"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == len(verify.SCOPES["kernels"])

    @pytest.mark.usefixtures("cached_scopes")
    def test_aggregation_scope_passes(self, capsys):
        assert main(["verify", "aggregation"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == len(verify.SCOPES["aggregation"])

    @pytest.mark.usefixtures("cached_scopes")
    def test_report_line_count_matches_registry(self, capsys):
        """The whole registered suite, once: one [PASS] line per check."""
        assert main(["verify", "all"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == sum(len(v) for v in verify.SCOPES.values())
        assert "[FAIL]" not in out
        assert re.search(r"worst defect/scale \d\.\d\de-\d+ at (plain|harsh) #\d+", out)

    def test_injected_sign_error_fails_kernels(self, monkeypatch, capsys):
        """A sign flip in the inverse update must blow past the tolerances."""
        good = kernels.dense_inv_bfgs_update

        def broken(H, s, r):
            c = float(s @ r)
            v = np.eye(H.shape[0]) + np.outer(r, s) / c  # wrong sign
            out = v.T @ H @ v + np.outer(s, s) / c
            return 0.5 * (out + out.T)

        monkeypatch.setattr(kernels, "dense_inv_bfgs_update", broken)
        results, passed = verify.run_suite("kernels")
        monkeypatch.setattr(kernels, "dense_inv_bfgs_update", good)
        assert not passed
        worst = max(r.worst for r in results if not r.passed)
        assert worst > 1e-3  # residual far above tolerance, not a borderline miss

    def test_unknown_scope_is_usage_error(self):
        """argparse rejects a scope outside the registry with its usage exit 2."""
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus"])
        assert exc.value.code == 2

    def test_parser_accepts_each_registered_scope(self, monkeypatch):
        """The scope choices are the registry's keys, a newly registered one too."""
        monkeypatch.setitem(verify.SCOPES, "extra", [])
        for scope in [*verify.SCOPES, "all"]:
            assert build_parser().parse_args(["verify", scope]).scope == scope


class TestSynthCommand:
    def test_writes_parseable_dataset(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "logistic", "n": 20, "d": 5, "seed": 3}))
        out = tmp_path / "synth.libsvm"
        assert main(["synth", str(spec), "--output", str(out)]) == 0
        from lgbfgs.data import parse_libsvm

        ds = parse_libsvm(str(out))
        assert ds.n_samples == 20
        assert ds.n_features == 5

    def test_bad_spec_exit_code(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "quadratic", "d": 5}))
        assert main(["synth", str(spec)]) == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("spec, message", [
        ({"n": None, "d": 5}, "bad synth spec"),
        ([{"n": 20, "d": 5}], "synth spec must be a JSON object"),
        ({"n": 20, "d": 5, "output": 1}, "synth output must be a path"),
    ], ids=["null_n", "array", "output_fd"])
    def test_malformed_spec_exit_code(self, tmp_path, capsys, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["synth", str(path)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("size", [{"n": 0, "d": 5}, {"n": 20, "d": 0}], ids=["n", "d"])
    def test_empty_dataset_spec_is_config_error(self, tmp_path, capsys, size):
        """A spec with no samples or no features exits 2 and writes nothing,
        rather than a file that ``run`` rejects as a malformed dataset."""
        spec, out = tmp_path / "spec.json", tmp_path / "synth.libsvm"
        spec.write_text(json.dumps(size))
        assert main(["synth", str(spec), "--output", str(out)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        [field] = [k for k, v in size.items() if v == 0]
        assert f"synth {field} must be an integer >= 1" in err
        assert not out.exists()

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 20, "d": 5}))
        out = tmp_path / "no_dir" / "x.libsvm"
        assert main(["synth", str(spec), "--output", str(out)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert f"error: cannot write output {str(out)!r}" in err
        assert "Traceback" not in err


class TestConfigParsing:
    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 0}))
        with pytest.raises(Exception):
            ExperimentConfig.from_json(str(path))

    @pytest.mark.parametrize("kind, field", [
        ("synth_logistic", "d"), ("synth_logistic", "n"), ("synth_quadratic", "d")])
    def test_missing_problem_field_is_config_error(self, tmp_path, capsys, kind, field):
        problem = {"kind": kind, "n": 40, "d": 8}
        del problem[field]
        path, _ = write_config(tmp_path, problem=problem)
        assert main(["run", str(path)]) == EXIT_BAD_CONFIG
        assert f"requires a {field!r} field" in capsys.readouterr().err

    @pytest.mark.parametrize("problem, message", [
        ({"kind": "synth_logistic", "n": 0, "d": 5}, "n >= 1"),
        ({"kind": "synth_logistic", "n": 40, "d": "x"}, "'d' must be an integer >= 0"),
        ({"kind": "synth_quadratic", "d": 5, "spectrum": [0, 1]}, "strictly positive"),
    ])
    def test_bad_problem_value_is_config_error(self, tmp_path, capsys, problem, message):
        path, _ = write_config(tmp_path, problem=problem)
        assert main(["run", str(path)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, mu, code, message", [
        ("1 2:x\n", 1e-3, EXIT_BAD_DATASET, "malformed feature token"),
        ("1 1:0.5 2:1.0\n-1 1:1.0\n", "x", EXIT_BAD_CONFIG, "'mu' must be a number"),
        ("+1 1:nan 2:1\n-1 1:inf\n", 1e-3, EXIT_BAD_DATASET,
         "line 1: non-finite feature value"),
    ], ids=["malformed_line", "non_numeric_mu", "non_finite_value"])
    def test_bad_libsvm_problem_exit_code(self, tmp_path, capsys, text, mu, code,
                                          message):
        data = tmp_path / "train.txt"
        data.write_text(text)
        path, _ = write_config(
            tmp_path, problem={"kind": "libsvm", "path": str(data), "mu": mu}
        )
        assert main(["run", str(path)]) == code
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("obj, field, value", [
        ("config", "grad_tol", float("nan")),
        ("solver", "h0_scale", float("inf")),
        ("solver", "h0_scale", -float("inf")),
    ], ids=["grad_tol_nan", "h0_scale_inf", "h0_scale_minus_inf"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, obj, field, value):
        """Python's json reads the non-JSON literals NaN, Infinity and -Infinity;
        a field holding one exits 2 naming the field, before anything runs."""
        path, cfg = write_config(tmp_path)
        (cfg if obj == "config" else cfg["solvers"][0])[field] = value
        path.write_text(json.dumps(cfg))
        assert re.search(r"\bNaN\b|\bInfinity\b", path.read_text())
        assert main(["run", str(path)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert f"{field!r} must be a number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("command, obj, change, field", [
        ("run", "config", {"seed": 1.7}, "seed"),
        ("run", "config", {"max_iters": True}, "max_iters"),
        ("run", "config", {"grad_tol": False}, "grad_tol"),
        ("run", "config", {"sead": 0}, "sead"),
        ("run", "problem", {"mux": 5.0}, "mux"),
        ("run", "problem", {"n": True}, "n"),
        ("run", "problem", {"d": 8.0}, "d"),
        ("run", "problem", {"mu": True}, "mu"),
        ("run", "solver", {"corection": "basic"}, "corection"),
        ("run", "solver", {"tau": 4}, "tau"),
        ("run", "solver", {"taus": [4.0]}, "taus"),
        ("run", "solver", {"taus": [True]}, "taus"),
        ("run", "solver", {"alpha": True}, "alpha"),
        ("synth", "spec", {"sead": 3}, "sead"),
        ("synth", "spec", {"n": True}, "n"),
        ("synth", "spec", {"seed": 1.7}, "seed"),
        ("synth", "spec", {"d": 5.0}, "d"),
    ])
    def test_reader_rejects_unknown_or_mistyped_field(self, tmp_path, capsys, command, obj,
                                                      change, field):
        """One unknown key or one value of the wrong JSON type in any object the
        CLI reads exits 2 naming the field, before anything is written."""
        out = tmp_path / "out"
        if command == "synth":
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({"n": 20, "d": 5, "output": str(out), **change}))
        else:
            path, cfg = write_config(tmp_path, output=str(out))
            target = {"config": cfg, "problem": cfg["problem"], "solver": cfg["solvers"][0]}
            target[obj].update(change)
            path.write_text(json.dumps(cfg))
        assert main([command, str(path)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        [line] = err.splitlines()
        assert line.startswith("error: ") and re.search(rf"\b{field}\b", line)
        assert not out.exists()

    def test_unknown_log_level_is_a_config_error(self, monkeypatch, capsys):
        """Checked by ``main`` itself: ``logging.basicConfig`` checks the level
        only while the root logger has no handler."""
        monkeypatch.setenv("LGBFGS_LOG", "bogus")
        assert main(["verify", "kernels"]) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: unknown LGBFGS_LOG level 'BOGUS'"]

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "seed": 0, "problem": {}, "solvers": [{"method": "gd"}], "bogus": 1
        }))
        with pytest.raises(Exception):
            ExperimentConfig.from_json(str(path))

    def test_console_entry_point(self):
        # the child imports the package under test, also when pytest's
        # ``pythonpath`` setting put src on sys.path and PYTHONPATH is unset
        src = os.path.dirname(os.path.dirname(verify.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "lgbfgs.cli", "verify", "kernels"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "[PASS]" in proc.stdout
