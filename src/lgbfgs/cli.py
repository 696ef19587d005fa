"""Batch benchmark harness and verification CLI.

Subcommands:

* ``run <config.json>`` -- execute a (solver x tau) sweep on one problem, one
  cell after another, and write a CSV trace of every cell.  A cell whose step
  raises ``CurvatureError`` or ``AggregationError`` ends there with a logged
  warning; its rows up to that iterate are written with the others.
* ``verify [scope]`` -- run the registered invariant suites; exit 0 iff all
  checks pass.
* ``synth <spec.json>`` -- generate a synthetic logistic dataset in LIBSVM
  format.

Exit codes: 0 success, 1 verification failure, 2 unknown solver, malformed
config or unwritable output, 3 unreadable or malformed dataset, 4 invalid
memory size.  The environment variable ``LGBFGS_LOG`` sets the log level.

Config files are JSON.  A run config looks like::

    {
      "seed": 0,
      "problem": {"kind": "libsvm", "path": "data.txt", "mu": 1e-4,
                  "normalize": true},
      "warm_start_k0": 10,
      "max_iters": 100,
      "grad_tol": 1e-12,
      "record_dense_diags": false,
      "solvers": [
        {"method": "lg_bfgs", "taus": [10, 20]},
        {"method": "lbfgs", "taus": [10]},
        {"method": "gd"}
      ],
      "output": "trace.csv"
    }

``problem.kind`` is one of ``libsvm``, ``synth_logistic`` (fields n, d, mu),
or ``synth_quadratic`` (fields d, spectrum, rotate).  Per-solver entries may
override ``alpha``, ``correction`` (off/basic/delta), ``subset_policy``,
``h0_scale``, and ``lbfgs_scaling``.  The trace CSV starts with a schema
comment line followed by the header
``solver,tau,iteration,f_gap,grad_norm,lambda_f,pair_count,case_tag,wall_time_s``;
rows are sorted by (solver, tau, iteration) and are byte-stable for a fixed
config and seed except for the wall-time column.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import verify
from .data import parse_libsvm, normalize_rows, serialize_libsvm, synth_logistic_dataset, synth_problem
from .objectives import LogisticObjective, Objective
from .solvers import METHODS, SolverConfig, run, warm_start

logger = logging.getLogger(__name__)

CSV_SCHEMA = 1
CSV_HEADER = "solver,tau,iteration,f_gap,grad_norm,lambda_f,pair_count,case_tag,wall_time_s"

EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_BAD_DATASET = 3
EXIT_BAD_TAU = 4


class ConfigError(ValueError):
    """A malformed run config, problem or output path (exit 2)."""


class TauError(ConfigError):
    """A memory size tau the solver cannot use (exit 4)."""


class DatasetError(ValueError):
    """A dataset file that is not valid LIBSVM text (exit 3)."""


_COUNT = (lambda v: type(v) is int and v >= 0, "an integer >= 0")

# each run config field's type check and its description for the error
_FIELDS = {
    "problem": (lambda v: isinstance(v, dict), "an object"),
    "solvers": (lambda v: isinstance(v, list) and bool(v) and all(isinstance(e, dict) for e in v),
                "a nonempty list of objects"),
    "seed": _COUNT,
    "output": (lambda v: isinstance(v, str), "a string"),
    "warm_start_k0": _COUNT,
    "max_iters": _COUNT,
    "grad_tol": (lambda v: type(v) in (int, float), "a number"),
    "record_dense_diags": (lambda v: isinstance(v, bool), "true or false"),
}


@dataclass
class ExperimentConfig:
    """One experiment: a problem, a solver/tau grid, and run parameters."""

    problem: dict
    solvers: list[dict]
    seed: int
    output: str = "trace.csv"
    warm_start_k0: int = 0
    max_iters: int = 100
    grad_tol: float = 1e-12
    record_dense_diags: bool = False

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        missing = {"problem", "solvers", "seed"} - raw.keys()
        if missing:
            raise ConfigError(f"config is missing fields: {sorted(missing)}")
        unknown = raw.keys() - _FIELDS.keys()
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for name, value in raw.items():
            check, kind = _FIELDS[name]
            if not check(value):
                raise ConfigError(f"config field {name!r} must be {kind}, got {value!r}")
        return cls(**raw)


def _build_objective(problem: dict, seed: int) -> Objective:
    kind = problem.get("kind")

    def required(name: str):
        if name not in problem:
            raise ConfigError(f"{kind} problem requires a {name!r} field")
        return problem[name]

    if kind == "libsvm":
        path = problem.get("path")
        if not path:
            raise ConfigError("libsvm problem requires a 'path' field")
        try:
            ds = parse_libsvm(path)
        except OSError as exc:
            raise FileNotFoundError(f"cannot read dataset {path!r}: {exc}") from exc
        except ValueError as exc:
            raise DatasetError(f"malformed dataset {path!r}: {exc}") from exc
        if problem.get("normalize", True):
            ds = normalize_rows(ds)
    try:
        if kind == "libsvm":
            return LogisticObjective(ds, reg_mu=float(problem.get("mu", 1e-4)))
        if kind == "synth_logistic":
            return synth_problem(
                "logistic",
                d=int(required("d")),
                n=int(required("n")),
                mu=float(problem.get("mu", 1e-4)),
                seed=seed,
            )
        if kind == "synth_quadratic":
            return synth_problem(
                "quadratic",
                d=int(required("d")),
                spectrum=problem.get("spectrum", (1.0, 100.0)),
                seed=seed,
                rotate=bool(problem.get("rotate", True)),
            )
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {kind} problem: {exc}") from exc
    raise ConfigError(f"unknown problem kind {kind!r}")


def _solver_cells(cfg: ExperimentConfig) -> list[SolverConfig]:
    cells = []
    for entry in cfg.solvers:
        method = entry.get("method")
        if method not in METHODS:
            raise ConfigError(f"unknown solver method {method!r}")
        taus = entry.get("taus", [entry.get("tau", 10)])
        if isinstance(taus, int):
            taus = [taus]
        try:
            for tau in taus:
                tau = int(tau)
                if tau < 1:
                    raise TauError(f"invalid tau {tau} for solver {method}")
                cells.append(
                    SolverConfig(
                        method=method,
                        tau=tau,
                        alpha=entry.get("alpha"),
                        max_iters=cfg.max_iters,
                        grad_tol=cfg.grad_tol,
                        correction=entry.get("correction", "off"),
                        subset_policy=entry.get("subset_policy", "adaptive"),
                        h0_scale=entry.get("h0_scale"),
                        lbfgs_scaling=entry.get("lbfgs_scaling", "fixed"),
                        record_dense_diags=cfg.record_dense_diags,
                    )
                )
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid {method} solver entry: {exc}") from exc
    return cells


def _format(value: float) -> str:
    return repr(float(value))


def run_experiment(cfg: ExperimentConfig) -> str:
    """Execute the sweep and write the CSV trace; returns the output path."""
    obj = _build_objective(cfg.problem, cfg.seed)
    x0 = np.zeros(obj.info.dim)
    if cfg.warm_start_k0 > 0:
        x0 = warm_start(obj, x0, cfg.warm_start_k0)
    cells = _solver_cells(cfg)
    for cell in cells:
        if cell.method == "lg_bfgs" and cell.subset_policy == "fixed_prefix" \
                and cell.tau > obj.info.dim:
            raise TauError(
                f"invalid tau {cell.tau}: exceeds dimension {obj.info.dim} "
                "under the fixed_prefix policy"
            )
    traces = []
    for cell in cells:
        logger.info("running %s tau=%d", cell.method, cell.tau)
        traces.append(run(obj, x0, cell))

    f_best = min(min(r.f_value for r in tr.records) for tr in traces)
    rows = []
    for cell, tr in zip(cells, traces):
        for rec in tr.records:
            rows.append(
                (
                    cell.method,
                    cell.tau,
                    rec.t,
                    _format(rec.f_value - f_best),
                    _format(rec.grad_norm),
                    "" if rec.lambda_f is None else _format(rec.lambda_f),
                    rec.pair_count,
                    rec.case_tag or "",
                    _format(rec.wall_time_s),
                )
            )
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    try:
        fh = open(cfg.output, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write output {cfg.output!r}: {exc}") from exc
    with fh:
        fh.write(f"# schema={CSV_SCHEMA}\n")
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")
    logger.info("wrote %d rows to %s", len(rows), cfg.output)
    return cfg.output


def _cmd_run(args) -> int:
    try:
        cfg = ExperimentConfig.from_json(args.config)
        if args.output:
            cfg.output = args.output
        run_experiment(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_TAU if isinstance(exc, TauError) else EXIT_BAD_CONFIG
    except (FileNotFoundError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_DATASET
    return 0


def _cmd_verify(args) -> int:
    results, passed = verify.run_suite(args.scope)
    for result in results:
        print(result.render())
    return 0 if passed else EXIT_VERIFY_FAILED


def _cmd_synth(args) -> int:
    try:
        with open(args.spec) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read synth spec: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    if not isinstance(spec, dict):
        print("error: synth spec must be a JSON object", file=sys.stderr)
        return EXIT_BAD_CONFIG
    kind = spec.get("kind", "logistic")
    if kind != "logistic":
        print(f"error: synth can only emit logistic datasets, got {kind!r}",
              file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        ds = synth_logistic_dataset(
            n=int(spec["n"]), d=int(spec["d"]), seed=int(spec.get("seed", 0))
        )
    except (KeyError, ValueError, TypeError) as exc:
        print(f"error: bad synth spec: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    out = args.output or spec.get("output", "synthetic.libsvm")
    if not isinstance(out, str):
        print(f"error: synth output must be a path, got {out!r}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        fh = open(out, "w")
    except OSError as exc:
        print(f"error: cannot write output {out!r}: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    with fh:
        serialize_libsvm(ds, fh)
    print(f"wrote {ds.n_samples} samples x {ds.n_features} features to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgbfgs",
        description="Limited-memory greedy quasi-Newton benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a benchmark sweep from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--output", help="override the config's output path")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("scope", nargs="?", default="all",
                          choices=[*verify.SCOPES, "all"])
    p_verify.set_defaults(func=_cmd_verify)

    p_synth = sub.add_parser("synth", help="generate a synthetic LIBSVM dataset")
    p_synth.add_argument("spec")
    p_synth.add_argument("--output")
    p_synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("LGBFGS_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
