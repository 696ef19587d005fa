"""Batch benchmark harness and verification CLI.

Subcommands:

* ``run <config.json>`` -- execute a (solver x tau) sweep on one problem, one
  cell after another, and write a CSV trace of every cell.  A cell whose step
  or dense diagnostics fail, or whose dense state cannot be allocated, ends
  there with a logged warning and ``stop_reason`` ``curvature_error``,
  ``aggregation_failed``, ``diagnostics_failed`` or ``out_of_memory``; its rows
  up to that iterate are written too.  A warm start that ends so logs a
  warning, and the cells start from the iterate it reached.
* ``verify [scope]`` -- run the registered invariant suites; exit 0 iff all
  checks pass.
* ``synth <spec.json>`` -- generate a synthetic logistic dataset in LIBSVM
  format.

Exit codes (each error class carries its own; ``main`` prints ``error: ...``
and returns it): 0 success, 1 verification failure, 2 malformed config,
problem, solver entry or synth spec, or unwritable output (``ConfigError``),
3 unreadable or malformed dataset (``DatasetError``), 4 a memory size tau < 1
(``TauError``); an lg_bfgs tau above the dimension runs as the dimension.
The environment variable ``LGBFGS_LOG`` sets the log level; an unknown level
is a ``ConfigError``.

Inputs are JSON objects.  Each has a table of required (*) and optional
fields below; ``_checked`` rejects a missing or unknown field and a value of
another JSON type (a bool is not a number, a float not an integer, and
``NaN``, ``Infinity`` and ``-Infinity`` are not numbers).  An omitted optional
field takes the default in brackets.

* run config: ``problem``* object, ``solvers``* nonempty list of solver
  entries, ``seed``* integer >= 0, ``output`` string [``trace.csv``],
  ``warm_start_k0`` integer >= 0 [0], ``max_iters`` integer >= 0 [100],
  ``grad_tol`` number [1e-12], ``record_dense_diags`` bool [false].
* problem, by ``kind``*: ``libsvm`` -- ``path``* string, ``mu`` number
  [1e-4], ``normalize`` bool [true]; ``synth_logistic`` -- ``n``*, ``d``*
  integers >= 0, ``mu`` number [1e-4]; ``synth_quadratic`` -- ``d``* integer
  >= 0, ``spectrum`` nonempty list of numbers [[1, 100]], ``rotate`` bool
  [true].
* solver entry: ``method``* string; ``tau`` integer [10] or ``taus``
  nonempty list of integers, not both; ``alpha``, ``h0_scale`` numbers
  [method default, 1/L]; ``correction`` string [``off``]; ``subset_policy``
  string [``adaptive``]; ``lbfgs_scaling`` string [``fixed``].  A second
  cell for one (method, tau) is a ``ConfigError``: CSV rows are keyed by both.
* synth spec: ``n``*, ``d``* integers >= 1, ``kind`` string [``logistic``],
  ``seed`` integer >= 0 [0], ``output`` string [``synthetic.libsvm``].

README.md has an example run config.  The trace CSV starts with a schema
comment line followed by the header
``solver,tau,iteration,f_gap,grad_norm,lambda_f,pair_count,case_tag,wall_time_s``;
rows are sorted by (solver, tau, iteration) and are byte-stable for a fixed
config and seed except for the wall-time column.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import verify
from .data import parse_libsvm, normalize_rows, serialize_libsvm, synth_logistic_dataset, synth_problem
from .objectives import LogisticObjective, Objective
from .solvers import SolverConfig, run, warm_start

logger = logging.getLogger(__name__)

CSV_SCHEMA = 1
CSV_HEADER = "solver,tau,iteration,f_gap,grad_norm,lambda_f,pair_count,case_tag,wall_time_s"

EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_BAD_DATASET = 3
EXIT_BAD_TAU = 4


class ConfigError(ValueError):
    """A malformed config, problem, solver entry or synth spec, or an unwritable output."""

    exit_code = EXIT_BAD_CONFIG


class TauError(ConfigError):
    """A memory size tau the solver cannot use."""

    exit_code = EXIT_BAD_TAU


class DatasetError(ValueError):
    """A dataset file that cannot be read or is not valid LIBSVM text."""

    exit_code = EXIT_BAD_DATASET


def _list_of(item, kinds: str):
    """The JSON type of a nonempty list whose entries are of type ``item``."""
    return (lambda v: type(v) is list and bool(v) and all(item[0](x) for x in v),
            f"a nonempty list of {kinds}")


# JSON types: a check and its description; a bool is never a number, a float
# never an integer, and the NaN and Infinity literals that Python's json reads
# are no JSON number
_INT = (lambda v: type(v) is int, "an integer")
_COUNT = (lambda v: type(v) is int and v >= 0, "an integer >= 0")
_SIZE = (lambda v: type(v) is int and v >= 1, "an integer >= 1")
_NUMBER = (lambda v: type(v) is int or type(v) is float and math.isfinite(v), "a number")
_BOOL = (lambda v: type(v) is bool, "true or false")
_STR = (lambda v: type(v) is str, "a string")
_OBJECT = (lambda v: type(v) is dict, "an object")

# (required, optional) fields of each JSON object; defaults are the consumers'
_CONFIG = ({"problem": _OBJECT, "solvers": _list_of(_OBJECT, "objects"), "seed": _COUNT},
           {"output": _STR, "warm_start_k0": _COUNT, "max_iters": _COUNT,
            "grad_tol": _NUMBER, "record_dense_diags": _BOOL})
_PROBLEMS = {
    "libsvm": ({"kind": _STR, "path": _STR}, {"mu": _NUMBER, "normalize": _BOOL}),
    "synth_logistic": ({"kind": _STR, "n": _COUNT, "d": _COUNT}, {"mu": _NUMBER}),
    "synth_quadratic": ({"kind": _STR, "d": _COUNT},
                        {"spectrum": _list_of(_NUMBER, "numbers"), "rotate": _BOOL}),
}
_SOLVER = ({"method": _STR},
           {"tau": _INT, "taus": _list_of(_INT, "integers"), "alpha": _NUMBER,
            "correction": _STR, "subset_policy": _STR, "h0_scale": _NUMBER,
            "lbfgs_scaling": _STR})
_SYNTH = ({"n": _SIZE, "d": _SIZE},
          {"kind": _STR, "seed": _COUNT, "output": (_STR[0], "a path")})


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc


def _checked(raw, fields, what: str, field: str = "field {!r}") -> dict:
    """``raw`` if it is a JSON object with every required field of ``fields``
    (a (required, optional) pair of name -> type tables), no other field, and
    each value of its field's type; else ``ConfigError``.  ``what`` names the
    object in the message and ``field`` formats a field's name."""
    if type(raw) is not dict:
        raise ConfigError(f"{what} must be a JSON object")
    required, optional = fields
    types = {**required, **optional}
    missing = sorted(required.keys() - raw.keys())
    if missing:
        raise ConfigError(f"{what} requires a {missing[0]!r} field")
    for name, value in raw.items():
        if name not in types:
            raise ConfigError(f"{what} has an unknown field {name!r}")
        check, kind = types[name]
        if not check(value):
            raise ConfigError(f"{what}: {field.format(name)} must be {kind}, got {value!r}")
    return raw


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
        return cls(**_checked(_read_json(path, "config"), _CONFIG, "config"))


def _build_objective(problem: dict, seed: int) -> Objective:
    kind = problem.get("kind")
    if type(kind) is not str or kind not in _PROBLEMS:
        raise ConfigError(f"unknown problem kind {kind!r}")
    fields = {k: v for k, v in _checked(problem, _PROBLEMS[kind], f"{kind} problem").items()
              if k != "kind"}
    if kind == "libsvm":
        path = fields["path"]
        try:
            ds = parse_libsvm(path)
        except (OSError, ValueError) as exc:
            raise DatasetError(f"cannot read dataset {path!r}: {exc}") from exc
        if fields.get("normalize", True):
            ds = normalize_rows(ds)
    try:
        if kind == "libsvm":
            return LogisticObjective(ds, reg_mu=fields.get("mu", 1e-4))
        if kind == "synth_logistic":
            return synth_problem("logistic", seed=seed, **fields)
        return synth_problem("quadratic", seed=seed, **{"spectrum": (1.0, 100.0), **fields})
    except ValueError as exc:
        raise ConfigError(f"invalid {kind} problem: {exc}") from exc


def _solver_cells(cfg: ExperimentConfig) -> list[SolverConfig]:
    cells = []
    for raw in cfg.solvers:
        what = f"invalid {raw['method']} solver entry" if "method" in raw else "invalid solver entry"
        entry = dict(_checked(raw, _SOLVER, what))
        if "tau" in entry and "taus" in entry:
            raise ConfigError(f"{what}: give 'tau' or 'taus', not both")
        for tau in entry.pop("taus", None) or [entry.pop("tau", 10)]:
            if tau < 1:
                raise TauError(f"invalid tau {tau} for solver {entry['method']}")
            if any((c.method, c.tau) == (entry["method"], tau) for c in cells):
                raise ConfigError(f"{what}: a second cell for {entry['method']} tau={tau}")
            try:
                cells.append(SolverConfig(**entry, tau=tau, max_iters=cfg.max_iters,
                                          grad_tol=cfg.grad_tol,
                                          record_dense_diags=cfg.record_dense_diags))
            except ValueError as exc:
                raise ConfigError(f"{what}: {exc}") from exc
    return cells


def _open_output(path: str):
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc}") from exc


def _format(value: float) -> str:
    return repr(float(value))


def run_experiment(cfg: ExperimentConfig) -> str:
    """Execute the sweep and write the CSV trace; returns the output path."""
    cells = _solver_cells(cfg)
    obj = _build_objective(cfg.problem, cfg.seed)
    x0 = warm_start(obj, np.zeros(obj.info.dim), cfg.warm_start_k0)
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
    with _open_output(cfg.output) as fh:
        fh.write(f"# schema={CSV_SCHEMA}\n")
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")
    logger.info("wrote %d rows to %s", len(rows), cfg.output)
    return cfg.output


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    if args.output:
        cfg.output = args.output
    run_experiment(cfg)
    return 0


def _cmd_verify(args) -> int:
    results, passed = verify.run_suite(args.scope)
    for result in results:
        print(result.render())
    return 0 if passed else EXIT_VERIFY_FAILED


def _cmd_synth(args) -> int:
    spec = _checked(_read_json(args.spec, "synth spec"), _SYNTH, "bad synth spec",
                    field="synth {}")
    kind = spec.get("kind", "logistic")
    if kind != "logistic":
        raise ConfigError(f"synth can only emit logistic datasets, got {kind!r}")
    ds = synth_logistic_dataset(n=spec["n"], d=spec["d"], seed=spec.get("seed", 0))
    out = args.output or spec.get("output", "synthetic.libsvm")
    with _open_output(out) as fh:
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
    args = build_parser().parse_args(argv)
    try:
        level = os.environ.get("LGBFGS_LOG", "WARNING").upper()
        # a level name maps to its number; basicConfig checks only a fresh root logger
        if not isinstance(logging.getLevelName(level), int):
            raise ConfigError(f"unknown LGBFGS_LOG level {level!r}")
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except (ConfigError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
