"""Solver benchmark for lgbfgs: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload c3-d200 --seed 0 --seconds 50 --trace 0

One run builds the workload's problem from ``--seed`` and repeats sweeps
(set-up, warm start, every solver cell; what ``lgbfgs run`` does) while
another sweep fits in ``--seconds``, at least once.  It then checks every
cell against an independent oracle (``oracle.py``) and that all sweeps
produced the same traces.  ``--trace 1`` adds one traced sweep
(``tracer.py``), which must reproduce the untraced traces, and reports
per-layer metrics instead of end-to-end ones.

Standard output: an ``env`` line (versions, BLAS, threads, nproc), the
workload's per-cell metrics and exact counts, and as the last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A cell that raises counts as failed and the run still prints that line; when
every cell raised, it has no ``grad_norm_ratio``.  Exit status 1 without that
line when the sources are missing, a traced function is gone, or a traced
layer is silent that the workload calls, or busy that it never calls.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, fixed before numpy loads: steadier times on a shared host,
# and a fixed summation order, so every sweep yields the same trace.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
from tracer import OBJECTIVE_TARGETS, SPAN_NAMES, MissingTarget, Tracer  # noqa: E402
from workloads import MU, WORKLOADS, Cell, Workload  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
# builds before the sweeps: at least this many, for at least this long
SETUP_REPS = 5
SETUP_SECONDS = 2.0


def load_library():
    """Import lgbfgs from this checkout's sources, never from an installed copy."""
    if not (SRC / "lgbfgs" / "__init__.py").is_file():
        raise SystemExit(f"error: no lgbfgs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lgbfgs
    from lgbfgs import data, errors, solvers

    if Path(lgbfgs.__file__).resolve().parent != SRC / "lgbfgs":
        raise SystemExit(f"error: imported lgbfgs from {lgbfgs.__file__}, not {SRC}")
    return data, solvers, (errors.CurvatureError, errors.AggregationError)


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


@dataclass
class CellRun:
    cell: Cell
    wall_s: float
    trace: object | None  # lgbfgs.solvers.Trace; None when the cell raised
    error: str | None

    def cases(self) -> Counter:
        return Counter(r.case_tag for r in self.trace.records if r.case_tag)

    def fingerprint(self):
        """What a repeated or traced run of the cell must reproduce exactly."""
        if self.trace is None:
            return self.error
        tr = self.trace
        return (tr.stop_reason, len(tr.records) - 1, tuple(sorted(self.cases().items())),
                tr.final_grad_norm, tr.x_final.tobytes())

    def step_ms(self) -> np.ndarray:
        """Wall time of each step; the last record only evaluates the final iterate."""
        return 1000.0 * np.diff([0.0] + [r.wall_time_s for r in self.trace.records])[:-1]


@dataclass
class Sweep:
    setup_s: float
    warm_start_s: float
    wall_s: float
    cells: list[CellRun]
    # the sweep's start, each objective call's start, and the sweep's end
    stamps: list[float]

    def parts(self) -> np.ndarray:
        return np.diff(self.stamps)


def stamp_calls(obj, stamps: list[float]) -> None:
    """Append the start time of every call to the objective's methods to ``stamps``."""
    for method, _, _ in OBJECTIVE_TARGETS:
        inner = getattr(obj, method)

        def stamped(*args, _inner=inner, **kwargs):
            stamps.append(time.perf_counter())
            return _inner(*args, **kwargs)

        setattr(obj, method, stamped)


class Bench:
    def __init__(self, wl: Workload, seed: int):
        self.wl, self.seed = wl, seed
        self.data, self.solvers, self.cell_errors = load_library()

    def build(self):
        return self.data.synth_problem("logistic", d=self.wl.d, n=self.wl.n, mu=MU,
                                       seed=self.seed)

    def setup_times(self) -> list[float]:
        """Times of repeated problem builds."""
        setup, obj = [], None
        while len(setup) < SETUP_REPS or sum(setup) < SETUP_SECONDS:
            obj = None  # free the previous problem before building the next
            start = time.perf_counter()
            obj = self.build()
            setup.append(time.perf_counter() - start)
        return setup

    def sweep(self, tracer: Tracer | None = None) -> Sweep:
        start = time.perf_counter()
        stamps = [start]
        obj = self.build()
        setup_s = time.perf_counter() - start
        if tracer is not None:
            tracer.wrap_objective(obj)
        else:
            stamp_calls(obj, stamps)
        warm = time.perf_counter()
        x0 = self.solvers.warm_start(obj, np.zeros(self.wl.d), self.wl.warm_start_k0)
        warm_start_s = time.perf_counter() - warm
        runs = []
        for cell in self.wl.cells:
            cfg = self.solvers.SolverConfig(method=cell.method, tau=cell.tau,
                                            max_iters=cell.max_iters, grad_tol=cell.grad_tol)
            t = time.perf_counter()
            try:
                trace, error = self.solvers.run(obj, x0, cfg), None
            except self.cell_errors as exc:
                trace, error = None, f"{type(exc).__name__}: {exc}"
            runs.append(CellRun(cell, time.perf_counter() - t, trace, error))
        stamps.append(time.perf_counter())
        # the stamped methods hold obj: drop them so that obj is freed at once
        for method, _, _ in OBJECTIVE_TARGETS if tracer is None else ():
            delattr(obj, method)
        return Sweep(setup_s, warm_start_s, stamps[-1] - start, runs, stamps)

    def gate(self, run: CellRun, problem: oracle.Logistic, minimum) -> list[str]:
        """Why a cell's output is wrong; empty when it passes."""
        if run.trace is None:
            return [run.error]
        cell, tr = run.cell, run.trace
        problems = []
        last = tr.records[-1]
        want = "grad_tol" if cell.to_tol else "max_iters"
        if tr.stop_reason != want:
            problems.append(f"stopped on {tr.stop_reason}, expected {want}")
        if cell.to_tol and not last.grad_norm <= cell.grad_tol:
            problems.append(f"stopped at grad norm {last.grad_norm:.3e} "
                            f"> tolerance {cell.grad_tol:.3e}")
        if not cell.to_tol and len(tr.records) - 1 != cell.max_iters:
            problems.append(f"{len(tr.records) - 1} iterations, expected {cell.max_iters}")
        if cell.method == "lg_bfgs":
            cases = run.cases()
            problems += [f"no {c} events" for c in self.wl.cases_seen if not cases[c]]
            problems += [f"{cases[c]} {c} events" for c in self.wl.cases_absent if cases[c]]
        problems += oracle.check_cell(problem, minimum if cell.to_tol else None,
                                      tr.x_final, last.f_value, last.grad_norm)
        return problems


def median(values) -> float:
    return float(statistics.median(values))


def geomean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def best_sweep_s(sweeps: list[Sweep]) -> float:
    """Sweep time with each part at its fastest repeat.

    The objective calls cut a sweep into parts, and every sweep makes the
    same calls (the gate checks that the traces repeat bit for bit), so part
    k is the same work in every sweep.  A shared host's speed drifts by tens
    of percent within a minute; summing each part's fastest repeat leaves the
    slow stretches out.  Sweeps cut into another number of parts, which the
    gate fails, are left out here.
    """
    parts = [s.parts() for s in sweeps if len(s.stamps) == len(sweeps[0].stamps)]
    return float(np.min(parts, axis=0).sum())


def cell_metrics(sweeps: list[Sweep]) -> dict[str, dict]:
    """Per-cell figures over every sweep in which the cell ran."""
    out = {}
    for k, first in enumerate(sweeps[0].cells):
        cell = first.cell
        runs = [s.cells[k] for s in sweeps if s.cells[k].trace is not None]
        if not runs:
            continue
        tr = runs[0].trace
        m = {
            "ms_per_iter": metric(np.median(np.concatenate([r.step_ms() for r in runs])), "ms"),
            "final_grad_norm": metric(tr.final_grad_norm, "norm"),
            "grad_norm_ratio": metric(tr.final_grad_norm / tr.records[0].grad_norm, "ratio"),
        }
        if cell.to_tol:
            m["time_to_tol_s"] = metric(median(r.wall_s for r in runs), "s")
            m["iters_to_tol"] = metric(len(tr.records) - 1, "count")
        else:
            m["wall_s"] = metric(median(r.wall_s for r in runs), "s")
        out[cell.method] = m
    return out


def greedy_digest(tracer: Tracer) -> str:
    """Every greedy step reads one Hessian column, at the index it chose."""
    seq = ",".join(str(i) for i in tracer.args("objectives.hess_column"))
    return hashlib.sha256(seq.encode()).hexdigest()[:16]


def layer_metrics(tracer: Tracer, traced: Sweep, untraced_sweep_s: float) -> dict[str, dict]:
    st = tracer.layers()
    agg_ms = 1000.0 * tracer.durations("aggregation.aggregate_c3")
    cases = Counter()
    for run in traced.cells:
        if run.trace is not None and run.cell.method == "lg_bfgs":
            cases += run.cases()
    out = {}
    for name in ("objectives.value_grad", "objectives.hess_column", "objectives.hess_vec",
                 "objectives.hess_diag", "aggregation.aggregate_c3", "kernels.compact_B_diag",
                 "kernels.two_loop_direction", "kernels.dense_update",
                 "correction.apply_scaling"):
        out[f"{name}.calls"] = metric(st[name].calls, "count")
        out[f"{name}.s"] = metric(st[name].s, "s")
    for name in ("objectives.hess_diag", "kernels.compact_B_diag"):
        out[f"{name}.entries"] = metric(st[name].entries, "count")
    out["aggregation.event_ms.p50"] = metric(np.percentile(agg_ms, 50) if agg_ms.size else 0, "ms")
    out["aggregation.event_ms.p90"] = metric(np.percentile(agg_ms, 90) if agg_ms.size else 0, "ms")
    out["aggregation.failures"] = metric(st["aggregation.aggregate_c3"].errors, "count")
    out["greedy.greedy_pair.calls"] = metric(st["greedy.greedy_pair"].calls, "count")
    out["greedy.greedy_pair.self_s"] = metric(st["greedy.greedy_pair"].self_s, "s")
    out["greedy.candidates"] = metric(st["greedy.greedy_pair"].entries, "count")
    out["correction.weighted_step_norm.self_s"] = metric(
        st["correction.weighted_step_norm"].self_s, "s")
    for case in ("C1", "C2", "C3"):
        out[f"pairs.{case.lower()}"] = metric(cases[case], "count")
    out["solvers.warm_start.s"] = metric(st["solvers.warm_start"].s, "s")
    out["solvers.iters"] = metric(
        sum(len(r.trace.records) - 1 for r in traced.cells if r.trace is not None), "count")
    out["solvers.self_s"] = metric(st["solvers.run"].self_s + st["solvers.warm_start"].self_s, "s")
    out["data.synth_problem.s"] = metric(st["data.synth_problem"].s, "s")
    out["trace.overhead"] = metric(traced.wall_s / untraced_sweep_s - 1.0, "ratio")
    out["trace.unattributed_share"] = metric(
        (traced.wall_s - tracer.top_level_s()) / traced.wall_s, "ratio")
    return out


# The per-cell figures reported as per-layer metrics of the solvers layer;
# zero where the workload has no such cell.
CELL_FIGURES = (
    ("lg_bfgs", "ms_per_iter"), ("lg_bfgs", "wall_s"), ("lg_bfgs", "final_grad_norm"),
    ("greedy_bfgs", "ms_per_iter"),
    ("lbfgs", "time_to_tol_s"),
)
CELL_UNITS = {"ms_per_iter": "ms", "wall_s": "s", "time_to_tol_s": "s", "final_grad_norm": "norm"}


def check_layers(wl: Workload, tracer: Tracer) -> None:
    """Every traced span must record calls, except the workload's idle ones, which must not."""
    st = tracer.layers()
    silent = [n for n in SPAN_NAMES if n not in wl.idle_spans and not st[n].calls]
    busy = [n for n in wl.idle_spans if st[n].calls]
    if silent or busy:
        raise SystemExit(f"error: {wl.name}: layers without calls {silent}, "
                         f"layers that should have none but were called {busy}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    wl = WORKLOADS[args.workload]
    bench = Bench(wl, args.seed)
    print("env " + json.dumps(environment()), flush=True)

    setup = bench.setup_times()
    sweeps: list[Sweep] = []
    start = time.perf_counter()
    # repeat sweeps while the next one, as long as the last, still fits
    while not sweeps or time.perf_counter() - start + sweeps[-1].wall_s <= args.seconds:
        sweeps.append(bench.sweep())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = tracer = None
    if args.trace:
        try:
            with Tracer() as tracer:
                traced = bench.sweep(tracer)
        except MissingTarget as exc:
            raise SystemExit(f"error: cannot trace: {exc}") from None
        check_layers(wl, tracer)

    # correctness: the oracle on the first sweep, exact repeats everywhere else
    problem = oracle.Logistic.synthetic(wl.n, wl.d, MU, args.seed)
    minimum = problem.minimum() if any(c.to_tol for c in wl.cells) else None
    first = sweeps[0].cells
    verdicts = [bench.gate(run, problem, minimum) for run in first]
    labelled = [(f"sweep {i}", s) for i, s in enumerate(sweeps)]
    if traced is not None:
        labelled.append(("traced sweep", traced))
    attempted = failed = 0
    for label, s in labelled:
        for k, run in enumerate(s.cells):
            problems = list(verdicts[k])
            if run.fingerprint() != first[k].fingerprint():
                problems.append("trace differs from sweep 0")
            attempted += 1
            if problems:
                failed += 1
                print(f"FAIL {wl.name} seed={args.seed} {run.cell.method} {label}: "
                      + "; ".join(problems), file=sys.stderr)

    cells = cell_metrics(sweeps)
    fail_rate = failed / attempted
    summary = {
        "setup_s": metric(median(setup + [s.setup_s for s in sweeps]), "s"),
        "sweep_best_s": metric(best_sweep_s(sweeps), "s"),
        "iters": metric(sum(len(r.trace.records) - 1 for r in first if r.trace), "count"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "pass_rate": metric(1.0 - fail_rate, "ratio"),
    }
    # when every cell raised there is no grad norm; the run is reported failed
    if cells:
        summary["grad_norm_ratio"] = metric(
            geomean([m["grad_norm_ratio"]["value"] for m in cells.values()]), "ratio")
    detail = {"sweep_s": metric(median(s.wall_s for s in sweeps), "s"),
              "warm_start_s": metric(median(s.warm_start_s for s in sweeps), "s"),
              "fail_rate": metric(fail_rate, "ratio")}
    for method, m in cells.items():
        detail.update({f"{method}.{key}": v for key, v in m.items()})

    print(f"workload {wl.name} seed {args.seed}: {len(sweeps)} sweeps, "
          f"{attempted} cell runs, {failed} failed")
    for name, m in {**summary, **detail}.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    counts = {"iters": {r.cell.method: len(r.trace.records) - 1 for r in first if r.trace}}
    for r in first:
        if r.trace and r.cell.method == "lg_bfgs":
            counts["pairs"] = {c.lower(): r.cases()[c] for c in ("C1", "C2", "C3")}

    if tracer is not None:
        metrics = layer_metrics(tracer, traced, detail["sweep_s"]["value"])
        for method, key in CELL_FIGURES:
            value = cells.get(method, {}).get(key, {}).get("value", 0.0)
            metrics[f"{method}.{key}"] = metric(value, CELL_UNITS[key])
        metrics["sweep_s"] = detail["sweep_s"]
        metrics["warm_start_s"] = detail["warm_start_s"]
        metrics["fail_rate"] = detail["fail_rate"]
        counts["greedy_digest"] = greedy_digest(tracer)
    else:
        metrics = summary
    print("counts " + json.dumps(counts))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
