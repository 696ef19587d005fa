"""Smoke test of the benchmark's layer tracer (``perfbench/tracer.py``).

The tracer wraps library functions and objective methods by name and counts
named arguments; a renamed function, method or argument makes it raise
``MissingTarget``.  This runs it on a tiny problem so such a rename fails
here, in seconds, rather than in a benchmark run.  The run (4 C1 and 21 C3
steps, after a 2-step dense warm start) also has to call every span in
``SPAN_NAMES`` without an error, so a refactor that silences a layer or stops
calling a wrapped name through the looked-up namespace fails here too.

Each benchmark workload (``perfbench/workloads.py``) is also run here with its
own cells on a small problem, and held to the rule the traced benchmark run
applies (``run.check_layers``): every span the workload does not list as idle
records calls, and every idle span records none.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from lgbfgs import data, solvers

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = load_perfbench("workloads")


def test_lg_bfgs_run_records_every_objective_layer():
    tracer_mod = load_perfbench("tracer")
    run = solvers.run
    with tracer_mod.Tracer() as tracer:
        obj = data.synth_problem("logistic", d=8, n=60, mu=1e-2, seed=0)
        tracer.wrap_objective(obj)
        x0 = solvers.warm_start(obj, np.zeros(8), 2)
        cfg = solvers.SolverConfig(method="lg_bfgs", tau=4, max_iters=25, grad_tol=0.0)
        trace = solvers.run(obj, x0, cfg)
    assert trace.stop_reason == "max_iters"
    layers = tracer.layers()
    for name in tracer_mod.SPAN_NAMES:
        assert layers[name].calls > 0, name
        assert layers[name].errors == 0, name
    assert solvers.run is run  # restored on exit


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_cells_keep_their_layers(name):
    """The workload's cells behind a 2-step warm start, on 150 samples in
    d = 30: above c3-d200's tau of 20, so its store fills and C3 steps
    aggregate, and above fill-d1000's 8 steps, so its store never fills."""
    wl, d = workloads.WORKLOADS[name], 30
    tracer_mod = load_perfbench("tracer")
    with tracer_mod.Tracer() as tracer:
        obj = data.synth_problem("logistic", d=d, n=150, mu=workloads.MU, seed=0)
        tracer.wrap_objective(obj)
        x0 = solvers.warm_start(obj, np.zeros(d), 2)
        for cell in wl.cells:
            cfg = solvers.SolverConfig(method=cell.method, tau=cell.tau,
                                       max_iters=cell.max_iters, grad_tol=cell.grad_tol)
            trace = solvers.run(obj, x0, cfg)
            assert trace.stop_reason == ("grad_tol" if cell.to_tol else "max_iters")
    layers = tracer.layers()
    silent = [n for n in tracer_mod.SPAN_NAMES if n not in wl.idle_spans and not layers[n].calls]
    busy = [n for n in wl.idle_spans if layers[n].calls]
    assert (silent, busy) == ([], [])
