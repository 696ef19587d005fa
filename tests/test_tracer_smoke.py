"""Smoke test of the benchmark's layer tracer (``perfbench/tracer.py``).

The tracer wraps library functions and objective methods by name and counts
named arguments; a renamed function, method or argument makes it raise
``MissingTarget``.  This runs it on a tiny problem so such a rename fails
here, in seconds, rather than in a benchmark run.  The run (4 C1 and 21 C3
steps, after a 2-step dense warm start) also has to call every span in
``SPAN_NAMES`` without an error, so a refactor that silences a layer or stops
calling a wrapped name through the looked-up namespace fails here too.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from lgbfgs import data, solvers

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_lg_bfgs_run_records_every_objective_layer():
    tracer_mod = load_tracer()
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
