"""Registered verification checks runnable from the CLI.

Each check exercises one oracle equivalence or theoretical identity and
returns its worst observed residual against a fixed tolerance.  Checks are
grouped into scopes (kernels, aggregation, theory); ``run_suite`` executes a
scope and renders one pass/fail line per check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import aggregation, diagnostics, kernels
from .correction import CorrectionConfig
from .data import synth_problem
from .greedy import SubsetPolicy
from .pairs import CurvaturePair, PairStore
from .solvers import SolverConfig, run, warm_start


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: worst={self.worst:.3e} (tol {self.tol:.1e})"


def _random_store(rng, d, size, h0=None) -> PairStore:
    spd = rng.standard_normal((d, d))
    spd = spd @ spd.T + d * np.eye(d)
    idxs = rng.permutation(d)[:size]
    store = PairStore(dim=d, tau=max(size, 1), h0_scale=h0 or float(rng.uniform(0.5, 2.0)))
    for i in idxs:
        a = rng.standard_normal((d, d))
        a = a @ a.T + d * np.eye(d)
        store.insert_c1(CurvaturePair(int(i), a[:, int(i)].copy()))
    return store


def check_two_loop_vs_dense(cases: int = 200, seed: int = 0) -> CheckResult:
    """Two-loop direction equals minus the dense fold applied to the gradient."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(2, 21))
        size = int(rng.integers(0, min(d, 10) + 1))
        store = _random_store(rng, d, size)
        g = rng.standard_normal(d)
        dense = kernels.dense_H_from_pairs(store) @ g
        direction = kernels.two_loop_direction(store, g)
        worst = max(worst, float(np.linalg.norm(direction + dense))
                    / max(float(np.linalg.norm(dense)), 1e-300))
    return CheckResult("two_loop_vs_dense_fold", worst <= 1e-10, worst, 1e-10)


def check_compact_column_vs_dense(cases: int = 200, seed: int = 1) -> CheckResult:
    """Compact-representation columns match the inverse of the dense fold."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(2, 21))
        size = int(rng.integers(0, min(d, 10) + 1))
        store = _random_store(rng, d, size)
        B = np.linalg.inv(kernels.dense_H_from_pairs(store))
        i = int(rng.integers(0, d))
        col = kernels.compact_B_column(store, i)
        worst = max(worst, float(np.linalg.norm(col - B[:, i]))
                    / max(float(np.linalg.norm(B[:, i])), 1e-300))
    return CheckResult("compact_column_vs_dense_inverse", worst <= 1e-9, worst, 1e-9)


def check_secant_identities(cases: int = 100, seed: int = 2) -> CheckResult:
    """Secant, inverse-secant, and mutual-inverse identities of the updates."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(2, 15))
        a = rng.standard_normal((d, d))
        B = a @ a.T + d * np.eye(d)
        s = rng.standard_normal(d)
        spd = rng.standard_normal((d, d))
        r = (spd @ spd.T + d * np.eye(d)) @ s
        B_new = kernels.dense_bfgs_update(B, s, r)
        H_new = kernels.dense_inv_bfgs_update(np.linalg.inv(B), s, r)
        worst = max(
            worst,
            float(np.linalg.norm(B_new @ s - r)) / float(np.linalg.norm(r)),
            float(np.linalg.norm(H_new @ r - s)) / float(np.linalg.norm(s)),
            float(np.linalg.norm(H_new @ B_new - np.eye(d))),
        )
    return CheckResult("secant_and_inverse_identities", worst <= 1e-8, worst, 1e-8)


def check_aggregation_equivalence(cases: int = 100, seed: int = 3) -> CheckResult:
    """Aggregated store reproduces the dense fold of the augmented history."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(3, 13))
        size = int(rng.integers(2, min(d, 6) + 1))
        store = _random_store(rng, d, size)
        j = int(rng.integers(0, size - 1))
        idx = store.indices[j]
        a = rng.standard_normal((d, d))
        new = CurvaturePair(idx, (a @ a.T + d * np.eye(d))[:, idx].copy())
        full = store.snapshot()
        full.tau += 1
        full.validate = False
        full.pairs.append(new)
        target = kernels.dense_H_from_pairs(full)
        aggregation.aggregate_c3(store, j, new)
        got = kernels.dense_H_from_pairs(store)
        worst = max(worst, float(np.linalg.norm(got - target))
                    / float(np.linalg.norm(target)))
    return CheckResult("aggregation_dense_equivalence", worst <= 1e-8, worst, 1e-8)


def check_store_invariants_fuzz(ops: int = 1000, seed: int = 4) -> CheckResult:
    """Random C1/C2/C3 sequences never exceed capacity or duplicate indices."""
    rng = np.random.default_rng(seed)
    d, tau = 8, 4
    store = PairStore(dim=d, tau=tau, h0_scale=1.0)
    violations = 0
    for _ in range(ops):
        if store.size == 0 or (store.size < tau and rng.random() < 0.5):
            free = [i for i in range(d) if i not in store.indices]
            idx = int(rng.choice(free))
        else:
            idx = int(rng.choice(store.indices))
        spd = rng.standard_normal((d, d))
        A = spd @ spd.T + d * np.eye(d)
        pair = CurvaturePair(idx, A[:, idx].copy())
        tag = store.classify(idx)
        if tag.kind == "C1":
            store.insert_c1(pair)
        elif tag.kind == "C2":
            store.replace_c2(pair)
        else:
            aggregation.aggregate_c3(store, tag.j, pair)
        if store.size > tau or len(set(store.indices)) != store.size:
            violations += 1
    return CheckResult("store_invariants_fuzz", violations == 0, float(violations), 0.0)


def check_scaling_identity(cases: int = 100, seed: int = 5) -> CheckResult:
    """Scaling the seed and gradient variations scales the whole direct fold."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(2, 10))
        length = int(rng.integers(1, min(d, 6) + 1))
        psi = float(rng.uniform(1.0, 3.0))
        b0 = float(rng.uniform(0.5, 2.0))
        idxs = rng.permutation(d)[:length]
        pairs = []
        for i in idxs:
            a = rng.standard_normal((d, d))
            pairs.append((int(i), (a @ a.T + d * np.eye(d))[:, int(i)].copy()))
        B_plain = b0 * np.eye(d)
        B_scaled = psi * b0 * np.eye(d)
        for i, r in pairs:
            s = np.zeros(d)
            s[i] = 1.0
            B_plain = kernels.dense_bfgs_update(B_plain, s, r)
            B_scaled = kernels.dense_bfgs_update(B_scaled, s, psi * r)
        worst = max(worst, float(np.linalg.norm(B_scaled - psi * B_plain))
                    / float(np.linalg.norm(B_plain)))
    return CheckResult("correction_scaling_identity", worst <= 1e-10, worst, 1e-10)


def check_full_memory_equivalence(seed: int = 6) -> CheckResult:
    """Limited-memory run with tau = d matches the dense greedy baseline."""
    d = 10
    obj = synth_problem("quadratic", d=d, spectrum=np.linspace(1.0, 10.0, d),
                        seed=seed, rotate=True)
    x0 = np.ones(d)
    common = dict(tau=d, max_iters=50, grad_tol=0.0,
                  correction=CorrectionConfig("basic"))
    tr_lg = run(obj, x0, SolverConfig(method="lg_bfgs",
                                      subset_policy=SubsetPolicy("fixed_prefix"),
                                      **common))
    tr_gb = run(obj, x0, SolverConfig(method="greedy_bfgs", **common))
    worst = 0.0
    for a, b in zip(tr_lg.records, tr_gb.records):
        scale = max(abs(b.grad_norm), 1e-300)
        worst = max(worst, abs(a.grad_norm - b.grad_norm) / scale)
    return CheckResult("full_memory_equivalence", worst <= 1e-8, worst, 1e-8)


def check_linear_rate_bound(seed: int = 7) -> CheckResult:
    """Decrement sequence on a quadratic obeys the per-iteration linear bound."""
    d = 10
    obj = synth_problem("quadratic", d=d, spectrum=np.linspace(1.0, 10.0, d),
                        seed=seed, rotate=True)
    x0 = warm_start(obj, np.ones(d), 3)
    cfg = SolverConfig(method="lg_bfgs", tau=5, max_iters=200, grad_tol=0.0,
                       correction=CorrectionConfig("basic"),
                       record_dense_diags=True)
    trace = run(obj, x0, cfg)
    lam0 = trace.records[0].lambda_f
    factor = 1.0 - obj.info.mu / (2.0 * obj.info.lipschitz_L)
    worst = -np.inf
    for rec in trace.records:
        bound = factor**rec.t * lam0 * (1.0 + 1e-12)
        worst = max(worst, rec.lambda_f - bound)
    return CheckResult("linear_rate_bound", worst <= 0.0, worst, 0.0)


def check_contraction_inequality(seed: int = 8) -> CheckResult:
    """Per-step trace-metric contraction holds on a corrected quadratic run."""
    d = 5
    obj = synth_problem("quadratic", d=d, spectrum=np.linspace(1.0, 8.0, d),
                        seed=seed, rotate=True)
    residuals = []

    def observer(snap):
        B_before = kernels.dense_B_from_pairs(snap.store_before)
        B_after = kernels.dense_B_from_pairs(snap.store_after)
        residuals.append(
            diagnostics.contraction_residual(
                obj, snap.x, snap.x_next, B_before, B_after, snap.candidates
            )
        )

    cfg = SolverConfig(method="lg_bfgs", tau=3, max_iters=100, grad_tol=0.0,
                       correction=CorrectionConfig("basic"))
    run(obj, np.ones(d), cfg, observer=observer)
    worst = -min(residuals)
    return CheckResult("contraction_inequality", worst <= 1e-9, worst, 1e-9)


def check_memory_bound(seed: int = 9) -> CheckResult:
    """Pair counts never exceed tau across a benchmark-style run."""
    obj = synth_problem("logistic", d=20, n=200, mu=1e-3, seed=seed)
    x0 = warm_start(obj, np.zeros(20), 3)
    worst = 0
    for tau in (3, 7, 15):
        for method in ("lbfgs", "lg_bfgs"):
            cfg = SolverConfig(method=method, tau=tau, max_iters=60, grad_tol=0.0)
            trace = run(obj, x0, cfg)
            worst = max(worst, max(r.pair_count - tau for r in trace.records))
    return CheckResult("memory_bound", worst <= 0, float(worst), 0.0)


def check_beta_sanity(cases: int = 50, seed: int = 10) -> CheckResult:
    """Relative condition numbers: full-basis minimum 1, spectral bounds hold."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(2, 12))
        a = rng.standard_normal((d, d))
        E = a @ a.T + 0.5 * np.eye(d)
        betas, beta_min = diagnostics.relative_condition_numbers(E, range(d))
        eigs = np.linalg.eigvalsh(E)
        cond = eigs[-1] / eigs[0]
        worst = max(worst, abs(beta_min - 1.0))
        worst = max(worst, float(np.max(1.0 - betas)))  # betas >= 1
        worst = max(worst, float(np.max(betas - cond)))  # betas <= cond
    return CheckResult("relative_condition_sanity", worst <= 1e-12, worst, 1e-12)


SCOPES: dict[str, list[Callable[[], CheckResult]]] = {
    "kernels": [
        check_two_loop_vs_dense,
        check_compact_column_vs_dense,
        check_secant_identities,
    ],
    "aggregation": [
        check_aggregation_equivalence,
        check_store_invariants_fuzz,
    ],
    "theory": [
        check_scaling_identity,
        check_full_memory_equivalence,
        check_linear_rate_bound,
        check_contraction_inequality,
        check_memory_bound,
        check_beta_sanity,
    ],
}


def run_suite(scope: str = "all") -> tuple[list[CheckResult], bool]:
    """Run the checks of a scope; returns (results, all_passed)."""
    if scope == "all":
        checks = [c for group in SCOPES.values() for c in group]
    elif scope in SCOPES:
        checks = SCOPES[scope]
    else:
        raise ValueError(f"unknown scope {scope!r}; choose from "
                         f"{sorted(SCOPES) + ['all']}")
    results = [check() for check in checks]
    return results, all(r.passed for r in results)
