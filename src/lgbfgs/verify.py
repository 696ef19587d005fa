"""Registered verification checks runnable from the CLI.

Each check exercises one oracle equivalence or theoretical identity and
returns its worst observed residual against a fixed tolerance.  Checks are
grouped into scopes (kernels, aggregation, theory); ``run_suite`` executes a
scope and renders one pass/fail line per check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from . import aggregation, diagnostics, kernels
from .data import synth_problem
from .errors import AggregationError
from .pairs import PairStore
from .solvers import SolverConfig, run, warm_start


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float
    note: str = ""

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f"; {self.note}" if self.note else ""
        return f"[{status}] {self.name}: worst={self.worst:.3e} (tol {self.tol:.1e}){note}"


def _random_store(rng, d, size, h0=None) -> PairStore:
    idxs = rng.permutation(d)[:size]
    store = PairStore(dim=d, tau=max(size, 1), h0_scale=h0 or float(rng.uniform(0.5, 2.0)))
    R = np.empty((d, size))
    for k, i in enumerate(idxs):
        a = rng.standard_normal((d, d))
        R[:, k] = (a @ a.T + d * np.eye(d))[:, i]
    store.replace_suffix(0, idxs, R)
    return store


def _dense_H(store: PairStore) -> np.ndarray:
    return kernels.dense_H_from_pairs(store.indices, store.R, store.h0_scale)


def check_two_loop_vs_dense(cases: int = 200, seed: int = 0) -> CheckResult:
    """Two-loop direction equals minus the dense fold applied to the gradient."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(2, 21))
        size = int(rng.integers(0, min(d, 10) + 1))
        store = _random_store(rng, d, size)
        g = rng.standard_normal(d)
        dense = _dense_H(store) @ g
        direction = kernels.two_loop_direction(store, g)
        worst = max(worst, float(np.linalg.norm(direction + dense))
                    / max(float(np.linalg.norm(dense)), 1e-300))
    return CheckResult("two_loop_vs_dense_fold", worst <= 1e-10, worst, 1e-10)


def check_compact_diag_vs_dense(cases: int = 200, seed: int = 1) -> CheckResult:
    """The compact diagonal over the full basis matches the diagonal of the
    inverse of the dense fold (relative, entry by entry)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(2, 21))
        size = int(rng.integers(0, min(d, 10) + 1))
        store = _random_store(rng, d, size)
        want = np.diag(np.linalg.inv(_dense_H(store)))
        err = np.abs(kernels.compact_B_diag(store, range(d)) - want) / want
        worst = max(worst, float(np.max(err)))
    return CheckResult("compact_diag_vs_dense_inverse", worst <= 1e-9, worst, 1e-9)


def _exact_direct_fold(indices, R: np.ndarray, h0: float) -> list[list[Fraction]]:
    """The direct fold of the pairs (e_indices[k], R[:, k]) from I / h0 in exact
    rational arithmetic: every float is read exactly and nothing rounds."""
    dim = R.shape[0]
    B = [[Fraction(int(a == e)) / Fraction(h0) for e in range(dim)] for a in range(dim)]
    for i, r in zip(indices, R.T.tolist()):
        r, b = [Fraction(x) for x in r], list(B[i])
        B = [[B[a][e] + r[a] * r[e] / r[i] - b[a] * b[e] / b[i] for e in range(dim)]
             for a in range(dim)]
    return B


def check_compact_tiny_h0(cases: int = 20, seed: int = 13) -> CheckResult:
    """Compact diagonals at every index, stored and unstored, match the exact
    rational fold at seed scales 1e-6, 1e-12 and 1e-22 (relative)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(4, 10))
        store = _random_store(rng, d, int(rng.integers(1, d + 1)))
        for h0 in (1e-6, 1e-12, 1e-22):
            store.h0_scale = h0
            exact = _exact_direct_fold(store.indices, store.R, h0)
            diag = np.array([float(exact[k][k]) for k in range(d)])
            err = np.abs(kernels.compact_B_diag(store, range(d)) - diag) / diag
            worst = max(worst, float(np.max(err)))
    return CheckResult("compact_tiny_h0_vs_exact_fold", worst <= 1e-12, worst, 1e-12)


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
        B_new = kernels.dense_bfgs_update(B.copy(), s, r)
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
        idx = store.indices[int(rng.integers(0, size - 1))]
        a = rng.standard_normal((d, d))
        r = (a @ a.T + d * np.eye(d))[:, idx]
        target = kernels.dense_H_from_pairs(
            store.indices + [idx], np.column_stack([store.R, r]), store.h0_scale)
        aggregation.aggregate_c3(store, idx, r)
        got = _dense_H(store)
        worst = max(worst, float(np.linalg.norm(got - target))
                    / float(np.linalg.norm(target)))
    return CheckResult("aggregation_dense_equivalence", worst <= 1e-8, worst, 1e-8)


def _ill_conditioned_spd(rng, d, cond) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = np.exp(rng.uniform(0.0, np.log(cond), d))
    eigs[:2] = 1.0, cond
    return (q * eigs) @ q.T


def _frozen(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=None)
def _stress_inputs(cases=1500, seed=11, d_max=12, size_max=6, log10_cond=8.0) -> tuple:
    """The generated inputs of ``_stress_histories``, built once per process."""
    rng = np.random.default_rng(seed)
    events = []
    for _ in range(cases):
        d = int(rng.integers(3, d_max + 1))
        size = int(rng.integers(2, min(d, size_max) + 1))
        cond = 10.0 ** rng.uniform(0.0, log10_cond)
        h0 = 10.0 ** rng.uniform(-4.0, 1.0)
        indices = tuple(int(i) for i in rng.permutation(d)[:size])
        R = np.column_stack([_ill_conditioned_spd(rng, d, cond)[:, i] for i in indices])
        idx = indices[int(rng.integers(0, size - 1))]
        events.append((d, h0, indices, _frozen(R), idx,
                       _frozen(_ill_conditioned_spd(rng, d, cond)[:, idx])))
    return tuple(events)


def _stress_histories(**params):
    """C3 events (store, index, r): d in [3, d_max], 2 to min(d, size_max) stored
    pairs, each pair and the new one from its own Hessian of condition number
    log-uniform up to 10**log10_cond, seed scale log-uniform in [1e-4, 10].
    Each event gets a fresh store, since aggregation mutates it."""
    for d, h0, indices, R, idx, r in _stress_inputs(**params):
        store = PairStore(dim=d, tau=len(indices), h0_scale=h0)
        store.replace_suffix(0, indices, R)
        yield store, idx, r


def check_aggregation_stress(**params) -> CheckResult:
    """Aggregation meets its gate on the ill-conditioned ``_stress_histories(**params)``;
    reports the number of events that raised ``AggregationError``."""
    failures = 0
    for event in _stress_histories(**params):
        try:
            aggregation.aggregate_c3(*event)
        except AggregationError:
            failures += 1
    return CheckResult("aggregation_stress", failures == 0, float(failures), 0.0)


_HARSH = dict(cases=900, seed=12, d_max=30, size_max=15, log10_cond=10.0)


def check_aggregation_stress_harsh() -> CheckResult:
    """The stress check with d up to 30, up to 15 pairs and condition numbers up
    to 1e10.  Its worst event reads defect/scale 1.1e-12 against the 1e-8 gate;
    rewriting the suffix by the unprojected Schur form y - (y[a] / v[a]) v (see
    ``aggregation``) misses the gate on 5 of its events, and on 8 plain ones."""
    return replace(check_aggregation_stress(**_HARSH), name="aggregation_stress_harsh")


def _gate_error(store: PairStore, index: int, r: np.ndarray):
    """(error, defect/scale) of the aggregation gate on a C3 event, error the
    largest gap of its (defect, scale) to the dense folds of the same histories
    in ``np.longdouble``, over their scale."""
    histories = aggregation._event_histories(store, store.indices.index(index), index, r)
    (ip, Rp), (ia, Ra), (ib, Rb) = histories
    h0 = np.longdouble(store.h0_scale)
    H_p = kernels.dense_H_from_pairs(ip, Rp.astype(np.longdouble), h0)
    H_a, H_b = (kernels._inv_fold(H_p, i, R.astype(np.longdouble))
                for i, R in [(ia, Ra), (ib, Rb)])
    exact = np.linalg.norm(H_a - H_b), max(np.linalg.norm(H_b - H_p), store.dim ** 0.5 * h0, 1e-30)
    defect, scale = aggregation._fold_defect(*histories, store.h0_scale)
    return float(max(abs(defect - exact[0]), abs(scale - exact[1])) / exact[1]), defect / scale


def check_fold_defect_vs_long_double() -> CheckResult:
    """The aggregation gate matches a long-double dense fold to 1e-10 * scale on
    the plain and harsh stress events; notes the largest defect/scale and its event."""
    worst, top = 0.0, (0.0, "")
    for label, params in (("plain", {}), ("harsh", _HARSH)):
        for k, event in enumerate(_stress_histories(**params)):
            error, relative = _gate_error(*event)
            worst = max(worst, error)
            top = max(top, (relative, f"{label} #{k}"))
    return CheckResult("fold_defect_vs_long_double", worst <= 1e-10, worst, 1e-10,
                       f"worst defect/scale {top[0]:.2e} at {top[1]}")


def check_store_invariants_fuzz(ops: int = 1000, seed=4) -> CheckResult:
    """Random C1/C2/C3 sequences never exceed capacity or duplicate indices;
    ``seed`` is an int or a ``np.random.Generator`` to draw the sequence from."""
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
        aggregation.retain(store, idx, A[:, idx])
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
        store = _random_store(rng, d, length, h0=1.0 / b0)
        B_plain = kernels.dense_B_from_pairs(store.indices, store.R, 1.0 / b0)
        B_scaled = kernels.dense_B_from_pairs(store.indices, psi * store.R, 1.0 / (psi * b0))
        worst = max(worst, float(np.linalg.norm(B_scaled - psi * B_plain))
                    / float(np.linalg.norm(B_plain)))
    return CheckResult("correction_scaling_identity", worst <= 1e-10, worst, 1e-10)


def check_full_memory_equivalence(seed: int = 6) -> CheckResult:
    """Limited-memory run with tau = d matches the dense greedy baseline: gradient
    norms row by row (relative) and the final iterates (absolute)."""
    d = 10
    obj = synth_problem("quadratic", d=d, spectrum=np.linspace(1.0, 10.0, d),
                        seed=seed, rotate=True)
    x0 = np.ones(d)
    common = dict(tau=d, max_iters=50, grad_tol=0.0, correction="basic")
    tr_lg = run(obj, x0, SolverConfig(method="lg_bfgs", subset_policy="fixed_prefix", **common))
    tr_gb = run(obj, x0, SolverConfig(method="greedy_bfgs", **common))
    worst = 0.0
    for a, b in zip(tr_lg.records, tr_gb.records):
        scale = max(abs(b.grad_norm), 1e-300)
        worst = max(worst, abs(a.grad_norm - b.grad_norm) / scale)
    worst = max(worst, float(np.max(np.abs(tr_lg.x_final - tr_gb.x_final))))
    return CheckResult("full_memory_equivalence", worst <= 1e-8, worst, 1e-8)


def check_linear_rate_bound(d: int = 10, tau: int = 5, k0: int = 3,
                            seed: int = 7) -> CheckResult:
    """Decrement sequence on a quadratic obeys the per-iteration linear bound for
    all of 200 steps; a run that stops early fails."""
    obj = synth_problem("quadratic", d=d, spectrum=np.linspace(1.0, 10.0, d),
                        seed=seed, rotate=True)
    x0 = warm_start(obj, np.ones(d), k0)
    cfg = SolverConfig(method="lg_bfgs", tau=tau, max_iters=200, grad_tol=0.0,
                       correction="basic", record_dense_diags=True)
    trace = run(obj, x0, cfg)
    lam0 = trace.records[0].lambda_f
    factor = 1.0 - obj.info.mu / (2.0 * obj.info.lipschitz_L)
    worst = -np.inf if trace.records[-1].t == cfg.max_iters else np.inf
    for rec in trace.records:
        bound = factor**rec.t * lam0 * (1.0 + 1e-12)
        worst = max(worst, rec.lambda_f - bound)
    return CheckResult("linear_rate_bound", worst <= 0.0, worst, 0.0)


def check_contraction_inequality(d: int = 5, tau: int = 3, hi: float = 8.0,
                                 seed: int = 8) -> CheckResult:
    """Per-step trace-metric contraction holds on a corrected quadratic run with
    spectrum [1, hi]: each of its 100 steps records a ``contraction`` of at least
    -1e-9; a step without one (premise failed, or the run stopped) fails."""
    obj = synth_problem("quadratic", d=d, spectrum=np.linspace(1.0, hi, d),
                        seed=seed, rotate=True)
    cfg = SolverConfig(method="lg_bfgs", tau=tau, max_iters=100, grad_tol=0.0,
                       correction="basic", record_dense_diags=True)
    trace = run(obj, np.ones(d), cfg)
    residuals = [rec.contraction for rec in trace.records[:cfg.max_iters]]
    worst = np.inf if len(residuals) < cfg.max_iters or None in residuals else -min(residuals)
    return CheckResult("contraction_inequality", worst <= 1e-9, worst, 1e-9)


def check_memory_bound(d: int = 20, n: int = 200, taus=(3, 7, 15), k0: int = 3,
                       iters: int = 60, seed: int = 9) -> CheckResult:
    """Pair counts never exceed tau on a logistic problem, for lbfgs and lg_bfgs
    at each tau over ``iters`` steps; a run that stops early fails."""
    obj = synth_problem("logistic", d=d, n=n, mu=1e-3, seed=seed)
    x0 = warm_start(obj, np.zeros(d), k0)
    worst = 0.0
    for tau in taus:
        for method in ("lbfgs", "lg_bfgs"):
            cfg = SolverConfig(method=method, tau=tau, max_iters=iters, grad_tol=0.0)
            trace = run(obj, x0, cfg)
            worst = max(worst, max(r.pair_count - tau for r in trace.records))
            if trace.records[-1].t != iters:
                worst = np.inf
    return CheckResult("memory_bound", worst <= 0, float(worst), 0.0)


def check_memory_rate_tradeoff(d: int = 20, hi: float = 10.0, seed: int = 0, k0: int = 3,
                               iters: int = 60, taus=(5, 10, 20),
                               policies=("fixed_prefix", "adaptive")) -> CheckResult:
    """The paper's memory-rate trade-off on a basic-corrected rotated quadratic
    with spectrum [1, hi], warm-started by k0 steps: for each policy and tau,
    every decrement ratio lambda_t / lambda_0 over ``iters`` steps stays under
    ``diagnostics.product_rate_bound`` built from the run's own ``beta_tau``
    rows, and each policy's final ratio does not rise with tau.  Reports the
    worst ratio / bound - 1; a run that stops early or lacks a ``beta_tau``, or
    a final ratio that rises with tau, fails.  The bound is taken from t0 = 0:
    on these runs the product (2dL/mu) prod_u (1 - mu/(beta_u d L)) that would
    mark a later superlinear start never falls to 1, so the check covers the
    product bound and not the trigger point."""
    obj = synth_problem("quadratic", d=d, spectrum=np.linspace(1.0, hi, d),
                        seed=seed, rotate=True)
    mu, L = obj.info.mu, obj.info.lipschitz_L
    x0 = warm_start(obj, np.ones(d), k0)
    worst, notes = -np.inf, []
    for policy in policies:
        finals = []
        for tau in taus:
            cfg = SolverConfig(method="lg_bfgs", tau=tau, max_iters=iters, grad_tol=0.0,
                               correction="basic", subset_policy=policy,
                               record_dense_diags=True)
            records = run(obj, x0, cfg).records
            betas = [rec.beta_tau for rec in records[:-1]]
            if len(records) != iters + 1 or None in betas:
                return CheckResult("memory_rate_tradeoff", False, np.inf, 1e-9)
            ratios = [rec.lambda_f / records[0].lambda_f for rec in records]
            for t in range(1, iters + 1):
                bound = diagnostics.product_rate_bound(betas, mu, L, d, 0, t)
                worst = max(worst, ratios[t] / bound - 1.0)
            finals.append(ratios[-1])
        if any(b > a for a, b in zip(finals, finals[1:])):
            worst = np.inf
        notes.append(f"{policy} " + "/".join(f"{r:.1e}" for r in finals))
    return CheckResult("memory_rate_tradeoff", worst <= 1e-9, worst, 1e-9,
                       "final ratios " + ", ".join(notes))


def check_beta_sanity(cases: int = 50, seed: int = 10) -> CheckResult:
    """Relative condition numbers: full-basis minimum 1, spectral bounds hold."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        d = int(rng.integers(2, 12))
        a = rng.standard_normal((d, d))
        E = a @ a.T + 0.5 * np.eye(d)
        betas, beta_min = diagnostics.relative_condition_numbers(np.diag(E), range(d))
        eigs = np.linalg.eigvalsh(E)
        cond = eigs[-1] / eigs[0]
        worst = max(worst, abs(beta_min - 1.0))
        worst = max(worst, float(np.max(1.0 - betas)))  # betas >= 1
        worst = max(worst, float(np.max(betas - cond)))  # betas <= cond
    return CheckResult("relative_condition_sanity", worst <= 1e-12, worst, 1e-12)


SCOPES: dict[str, list[Callable[[], CheckResult]]] = {
    "kernels": [
        check_two_loop_vs_dense,
        check_compact_diag_vs_dense,
        check_compact_tiny_h0,
        check_secant_identities,
    ],
    "aggregation": [
        check_aggregation_equivalence,
        check_aggregation_stress,
        check_aggregation_stress_harsh,
        check_fold_defect_vs_long_double,
        check_store_invariants_fuzz,
    ],
    "theory": [
        check_scaling_identity,
        check_full_memory_equivalence,
        check_linear_rate_bound,
        check_contraction_inequality,
        check_memory_bound,
        check_beta_sanity,
        check_memory_rate_tradeoff,
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
