"""Aggregation: fold equivalence, structure preservation, failure handling."""

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

from lgbfgs import aggregation, kernels, verify
from lgbfgs.aggregation import AggregationError, aggregate_c3
from lgbfgs.errors import CurvatureError
from lgbfgs.kernels import dense_H_from_pairs
from lgbfgs.pairs import PairStore
from lgbfgs.verify import _dense_H, _random_store


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


def store_from(d, h0, indices, column):
    """A store of the pairs (i, column(i)) for ``indices``, columns drawn in order."""
    indices = [int(i) for i in indices]
    store = PairStore(dim=d, tau=len(indices), h0_scale=h0)
    store.replace_suffix(0, indices, np.column_stack([column(i) for i in indices]))
    return store


def augmented_oracle(store, index, r):
    """Dense fold of the full history plus the new pair (index, r)."""
    return dense_H_from_pairs(store.indices + [index], np.column_stack([store.R, r]),
                              store.h0_scale)


class TestCoefficientShapes:
    def test_coefficients_reproduce_oracle(self):
        """The aggregated store yields the augmented-history fold."""
        rng = np.random.default_rng(1)
        store = _random_store(rng, 3, 2, h0=1.0)
        idx = store.indices[0]
        new = random_spd(rng, 3)[:, idx]
        target = augmented_oracle(store, idx, new)
        aggregate_c3(store, idx, new)
        rel = np.linalg.norm(_dense_H(store) - target) / np.linalg.norm(target)
        assert rel <= 1e-8

    def test_c2_event_rejected(self):
        rng = np.random.default_rng(3)
        store = _random_store(rng, 5, 3)
        idx = store.indices[-1]
        new = random_spd(rng, 5)[:, idx]
        with pytest.raises(AggregationError):
            aggregate_c3(store, idx, new)


class TestFailureAtomicity:
    @pytest.mark.parametrize("index, gate_tol", [
        ("older", 0.0),  # valid event, unreachable tolerance
        ("newest", aggregation.GATE_TOL),  # C2 event
        ("unstored", aggregation.GATE_TOL),
    ])
    def test_failed_event_leaves_store_unchanged(self, monkeypatch, index, gate_tol):
        rng = np.random.default_rng(12)
        store = _random_store(rng, 6, 4)
        indices = store.indices
        idx = {"older": indices[1], "newest": indices[3],
               "unstored": min(set(range(6)) - set(indices))}[index]
        new = random_spd(rng, 6)[:, idx]
        r_bytes = store.R.tobytes()
        monkeypatch.setattr(aggregation, "GATE_TOL", gate_tol)
        with pytest.raises(AggregationError):
            aggregate_c3(store, idx, new)
        assert store.indices == indices
        assert store.R.tobytes() == r_bytes


class TestNewPairChecks:
    @pytest.mark.parametrize("entry, value, error", [
        ("index", -1.0, CurvatureError),  # non-positive curvature
        ("other", np.inf, ValueError),  # non-finite entry
    ])
    def test_bad_new_pair_rejected_before_the_bubble(self, monkeypatch, entry,
                                                     value, error):
        rng = np.random.default_rng(14)
        store = _random_store(rng, 6, 4)
        idx = store.indices[1]
        new = random_spd(rng, 6)[:, idx].copy()
        new[idx if entry == "index" else (idx + 1) % 6] = value
        before = (store.indices, store.R.tobytes())
        monkeypatch.setattr(aggregation, "_schur_suffix", None)
        with pytest.raises(error):
            aggregate_c3(store, idx, new)
        assert (store.indices, store.R.tobytes()) == before


class TestAggregateStructure:
    def test_dropped_index_moves_to_end(self):
        rng = np.random.default_rng(4)
        store = store_from(4, 1.0, [1, 2], lambda i: random_spd(rng, 4)[:, i])
        new = random_spd(rng, 4)[:, 1]
        aggregate_c3(store, 1, new)
        assert store.indices == [2, 1]
        assert store.size == 2
        np.testing.assert_array_equal(store.R[:, -1], new)

    def test_prefix_pairs_untouched(self):
        rng = np.random.default_rng(5)
        store = _random_store(rng, 8, 5)
        prefix = store.R[:, :2].copy()
        j = 2
        idx = store.indices[j]
        new = random_spd(rng, 8)[:, idx]
        aggregate_c3(store, idx, new)
        np.testing.assert_array_equal(store.R[:, :2], prefix)

    def test_size_constant_across_fuzzed_events(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            d = int(rng.integers(3, 9))
            size = int(rng.integers(2, min(d, 5) + 1))
            store = _random_store(rng, d, size)
            j = int(rng.integers(0, size - 1))
            idx = store.indices[j]
            new = random_spd(rng, d)[:, idx]
            aggregate_c3(store, idx, new)
            assert store.size == size
            assert len(set(store.indices)) == size

    def test_rewritten_pairs_keep_positive_curvature(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(3, 10))
            size = int(rng.integers(2, min(d, 6) + 1))
            store = _random_store(rng, d, size)
            j = int(rng.integers(0, size - 1))
            idx = store.indices[j]
            new = random_spd(rng, d)[:, idx]
            aggregate_c3(store, idx, new)
            assert np.all(store.R[store.indices, np.arange(size)] > 0.0)


def schur_columns(store, j, fold):
    """Schur_a(B_p) e_b, a = indices[j], for each pair p > j (index b) of the store,
    B_p = fold(indices, R, h0) of its first p + 1 pairs: ``kernels.dense_B_from_pairs``
    or the exact rational ``verify._exact_direct_fold``, rounded once at the end."""
    a, cols = store.indices[j], []
    for p in range(j + 1, store.size):
        B = fold(store.indices[:p + 1], store.R[:, :p + 1], store.h0_scale)
        b = store.indices[p]
        cols.append([float(B[k][b] - B[k][a] * B[a][b] / B[a][a]) for k in range(store.dim)])
    return np.array(cols).T


def column_errors(store, j, got, want):
    """Each rewritten column's distance to its oracle over the norm of the
    variation it replaces, B_p e_b = R[:, p].  The columns themselves can be
    tiny differences of large terms: on the stress histories a 1-ulp change of
    R moves the exact column by up to 2e-8 of its own norm."""
    return np.linalg.norm(got - want, axis=0) / np.linalg.norm(store.R[:, j + 1:], axis=0)


class TestSchurSuffix:
    def test_columns_match_dense_schur_complement(self):
        """On random stores every rewritten variation is the Schur complement at
        the stale index of the dense direct fold, applied to the pair's index."""
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(40):
            d = int(rng.integers(3, 16))
            size = int(rng.integers(2, min(d, 8) + 1))
            store = _random_store(rng, d, size)
            j = int(rng.integers(0, size - 1))
            idx = store.indices[j]
            new = random_spd(rng, d)[:, idx]
            out = aggregation._schur_suffix(store, j, new)
            np.testing.assert_array_equal(out[:, -1], new)
            got = out[:, :-1]
            want = schur_columns(store, j, kernels.dense_B_from_pairs)
            worst = max(worst, column_errors(store, j, got, want).max())
        assert worst <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(3, 16),
           size_frac=st.floats(0.0, 1.0), j_frac=st.floats(0.0, 1.0),
           log10_h0=st.floats(-6.0, 2.0), log10_cond=st.floats(0.0, 8.0))
    def test_columns_match_exact_schur_complement_property(self, seed, d, size_frac,
                                                           j_frac, log10_h0, log10_cond):
        """The same on ill-conditioned stores and seed scales from 1e-6 to 1e2,
        against the exact rational fold: there the dense fold, even in
        np.longdouble, is off by up to 1.2e-10 (h0 1e2, cond 1e8)."""
        rng = np.random.default_rng(seed)
        size = 2 + int(size_frac * (min(d, 8) - 2))
        j = int(j_frac * (size - 2))
        store = store_from(d, 10.0**log10_h0, rng.permutation(d)[:size],
                           lambda i: verify._ill_conditioned_spd(rng, d, 10.0**log10_cond)[:, i])
        new = verify._ill_conditioned_spd(rng, d, 10.0**log10_cond)[:, store.indices[j]]
        got = aggregation._schur_suffix(store, j, new)[:, :-1]
        want = schur_columns(store, j, verify._exact_direct_fold)
        assert column_errors(store, j, got, want).max() <= 1e-10

    def test_stale_row_is_zero_and_curvatures_positive(self, monkeypatch):
        """On the stress generator every rewritten variation is exactly zero at
        the stale index and has positive curvature at its own."""
        rewrites = []
        schur = aggregation._schur_suffix

        def recording(store, j, r):
            out = schur(store, j, r)
            rewrites.append((store.indices, j, out))
            return out

        monkeypatch.setattr(aggregation, "_schur_suffix", recording)
        assert verify.check_aggregation_stress(cases=300, seed=11).passed
        assert sum(len(idx) - 1 - j for idx, j, _ in rewrites) > 500
        for idx, j, out in rewrites:
            suffix = idx[j + 1:]
            assert np.all(out[idx[j], :-1] == 0.0)
            assert np.all(out[suffix, np.arange(len(suffix))] > 0.0)

    def test_event_factors_nothing(self, monkeypatch):
        """The rewrite comes from the carried compact factor: a full-width event
        makes no linear solve, inversion, Cholesky or compact factor, and its
        only triangular solves are the gate's two, one per fold."""
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        for module, name in [
            (np.linalg, "solve"), (np.linalg, "inv"), (np.linalg, "cholesky"),
            (np.linalg, "lstsq"), (scipy.linalg, "solve"), (scipy.linalg, "lu_factor"),
            (scipy.linalg, "cho_factor"), (scipy.linalg, "solve_triangular"),
            (kernels, "_compact_factor"), (aggregation, "dtrsm"),
        ]:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        rng = np.random.default_rng(15)
        store = _random_store(rng, 30, 12)
        idx = store.indices[0]
        aggregate_c3(store, idx, random_spd(rng, 30)[:, idx])
        assert calls == ["dtrsm", "dtrsm"]


class TestFoldEquivalence:
    def test_three_dim_hand_case(self):
        """Two stored pairs, repeat of the first: equivalence at 1e-8."""
        rng = np.random.default_rng(8)
        store = store_from(3, 1.0, [0, 1], lambda i: random_spd(rng, 3)[:, i])
        new = random_spd(rng, 3)[:, 0]
        target = augmented_oracle(store, 0, new)
        aggregate_c3(store, 0, new)
        rel = np.linalg.norm(_dense_H(store) - target) / np.linalg.norm(target)
        assert rel <= 1e-8

    def test_randomized_events_match_dense_oracle(self):
        """100 randomized events within dimension 12 stay below 1e-8 relative."""
        assert verify.check_aggregation_equivalence(cases=100, seed=9).passed

    def test_single_matrix_histories(self):
        """Curvature data from one matrix (quadratic-run structure)."""
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(50):
            d = int(rng.integers(4, 12))
            A = random_spd(rng, d)
            size = int(rng.integers(2, min(d, 6) + 1))
            store = store_from(d, 1.0 / float(np.linalg.eigvalsh(A)[-1]),
                               rng.permutation(d)[:size], lambda i: A[:, i])
            idx = store.indices[int(rng.integers(0, size - 1))]
            new = A[:, idx]
            target = augmented_oracle(store, idx, new)
            aggregate_c3(store, idx, new)
            rel = np.linalg.norm(_dense_H(store) - target) \
                / np.linalg.norm(target)
            worst = max(worst, rel)
        assert worst <= 1e-8

    def test_large_block(self):
        """A full-width event (drop the oldest of many) stays exact."""
        rng = np.random.default_rng(11)
        d, size = 20, 12
        store = _random_store(rng, d, size, h0=0.5)
        idx = store.indices[0]
        new = random_spd(rng, d)[:, idx]
        target = augmented_oracle(store, idx, new)
        aggregate_c3(store, idx, new)
        rel = np.linalg.norm(_dense_H(store) - target) / np.linalg.norm(target)
        assert rel <= 1e-10


class TestFoldDefect:
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(3, 16),
        size=st.integers(2, 8),
        log10_h0=st.floats(-6.0, 2.0),
        log10_cond=st.floats(0.0, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gate_matches_long_double_fold_property(self, d, size, log10_h0,
                                                    log10_cond, seed):
        """The same oracle on histories with d 3-16, up to 8 pairs, seed scale
        log-uniform in [1e-6, 1e2] and pair condition numbers up to 1e8."""
        rng, size, cond = np.random.default_rng(seed), min(size, d), 10.0**log10_cond
        store = store_from(d, 10.0**log10_h0, rng.permutation(d)[:size],
                           lambda i: verify._ill_conditioned_spd(rng, d, cond)[:, i])
        idx = store.indices[int(rng.integers(0, size - 1))]
        out = verify._gate_error(store, idx,
                                 verify._ill_conditioned_spd(rng, d, cond)[:, idx])
        assert out[0] <= 1e-10
