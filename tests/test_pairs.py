"""Pair store: retention cases, its one mutation, and capacity/index invariants."""

from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from lgbfgs import aggregation, solvers, verify
from lgbfgs.aggregation import aggregate_c3, retain
from lgbfgs.correction import apply_scaling
from lgbfgs.data import synth_problem
from lgbfgs.errors import CurvatureError
from lgbfgs.kernels import dense_H_from_pairs
from lgbfgs.pairs import PairStore


def unit_r(idx, d=5, scale=2.0):
    r = np.zeros(d)
    r[idx] = scale
    return r


def dense_r(idx, rng, d=5):
    a = rng.standard_normal((d, d))
    spd = a @ a.T + d * np.eye(d)
    return spd[:, idx].copy()


def store_with(indices, dim=5, tau=4, scales=None):
    store = PairStore(dim=dim, tau=tau)
    R = np.zeros((dim, len(indices)))
    R[indices, range(len(indices))] = 2.0 if scales is None else scales
    store.replace_suffix(0, indices, R)
    return store


def snapshot(store):
    return store.indices, store.R.tobytes()


class TestCurvaturePair:
    """The checks a new pair (index, r) passes on its way in through ``retain``;
    a rejected pair leaves the store unchanged."""

    def test_positive_curvature_required(self):
        store = store_with([1], dim=2, tau=2)
        before = snapshot(store)
        with pytest.raises(CurvatureError):
            retain(store, 0, np.array([-1.0, 0.0]))
        with pytest.raises(CurvatureError):
            retain(store, 0, np.array([0.0, 1.0]))
        assert snapshot(store) == before

    def test_bad_index(self):
        store = store_with([1], dim=2, tau=2)
        before = snapshot(store)
        with pytest.raises(IndexError):
            retain(store, 3, np.ones(2))
        assert snapshot(store) == before

    def test_dense_variation(self):
        """The variation is stored as a dense float column, copied on entry."""
        store = PairStore(dim=3, tau=2)
        r = np.array([0, 2, 1])
        assert retain(store, 1, r) == "C1"
        r[:] = 9
        assert store.R.dtype == np.float64
        np.testing.assert_array_equal(store.R, [[0.0], [2.0], [1.0]])
        assert store.R[store.indices[0], 0] == 2.0

    def test_shape_and_finiteness(self):
        store = store_with([1], dim=3, tau=2)
        before = snapshot(store)
        with pytest.raises(ValueError):
            retain(store, 0, np.ones(2))
        with pytest.raises(ValueError):
            retain(store, 0, np.array([1.0, np.nan, 0.0]))
        assert snapshot(store) == before


class TestClassify:
    """``aggregation.retain``: the case it returns and its effect on the store."""

    def test_matches_last_is_c2(self):
        store = store_with([1, 3])
        assert retain(store, 3, unit_r(3, scale=5.0)) == "C2"
        assert store.indices == [1, 3]
        assert store.R[3, -1] == 5.0

    def test_matches_earlier_is_c3(self):
        rng = np.random.default_rng(0)
        store = store_with([1, 3])
        r = dense_r(1, rng)
        target = dense_H_from_pairs([1, 3, 1], np.column_stack([store.R, r]), 1.0)
        assert retain(store, 1, r) == "C3"
        assert store.indices == [3, 1]
        np.testing.assert_array_equal(store.R[:, -1], r)
        got = dense_H_from_pairs(store.indices, store.R, store.h0_scale)
        assert np.linalg.norm(got - target) <= 1e-12 * np.linalg.norm(target)

    def test_absent_below_capacity_is_c1(self):
        store = store_with([1, 3])
        assert retain(store, 2, unit_r(2, scale=3.0)) == "C1"
        assert store.indices == [1, 3, 2]
        assert store.R[2, -1] == 3.0

    def test_absent_at_capacity_is_internal_error(self):
        store = store_with([1, 3], tau=2)
        before = store.R.tobytes()
        with pytest.raises(CurvatureError):
            retain(store, 2, unit_r(2))
        assert store.indices == [1, 3]
        assert store.R.tobytes() == before

    def test_ignores_r_values(self):
        """The case follows the index alone: a C3 whatever the stored scales."""
        for scales in ([9.0, 0.1], [0.1, 9.0]):
            store = store_with([1, 3], tau=3, scales=scales)
            assert retain(store, 1, unit_r(1, scale=4.0)) == "C3"

    def test_out_of_range(self):
        store = PairStore(dim=5, tau=3)
        with pytest.raises(IndexError):
            retain(store, 5, np.ones(5))
        assert store.size == 0

    def test_rejected_c3_pair_leaves_store_unchanged(self):
        store = store_with([1, 3, 0])
        before = (store.indices, store.R.tobytes())
        with pytest.raises(CurvatureError):
            retain(store, 1, unit_r(1, scale=-1.0))
        assert (store.indices, store.R.tobytes()) == before


class TestMutations:
    """``replace_suffix`` writing the one-pair suffixes of a C1 (slot ``size``)
    and a C2 (slot ``size - 1``)."""

    def test_insert_into_empty(self):
        store = PairStore(dim=5, tau=2)
        store.replace_suffix(0, [0], unit_r(0)[:, None])
        assert store.indices == [0]

    def test_insert_appends(self):
        store = store_with([1], tau=2)
        store.replace_suffix(1, [3], unit_r(3)[:, None])
        assert store.indices == [1, 3]

    def test_insert_at_capacity_fails(self):
        store = store_with([1, 3], tau=2)
        before = snapshot(store)
        with pytest.raises(CurvatureError, match="store size 3 exceeds tau=2"):
            store.replace_suffix(2, [0], unit_r(0)[:, None])
        assert snapshot(store) == before

    def test_replace_last(self):
        store = store_with([1, 3], tau=2, scales=[2.0, 1.0])
        store.replace_suffix(1, [3], unit_r(3, scale=7.0)[:, None])
        assert store.indices == [1, 3]
        assert store.R[3, -1] == 7.0

    def test_replace_single(self):
        store = store_with([1], tau=2, scales=[1.0])
        store.replace_suffix(0, [1], unit_r(1, scale=2.0)[:, None])
        assert store.size == 1
        assert store.R[1, 0] == 2.0

    def test_replace_empty_fails(self):
        store = PairStore(dim=5, tau=2)
        with pytest.raises(IndexError, match="slot -1 out of range"):
            store.replace_suffix(store.size - 1, [1], unit_r(1)[:, None])

    def test_replace_index_mismatch_fails(self):
        """A last-slot write whose index is stored at an older slot would
        repeat that index."""
        store = store_with([1, 3], tau=2)
        before = snapshot(store)
        with pytest.raises(CurvatureError, match="not pairwise distinct"):
            store.replace_suffix(1, [1], unit_r(1)[:, None])
        assert snapshot(store) == before

    def test_replace_preserves_size_on_random_sequences(self):
        rng = np.random.default_rng(0)
        store = PairStore(dim=6, tau=3)
        assert retain(store, 2, dense_r(2, rng, d=6)) == "C1"
        for _ in range(100):
            before = store.size
            assert retain(store, 2, dense_r(2, rng, d=6)) == "C2"
            assert store.size == before

    def test_r_is_a_live_column_major_view(self):
        store = store_with([1, 3, 0])
        assert store.R.shape == (5, 3)
        assert store.R.flags.f_contiguous
        store.R[:] *= 2.0
        assert store.R[1, 0] == 4.0


class TestReplaceSuffix:
    def test_rewrites_from_slot(self):
        store = store_with([1, 3, 0])
        store.replace_suffix(1, [0, 3], np.column_stack([unit_r(0, scale=5.0),
                                                          unit_r(3, scale=6.0)]))
        assert store.indices == [1, 0, 3]
        assert (store.R[1, 0], store.R[0, 1], store.R[3, 2]) == (2.0, 5.0, 6.0)

    @pytest.mark.parametrize("indices, scales, error", [
        ([1, 3], [2.0, 2.0], CurvatureError),  # duplicates the prefix index 1
        ([0, 2], [2.0, -1.0], CurvatureError),  # non-positive curvature
        ([0, 2, 4, 3], [2.0] * 4, CurvatureError),  # over capacity
        ([0, 7], [2.0, 2.0], IndexError),  # index out of range
    ])
    def test_rejected_suffix_leaves_store_unchanged(self, indices, scales, error):
        store = store_with([1, 3, 0])
        before = (store.indices, store.R.copy())
        R = np.column_stack([unit_r(min(i, 4), scale=s) for i, s in zip(indices, scales)])
        with pytest.raises(error):
            store.replace_suffix(1, indices, R)
        assert store.indices == before[0]
        np.testing.assert_array_equal(store.R, before[1])


class TestReplaceSuffixChecks:
    """Each check of ``replace_suffix`` runs over the whole block at once, names
    the first offending column and leaves the store unchanged."""

    @staticmethod
    def suffix(cols):
        """A 5 x 2 suffix block of unit variations at indices 0 and 2."""
        R = np.column_stack([unit_r(0), unit_r(2)])
        for (row, col), value in cols.items():
            R[row, col] = value
        return R

    @pytest.mark.parametrize("j, indices, R, error, message", [
        (4, [0, 2], None, IndexError, r"slot 4 out of range \[0, 3\]"),
        (1, [0, 2], np.ones((5, 3)), ValueError, r"suffix has shape \(5, 3\)"),
        (1, [7, 9], None, IndexError, "basis index 7 out of range for dim 5"),
        (1, [0, 2], {(1, 0): np.inf, (4, 1): np.nan}, ValueError,
         "gradient variation at index 0 has non-finite entries"),
        (1, [0, 2], {(2, 1): -1.0}, CurvatureError,
         "pair at index 2 has curvature -1.000e\\+00 <= 0"),
        (1, [0, 2], {(0, 0): 0.0, (2, 1): -1.0}, CurvatureError, "pair at index 0 has"),
        (0, [0, 2, 4, 3, 1], np.ones((5, 5)), CurvatureError, "store size 5 exceeds tau=4"),
        (1, [1, 2], np.ones((5, 2)), CurvatureError, "stored indices are not pairwise distinct"),
    ])
    def test_error_path(self, j, indices, R, error, message):
        store = store_with([1, 3, 0])
        before = (store.indices, store.R.copy())
        if not isinstance(R, np.ndarray):
            R = self.suffix(R or {})
        with pytest.raises(error, match=message):
            store.replace_suffix(j, indices, R)
        assert store.indices == before[0]
        np.testing.assert_array_equal(store.R, before[1])


class TestInvariantFuzz:
    def test_random_insert_replace_sequences(self):
        """Size stays bounded and indices stay distinct over 1000 random
        C1/C2/C3 retentions."""
        assert verify.check_store_invariants_fuzz(ops=1000, seed=42).passed

    def test_validation_rejects_duplicates(self):
        store = store_with([1], tau=3)
        before = snapshot(store)
        with pytest.raises(CurvatureError, match="not pairwise distinct"):
            store.replace_suffix(1, [1], unit_r(1)[:, None])
        assert snapshot(store) == before

    def test_validation_rejects_oversize(self):
        with pytest.raises(ValueError):
            PairStore(dim=5, tau=6)
        store = store_with([1], tau=1)
        before = snapshot(store)
        with pytest.raises(CurvatureError):
            retain(store, 2, unit_r(2))
        assert snapshot(store) == before


class TestC2Run:
    def test_c2_heavy_run_keeps_store_invariants(self, monkeypatch):
        """Neither benchmark workload retains a C2 pair; this uncorrected
        logistic run retains 55, and after every retention the store holds at
        most tau pairs with distinct indices, finite variations and positive
        curvatures."""
        retained = []

        def checked_retain(store, index, r):
            retained.append(retain(store, index, r))
            idx = store.indices
            assert store.size <= store.tau and len(set(idx)) == store.size
            assert np.isfinite(store.R).all()
            assert (store.R[idx, range(store.size)] > 0.0).all()
            return retained[-1]

        monkeypatch.setattr(aggregation, "retain", checked_retain)
        obj = synth_problem("logistic", d=20, n=200, mu=1e-3, seed=1)
        cfg = solvers.SolverConfig(method="lg_bfgs", tau=4, max_iters=60, grad_tol=0.0,
                                   correction="off")
        trace = solvers.run(obj, np.ones(20), cfg)
        assert trace.stop_reason == "max_iters"
        assert Counter(retained) == {"C1": 4, "C2": 55, "C3": 1}
        assert retained == [r.case_tag for r in trace.records if r.case_tag]


OPS = st.lists(
    st.tuples(st.sampled_from(["C1", "C2", "C3", "scale"]),
              st.integers(0, 2**32 - 1), st.floats(1.0, 3.0)),
    min_size=1, max_size=25,
)


class TestStoreProperty:
    """Random C1/C2/C3/scaling sequences against a list-of-pairs reference model.

    The model mirrors every C1, C2 and scaling exactly; a C3 is checked against
    the dense fold of the model's full history plus the new pair, after which
    the model takes over the store's rewritten pairs.
    """

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(2, 9), tau_frac=st.floats(0.0, 1.0), ops=OPS)
    def test_store_follows_reference_model(self, dim, tau_frac, ops):
        tau = 1 + int(tau_frac * (dim - 1))
        store = PairStore(dim=dim, tau=tau, h0_scale=0.7)
        model, h0 = [], 0.7
        for kind, seed, psi in ops:
            rng = np.random.default_rng(seed)
            if kind == "C1" and store.size < tau:
                free = [i for i in range(dim) if i not in store.indices]
                i = int(rng.choice(free))
                r = dense_r(i, rng, dim)
                store.replace_suffix(store.size, [i], r[:, None])
                model.append((i, r))
            elif kind == "C2" and store.size:
                i = store.indices[-1]
                r = dense_r(i, rng, dim)
                store.replace_suffix(store.size - 1, [i], r[:, None])
                model[-1] = (i, r)
            elif kind == "C3" and store.size >= 2:
                j = int(rng.integers(0, store.size - 1))
                i = store.indices[j]
                r = dense_r(i, rng, dim)
                indices, cols = zip(*model, (i, r))
                target = dense_H_from_pairs(indices, np.column_stack(cols), h0)
                aggregate_c3(store, i, r)
                got = dense_H_from_pairs(store.indices, store.R, store.h0_scale)
                assert np.linalg.norm(got - target) <= 1e-8 * np.linalg.norm(target)
                model = [(i, store.R[:, k].copy()) for k, i in enumerate(store.indices)]
            elif kind == "scale":
                apply_scaling(store, psi)
                if psi != 1.0:
                    model = [(i, psi * r) for i, r in model]
                    h0 /= psi
            assert store.indices == [i for i, _ in model]
            for k, (_, r) in enumerate(model):
                assert store.R[:, k].tobytes() == r.tobytes()
            assert store.h0_scale == h0
            assert store.size <= tau
            assert len(set(store.indices)) == store.size

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(2, 9), tau_frac=st.floats(0.0, 1.0),
           picks=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 2**32 - 1)),
                          min_size=1, max_size=30))
    def test_retain_follows_reference_model(self, dim, tau_frac, picks):
        """Random index sequences through ``retain``: the case is C1 for a new
        index (``CurvatureError`` at capacity, store unchanged), C2 for the most
        recent one and C3 for an older one; the store's indices follow the
        model's, a C1 or C2 stores r as given, and a C3 keeps the dense fold of
        the model's full history plus the new pair."""
        tau = 1 + int(tau_frac * (dim - 1))
        store = PairStore(dim=dim, tau=tau, h0_scale=0.7)
        model = []
        for frac, seed in picks:
            i = int(frac * (dim - 1))
            r = dense_r(i, np.random.default_rng(seed), dim)
            stored = [k for k, _ in model]
            if i not in stored and len(model) == tau:
                before = store.R.tobytes()
                with pytest.raises(CurvatureError):
                    retain(store, i, r)
                assert store.R.tobytes() == before
            elif i not in stored:
                assert retain(store, i, r) == "C1"
                model.append((i, r))
            elif stored.index(i) == len(model) - 1:
                assert retain(store, i, r) == "C2"
                model[-1] = (i, r)
            else:
                indices, cols = zip(*model, (i, r))
                target = dense_H_from_pairs(indices, np.column_stack(cols), 0.7)
                assert retain(store, i, r) == "C3"
                j = stored.index(i)
                assert store.indices == stored[:j] + stored[j + 1:] + [i]
                got = dense_H_from_pairs(store.indices, store.R, store.h0_scale)
                assert np.linalg.norm(got - target) <= 1e-8 * np.linalg.norm(target)
                model = [(k, store.R[:, n].copy()) for n, k in enumerate(store.indices)]
            assert store.indices == [k for k, _ in model]
            for n, (_, r_model) in enumerate(model):
                assert store.R[:, n].tobytes() == r_model.tobytes()
