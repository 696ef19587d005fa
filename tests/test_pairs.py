"""Pair store: classification, mutations, and capacity/index invariants."""

import numpy as np
import pytest

from lgbfgs.errors import CurvatureError
from lgbfgs.pairs import CaseTag, CurvaturePair, PairStore


def pair(idx, d=5, scale=2.0):
    r = np.zeros(d)
    r[idx] = scale
    return CurvaturePair(idx, r)


def dense_pair(idx, rng, d=5):
    a = rng.standard_normal((d, d))
    spd = a @ a.T + d * np.eye(d)
    return CurvaturePair(idx, spd[:, idx].copy())


class TestCurvaturePair:
    def test_positive_curvature_required(self):
        with pytest.raises(CurvatureError):
            CurvaturePair(0, np.array([-1.0, 0.0]))
        with pytest.raises(CurvatureError):
            CurvaturePair(1, np.array([1.0, 0.0]))

    def test_bad_index(self):
        with pytest.raises(IndexError):
            CurvaturePair(3, np.ones(2))

    def test_dense_variation(self):
        p = pair(1, d=3)
        np.testing.assert_allclose(p.s_dense(), [0.0, 1.0, 0.0])
        assert p.curvature == 2.0


class TestClassify:
    def test_matches_last_is_c2(self):
        store = PairStore(dim=5, tau=4, pairs=[pair(1), pair(3)])
        assert store.classify(3) == CaseTag("C2")

    def test_matches_earlier_is_c3(self):
        store = PairStore(dim=5, tau=4, pairs=[pair(1), pair(3)])
        assert store.classify(1) == CaseTag("C3", j=0)

    def test_absent_below_capacity_is_c1(self):
        store = PairStore(dim=5, tau=4, pairs=[pair(1), pair(3)])
        assert store.classify(2) == CaseTag("C1")

    def test_absent_at_capacity_is_internal_error(self):
        store = PairStore(dim=5, tau=2, pairs=[pair(1), pair(3)])
        with pytest.raises(CurvatureError):
            store.classify(2)

    def test_ignores_r_values(self):
        store = PairStore(dim=5, tau=3, pairs=[pair(1, scale=9.0), pair(3, scale=0.1)])
        assert store.classify(1).kind == "C3"

    def test_out_of_range(self):
        store = PairStore(dim=5, tau=3)
        with pytest.raises(IndexError):
            store.classify(5)


class TestMutations:
    def test_insert_into_empty(self):
        store = PairStore(dim=5, tau=2)
        store.insert_c1(pair(0))
        assert store.indices == [0]

    def test_insert_appends(self):
        store = PairStore(dim=5, tau=2, pairs=[pair(1)])
        store.insert_c1(pair(3))
        assert store.indices == [1, 3]

    def test_insert_at_capacity_fails(self):
        store = PairStore(dim=5, tau=2, pairs=[pair(1), pair(3)])
        with pytest.raises(CurvatureError):
            store.insert_c1(pair(0))

    def test_replace_last(self):
        store = PairStore(dim=5, tau=2, pairs=[pair(1), pair(3, scale=1.0)])
        store.replace_c2(pair(3, scale=7.0))
        assert store.indices == [1, 3]
        assert store.pairs[-1].curvature == 7.0

    def test_replace_single(self):
        store = PairStore(dim=5, tau=2, pairs=[pair(1, scale=1.0)])
        store.replace_c2(pair(1, scale=2.0))
        assert store.size == 1
        assert store.pairs[0].curvature == 2.0

    def test_replace_empty_fails(self):
        store = PairStore(dim=5, tau=2)
        with pytest.raises(CurvatureError):
            store.replace_c2(pair(1))

    def test_replace_preserves_size_on_random_sequences(self):
        rng = np.random.default_rng(0)
        store = PairStore(dim=6, tau=3)
        store.insert_c1(dense_pair(2, rng, d=6))
        for _ in range(100):
            before = store.size
            store.replace_c2(dense_pair(store.indices[-1], rng, d=6))
            assert store.size == before

    def test_snapshot_is_a_copy(self):
        rng = np.random.default_rng(1)
        store = PairStore(dim=6, tau=3,
                          pairs=[dense_pair(0, rng, 6), dense_pair(2, rng, 6)])
        snap = store.snapshot()
        snap.pairs[0].r[:] = 99.0
        assert store.pairs[0].r[0] != 99.0


class TestInvariantFuzz:
    def test_random_insert_replace_sequences(self):
        """Size stays bounded and indices stay distinct over 1000 random ops."""
        rng = np.random.default_rng(42)
        d, tau = 8, 4
        store = PairStore(dim=d, tau=tau)
        for _ in range(1000):
            if store.size < tau and rng.random() < 0.5:
                free = [i for i in range(d) if i not in store.indices]
                store.insert_c1(dense_pair(int(rng.choice(free)), rng, d))
            elif store.size:
                store.replace_c2(dense_pair(store.indices[-1], rng, d))
            assert store.size <= tau
            assert len(set(store.indices)) == store.size

    def test_validation_rejects_duplicates(self):
        with pytest.raises(CurvatureError):
            PairStore(dim=5, tau=3, pairs=[pair(1), pair(1)])

    def test_validation_rejects_oversize(self):
        with pytest.raises(CurvatureError):
            PairStore(dim=5, tau=1, pairs=[pair(1), pair(2)])
