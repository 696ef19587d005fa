"""Greedy pair selection and candidate-subset policies."""

import numpy as np
import pytest

from lgbfgs.errors import CurvatureError
from lgbfgs.greedy import ADAPTIVE, FIXED_PREFIX, greedy_pair, subset_indices
from lgbfgs.objectives import QuadraticObjective
from lgbfgs.pairs import PairStore
from lgbfgs.solvers import SolverConfig


def store_with(indices, d, tau, h0=1.0, matrix=None):
    store = PairStore(dim=d, tau=tau, h0_scale=h0)
    store.replace_suffix(0, indices, (2.0 * np.eye(d) if matrix is None else matrix)[:, indices])
    return store


class TestSubsetIndices:
    def test_fixed_prefix(self):
        store = PairStore(dim=6, tau=3)
        assert subset_indices(FIXED_PREFIX, store) == [0, 1, 2]

    def test_adaptive_below_capacity_is_full_basis(self):
        store = store_with([1], d=4, tau=2)
        assert subset_indices(ADAPTIVE, store) == [0, 1, 2, 3]

    def test_adaptive_at_capacity_is_stored(self):
        store = store_with([1, 3], d=4, tau=2)
        assert subset_indices(ADAPTIVE, store) == [1, 3]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown subset policy"):
            SolverConfig(subset_policy="other")


class TestGreedyPair:
    def test_ratio_argmax_hand_case(self):
        """Seed operator diag(3,3) against Hessian diag(1,2): ratios 3 vs 1.5."""
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        store = PairStore(dim=2, tau=2, h0_scale=1.0 / 3.0)
        index, r = greedy_pair(obj, obj.at(np.zeros(2)), store, [0, 1])
        assert index == 0
        np.testing.assert_allclose(r, [1.0, 0.0])

    def test_tie_breaks_to_smallest_index(self):
        """Exact-Hessian store makes every ratio 1."""
        A = np.diag([1.0, 2.0, 4.0])
        obj = QuadraticObjective(np.array([1.0, 2.0, 4.0]))
        store = store_with([0, 1, 2], d=3, tau=3, h0=1.0, matrix=A)
        index, _ = greedy_pair(obj, obj.at(np.zeros(3)), store, [1, 2, 0])
        assert index == 0

    def test_scale_invariance_of_argmax(self):
        """Rescaling the seed operator rescales every ratio uniformly."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(2, 8))
            diag = rng.uniform(0.5, 4.0, size=d)
            obj = QuadraticObjective(diag)
            store = PairStore(dim=d, tau=d, h0_scale=1.0)
            scaled = PairStore(dim=d, tau=d, h0_scale=1.0 / 7.0)
            cands = list(range(d))
            i1, _ = greedy_pair(obj, obj.at(np.zeros(d)), store, cands)
            i2, _ = greedy_pair(obj, obj.at(np.zeros(d)), scaled, cands)
            assert i1 == i2

    def test_chosen_index_always_in_candidates(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            d = int(rng.integers(3, 9))
            diag = rng.uniform(0.5, 4.0, size=d)
            obj = QuadraticObjective(diag)
            store = PairStore(dim=d, tau=d, h0_scale=1.0)
            cands = sorted(rng.choice(d, size=int(rng.integers(1, d)), replace=False))
            x = obj.at(np.zeros(d))
            index, r = greedy_pair(obj, x, store, cands)
            assert index in cands
            np.testing.assert_allclose(r, obj.hess_column(x, index))

    def test_returned_r_is_hessian_action(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4))
        obj = QuadraticObjective(a @ a.T + 4 * np.eye(4))
        store = PairStore(dim=4, tau=4, h0_scale=0.1)
        x = obj.at(np.zeros(4))
        index, r = greedy_pair(obj, x, store, [0, 1, 2, 3])
        e = np.zeros(4)
        e[index] = 1.0
        np.testing.assert_allclose(r, obj.hess_vec(x, e), atol=1e-12)

    def test_empty_candidates_rejected(self):
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        store = PairStore(dim=2, tau=2)
        with pytest.raises(ValueError):
            greedy_pair(obj, obj.at(np.zeros(2)), store, [])

    def test_nonpositive_hessian_diagonal_rejected(self):
        class Broken(QuadraticObjective):
            def hess_diag(self, x, indices):
                return np.full(len(list(indices)), -1.0)

        obj = Broken(np.array([1.0, 2.0]))
        store = PairStore(dim=2, tau=2)
        with pytest.raises(CurvatureError):
            greedy_pair(obj, obj.at(np.zeros(2)), store, [0, 1])
