"""BFGS kernels against hand values and the dense fold oracle."""

import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

from lgbfgs import kernels, solvers, verify
from lgbfgs.data import synth_problem
from lgbfgs.errors import CurvatureError
from lgbfgs.kernels import (
    compact_B_diag,
    dense_B_from_pairs,
    dense_bfgs_update,
    dense_H_from_pairs,
    dense_inv_bfgs_update,
    dense_solve,
    two_loop_direction,
)
from lgbfgs.pairs import PairStore
from lgbfgs.verify import _dense_H, _exact_direct_fold, _random_store

E0 = np.array([1.0, 0.0])


def random_spd(rng, d, shift=None):
    a = rng.standard_normal((d, d))
    return a @ a.T + (shift if shift is not None else d) * np.eye(d)


def reference_two_loop(store, v):
    """The one-vector two-loop recursion, loop by loop, as the reference."""
    q = np.asarray(v, dtype=float).copy()
    alphas = np.empty(store.size)
    rhos = np.empty(store.size)
    pairs = [(i, store.R[:, k].copy()) for k, i in enumerate(store.indices)]
    for k in range(store.size - 1, -1, -1):
        i, r = pairs[k]
        rhos[k] = 1.0 / float(r[i])
        alphas[k] = rhos[k] * q[i]
        q -= alphas[k] * r
    q *= store.h0_scale
    for k, (i, r) in enumerate(pairs):
        beta = rhos[k] * float(r @ q)
        q[i] += alphas[k] - beta
    return q


def single_pair_store():
    """One pair (e_0, 2 e_0) over the identity seed in dimension 2."""
    store = PairStore(dim=2, tau=1, h0_scale=1.0)
    store.replace_suffix(0, [0], 2 * E0[:, None])
    return store


class TestDenseUpdates:
    def test_direct_update_hand_value(self):
        out = dense_bfgs_update(np.eye(2), E0, 2 * E0)
        np.testing.assert_allclose(out, np.diag([2.0, 1.0]), atol=1e-14)

    def test_direct_update_fixed_point(self):
        """r = Bs makes the two rank-one terms cancel."""
        rng = np.random.default_rng(0)
        B = random_spd(rng, 4)
        s = rng.standard_normal(4)
        before = B.copy()
        np.testing.assert_allclose(dense_bfgs_update(B, s, B @ s), before, atol=1e-12)

    def test_secant_condition_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = int(rng.integers(2, 10))
            B = random_spd(rng, d)
            s = rng.standard_normal(d)
            r = random_spd(rng, d) @ s
            B_new = dense_bfgs_update(B, s, r)
            np.testing.assert_allclose(B_new @ s, r, atol=1e-10 * np.linalg.norm(r))
            np.testing.assert_allclose(B_new, B_new.T, atol=1e-12)
            np.linalg.cholesky(B_new)  # stays positive definite

    def test_inverse_update_hand_value(self):
        out = dense_inv_bfgs_update(np.eye(2), E0, 2 * E0)
        np.testing.assert_allclose(out, np.diag([0.5, 1.0]), atol=1e-14)

    def test_inverse_update_fixed_point(self):
        """Hr = s already: the projector annihilates the update."""
        rng = np.random.default_rng(2)
        H = random_spd(rng, 3)
        r = rng.standard_normal(3)
        s = H @ r
        np.testing.assert_allclose(dense_inv_bfgs_update(H, s, r), H, atol=1e-12)

    def test_inverse_secant_and_pairing(self):
        """Inverse update inverts the direct update, on 100 random cases."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            B = random_spd(rng, d)
            s = rng.standard_normal(d)
            r = random_spd(rng, d) @ s
            B_new = dense_bfgs_update(B.copy(), s, r)
            H_new = dense_inv_bfgs_update(np.linalg.inv(B), s, r)
            np.testing.assert_allclose(H_new @ r, s, atol=1e-10 * np.linalg.norm(s))
            np.testing.assert_allclose(H_new, np.linalg.inv(B_new), atol=1e-8)

    def test_nonpositive_curvature_rejected(self):
        with pytest.raises(CurvatureError):
            dense_bfgs_update(np.eye(2), E0, -E0)
        with pytest.raises(CurvatureError):
            dense_inv_bfgs_update(np.eye(2), E0, -E0)


def textbook_direct(B, s, r):
    """The direct update as one expression: the reference for the blocked kernel."""
    c = s @ r
    bs = B @ s
    return B + np.outer(r, r) / c - np.outer(bs, bs) / (s @ bs)


def update_inputs(d, s_kind, seed=0):
    """An exactly symmetric positive definite B, a unit or dense s and r = A s."""
    rng = np.random.default_rng(seed)
    B = random_spd(rng, d)
    s = np.zeros(d)
    if s_kind == "unit":
        s[int(rng.integers(d))] = 1.0
    else:
        s[:] = rng.standard_normal(d)
    return B, s, random_spd(rng, d) @ s


BLOCK = kernels._BLOCK_ROWS


class TestBlockedUpdate:
    """The row-blocked direct update gives the textbook expression bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("d", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1])
    @pytest.mark.parametrize("s_kind", ["unit", "dense"])
    def test_bitwise_textbook(self, dtype, d, s_kind):
        B, s, r = update_inputs(d, s_kind)
        B, r = B.astype(dtype), r.astype(dtype)
        direct = dense_bfgs_update(B.copy(), s, r)
        assert direct.dtype == dtype
        np.testing.assert_array_equal(direct, textbook_direct(B, s, r))
        np.testing.assert_array_equal(direct, direct.T)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("d", [1, BLOCK + 1, 3 * BLOCK + 1])
    @pytest.mark.parametrize("s_kind", ["unit", "dense"])
    def test_in_place(self, dtype, d, s_kind):
        """The update writes over B's own storage, which a view taken before
        the call sees, and returns B itself."""
        B, s, r = update_inputs(d, s_kind)
        B, r = B.astype(dtype), r.astype(dtype)
        expected = textbook_direct(B, s, r)
        view = B[::-1]
        assert dense_bfgs_update(B, s, r) is B
        np.testing.assert_array_equal(view, expected[::-1])


class TestDenseSolve:
    """The in-place Cholesky solve is cho_solve(cho_factor(B), v) and leaves B as it was."""

    @pytest.mark.parametrize("d", [1, BLOCK - 1, BLOCK + 1, 3 * BLOCK + 1])
    def test_bitwise_cho_solve(self, d):
        B, v, _ = update_inputs(d, "dense", seed=2)
        before = B.copy()
        expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(B), v)
        np.testing.assert_array_equal(dense_solve(B, v), expected)
        np.testing.assert_array_equal(B, before)

    def test_indefinite_raises_with_B_restored(self):
        B, v, _ = update_inputs(2 * BLOCK + 3, "dense", seed=3)
        B[BLOCK + 7, BLOCK + 7] = -1.0
        before = B.copy()
        with pytest.raises(CurvatureError, match=f"{BLOCK + 8}-th leading minor"):
            dense_solve(B, v)
        np.testing.assert_array_equal(B, before)


def traced_peak(fn, *args):
    """(result, peak bytes numpy allocated while ``fn`` ran)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestUpdateMemory:
    """A dense step holds its d x d arrays and one block of rows, no more."""

    def test_one_update_allocates_one_output(self):
        """The output is B itself: the update allocates one block of rows and a
        few vectors, about 0.19 d x d at d = 512, and no d x d array."""
        d = 512
        B, s, r = update_inputs(d, "dense")
        _, peak = traced_peak(dense_bfgs_update, B, s, r)
        assert peak <= 0.25 * 8 * d * d

    def test_greedy_run_peak(self):
        """A step holds B, factored, scaled and updated in place, and blocks of
        rows: about 1.4 d x d arrays with the objective's, uncorrected or
        corrected; one more d x d temporary or copy of B breaks the bound."""
        d = 400
        obj = synth_problem("logistic", d=d, n=1200, mu=1e-3, seed=0)
        for correction in ("off", "basic"):
            cfg = solvers.SolverConfig(method="greedy_bfgs", max_iters=3, grad_tol=0.0,
                                       correction=correction)
            trace, peak = traced_peak(solvers.run, obj, np.zeros(d), cfg)
            assert trace.stop_reason == "max_iters"
            assert peak <= 1.6 * 8 * d * d, correction


class TestDenseTraceEquivalence:
    """Greedy runs give the same iterates with the textbook update patched in."""

    @staticmethod
    def symmetrized_textbook(B, s, r):
        # the textbook update with the symmetrization the blocked kernel drops,
        # written over B as the kernel writes it
        B_new = textbook_direct(B, s, r)
        B[...] = 0.5 * (B_new + B_new.T)
        return B

    @staticmethod
    def greedy_iterates():
        obj = synth_problem("logistic", d=300, n=900, mu=1e-3, seed=0)
        x0 = solvers.warm_start(obj, np.zeros(300), 3)
        cfg = solvers.SolverConfig(method="greedy_bfgs", max_iters=3, grad_tol=0.0)
        return x0.tobytes(), solvers.run(obj, x0, cfg).x_final.tobytes()

    def test_greedy_bfgs(self, monkeypatch):
        blocked = self.greedy_iterates()
        monkeypatch.setattr(kernels, "dense_bfgs_update", self.symmetrized_textbook)
        assert self.greedy_iterates() == blocked

    @pytest.mark.parametrize("correction", ["off", "basic"])
    def test_dense_diagnostics_see_each_step_B(self, monkeypatch, correction):
        """A step scales and updates B in place, and ``dense_B`` hands out B
        itself; each row's dense diagnostics must still read the B of its own
        iterate, as when ``dense_B`` hands out a copy.  No row records a
        ``beta_tau``: over the full basis it would be 1 whatever B is."""

        def rows():
            obj = synth_problem("logistic", d=20, n=100, mu=1e-3, seed=1)
            cfg = solvers.SolverConfig(method="greedy_bfgs", max_iters=6, grad_tol=0.0,
                                       correction=correction, record_dense_diags=True)
            trace = solvers.run(obj, np.zeros(20), cfg)
            assert trace.stop_reason == "max_iters"
            assert all(r.beta_tau is None for r in trace.records)
            return [(r.sigma, r.lambda_f) for r in trace.records]

        in_place = rows()
        monkeypatch.setattr(solvers._GreedyBfgs, "dense_B", lambda step: step.B.copy())
        assert rows() == in_place


class TestDenseFold:
    def test_empty_store(self):
        store = PairStore(dim=3, tau=2, h0_scale=2.5)
        np.testing.assert_allclose(_dense_H(store), 2.5 * np.eye(3))

    def test_single_pair_matches_inverse_update(self):
        store = single_pair_store()
        np.testing.assert_allclose(_dense_H(store), np.diag([0.5, 1.0]),
                                   atol=1e-14)

    def test_fold_unrolls_to_chained_updates(self):
        rng = np.random.default_rng(4)
        store = _random_store(rng, 4, 2, h0=1.0)
        H = np.eye(4)
        for k, i in enumerate(store.indices):
            H = dense_inv_bfgs_update(H, np.eye(4)[i], store.R[:, k])
        np.testing.assert_allclose(_dense_H(store), H)

    def test_repeated_index_history(self):
        """A full history may repeat an index; the fold chains every pair."""
        rng = np.random.default_rng(18)
        A1, A2 = random_spd(rng, 3), random_spd(rng, 3)
        R = np.column_stack([A1[:, 1], A1[:, 2], A2[:, 1]])
        H = 0.5 * np.eye(3)
        for k, i in enumerate([1, 2, 1]):
            H = dense_inv_bfgs_update(H, np.eye(3)[i], R[:, k])
        np.testing.assert_array_equal(dense_H_from_pairs([1, 2, 1], R, 0.5), H)
        np.testing.assert_allclose(dense_B_from_pairs([1, 2, 1], R, 0.5) @ H,
                                   np.eye(3), atol=1e-12)

    def test_direct_fold_inverts_inverse_fold(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            store = _random_store(rng, 5, 3)
            H = _dense_H(store)
            B = dense_B_from_pairs(store.indices, store.R, store.h0_scale)
            np.testing.assert_allclose(B @ H, np.eye(5), atol=1e-9)

    @pytest.mark.parametrize("h0", [1e-6, 1e2])
    def test_long_double_fold_keeps_its_precision(self, h0):
        """A fold run in np.longdouble keeps long-double curvature scalars: at
        h0 = 1e-6 it matches the exact rational fold to 1e-13 relative, where
        scalars rounded to float64 leave errors of a few 1e-12."""
        rng = np.random.default_rng(0)
        for _ in range(15):
            d = int(rng.integers(4, 10))
            store = _random_store(rng, d, int(rng.integers(1, d + 1)), h0=h0)
            exact = np.array([[float(v) for v in row]
                              for row in _exact_direct_fold(store.indices, store.R, h0)])
            got = dense_B_from_pairs(store.indices, store.R.astype(np.longdouble),
                                     np.longdouble(h0))
            assert got.dtype == np.longdouble
            assert np.linalg.norm(got - exact) <= 1e-13 * np.linalg.norm(exact)


class TestTwoLoop:
    def test_empty_store_scales_gradient(self):
        store = PairStore(dim=2, tau=1, h0_scale=1.0)
        np.testing.assert_allclose(
            two_loop_direction(store, np.array([1.0, 2.0])), [-1.0, -2.0]
        )

    def test_single_pair_hand_value(self):
        store = single_pair_store()
        np.testing.assert_allclose(
            two_loop_direction(store, np.ones(2)), [-0.5, -1.0], atol=1e-14
        )

    def test_matches_dense_fold_on_random_stores(self):
        """Central oracle equivalence at 1e-10 relative over 200 stores."""
        assert verify.check_two_loop_vs_dense(cases=200, seed=6).passed

    def test_vector_input_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            d = int(rng.integers(2, 30))
            size = int(rng.integers(0, min(d, 12) + 1))
            store = _random_store(rng, d, size, h0=10.0 ** rng.uniform(-6.0, 2.0))
            g = rng.standard_normal(d)
            expected = reference_two_loop(store, g)
            np.testing.assert_array_equal(two_loop_direction(store, g), -expected)

    def test_matrix_input_matches_columns(self):
        """A d x k input maps each column as a separate call would."""
        rng = np.random.default_rng(15)
        for _ in range(50):
            d = int(rng.integers(2, 30))
            size = int(rng.integers(0, min(d, 12) + 1))
            store = _random_store(rng, d, size)
            V = rng.standard_normal((d, int(rng.integers(1, 6))))
            by_column = np.column_stack(
                [two_loop_direction(store, V[:, c]) for c in range(V.shape[1])]
            )
            got = two_loop_direction(store, V)
            assert got.shape == V.shape
            assert np.linalg.norm(got - by_column) <= 1e-14 * np.linalg.norm(by_column)

    @pytest.mark.parametrize("shape", [(3,), (5, 2, 1), (4, 0, 2)])
    def test_rejects_wrong_shape(self, shape):
        store = _random_store(np.random.default_rng(16), 4, 2)
        with pytest.raises(ValueError):
            two_loop_direction(store, np.ones(shape))

    def test_apply_is_positive_definite_form(self):
        rng = np.random.default_rng(7)
        store = _random_store(rng, 6, 3)
        for _ in range(10):
            v = rng.standard_normal(6)
            assert float(v @ two_loop_direction(store, v)) < 0.0


class TestCompactRepresentation:
    def test_empty_store_diag(self):
        store = PairStore(dim=3, tau=2, h0_scale=0.5)
        np.testing.assert_array_equal(compact_B_diag(store, range(3)), [2.0, 2.0, 2.0])

    def test_single_pair_hand_value(self):
        store = single_pair_store()
        np.testing.assert_allclose(compact_B_diag(store, [0, 1]), [2.0, 1.0], atol=1e-14)

    def test_matches_dense_inverse_on_random_stores(self):
        assert verify.check_compact_diag_vs_dense(cases=200, seed=8).passed

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 20),
           size_frac=st.floats(0.0, 1.0), log10_h0=st.floats(-4.0, 2.0),
           n_cand=st.integers(1, 40))
    def test_diag_matches_dense_fold(self, seed, d, size_frac, log10_h0, n_cand):
        """Diagonals over unsorted, repeated, stored and unstored candidates
        match the dense direct fold at seed scales from 1e-4 to 1e2."""
        rng = np.random.default_rng(seed)
        size = 1 + int(size_frac * (min(d, 10) - 1))
        store = _random_store(rng, d, size, h0=10.0**log10_h0)
        B = dense_B_from_pairs(store.indices, store.R, store.h0_scale)
        idx = [int(i) for i in rng.choice(store.indices + list(range(d)), n_cand)]
        diag = compact_B_diag(store, idx)
        assert np.all(np.abs(diag - B[idx, idx]) <= 1e-10 * B[idx, idx])

    def test_out_of_range(self):
        store = _random_store(np.random.default_rng(11), 3, 2)
        for indices in ([3], [0, -1], [2, 5, 1]):
            with pytest.raises(IndexError, match="out of range"):
                compact_B_diag(store, indices)
