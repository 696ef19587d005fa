"""Correction scaling: weighted step norms, scale factors, store rescaling."""

import numpy as np
import pytest

from lgbfgs.correction import apply_scaling, scale_factor, weighted_step_norm
from lgbfgs.errors import CurvatureError
from lgbfgs.kernels import dense_B_from_pairs, two_loop_direction
from lgbfgs.objectives import QuadraticObjective
from lgbfgs.pairs import PairStore
from lgbfgs.solvers import SolverConfig
from lgbfgs.verify import _dense_H, _random_store


class TestWeightedStepNorm:
    def test_zero_step(self):
        obj = QuadraticObjective(np.array([1.0, 4.0]))
        p = obj.at(np.ones(2))
        assert weighted_step_norm(obj, p, p) == 0.0

    def test_hand_value(self):
        obj = QuadraticObjective(np.array([1.0, 4.0]))
        assert weighted_step_norm(obj, obj.at(np.zeros(2)), obj.at(np.ones(2))) == \
            pytest.approx(np.sqrt(5.0))

    def test_broken_hessian_raises(self):
        class Broken(QuadraticObjective):
            def hess_vec(self, x, v):
                return -super().hess_vec(x, v)

        obj = Broken(np.array([1.0, 2.0]))
        with pytest.raises(CurvatureError, match="negative curvature radicand"):
            weighted_step_norm(obj, obj.at(np.zeros(2)), obj.at(np.ones(2)))


class TestScaleFactor:
    def test_off_is_identity(self):
        assert scale_factor(3.7, "off", cm=2.0, t=5) == 1.0

    def test_basic_with_zero_cm(self):
        assert scale_factor(1.3, "basic", cm=0.0, t=0) == 1.0

    def test_basic_formula(self):
        assert scale_factor(0.5, "basic", cm=2.0, t=0) == 2.0

    def test_delta_formula(self):
        assert scale_factor(0.0, "delta", cm=0.0, t=2) == pytest.approx(1.025)

    def test_negative_phi_rejected(self):
        with pytest.raises(ValueError):
            scale_factor(-0.1, "basic", cm=1.0, t=0)

    def test_delta_config_validation(self):
        """The config is a mode alone; the delta slack is fixed."""
        with pytest.raises(ValueError, match="unknown correction mode"):
            SolverConfig(correction="bogus")
        with pytest.raises(TypeError):
            scale_factor(0.0, "delta", cm=0.0, t=0, delta0=0.2)


class TestApplyScaling:
    def test_identity_scale_is_noop(self):
        rng = np.random.default_rng(0)
        store = _random_store(rng, 4, 2, h0=1.0)
        before = store.R.copy()
        apply_scaling(store, 1.0)
        np.testing.assert_array_equal(store.R, before)
        assert store.h0_scale == 1.0

    def test_small_scale_rejected(self):
        store = PairStore(dim=3, tau=2)
        with pytest.raises(ValueError):
            apply_scaling(store, 0.9)

    @pytest.mark.parametrize("h0, r_scale, psi", [
        (1e-300, 1.0, 1e10),   # h0_scale / psi below the normal floats
        (1.0, 1e300, 1e10),    # psi * r overflows
        (1.0, 1.0, np.inf),
        (1.0, 1.0, np.nan),
    ])
    def test_scale_out_of_float_range_raises_before_writing(self, h0, r_scale, psi):
        rng = np.random.default_rng(6)
        store = _random_store(rng, 5, 3, h0=h0)
        store.R[:] *= r_scale
        R, h0_scale = store.R.tobytes(), store.h0_scale
        with pytest.raises(CurvatureError, match="float range"):
            apply_scaling(store, psi)
        assert store.R.tobytes() == R and store.h0_scale == h0_scale

    def test_hand_case_direct_operator_doubles(self):
        store = PairStore(dim=2, tau=1, h0_scale=1.0)
        store.replace_suffix(0, [0], np.array([[2.0], [0.0]]))
        before = dense_B_from_pairs(store.indices, store.R, store.h0_scale)
        apply_scaling(store, 2.0)
        after = dense_B_from_pairs(store.indices, store.R, store.h0_scale)
        np.testing.assert_allclose(before, np.diag([2.0, 1.0]), atol=1e-14)
        np.testing.assert_allclose(after, np.diag([4.0, 2.0]), atol=1e-14)

    def test_direct_fold_scales_linearly(self):
        """Scaled seed and variations multiply the direct fold by psi."""
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(2, 8))
            size = int(rng.integers(1, min(d, 5) + 1))
            psi = float(rng.uniform(1.0, 3.0))
            store = _random_store(rng, d, size, h0=float(rng.uniform(0.5, 2.0)))
            B_before = dense_B_from_pairs(store.indices, store.R, store.h0_scale)
            apply_scaling(store, psi)
            B_after = dense_B_from_pairs(store.indices, store.R, store.h0_scale)
            worst = max(worst, np.linalg.norm(B_after - psi * B_before)
                        / np.linalg.norm(B_before))
        assert worst <= 1e-10

    def test_inverse_fold_scales_inversely(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = int(rng.integers(2, 8))
            store = _random_store(rng, d, int(rng.integers(1, min(d, 5) + 1)), h0=1.0)
            psi = float(rng.uniform(1.0, 4.0))
            H_before = _dense_H(store)
            apply_scaling(store, psi)
            np.testing.assert_allclose(_dense_H(store), H_before / psi,
                                       atol=1e-12 * np.linalg.norm(H_before))

    def test_direction_scales_inversely(self):
        """Two-loop directions shrink by exactly 1/psi after scaling."""
        rng = np.random.default_rng(3)
        store = _random_store(rng, 5, 3, h0=1.0)
        g = rng.standard_normal(5)
        before = two_loop_direction(store, g)
        apply_scaling(store, 2.5)
        np.testing.assert_allclose(two_loop_direction(store, g), before / 2.5,
                                   atol=1e-13)

    def test_bit_identical_to_scaling_each_variation(self):
        """Scaling in place gives exactly psi * r per column and h0 / psi."""
        rng = np.random.default_rng(5)
        store = _random_store(rng, 7, 4, h0=0.3)
        expected = [1.9 * store.R[:, k] for k in range(store.size)]
        apply_scaling(store, 1.9)
        for k, r in enumerate(expected):
            assert store.R[:, k].tobytes() == r.tobytes()
        assert store.h0_scale == 0.3 / 1.9

    def test_indices_and_order_untouched(self):
        rng = np.random.default_rng(4)
        store = _random_store(rng, 6, 4, h0=1.0)
        idx = list(store.indices)
        apply_scaling(store, 1.7)
        assert store.indices == idx
