"""Objective contracts: values, gradients, Hessian products, weighted norms."""

import numpy as np
import pytest

from lgbfgs.data import synth_logistic_dataset, synth_problem
from lgbfgs.errors import CurvatureError
from lgbfgs.objectives import LogisticObjective, ObjectiveInfo, QuadraticObjective


def fd_gradient(obj, x, eps=1e-6):
    """Central finite differences of the objective value."""
    d = x.size
    grad = np.zeros(d)
    for i in range(d):
        step = np.zeros(d)
        step[i] = eps
        f_plus, _ = obj.value_grad(x + step)
        f_minus, _ = obj.value_grad(x - step)
        grad[i] = (f_plus - f_minus) / (2 * eps)
    return grad


def fd_hess_vec(obj, x, v, eps=1e-6):
    """Central finite differences of the gradient along v."""
    _, g_plus = obj.value_grad(x + eps * v)
    _, g_minus = obj.value_grad(x - eps * v)
    return (g_plus - g_minus) / (2 * eps)


class TestObjectiveInfo:
    def test_derived_self_concordance_is_exact(self):
        info = ObjectiveInfo(dim=3, mu=0.25, lipschitz_L=2.0, hess_lip_CL=0.5)
        assert info.self_concordant_CM == 0.5 / 0.25**1.5

    def test_quadratic_has_zero_hessian_variation(self):
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        assert obj.info.hess_lip_CL == 0.0
        assert obj.info.self_concordant_CM == 0.0

    def test_rejects_inconsistent_constants(self):
        with pytest.raises(ValueError):
            ObjectiveInfo(dim=2, mu=2.0, lipschitz_L=1.0, hess_lip_CL=0.0)
        with pytest.raises(ValueError):
            ObjectiveInfo(dim=2, mu=-1.0, lipschitz_L=1.0, hess_lip_CL=0.0)


class TestQuadratic:
    def test_value_grad_closed_form(self):
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        value, grad = obj.value_grad(np.array([1.0, 1.0]))
        assert value == pytest.approx(1.5)
        np.testing.assert_allclose(grad, [1.0, 2.0])

    def test_hess_vec_diagonal(self):
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        np.testing.assert_allclose(obj.hess_vec(np.zeros(2), np.ones(2)), [1.0, 2.0])

    def test_hess_column(self):
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        np.testing.assert_allclose(obj.hess_column(np.zeros(2), 1), [0.0, 2.0])

    def test_weighted_norm_diag(self):
        obj = QuadraticObjective(np.array([1.0, 4.0]))
        assert obj.weighted_norm(np.zeros(2), np.ones(2)) == pytest.approx(np.sqrt(5))

    def test_zero_vector_norm(self):
        obj = QuadraticObjective(np.array([1.0, 4.0]))
        assert obj.weighted_norm(np.zeros(2), np.zeros(2)) == 0.0

    def test_minimizer(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        obj = QuadraticObjective(a @ a.T + 4 * np.eye(4), offset=rng.standard_normal(4))
        _, grad = obj.value_grad(obj.minimizer())
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_dimension_mismatch_raises(self):
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            obj.value_grad(np.zeros(3))
        with pytest.raises(ValueError):
            obj.value_grad(np.array([np.nan, 0.0]))
        with pytest.raises(IndexError):
            obj.hess_column(np.zeros(2), 2)


class TestLogistic:
    def test_value_and_grad_at_zero(self):
        """At the origin every sigmoid is 1/2, so the value is log 2 and the
        gradient is minus half the mean signed sample (no regularizer term)."""
        ds = synth_logistic_dataset(n=40, d=6, seed=3)
        obj = LogisticObjective(ds, reg_mu=1e-6)
        value, grad = obj.value_grad(np.zeros(6))
        assert value == pytest.approx(np.log(2.0))
        z = ds.features.toarray()
        expected = -0.5 * (ds.labels @ z) / ds.n_samples
        np.testing.assert_allclose(grad, expected, atol=1e-12)

    def test_single_sample_against_finite_differences(self):
        from lgbfgs.data import parse_libsvm

        ds = parse_libsvm("+1 1:1\n")
        obj = LogisticObjective(ds, reg_mu=1e-4)
        x = np.array([1.0])
        _, grad = obj.value_grad(x)
        fd = fd_gradient(obj, x)
        np.testing.assert_allclose(grad, fd, rtol=1e-6)

    def test_hess_vec_at_zero_single_sample(self):
        from lgbfgs.data import parse_libsvm

        ds = parse_libsvm("+1 1:1 2:0\n", n_features=2)
        obj = LogisticObjective(ds, reg_mu=1e-12)
        hv = obj.hess_vec(np.zeros(2), np.array([1.0, 0.0]))
        np.testing.assert_allclose(hv, [0.25, 0.0], atol=1e-10)

    def test_hess_vec_zero_vector(self):
        ds = synth_logistic_dataset(n=30, d=5, seed=1)
        obj = LogisticObjective(ds, reg_mu=1e-3)
        np.testing.assert_allclose(
            obj.hess_vec(np.ones(5), np.zeros(5)), np.zeros(5)
        )

    def test_lipschitz_constant_after_normalization(self):
        ds = synth_logistic_dataset(n=100, d=8, seed=2)
        obj = LogisticObjective(ds, reg_mu=1e-3)
        assert obj.info.lipschitz_L == pytest.approx(0.25 + 1e-3)

    def test_hess_column_matches_hess_vec_on_random_instances(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            ds = synth_logistic_dataset(n=20, d=5, seed=trial)
            obj = LogisticObjective(ds, reg_mu=1e-3)
            x = rng.standard_normal(5)
            i = int(rng.integers(0, 5))
            e = np.zeros(5)
            e[i] = 1.0
            np.testing.assert_allclose(
                obj.hess_column(x, i), obj.hess_vec(x, e), atol=1e-12
            )

    def test_hess_diag_matches_columns(self):
        ds = synth_logistic_dataset(n=30, d=6, seed=4)
        obj = LogisticObjective(ds, reg_mu=1e-3)
        x = np.linspace(-1, 1, 6)
        diag = obj.hess_diag(x, [0, 3, 5])
        for k, i in enumerate([0, 3, 5]):
            assert diag[k] == pytest.approx(obj.hess_column(x, i)[i], rel=1e-12)


class TestDerivativeOracles:
    """Gradients and Hessian products against finite differences."""

    @pytest.mark.parametrize("builder", ["quadratic", "logistic"])
    def test_gradient_matches_finite_differences(self, builder):
        rng = np.random.default_rng(11)
        if builder == "quadratic":
            obj = synth_problem("quadratic", d=6, spectrum=(1.0, 5.0), seed=0)
        else:
            obj = synth_problem("logistic", d=6, n=60, mu=1e-2, seed=0)
        for _ in range(20):
            x = rng.standard_normal(6)
            _, grad = obj.value_grad(x)
            fd = fd_gradient(obj, x)
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("builder", ["quadratic", "logistic"])
    def test_hess_vec_matches_gradient_differences(self, builder):
        rng = np.random.default_rng(13)
        if builder == "quadratic":
            obj = synth_problem("quadratic", d=5, spectrum=(1.0, 4.0), seed=1)
        else:
            obj = synth_problem("logistic", d=5, n=50, mu=1e-2, seed=1)
        for _ in range(10):
            x = rng.standard_normal(5)
            v = rng.standard_normal(5)
            hv = obj.hess_vec(x, v)
            fd = fd_hess_vec(obj, x, v)
            np.testing.assert_allclose(hv, fd, rtol=1e-5, atol=1e-8)

    def test_hess_vec_symmetry_and_linearity(self):
        rng = np.random.default_rng(17)
        obj = synth_problem("logistic", d=7, n=40, mu=1e-2, seed=2)
        x = rng.standard_normal(7)
        u, v = rng.standard_normal(7), rng.standard_normal(7)
        assert float(u @ obj.hess_vec(x, v)) == pytest.approx(
            float(v @ obj.hess_vec(x, u)), abs=1e-12
        )
        lhs = obj.hess_vec(x, 2.0 * u - 3.0 * v)
        rhs = 2.0 * obj.hess_vec(x, u) - 3.0 * obj.hess_vec(x, v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_curvature_spectral_bounds(self):
        rng = np.random.default_rng(19)
        obj = synth_problem("logistic", d=6, n=80, mu=1e-2, seed=3)
        mu, L = obj.info.mu, obj.info.lipschitz_L
        for _ in range(25):
            x = rng.standard_normal(6)
            v = rng.standard_normal(6)
            quad = float(v @ obj.hess_vec(x, v))
            nsq = float(v @ v)
            assert mu * nsq <= quad * (1 + 1e-12)
            assert quad <= L * nsq * (1 + 1e-12)
            wn = obj.weighted_norm(x, v)
            assert np.sqrt(mu) * np.sqrt(nsq) <= wn * (1 + 1e-12)
            assert wn <= np.sqrt(L) * np.sqrt(nsq) * (1 + 1e-12)

    def test_broken_hessian_raises(self):
        class Broken(QuadraticObjective):
            def hess_vec(self, x, v):
                return -super().hess_vec(x, v)

        obj = Broken(np.array([1.0, 2.0]))
        with pytest.raises(CurvatureError):
            obj.weighted_norm(np.zeros(2), np.ones(2))
