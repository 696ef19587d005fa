"""Objective contracts: values, gradients, Hessian products, points, stored samples."""

import dataclasses
import gc
import io
import tracemalloc
import weakref
from unittest import mock

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit
from hypothesis import assume, example, given, settings

from lgbfgs import objectives
from lgbfgs.correction import weighted_step_norm
from lgbfgs.data import Dataset, parse_libsvm, synth_logistic_dataset, synth_problem
from lgbfgs.greedy import greedy_pair
from lgbfgs.objectives import LogisticObjective, ObjectiveInfo, QuadraticObjective
from lgbfgs.pairs import PairStore


def fd_gradient(obj, x, eps=1e-6):
    """Central finite differences of the objective value."""
    d = x.size
    grad = np.zeros(d)
    for i in range(d):
        step = np.zeros(d)
        step[i] = eps
        f_plus, _ = obj.value_grad(obj.at(x + step))
        f_minus, _ = obj.value_grad(obj.at(x - step))
        grad[i] = (f_plus - f_minus) / (2 * eps)
    return grad


def fd_hess_vec(obj, x, v, eps=1e-6):
    """Central finite differences of the gradient along v."""
    _, g_plus = obj.value_grad(obj.at(x + eps * v))
    _, g_minus = obj.value_grad(obj.at(x - eps * v))
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

    @pytest.mark.parametrize("consts", [
        {"mu": 1e-3, "lipschitz_L": np.nan, "hess_lip_CL": 0.0},
        {"mu": np.inf, "lipschitz_L": np.inf, "hess_lip_CL": 0.0},
        {"mu": 1e-3, "lipschitz_L": 1.0, "hess_lip_CL": np.nan},
        {"mu": 1e-3, "lipschitz_L": 1.0, "hess_lip_CL": np.inf},
    ], ids=["nan_L", "inf_mu", "nan_CL", "inf_CL"])
    def test_rejects_non_finite_constants(self, consts):
        with pytest.raises(ValueError, match="must be finite"):
            ObjectiveInfo(dim=2, **consts)


class TestQuadratic:
    def test_value_grad_closed_form(self):
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        value, grad = obj.value_grad(obj.at(np.array([1.0, 1.0])))
        assert value == pytest.approx(1.5)
        np.testing.assert_allclose(grad, [1.0, 2.0])

    def test_hess_vec_diagonal(self):
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        np.testing.assert_allclose(obj.hess_vec(obj.at(np.zeros(2)), np.ones(2)), [1.0, 2.0])

    def test_hess_column(self):
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        np.testing.assert_allclose(obj.hess_column(obj.at(np.zeros(2)), 1), [0.0, 2.0])

    def test_weighted_norm_diag(self):
        """The step (1, 1) weighted by diag(1, 4) has length sqrt(5), from
        any departure point: the quadratic's curvature is constant."""
        obj = QuadraticObjective(np.array([1.0, 4.0]))
        x = np.array([-1.0, 2.0])
        assert weighted_step_norm(obj, obj.at(x), obj.at(x + 1.0)) == pytest.approx(np.sqrt(5))

    def test_zero_vector_norm(self):
        obj = QuadraticObjective(np.array([1.0, 4.0]))
        assert weighted_step_norm(obj, obj.at(np.zeros(2)), obj.at(np.zeros(2))) == 0.0

    def test_dimension_mismatch_raises(self):
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            obj.at(np.zeros(3))
        with pytest.raises(ValueError):
            obj.at(np.array([np.nan, 0.0]))
        with pytest.raises(IndexError):
            obj.hess_column(obj.at(np.zeros(2)), 2)


class TestLogistic:
    def test_value_and_grad_at_zero(self):
        """At the origin every sigmoid is 1/2, so the value is log 2 and the
        gradient is minus half the mean signed sample (no regularizer term)."""
        ds = synth_logistic_dataset(n=40, d=6, seed=3)
        obj = LogisticObjective(ds, reg_mu=1e-6)
        value, grad = obj.value_grad(obj.at(np.zeros(6)))
        assert value == pytest.approx(np.log(2.0))
        z = ds.features
        expected = -0.5 * (ds.labels @ z) / ds.n_samples
        np.testing.assert_allclose(grad, expected, atol=1e-12)

    def test_single_sample_against_finite_differences(self):
        from lgbfgs.data import parse_libsvm

        ds = parse_libsvm(io.StringIO("+1 1:1\n"))
        obj = LogisticObjective(ds, reg_mu=1e-4)
        x = np.array([1.0])
        _, grad = obj.value_grad(obj.at(x))
        fd = fd_gradient(obj, x)
        np.testing.assert_allclose(grad, fd, rtol=1e-6)

    def test_hess_vec_at_zero_single_sample(self):
        from lgbfgs.data import parse_libsvm

        ds = parse_libsvm(io.StringIO("+1 1:1 2:0\n"))
        obj = LogisticObjective(ds, reg_mu=1e-12)
        hv = obj.hess_vec(obj.at(np.zeros(2)), np.array([1.0, 0.0]))
        np.testing.assert_allclose(hv, [0.25, 0.0], atol=1e-10)

    def test_hess_vec_zero_vector(self):
        ds = synth_logistic_dataset(n=30, d=5, seed=1)
        obj = LogisticObjective(ds, reg_mu=1e-3)
        np.testing.assert_allclose(
            obj.hess_vec(obj.at(np.ones(5)), np.zeros(5)), np.zeros(5)
        )

    def test_lipschitz_constant_after_normalization(self):
        ds = synth_logistic_dataset(n=100, d=8, seed=2)
        obj = LogisticObjective(ds, reg_mu=1e-3)
        assert obj.info.lipschitz_L == pytest.approx(0.25 + 1e-3)

    @pytest.mark.parametrize("n, d", [(5000, 1000), (2000, 200)], ids=["fill-d1000", "c3-d200"])
    @pytest.mark.parametrize("density", [0.0, 2.0], ids=["dense", "csr"])
    def test_lipschitz_constant_keeps_its_bits(self, n, d, density):
        """L reads the row sums of Z**2 bit for bit as ``row_sums`` gives them on
        the n x d squares (dense) or on Z's CSR entries squared, on the
        benchmark's problems in either layout."""
        with mock.patch.object(objectives, "DENSE_MIN_DENSITY", density):
            obj = synth_problem("logistic", d=d, n=n, mu=1e-4, seed=0)
        Z = synth_logistic_dataset(n, d, seed=0).features
        if density:
            Z = sp.csr_matrix(Z)
            sq = sp.csr_matrix((Z.data**2, Z.indices, Z.indptr), shape=Z.shape)
        else:
            sq = Z * Z
        max_norm = float(np.sqrt(objectives.row_sums(sq).max()))
        assert obj.info.lipschitz_L == 0.25 * max_norm**2 + 1e-4

    def test_value_grad_matches_logaddexp_form(self):
        """The value and gradient from a = exp(-|m|) match log(1 + e^-ym) by
        np.logaddexp and its derivative by expit to 1e-14 relative, at margins up
        to +-800 and without an overflow, invalid or divide warning."""
        rng = np.random.default_rng(5)
        n, d, mu = 64, 6, 1e-3
        Z = rng.standard_normal((n, d))
        Z[:4] = [[1.0] + [0.0] * (d - 1), [-1.0] + [0.0] * (d - 1)] * 2
        y = rng.choice([-1.0, 1.0], size=n)
        obj = LogisticObjective(Dataset(Z, y), reg_mu=mu)
        for scale in (1e-3, 1.0, 30.0, 800.0):
            x = np.zeros(d)
            x[0] = scale
            x[1:] = rng.standard_normal(d - 1)
            t = y * (Z @ x)
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                f, g = obj.value_grad(obj.at(x))
            want_f = np.mean(np.logaddexp(0.0, -t)) + 0.5 * mu * (x @ x)
            want_g = Z.T @ (-y * expit(-t)) / n + mu * x
            assert abs(t).max() >= scale
            assert f == pytest.approx(want_f, rel=1e-14, abs=0)
            assert np.linalg.norm(g - want_g) <= 1e-14 * np.linalg.norm(want_g)

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
                obj.hess_column(obj.at(x), i), obj.hess_vec(obj.at(x), e), atol=1e-12
            )

    def test_hess_diag_matches_columns(self):
        ds = synth_logistic_dataset(n=30, d=6, seed=4)
        obj = LogisticObjective(ds, reg_mu=1e-3)
        x = obj.at(np.linspace(-1, 1, 6))
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
            _, grad = obj.value_grad(obj.at(x))
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
            hv = obj.hess_vec(obj.at(x), v)
            fd = fd_hess_vec(obj, x, v)
            np.testing.assert_allclose(hv, fd, rtol=1e-5, atol=1e-8)

    def test_hess_vec_symmetry_and_linearity(self):
        rng = np.random.default_rng(17)
        obj = synth_problem("logistic", d=7, n=40, mu=1e-2, seed=2)
        x = obj.at(rng.standard_normal(7))
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
            p, q = obj.at(x), obj.at(x + rng.standard_normal(6))
            v = q.x - p.x
            quad = float(v @ obj.hess_vec(p, v))
            nsq = float(v @ v)
            assert mu * nsq <= quad * (1 + 1e-12)
            assert quad <= L * nsq * (1 + 1e-12)
            wn = weighted_step_norm(obj, p, q)
            assert np.sqrt(mu) * np.sqrt(nsq) <= wn * (1 + 1e-12)
            assert wn <= np.sqrt(L) * np.sqrt(nsq) * (1 + 1e-12)


@st.composite
def logistic_datasets(draw):
    """A small sparse dataset with an all-zero column and an all-zero row, a
    regularizer, and a point in its domain."""
    n, d = draw(st.integers(2, 7)), draw(st.integers(2, 6))
    entries = draw(hnp.arrays(float, (n, d), elements=st.one_of(
        st.just(0.0), st.floats(-4.0, 4.0, allow_subnormal=False))))
    entries[:, draw(st.integers(0, d - 1))] = 0.0
    entries[draw(st.integers(0, n - 1)), :] = 0.0
    labels = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    mu = draw(st.sampled_from([1e-6, 1e-3, 1.0]))
    return Dataset(sp.csr_matrix(entries), labels), mu, draw(
        hnp.arrays(float, d, elements=st.floats(-5.0, 5.0)))


def logistic_problems():
    """The logistic objective of a ``logistic_datasets`` draw, plus its point."""
    return logistic_datasets().map(lambda c: (LogisticObjective(c[0], reg_mu=c[1]), c[2]))


@st.composite
def layout_datasets(draw):
    """A dataset with k nonzero entries drawn on one side of the dense
    threshold, optionally with an all-zero row and an all-zero column, as its
    entries and labels, plus a point and a direction."""
    n, d = draw(st.integers(3, 8)), draw(st.integers(3, 8))
    zero_row, zero_col = draw(st.sampled_from([-1, 0])), draw(st.sampled_from([-1, d - 1]))
    rows = [r for r in range(n) if r != zero_row]
    cols = [c for c in range(d) if c != zero_col]
    free = [(r, c) for r in rows for c in cols]
    half = -(-n * d // 2)  # least k with k >= n*d/2
    dense = draw(st.booleans())
    lo, hi = (half, len(free)) if dense else (0, half - 1)
    assume(lo <= hi)
    k = draw(st.integers(lo, hi))
    cells = draw(st.permutations(free))[:k]
    values = draw(hnp.arrays(float, k, elements=st.floats(0.05, 4.0)))
    signs = draw(hnp.arrays(float, k, elements=st.sampled_from([-1.0, 1.0])))
    entries = np.zeros((n, d))
    for (r, c), value in zip(cells, signs * values):
        entries[r, c] = value
    labels = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    x = draw(hnp.arrays(float, d, elements=st.floats(-5.0, 5.0)))
    v = draw(hnp.arrays(float, d, elements=st.floats(-3.0, 3.0)))
    return entries, labels, x, v, k


def stored_dense(obj):
    return isinstance(obj._Z, np.ndarray)


class TestFeatureLayout:
    """The logistic objective stores its samples by density; both layouts agree."""

    @settings(max_examples=80, deadline=None)
    @given(case=layout_datasets(), mu=st.sampled_from([1e-6, 1e-3, 1.0]))
    @example(case=(np.vstack([[-0.05, 0.05, 0.0], np.zeros((7, 3))]), -np.ones(8),
                   np.full(3, 0.046875), np.ones(3), 2), mu=1e-6)
    def test_layouts_agree_and_follow_density(self, case, mu):
        """Both layouts give the same values up to 1e-12 relative, plus 1e-12 of
        the terms each entry sums: where the terms cancel (the pinned margin is
        0.0 from CSR and 2.2e-19 from BLAS's fused multiply-add) the result is no
        scale for the rounding, the terms are."""
        entries, labels, x, v, k = case
        n, d = entries.shape
        as_csr = Dataset(sp.csr_matrix(entries), labels)
        as_array = Dataset(entries, labels)
        by_rule = [LogisticObjective(ds, reg_mu=mu) for ds in (as_csr, as_array)]
        assert [stored_dense(o) for o in by_rule] == [k >= n * d / 2] * 2
        # each layout from the other input type
        with mock.patch.object(objectives, "DENSE_MIN_DENSITY", 0.0):
            dense = LogisticObjective(as_csr, reg_mu=mu)
        with mock.patch.object(objectives, "DENSE_MIN_DENSITY", 2.0):
            sparse = LogisticObjective(as_array, reg_mu=mu)
        assert stored_dense(dense) and not stored_dense(sparse)
        np.testing.assert_allclose(
            [dense.info.lipschitz_L, dense.info.hess_lip_CL],
            [sparse.info.lipschitz_L, sparse.info.hess_lip_CL], rtol=1e-12)

        def results(obj):
            p = obj.at(x)
            f, g = obj.value_grad(p)
            out = [p.margins, p.weights, np.float64(f), g, obj.hess_vec(p, v),
                   obj.hess_diag(p, range(d)), obj.hess_matrix(p),
                   np.float64(weighted_step_norm(obj, p, obj.at(x + v)))]
            return out + [obj.hess_column(p, i) for i in range(d)]

        want = results(sparse)
        # the magnitudes of the terms summed into the entries of each result
        Z, s = np.abs(entries), np.abs((x + v) - x)
        grad = Z.T @ expit(-labels * want[0]) / n + mu * np.abs(x)
        hess = (Z.T * want[1]) @ Z / n + mu * np.eye(d)
        terms = [Z @ np.abs(x), want[1], want[2], grad, hess @ np.abs(v), hess.diagonal(),
                 hess, np.sqrt(s @ hess @ s), *hess]
        for got, expected, scale in zip(results(dense), want, terms):
            np.testing.assert_allclose(got, expected, rtol=1e-12,
                                       atol=1e-12 * float(np.max(scale)))

    def test_sparse_libsvm_data_stays_csr(self):
        rng = np.random.default_rng(0)
        n, d = 200, 100
        text = "".join(f"+1 {rng.integers(1, d + 1)}:{rng.uniform(0.5, 1.0)!r}\n"
                       for _ in range(n))
        ds = parse_libsvm(io.StringIO(text))
        assert ds.features.nnz == n * d // 100
        obj = LogisticObjective(ds, reg_mu=1e-3)
        assert isinstance(obj._Z, sp.csr_matrix)

    def test_parsed_dataset_is_not_kept(self):
        """Dense LIBSVM text parses to CSR and is stored as a dense Z; the
        objective keeps Z alone, so the Dataset dies when the caller drops it
        and what stays allocated is about Z's bytes."""
        rng = np.random.default_rng(0)
        n, d = 400, 50
        text = "".join(f"{y:+d} " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row)) + "\n"
                       for y, row in zip(rng.choice([-1, 1], n).tolist(),
                                         rng.uniform(0.5, 1.0, (n, d)).tolist()))
        LogisticObjective(parse_libsvm(io.StringIO(text)), reg_mu=1e-3)  # fills lazy caches
        tracemalloc.start()
        try:
            ds = parse_libsvm(io.StringIO(text))
            dropped = weakref.ref(ds)
            obj = LogisticObjective(ds, reg_mu=1e-3)
            del ds
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert dropped() is None and stored_dense(obj)
        assert held <= 1.1 * obj._Z.nbytes

    def test_dense_array_is_used_without_a_copy(self):
        ds = synth_logistic_dataset(n=30, d=6, seed=0)
        assert isinstance(ds.features, np.ndarray)
        obj = LogisticObjective(ds, reg_mu=1e-3)
        assert obj._Z is ds.features


@st.composite
def quadratic_problems(draw):
    d = draw(st.integers(1, 5))
    a = draw(hnp.arrays(float, (d, d), elements=st.floats(-2.0, 2.0)))
    hess = np.diag(a[0] ** 2 + 1.0) if draw(st.booleans()) else a @ a.T + np.eye(d)
    return QuadraticObjective(hess), draw(hnp.arrays(float, d, elements=st.floats(-5.0, 5.0)))


class TestPoints:
    """``obj.at(x)`` is an immutable point; every method takes it, and only it, for x."""

    @staticmethod
    def assert_hess_diag_is_dense_diagonal(ds, mu, x, lists):
        """In both layouts, hess_diag at each index list is the dense diagonal
        indexed: read from the candidates' entries of Z**2 alone, or from all
        of it."""
        for density in (0.0, 2.0):
            with mock.patch.object(objectives, "DENSE_MIN_DENSITY", density):
                layout = LogisticObjective(ds, reg_mu=mu)
            assert stored_dense(layout) == (density == 0.0)
            p = layout.at(x)
            full = layout.hess_matrix(p).diagonal()
            for indices in lists:
                np.testing.assert_allclose(layout.hess_diag(p, indices), full[list(indices)],
                                           rtol=1e-14, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(problem=logistic_datasets(), data=st.data())
    def test_hess_diag_matches_dense_diagonal(self, problem, data):
        """An unsorted list with repeats (longer than d or not), a single index
        and the whole basis; at most 7 samples, so one block of dense rows."""
        ds, mu, x = problem
        d = ds.n_features
        self.assert_hess_diag_is_dense_diagonal(ds, mu, x, [
            data.draw(st.lists(st.integers(0, d - 1), max_size=3 * d)),
            [data.draw(st.integers(0, d - 1))], range(d)])

    def test_hess_diag_sums_blocks_of_rows(self):
        """2 * _BLOCK_ROWS * d + 1 samples: the dense loop squares blocks of
        _BLOCK_ROWS * d entries, so it sums two full blocks of rows and one of
        a single row for one index, and more blocks for longer lists."""
        d = 9
        n = 2 * objectives._BLOCK_ROWS * d + 1
        ds = synth_logistic_dataset(n, d, seed=5)
        x = 3.0 * np.random.default_rng(5).standard_normal(d)
        self.assert_hess_diag_is_dense_diagonal(ds, 1e-3, x, [
            [], [4], [7, 2, 2, 8, 0, 7], [8, 0, 5, 5, 1, 2, 3, 3, 6, 4, 7], range(d)])

    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    @pytest.mark.parametrize("method", ["value_grad", "hess_vec", "hess_column", "hess_diag",
                                        "hess_matrix", "greedy_pair"])
    def test_array_rejected_as_a_foreign_point(self, kind, method):
        """``at`` is the one place an array becomes a point: every method, and
        ``greedy_pair``, raises on an array the ValueError that a point of
        another objective raises."""
        obj, other = (synth_problem(kind, d=3, n=12, spectrum=(1.0, 2.0), seed=seed)
                      for seed in (0, 1))
        x = np.ones(3)
        call = {"value_grad": lambda p: obj.value_grad(p),
                "hess_vec": lambda p: obj.hess_vec(p, x),
                "hess_column": lambda p: obj.hess_column(p, 0),
                "hess_diag": lambda p: obj.hess_diag(p, [0]),
                "hess_matrix": lambda p: obj.hess_matrix(p),
                "greedy_pair": lambda p: greedy_pair(obj, p, PairStore(3, 2, 1.0), [0, 1]),
                }[method]
        with pytest.raises(ValueError, match="another objective") as foreign:
            call(other.at(x))
        with pytest.raises(ValueError) as array:
            call(x)
        assert str(array.value) == str(foreign.value)

    @settings(max_examples=30, deadline=None)
    @given(problem=logistic_datasets(), other=st.one_of(logistic_problems(), quadratic_problems()))
    def test_point_of_another_objective_rejected(self, problem, other):
        ds, mu, x = problem
        # same data, different instance: still another objective
        obj, twin = LogisticObjective(ds, reg_mu=mu), LogisticObjective(ds, reg_mu=mu)
        for foreign in (twin.at(x), other[0].at(other[1])):
            for call in (lambda p: obj.value_grad(p),
                         lambda p: obj.hess_vec(p, x),
                         lambda p: obj.hess_column(p, 0),
                         lambda p: obj.hess_diag(p, [0]),
                         lambda p: obj.hess_matrix(p),
                         lambda p: weighted_step_norm(obj, p, p)):
                with pytest.raises(ValueError, match="another objective"):
                    call(foreign)

    def test_point_is_immutable_and_owns_its_arrays(self):
        obj = synth_problem("logistic", d=4, n=10, mu=1e-3, seed=0)
        x = np.ones(4)
        p = obj.at(x)
        x[0] = 7.0
        assert p.x[0] == 1.0
        for a in (p.x, p.margins, p.weights, p.exp_neg_abs):
            with pytest.raises(ValueError):
                a[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.x = x

    def test_at_checks_the_point(self):
        obj = QuadraticObjective(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            obj.at(np.zeros(3))
        with pytest.raises(ValueError):
            obj.at(np.array([np.inf, 0.0]))

    def test_hess_diag_index_out_of_range(self):
        obj = synth_problem("logistic", d=4, n=10, mu=1e-3, seed=0)
        with pytest.raises(IndexError, match="basis index 4"):
            obj.hess_diag(obj.at(np.zeros(4)), [0, 4])
        with pytest.raises(IndexError, match="basis index -1"):
            obj.hess_diag(obj.at(np.zeros(4)), [-1])
