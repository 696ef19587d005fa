"""Dataset parsing, normalization, serialization, synthetic problems."""

import gzip
import io
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from lgbfgs.data import (
    Dataset,
    normalize_rows,
    parse_libsvm,
    serialize_libsvm,
    synth_logistic_dataset,
    synth_problem,
)
from lgbfgs.objectives import _BLOCK_ROWS, LogisticObjective, QuadraticObjective


class TestParse:
    def test_basic_line(self):
        ds = parse_libsvm(io.StringIO("+1 1:0.5 3:-2\n"))
        assert ds.n_samples == 1
        assert ds.n_features == 3
        assert ds.labels[0] == 1.0
        row = ds.features.toarray()[0]
        np.testing.assert_allclose(row, [0.5, 0.0, -2.0])

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            parse_libsvm(io.StringIO(""))

    def test_zero_label_maps_to_negative(self):
        ds = parse_libsvm(io.StringIO("0 1:1\n1 1:2\n"))
        np.testing.assert_array_equal(ds.labels, [-1.0, 1.0])

    def test_nonbinary_label_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_libsvm(io.StringIO("+1 1:1\n3 1:2\n"))

    def test_malformed_token_carries_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_libsvm(io.StringIO("+1 1:1\n-1 1:abc\n"))

    def test_zero_based_index_rejected(self):
        with pytest.raises(ValueError, match="1-based"):
            parse_libsvm(io.StringIO("+1 0:1\n"))

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_libsvm(io.StringIO("+1 2:1 2:3\n"))

    def test_label_only_row_is_zero_row(self):
        ds = parse_libsvm(io.StringIO("+1 2:1\n-1\n"))
        assert ds.n_samples == 2
        assert ds.row_norms()[1] == 0.0

    def test_reads_file_and_gzip(self, tmp_path):
        text = "+1 1:0.5 2:1\n-1 2:-3\n"
        plain = tmp_path / "data.txt"
        plain.write_text(text)
        zipped = tmp_path / "data.txt.gz"
        with gzip.open(zipped, "wt") as fh:
            fh.write(text)
        ds1 = parse_libsvm(str(plain))
        ds2 = parse_libsvm(str(zipped))
        np.testing.assert_array_equal(ds1.features.toarray(), ds2.features.toarray())
        np.testing.assert_array_equal(ds1.labels, ds2.labels)

    def test_stream_input(self):
        ds = parse_libsvm(io.StringIO("+1 1:2\n"))
        assert ds.n_samples == 1

    def test_missing_path_raises_file_not_found(self, tmp_path):
        """A str or os.PathLike is always a path, never text to parse."""
        for missing in (str(tmp_path / "none.txt"), tmp_path / "none.txt.gz"):
            with pytest.raises(FileNotFoundError):
                parse_libsvm(missing)

    @pytest.mark.parametrize("text, line", [
        ("+1 1:nan 2:1\n-1 1:inf\n", 1),
        ("+1 1:1\n-1 1:-inf\n", 2),
    ])
    def test_non_finite_value_rejected(self, text, line):
        with pytest.raises(ValueError, match=f"line {line}: non-finite feature value"):
            parse_libsvm(io.StringIO(text))


def libsvm_text(ds):
    buf = io.StringIO()
    serialize_libsvm(ds, buf)
    return buf.getvalue()


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        ds = synth_logistic_dataset(n=25, d=7, seed=1)
        again = parse_libsvm(io.StringIO(libsvm_text(ds)))
        np.testing.assert_array_equal(ds.labels, again.labels)
        np.testing.assert_array_equal(ds.features, again.features.toarray())

    def test_serialize_to_stream(self):
        ds = parse_libsvm(io.StringIO("+1 1:0.25\n"))
        buf = io.StringIO()
        serialize_libsvm(ds, buf)
        assert buf.getvalue() == "+1 1:0.25\n"


def dense_and_csr(entries, labels):
    return Dataset(entries, labels), Dataset(sp.csr_matrix(entries), labels)


class TestDenseLayout:
    """Dense and CSR features holding the same values behave alike."""

    def test_row_norms_and_normalization_agree(self):
        rng = np.random.default_rng(4)
        entries = rng.standard_normal((12, 9)) * (rng.random((12, 9)) < 0.6)
        entries[3] = 0.0
        labels = rng.choice([-1.0, 1.0], size=12)
        dense, csr = dense_and_csr(entries, labels)
        np.testing.assert_allclose(dense.row_norms(), csr.row_norms(), rtol=1e-15)
        assert dense.row_norms()[3] == 0.0
        out_dense, out_csr = normalize_rows(dense), normalize_rows(csr)
        assert isinstance(out_dense.features, np.ndarray)
        assert sp.issparse(out_csr.features)
        np.testing.assert_allclose(out_dense.features, out_csr.features.toarray(),
                                   rtol=1e-15, atol=0)

    def test_fully_dense_rows_normalize_bit_identically(self):
        raw = np.random.default_rng(5).standard_normal((40, 33))
        dense, csr = dense_and_csr(raw, np.ones(40))
        np.testing.assert_array_equal(dense.row_norms(), csr.row_norms())
        np.testing.assert_array_equal(normalize_rows(dense).features,
                                      normalize_rows(csr).features.toarray())

    def test_serialize_parse_round_trip(self):
        rng = np.random.default_rng(6)
        entries = rng.standard_normal((10, 6)) * (rng.random((10, 6)) < 0.5)
        entries[:, 5] = 0.0
        labels = rng.choice([-1.0, 1.0], size=10)
        texts = [libsvm_text(ds) for ds in dense_and_csr(entries, labels)]
        assert texts[0] == texts[1]
        again = parse_libsvm(io.StringIO(texts[0]))
        # the width read back is the largest stored index: the zero last column drops
        np.testing.assert_array_equal(again.features.toarray(), entries[:, :5])
        np.testing.assert_array_equal(again.labels, labels)


class TestNormalize:
    def test_row_scaling_hand_case(self):
        ds = parse_libsvm(io.StringIO("+1 1:3 2:4\n"))
        normalized = normalize_rows(ds)
        np.testing.assert_allclose(normalized.features.toarray()[0], [0.6, 0.8])

    def test_unit_rows_unchanged(self):
        ds = parse_libsvm(io.StringIO("+1 1:1\n"))
        np.testing.assert_allclose(normalize_rows(ds).features.toarray(), [[1.0]])

    def test_idempotent(self):
        ds = synth_logistic_dataset(n=30, d=5, seed=2)
        once = normalize_rows(ds)
        twice = normalize_rows(once)
        np.testing.assert_allclose(once.features, twice.features,
                                   atol=1e-15)

    def test_zero_rows_preserved(self, caplog):
        ds = parse_libsvm(io.StringIO("+1 2:1\n-1\n"))
        with caplog.at_level("WARNING"):
            out = normalize_rows(ds)
        assert "zero rows" in caplog.text
        assert out.row_norms()[1] == 0.0
        assert out.n_samples == 2

    def test_all_norms_one_after_normalization(self):
        ds = synth_logistic_dataset(n=100, d=12, seed=3)
        norms = ds.row_norms()
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


class TestSynthProblems:
    def test_quadratic_info(self):
        obj = synth_problem("quadratic", d=2, spectrum=np.array([1.0, 2.0]),
                            seed=0, rotate=False)
        assert isinstance(obj, QuadraticObjective)
        assert obj.info.mu == pytest.approx(1.0)
        assert obj.info.lipschitz_L == pytest.approx(2.0)
        assert obj.info.hess_lip_CL == 0.0

    def test_quadratic_rotation_preserves_spectrum(self):
        obj = synth_problem("quadratic", d=5, spectrum=(1.0, 9.0), seed=1, rotate=True)
        eigs = np.linalg.eigvalsh(obj.hess_matrix(np.zeros(5)))
        np.testing.assert_allclose(eigs, np.linspace(1.0, 9.0, 5), atol=1e-10)

    def test_determinism(self):
        a = synth_problem("logistic", d=6, n=40, mu=1e-3, seed=7)
        b = synth_problem("logistic", d=6, n=40, mu=1e-3, seed=7)
        np.testing.assert_array_equal(a._Z, b._Z)
        np.testing.assert_array_equal(a._y, b._y)

    def test_logistic_lipschitz_formula(self):
        obj = synth_problem("logistic", d=50, n=500, mu=1e-4, seed=0)
        assert isinstance(obj, LogisticObjective)
        assert obj.info.lipschitz_L == pytest.approx(0.25 + 1e-4)

    def test_bad_spectrum_rejected(self):
        with pytest.raises(ValueError):
            synth_problem("quadratic", d=3, spectrum=(-1.0, 2.0), seed=0)
        with pytest.raises(ValueError):
            synth_problem("quadratic", d=3, spectrum=np.ones(4), seed=0)

    def test_labels_are_binary(self):
        ds = synth_logistic_dataset(n=50, d=4, seed=5)
        assert set(np.unique(ds.labels)) == {-1.0, 1.0}

    def test_rows_scaled_in_place_as_normalize_rows_scales_them(self):
        n, d, seed = 2 * _BLOCK_ROWS + 3, 7, 11
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, d))
        want = normalize_rows(Dataset(raw, rng.choice([-1.0, 1.0], size=n)))
        got = synth_logistic_dataset(n, d, seed)
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()


def traced_peak(fn, *args, **kwargs):
    """Peak bytes numpy allocated while ``fn`` ran."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBuildMemory:
    """A logistic problem holds one n x d array of samples and no d x n square."""

    n, d = 2000, 200

    def test_dense_objective_allocates_no_square(self):
        """Building the objective and reading Hessian diagonals allocates one
        block of squared rows, not Z**2 (8 n d bytes)."""
        ds = synth_logistic_dataset(self.n, self.d, seed=0)

        def build_and_read():
            obj = LogisticObjective(ds, reg_mu=1e-4)
            p = obj.at(np.ones(self.d))
            obj.hess_diag(p, range(self.d))
            obj.hess_diag(p, range(0, self.d, 2))

        assert traced_peak(build_and_read) < 0.1 * 8 * self.n * self.d

    def test_synthetic_problem_holds_one_copy_of_the_samples(self):
        """One n x d array; its finiteness check reads a block of rows at a time."""
        peak = traced_peak(synth_problem, "logistic", n=self.n, d=self.d)
        assert peak < 1.15 * 8 * self.n * self.d

    def test_finiteness_check_allocates_a_block_of_rows(self):
        """Validating dense samples allocates far less than the n x d booleans
        (1/8 of 8 n d bytes) of a check over all of them at once."""
        raw = np.random.default_rng(0).standard_normal((self.n, self.d))
        labels = np.ones(self.n)
        assert traced_peak(Dataset, raw, labels) < 0.03 * 8 * self.n * self.d
        raw[-1, -1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(raw, labels)


class TestDatasetValidation:
    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            Dataset(features=sp.csr_matrix(np.eye(2)), labels=np.array([1.0, 2.0]))

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(features=sp.csr_matrix(np.eye(3)), labels=np.array([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected_in_either_layout(self, bad):
        features = np.eye(2)
        features[1, 0] = bad
        for layout in (features, sp.csr_matrix(features)):
            with pytest.raises(ValueError, match="non-finite"):
                Dataset(features=layout, labels=np.array([1.0, -1.0]))
