"""Dataset ingestion (LIBSVM text format), row normalization, synthetic problems.

Parsing is strict: every line is ``label idx:val idx:val ...`` with 1-based,
strictly usable feature indices, finite values and labels mappable to +-1
(0/1 or +-1).  Malformed input raises ``ValueError`` carrying the offending
line number.  ``parse_libsvm`` reads a path (gzip by ``.gz`` extension) or a
text stream; literal text arrives wrapped in ``io.StringIO``.

Features are a dense 2-D ndarray or a CSR matrix.  Parsed LIBSVM data is CSR;
synthetic Gaussian data is dense and never passes through CSR.
"""

from __future__ import annotations

import gzip
import logging
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .objectives import (_BLOCK_ROWS, LogisticObjective, QuadraticObjective, row_sums,
                         square_rows)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Dataset:
    """Row-major samples, a dense 2-D ndarray or CSR, with +-1 labels."""

    features: np.ndarray | sp.csr_matrix
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("label count does not match the sample count")
        f = self.features
        # dense samples a block of rows at a time: no n x d booleans
        blocks = [f.data] if sp.issparse(f) else (
            f[k:k + _BLOCK_ROWS] for k in range(0, f.shape[0], _BLOCK_ROWS))
        if not all(np.isfinite(block).all() for block in blocks):
            raise ValueError("features have non-finite entries")
        bad = np.setdiff1d(np.unique(self.labels), [-1.0, 1.0])
        if bad.size:
            raise ValueError(f"labels must be +-1, found {bad.tolist()}")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def row_norms(self) -> np.ndarray:
        f = self.features
        return np.sqrt(row_sums(f.multiply(f)) if sp.issparse(f) else square_rows(f))


def _map_label(token: str, lineno: int) -> float:
    try:
        raw = float(token)
    except ValueError:
        raise ValueError(f"line {lineno}: label {token!r} is not numeric") from None
    if raw == 1.0:
        return 1.0
    if raw in (-1.0, 0.0):
        return -1.0
    raise ValueError(f"line {lineno}: non-binary label {token!r}")


def parse_libsvm(source) -> Dataset:
    """Parse LIBSVM-formatted text into a Dataset.

    ``source`` is a path (``str`` or ``os.PathLike``; gzip when it ends in
    ``.gz``) or a text stream such as ``io.StringIO``; a missing path raises
    ``FileNotFoundError``.  The feature dimension is the maximal index.
    """
    if isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        with gzip.open(path, "rt") if path.endswith(".gz") else open(path) as stream:
            return parse_libsvm(stream)

    labels: list[float] = []
    data: list[float] = []
    indices: list[int] = []
    indptr: list[int] = [0]
    max_index = -1
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        labels.append(_map_label(tokens[0], lineno))
        seen: set[int] = set()
        for tok in tokens[1:]:
            try:
                idx_s, val_s = tok.split(":")
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ValueError(f"line {lineno}: malformed feature token {tok!r}") from None
            if not math.isfinite(val):
                raise ValueError(f"line {lineno}: non-finite feature value {tok!r}")
            if idx < 1:
                raise ValueError(f"line {lineno}: index {idx} is not 1-based")
            if idx - 1 in seen:
                raise ValueError(f"line {lineno}: duplicate feature index {idx}")
            seen.add(idx - 1)
            indices.append(idx - 1)
            data.append(val)
            max_index = max(max_index, idx - 1)
        indptr.append(len(indices))

    if not labels:
        raise ValueError("no samples found in input")
    features = sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int32), np.array(indptr)),
        shape=(len(labels), max_index + 1),
    )
    return Dataset(features=features, labels=np.array(labels))


def serialize_libsvm(ds: Dataset, stream) -> None:
    """Write a Dataset to a text stream as LIBSVM text; values use the shortest
    round-trip repr."""
    csr = sp.csr_matrix(ds.features, copy=True)
    csr.sort_indices()
    for row in range(ds.n_samples):
        parts = [f"{int(ds.labels[row]):+d}"]
        start, stop = csr.indptr[row], csr.indptr[row + 1]
        for k in range(start, stop):
            parts.append(f"{csr.indices[k] + 1}:{float(csr.data[k])!r}")
        stream.write(" ".join(parts) + "\n")


def _inverse_row_norms(ds: Dataset) -> np.ndarray:
    """1 / each row norm, and 1 for a zero row, which is left unscaled."""
    norms = ds.row_norms()
    n_zero = int(np.sum(norms == 0.0))
    if n_zero:
        logger.warning("normalize_rows: %d zero rows left unscaled", n_zero)
    return 1.0 / np.where(norms > 0.0, norms, 1.0)


def normalize_rows(ds: Dataset) -> Dataset:
    """Scale every nonzero row to unit Euclidean norm; zero rows stay zero."""
    inv = _inverse_row_norms(ds)
    if sp.issparse(ds.features):
        scaled = sp.csr_matrix(sp.diags(inv) @ ds.features)
    else:
        scaled = ds.features * inv[:, None]
    return Dataset(features=scaled, labels=ds.labels.copy())


def synth_logistic_dataset(n: int, d: int, seed: int) -> Dataset:
    """Gaussian samples, unit-normalized rows, random +-1 labels; dense features.

    The rows are scaled in place, bit for bit as ``normalize_rows`` scales
    them, so the build holds one n x d array and validates it once.
    """
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, d))
    ds = Dataset(features=raw, labels=rng.choice([-1.0, 1.0], size=n))
    raw *= _inverse_row_norms(ds)[:, None]
    return ds


def synth_problem(
    kind: str,
    d: int,
    n: int = 0,
    spectrum=None,
    mu: float = 1e-4,
    seed: int = 0,
    rotate: bool = True,
):
    """Build a synthetic objective.

    quadratic: ``spectrum`` is either a (lo, hi) pair expanded to a linear
    eigenvalue ramp or an explicit length-d eigenvalue array; ``rotate``
    conjugates by a seeded random orthogonal matrix.
    logistic: ``n`` Gaussian samples in dimension d, normalized, with
    regularization ``mu``.
    """
    if kind == "quadratic":
        if spectrum is None:
            raise ValueError("quadratic synthesis requires a spectrum")
        spectrum = np.asarray(spectrum, dtype=float)
        if spectrum.size == 2 and d != 2:
            eigs = np.linspace(spectrum[0], spectrum[1], d)
        elif spectrum.size == d:
            eigs = spectrum
        else:
            raise ValueError("spectrum must be (lo, hi) or length d")
        if np.min(eigs) <= 0:
            raise ValueError("spectrum must be strictly positive")
        if rotate:
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            return QuadraticObjective(q @ np.diag(eigs) @ q.T)
        return QuadraticObjective(eigs)
    if kind == "logistic":
        if n < 1:
            raise ValueError("logistic synthesis requires n >= 1")
        ds = synth_logistic_dataset(n, d, seed)
        return LogisticObjective(ds, reg_mu=mu)
    raise ValueError(f"unknown synthetic problem kind {kind!r}")
