"""Meta diagram proximity (Definition 6).

Given the instance-count matrix ``M`` of a meta structure, the proximity
between ``u_i`` (left) and ``u_j`` (right) is the Dice-style ratio

    s(i, j) = 2 * M[i, j] / (rowsum(M)[i] + colsum(M)[j]),

which rewards many connecting instances while penalizing promiscuous
users with many instances to *anyone*.  Scores live in ``[0, 1]`` and are
``0`` when the denominator vanishes (neither user touches the structure).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_sample_values

from repro.exceptions import FeatureError


class ProximityMatrix:
    """Lazy proximity lookup over one count matrix.

    Parameters
    ----------
    counts:
        |U1| x |U2| sparse instance-count matrix of one meta structure.

    Notes
    -----
    Row/column sums are precomputed; individual scores are evaluated on
    demand so extracting features for a candidate subset of H never
    densifies the full matrix.
    """

    def __init__(self, counts: sparse.csr_matrix) -> None:
        if counts.ndim != 2:
            raise FeatureError("count matrix must be two-dimensional")
        self._counts = counts.tocsr()
        self._counts.sort_indices()
        self._row_sums = np.asarray(counts.sum(axis=1)).ravel()
        self._col_sums = np.asarray(counts.sum(axis=0)).ravel()
        # Row-major linearized keys of the stored entries.  Scipy's CSR
        # fancy indexing walks entries one by one in Python; a single
        # searchsorted over these (sorted) keys serves batch lookups —
        # the hot path of feature extraction — in vectorized time.
        n_cols = self._counts.shape[1]
        row_lengths = np.diff(self._counts.indptr)
        self._entry_keys = (
            np.repeat(
                np.arange(self._counts.shape[0], dtype=np.int64), row_lengths
            )
            * n_cols
            + self._counts.indices
        )

    def _values_at(
        self, left_indices: np.ndarray, right_indices: np.ndarray
    ) -> np.ndarray:
        """Stored count values at (i, j) positions, zeros where absent."""
        return csr_values_at(
            self._counts,
            left_indices,
            right_indices,
            entry_keys=self._entry_keys,
        )

    @property
    def shape(self):
        """Shape of the underlying count matrix."""
        return self._counts.shape

    def score(self, i: int, j: int) -> float:
        """Proximity of left user ``i`` and right user ``j``."""
        denominator = self._row_sums[i] + self._col_sums[j]
        if denominator == 0:
            return 0.0
        return float(2.0 * self._counts[i, j] / denominator)

    def scores(self, left_indices: np.ndarray, right_indices: np.ndarray) -> np.ndarray:
        """Vectorized proximity for parallel index arrays.

        Parameters
        ----------
        left_indices, right_indices:
            Equal-length integer arrays selecting (i, j) pairs.
        """
        left_indices = np.asarray(left_indices, dtype=np.int64)
        right_indices = np.asarray(right_indices, dtype=np.int64)
        if left_indices.shape != right_indices.shape:
            raise FeatureError("index arrays must have equal shape")
        if left_indices.size == 0:
            return np.zeros(0, dtype=np.float64)
        counts = self._values_at(left_indices, right_indices)
        denominators = self._row_sums[left_indices] + self._col_sums[right_indices]
        return dice_scores(counts, denominators)

    def dense(self) -> np.ndarray:
        """Full dense proximity matrix (small networks / diagnostics only)."""
        counts = np.asarray(self._counts.todense(), dtype=np.float64)
        denominators = self._row_sums[:, None] + self._col_sums[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.where(denominators > 0, 2.0 * counts / denominators, 0.0)
        return scores


def dice_proximity(counts: sparse.csr_matrix) -> ProximityMatrix:
    """Build a :class:`ProximityMatrix` from raw instance counts."""
    return ProximityMatrix(counts)


def dice_scores(
    values: np.ndarray, denominators: np.ndarray
) -> np.ndarray:
    """The Dice ratio ``2 v / d`` with the zero-denominator guard.

    Single home of the proximity formula (Definition 6); every scoring
    path — :meth:`ProximityMatrix.scores` and the incremental session's
    view scoring — must go through it so they stay bit-identical.
    """
    scores = np.zeros_like(denominators, dtype=np.float64)
    nonzero = denominators > 0
    scores[nonzero] = 2.0 * values[nonzero] / denominators[nonzero]
    return scores


def csr_values_at(
    matrix: sparse.csr_matrix,
    rows: np.ndarray,
    cols: np.ndarray,
    query_keys: Optional[np.ndarray] = None,
    entry_keys: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Batch-read ``matrix[rows[k], cols[k]]`` values, zeros where absent.

    ``query_keys`` may carry precomputed ``rows * n_cols + cols`` keys
    (the incremental engine caches them per candidate view), and
    ``entry_keys`` the matrix's precomputed sorted linearized keys
    (:class:`ProximityMatrix` caches them); both are built on the fly
    when absent.
    """
    matrix = matrix.tocsr()
    n_cols = matrix.shape[1]
    if entry_keys is None:
        matrix.sort_indices()
        row_lengths = np.diff(matrix.indptr)
        entry_keys = (
            np.repeat(np.arange(matrix.shape[0], dtype=np.int64), row_lengths)
            * n_cols
            + matrix.indices
        )
    if query_keys is None:
        query_keys = np.asarray(rows, dtype=np.int64) * n_cols + np.asarray(
            cols, dtype=np.int64
        )
    positions = np.searchsorted(entry_keys, query_keys)
    values = np.zeros(query_keys.size, dtype=np.float64)
    inside = positions < entry_keys.size
    hits = inside.copy()
    hits[inside] = entry_keys[positions[inside]] == query_keys[inside]
    values[hits] = matrix.data[positions[hits]]
    return values


def csr_lookup(
    matrix: sparse.csr_matrix, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Batch-read ``matrix[rows[k], cols[k]]`` as float64, zeros where absent.

    Runs scipy's compiled per-row sample kernel — the one behind
    ``matrix[rows, cols]`` — without the Python-level index handling:
    each probe searches only its own row of the CSR matrix, so no
    per-matrix keys are built and the matrix is never mutated (safe on
    matrices shared across threads).  Positions must lie inside
    ``matrix.shape``.
    """
    index_dtype = matrix.indices.dtype
    rows = np.asarray(rows).astype(index_dtype, copy=False)
    cols = np.asarray(cols).astype(index_dtype, copy=False)
    n_rows, n_cols = matrix.shape
    if rows.size and (
        rows.min() < 0
        or cols.min() < 0
        or rows.max() >= n_rows
        or cols.max() >= n_cols
    ):
        raise IndexError(f"lookup position outside a {matrix.shape} matrix")
    values = np.empty(rows.size, dtype=matrix.data.dtype)
    csr_sample_values(
        n_rows,
        n_cols,
        matrix.indptr,
        matrix.indices,
        matrix.data,
        rows.size,
        rows,
        cols,
        values,
    )
    return values.astype(np.float64, copy=False)
