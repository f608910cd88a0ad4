"""Tests for repro.meta.proximity.csr_lookup, the kernel-backed probe.

``csr_lookup`` calls scipy's compiled ``csr_sample_values`` directly.
There is deliberately no fallback: if a scipy release drops or changes
the kernel, these tests fail instead of the delta algebra silently
slowing down or reading wrong values.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.meta.algebra import pad_csr
from repro.meta.proximity import csr_lookup, csr_values_at


def _canonical(rng, shape, density, negative=False, empty_rows=()):
    dense = rng.integers(1, 6, size=shape).astype(np.float64)
    dense[rng.random(shape) >= density] = 0.0
    if negative:
        dense[rng.random(shape) < 0.5] *= -1.0
    dense[list(empty_rows), :] = 0.0
    matrix = sparse.csr_matrix(dense)
    assert matrix.has_canonical_format
    return matrix, dense


def _with_index_dtype(matrix, dtype):
    matrix.indices = matrix.indices.astype(dtype)
    matrix.indptr = matrix.indptr.astype(dtype)
    assert matrix.indices.dtype == dtype and matrix.indptr.dtype == dtype
    return matrix


def _probes(rng, shape, n):
    return (
        rng.integers(0, shape[0], size=n, dtype=np.int64),
        rng.integers(0, shape[1], size=n, dtype=np.int64),
    )


def _assert_matches(matrix, dense, rows, cols):
    values = csr_lookup(matrix, rows, cols)
    assert values.dtype == np.float64
    assert values.shape == (len(rows),)
    assert np.array_equal(values, dense[rows, cols])
    expected = csr_values_at(matrix.copy(), rows, cols)
    assert np.array_equal(values, expected)
    return values


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("negative", [False, True])
def test_matches_reference_and_dense(seed, index_dtype, negative):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(20, 60)), int(rng.integers(20, 60)))
    matrix, dense = _canonical(
        rng, shape, density=0.15, negative=negative, empty_rows=(0, 3)
    )
    matrix = _with_index_dtype(matrix, index_dtype)
    rows, cols = _probes(rng, shape, 300)
    # Probe every stored entry too, so hits and misses are both common.
    stored = matrix.tocoo()
    rows = np.concatenate([rows, stored.row.astype(np.int64)])
    cols = np.concatenate([cols, stored.col.astype(np.int64)])
    values = _assert_matches(matrix, dense, rows, cols)
    assert (values != 0).any() and (values == 0).any()
    if negative:
        assert (values < 0).any()


@pytest.mark.parametrize("query_dtype", [np.int32, np.int64, np.intp])
def test_query_dtypes_and_strides(query_dtype):
    rng = np.random.default_rng(5)
    matrix, dense = _canonical(rng, (30, 40), density=0.2)
    rows, cols = _probes(rng, (30, 40), 100)
    rows, cols = rows.astype(query_dtype), cols.astype(query_dtype)
    _assert_matches(matrix, dense, rows, cols)
    _assert_matches(matrix, dense, rows[::3], cols[::3])


def test_empty_rows_and_all_empty_matrix():
    rng = np.random.default_rng(7)
    matrix, dense = _canonical(
        rng, (12, 9), density=0.4, empty_rows=range(0, 12, 2)
    )
    rows, cols = _probes(rng, (12, 9), 200)
    _assert_matches(matrix, dense, rows, cols)

    empty = sparse.csr_matrix((6, 4))
    rows, cols = _probes(rng, (6, 4), 50)
    assert np.array_equal(csr_lookup(empty, rows, cols), np.zeros(50))


def test_empty_query():
    matrix, _ = _canonical(np.random.default_rng(8), (5, 5), density=0.5)
    none = np.zeros(0, dtype=np.int64)
    values = csr_lookup(matrix, none, none)
    assert values.dtype == np.float64 and values.shape == (0,)
    assert csr_lookup(sparse.csr_matrix((0, 0)), none, none).shape == (0,)


def test_padded_matrix():
    rng = np.random.default_rng(9)
    matrix, dense = _canonical(rng, (15, 10), density=0.3, negative=True)
    padded = pad_csr(matrix, (22, 17))
    grown = np.zeros((22, 17))
    grown[:15, :10] = dense
    rows, cols = _probes(rng, (22, 17), 300)
    _assert_matches(padded, grown, rows, cols)


def test_never_mutates_the_matrix():
    """Unsorted rows are read correctly and left as they are."""
    data = np.array([3.0, 1.0, 2.0, -4.0])
    indices = np.array([2, 0, 3, 1], dtype=np.int32)
    indptr = np.array([0, 2, 2, 4], dtype=np.int32)
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(3, 4))
    matrix.has_sorted_indices = False
    before = (matrix.data.copy(), matrix.indices.copy())
    rows = np.array([0, 0, 0, 1, 2, 2, 2], dtype=np.int64)
    cols = np.array([2, 0, 1, 3, 3, 1, 0], dtype=np.int64)
    values = csr_lookup(matrix, rows, cols)
    assert np.array_equal(values, matrix.toarray()[rows, cols])
    assert np.array_equal(matrix.data, before[0])
    assert np.array_equal(matrix.indices, before[1])
    assert not matrix.has_sorted_indices


@pytest.mark.parametrize(
    "rows, cols",
    [([0, 5], [0, 0]), ([0, 0], [0, 4]), ([-1], [0]), ([0], [-1])],
)
def test_positions_outside_the_shape_raise(rows, cols):
    matrix, _ = _canonical(np.random.default_rng(10), (5, 4), density=0.5)
    with pytest.raises(IndexError, match="outside"):
        csr_lookup(matrix, np.array(rows), np.array(cols))
