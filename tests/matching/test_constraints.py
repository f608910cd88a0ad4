"""Tests for repro.matching.constraints."""

import numpy as np
import pytest

from repro.exceptions import ConstraintViolationError
from repro.matching.constraints import (
    assert_one_to_one,
    conflicting_indices,
    degree_vectors,
    incidence_matrices,
    satisfies_one_to_one,
    user_codes,
)

PAIRS = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"), ("c", "z")]


class TestIncidenceMatrices:
    def test_shapes(self):
        A1, A2, left_users, right_users = incidence_matrices(PAIRS)
        assert A1.shape == (3, 5)  # users a, b, c
        assert A2.shape == (3, 5)  # users x, y, z
        assert left_users == ["a", "b", "c"]
        assert right_users == ["x", "y", "z"]

    def test_entries(self):
        A1, A2, left_users, right_users = incidence_matrices(PAIRS)
        # Candidate 0 = (a, x): row of 'a' in A1, row of 'x' in A2.
        assert A1[left_users.index("a"), 0] == 1
        assert A2[right_users.index("x"), 0] == 1
        assert A1[left_users.index("c"), 0] == 0

    def test_every_column_sums_to_one_per_matrix(self):
        A1, A2, _, _ = incidence_matrices(PAIRS)
        assert np.all(np.asarray(A1.sum(axis=0)).ravel() == 1)
        assert np.all(np.asarray(A2.sum(axis=0)).ravel() == 1)


class TestDegreeVectors:
    def test_degrees_match_definition(self):
        labels = np.array([1, 0, 0, 1, 1])
        d1, d2 = degree_vectors(PAIRS, labels)
        assert d1.tolist() == [1, 1, 1]  # a, b, c
        assert d2.tolist() == [1, 1, 1]  # x, y, z

    def test_length_mismatch(self):
        with pytest.raises(ConstraintViolationError):
            degree_vectors(PAIRS, np.ones(3))


class TestOneToOneValidation:
    def test_valid_selection(self):
        labels = np.array([1, 0, 0, 1, 1])
        assert satisfies_one_to_one(PAIRS, labels)
        assert_one_to_one(PAIRS, labels)

    def test_left_violation_detected(self):
        labels = np.array([1, 1, 0, 0, 0])  # 'a' used twice
        assert not satisfies_one_to_one(PAIRS, labels)
        with pytest.raises(ConstraintViolationError, match="violated"):
            assert_one_to_one(PAIRS, labels)

    def test_right_violation_detected(self):
        labels = np.array([1, 0, 1, 0, 0])  # 'x' used twice
        assert not satisfies_one_to_one(PAIRS, labels)

    def test_empty_selection_valid(self):
        assert satisfies_one_to_one(PAIRS, np.zeros(5))


class TestConflictingIndices:
    def test_shared_endpoints(self):
        conflicts = conflicting_indices(PAIRS)
        # (a,x) conflicts with (a,y) via 'a' and (b,x) via 'x'.
        assert conflicts[0] == [1, 2]
        # (c,z) conflicts with nothing.
        assert conflicts[4] == []

    def test_symmetry(self):
        conflicts = conflicting_indices(PAIRS)
        for i, neighbors in enumerate(conflicts):
            for j in neighbors:
                assert i in conflicts[j]


class TestUserCodes:
    def test_first_appearance_order(self):
        left, right = user_codes([("b", "y"), ("a", "x"), ("b", "z")])
        assert left.tolist() == [0, 1, 0]
        assert right.tolist() == [0, 1, 2]
        assert left.dtype == right.dtype == np.int64

    def test_shared_users_share_codes(self):
        left, right = user_codes(PAIRS)
        conflicts = conflicting_indices(PAIRS)
        for i in range(len(PAIRS)):
            sharing = np.flatnonzero((left == left[i]) | (right == right[i]))
            assert sorted(set(sharing.tolist()) - {i}) == conflicts[i]

    def test_sides_are_numbered_separately(self):
        left, right = user_codes([("a", "a"), ("b", "a")])
        assert left.tolist() == [0, 1]
        assert right.tolist() == [0, 0]

    def test_empty(self):
        left, right = user_codes([])
        assert left.shape == right.shape == (0,)
        assert left.dtype == right.dtype == np.int64
