"""Tests for repro.utils.validation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.utils.validation import (
    ValidationError,
    check_in_range,
    check_known_keys,
    check_nonnegative,
    check_positive,
    check_rank_list,
    check_spd_sample,
    check_square,
    check_symmetric,
    check_tolerance,
)


class TestScalarChecks:
    def test_positive_ok(self):
        assert check_positive(1.5, "x") == 1.5

    @pytest.mark.parametrize("value", [0, -1, -0.001])
    def test_positive_rejects(self, value):
        with pytest.raises(ValidationError):
            check_positive(value, "x")

    def test_nonnegative_ok(self):
        assert check_nonnegative(0.0, "x") == 0.0

    def test_nonnegative_rejects(self):
        with pytest.raises(ValidationError):
            check_nonnegative(-1e-9, "x")

    @pytest.mark.parametrize("value", [0, 0.0, 1e-8, "1e-10",
                                       np.float32(0.5)])
    def test_tolerance_is_a_python_float(self, value):
        tolerance = check_tolerance(value, "rtol")
        assert type(tolerance) is float
        assert tolerance == float(value)

    @pytest.mark.parametrize("value", [-1e-9, np.inf, -np.inf, np.nan,
                                       "nan"])
    def test_tolerance_rejects(self, value):
        with pytest.raises(ValidationError,
                           match="rtol must be a finite non-negative"):
            check_tolerance(value, "rtol")

    def test_in_range_inclusive(self):
        assert check_in_range(0.0, 0.0, 1.0, "x") == 0.0
        assert check_in_range(1.0, 0.0, 1.0, "x") == 1.0

    def test_in_range_exclusive(self):
        with pytest.raises(ValidationError):
            check_in_range(0.0, 0.0, 1.0, "x", inclusive=False)

    def test_in_range_rejects_outside(self):
        with pytest.raises(ValidationError):
            check_in_range(1.5, 0.0, 1.0, "x")

    def test_error_message_contains_name(self):
        with pytest.raises(ValidationError, match="my_parameter"):
            check_positive(-1, "my_parameter")


class TestMatrixChecks:
    def test_square_ok(self):
        check_square(sp.identity(5))

    def test_square_rejects_rectangular(self):
        with pytest.raises(ValidationError):
            check_square(sp.csr_matrix(np.ones((3, 4))))

    def test_symmetric_ok(self):
        a = sp.random(20, 20, density=0.2, random_state=0)
        check_symmetric(a + a.T)

    def test_symmetric_rejects(self):
        a = sp.csr_matrix(np.triu(np.ones((5, 5))))
        with pytest.raises(ValidationError):
            check_symmetric(a)

    def test_spd_sample_accepts_spd(self):
        a = sp.identity(30) * 2.0
        check_spd_sample(a)

    def test_spd_sample_rejects_negative_definite(self):
        a = -sp.identity(30)
        with pytest.raises(ValidationError):
            check_spd_sample(a)

    def test_spd_sample_rejects_nonsymmetric(self):
        a = sp.csr_matrix(np.triu(np.ones((10, 10))) + 5 * np.eye(10))
        with pytest.raises(ValidationError):
            check_spd_sample(a)


class TestRankList:
    def test_valid(self):
        assert check_rank_list([0, 2, 3], 4) == [0, 2, 3]

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            check_rank_list([1, 1], 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            check_rank_list([0, 4], 4)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            check_rank_list([-1], 4)


class TestKnownKeys:
    def test_known_keys_pass(self):
        check_known_keys({"a": 1}, ("a", "b"), "Thing")
        check_known_keys({}, iter(["a"]), "Thing")

    def test_unknown_keys_named_sorted_with_the_known_ones(self):
        with pytest.raises(ValidationError) as excinfo:
            check_known_keys({"z": 0, "c": 1, "a": 2}, iter(["b", "a"]),
                             "Thing")
        assert str(excinfo.value) == (
            "unknown Thing keys ['c', 'z']; known keys: ['a', 'b']")
