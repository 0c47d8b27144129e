"""Unit tests for the shared validation helpers."""

import pytest

from repro._validate import (
    require_choice,
    require_int_in_range,
    require_nonnegative_int,
    require_positive_float,
    require_positive_int,
    require_probability,
)
from repro.errors import ConfigurationError


class TestRequirePositiveInt:
    def test_accepts_positive(self):
        assert require_positive_int(1, "x") == 1
        assert require_positive_int(10**9, "x") == 10**9

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ConfigurationError, match="x must be >= 1"):
            require_positive_int(0, "x")
        with pytest.raises(ConfigurationError):
            require_positive_int(-3, "x")

    def test_rejects_bool_and_float(self):
        with pytest.raises(ConfigurationError, match="must be an int"):
            require_positive_int(True, "x")
        with pytest.raises(ConfigurationError):
            require_positive_int(1.5, "x")

    def test_error_names_parameter(self):
        with pytest.raises(ConfigurationError, match="widget"):
            require_positive_int(0, "widget")


class TestRequireNonnegativeInt:
    def test_accepts_zero(self):
        assert require_nonnegative_int(0, "x") == 0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            require_nonnegative_int(-1, "x")

    def test_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            require_nonnegative_int(False, "x")


class TestRequireIntInRange:
    def test_bounds_inclusive(self):
        assert require_int_in_range(2, "x", 2, 5) == 2
        assert require_int_in_range(5, "x", 2, 5) == 5

    def test_outside_raises(self):
        with pytest.raises(ConfigurationError, match=r"\[2, 5\]"):
            require_int_in_range(6, "x", 2, 5)
        with pytest.raises(ConfigurationError):
            require_int_in_range(1, "x", 2, 5)


class TestRequireProbability:
    def test_accepts_bounds(self):
        assert require_probability(0.0, "p") == 0.0
        assert require_probability(1.0, "p") == 1.0
        assert require_probability(0.5, "p") == 0.5

    def test_coerces_int(self):
        assert require_probability(1, "p") == 1.0

    def test_rejects_outside(self):
        with pytest.raises(ConfigurationError):
            require_probability(1.01, "p")
        with pytest.raises(ConfigurationError):
            require_probability(-0.01, "p")

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            require_probability("half", "p")


class TestRequirePositiveFloat:
    def test_accepts(self):
        assert require_positive_float(0.25, "x") == 0.25
        assert require_positive_float(3, "x") == 3.0

    def test_rejects_zero_negative_inf_nan(self):
        for bad in [0.0, -1.0, float("inf"), float("nan")]:
            with pytest.raises(ConfigurationError):
                require_positive_float(bad, "x")


class TestRequireChoice:
    def test_accepts_member(self):
        assert require_choice("a", "x", ("a", "b")) == "a"

    def test_rejects_nonmember(self):
        with pytest.raises(ConfigurationError, match="'a', 'b'"):
            require_choice("c", "x", ("a", "b"))

