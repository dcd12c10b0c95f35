"""Tests for exact Q(sqrt2) arithmetic and the scalar helpers."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bellgate.scalar import (
    FLOAT_TOLERANCE,
    HALF_SQRT2,
    ONE,
    SQRT2,
    ZERO,
    ExactScalar,
    MixedBackendError,
    compare,
    ensure_same_backend,
    field,
    is_exact,
    is_zero,
    scalar_from_json,
    scalar_to_json,
    sign,
    to_float,
)


def exact(a, b=0):
    return ExactScalar(Fraction(a), Fraction(b))


def random_exact(rng, bound=12):
    return ExactScalar(
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound)),
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound)),
    )


class TestArithmetic:
    def test_sqrt2_squares_to_two(self):
        assert SQRT2 * SQRT2 == exact(2)

    def test_born_pair_sums_to_one(self):
        # (2 + sqrt2)/4 and (2 - sqrt2)/4 are the canonical Born pair
        high = ExactScalar(Fraction(1, 2), Fraction(1, 4))
        low = ExactScalar(Fraction(1, 2), Fraction(-1, 4))
        assert high + low == ONE

    def test_inverse_of_one_plus_sqrt2(self):
        value = ONE + SQRT2
        inverse = ONE / value
        assert inverse == exact(-1, 1)
        assert value * inverse == ONE

    def test_subtraction_and_negation(self):
        x = exact(3, -2)
        assert x - x == ZERO
        assert -x == exact(-3, 2)
        assert 1 - SQRT2 == exact(1, -1)

    def test_int_and_fraction_coercion(self):
        assert 1 + SQRT2 == exact(1, 1)
        assert Fraction(1, 2) * SQRT2 == HALF_SQRT2
        assert SQRT2 / 2 == HALF_SQRT2
        assert 2 / SQRT2 == SQRT2

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_float_operand_raises(self):
        with pytest.raises(MixedBackendError):
            SQRT2 + 0.5
        with pytest.raises(MixedBackendError):
            0.5 * SQRT2
        with pytest.raises(MixedBackendError):
            SQRT2 < 0.5

    def test_field_axioms_random(self):
        rng = random.Random(20240901)
        for _ in range(200):
            x = random_exact(rng)
            y = random_exact(rng)
            z = random_exact(rng)
            assert x + y == y + x
            assert x * y == y * x
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            if not x.is_zero():
                assert x * x.inverse() == ONE
                assert (y / x) * x == y

    def test_arithmetic_matches_float_random(self):
        rng = random.Random(20240902)
        for _ in range(200):
            x = random_exact(rng)
            y = random_exact(rng)
            assert math.isclose(to_float(x + y), to_float(x) + to_float(y),
                                rel_tol=0, abs_tol=1e-9)
            assert math.isclose(to_float(x * y), to_float(x) * to_float(y),
                                rel_tol=0, abs_tol=1e-7)


class TestOrdering:
    def test_sign_same_component_signs(self):
        assert exact(1, 1).sign() == 1
        assert exact(-1, -1).sign() == -1
        assert exact(0, 0).sign() == 0
        assert exact(3, 0).sign() == 1
        assert exact(0, -2).sign() == -1

    def test_sign_opposite_component_signs(self):
        # 3 - 2*sqrt2 > 0 because 9 > 8
        assert exact(3, -2).sign() == 1
        assert exact(-3, 2).sign() == -1
        # 1 - sqrt2 < 0 because 1 < 2
        assert exact(1, -1).sign() == -1
        assert exact(-1, 1).sign() == 1
        # 7 - 5*sqrt2 < 0 because 49 < 50
        assert exact(7, -5).sign() == -1
        assert exact(-7, 5).sign() == 1

    def test_compare_born_value_against_three_quarters(self):
        high = ExactScalar(Fraction(1, 2), Fraction(1, 4))
        assert compare(high, ExactScalar.from_rational(Fraction(3, 4))) == 1

    def test_ordering_matches_float_random(self):
        rng = random.Random(20240903)
        for _ in range(300):
            x = random_exact(rng)
            y = random_exact(rng)
            approx_gap = to_float(x) - to_float(y)
            if abs(approx_gap) > 1e-6:
                want = 1 if approx_gap > 0 else -1
                assert compare(x, y) == want
                assert (x > y) == (want == 1)
                assert (x < y) == (want == -1)

    def test_sorting(self):
        values = [SQRT2, ZERO, ONE, exact(1, -1), exact(3, -2)]
        ordered = sorted(values)
        assert ordered == [exact(1, -1), ZERO, exact(3, -2), ONE, SQRT2]

    def test_sign_near_zero_float(self):
        assert sign(0.5 * FLOAT_TOLERANCE) == 0
        assert sign(-0.5 * FLOAT_TOLERANCE) == 0
        assert sign(2.0 * FLOAT_TOLERANCE) == 1
        assert sign(-2.0 * FLOAT_TOLERANCE) == -1
        assert is_zero(1e-12)
        assert not is_zero(1e-6)


class TestBackends:
    def test_ensure_same_backend(self):
        assert ensure_same_backend(ONE, SQRT2) is True
        assert ensure_same_backend(0.5, 1.5) is False
        with pytest.raises(MixedBackendError):
            ensure_same_backend(ONE, 0.5)

    def test_compare_mixed_raises(self):
        with pytest.raises(MixedBackendError):
            compare(ONE, 1.0)

    def test_field(self):
        assert field(True) == (ZERO, ExactScalar(Fraction(1, 2), 0), ONE)
        assert all(is_exact(v) for v in field(True))
        assert field(False) == (0.0, 0.5, 1.0)
        assert all(type(v) is float for v in field(False))
        assert is_exact(SQRT2) and not is_exact(2.5)

    def test_float_compare(self):
        assert compare(0.25, 0.75) == -1
        assert compare(0.75, 0.25) == 1
        assert compare(0.5, 0.5 + 1e-12) == 0


class TestConversion:
    def test_to_float_canonical_born_values(self):
        high = ExactScalar(Fraction(1, 2), Fraction(1, 4))
        low = ExactScalar(Fraction(1, 2), Fraction(-1, 4))
        assert abs(to_float(high) - 0.8535533905932737) < 1e-12
        assert abs(to_float(low) - 0.14644660940672624) < 1e-12

    def test_to_float_passthrough(self):
        assert to_float(0.375) == 0.375

    def test_str_and_repr(self):
        assert str(exact(1, -1)) == "1 - 1*sqrt2"
        assert str(exact(0, Fraction(1, 2))) == "1/2*sqrt2"
        assert str(exact(Fraction(3, 4))) == "3/4"
        assert eval(repr(exact(3, -2))) == exact(3, -2)


class TestJson:
    def test_exact_round_trip(self):
        value = ExactScalar(Fraction(1, 2), Fraction(-1, 4))
        blob = scalar_to_json(value)
        assert blob["a"] == "1/2"
        assert blob["b"] == "-1/4"
        assert abs(blob["approx"] - to_float(value)) < 1e-12
        assert scalar_from_json(blob) == value

    def test_float_round_trip(self):
        assert scalar_to_json(0.25) == 0.25
        assert scalar_from_json(0.25, mode="float") == 0.25

    def test_exact_parse_of_strings_and_ints(self):
        assert scalar_from_json("3/4") == ExactScalar.from_rational(Fraction(3, 4))
        assert scalar_from_json(2) == exact(2)

    def test_float_mode_collapses_exact(self):
        blob = scalar_to_json(SQRT2)
        parsed = scalar_from_json(blob, mode="float")
        assert isinstance(parsed, float)
        assert abs(parsed - math.sqrt(2)) < 1e-12

    def test_exact_mode_rejects_floats(self):
        with pytest.raises(MixedBackendError):
            scalar_from_json(0.25, mode="exact")

    def test_rejects_bool_and_bad_mode(self):
        with pytest.raises(TypeError):
            scalar_from_json(True)
        with pytest.raises(ValueError):
            scalar_from_json(2, mode="gibberish")

    @settings(derandomize=True, max_examples=100, database=None)
    @given(a=st.fractions(-10**6, 10**6, max_denominator=10**6),
           b=st.fractions(-10**6, 10**6, max_denominator=10**6))
    def test_exact_round_trip_through_json_text(self, a, b):
        value = ExactScalar(a, b)
        text = json.dumps(scalar_to_json(value))
        assert scalar_from_json(json.loads(text)) == value

    @settings(derandomize=True, max_examples=100, database=None)
    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    def test_float_round_trip_through_json_text(self, value):
        text = json.dumps(scalar_to_json(value))
        parsed = scalar_from_json(json.loads(text), mode="float")
        assert type(parsed) is float and parsed == value

    def test_hashable_dict_key(self):
        table = {HALF_SQRT2: "half"}
        assert table[SQRT2 / 2] == "half"
