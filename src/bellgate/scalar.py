"""Exact arithmetic in the ordered field Q(sqrt2), plus a float backend.

Every probability in the canonical planar scenario has the form a + b*sqrt(2)
with rational a, b.  ``ExactScalar`` stores that pair and does field arithmetic
and sign decisions without ever touching floating point, so LP pivoting stays
exact.  The float backend is plain ``float`` with a fixed absolute tolerance;
the helpers at module level (``sign``, ``compare``, ``is_zero``, ...) give the
solver one code path over both backends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

#: Absolute tolerance for all float-backend comparisons.
FLOAT_TOLERANCE = 1e-9

_SQRT2 = math.sqrt(2.0)


class MixedBackendError(TypeError):
    """Raised when exact and float values meet in one arithmetic expression."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot build an exact rational from {value!r}")


@dataclass(frozen=True, slots=True)
class ExactScalar:
    """The number a + b*sqrt(2) with rational a, b.

    The representation is unique (sqrt(2) is irrational), so equality is
    componentwise and hashing is safe.  Arithmetic with ``int`` and
    ``Fraction`` coerces; arithmetic with ``float`` raises
    :class:`MixedBackendError` so exact computations cannot silently degrade.
    """

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _as_fraction(self.a))
        object.__setattr__(self, "b", _as_fraction(self.b))

    @classmethod
    def from_rational(cls, value) -> ExactScalar:
        return cls(_as_fraction(value), Fraction(0))

    @staticmethod
    def _coerce(other):
        if isinstance(other, ExactScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactScalar(_as_fraction(other), Fraction(0))
        if isinstance(other, float):
            raise MixedBackendError(
                "cannot mix float values into exact arithmetic"
            )
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ExactScalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is int:
            return ExactScalar(self.a - other, self.b)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ExactScalar(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return ExactScalar(-self.a, -self.b)

    def __bool__(self):
        return bool(self.a or self.b)

    def __mul__(self, other):
        if type(other) is int:
            return ExactScalar(self.a * other, self.b * other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ExactScalar(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> ExactScalar:
        """Multiplicative inverse via the conjugate a - b*sqrt(2)."""
        norm = self.a * self.a - 2 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero ExactScalar")
        return ExactScalar(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        if type(other) is int:
            return ExactScalar(self.a / other, self.b / other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def sign(self) -> int:
        return pair_sign(self.a, self.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __lt__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def __le__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() <= 0

    def __gt__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() > 0

    def __ge__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() >= 0

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __float__(self):
        return float(self.a) + float(self.b) * _SQRT2

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt2"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt2"

    def __repr__(self):
        return f"ExactScalar({self.a!r}, {self.b!r})"


def pair_sign(a, b) -> int:
    """Exact sign of a + b*sqrt(2) for rational (int or Fraction) a, b.

    Same-sign components settle it directly; opposite signs reduce to
    comparing a^2 against 2*b^2 (a^2 = 2*b^2 with both nonzero would make
    sqrt(2) rational, so it cannot occur).
    """
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    return sa if a * a > 2 * b * b else sb


ZERO = ExactScalar(Fraction(0), Fraction(0))
ONE = ExactScalar(Fraction(1), Fraction(0))
HALF = ExactScalar(Fraction(1, 2), Fraction(0))
SQRT2 = ExactScalar(Fraction(0), Fraction(1))
HALF_SQRT2 = ExactScalar(Fraction(0), Fraction(1, 2))

#: A scalar is either an ExactScalar or a plain float; backends never mix.
Scalar = Union[ExactScalar, float]


def is_exact(x: Scalar) -> bool:
    return isinstance(x, ExactScalar)


def ensure_same_backend(*values: Scalar) -> bool:
    """Return True if all values are exact, False if all float; raise on a mix."""
    kinds = {isinstance(v, ExactScalar) for v in values}
    if len(kinds) > 1:
        raise MixedBackendError("exact and float scalars in one operation")
    return kinds.pop() if kinds else True


def sign(x: Scalar) -> int:
    """-1, 0 or +1.  Exact scalars use the symbolic rule, ints and Fractions
    their own comparisons; only floats use FLOAT_TOLERANCE."""
    if isinstance(x, ExactScalar):
        return x.sign()
    if not x or isinstance(x, float) and abs(x) <= FLOAT_TOLERANCE:
        return 0
    return 1 if x > 0 else -1


def is_zero(x: Scalar) -> bool:
    return sign(x) == 0


def compare(x: Scalar, y: Scalar) -> int:
    """Sign of x - y (-1 less, 0 equal, +1 greater); x - y raises
    MixedBackendError when exact and float values meet."""
    return sign(x - y)


def field(exact: bool) -> tuple[Scalar, Scalar, Scalar]:
    """The backend's (zero, half, one): ExactScalars, or floats."""
    return (ZERO, HALF, ONE) if exact else (0.0, 0.5, 1.0)


def to_float(x: Scalar) -> float:
    """Nearest double, for display and serialization only."""
    return float(x)


def scalar_to_json(x: Scalar):
    """ExactScalar -> {"a": "p/q", "b": "r/s", "approx": float}; float -> number."""
    if isinstance(x, ExactScalar):
        return {"a": str(x.a), "b": str(x.b), "approx": to_float(x)}
    return float(x)


def scalar_from_json(value, mode: str = "exact") -> Scalar:
    """Parse a scalar from its JSON form.

    Exact mode accepts the {"a","b"} object, "p/q" strings and integers;
    plain non-integer numbers are rejected to keep the backend honest.  Float
    mode accepts any of these and collapses them to a double.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(value, dict):
        exact = ExactScalar(Fraction(str(value["a"])), Fraction(str(value["b"])))
        return exact if mode == "exact" else to_float(exact)
    if isinstance(value, str):
        exact = ExactScalar.from_rational(value)
        return exact if mode == "exact" else to_float(exact)
    if isinstance(value, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(value, int):
        return ExactScalar.from_rational(value) if mode == "exact" else float(value)
    if isinstance(value, float):
        if mode == "exact":
            raise MixedBackendError(
                f"float value {value!r} in an exact-mode document"
            )
        return value
    raise TypeError(f"cannot parse scalar from {value!r}")
