"""Dense simplex over exact or float scalars, with Farkas certificates.

Solves equality-constrained feasibility (find x >= 0 with Ax = b) by Phase-I
simplex on per-row artificial variables, and linear minimization by Phase-II
from the Phase-I basis.  Bland's rule is always on: these systems are tiny
and heavily degenerate, so anti-cycling matters more than pivot counts.  The
exact tableau is fraction-free, with int cells for a rational A, so "optimum
is zero" and "certificate is valid" are decided without rounding.

Nothing returned here is trusted: feasible points and Farkas certificates are
re-verified by the independent checks at the bottom of this module before the
solver hands them out.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

from .scalar import (ONE, ZERO, ExactScalar, MixedBackendError, Scalar,
                     pair_sign, sign)

#: Pivot-count ceiling; Bland's rule terminates long before this on any
#: problem this library builds, so hitting it means a broken invariant.
MAX_PIVOTS = 200000


class DimensionMismatch(ValueError):
    """Matrix and right-hand side shapes disagree."""


class CyclingDetected(RuntimeError):
    """Internal invariant breach: pivot ceiling hit or output failed audit."""


class Unbounded(RuntimeError):
    """The minimization objective decreases without bound."""


class InfeasibleProblem(RuntimeError):
    """Minimization was asked on an infeasible system; carries the certificate."""

    def __init__(self, certificate: "FarkasCertificate"):
        super().__init__("constraint system is infeasible")
        self.certificate = certificate


class FarkasCertificate(NamedTuple):
    """Row multipliers y proving Ax = b, x >= 0 unsatisfiable.

    Validity means y^T A <= 0 componentwise while y^T b > 0; any x >= 0 with
    Ax = b would force the contradiction 0 < y^T b = y^T A x <= 0.
    """

    y: Tuple[Scalar, ...]


class LPResult(NamedTuple):
    """Outcome of a feasibility solve: a point or a certificate, never both."""

    status: str  # "feasible" | "infeasible"
    x: Optional[Tuple[Scalar, ...]] = None
    certificate: Optional[FarkasCertificate] = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def _normalize(A: Sequence[Sequence[Scalar]], b: Sequence[Scalar]):
    """Copy inputs, coerce int/Fraction entries, and pick one backend.

    The backend is float when any entry is a float, exact otherwise; mixing
    floats with ExactScalars raises.  Returns (rows, rhs, backend zero,
    column count).
    """
    if len(A) != len(b):
        raise DimensionMismatch(
            f"{len(A)} constraint rows but {len(b)} right-hand sides")
    if any(len(row) != len(A[0]) for row in A):
        raise DimensionMismatch("ragged constraint matrix")
    kinds = {type(v) for row in A for v in row} | set(map(type, b))
    has_float = any(issubclass(kind, float) for kind in kinds)
    if has_float and ExactScalar in kinds:
        raise MixedBackendError("constraint system mixes exact and float entries")

    def coerce(v):
        if isinstance(v, (ExactScalar, float)):
            return v
        if isinstance(v, (int, Fraction)):
            return float(v) if has_float else ExactScalar.from_rational(v)
        raise TypeError(f"unsupported matrix entry {v!r}")

    rows = [[coerce(v) for v in row] for row in A]
    return (rows, [coerce(v) for v in b], 0.0 if has_float else ZERO,
            len(rows[0]) if rows else 0)


class Tableau:
    """Simplex tableau: constraint rows with rhs, a reduced-cost row, a basis.

    rows[i] has one entry per structural column plus the rhs.  The objective
    row stores reduced costs c_j - z_j with -c.x as its rhs, so a pivot
    updates it like any other row.  Int cells (rational A) keep a rhs
    r + s*sqrt2 as two int columns r*d, s*d (`split`).  Cells are stored
    times `scale` > 0, the last exact pivot (Bareiss 1968).
    """

    def __init__(self, rows, basis, cost, scale, d=1):
        self.rows = rows
        self.basis = basis
        self.scale = scale
        self.d = d
        self.split = type(scale) is int
        self.pivots = 0
        self.objective = out = [scale * c for c in cost]
        out += [scale * 0] * (1 + self.split)
        for i, row in enumerate(rows):
            weight = cost[basis[i]]
            if sign(weight) != 0:
                for j, v in enumerate(row):
                    if v:
                        out[j] = out[j] - weight * v

    def pivot(self, row_index: int, col: int):
        rows = self.rows
        pivot_row = rows[row_index]
        head = pivot_row[col]
        scale = self.scale
        if type(scale) is not int:
            # float or Q(sqrt2) cells: a field, so divide by the head
            if head != 1:
                pivot_row = rows[row_index] = [v / head for v in pivot_row]
            head = scale
        elif head < 0:
            # a negated row keeps the new common denominator positive
            head = -head
            pivot_row = rows[row_index] = [-v for v in pivot_row]
        unit = head == scale == 1
        # only touched cells: zero entries of the pivot row change nothing
        live = [j for j, v in enumerate(pivot_row) if v]
        for target in rows + [self.objective]:
            factor = target[col]
            if target is pivot_row or not factor and head == scale:
                continue
            if unit:
                for j in live:
                    target[j] = target[j] - factor * pivot_row[j]
            elif head == scale:
                for j in live:
                    target[j] = target[j] - factor * pivot_row[j] // scale
            else:
                # Bareiss: (head * v - factor * w) / scale divides exactly
                target[:] = [(head * v - factor * w) // scale if v or w
                             else v for v, w in zip(target, pivot_row)]
        self.scale = head
        self.basis[row_index] = col
        self.pivots += 1
        if self.pivots > MAX_PIVOTS:
            raise CyclingDetected("pivot ceiling exceeded")

    def run(self, allowed_cols: range):
        """Pivot to optimality under Bland's rule; raise Unbounded if needed."""
        while True:
            entering = None
            for j in allowed_cols:
                if sign(self.objective[j]) < 0 and j not in self.basis:
                    entering = j
                    break
            if entering is None:
                return
            leaving = None
            best_ratio = ratio = None
            for i, row in enumerate(self.rows):
                coeff = row[entering]
                if sign(coeff) <= 0:
                    continue
                if not self.split:
                    # the common scale in coeff leaves the order alone
                    ratio = row[-1]
                    if ratio:
                        ratio = ratio / coeff
                if leaving is None:
                    gap = -1
                elif self.split:
                    # x_i / c_i against x_k / c_k as x_i c_k - x_k c_i, in ints
                    best = self.rows[leaving]
                    c = best[entering]
                    gap = pair_sign(row[-2] * c - best[-2] * coeff,
                                    row[-1] * c - best[-1] * coeff)
                elif ratio or best_ratio:
                    # two zero ratios tie without a Q(sqrt2) subtraction
                    gap = sign(ratio - best_ratio)
                else:
                    gap = 0
                if gap < 0:
                    best_ratio = ratio
                    leaving = i
                elif gap == 0 and self.basis[i] < self.basis[leaving]:
                    leaving = i
            if leaving is None:
                raise Unbounded("entering column has no positive entry")
            self.pivot(leaving, entering)

    def solution(self, ncols: int) -> Tuple[Scalar, ...]:
        x = [ZERO if self.split else self.scale * 0] * ncols
        q = self.scale * self.d
        for i, col in enumerate(self.basis):
            if col < ncols:
                row = self.rows[i]
                x[col] = (ExactScalar(Fraction(row[-2], q),
                                      Fraction(row[-1], q))
                          if self.split else row[-1])
        return tuple(x)


def _phase_one(rows, rhs, cost, zero, A, b):
    """Solve Phase I on [A | I | b], rows with b_i < 0 negated.  Returns the
    tableau, the cost in its cells and the audited certificate or None.

    Over Q, cells start at [A | I | d b_rat | d b_sqrt2] and c times
    S = prod s_i, s_i a multiple of row i's (or c's) denominators, and d
    clears the rhs denominators: a Bareiss cell is S times a minor of that
    integer matrix.  sqrt2 in A or c keeps ExactScalar cells.
    """
    m, n = len(rows), len(cost)
    flips = [sign(v) < 0 for v in rhs]
    rhs = [-v if flip else v for v, flip in zip(rhs, flips)]
    tails = [[v] for v in rhs]
    d = 1
    if isinstance(zero, float):
        scale = 1.0
    elif any(v.b for row in rows + [cost] for v in row):
        scale = ONE
    else:
        scale = 1
        for row in rows + [cost]:
            for q in {v.a.denominator for v in row}:
                scale *= q
        rows = [[v.a.numerator * (scale // v.a.denominator) for v in row]
                for row in rows + [cost]]
        cost = rows.pop()
        for q in {q for v in rhs for q in (v.a.denominator, v.b.denominator)}:
            d *= q
        q = scale * d
        tails = [[int(v.a * q), int(v.b * q)] for v in rhs]
    body = []
    for i, row in enumerate(rows):
        if flips[i]:
            row = [-v for v in row]
        row = row + [scale * 0] * m + tails[i]
        row[n + i] = scale
        body.append(row)
    tableau = Tableau(body, [n + i for i in range(m)], [0] * n + [1] * m,
                      scale, d)
    tableau.run(range(n + m))
    objective = tableau.objective
    if (not (objective[-2] or objective[-1]) if tableau.split
            else sign(objective[-1]) == 0):
        return tableau, cost, None
    # y_i = 1 - (reduced cost of artificial i), negated on flipped rows
    scale = tableau.scale
    y = []
    for i in range(m):
        multiplier = (zero + scale - objective[n + i]) / scale
        y.append(-multiplier if flips[i] else multiplier)
    certificate = FarkasCertificate(y=tuple(y))
    if not verify_certificate(A, b, certificate):
        raise CyclingDetected("solver produced a certificate that fails audit")
    return tableau, cost, certificate


def solve_feasibility(A: Sequence[Sequence[Scalar]],
                      b: Sequence[Scalar]) -> LPResult:
    """Decide Ax = b, x >= 0.

    Feasible answers come with an exact basic point; infeasible answers with
    a Farkas certificate read off the final Phase-I reduced costs.  Both are
    re-verified here before being returned.
    """
    rows, rhs, zero, n = _normalize(A, b)
    tableau, _, certificate = _phase_one(rows, rhs, [zero] * n, zero, A, b)
    if certificate:
        return LPResult(status="infeasible", certificate=certificate)
    x = tableau.solution(n)
    if not verify_solution(A, b, x):
        raise CyclingDetected("solver returned a point that fails audit")
    return LPResult(status="feasible", x=x)


def solve_min(c: Sequence[Scalar], A: Sequence[Sequence[Scalar]],
              b: Sequence[Scalar]) -> Tuple[Scalar, Tuple[Scalar, ...]]:
    """Minimize c.x subject to Ax = b, x >= 0.

    Runs Phase-I first and raises InfeasibleProblem (with certificate) when
    the region is empty; raises Unbounded when the objective has no minimum.
    Returns the exact optimal value and an optimal vertex.
    """
    rows, rhs, zero, n = _normalize(A, b)
    if len(c) != n:
        raise DimensionMismatch(f"cost has {len(c)} entries for {n} columns")
    # a cost of the other backend makes this raise MixedBackendError
    (cost,), _, _, _ = _normalize([list(c)], [zero])
    tableau, cells, certificate = _phase_one(rows, rhs, cost, zero, A, b)
    if certificate:
        raise InfeasibleProblem(certificate)

    # drive artificials out of the basis; rows that cannot release one are
    # redundant combinations of other rows and get dropped
    drop = []
    for i in range(len(rows)):
        if tableau.basis[i] < n:
            continue
        for j in range(n):
            if j not in tableau.basis and sign(tableau.rows[i][j]) != 0:
                tableau.pivot(i, j)
                break
        else:
            drop.append(i)
    for i in reversed(drop):
        del tableau.rows[i]
        del tableau.basis[i]

    body = [row[:n] + row[n + len(rows):] for row in tableau.rows]
    phase_two = Tableau(body, list(tableau.basis), cells, tableau.scale,
                        tableau.d)
    phase_two.run(range(n))
    x = phase_two.solution(n)
    if not verify_solution(A, b, x):
        raise CyclingDetected("optimizer returned a point that fails audit")
    value = zero
    for j in range(n):
        if sign(x[j]) != 0 and sign(cost[j]) != 0:
            value = value + cost[j] * x[j]
    return value, x


def _rational(v):
    """A rational exact value as a plain int or Fraction."""
    if isinstance(v, float):
        raise MixedBackendError("exact and float values in one audit")
    if isinstance(v, ExactScalar) and not v.b:
        v = v.a
    return v.numerator if isinstance(v, Fraction) and v.denominator == 1 else v


def verify_solution(A: Sequence[Sequence[Scalar]], b: Sequence[Scalar],
                    x: Sequence[Scalar]) -> bool:
    """Independent audit of Ax = b and x >= 0 (exact, or within 1e-9)."""
    if (len(A) != len(b) or any(sign(v) < 0 for v in x)
            or any(len(row) != len(x) for row in A)):
        return False
    support = [j for j, v in enumerate(x) if v]
    for row, target in zip(A, b):
        total = 0
        for j in support:
            if row[j]:
                total = total + row[j] * x[j]
        if sign(total - target) != 0:
            return False
    return True


def verify_certificate(A: Sequence[Sequence[Scalar]], b: Sequence[Scalar],
                       certificate: FarkasCertificate) -> bool:
    """Independent audit of y^T A <= 0 componentwise and y^T b > 0.

    y^T A runs over the nonzero entries of A only, in plain rationals when
    y and A are exact and rational; only y^T b needs Q(sqrt2).
    """
    y = certificate.y
    if len(y) != len(b) or len(A) != len(b):
        return False
    totals = [0] * max(map(len, A), default=0)
    for weight, row in zip(y, A):
        if weight:
            exact = not isinstance(weight, float)
            if exact:
                weight = _rational(weight)
            for j, v in enumerate(row):
                if v:
                    totals[j] = totals[j] + weight * (_rational(v) if exact
                                                      else v)
    if any(sign(total) > 0 for total in totals):
        return False
    total = 0
    for weight, target in zip(y, b):
        if weight:
            total = total + weight * target
    return sign(total) > 0
