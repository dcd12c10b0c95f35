"""Dense simplex over exact or float scalars, with Farkas certificates.

Solves equality-constrained feasibility (find x >= 0 with Ax = b) by Phase-I
simplex on per-row artificial variables, and linear minimization by Phase-II
from the Phase-I basis.  These systems are tiny and heavily degenerate, so
neither phase can cycle: Phase I enters by Bland's rule, Phase II by the most
negative reduced cost except after a degenerate pivot (`Tableau.run`).  The
exact tableau is fraction-free, with int cells for a rational A, so "optimum
is zero" and "certificate is valid" are decided without rounding.

Before Phase I a presolve deletes every forcing row, one with rhs exactly zero
and no negative entry, and the columns where it is positive, which it forces
to zero (Brearley, Mitra & Williams 1975; Andersen & Andersen 1995).  Most
strategy columns of a correlation problem go this way.  The reduced problem's
point lifts back by zeros, and its Farkas certificate by weights on the
forcing rows that leave y^T b alone (`_lift_certificate`).

Nothing returned here is trusted: feasible points and Farkas certificates are
re-verified on the caller's full A, b by the independent checks at the bottom
of this module before the solver hands them out.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

from .scalar import (ONE, ZERO, ExactScalar, MixedBackendError, Scalar,
                     pair_sign, sign)

#: Pivot-count ceiling; both entering rules (`Tableau.run`) terminate long
#: before this on any problem this library builds, so hitting it means a
#: broken invariant.
MAX_PIVOTS = 200000


class DimensionMismatch(ValueError):
    """Matrix and right-hand side shapes disagree."""


class CyclingDetected(RuntimeError):
    """Internal invariant breach: the pivot ceiling was hit."""


class AuditFailed(RuntimeError):
    """Internal invariant breach: a solver output failed its audit."""


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


def _backend(A: Sequence[Sequence[Scalar]], b: Sequence[Scalar]):
    """Check the shapes and pick one backend; returns its zero.

    The backend is float when any entry is a float, exact otherwise; mixing
    floats with ExactScalars raises.
    """
    if len(A) != len(b):
        raise DimensionMismatch(
            f"{len(A)} constraint rows but {len(b)} right-hand sides")
    if any(len(row) != len(A[0]) for row in A):
        raise DimensionMismatch("ragged constraint matrix")
    kinds = set(map(type, b))
    for row in A:
        kinds.update(map(type, row))
    has_float = any(issubclass(kind, float) for kind in kinds)
    if has_float and ExactScalar in kinds:
        raise MixedBackendError("constraint system mixes exact and float entries")
    return 0.0 if has_float else ZERO


def _coerce(v, zero):
    """v in zero's backend: int and Fraction entries become ExactScalars or
    floats."""
    if isinstance(v, (ExactScalar, float)):
        return v
    if isinstance(v, (int, Fraction)):
        return float(v) if isinstance(zero, float) else ExactScalar.from_rational(v)
    raise TypeError(f"unsupported matrix entry {v!r}")


def _plain_values(row, zero, known):
    """row's entries as plain numbers: floats on float data, int, Fraction
    or ExactScalar on exact data.  known maps entry ids to values, so each
    distinct entry object is converted once (builders reuse their zero and
    one) and the row is read in C."""
    if isinstance(zero, float):
        return row
    values = list(map(known.get, map(id, row)))
    if None in values:
        for j, v in enumerate(row):
            if values[j] is None:
                values[j] = known[id(v)] = _rational(v)
    return values


def _forcing_rows(A, b, zero, known):
    """Presolve: the rows with rhs exactly zero and no negative entry.

    Such a row forces every column where it is positive to zero in any
    x >= 0 with Ax = b (Brearley, Mitra & Williams 1975).  Returns the set
    of forcing rows and, for each forced column, the first forcing row
    that covers it.  Only zero-rhs rows are scanned, and the tests are
    exact on floats too: a float rhs of 1e-13 forces nothing.
    """
    forcing, cover = set(), {}
    for i, target in enumerate(b):
        if target:
            continue
        values = _plain_values(A[i], zero, known)
        if min(values, default=0) < 0:
            continue
        forcing.add(i)
        for j in filter(values.__getitem__, range(len(values))):
            cover.setdefault(j, i)
    return forcing, cover


def _lift_certificate(A, y, keep, cover, zero, known):
    """Farkas weights for all of A from the reduced problem's y.

    Kept rows keep their weight; forcing rows start at zero.  Each forced
    column j with a positive total (y^T A)_j is charged to its covering
    row r, whose weight becomes the least -(y^T A)_j / A_rj over the
    columns charged to it.  A forcing row is nonnegative with zero rhs, so
    a negative weight on it lowers every column total and leaves y^T b
    alone.
    """
    full = [zero] * len(A)
    for i, weight in zip(keep, y):
        full[i] = weight
    if not cover:
        return tuple(full)
    scale, weights = 1, y
    if not isinstance(zero, float) and not any(w.b for w in y):
        # a rational y over one int denominator: the sums run in ints
        for q in {w.a.denominator for w in y}:
            scale *= q
        weights = [w.a.numerator * (scale // w.a.denominator) for w in y]
    dead = list(cover)
    totals = [0] * len(A[0])
    for i, weight in zip(keep, weights):
        if weight:
            values = _plain_values(A[i], zero, known)
            # the forced columns where this row is nonzero
            for j in filter(values.__getitem__, dead):
                totals[j] = totals[j] + weight * values[j]
    for j in dead:
        total = totals[j]
        if sign(total) > 0:
            r = cover[j]
            weight = _coerce(-total * Fraction(1, scale) / A[r][j], zero)
            if sign(weight - full[r]) < 0:
                full[r] = weight
    return tuple(full)


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

    def run(self, allowed_cols: range, dantzig: bool = False):
        """Pivot to optimality; raise Unbounded if needed.

        Rows leave by Bland's rule.  Columns enter by lowest index (Bland),
        or with `dantzig` by most negative reduced cost, ties to the lowest
        index, except right after a degenerate pivot (zero rhs in the
        leaving row).  A cycle is all degenerate pivots, so with `dantzig`
        it would be all Bland pivots, and Bland's rule does not cycle.
        """
        objective = self.objective
        steepest = dantzig
        while True:
            entering = None
            for j in allowed_cols:
                # one positive scale in every cell: compare them directly
                if (sign(objective[j]) < 0 and j not in self.basis
                        and (entering is None
                             or objective[j] < objective[entering])):
                    entering = j
                    if not steepest:
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
            if dantzig:
                # steepest next only if this pivot moves the objective; the
                # float tolerance can only add degenerate (Bland) pivots
                row = self.rows[leaving]
                steepest = (row[-2] or row[-1] if self.split
                            else sign(row[-1]) != 0)
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


def _phase_one(rows, rhs, cost, zero):
    """Solve Phase I on [A | I | b], rows with b_i < 0 negated.  Returns the
    tableau, the cost in its cells and the Farkas weights y or None.

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
    return tableau, cost, y


def _presolved_phase_one(A, b, zero, c=None):
    """Phase I on A, b and cost c (default zero) in zero's backend, without
    the forcing rows and the columns they force (`_forcing_rows`).

    Returns (tableau, cost cells, live columns, certificate or None).  A
    certificate is lifted back to all of A, b (`_lift_certificate`) and
    audited there before it is returned.
    """
    known = {}
    forcing, cover = _forcing_rows(A, b, zero, known)
    keep = [i for i in range(len(A)) if i not in forcing]
    live = [j for j in range(len(A[0]) if A else 0) if j not in cover]
    rows = [[_coerce(A[i][j], zero) for j in live] for i in keep]
    rhs = [_coerce(b[i], zero) for i in keep]
    cost = [zero] * len(live) if c is None else [c[j] for j in live]
    tableau, cells, y = _phase_one(rows, rhs, cost, zero)
    certificate = None
    if y is not None:
        certificate = FarkasCertificate(
            y=_lift_certificate(A, y, keep, cover, zero, known))
        if not verify_certificate(A, b, certificate):
            raise AuditFailed("solver produced a certificate that fails audit")
    return tableau, cells, live, certificate


def _lift_point(values, live, n, zero) -> Tuple[Scalar, ...]:
    """A point of the reduced problem, zero on the forced columns."""
    x = [zero] * n
    for j, v in zip(live, values):
        x[j] = v
    return tuple(x)


def solve_feasibility(A: Sequence[Sequence[Scalar]],
                      b: Sequence[Scalar]) -> LPResult:
    """Decide Ax = b, x >= 0.

    Feasible answers come with an exact basic point; infeasible answers with
    a Farkas certificate read off the final Phase-I reduced costs.  Both are
    solved on the presolved system, lifted back and re-verified on A, b
    before being returned.
    """
    zero = _backend(A, b)
    tableau, _, live, certificate = _presolved_phase_one(A, b, zero)
    if certificate:
        return LPResult(status="infeasible", certificate=certificate)
    x = _lift_point(tableau.solution(len(live)), live,
                    len(A[0]) if A else 0, zero)
    if not verify_solution(A, b, x):
        raise AuditFailed("solver returned a point that fails audit")
    return LPResult(status="feasible", x=x)


def solve_min(c: Sequence[Scalar], A: Sequence[Sequence[Scalar]],
              b: Sequence[Scalar]) -> Tuple[Scalar, Tuple[Scalar, ...]]:
    """Minimize c.x subject to Ax = b, x >= 0.

    Runs Phase-I first and raises InfeasibleProblem (with certificate) when
    the region is empty; raises Unbounded when the objective has no minimum.
    Returns the exact optimal value and an optimal vertex.  The forced
    columns are zero in every feasible point, so Phase II runs on the
    presolved system too.
    """
    zero = _backend(A, b)
    n = len(A[0]) if A else 0
    if len(c) != n:
        raise DimensionMismatch(f"cost has {len(c)} entries for {n} columns")
    # a cost of the other backend makes this raise MixedBackendError
    _backend([c], [zero])
    cost = [_coerce(v, zero) for v in c]
    tableau, cells, live, certificate = _presolved_phase_one(A, b, zero,
                                                             cost)
    if certificate:
        raise InfeasibleProblem(certificate)

    # drive artificials out of the basis; rows that cannot release one are
    # redundant combinations of other rows and get dropped
    width, height = len(live), len(tableau.rows)
    drop = []
    for i in range(height):
        if tableau.basis[i] < width:
            continue
        for j in range(width):
            if j not in tableau.basis and sign(tableau.rows[i][j]) != 0:
                tableau.pivot(i, j)
                break
        else:
            drop.append(i)
    for i in reversed(drop):
        del tableau.rows[i]
        del tableau.basis[i]

    body = [row[:width] + row[width + height:] for row in tableau.rows]
    phase_two = Tableau(body, list(tableau.basis), cells, tableau.scale,
                        tableau.d)
    phase_two.run(range(width), dantzig=True)
    x = _lift_point(phase_two.solution(width), live, n, zero)
    if not verify_solution(A, b, x):
        raise AuditFailed("optimizer returned a point that fails audit")
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

    The data picks the backend, as the solver does: float when it holds a
    float, and int/Fraction weights join it (a mix raises
    MixedBackendError).  y^T A runs over the nonzero
    entries of A only, in plain rationals when the data is exact and
    rational, each distinct entry object converted once per call
    (`_plain_values`); only y^T b needs Q(sqrt2).
    """
    y = certificate.y
    width = len(A[0]) if A else 0
    if (len(y) != len(b) or len(A) != len(b)
            or any(len(row) != width for row in A)):
        return False
    exact = not any(isinstance(v, float) for v in b)
    if exact and not any(isinstance(v, ExactScalar) for v in b):
        # a rational b leaves the choice to A
        exact = not any(isinstance(v, float) for row in A for v in row)
    zero, known = ZERO if exact else 0.0, {}
    totals = [0] * width
    for weight, row in zip(y, A):
        if weight:
            if exact:
                weight = _rational(weight)
            values = _plain_values(row, zero, known)
            for j in filter(values.__getitem__, range(width)):
                totals[j] = totals[j] + weight * values[j]
    if any(sign(total) > 0 for total in totals):
        return False
    total = 0
    for weight, target in zip(y, b):
        if weight:
            total = total + weight * target
    return sign(total) > 0
