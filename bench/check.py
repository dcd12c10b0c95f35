"""Independent output checker for the bellgate benchmark.

Reference values come from this file's own arithmetic: a pair type for
Q(sqrt2), Born and Bell-state tables built from cosines of the requested
angles, and enumeration of deterministic strategies.  Nothing here calls
the solver or reads the constraint matrix it built.  Outputs are matched to
reference rows and columns by their labels only, after the program's
scenario has been checked against the requested angles.

Float outputs are judged against the true quantum values (cosines to 50
digits), not against the solver's rounded right-hand side.  A float Farkas
certificate y counts as a proof when y.b exceeds the largest strategy value
of y^T A: every local model is a probability vector over strategies, so it
would give y.b <= max_j (y^T A)_j.
"""

from __future__ import annotations

import decimal
import itertools
import math
from fractions import Fraction

#: Absolute slack allowed on float witnesses and float inequality bounds.
FLOAT_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """An output failed the independent audit; the message says why."""


def pair_sign(a, b) -> int:
    """Exact sign of a + b*sqrt2 for rational (or integer) a, b."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    return sa if a * a > 2 * b * b else sb


class Q2:
    """a + b*sqrt2 with rational a, b: the checker's own field arithmetic."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, other):
        return Q2(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return Q2(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return Q2(-self.a, -self.b)

    def __mul__(self, other):
        return Q2(self.a * other.a + 2 * self.b * other.b,
                  self.a * other.b + self.b * other.a)

    def sign(self) -> int:
        return pair_sign(self.a, self.b)

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(2.0)


ZERO, ONE = Q2(0), Q2(1)
_HALF_SQRT2 = Q2(0, Fraction(1, 2))
# cos(k*pi/4) for k = 0..7
_COS_EIGHTHS = (ONE, _HALF_SQRT2, ZERO, -_HALF_SQRT2, -ONE, -_HALF_SQRT2,
                ZERO, _HALF_SQRT2)


def _cos_decimal(x: Fraction) -> Fraction:
    """cos(x) to about 50 significant digits, by Taylor series."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        arg = decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)
        square = arg * arg
        term = decimal.Decimal(1)
        total = term
        k = 0
        while abs(term) > decimal.Decimal(10) ** -58:
            k += 2
            term = -term * square / (k * (k - 1))
            total += term
        return Fraction(total)


def to_q2(value) -> Q2:
    """Solver output (ExactScalar-like, float, or JSON number, "p/q" string
    or {"a", "b"} object) -> Q2."""
    if isinstance(value, float):
        return Q2(Fraction(value))
    if isinstance(value, dict):
        return Q2(Fraction(value["a"]), Fraction(value["b"]))
    if isinstance(value, (int, str)):
        return Q2(Fraction(value))
    return Q2(value.a, value.b)


def is_nonzero(value) -> bool:
    if isinstance(value, float):
        return value != 0.0
    return bool(value.a or value.b)


# ---------------------------------------------------------------- verdicts

def reference_verdict(angles, exact: bool):
    """Closed-form prop1/prop2 verdict for a setting list, or None.

    Measuring at t and at t + pi is the same measurement with relabeled
    outcomes, and the tables depend only on angle differences, so only the
    axes (angles mod pi) up to rotation matter.  Axes all pi/2 apart give a
    feasible set.  Three axes (a, a + d, a + 2d) with 0 < d < pi/2 give an
    infeasible one: the three-settings inequality has quantum value
    -cos(d)(1 - cos(d))/2 < 0, and dropping settings keeps a local model
    local.
    """
    if exact:
        axes = {k % 4 for k in angles}
        if len({k % 2 for k in axes}) == 1:
            return "feasible"
        if any({a, (a + 1) % 4, (a + 2) % 4} <= axes for a in range(4)):
            return "infeasible"
        return None
    axes = [math.fmod(t, math.pi) % math.pi for t in angles]
    quarter = math.pi / 2
    if all(_near_multiple(x - axes[0], quarter) for x in axes):
        return "feasible"
    for a, b, c in itertools.permutations(axes, 3):
        step = (b - a) % math.pi
        if 1e-12 < step < quarter - 1e-12 and \
                _near_multiple((c - b) - step, math.pi):
            return "infeasible"
    return None


def _near_multiple(x: float, unit: float) -> bool:
    r = math.fmod(x, unit) % unit
    return min(r, unit - r) < 1e-12


# ---------------------------------------------------------------- reference

class Reference:
    """Quantum tables for one requested setting list, plus the label maps
    that tie the program's row and column names to them.

    meas_labels and state_labels are the program's labels, already checked
    (by check_scenario_angles) to belong to the requested angles in order:
    measurement i at angle t_i, states 2i and 2i+1 at t_i and t_i + pi.
    """

    def __init__(self, angles, exact: bool, meas_labels=None,
                 state_labels=None):
        self.angles = list(angles)
        self.exact = exact
        self.m = len(self.angles)
        meas_labels = meas_labels or [f"M{i}" for i in range(self.m)]
        state_labels = state_labels or [f"S{i}" for i in range(2 * self.m)]
        if len(set(meas_labels)) != self.m or \
                len(set(state_labels)) != 2 * self.m:
            raise CheckFailed("scenario labels are not unique")
        self.meas = {label: i for i, label in enumerate(meas_labels)}
        self.meas_labels = list(meas_labels)
        self.states = {label: (i // 2, i % 2)
                       for i, label in enumerate(state_labels)}
        self.state_labels = list(state_labels)
        self._cos = {}

    def cos_gap(self, i: int, j: int) -> Q2:
        key = (i, j)
        if key not in self._cos:
            if self.exact:
                value = _COS_EIGHTHS[(self.angles[i] - self.angles[j]) % 8]
            else:
                value = Q2(_cos_decimal(Fraction(self.angles[i])
                                        - Fraction(self.angles[j])))
            self._cos[key] = value
        return self._cos[key]

    def joint(self, i: int, j: int, a: int, b: int) -> Q2:
        """P(a, b | M_i, M_j) for (|00> + |11>)/sqrt2."""
        c = self.cos_gap(i, j)
        total = ONE + c if a == b else ONE - c
        return total * Q2(Fraction(1, 4))

    def born(self, state: int, flipped: int, meas: int, outcome: int) -> Q2:
        """P(outcome | M_meas) on the eigenstate (state, flipped)."""
        c = self.cos_gap(meas, state)
        total = ONE + c if (flipped + outcome) % 2 == 0 else ONE - c
        return total * Q2(Fraction(1, 2))

    def verdict(self):
        return reference_verdict(self.angles, self.exact)

    # label decoding ----------------------------------------------------

    def meas_index(self, label) -> int:
        if label not in self.meas:
            raise CheckFailed(f"unknown measurement label {label!r}")
        return self.meas[label]

    def state_index(self, label):
        if label not in self.states:
            raise CheckFailed(f"unknown state label {label!r}")
        return self.states[label]


def check_scenario_angles(ref_angles, exact: bool, meas, states):
    """Program scenario (lists of (label, angle)) must match the request.

    Exact angles count pi/4 steps (mod 8); float angles are radians mod 2pi.
    """
    if len(meas) != len(ref_angles) or len(states) != 2 * len(ref_angles):
        raise CheckFailed("scenario size differs from the request")

    def same(got, want):
        if exact:
            return isinstance(got, int) and got % 8 == want % 8
        gap = abs(float(got) - math.fmod(want, 2 * math.pi) % (2 * math.pi))
        return min(gap, 2 * math.pi - gap) < 1e-12

    for i, want in enumerate(ref_angles):
        flip = 4 if exact else math.pi
        if not same(meas[i][1], want) or not same(states[2 * i][1], want) \
                or not same(states[2 * i + 1][1], want + flip):
            raise CheckFailed(f"scenario angles differ from request at {i}")
    return Reference(ref_angles, exact, [m[0] for m in meas],
                     [s[0] for s in states])


# ------------------------------------------------------------ label parsing

def parse_name(name: str):
    """Report row/column name -> the label tuple it prints, e.g.
    'joint(Z,X,0,1)' -> ('joint', 'Z', 'X', 0, 1)."""
    if name == "normalization":
        return ("normalization",)
    head, _, rest = name.partition("(")
    if not rest.endswith(")"):
        raise CheckFailed(f"unparseable label {name!r}")
    parts = rest[:-1].split(",")
    if head == "joint" and len(parts) == 4:
        return ("joint", parts[0], parts[1], int(parts[2]), int(parts[3]))
    if head == "born" and len(parts) == 3:
        return ("born", parts[0], parts[1], int(parts[2]))
    if head == "decomp" and len(parts) == 3:
        return ("decomp", int(parts[0]), int(parts[1]), parts[2])
    if head in ("normalization", "p") and len(parts) == 1:
        return (head, parts[0])
    if head == "mu" and len(parts) == 2:
        return ("mu", parts[0], parts[1])
    raise CheckFailed(f"unparseable label {name!r}")


def _strategy_bits(key: str, m: int):
    a, sep, b = key.partition("|")
    if not sep or len(a) != m or len(b) != m or set(a + b) - {"0", "1"}:
        raise CheckFailed(f"bad strategy key {key!r}")
    return tuple(int(c) for c in a), tuple(int(c) for c in b)


# ------------------------------------------------------------------ prop2

def _joint_rows(ref: Reference, y: dict):
    """Split prop2 row weights into the normalization weight and a table
    Y[i][j][a][b]; every label must be a real prop2 row."""
    norm = ZERO
    table = {}
    for label, weight in y.items():
        if label == ("normalization",):
            norm = weight
        elif label[0] == "joint" and len(label) == 5 and \
                label[3] in (0, 1) and label[4] in (0, 1):
            key = (ref.meas_index(label[1]), ref.meas_index(label[2]),
                   label[3], label[4])
            table[key] = weight
        else:
            raise CheckFailed(f"{label!r} is not a correlation row")
    return norm, table


def _common_scale(values):
    """Integer pairs (A, B) and a denominator D with v = (A + B*sqrt2)/D."""
    denominator = 1
    for v in values:
        denominator = math.lcm(denominator, v.a.denominator, v.b.denominator)
    return denominator, [(int(v.a * denominator), int(v.b * denominator))
                         for v in values]


def _max_strategy_value(ref: Reference, norm: Q2, table: dict) -> Q2:
    """Largest value of norm + the table entries Y[i][j][a][b] that a
    deterministic strategy pair hits, over all 4^m pairs.  Sums run over
    integers scaled to one common denominator, so they are exact."""
    keys = list(table)
    scale, scaled = _common_scale([norm] + [table[k] for k in keys])
    lookup = dict(zip(keys, scaled[1:]))
    m = ref.m
    best = None
    for abits in itertools.product((0, 1), repeat=m):
        for bbits in itertools.product((0, 1), repeat=m):
            total_a, total_b = scaled[0]
            for i in range(m):
                for j in range(m):
                    entry = lookup.get((i, j, abits[i], bbits[j]))
                    if entry is not None:
                        total_a += entry[0]
                        total_b += entry[1]
            if best is None or \
                    pair_sign(total_a - best[0], total_b - best[1]) > 0:
                best = (total_a, total_b)
    return Q2(Fraction(best[0], scale), Fraction(best[1], scale))


def _dot_b(ref: Reference, norm: Q2, table: dict) -> Q2:
    total = norm
    for (i, j, a, b), weight in table.items():
        total = total + weight * ref.joint(i, j, a, b)
    return total


def audit_prop2_certificate(ref: Reference, y: dict) -> Q2:
    """Audit a prop2 Farkas certificate; returns its margin y.b."""
    norm, table = _joint_rows(ref, y)
    margin = _dot_b(ref, norm, table)
    worst = _max_strategy_value(ref, norm, table)
    if ref.exact:
        if worst.sign() > 0:
            raise CheckFailed("certificate: y^T A has a positive entry")
        if margin.sign() <= 0:
            raise CheckFailed("certificate: y.b is not positive")
    elif (margin - worst).sign() <= 0:
        raise CheckFailed(
            f"float certificate proves nothing: y.b - max(y^T A) = "
            f"{float(margin - worst):.3g}")
    return margin


def _close(value: Q2, exact: bool) -> bool:
    return value.sign() == 0 if exact else abs(float(value)) <= FLOAT_TOLERANCE


def _nonnegative(value: Q2, exact: bool) -> bool:
    return value.sign() >= 0 if exact else float(value) >= -FLOAT_TOLERANCE


def audit_prop2_witness(ref: Reference, x: dict, eps: Q2 = None):
    """Audit a prop2 point: x >= 0 over strategy columns, normalization
    exact, each joint row within eps (zero for a feasibility witness)."""
    rows = {}
    norm = ZERO
    for label, value in x.items():
        if label[0] != "p" or len(label) != 2:
            raise CheckFailed(f"{label!r} is not a strategy column")
        if not _nonnegative(value, ref.exact):
            raise CheckFailed(f"witness: negative weight on {label!r}")
        abits, bbits = _strategy_bits(label[1], ref.m)
        norm = norm + value
        for i in range(ref.m):
            for j in range(ref.m):
                key = (i, j, abits[i], bbits[j])
                rows[key] = rows.get(key, ZERO) + value
    if not _close(norm - ONE, ref.exact):
        raise CheckFailed("witness: weights do not sum to one")
    for i in range(ref.m):
        for j in range(ref.m):
            for a in (0, 1):
                for b in (0, 1):
                    gap = rows.get((i, j, a, b), ZERO) - ref.joint(i, j, a, b)
                    _within(gap, eps, ref.exact, ("joint", i, j, a, b))


def _within(gap: Q2, eps, exact: bool, where):
    if eps is None:
        if not _close(gap, exact):
            raise CheckFailed(f"witness misses row {where!r}")
        return
    if exact:
        if (gap - eps).sign() > 0 or (gap + eps).sign() < 0:
            raise CheckFailed(f"slack point misses row {where!r} by more "
                              f"than eps")
    elif abs(float(gap)) > float(eps) + FLOAT_TOLERANCE:
        raise CheckFailed(f"slack point misses row {where!r} by more than eps")


def audit_inequality(ref: Reference, coefficients: dict, bound: Q2,
                     margin: Q2 = None):
    """Audit a Bell inequality sum c * P(ab|Mi,Mj) <= bound.

    Every strategy pair must satisfy it (exactly, or within the float
    tolerance), and the quantum table must violate its tightest valid
    bound.  In exact mode the violation must equal the certificate margin.
    """
    table = {}
    for (ma, mb, a, b), coeff in coefficients.items():
        table[(ref.meas_index(ma), ref.meas_index(mb), a, b)] = coeff
    worst = _max_strategy_value(ref, ZERO, table)
    quantum = _dot_b(ref, ZERO, table)
    if ref.exact:
        if (worst - bound).sign() > 0:
            raise CheckFailed("inequality: a strategy exceeds the bound")
        if margin is not None and not quantum - bound == margin:
            raise CheckFailed("inequality: violation differs from y.b")
    elif float(worst - bound) > FLOAT_TOLERANCE:
        raise CheckFailed("inequality: a strategy exceeds the bound")
    if (quantum - worst).sign() <= 0:
        raise CheckFailed("inequality: the quantum table does not violate it")


# ------------------------------------------------------------------ prop1

def _prop1_rows(ref: Reference, y: dict):
    norm, born, decomp = {}, {}, {}
    for label, weight in y.items():
        kind = label[0]
        if kind == "normalization" and len(label) == 2:
            norm[ref.state_index(label[1])] = weight
        elif kind == "born" and len(label) == 4 and label[3] in (0, 1):
            key = (ref.state_index(label[1]), ref.meas_index(label[2]),
                   label[3])
            born[key] = weight
        elif kind == "decomp" and len(label) == 4 and \
                label[2] == label[1] + 1 and 0 <= label[1] < ref.m - 1:
            _cell_bits(label[3], ref.m)
            decomp[(label[1], label[3])] = weight
        else:
            raise CheckFailed(f"{label!r} is not a decomposition-problem row")
    return norm, born, decomp


def _cell_bits(cell: str, m: int):
    if len(cell) != m or set(cell) - {"0", "1"}:
        raise CheckFailed(f"bad cell {cell!r}")
    return tuple(int(c) for c in cell)


def audit_prop1_certificate(ref: Reference, y: dict) -> Q2:
    """y^T A <= 0 on every (state, cell) column, y.b > 0 (exact only)."""
    norm, born, decomp = _prop1_rows(ref, y)
    for state in ref.states.values():
        for bits in itertools.product((0, 1), repeat=ref.m):
            cell = "".join(map(str, bits))
            total = norm.get(state, ZERO)
            for i in range(ref.m):
                total = total + born.get((state, i, bits[i]), ZERO)
            k = state[0]
            total = total + decomp.get((k, cell), ZERO)
            total = total - decomp.get((k - 1, cell), ZERO)
            if total.sign() > 0:
                raise CheckFailed("certificate: y^T A has a positive entry")
    margin = ZERO
    for weight in norm.values():
        margin = margin + weight
    for (state, i, outcome), weight in born.items():
        margin = margin + weight * ref.born(*state, i, outcome)
    if margin.sign() <= 0:
        raise CheckFailed("certificate: y.b is not positive")
    return margin


def audit_prop1_witness(ref: Reference, x: dict, eps: Q2 = None):
    """Per-state measures over cells: normalization and decomposition
    equality exact, Born rows within eps (zero for a witness)."""
    mass = {}
    for label, value in x.items():
        if label[0] != "mu" or len(label) != 3:
            raise CheckFailed(f"{label!r} is not a cell column")
        if not _nonnegative(value, ref.exact):
            raise CheckFailed(f"witness: negative weight on {label!r}")
        state = ref.state_index(label[1])
        _cell_bits(label[2], ref.m)
        mass[(state, label[2])] = value
    cells = ["".join(map(str, bits))
             for bits in itertools.product((0, 1), repeat=ref.m)]
    for state in ref.states.values():
        total = ZERO
        for cell in cells:
            total = total + mass.get((state, cell), ZERO)
        if not _close(total - ONE, ref.exact):
            raise CheckFailed("witness: a state measure does not sum to one")
        for i in range(ref.m):
            for outcome in (0, 1):
                hit = ZERO
                for cell in cells:
                    if int(cell[i]) == outcome:
                        hit = hit + mass.get((state, cell), ZERO)
                gap = hit - ref.born(*state, i, outcome)
                _within(gap, eps, ref.exact, ("born", state, i, outcome))
    for k in range(ref.m - 1):
        for cell in cells:
            gap = ZERO
            for flipped in (0, 1):
                gap = gap + mass.get(((k, flipped), cell), ZERO)
                gap = gap - mass.get(((k + 1, flipped), cell), ZERO)
            if not _close(gap, ref.exact):
                raise CheckFailed(f"witness breaks decomposition equality "
                                  f"{k},{k + 1} on cell {cell}")


# ------------------------------------------------------------ whole results

def audit_verdict(ref: Reference, problem: str, status: str, x: dict,
                  y: dict):
    """Check a feasible/infeasible answer: the closed-form verdict where
    one exists, and the witness or certificate in every case."""
    expected = ref.verdict()
    if status not in ("feasible", "infeasible"):
        raise CheckFailed(f"unknown status {status!r}")
    if expected is not None and status != expected:
        raise CheckFailed(f"verdict {status}, expected {expected}")
    if status == "feasible":
        (audit_prop2_witness if problem == "prop2"
         else audit_prop1_witness)(ref, x)
        return None
    if problem == "prop2":
        return audit_prop2_certificate(ref, y)
    if not ref.exact:
        raise CheckFailed("float decomposition certificates are not audited")
    return audit_prop1_certificate(ref, y)


def wigner_slack_bound(ref: Reference) -> Q2:
    """Lower bound on the prop2 min_slack from three-settings inequalities.

    y = +P01(i,k) - P01(i,j) - P01(j,k) - P10(j,j) satisfies y^T A <= 0
    whatever the angles, and relabeling a setting's outcomes (s = -1) maps
    it to another valid certificate.  For any point within eps on the four
    joint rows, y.b <= 4 eps, so eps >= (s_ij c_ij + s_jk c_jk - s_ik c_ik
    - 1) / 16 with c_xy = cos(t_x - t_y).
    """
    best = ZERO
    sixteenth = Q2(Fraction(1, 16))
    for i, j, k in itertools.permutations(range(ref.m), 3):
        for si, sj, sk in itertools.product((1, -1), repeat=3):
            total = -ONE
            for x, y, s in ((i, j, si * sj), (j, k, sj * sk),
                            (i, k, -si * sk)):
                c = ref.cos_gap(x, y)
                total = total + c if s > 0 else total - c
            if (total * sixteenth - best).sign() > 0:
                best = total * sixteenth
    return best


def audit_min_slack(ref: Reference, problem: str, eps: Q2, x: dict = None):
    """eps > 0 exactly when the closed-form verdict is infeasible, eps at
    least the three-settings lower bound (prop2), and the point, when
    given, must meet every row within eps."""
    expected = ref.verdict()
    if eps.sign() < 0:
        raise CheckFailed("min_slack is negative")
    if expected is not None and (eps.sign() > 0) != (expected == "infeasible"):
        raise CheckFailed(f"min_slack {float(eps):.3g} beside a verdict of "
                          f"{expected}")
    if problem == "prop2":
        gap = eps - wigner_slack_bound(ref)
        if gap.sign() < 0 if ref.exact else float(gap) < -FLOAT_TOLERANCE:
            raise CheckFailed(f"min_slack {float(eps):.3g} is below the "
                              f"three-settings lower bound")
    if x is not None:
        (audit_prop2_witness if problem == "prop2"
         else audit_prop1_witness)(ref, x, eps)


def wigner_value(ref: Reference, convention: str) -> Q2:
    """P01(M1,M2) + P01(M2,M3) - P01(M1,M3) over the first three settings."""
    def term(i, j):
        p = ref.joint(i, j, 0, 1)
        return p if convention == "strict01" else p + ref.joint(i, j, 1, 0)
    return term(0, 1) + term(1, 2) - term(0, 2)


def check_wigner(ref: Reference, reported: Q2, convention="strict01"):
    gap = reported - wigner_value(ref, convention)
    if ref.exact and gap.sign() != 0 or \
            not ref.exact and abs(float(gap)) > 1e-12:
        raise CheckFailed(f"wigner {convention} value is off by {float(gap)}")
