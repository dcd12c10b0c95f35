"""LP formulations of the decomposition and locality questions.

Two families of equality-constrained feasibility problems over nonnegative
variables live here.  The decomposition problem asks for per-state measures
over ontic cells that reproduce single-qubit Born statistics while giving
identical mixtures for each listed decomposition of the maximally mixed
state.  The correlation problem asks for a distribution over pairs of
deterministic local strategies reproducing the two-qubit joint table.
Infeasibility certificates of the correlation problem are re-read as
Bell-type inequalities and double-checked by strategy enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .ontology import (
    EpistemicState,
    OnticSpace,
    OntologicalModel,
    ResponseFunctions,
    Strategy,
    UnknownMeasurement,
    UnknownState,
    all_strategies,
    strategy_key,
)
from .qubit import (
    Scenario,
    TooFewMeasurements,
    bell_joint,
    born_probability,
)
from .scalar import (
    Scalar,
    compare,
    field,
    is_exact,
    scalar_to_json,
    sign,
)
from .simplex import FarkasCertificate, LPResult, solve_feasibility, solve_min

SOFT_ROW_KINDS = ("born", "joint")


class UnverifiedCertificate(ValueError):
    """A certificate failed its audit and cannot back an inequality."""


def _cells(count: int, deterministic: bool) -> Tuple[str, ...]:
    alphabet = "01" if deterministic else "0h1"
    return tuple("".join(chars)
                 for chars in itertools.product(alphabet, repeat=count))


def _response_weight(char: str, outcome: int, zero: Scalar, half: Scalar,
                     one: Scalar) -> Scalar:
    if char == "h":
        return half
    return one if char == str(outcome) else zero


@dataclass(frozen=True)
class LPProblem:
    """Equality system Ax = b over x >= 0, with labeled rows and columns.

    Row labels are tuples: ("normalization",) or ("normalization", state),
    ("born", state, measurement, outcome), ("decomp", i, j, cell) and
    ("joint", meas_a, meas_b, outcome_a, outcome_b).  Column labels are
    ("mu", state, cell) or ("p", strategy_key).  settings records the
    measurement-label order so cells and strategies can be decoded.
    """

    matrix: Tuple[Tuple[Scalar, ...], ...]
    rhs: Tuple[Scalar, ...]
    column_labels: Tuple[Tuple, ...]
    row_labels: Tuple[Tuple, ...]
    settings: Tuple[str, ...]

    def __post_init__(self):
        if len(self.matrix) != len(self.rhs):
            raise ValueError("matrix and rhs disagree on row count")
        if len(self.matrix) != len(self.row_labels):
            raise ValueError("every row needs a label")
        for row in self.matrix:
            if len(row) != len(self.column_labels):
                raise ValueError("every column needs a label")

    @property
    def exact(self) -> bool:
        if self.rhs:
            return is_exact(self.rhs[0])
        return True

    def row_index(self, label: Tuple) -> int:
        return self.row_labels.index(label)

    def column_index(self, label: Tuple) -> int:
        return self.column_labels.index(label)

    def to_json(self) -> dict:
        return {
            "columns": [column_name(label) for label in self.column_labels],
            "settings": list(self.settings),
            "rows": [{
                "label": row_name(label),
                "coefficients": [scalar_to_json(v) for v in row],
                "rhs": scalar_to_json(rhs),
            } for label, row, rhs in zip(self.row_labels, self.matrix,
                                         self.rhs)],
        }


def row_name(label: Tuple) -> str:
    if label == ("normalization",):
        return "normalization"
    return column_name(label)


def column_name(label: Tuple) -> str:
    kind, rest = label[0], label[1:]
    return f"{kind}({','.join(str(part) for part in rest)})"


def _problem(scenario: Scenario, matrix, rhs, columns, labels) -> LPProblem:
    return LPProblem(matrix=tuple(tuple(row) for row in matrix),
                     rhs=tuple(rhs),
                     column_labels=columns,
                     row_labels=tuple(labels),
                     settings=tuple(m.label for m in scenario.measurements))


def build_prop1(scenario: Scenario,
                include_decomposition_equality: bool = True,
                deterministic_cells: bool = True,
                equality_pairs: Optional[Sequence[Tuple[int, int]]] = None
                ) -> LPProblem:
    """Decomposition problem: per-state cell measures matching Born rows,
    plus (optionally) cellwise equality of the decomposition mixtures.

    Cells are joint response assignments, one character per measurement:
    "0"/"1" outcomes, plus "h" (an even coin) when deterministic_cells is
    off.  equality_pairs selects which decomposition pairs are equated;
    the default chains consecutive decompositions, which implies all the
    rest.
    """
    zero, half, one = field(scenario.exact)
    cells = _cells(len(scenario.measurements), deterministic_cells)
    columns = tuple(("mu", state.label, cell)
                    for state in scenario.states for cell in cells)
    index = {label: j for j, label in enumerate(columns)}
    matrix, rhs, labels = [], [], []

    for state in scenario.states:
        row = [zero] * len(columns)
        for cell in cells:
            row[index[("mu", state.label, cell)]] = one
        matrix.append(row)
        rhs.append(one)
        labels.append(("normalization", state.label))

    for state in scenario.states:
        for mi, meas in enumerate(scenario.measurements):
            for outcome in (0, 1):
                row = [zero] * len(columns)
                for cell in cells:
                    row[index[("mu", state.label, cell)]] = _response_weight(
                        cell[mi], outcome, zero, half, one)
                matrix.append(row)
                rhs.append(born_probability(state, meas, outcome))
                labels.append(("born", state.label, meas.label, outcome))

    if include_decomposition_equality:
        if equality_pairs is None:
            pairs = [(i, i + 1)
                     for i in range(len(scenario.decompositions) - 1)]
        else:
            pairs = list(equality_pairs)
        for di, dj in pairs:
            left = scenario.decomposition_states(di)
            right = scenario.decomposition_states(dj)
            for cell in cells:
                row = [zero] * len(columns)
                for state in left:
                    j = index[("mu", state.label, cell)]
                    row[j] = row[j] + one
                for state in right:
                    j = index[("mu", state.label, cell)]
                    row[j] = row[j] - one
                matrix.append(row)
                rhs.append(zero)
                labels.append(("decomp", di, dj, cell))

    return _problem(scenario, matrix, rhs, columns, labels)


def build_prop2(scenario: Scenario) -> LPProblem:
    """Correlation problem: a distribution over deterministic strategy pairs
    reproducing every joint outcome probability of the maximally entangled
    table, for every ordered pair of settings."""
    zero, _, one = field(scenario.exact)
    strategies = all_strategies(len(scenario.measurements))
    columns = tuple(("p", strategy_key(s)) for s in strategies)
    matrix, rhs, labels = [], [], []

    matrix.append([one] * len(columns))
    rhs.append(one)
    labels.append(("normalization",))

    for ia, ma in enumerate(scenario.measurements):
        for ib, mb in enumerate(scenario.measurements):
            for a in (0, 1):
                for b in (0, 1):
                    row = [one if s[0][ia] == a and s[1][ib] == b else zero
                           for s in strategies]
                    matrix.append(row)
                    rhs.append(bell_joint(ma, mb, a, b))
                    labels.append(("joint", ma.label, mb.label, a, b))

    return _problem(scenario, matrix, rhs, columns, labels)


def solve_problem(problem: LPProblem) -> LPResult:
    return solve_feasibility(problem.matrix, problem.rhs)


def check_prop1(scenario: Scenario, **options) -> LPResult:
    """Solve build_prop1(scenario, **options)."""
    return solve_problem(build_prop1(scenario, **options))


def check_prop2(scenario: Scenario) -> LPResult:
    return solve_problem(build_prop2(scenario))


def min_slack(problem: LPProblem) -> Tuple[Scalar, Tuple[Scalar, ...]]:
    """Smallest eps >= 0 such that the statistical rows hold within eps.

    Normalization and decomposition rows stay exact; Born/joint rows r are
    relaxed to |A_r x - b_r| <= eps via slack splitting.  eps* = 0 exactly
    when the original problem is feasible.  Returns (eps*, x) with x
    restricted to the original columns.
    """
    zero, _, one = field(problem.exact)
    soft = [i for i, label in enumerate(problem.row_labels)
            if label[0] in SOFT_ROW_KINDS]
    # Columns [eps, u_1, v_1, ..., u_k, v_k, x]: with eps and the slacks
    # first, Phase I's lowest-index rule enters them before the strategy
    # columns, like a slack crash basis (canonical prop2: 74 + 80 pivots).
    offset = {r: 1 + 2 * k for k, r in enumerate(soft)}
    width = 1 + 2 * len(soft)
    matrix, rhs = [], []
    for i, row in enumerate(problem.matrix):
        if i in offset:
            # A_r x - eps + u = b and A_r x + eps - v = b bracket the rhs.
            low = [-one] + [zero] * (width - 1)
            low[offset[i]] = one
            high = [one] + [zero] * (width - 1)
            high[offset[i] + 1] = -one
            matrix.extend([low + list(row), high + list(row)])
            rhs.extend([problem.rhs[i], problem.rhs[i]])
        else:
            matrix.append([zero] * width + list(row))
            rhs.append(problem.rhs[i])
    cost = [one] + [zero] * (width - 1 + len(problem.column_labels))
    value, x = solve_min(cost, matrix, rhs)
    return value, tuple(x[width:])


@dataclass(frozen=True)
class BellInequality:
    """sum of coefficient * P(ab|Ma,Mb) <= bound, valid for every local
    deterministic strategy pair (hence for every LHV mixture).

    coefficients maps keys (meas_a, meas_b, outcome_a, outcome_b) to
    scalars; settings fixes the measurement order used to decode
    strategies; provenance records the generating certificate's rows.
    """

    coefficients: Tuple[Tuple[Tuple[str, str, int, int], Scalar], ...]
    bound: Scalar
    settings: Tuple[str, ...]
    provenance: Tuple[Tuple, ...]

    def strategy_value(self, strategy: Strategy) -> Scalar:
        abits, bbits = strategy
        place = {label: i for i, label in enumerate(self.settings)}
        total = self.bound - self.bound
        for (ma, mb, a, b), coeff in self.coefficients:
            if abits[place[ma]] == a and bbits[place[mb]] == b:
                total = total + coeff
        return total

    def max_strategy_value(self) -> Tuple[Scalar, Strategy]:
        """Best response: Bob answers each of Alice's 2^m strings setting
        by setting (ties to 0), so all_strategies' first maximum wins."""
        m = len(self.settings)
        if not m:
            raise TooFewMeasurements("no settings to enumerate")
        place = {label: i for i, label in enumerate(self.settings)}
        zero = self.bound - self.bound
        best = None
        for abits in itertools.product((0, 1), repeat=m):
            # gains[j][b]: what Bob's outcome b at setting j adds
            gains = [[zero, zero] for _ in range(m)]
            for (ma, mb, a, b), coeff in self.coefficients:
                if abits[place[ma]] == a:
                    pair = gains[place[mb]]
                    pair[b] = pair[b] + coeff
            bbits = tuple(int(compare(high, low) > 0) for low, high in gains)
            value = zero
            for pair, bit in zip(gains, bbits):
                value = value + pair[bit]
            if best is None or compare(value, best[0]) > 0:
                best = value, (abits, bbits)
        return best

    def satisfied_by_all_strategies(self) -> bool:
        best, _ = self.max_strategy_value()
        return compare(best, self.bound) <= 0

    def quantum_value(self, scenario: Scenario) -> Scalar:
        total = self.bound - self.bound
        for (ma, mb, a, b), coeff in self.coefficients:
            joint = bell_joint(scenario.measurement(ma),
                               scenario.measurement(mb), a, b)
            total = total + coeff * joint
        return total

    def quantum_margin(self, scenario: Scenario) -> Scalar:
        return self.quantum_value(scenario) - self.bound

    def to_json(self) -> dict:
        return {
            "terms": [{
                "probability": f"P({a}{b}|{ma},{mb})",
                "coefficient": scalar_to_json(coeff),
            } for (ma, mb, a, b), coeff in self.coefficients],
            "bound": scalar_to_json(self.bound),
            "provenance": [row_name(label) for label in self.provenance],
        }


def extract_inequality(certificate: FarkasCertificate,
                       problem: LPProblem) -> BellInequality:
    """Read a verified infeasibility certificate of the correlation problem
    as a Bell-type inequality.

    The certificate weight on each joint row becomes that probability's
    coefficient; minus the normalization weight becomes the bound.  The
    column of strategy pair s has ones in the normalization row and in the
    joint rows s answers, so (y^T A)_s = strategy_value(s) - bound: the
    best response over all pairs checks y^T A <= 0, and y^T b > 0 is
    checked too.  The quantum margin needs the scenario:
    quantum_margin recomputes it from the Born values where that is known.
    """
    for label in problem.row_labels:
        if label[0] not in ("normalization", "joint"):
            raise ValueError("inequality extraction needs correlation rows")
    y = certificate.y
    if len(y) != len(problem.row_labels):
        raise UnverifiedCertificate(
            f"certificate has {len(y)} entries for {len(problem.row_labels)} rows")
    zero = bound = y_dot_b = field(problem.exact)[0]
    coefficients = []
    provenance = []
    for label, weight, target in zip(problem.row_labels, y, problem.rhs):
        # int/Fraction entries join the problem's backend; an exact y
        # rejects floats
        weight = zero + weight
        if sign(weight) == 0:
            continue
        y_dot_b = y_dot_b + weight * target
        provenance.append(label)
        if label[0] == "normalization":
            bound = bound - weight
        else:
            coefficients.append((label[1:], weight))
    if sign(y_dot_b) <= 0:
        raise UnverifiedCertificate("certificate has y^T b <= 0")
    inequality = BellInequality(coefficients=tuple(coefficients),
                                bound=bound,
                                settings=problem.settings,
                                provenance=tuple(provenance))
    best, strategy = inequality.max_strategy_value()
    if compare(best, bound) > 0:
        raise UnverifiedCertificate(
            f"strategy {strategy_key(strategy)} reaches {best}, above the bound")
    return inequality


def completed_wigner_certificate(problem: LPProblem,
                                 convention: str = "strict01") -> FarkasCertificate:
    """Certificate form of the three-settings inequality
    P(01|M1,M2) + P(01|M2,M3) >= P(01|M1,M3).

    The three textbook terms alone do not bound general strategy pairs: a
    pair may break the perfect same-setting correlation the argument leans
    on.  Adding weight on the same-setting row P(10|M2,M2) (quantum value
    zero) closes that hole without changing the margin; the result is a
    valid certificate for the correlation problem.
    """
    if len(problem.settings) < 3:
        raise TooFewMeasurements("the inequality needs three settings")
    m1, m2, m3 = problem.settings[:3]
    zero, _, one = field(problem.exact)
    if convention not in ("strict01", "differ"):
        raise ValueError(f"unknown convention {convention!r}")
    weights: Dict[Tuple[str, str, int, int], Scalar] = {}
    pairs = [(0, 1)] if convention == "strict01" else [(0, 1), (1, 0)]
    for a, b in pairs:
        weights.update({(m1, m3, a, b): one, (m1, m2, a, b): -one,
                        (m2, m3, a, b): -one, (m2, m2, b, a): -one})
    y = []
    for label in problem.row_labels:
        if label[0] == "joint" and label[1:] in weights:
            y.append(weights[label[1:]])
        else:
            y.append(zero)
    return FarkasCertificate(y=tuple(y))


def event_mass(problem: LPProblem, x: Sequence[Scalar], state: str,
               measurement: str, outcome: int) -> Scalar:
    """Mass the solution x gives, under the named state's measure, to the
    cells responding with this outcome.  Recomputed from cell ids, not from
    the Born row, so it independently audits returned solutions."""
    if measurement not in problem.settings:
        raise UnknownMeasurement(measurement)
    mi = problem.settings.index(measurement)
    zero, half, one = field(problem.exact)
    total = zero
    seen = False
    for j, label in enumerate(problem.column_labels):
        if label[0] == "mu" and label[1] == state:
            seen = True
            weight = _response_weight(label[2][mi], outcome, zero, half, one)
            total = total + weight * x[j]
    if not seen:
        raise UnknownState(state)
    return total


def shared_mass_lower_bound(problem: LPProblem, x: Sequence[Scalar],
                            state_a: str, state_b: str, measurement: str,
                            outcome: int) -> Scalar:
    """Inclusion-exclusion floor on the mass the two states must share on
    one response event: mass_a + mass_b - 1."""
    return (event_mass(problem, x, state_a, measurement, outcome)
            + event_mass(problem, x, state_b, measurement, outcome) - 1)


def solution_model(problem: LPProblem, x: Sequence[Scalar]) -> OntologicalModel:
    """Ontological model read off a decomposition-problem solution: LP cells
    become ontic cells, solution weights become epistemic states, and cell
    ids fix the (state-independent) response table."""
    zero, half, one = field(problem.exact)
    cells = []
    weights: Dict[str, Dict[str, Scalar]] = {}
    for j, label in enumerate(problem.column_labels):
        if label[0] != "mu":
            raise ValueError("solution models need decomposition columns")
        _, state, cell = label
        if cell not in cells:
            cells.append(cell)
        if sign(x[j]) != 0:
            weights.setdefault(state, {})[cell] = x[j]
    responses = {
        setting: {cell: (_response_weight(cell[mi], 0, zero, half, one),
                         _response_weight(cell[mi], 1, zero, half, one))
                  for cell in cells}
        for mi, setting in enumerate(problem.settings)}
    return OntologicalModel(
        space=OnticSpace(cells=tuple(cells)),
        epistemics={state: EpistemicState(weights=table)
                    for state, table in weights.items()},
        responses=ResponseFunctions(table=responses))
