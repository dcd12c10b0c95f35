"""Planar qubit kernel: states, binary measurements, Born rule, Bell joints.

Everything lives in the x-z plane of the Bloch sphere.  A pure state at angle
t is cos(t/2)|0> + sin(t/2)|1>; a measurement at angle t is the binary PVM
onto that state (outcome 0) and its antipode (outcome 1).  In exact mode all
angles are multiples of pi/4, so every probability below is an element of
Q(sqrt2) and is computed by table lookup, never by floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from .scalar import HALF_SQRT2, ONE, ZERO, MixedBackendError, Scalar

_TWO_PI = 2.0 * math.pi

# cos(k*pi/4) for k = 0..7
_COS_TABLE = (ONE, HALF_SQRT2, ZERO, -HALF_SQRT2, -ONE, -HALF_SQRT2, ZERO,
              HALF_SQRT2)


class TooFewMeasurements(ValueError):
    """Raised when an operation needs more measurement settings than given."""


@dataclass(frozen=True, slots=True)
class PlanarAngle:
    """Angle in the Bloch x-z plane.

    Exact mode stores an integer count of pi/4 steps, reduced mod 8; float
    mode stores radians in [0, 2*pi).  The two backends never mix.
    """

    value: Union[int, float]
    exact: bool = True

    def __post_init__(self):
        if self.exact:
            if not isinstance(self.value, int):
                raise TypeError("exact angles take an integer number of pi/4 steps")
            object.__setattr__(self, "value", self.value % 8)
        else:
            object.__setattr__(self, "value", math.fmod(float(self.value), _TWO_PI) % _TWO_PI)

    @classmethod
    def from_eighth_turns(cls, k: int) -> PlanarAngle:
        return cls(k, exact=True)

    @classmethod
    def from_radians(cls, radians: float) -> PlanarAngle:
        return cls(float(radians), exact=False)

    @property
    def radians(self) -> float:
        if self.exact:
            return self.value * math.pi / 4.0
        return self.value

    def _check_backend(self, other: PlanarAngle):
        if self.exact != other.exact:
            raise MixedBackendError("cannot combine exact and float angles")

    def __sub__(self, other: PlanarAngle) -> PlanarAngle:
        self._check_backend(other)
        return PlanarAngle(self.value - other.value, exact=self.exact)

    def antipode(self) -> PlanarAngle:
        if self.exact:
            return PlanarAngle(self.value + 4, exact=True)
        return PlanarAngle(self.value + math.pi, exact=False)

    def cos(self) -> Scalar:
        if self.exact:
            return _COS_TABLE[self.value]
        return math.cos(self.value)


@dataclass(frozen=True, slots=True)
class PlanarState:
    """Pure state cos(t/2)|0> + sin(t/2)|1> at Bloch angle t, with a label."""

    label: str
    angle: PlanarAngle


@dataclass(frozen=True, slots=True)
class PlanarMeasurement:
    """Binary PVM: outcome 0 projects onto |angle>, outcome 1 onto |angle+pi>."""

    label: str
    angle: PlanarAngle


def _check_outcome(outcome: int):
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")


def born_probability(state: PlanarState, meas: PlanarMeasurement,
                     outcome: int) -> Scalar:
    """P(outcome) for the measurement on the state: (1 + cos(t_M - t_S))/2.

    That equals cos^2((t_M - t_S)/2) for outcome 0, and needs only cosines of
    pi/4 multiples in exact mode.  Outcome 1 gets the complement.
    """
    _check_outcome(outcome)
    cos_gap = (meas.angle - state.angle).cos()
    p0 = (1 + cos_gap) / 2
    return p0 if outcome == 0 else 1 - p0


def bell_joint(meas_a: PlanarMeasurement, meas_b: PlanarMeasurement,
               outcome_a: int, outcome_b: int) -> Scalar:
    """Joint probability for the (|00> + |11>)/sqrt(2) state.

    P(a,b) = (1/4) * (1 + (-1)^(a xor b) * cos(t_A - t_B)): the planar
    correlator is E = cos(t_A - t_B) because <ZZ> = <XX> = 1 and <ZX> = 0.
    """
    _check_outcome(outcome_a)
    _check_outcome(outcome_b)
    cos_gap = (meas_a.angle - meas_b.angle).cos()
    if outcome_a != outcome_b:
        cos_gap = -cos_gap
    return (1 + cos_gap) / 4


def steered_state(meas_b: PlanarMeasurement, outcome_b: int) -> PlanarState:
    """State of the far qubit of (|00> + |11>)/sqrt(2) given the near outcome.

    All amplitudes are real, so conditioning on outcome b of a measurement at
    angle t leaves the other side in the planar state at t (b = 0) or t + pi
    (b = 1).
    """
    _check_outcome(outcome_b)
    angle = meas_b.angle if outcome_b == 0 else meas_b.angle.antipode()
    return PlanarState(label=_state_label(angle, f"{meas_b.label}:{outcome_b}"),
                       angle=angle)


_CANONICAL_MEAS_LABELS = {0: "Z", 1: "Z+X", 2: "X"}
_CANONICAL_STATE_LABELS = {
    0: "|0>", 1: "|pi/4>", 2: "|+>", 3: "|3pi/4>",
    4: "|1>", 5: "|5pi/4>", 6: "|->", 7: "|7pi/4>",
}


def _state_label(angle: PlanarAngle, fallback: str) -> str:
    if angle.exact:
        return _CANONICAL_STATE_LABELS[angle.value]
    return fallback


def _measurement_label(angle: PlanarAngle, index: int) -> str:
    if angle.exact:
        return _CANONICAL_MEAS_LABELS.get(angle.value, f"M{angle.value}pi4")
    return f"M{index}"


def _unique(label: str, used: set) -> str:
    candidate = label
    copy = 1
    while candidate in used:
        copy += 1
        candidate = f"{label}#{copy}"
    used.add(candidate)
    return candidate


def _labeled(items, label: str, kind: str):
    for item in items:
        if item.label == label:
            return item
    raise KeyError(f"no {kind} labeled {label!r}")


@dataclass(frozen=True)
class Scenario:
    """One party's measurement/state family for the hidden-variable question.

    Each measurement contributes its two eigenstates, declared as an
    equal-weight decomposition of the maximally mixed state; decomposition i
    is the eigenpair of measurement i.
    """

    measurements: Tuple[PlanarMeasurement, ...]
    states: Tuple[PlanarState, ...]
    decompositions: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        exact = {m.angle.exact for m in self.measurements}
        exact |= {s.angle.exact for s in self.states}
        if len(exact) > 1:
            raise MixedBackendError("scenario mixes exact and float angles")
        for kind, items in (("measurement", self.measurements),
                            ("state", self.states)):
            labels = [item.label for item in items]
            if len(set(labels)) != len(labels):
                raise ValueError(f"{kind} labels must be unique")
        for i, j in self.decompositions:
            gap = self.states[i].angle - self.states[j].angle
            if gap.exact:
                antipodal = gap.value == 4
            else:
                antipodal = abs(gap.radians - math.pi) < 1e-9
            if not antipodal:
                raise ValueError(
                    f"decomposition ({self.states[i].label}, "
                    f"{self.states[j].label}) is not an antipodal pair")

    @property
    def exact(self) -> bool:
        return all(m.angle.exact for m in self.measurements)

    @property
    def mode(self) -> str:
        return "exact" if self.exact else "float"

    def measurement(self, label: str) -> PlanarMeasurement:
        return _labeled(self.measurements, label, "measurement")

    def state(self, label: str) -> PlanarState:
        return _labeled(self.states, label, "state")

    def decomposition_states(self, index: int) -> Tuple[PlanarState, PlanarState]:
        i, j = self.decompositions[index]
        return self.states[i], self.states[j]


def build_scenario(angles: Sequence[PlanarAngle]) -> Scenario:
    """Scenario from measurement angles: eigenpair states, one decomposition
    per measurement.  Duplicate auto-generated labels get a #n suffix."""
    measurements: List[PlanarMeasurement] = []
    states: List[PlanarState] = []
    decompositions: List[Tuple[int, int]] = []
    used_meas: set = set()
    used_state: set = set()
    for index, angle in enumerate(angles):
        label = _unique(_measurement_label(angle, index), used_meas)
        meas = PlanarMeasurement(label=label, angle=angle)
        measurements.append(meas)
        plus = PlanarState(
            label=_unique(_state_label(angle, f"{label}:0"), used_state),
            angle=angle)
        minus = PlanarState(
            label=_unique(_state_label(angle.antipode(), f"{label}:1"), used_state),
            angle=angle.antipode())
        decompositions.append((len(states), len(states) + 1))
        states.extend([plus, minus])
    return Scenario(measurements=tuple(measurements), states=tuple(states),
                    decompositions=tuple(decompositions))


def canonical_scenario() -> Scenario:
    """Measurements Z (0), Z+X (pi/4), X (pi/2) with their six eigenstates."""
    return build_scenario([PlanarAngle.from_eighth_turns(k) for k in (0, 1, 2)])


def wigner_inequality_value(scenario: Scenario, convention: str = "strict01") -> Scalar:
    """LHS - RHS of P(01|M1,M2) + P(01|M2,M3) >= P(01|M1,M3).

    Uses the scenario's first three measurements in that role order.  The
    strict01 convention reads P(01) as the joint probability of outcomes
    (0, 1); the differ convention reads it as P(outcomes differ), twice the
    former here by symmetry.  A negative return is a quantum violation.
    """
    if len(scenario.measurements) < 3:
        raise TooFewMeasurements(
            "the three-settings inequality needs at least 3 measurements")
    if convention not in ("strict01", "differ"):
        raise ValueError(f"unknown convention {convention!r}")
    m1, m2, m3 = scenario.measurements[:3]

    def term(x, y):
        p01 = bell_joint(x, y, 0, 1)
        if convention == "strict01":
            return p01
        return p01 + bell_joint(x, y, 1, 0)

    return term(m1, m2) + term(m2, m3) - term(m1, m3)


def _angle_from_json(value, mode: str) -> PlanarAngle:
    if mode == "exact":
        if isinstance(value, bool) or not isinstance(value, int):
            raise MixedBackendError(
                f"exact-mode angle must be an integer pi/4 count, got {value!r}")
        return PlanarAngle.from_eighth_turns(value)
    return PlanarAngle.from_radians(float(value))


def scenario_to_json(scenario: Scenario) -> dict:
    return {
        "mode": scenario.mode,
        "measurements": [{"label": m.label, "angle": m.angle.value}
                         for m in scenario.measurements],
        "states": [{"label": s.label, "angle": s.angle.value}
                   for s in scenario.states],
        "decompositions": [list(pair) for pair in scenario.decompositions],
    }


def scenario_from_json(blob: dict) -> Scenario:
    mode = blob.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown scenario mode {mode!r}")
    measurements = tuple(
        PlanarMeasurement(label=entry["label"],
                          angle=_angle_from_json(entry["angle"], mode))
        for entry in blob["measurements"])
    states = tuple(
        PlanarState(label=entry["label"],
                    angle=_angle_from_json(entry["angle"], mode))
        for entry in blob["states"])
    decompositions = tuple((int(i), int(j)) for i, j in blob["decompositions"])
    return Scenario(measurements=measurements, states=states,
                    decompositions=decompositions)
