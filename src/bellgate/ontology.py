"""Ontological models for one qubit and local hidden-variable models for two.

A single-system model is a finite ontic space, one epistemic distribution per
prepared state, and response functions keyed by measurement and ontic cell
only (state-independence is structural: there is nowhere to put a state
index).  A bipartite local model is a probability weight on deterministic
strategy pairs.  Both validate their probability structure on construction
and are immutable afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .qubit import Scenario, _check_outcome, born_probability
from .scalar import (
    Scalar,
    ensure_same_backend,
    one_like,
    scalar_from_json,
    scalar_to_json,
    sign,
    zero_like,
)


class UnknownState(KeyError):
    """The model has no epistemic state under that label."""


class UnknownMeasurement(KeyError):
    """The model has no response functions under that measurement label."""


class UnknownSetting(KeyError):
    """The LHV model has no measurement setting under that label."""


def _check_distribution(values: Sequence[Scalar], what: str):
    exact = ensure_same_backend(*values)
    total = None
    for v in values:
        if sign(v) < 0:
            raise ValueError(f"{what} has a negative weight")
        total = v if total is None else total + v
    if total is None or sign(total - one_like(total)) != 0:
        raise ValueError(f"{what} must sum to 1")
    return exact


@dataclass(frozen=True)
class OnticSpace:
    """Finite, ordered list of ontic cell identifiers."""

    cells: Tuple[str, ...]

    def __post_init__(self):
        if len(self.cells) == 0:
            raise ValueError("ontic space needs at least one cell")
        if len(set(self.cells)) != len(self.cells):
            raise ValueError("ontic cell identifiers must be unique")

    def __contains__(self, cell: str) -> bool:
        return cell in self.cells


@dataclass(frozen=True)
class EpistemicState:
    """Probability distribution over ontic cells (absent cells carry zero)."""

    weights: Mapping[str, Scalar]

    def __post_init__(self):
        object.__setattr__(self, "weights", dict(self.weights))
        _check_distribution(list(self.weights.values()), "epistemic state")

    def weight(self, cell: str) -> Scalar:
        if cell in self.weights:
            return self.weights[cell]
        return zero_like(next(iter(self.weights.values())))


@dataclass(frozen=True)
class ResponseFunctions:
    """Outcome distributions keyed by (measurement label, ontic cell).

    table[meas][cell] = (p_outcome0, p_outcome1).  Keying by measurement and
    cell only is what makes responses state-independent.
    """

    table: Mapping[str, Mapping[str, Tuple[Scalar, Scalar]]]

    def __post_init__(self):
        frozen = {meas: {cell: (p[0], p[1]) for cell, p in cells.items()}
                  for meas, cells in self.table.items()}
        object.__setattr__(self, "table", frozen)
        for meas, cells in self.table.items():
            for cell, pair in cells.items():
                exact = ensure_same_backend(*pair)
                if sign(pair[0]) < 0 or sign(pair[1]) < 0:
                    raise ValueError(
                        f"response({meas}, {cell}) has a negative probability")
                if sign(pair[0] + pair[1] - one_like(pair[0])) != 0:
                    raise ValueError(
                        f"response({meas}, {cell}) does not sum to 1")

    @property
    def measurements(self) -> Tuple[str, ...]:
        return tuple(self.table.keys())

    def outcome_probability(self, meas: str, cell: str, outcome: int) -> Scalar:
        _check_outcome(outcome)
        if meas not in self.table:
            raise UnknownMeasurement(meas)
        try:
            pair = self.table[meas][cell]
        except KeyError:
            raise KeyError(f"no response for cell {cell!r} under {meas!r}")
        return pair[outcome]

    def is_deterministic(self) -> bool:
        for cells in self.table.values():
            for pair in cells.values():
                if sign(pair[0]) != 0 and sign(pair[0] - one_like(pair[0])) != 0:
                    return False
        return True


@dataclass(frozen=True)
class OntologicalModel:
    """Ontic space + per-state epistemic distributions + response functions."""

    space: OnticSpace
    epistemics: Mapping[str, EpistemicState]
    responses: ResponseFunctions

    def __post_init__(self):
        object.__setattr__(self, "epistemics", dict(self.epistemics))
        for state, epistemic in self.epistemics.items():
            for cell in epistemic.weights:
                if cell not in self.space:
                    raise ValueError(
                        f"epistemic state {state!r} references unknown cell {cell!r}")
        for meas, cells in self.responses.table.items():
            for cell in cells:
                if cell not in self.space:
                    raise ValueError(
                        f"response for {meas!r} references unknown cell {cell!r}")
            for cell in self.space.cells:
                if cell not in cells:
                    raise ValueError(
                        f"response for {meas!r} misses cell {cell!r}")
        everything = [w for e in self.epistemics.values()
                      for w in e.weights.values()]
        everything += [p for cells in self.responses.table.values()
                       for pair in cells.values() for p in pair]
        if everything:
            ensure_same_backend(*everything)

    def epistemic(self, state: str) -> EpistemicState:
        if state not in self.epistemics:
            raise UnknownState(state)
        return self.epistemics[state]


def predict(model: OntologicalModel, state: str, meas: str,
            outcome: int) -> Scalar:
    """P(outcome | measure meas on the preparation of state):
    sum over cells of epistemic weight times response probability."""
    epistemic = model.epistemic(state)
    if meas not in model.responses.table:
        raise UnknownMeasurement(meas)
    total = None
    for cell, weight in epistemic.weights.items():
        term = weight * model.responses.outcome_probability(meas, cell, outcome)
        total = term if total is None else total + term
    return total


def mixture_measure(model: OntologicalModel,
                    pair: Tuple[str, str]) -> EpistemicState:
    """Cellwise (mu_1 + mu_2)/2 for an equal-weight two-state mixture."""
    first = model.epistemic(pair[0])
    second = model.epistemic(pair[1])
    combined: Dict[str, Scalar] = {}
    for cell in model.space.cells:
        value = (first.weight(cell) + second.weight(cell)) / 2
        if sign(value) != 0:
            combined[cell] = value
    return EpistemicState(weights=combined)


def canonicalize_deterministic(model: OntologicalModel) -> OntologicalModel:
    """Refine cells until every response is 0/1-valued, preserving predict.

    Each cell splits into one sub-cell per joint outcome assignment, carrying
    the product of the parent's response probabilities for that assignment.
    The multipliers are state-independent, so every epistemic state is
    refined with the same factors and all predictions, and all
    mixture-measure equalities, survive exactly.
    """
    measurements = model.responses.measurements
    refined_cells: List[str] = []
    multipliers: Dict[str, Scalar] = {}
    parents: Dict[str, str] = {}
    assignments: Dict[str, Tuple[int, ...]] = {}
    for cell in model.space.cells:
        for bits in _all_bitstrings(len(measurements)):
            factor = None
            for meas, bit in zip(measurements, bits):
                p = model.responses.outcome_probability(meas, cell, bit)
                factor = p if factor is None else factor * p
            if factor is None or sign(factor) == 0:
                continue
            name = f"{cell}.{''.join(str(b) for b in bits)}"
            refined_cells.append(name)
            multipliers[name] = factor
            parents[name] = cell
            assignments[name] = bits
    space = OnticSpace(cells=tuple(refined_cells))
    epistemics = {}
    for state, epistemic in model.epistemics.items():
        weights: Dict[str, Scalar] = {}
        for name in refined_cells:
            value = epistemic.weight(parents[name]) * multipliers[name]
            if sign(value) != 0:
                weights[name] = value
        epistemics[state] = EpistemicState(weights=weights)
    sample = multipliers[refined_cells[0]]
    one = one_like(sample)
    zero = zero_like(sample)
    responses = ResponseFunctions(table={
        meas: {name: ((one, zero) if assignments[name][k] == 0 else (zero, one))
               for name in refined_cells}
        for k, meas in enumerate(measurements)})
    return OntologicalModel(space=space, epistemics=epistemics,
                            responses=responses)


def _all_bitstrings(length: int) -> Iterable[Tuple[int, ...]]:
    for index in range(2 ** length):
        yield tuple((index >> (length - 1 - k)) & 1 for k in range(length))


@dataclass(frozen=True)
class BornResidual:
    state: str
    measurement: str
    outcome: int
    predicted: Scalar
    expected: Scalar

    @property
    def residual(self) -> Scalar:
        return self.predicted - self.expected


@dataclass(frozen=True)
class MixtureResidual:
    first_decomposition: int
    second_decomposition: int
    cell: str
    difference: Scalar


@dataclass(frozen=True)
class ValidationReport:
    """Per-row residuals of a model against a scenario's quantum predictions."""

    born: Tuple[BornResidual, ...]
    mixtures: Tuple[MixtureResidual, ...]

    @property
    def quantum_compatible(self) -> bool:
        return all(sign(entry.residual) == 0 for entry in self.born)

    @property
    def decomposition_compatible(self) -> bool:
        return all(sign(entry.difference) == 0 for entry in self.mixtures)

    def to_json(self) -> dict:
        return {
            "quantum_compatible": self.quantum_compatible,
            "decomposition_compatible": self.decomposition_compatible,
            "born": [{
                "state": e.state, "measurement": e.measurement,
                "outcome": e.outcome,
                "predicted": scalar_to_json(e.predicted),
                "expected": scalar_to_json(e.expected),
                "residual": scalar_to_json(e.residual),
            } for e in self.born],
            "mixture_differences": [{
                "decompositions": [e.first_decomposition, e.second_decomposition],
                "cell": e.cell,
                "difference": scalar_to_json(e.difference),
            } for e in self.mixtures],
        }


def validate(model: OntologicalModel, scenario: Scenario) -> ValidationReport:
    """Compare model predictions against Born values, and mixture measures
    against each other, with exact residuals."""
    born_entries = []
    for state in scenario.states:
        for meas in scenario.measurements:
            for outcome in (0, 1):
                predicted = predict(model, state.label, meas.label, outcome)
                expected = born_probability(state, meas, outcome)
                born_entries.append(BornResidual(
                    state=state.label, measurement=meas.label,
                    outcome=outcome, predicted=predicted, expected=expected))
    mixture_entries = []
    mixtures = []
    for index in range(len(scenario.decompositions)):
        a, b = scenario.decomposition_states(index)
        mixtures.append(mixture_measure(model, (a.label, b.label)))
    for i in range(len(mixtures)):
        for j in range(i + 1, len(mixtures)):
            for cell in model.space.cells:
                difference = mixtures[i].weight(cell) - mixtures[j].weight(cell)
                mixture_entries.append(MixtureResidual(
                    first_decomposition=i, second_decomposition=j,
                    cell=cell, difference=difference))
    return ValidationReport(born=tuple(born_entries),
                            mixtures=tuple(mixture_entries))


Strategy = Tuple[Tuple[int, ...], Tuple[int, ...]]


def all_strategies(settings_count: int) -> List[Strategy]:
    """Every deterministic local strategy pair for m settings per side."""
    bitstrings = list(_all_bitstrings(settings_count))
    return [(a, b) for a in bitstrings for b in bitstrings]


def strategy_key(strategy: Strategy) -> str:
    a, b = strategy
    return "".join(str(bit) for bit in a) + "|" + "".join(str(bit) for bit in b)


def strategy_from_key(key: str, settings_count: int) -> Strategy:
    a_part, _, b_part = key.partition("|")
    if len(a_part) != settings_count or len(b_part) != settings_count:
        raise ValueError(f"strategy key {key!r} does not match "
                         f"{settings_count} settings")
    if not set(a_part + b_part) <= {"0", "1"}:
        raise ValueError(f"strategy key {key!r} has non-binary outcomes")
    return tuple(int(c) for c in a_part), tuple(int(c) for c in b_part)


@dataclass(frozen=True)
class LocalHVModel:
    """Probability weights over deterministic strategy pairs.

    settings lists the m measurement labels, shared by both sides; a strategy
    fixes one outcome per setting per side.  Absent strategies carry zero.
    """

    settings: Tuple[str, ...]
    weights: Mapping[Strategy, Scalar]

    def __post_init__(self):
        if len(set(self.settings)) != len(self.settings):
            raise ValueError("setting labels must be unique")
        object.__setattr__(self, "weights", dict(self.weights))
        m = len(self.settings)
        for (a_bits, b_bits) in self.weights:
            if len(a_bits) != m or len(b_bits) != m:
                raise ValueError("strategy length does not match settings")
        _check_distribution(list(self.weights.values()), "LHV weights")

    def setting_index(self, label: str) -> int:
        try:
            return self.settings.index(label)
        except ValueError:
            raise UnknownSetting(label)

    def weight(self, strategy: Strategy) -> Scalar:
        if strategy in self.weights:
            return self.weights[strategy]
        return zero_like(next(iter(self.weights.values())))


def predict_lhv(model: LocalHVModel, meas_a: str, meas_b: str,
                a: int, b: int) -> Scalar:
    """P(a, b | settings meas_a, meas_b): total weight of matching strategies."""
    _check_outcome(a)
    _check_outcome(b)
    index_a = model.setting_index(meas_a)
    index_b = model.setting_index(meas_b)
    total = zero_like(next(iter(model.weights.values())))
    for (a_bits, b_bits), weight in model.weights.items():
        if a_bits[index_a] == a and b_bits[index_b] == b:
            total = total + weight
    return total


def model_to_json(model: OntologicalModel) -> dict:
    everything = next(iter(next(iter(model.responses.table.values())).values()))
    mode = "exact" if ensure_same_backend(*everything) else "float"
    return {
        "mode": mode,
        "cells": list(model.space.cells),
        "epistemics": {
            state: {cell: scalar_to_json(w) for cell, w in e.weights.items()}
            for state, e in model.epistemics.items()},
        "responses": {
            meas: {cell: [scalar_to_json(pair[0]), scalar_to_json(pair[1])]
                   for cell, pair in cells.items()}
            for meas, cells in model.responses.table.items()},
    }


def model_from_json(blob: dict) -> OntologicalModel:
    mode = blob.get("mode", "exact")
    space = OnticSpace(cells=tuple(blob["cells"]))
    epistemics = {
        state: EpistemicState(weights={
            cell: scalar_from_json(value, mode)
            for cell, value in weights.items()})
        for state, weights in blob["epistemics"].items()}
    responses = ResponseFunctions(table={
        meas: {cell: (scalar_from_json(pair[0], mode),
                      scalar_from_json(pair[1], mode))
               for cell, pair in cells.items()}
        for meas, cells in blob["responses"].items()})
    return OntologicalModel(space=space, epistemics=epistemics,
                            responses=responses)


def lhv_to_json(model: LocalHVModel) -> dict:
    mode = "exact" if ensure_same_backend(*model.weights.values()) else "float"
    return {
        "mode": mode,
        "settings": list(model.settings),
        "weights": {strategy_key(s): scalar_to_json(w)
                    for s, w in model.weights.items()},
    }


def lhv_from_json(blob: dict) -> LocalHVModel:
    mode = blob.get("mode", "exact")
    settings = tuple(blob["settings"])
    weights = {
        strategy_from_key(key, len(settings)): scalar_from_json(value, mode)
        for key, value in blob["weights"].items()}
    return LocalHVModel(settings=settings, weights=weights)
