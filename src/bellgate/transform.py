"""Transformations between the two hidden-variable pictures.

forward_charlie turns a single-qubit ontological model whose decomposition
mixtures all agree into a bipartite local-hidden-variable model: a middle
party samples the common mixture and hands both sides the same ontic cell,
so each side answers with the cell's (deterministic) responses.
reverse_group goes the other way: conditioning a local-hidden-variable
model on one side's outcome leaves a single-qubit ontological model over
the surviving strategies.  decomposition_independence_check confirms that
regrouping by any setting's outcomes reconstitutes the same total measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .ontology import (
    EpistemicState,
    LocalHVModel,
    OnticSpace,
    OntologicalModel,
    ResponseFunctions,
    Strategy,
    UnknownMeasurement,
    canonicalize_deterministic,
    mixture_measure,
    strategy_key,
)
from .qubit import Scenario
from .scalar import Scalar, field, is_exact, is_zero, scalar_to_json, sign


class PremiseViolated(ValueError):
    """Two decomposition mixtures disagree; carries the cell and the gap."""

    def __init__(self, cell: str, difference: Scalar):
        super().__init__(
            f"decomposition mixtures differ on cell {cell!r} by {difference}")
        self.cell = cell
        self.difference = difference


class ZeroProbabilityCondition(ValueError):
    """Conditioning event has probability zero."""


def _add(table: dict, key, value: Scalar):
    """table[key] += value, where a missing key counts as zero."""
    table[key] = table[key] + value if key in table else value


def _deterministic_bit(responses: ResponseFunctions, measurement: str,
                       cell: str) -> int:
    return 1 if sign(responses.outcome_probability(measurement, cell, 1)) > 0 \
        else 0


def forward_charlie(model: OntologicalModel,
                    scenario: Scenario) -> LocalHVModel:
    """Bipartite model fed by the common decomposition mixture.

    The model is first refined to deterministic responses (which preserves
    every mixture identity).  Each surviving cell contributes its mixture
    weight to the diagonal strategy that answers every setting with the
    cell's response bits.
    """
    if not scenario.decompositions:
        raise ValueError("scenario lists no decompositions to mix")
    refined = canonicalize_deterministic(model)
    pairs = [tuple(state.label for state in scenario.decomposition_states(i))
             for i in range(len(scenario.decompositions))]
    mixture = mixture_measure(refined, pairs[0])
    for first, second in zip(pairs, pairs[1:]):
        left = mixture_measure(refined, first)
        right = mixture_measure(refined, second)
        for cell in refined.space.cells:
            difference = left.weight(cell) - right.weight(cell)
            if sign(difference) != 0:
                raise PremiseViolated(cell, difference)
    settings = tuple(m.label for m in scenario.measurements)
    for setting in settings:
        if setting not in refined.responses.measurements:
            raise UnknownMeasurement(setting)
    weights: Dict[Strategy, Scalar] = {}
    for cell in refined.space.cells:
        weight = mixture.weight(cell)
        if sign(weight) == 0:
            continue
        bits = tuple(_deterministic_bit(refined.responses, setting, cell)
                     for setting in settings)
        _add(weights, (bits, bits), weight)
    return LocalHVModel(settings=settings, weights=weights)


def reverse_group(lhv: LocalHVModel, side: str, measurement: str,
                  outcome: int) -> OntologicalModel:
    """Single-qubit model left on the opposite side after conditioning.

    The ontic space keeps the strategies that survive the condition; the
    epistemic state is the renormalized restriction of the weights; the
    responses read the opposite side's bits off each strategy.
    """
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', not {side!r}")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, not {outcome!r}")
    j = lhv.setting_index(measurement)
    conditioned = 1 if side == "B" else 0
    observed = 0 if side == "B" else 1
    survivors = []
    total: Optional[Scalar] = None
    for strategy, weight in lhv.weights.items():
        if strategy[conditioned][j] != outcome or sign(weight) == 0:
            continue
        survivors.append((strategy, weight))
        total = weight if total is None else total + weight
    if total is None or is_zero(total):
        raise ZeroProbabilityCondition(
            f"P({measurement}={outcome}) on side {side} is zero")
    zero, _, one = field(is_exact(total))
    cells = tuple(strategy_key(strategy) for strategy, _ in survivors)
    epistemic = EpistemicState(weights={
        strategy_key(strategy): weight / total
        for strategy, weight in survivors})
    responses = {
        setting: {strategy_key(strategy): ((one, zero)
                                           if strategy[observed][i] == 0
                                           else (zero, one))
                  for strategy, _ in survivors}
        for i, setting in enumerate(lhv.settings)}
    label = f"{side}:{measurement}={outcome}"
    return OntologicalModel(
        space=OnticSpace(cells=cells),
        epistemics={label: epistemic},
        responses=ResponseFunctions(table=responses))


@dataclass(frozen=True)
class IndependenceResidual:
    side: str
    setting: str
    strategy: str
    residual: Scalar


@dataclass(frozen=True)
class IndependenceReport:
    """Per (side, setting, strategy) gap between the outcome-weighted
    regrouped measures and the original weights."""

    residuals: Tuple[IndependenceResidual, ...]

    @property
    def all_zero(self) -> bool:
        return all(is_zero(entry.residual) for entry in self.residuals)

    def to_json(self) -> dict:
        return {
            "all_zero": self.all_zero,
            "residuals": [{
                "side": entry.side,
                "setting": entry.setting,
                "strategy": entry.strategy,
                "residual": scalar_to_json(entry.residual),
            } for entry in self.residuals],
        }


def decomposition_independence_check(lhv: LocalHVModel) -> IndependenceReport:
    """Check that every setting's outcome-grouping rebuilds the same measure.

    For each side and setting M, sums P(outcome|M) times the conditioned
    weight vector over the outcomes; the law of total probability makes the
    result equal the original weights, and the report carries the exact
    residuals so the identity is audited rather than assumed.
    """
    zero = field(is_exact(next(iter(lhv.weights.values()))))[0]
    residuals = []
    for side in ("A", "B"):
        picker = 0 if side == "A" else 1
        for j, setting in enumerate(lhv.settings):
            rebuilt: Dict[str, Scalar] = {}
            for outcome in (0, 1):
                total = None
                for strategy, weight in lhv.weights.items():
                    if strategy[picker][j] != outcome:
                        continue
                    total = weight if total is None else total + weight
                if total is None or is_zero(total):
                    continue
                conditioned = reverse_group(lhv, side, setting, outcome)
                label = f"{side}:{setting}={outcome}"
                epistemic = conditioned.epistemic(label)
                for cell, weight in epistemic.weights.items():
                    _add(rebuilt, cell, total * weight)
            for strategy, weight in lhv.weights.items():
                key = strategy_key(strategy)
                rebuilt_weight = rebuilt.get(key, zero)
                residuals.append(IndependenceResidual(
                    side=side, setting=setting, strategy=key,
                    residual=rebuilt_weight - weight))
    return IndependenceReport(residuals=tuple(residuals))


def merge_indistinguishable_cells(model: OntologicalModel) -> OntologicalModel:
    """Quotient of the ontic space gluing cells with identical responses.

    Cells that answer every measurement identically carry no distinguishable
    structure, so their weights pool onto one representative (the first such
    cell).  Predictions are unchanged; reverse_group outputs collapse to the
    opposite side's bits."""
    measurements = sorted(model.responses.measurements)
    signature_of: Dict[str, Tuple] = {}
    representative: Dict[Tuple, str] = {}
    for cell in model.space.cells:
        signature = tuple(
            (m,) + tuple(model.responses.outcome_probability(m, cell, k)
                         for k in (0, 1))
            for m in measurements)
        signature_of[cell] = signature
        if signature not in representative:
            representative[signature] = cell
    cells = tuple(cell for cell in model.space.cells
                  if representative[signature_of[cell]] == cell)
    epistemics = {}
    for label, state in model.epistemics.items():
        pooled: Dict[str, Scalar] = {}
        for cell, weight in state.weights.items():
            _add(pooled, representative[signature_of[cell]], weight)
        epistemics[label] = EpistemicState(weights=pooled)
    responses = {
        m: {cell: (model.responses.outcome_probability(m, cell, 0),
                   model.responses.outcome_probability(m, cell, 1))
            for cell in cells}
        for m in measurements}
    return OntologicalModel(space=OnticSpace(cells=cells),
                            epistemics=epistemics,
                            responses=ResponseFunctions(table=responses))
