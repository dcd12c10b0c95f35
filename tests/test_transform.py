"""Tests for the picture-changing transformations."""

import random
from fractions import Fraction

import pytest

from bellgate.ontology import (
    EpistemicState,
    LocalHVModel,
    OnticSpace,
    OntologicalModel,
    ResponseFunctions,
    UnknownMeasurement,
    UnknownSetting,
    all_strategies,
    predict,
    predict_lhv,
    strategy_from_key,
)
from bellgate.feasibility import check_prop1
from bellgate.qubit import (
    PlanarAngle,
    PlanarMeasurement,
    PlanarState,
    Scenario,
    bell_joint,
    born_probability,
    build_scenario,
    canonical_scenario,
    steered_state,
)
from bellgate.scalar import ExactScalar, is_zero, sign
from bellgate.transform import (
    PremiseViolated,
    ZeroProbabilityCondition,
    decomposition_independence_check,
    forward_charlie,
    merge_indistinguishable_cells,
    reverse_group,
)

from fixtures import (
    product_model,
    random_balanced_diagonal_lhv,
    random_lhv,
    toy_two_setting_model,
    uniform_lhv,
)


def eighth(k):
    return PlanarAngle.from_eighth_turns(k)


def ex(p, q=1):
    return ExactScalar(Fraction(p, q), Fraction(0))


HIGH = ExactScalar(Fraction(1, 2), Fraction(1, 4))
LOW = ExactScalar(Fraction(1, 2), Fraction(-1, 4))


def two_setting_scenario():
    return build_scenario([eighth(0), eighth(2)])


def constant_zero_model():
    states = ("|0>", "|1>", "|pi/4>", "|5pi/4>", "|+>", "|->")
    point = EpistemicState(weights={"c": ex(1)})
    return OntologicalModel(
        space=OnticSpace(cells=("c",)),
        epistemics={label: point for label in states},
        responses=ResponseFunctions(table={
            m: {"c": (ex(1), ex(0))} for m in ("Z", "Z+X", "X")}),
    )


class TestForwardCharlie:
    def test_toy_model_gives_uniform_diagonal(self):
        lhv = forward_charlie(toy_two_setting_model(), two_setting_scenario())
        assert lhv.settings == ("Z", "X")
        quarter = ex(1, 4)
        for strategy in all_strategies(2):
            abits, bbits = strategy
            expected = quarter if abits == bbits else ex(0)
            assert lhv.weight(strategy) == expected

    def test_toy_model_reproduces_joint_table(self):
        scenario = two_setting_scenario()
        lhv = forward_charlie(toy_two_setting_model(), scenario)
        for ma in ("Z", "X"):
            for mb in ("Z", "X"):
                for a in (0, 1):
                    for b in (0, 1):
                        expected = bell_joint(scenario.measurement(ma),
                                              scenario.measurement(mb), a, b)
                        assert predict_lhv(lhv, ma, mb, a, b) == expected

    def test_constant_zero_model_gives_point_mass(self):
        lhv = forward_charlie(constant_zero_model(), canonical_scenario())
        zeros = (0, 0, 0)
        assert lhv.weight((zeros, zeros)) == ex(1)
        assert predict_lhv(lhv, "Z", "X", 0, 0) == ex(1)
        assert predict_lhv(lhv, "Z", "X", 0, 1) == ex(0)

    def test_stochastic_input_is_refined_first(self):
        det = {"lo": (ex(1), ex(0)), "hi": (ex(0), ex(1))}
        coin = {"lo": (HIGH, LOW), "hi": (LOW, HIGH)}
        model = OntologicalModel(
            space=OnticSpace(cells=("lo", "hi")),
            epistemics={"|pi/4>": EpistemicState(weights={"lo": ex(1)}),
                        "|5pi/4>": EpistemicState(weights={"hi": ex(1)})},
            responses=ResponseFunctions(table={"Z+X": det, "Z": coin}),
        )
        scenario = Scenario(
            measurements=(PlanarMeasurement("Z+X", eighth(1)),
                          PlanarMeasurement("Z", eighth(0))),
            states=(PlanarState("|pi/4>", eighth(1)),
                    PlanarState("|5pi/4>", eighth(5))),
            decompositions=((0, 1),))
        lhv = forward_charlie(model, scenario)
        half_high = ExactScalar(Fraction(1, 4), Fraction(1, 8))
        assert predict_lhv(lhv, "Z+X", "Z", 0, 0) == half_high
        total = ex(0)
        for strategy in all_strategies(2):
            total = total + lhv.weight(strategy)
        assert total == ex(1)

    def test_product_model_violates_premise(self):
        scenario = canonical_scenario()
        # no canonical-scenario model can pass the gate: re-assert why
        assert not check_prop1(scenario).feasible
        with pytest.raises(PremiseViolated) as caught:
            forward_charlie(product_model(scenario), scenario)
        assert isinstance(caught.value.cell, str)
        assert sign(caught.value.difference) != 0

    def test_missing_response_measurement(self):
        half = ex(1, 2)
        model = OntologicalModel(
            space=OnticSpace(cells=("00", "01", "10", "11")),
            epistemics={
                "|0>": EpistemicState(weights={"00": half, "01": half}),
                "|1>": EpistemicState(weights={"10": half, "11": half}),
                "|+>": EpistemicState(weights={"00": half, "10": half}),
                "|->": EpistemicState(weights={"01": half, "11": half}),
            },
            responses=ResponseFunctions(table={
                "Z": {cell: (ex(1), ex(0)) if cell[0] == "0"
                      else (ex(0), ex(1))
                      for cell in ("00", "01", "10", "11")}}),
        )
        with pytest.raises(UnknownMeasurement):
            forward_charlie(model, two_setting_scenario())

    def test_scenario_without_decompositions(self):
        scenario = two_setting_scenario()
        bare = Scenario(measurements=scenario.measurements,
                        states=scenario.states, decompositions=())
        with pytest.raises(ValueError):
            forward_charlie(toy_two_setting_model(), bare)


class TestReverseGroup:
    def test_conditional_identity_on_random_models(self):
        rng = random.Random(20241005)
        settings = ("Z", "Z+X", "X")
        checked = 0
        for _ in range(30):
            lhv = random_lhv(rng, settings)
            for side, picker in (("A", 0), ("B", 1)):
                meas = settings[rng.randrange(3)]
                outcome = rng.randrange(2)
                j = lhv.setting_index(meas)
                total = ex(0)
                for strategy, weight in lhv.weights.items():
                    if strategy[picker][j] == outcome:
                        total = total + weight
                if is_zero(total):
                    with pytest.raises(ZeroProbabilityCondition):
                        reverse_group(lhv, side, meas, outcome)
                    continue
                model = reverse_group(lhv, side, meas, outcome)
                label = f"{side}:{meas}={outcome}"
                for other in settings:
                    for a in (0, 1):
                        if side == "B":
                            joint = predict_lhv(lhv, other, meas, a, outcome)
                        else:
                            joint = predict_lhv(lhv, meas, other, outcome, a)
                        assert predict(model, label, other, a) \
                            == joint / total
                        checked += 1
        assert checked > 100

    def test_steered_plus_state(self):
        scenario = two_setting_scenario()
        lhv = forward_charlie(toy_two_setting_model(), scenario)
        model = reverse_group(lhv, "B", "X", 0)
        label = "B:X=0"
        epistemic = model.epistemic(label)
        assert epistemic.weights == {"00|00": ex(1, 2), "10|10": ex(1, 2)}
        steered = steered_state(scenario.measurement("X"), 0)
        for meas in ("Z", "X"):
            for outcome in (0, 1):
                assert predict(model, label, meas, outcome) == \
                    born_probability(steered, scenario.measurement(meas),
                                     outcome)

    def test_uniform_lhv_conditions_to_coin(self):
        lhv = uniform_lhv(("Z", "Z+X", "X"))
        half = ex(1, 2)
        for side in ("A", "B"):
            model = reverse_group(lhv, side, "Z+X", 1)
            label = f"{side}:Z+X=1"
            for meas in ("Z", "Z+X", "X"):
                for outcome in (0, 1):
                    assert predict(model, label, meas, outcome) == half

    def test_zero_probability_condition(self):
        zeros = (0, 0, 0)
        lhv = LocalHVModel(settings=("Z", "Z+X", "X"),
                           weights={(zeros, zeros): ex(1)})
        with pytest.raises(ZeroProbabilityCondition):
            reverse_group(lhv, "B", "Z", 1)

    def test_bad_side_and_outcome(self):
        lhv = uniform_lhv(("Z", "X"))
        with pytest.raises(ValueError):
            reverse_group(lhv, "C", "Z", 0)
        with pytest.raises(ValueError):
            reverse_group(lhv, "A", "Z", 2)
        with pytest.raises(UnknownSetting):
            reverse_group(lhv, "A", "Q", 0)


class TestIndependenceCheck:
    def test_toy_forward_output(self):
        lhv = forward_charlie(toy_two_setting_model(), two_setting_scenario())
        report = decomposition_independence_check(lhv)
        assert report.all_zero
        # 2 sides x 2 settings x 4 weighted strategies
        assert len(report.residuals) == 16
        assert report.to_json()["all_zero"] is True

    def test_random_models_rebuild_exactly(self):
        rng = random.Random(20241006)
        for _ in range(20):
            lhv = random_lhv(rng, ("Z", "Z+X", "X"))
            assert decomposition_independence_check(lhv).all_zero


class TestRoundTrip:
    def build_combined(self, lhv, setting):
        low = reverse_group(lhv, "B", setting, 0)
        high = reverse_group(lhv, "B", setting, 1)
        cells = tuple(dict.fromkeys(low.space.cells + high.space.cells))
        count = len(lhv.settings)
        one, zero = ex(1), ex(0)
        responses = {
            name: {cell: ((one, zero)
                          if strategy_from_key(cell, count)[0][i] == 0
                          else (zero, one))
                   for cell in cells}
            for i, name in enumerate(lhv.settings)}
        return OntologicalModel(
            space=OnticSpace(cells=cells),
            epistemics={"|0>": low.epistemic(f"B:{setting}=0"),
                        "|1>": high.epistemic(f"B:{setting}=1")},
            responses=ResponseFunctions(table=responses))

    def test_balanced_diagonal_models_round_trip(self):
        rng = random.Random(20241007)
        base = canonical_scenario()
        scenario = Scenario(measurements=base.measurements,
                            states=(base.state("|0>"), base.state("|1>")),
                            decompositions=((0, 1),))
        for _ in range(50):
            lhv = random_balanced_diagonal_lhv(rng, ("Z", "Z+X", "X"))
            combined = self.build_combined(lhv, "Z")
            rebuilt = forward_charlie(combined, scenario)
            for strategy in all_strategies(3):
                assert rebuilt.weight(strategy) == lhv.weight(strategy)


class TestMergeCells:
    def test_reverse_output_collapses_to_opposite_bits(self):
        lhv = uniform_lhv(("Z", "X"))
        model = reverse_group(lhv, "B", "X", 0)
        label = "B:X=0"
        assert len(model.space.cells) == 8
        merged = merge_indistinguishable_cells(model)
        assert len(merged.space.cells) == 4
        for meas in ("Z", "X"):
            for outcome in (0, 1):
                assert predict(merged, label, meas, outcome) == \
                    predict(model, label, meas, outcome)

    def test_distinct_cells_untouched(self):
        model = toy_two_setting_model()
        merged = merge_indistinguishable_cells(model)
        assert set(merged.space.cells) == set(model.space.cells)
