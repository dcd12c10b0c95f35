"""Tests for ontological and local hidden-variable model types."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bellgate.feasibility import build_prop1, solution_model, solve_problem
from bellgate.ontology import (
    EpistemicState,
    LocalHVModel,
    OnticSpace,
    OntologicalModel,
    ResponseFunctions,
    UnknownMeasurement,
    UnknownSetting,
    UnknownState,
    all_strategies,
    canonicalize_deterministic,
    lhv_from_json,
    lhv_to_json,
    mixture_measure,
    model_from_json,
    model_to_json,
    predict,
    predict_lhv,
    strategy_from_key,
    strategy_key,
    validate,
)
from bellgate.qubit import (
    PlanarAngle,
    Scenario,
    born_probability,
    build_scenario,
    canonical_scenario,
)
from bellgate.scalar import ExactScalar, MixedBackendError, ONE, sign

from fixtures import product_model, random_lhv, toy_two_setting_model, uniform_lhv


def ex(value):
    return ExactScalar.from_rational(Fraction(value))


HALF = ex(Fraction(1, 2))
HIGH = ExactScalar(Fraction(1, 2), Fraction(1, 4))


def two_cell_model(z_response=None):
    """Cells lo/hi assigned to |pi/4> and |5pi/4>; Z+X reads the cell."""
    det = {"lo": (ex(1), ex(0)), "hi": (ex(0), ex(1))}
    if z_response is None:
        z_response = {"lo": (HIGH, ONE - HIGH), "hi": (ONE - HIGH, HIGH)}
    return OntologicalModel(
        space=OnticSpace(cells=("lo", "hi")),
        epistemics={
            "|pi/4>": EpistemicState(weights={"lo": ex(1)}),
            "|5pi/4>": EpistemicState(weights={"hi": ex(1)}),
        },
        responses=ResponseFunctions(table={"Z+X": det, "Z": z_response}),
    )


class TestTypes:
    def test_space_needs_unique_cells(self):
        with pytest.raises(ValueError):
            OnticSpace(cells=("a", "a"))
        with pytest.raises(ValueError):
            OnticSpace(cells=())

    def test_epistemic_must_normalize(self):
        with pytest.raises(ValueError):
            EpistemicState(weights={"a": HALF})
        with pytest.raises(ValueError):
            EpistemicState(weights={"a": ex(2), "b": ex(-1)})

    def test_epistemic_default_weight_is_zero(self):
        state = EpistemicState(weights={"a": ex(1)})
        assert state.weight("missing") == ex(0)

    def test_response_rows_must_normalize(self):
        with pytest.raises(ValueError):
            ResponseFunctions(table={"Z": {"a": (HALF, HALF + HALF)}})
        with pytest.raises(ValueError):
            ResponseFunctions(table={"Z": {"a": (ex(2), ex(-1))}})

    def test_model_rejects_unknown_cells(self):
        with pytest.raises(ValueError):
            OntologicalModel(
                space=OnticSpace(cells=("a",)),
                epistemics={"s": EpistemicState(weights={"b": ex(1)})},
                responses=ResponseFunctions(table={"Z": {"a": (ex(1), ex(0))}}),
            )

    def test_model_requires_full_response_coverage(self):
        with pytest.raises(ValueError):
            OntologicalModel(
                space=OnticSpace(cells=("a", "b")),
                epistemics={"s": EpistemicState(weights={"a": ex(1)})},
                responses=ResponseFunctions(table={"Z": {"a": (ex(1), ex(0))}}),
            )

    def test_model_rejects_mixed_backends(self):
        with pytest.raises(MixedBackendError):
            OntologicalModel(
                space=OnticSpace(cells=("a",)),
                epistemics={"s": EpistemicState(weights={"a": 1.0})},
                responses=ResponseFunctions(table={"Z": {"a": (ex(1), ex(0))}}),
            )


class TestPredict:
    def test_two_cell_certain_outcome(self):
        model = two_cell_model()
        assert predict(model, "|pi/4>", "Z+X", 0) == ONE
        assert predict(model, "|5pi/4>", "Z+X", 1) == ONE

    def test_uniform_coin_gives_half(self):
        model = OntologicalModel(
            space=OnticSpace(cells=("a", "b")),
            epistemics={"s": EpistemicState(weights={"a": HALF, "b": HALF})},
            responses=ResponseFunctions(
                table={"Z": {"a": (HALF, HALF), "b": (HALF, HALF)}}),
        )
        assert predict(model, "s", "Z", 0) == HALF
        assert predict(model, "s", "Z", 1) == HALF

    def test_product_model_reproduces_born(self):
        scenario = canonical_scenario()
        model = product_model(scenario)
        assert predict(model, "|0>", "Z+X", 0) == HIGH
        for state in scenario.states:
            for meas in scenario.measurements:
                for outcome in (0, 1):
                    assert predict(model, state.label, meas.label, outcome) \
                        == born_probability(state, meas, outcome)

    def test_outcomes_sum_to_one(self):
        model = two_cell_model()
        total = predict(model, "|pi/4>", "Z", 0) + predict(model, "|pi/4>", "Z", 1)
        assert total == ONE

    def test_unknown_labels(self):
        model = two_cell_model()
        with pytest.raises(UnknownState):
            predict(model, "|0>", "Z+X", 0)
        with pytest.raises(UnknownMeasurement):
            predict(model, "|pi/4>", "Y", 0)


class TestMixtureMeasure:
    def test_identical_pair_is_identity(self):
        model = two_cell_model()
        mix = mixture_measure(model, ("|pi/4>", "|pi/4>"))
        assert mix.weights == {"lo": ex(1)}

    def test_two_cell_pair_is_uniform(self):
        model = two_cell_model()
        mix = mixture_measure(model, ("|pi/4>", "|5pi/4>"))
        assert mix.weights == {"lo": HALF, "hi": HALF}

    def test_symmetric(self):
        model = two_cell_model()
        assert mixture_measure(model, ("|pi/4>", "|5pi/4>")) == \
            mixture_measure(model, ("|5pi/4>", "|pi/4>"))

    def test_product_model_z_mixture_marginal_uniform(self):
        scenario = canonical_scenario()
        model = product_model(scenario)
        mix = mixture_measure(model, ("|0>", "|1>"))
        z_zero_mass = sum((mix.weight(cell) for cell in model.space.cells
                           if cell[0] == "0"), ex(0))
        assert z_zero_mass == HALF

    def test_unknown_state(self):
        with pytest.raises(UnknownState):
            mixture_measure(two_cell_model(), ("|pi/4>", "|0>"))


class TestCanonicalize:
    def test_deterministic_model_preserved_up_to_relabeling(self):
        scenario = build_scenario([PlanarAngle.from_eighth_turns(0),
                                   PlanarAngle.from_eighth_turns(2)])
        model = toy_two_setting_model()
        refined = canonicalize_deterministic(model)
        assert len(refined.space.cells) == len(model.space.cells)
        assert refined.responses.is_deterministic()
        for state in model.epistemics:
            for meas in ("Z", "X"):
                for outcome in (0, 1):
                    assert predict(refined, state, meas, outcome) == \
                        predict(model, state, meas, outcome)

    def test_coin_cell_splits_into_eight(self):
        coin = (HALF, HALF)
        model = OntologicalModel(
            space=OnticSpace(cells=("c",)),
            epistemics={"s": EpistemicState(weights={"c": ex(1)})},
            responses=ResponseFunctions(
                table={"Z": {"c": coin}, "Z+X": {"c": coin}, "X": {"c": coin}}),
        )
        refined = canonicalize_deterministic(model)
        assert len(refined.space.cells) == 8
        eighth = ex(Fraction(1, 8))
        assert all(refined.epistemics["s"].weight(cell) == eighth
                   for cell in refined.space.cells)

    def test_stochastic_predictions_preserved_exactly(self):
        model = two_cell_model()
        refined = canonicalize_deterministic(model)
        assert refined.responses.is_deterministic()
        for state in ("|pi/4>", "|5pi/4>"):
            for meas in ("Z+X", "Z"):
                for outcome in (0, 1):
                    assert predict(refined, state, meas, outcome) == \
                        predict(model, state, meas, outcome)

    def test_mixture_equality_preserved(self):
        model = two_cell_model()
        refined = canonicalize_deterministic(model)
        mix = mixture_measure(refined, ("|pi/4>", "|5pi/4>"))
        total = sum(mix.weights.values(), ex(0))
        assert total == ONE


class TestValidate:
    def test_product_model_born_clean_but_mixtures_differ(self):
        scenario = canonical_scenario()
        report = validate(product_model(scenario), scenario)
        assert report.quantum_compatible
        assert not report.decomposition_compatible
        assert any(sign(entry.difference) != 0 for entry in report.mixtures)

    def test_toy_model_fully_compatible(self):
        scenario = build_scenario([PlanarAngle.from_eighth_turns(0),
                                   PlanarAngle.from_eighth_turns(2)])
        report = validate(toy_two_setting_model(), scenario)
        assert report.quantum_compatible
        assert report.decomposition_compatible

    def test_empty_scenario_empty_report(self):
        scenario = Scenario(measurements=(), states=(), decompositions=())
        report = validate(two_cell_model(), scenario)
        assert report.born == () and report.mixtures == ()
        assert report.quantum_compatible

    def test_report_json_shape(self):
        scenario = build_scenario([PlanarAngle.from_eighth_turns(0),
                                   PlanarAngle.from_eighth_turns(2)])
        blob = validate(toy_two_setting_model(), scenario).to_json()
        assert blob["quantum_compatible"] is True
        assert blob["decomposition_compatible"] is True
        assert len(blob["born"]) == 4 * 2 * 2
        assert all("residual" in entry for entry in blob["born"])


class TestLocalHV:
    def test_point_mass_prediction(self):
        zeros = (0, 0, 0)
        model = LocalHVModel(settings=("Z", "Z+X", "X"),
                             weights={(zeros, zeros): ex(1)})
        assert predict_lhv(model, "Z", "Z", 0, 0) == ONE
        assert predict_lhv(model, "Z", "X", 0, 1) == ex(0)

    def test_uniform_64_gives_quarter(self):
        model = uniform_lhv(("Z", "Z+X", "X"))
        quarter = ex(Fraction(1, 4))
        for ma in model.settings:
            for mb in model.settings:
                for a in (0, 1):
                    for b in (0, 1):
                        assert predict_lhv(model, ma, mb, a, b) == quarter

    def test_weights_must_normalize(self):
        zeros = (0, 0, 0)
        with pytest.raises(ValueError):
            LocalHVModel(settings=("Z", "Z+X", "X"),
                         weights={(zeros, zeros): HALF})

    def test_strategy_shape_checked(self):
        with pytest.raises(ValueError):
            LocalHVModel(settings=("Z", "X"), weights={((0,), (0, 1)): ex(1)})

    def test_unknown_setting(self):
        model = uniform_lhv(("Z", "X"))
        with pytest.raises(UnknownSetting):
            predict_lhv(model, "Z", "Q", 0, 0)

    def test_no_signalling_of_representation(self):
        rng = random.Random(20240930)
        settings = ("Z", "Z+X", "X")
        for _ in range(25):
            model = random_lhv(rng, settings)
            for ma in settings:
                for a in (0, 1):
                    marginals = []
                    for mb in settings:
                        total = (predict_lhv(model, ma, mb, a, 0)
                                 + predict_lhv(model, ma, mb, a, 1))
                        marginals.append(total)
                    assert marginals[0] == marginals[1] == marginals[2]

    def test_strategy_space_size(self):
        assert len(all_strategies(3)) == 64
        assert len(all_strategies(2)) == 16

    def test_strategy_keys(self):
        strategy = ((0, 1, 0), (1, 1, 0))
        assert strategy_key(strategy) == "010|110"
        assert strategy_from_key("010|110", 3) == strategy
        with pytest.raises(ValueError):
            strategy_from_key("01|110", 3)
        with pytest.raises(ValueError):
            strategy_from_key("012|110", 3)


def through_json_text(blob):
    return json.loads(json.dumps(blob))


@st.composite
def lhv_models(draw, exact):
    """Random positive weights on up to 8 strategies of m <= 3 settings;
    exact ones move a sqrt2 part between two weights, keeping both
    positive and the sum 1."""
    m = draw(st.integers(1, 3))
    chosen = draw(st.lists(st.sampled_from(all_strategies(m)), min_size=1,
                           max_size=8, unique=True))
    raw = draw(st.lists(st.integers(1, 50), min_size=len(chosen),
                        max_size=len(chosen)))
    total = sum(raw)
    if exact:
        weights = [ex(Fraction(k, total)) for k in raw]
        if len(weights) > 1:
            # |shift| <= 0.7 * sqrt2 / total < 1 / total <= each weight
            shift = ExactScalar(Fraction(0), Fraction(
                draw(st.integers(-70, 70)), 100 * total))
            weights[0], weights[1] = weights[0] + shift, weights[1] - shift
    else:
        weights = [k / total for k in raw]
    return LocalHVModel(settings=tuple(f"M{i}" for i in range(m)),
                        weights=dict(zip(chosen, weights)))


JSON_PROPERTIES = settings(derandomize=True, max_examples=40, deadline=None,
                           database=None)


class TestJson:
    @JSON_PROPERTIES
    @given(data=st.data(), exact=st.booleans())
    def test_lhv_round_trip_through_json_text(self, data, exact):
        model = data.draw(lhv_models(exact))
        assert lhv_from_json(through_json_text(lhv_to_json(model))) == model

    @JSON_PROPERTIES
    @given(turns=st.sets(st.integers(0, 7), min_size=1, max_size=3),
           exact=st.booleans(), deterministic=st.booleans())
    def test_solution_model_round_trip_through_json_text(
            self, turns, exact, deterministic):
        make = (PlanarAngle.from_eighth_turns if exact
                else lambda k: PlanarAngle.from_radians(0.3 * k))
        problem = build_prop1(build_scenario([make(k) for k in sorted(turns)]),
                              include_decomposition_equality=False,
                              deterministic_cells=deterministic)
        model = solution_model(problem, solve_problem(problem).x)
        blob = model_to_json(model)
        assert blob["mode"] == ("exact" if exact else "float")
        assert model_from_json(through_json_text(blob)) == model

    def test_model_round_trip(self):
        model = toy_two_setting_model()
        assert model_from_json(model_to_json(model)) == model

    def test_model_json_mode_flag(self):
        blob = model_to_json(toy_two_setting_model())
        assert blob["mode"] == "exact"
        assert blob["epistemics"]["|0>"]["00"]["a"] == "1/2"

    def test_lhv_round_trip(self):
        model = uniform_lhv(("Z", "Z+X", "X"))
        assert lhv_from_json(lhv_to_json(model)) == model

    def test_exact_mode_rejects_float_weights(self):
        blob = lhv_to_json(uniform_lhv(("Z", "X")))
        blob["weights"]["00|00"] = 0.0625
        with pytest.raises(MixedBackendError):
            lhv_from_json(blob)
