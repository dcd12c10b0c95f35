"""Tests for the decomposition and correlation LP layer."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from bellgate.feasibility import (
    BellInequality,
    UnverifiedCertificate,
    build_prop1,
    build_prop2,
    check_prop1,
    check_prop2,
    completed_wigner_certificate,
    event_mass,
    extract_inequality,
    min_slack,
    shared_mass_lower_bound,
    solution_model,
    solve_problem,
)
from bellgate.ontology import (
    UnknownMeasurement,
    UnknownState,
    all_strategies,
    strategy_key,
    validate,
)
from bellgate.qubit import (
    PlanarAngle,
    Scenario,
    born_probability,
    build_scenario,
    canonical_scenario,
    wigner_inequality_value,
)
from bellgate.scalar import (ExactScalar, MixedBackendError, compare, field,
                             sign, to_float)
from bellgate.simplex import (FarkasCertificate, Tableau, solve_min,
                              verify_certificate, verify_solution)

from oracles import exact_lp_feasible


def eighth(k):
    return PlanarAngle.from_eighth_turns(k)


def ex(p, q=1):
    return ExactScalar(Fraction(p, q), Fraction(0))


HIGH = ExactScalar(Fraction(1, 2), Fraction(1, 4))       # (2+sqrt2)/4
LOW = ExactScalar(Fraction(1, 2), Fraction(-1, 4))       # (2-sqrt2)/4
HALF_SQRT2 = ExactScalar(Fraction(0), Fraction(1, 2))    # sqrt2/2


def single_state_scenario():
    base = build_scenario([eighth(0)])
    return Scenario(measurements=base.measurements,
                    states=base.states[:1], decompositions=())


def float_canonical():
    return build_scenario([PlanarAngle.from_radians(r)
                           for r in (0.0, 0.7853981633974483,
                                     1.5707963267948966)])


def product_witness(problem, scenario):
    x = []
    for label in problem.column_labels:
        _, state_label, cell = label
        state = scenario.state(state_label)
        value = ex(1)
        for mi, meas in enumerate(scenario.measurements):
            value = value * born_probability(state, meas, int(cell[mi]))
        x.append(value)
    return tuple(x)


class TestBuildProp1:
    def test_canonical_shape(self):
        problem = build_prop1(canonical_scenario())
        assert len(problem.column_labels) == 48
        assert len(problem.matrix) == 6 + 36 + 16
        kinds = [label[0] for label in problem.row_labels]
        assert kinds.count("normalization") == 6
        assert kinds.count("born") == 36
        assert kinds.count("decomp") == 16
        assert problem.settings == ("Z", "Z+X", "X")

    def test_single_state_shape(self):
        problem = build_prop1(single_state_scenario())
        assert len(problem.column_labels) == 2
        assert len(problem.matrix) == 1 + 2

    def test_born_row_support(self):
        problem = build_prop1(canonical_scenario())
        i = problem.row_index(("born", "|0>", "Z+X", 0))
        assert problem.rhs[i] == HIGH
        for j, label in enumerate(problem.column_labels):
            expected = 1 if label[1] == "|0>" and label[2][1] == "0" else 0
            assert problem.matrix[i][j] == ex(expected)

    def test_decomp_row_balances(self):
        problem = build_prop1(canonical_scenario())
        i = problem.row_index(("decomp", 0, 1, "010"))
        row = problem.matrix[i]
        assert problem.rhs[i] == ex(0)
        by_label = dict(zip(problem.column_labels, row))
        assert by_label[("mu", "|0>", "010")] == ex(1)
        assert by_label[("mu", "|1>", "010")] == ex(1)
        assert by_label[("mu", "|pi/4>", "010")] == ex(-1)
        assert by_label[("mu", "|5pi/4>", "010")] == ex(-1)
        assert by_label[("mu", "|+>", "010")] == ex(0)

    def test_stochastic_cells_shape(self):
        problem = build_prop1(canonical_scenario(), deterministic_cells=False)
        assert len(problem.column_labels) == 6 * 27
        assert ("mu", "|0>", "0h1") in problem.column_labels

    def test_float_scenario_gives_float_rhs(self):
        problem = build_prop1(float_canonical())
        assert not problem.exact
        assert all(type(v) is float for v in problem.rhs)
        i = problem.row_index(("born", "M0:0", "M1", 0))
        assert problem.rhs[i] == pytest.approx(0.8535533905932737)

    def test_json_round_shape(self):
        blob = build_prop1(canonical_scenario()).to_json()
        assert len(blob["rows"]) == 58
        assert blob["rows"][6]["label"] == "born(|0>,Z,0)"
        assert blob["columns"][0] == "mu(|0>,000)"
        assert blob["settings"] == ["Z", "Z+X", "X"]


class TestCheckProp1:
    def test_canonical_equality_infeasible_with_verified_certificate(self):
        problem = build_prop1(canonical_scenario())
        result = solve_problem(problem)
        assert not result.feasible
        assert verify_certificate(problem.matrix, problem.rhs,
                                  result.certificate)

    def test_canonical_no_equality_feasible(self):
        scenario = canonical_scenario()
        problem = build_prop1(scenario, include_decomposition_equality=False)
        result = solve_problem(problem)
        assert result.feasible
        assert verify_solution(problem.matrix, problem.rhs, result.x)
        # known witness family: per-state product measures also solve it
        assert verify_solution(problem.matrix, problem.rhs,
                               product_witness(problem, scenario))

    def test_two_setting_equality_feasible_with_witness(self):
        scenario = build_scenario([eighth(0), eighth(2)])
        problem = build_prop1(scenario)
        result = solve_problem(problem)
        assert result.feasible
        half = ex(1, 2)
        witness = {("mu", "|0>", "00"): half, ("mu", "|0>", "01"): half,
                   ("mu", "|1>", "10"): half, ("mu", "|1>", "11"): half,
                   ("mu", "|+>", "00"): half, ("mu", "|+>", "10"): half,
                   ("mu", "|->", "01"): half, ("mu", "|->", "11"): half}
        x = tuple(witness.get(label, ex(0)) for label in problem.column_labels)
        assert verify_solution(problem.matrix, problem.rhs, x)

    def test_relaxed_single_pair_still_infeasible(self):
        # equality between decompositions (|0>,|1>) and (|pi/4>,|5pi/4>)
        # alone already contradicts the Born rows: the common mixture puts
        # 1 - (2+sqrt2)/4 on {Z+X -> 0, X -> 1} via the eigenpair but at
        # least (2+sqrt2)/4 - 1/2 via |0>, and (2+sqrt2)/4 > 3/4.
        problem = build_prop1(canonical_scenario(), equality_pairs=[(0, 1)])
        result = solve_problem(problem)
        assert not result.feasible
        assert verify_certificate(problem.matrix, problem.rhs,
                                  result.certificate)

    def test_z_zx_restriction_has_unique_solution(self):
        scenario = build_scenario([eighth(0), eighth(1)])
        problem = build_prop1(scenario)
        result = solve_problem(problem)
        assert result.feasible
        expected = {("mu", "|0>", "00"): HIGH, ("mu", "|0>", "01"): LOW,
                    ("mu", "|1>", "10"): LOW, ("mu", "|1>", "11"): HIGH,
                    ("mu", "|pi/4>", "00"): HIGH, ("mu", "|pi/4>", "10"): LOW,
                    ("mu", "|5pi/4>", "01"): LOW, ("mu", "|5pi/4>", "11"): HIGH}
        for label, value in zip(problem.column_labels, result.x):
            assert value == expected.get(label, ex(0))
        assert event_mass(problem, result.x, "|0>", "Z+X", 0) == HIGH

    def test_stochastic_cells_same_answers(self):
        scenario = canonical_scenario()
        assert not check_prop1(scenario, deterministic_cells=False).feasible
        relaxed = check_prop1(scenario, include_decomposition_equality=False,
                              deterministic_cells=False)
        assert relaxed.feasible

    def test_single_state_feasible_and_matches_oracle(self):
        problem = build_prop1(single_state_scenario())
        result = solve_problem(problem)
        assert result.feasible
        columns = [[problem.matrix[i][j] for i in range(len(problem.matrix))]
                   for j in range(len(problem.column_labels))]
        assert exact_lp_feasible(columns, list(problem.rhs)) is not None

    def test_float_canonical_agrees_with_exact(self):
        assert not check_prop1(float_canonical()).feasible
        assert check_prop1(float_canonical(),
                           include_decomposition_equality=False).feasible


class TestBuildProp2:
    def test_canonical_shape(self):
        problem = build_prop2(canonical_scenario())
        assert len(problem.column_labels) == 64
        assert len(problem.matrix) == 1 + 36
        assert problem.row_labels[0] == ("normalization",)
        assert problem.settings == ("Z", "Z+X", "X")

    def test_joint_row_values(self):
        problem = build_prop2(canonical_scenario())
        i = problem.row_index(("joint", "Z", "Z+X", 0, 1))
        assert problem.rhs[i] == ExactScalar(Fraction(1, 4), Fraction(-1, 8))
        j = problem.column_index(("p", "010|011"))
        # a_Z = 0 and b_Z+X = 1 both hold for that strategy
        assert problem.matrix[i][j] == ex(1)

    def test_m1_feasible(self):
        problem = build_prop2(build_scenario([eighth(0)]))
        assert len(problem.column_labels) == 4
        result = solve_problem(problem)
        assert result.feasible
        half = ex(1, 2)
        x = tuple(half if label[1] in ("0|0", "1|1") else ex(0)
                  for label in problem.column_labels)
        assert verify_solution(problem.matrix, problem.rhs, x)
        columns = [[problem.matrix[i][j] for i in range(len(problem.matrix))]
                   for j in range(len(problem.column_labels))]
        assert exact_lp_feasible(columns, list(problem.rhs)) is not None


class TestCheckProp2:
    def test_canonical_infeasible_with_verified_certificate(self):
        problem = build_prop2(canonical_scenario())
        result = solve_problem(problem)
        assert not result.feasible
        assert verify_certificate(problem.matrix, problem.rhs,
                                  result.certificate)

    def test_z_x_feasible_with_spec_witness(self):
        scenario = build_scenario([eighth(0), eighth(2)])
        problem = build_prop2(scenario)
        result = solve_problem(problem)
        assert result.feasible
        quarter = ex(1, 4)
        diagonal = {strategy_key(((a, b), (a, b)))
                    for a in (0, 1) for b in (0, 1)}
        x = tuple(quarter if label[1] in diagonal else ex(0)
                  for label in problem.column_labels)
        assert verify_solution(problem.matrix, problem.rhs, x)

    def test_three_copies_of_z_feasible(self):
        scenario = build_scenario([eighth(0), eighth(0), eighth(0)])
        assert [m.label for m in scenario.measurements] == ["Z", "Z#2", "Z#3"]
        problem = build_prop2(scenario)
        result = solve_problem(problem)
        assert result.feasible
        half = ex(1, 2)
        x = tuple(half if label[1] in ("000|000", "111|111") else ex(0)
                  for label in problem.column_labels)
        assert verify_solution(problem.matrix, problem.rhs, x)

    def test_float_canonical_infeasible(self):
        problem = build_prop2(float_canonical())
        result = solve_problem(problem)
        assert not result.feasible
        assert verify_certificate(problem.matrix, problem.rhs,
                                  result.certificate)


class TestExactFloatVerdicts:
    """Float mode reaches the exact verdict on pi/4-multiple angles.  In
    floats cos(pi/2) is about 6e-17, not 0, so the float problem's forcing
    rows can differ from the exact one's; the verdicts may not."""

    @pytest.mark.parametrize("check", [check_prop1, check_prop2])
    @settings(derandomize=True, max_examples=20, deadline=None,
              database=None)
    @given(turns=st.sets(st.integers(0, 7), min_size=2, max_size=4))
    def test_verdicts_agree(self, check, turns):
        turns = sorted(turns)
        exact = check(build_scenario([eighth(k) for k in turns]))
        floated = check(build_scenario(
            [PlanarAngle.from_radians(k * math.pi / 4) for k in turns]))
        assert exact.feasible == floated.feasible


class TestMinSlack:
    def test_feasible_problem_gives_zero(self):
        problem = build_prop1(build_scenario([eighth(0), eighth(2)]))
        eps, x = min_slack(problem)
        assert eps == ex(0)
        assert verify_solution(problem.matrix, problem.rhs, x)

    def test_canonical_prop1_slack(self):
        problem = build_prop1(canonical_scenario())
        eps, x = min_slack(problem)
        # frozen from an exact run; (sqrt2-1)/8
        assert eps == ExactScalar(Fraction(-1, 8), Fraction(1, 8))
        float_eps, _ = min_slack(build_prop1(float_canonical()))
        assert float_eps == pytest.approx(to_float(eps), abs=1e-9)

    def test_canonical_prop2_slack(self):
        problem = build_prop2(canonical_scenario())
        eps, _ = min_slack(problem)
        # frozen from an exact run; (sqrt2-1)/16
        assert eps == ExactScalar(Fraction(-1, 16), Fraction(1, 16))
        float_eps, _ = min_slack(build_prop2(float_canonical()))
        assert float_eps == pytest.approx(to_float(eps), abs=1e-9)

    @pytest.mark.parametrize("build", [build_prop1, build_prop2])
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_slack_solution_meets_hard_rows(self, build, exact):
        problem = build(canonical_scenario() if exact else float_canonical())
        eps, x = min_slack(problem)
        assert len(x) == len(problem.column_labels)
        assert all(sign(value) >= 0 for value in x)
        for i, label in enumerate(problem.row_labels):
            total = problem.rhs[i] - problem.rhs[i]
            for j in range(len(x)):
                total = total + problem.matrix[i][j] * x[j]
            residual = total - problem.rhs[i]
            if label[0] in ("normalization", "decomp"):
                assert sign(residual) == 0
            else:
                assert sign(residual - eps) <= 0
                assert sign(residual + eps) >= 0

    @pytest.mark.parametrize("build", [build_prop1, build_prop2])
    @pytest.mark.parametrize("turns", [(0, 1), (0, 1, 3), (0, 2, 3),
                                       (0, 2, 4)])
    def test_matches_x_first_reference(self, build, turns):
        problem = build(build_scenario([eighth(k) for k in turns]))
        eps, _ = min_slack(problem)
        assert eps == x_first_min_slack(problem)
        float_eps, _ = min_slack(build(build_scenario(
            [PlanarAngle.from_radians(k * math.pi / 4) for k in turns])))
        assert float_eps == pytest.approx(to_float(eps), abs=1e-9)

    @pytest.mark.parametrize("build, eps", [
        # frozen from the x-first column order; (sqrt2-1)/4 and (sqrt2-1)/8
        (build_prop1, ExactScalar(Fraction(-1, 4), Fraction(1, 4))),
        (build_prop2, ExactScalar(Fraction(-1, 8), Fraction(1, 8))),
    ])
    def test_four_settings_slack(self, build, eps):
        problem = build(build_scenario([eighth(k) for k in (0, 1, 2, 3)]))
        assert min_slack(problem)[0] == eps

    @pytest.mark.parametrize("build", [build_prop1, build_prop2])
    @settings(derandomize=True, max_examples=20, deadline=None,
              database=None)
    @given(turns=st.sets(st.integers(0, 7), min_size=2, max_size=3))
    def test_exact_and_float_agree(self, build, turns):
        """eps* of an eighth-turn set and of its radian twin agree, and
        each x, with eps* and the slacks it implies, is a point of its own
        slack LP."""
        turns = sorted(turns)
        results = []
        for angles in ([eighth(k) for k in turns],
                       [PlanarAngle.from_radians(k * math.pi / 4)
                        for k in turns]):
            problem = build(build_scenario(angles))
            eps, x = min_slack(problem)
            _, matrix, rhs, soft = x_first_slack_lp(problem)
            point = list(x) + [eps]
            for i in soft:
                total = eps - eps
                for j, value in enumerate(x):
                    total = total + problem.matrix[i][j] * value
                point += [problem.rhs[i] + eps - total,
                          total + eps - problem.rhs[i]]
            assert verify_solution(matrix, rhs, point)
            results.append(eps)
        exact_eps, float_eps = results
        assert float_eps == pytest.approx(to_float(exact_eps), abs=1e-9)


def x_first_min_slack(problem):
    """eps* of the slack LP with columns [x, eps, u_1, v_1, ...]."""
    cost, matrix, rhs, _ = x_first_slack_lp(problem)
    return solve_min(cost, matrix, rhs)[0]


def x_first_slack_lp(problem):
    """(cost, matrix, rhs, soft rows) of that LP; the rows of soft row i
    are A_i x - eps + u_i = b_i and A_i x + eps - v_i = b_i."""
    zero, _, one = field(problem.exact)
    n = len(problem.column_labels)
    soft = [i for i, label in enumerate(problem.row_labels)
            if label[0] in ("born", "joint")]
    width = n + 1 + 2 * len(soft)
    matrix, rhs = [], []
    for i, row in enumerate(problem.matrix):
        if i in soft:
            k = n + 1 + 2 * soft.index(i)
            low = list(row) + [zero] * (width - n)
            low[n], low[k] = -one, one
            high = list(row) + [zero] * (width - n)
            high[n], high[k + 1] = one, -one
            matrix.extend([low, high])
            rhs.extend([problem.rhs[i]] * 2)
        else:
            matrix.append(list(row) + [zero] * (width - n))
            rhs.append(problem.rhs[i])
    cost = [zero] * width
    cost[n] = one
    return cost, matrix, rhs, soft


class TestExtractInequality:
    def test_solver_certificate_becomes_inequality(self):
        scenario = canonical_scenario()
        problem = build_prop2(scenario)
        result = solve_problem(problem)
        inequality = extract_inequality(result.certificate, problem)
        assert inequality.satisfied_by_all_strategies()
        margin = inequality.quantum_margin(scenario)
        assert sign(margin) > 0
        y_dot_b = ex(0)
        for value, rhs in zip(result.certificate.y, problem.rhs):
            y_dot_b = y_dot_b + value * rhs
        assert margin == y_dot_b

    def test_wigner_strict01_certificate(self):
        scenario = canonical_scenario()
        problem = build_prop2(scenario)
        certificate = completed_wigner_certificate(problem)
        inequality = extract_inequality(certificate, problem)
        assert len(inequality.coefficients) == 4
        assert inequality.bound == ex(0)
        margin = inequality.quantum_margin(scenario)
        assert margin == ExactScalar(Fraction(-1, 4), Fraction(1, 4))
        assert margin == -wigner_inequality_value(scenario)

    def test_wigner_differ_certificate(self):
        scenario = canonical_scenario()
        problem = build_prop2(scenario)
        certificate = completed_wigner_certificate(problem,
                                                   convention="differ")
        inequality = extract_inequality(certificate, problem)
        assert len(inequality.coefficients) == 8
        margin = inequality.quantum_margin(scenario)
        assert margin == ExactScalar(Fraction(-1, 2), Fraction(1, 2))
        assert margin == -wigner_inequality_value(scenario,
                                                  convention="differ")

    def test_bare_three_term_certificate_rejected(self):
        # without the P(10|Z+X,Z+X) term the inequality fails off the
        # perfect-correlation face; this strategy is the witness
        problem = build_prop2(canonical_scenario())
        weights = {("Z", "X", 0, 1): ex(1),
                   ("Z", "Z+X", 0, 1): ex(-1),
                   ("Z+X", "X", 0, 1): ex(-1)}
        y = tuple(weights.get(label[1:], ex(0))
                  for label in problem.row_labels)
        bare = FarkasCertificate(y=y)
        assert not verify_certificate(problem.matrix, problem.rhs, bare)
        with pytest.raises(UnverifiedCertificate):
            extract_inequality(bare, problem)
        j = problem.column_index(("p", "010|001"))
        column_dot = ex(0)
        for i in range(len(problem.matrix)):
            column_dot = column_dot + y[i] * problem.matrix[i][j]
        assert column_dot == ex(1)

    def test_completed_strict01_max_strategy_value_is_bound(self):
        problem = build_prop2(canonical_scenario())
        inequality = extract_inequality(completed_wigner_certificate(problem),
                                        problem)
        best, _ = inequality.max_strategy_value()
        assert best == ex(0)

    def test_zero_certificate_rejected(self):
        problem = build_prop2(canonical_scenario())
        zero = FarkasCertificate(y=tuple(ex(0) for _ in problem.row_labels))
        with pytest.raises(UnverifiedCertificate):
            extract_inequality(zero, problem)

    def test_wrong_length_rejected(self):
        problem = build_prop2(canonical_scenario())
        with pytest.raises(UnverifiedCertificate):
            extract_inequality(FarkasCertificate(y=(ex(1),)), problem)

    def test_decomposition_problem_rejected(self):
        problem = build_prop1(canonical_scenario())
        certificate = FarkasCertificate(
            y=tuple(ex(0) for _ in problem.row_labels))
        with pytest.raises(ValueError):
            extract_inequality(certificate, problem)

    def test_inequality_json(self):
        problem = build_prop2(canonical_scenario())
        inequality = extract_inequality(completed_wigner_certificate(problem),
                                        problem)
        blob = inequality.to_json()
        assert {"P(01|Z,Z+X)", "P(01|Z,X)", "P(01|Z+X,X)", "P(10|Z+X,Z+X)"} \
            == {term["probability"] for term in blob["terms"]}
        assert "joint(Z,X,0,1)" in blob["provenance"]


def plain(value):
    """A rational ExactScalar as the bare int or Fraction a caller would
    write by hand."""
    assert not value.b
    a = value.a
    return a.numerator if a.denominator == 1 else a


class TestExtractPlainEntries:
    """Certificate entries given as plain ints and Fractions join the
    problem's backend when the inequality is read off."""

    def raw_certificate(self, problem, source):
        if source == "solver":
            y = solve_problem(problem).certificate.y
        else:
            y = completed_wigner_certificate(problem).y
        y = [plain(v) for v in y]
        if source == "wigner/2":
            # Fraction entries (the solver's and Wigner's are all ints)
            y = [v * Fraction(1, 2) for v in y]
        return y

    @pytest.mark.parametrize("source", ["solver", "wigner", "wigner/2"])
    def test_exact_problem_gives_exact_scalars(self, source):
        problem = build_prop2(canonical_scenario())
        y = self.raw_certificate(problem, source)
        assert not any(isinstance(v, ExactScalar) for v in y)
        inequality = extract_inequality(FarkasCertificate(y=tuple(y)),
                                        problem)
        lifted = FarkasCertificate(
            y=tuple(ExactScalar.from_rational(v) for v in y))
        assert inequality == extract_inequality(lifted, problem)
        assert isinstance(inequality.bound, ExactScalar)
        assert inequality.coefficients
        assert all(isinstance(coeff, ExactScalar)
                   for _, coeff in inequality.coefficients)
        blob = inequality.to_json()
        assert set(blob["bound"]) == {"a", "b", "approx"}
        for term in blob["terms"]:
            assert set(term["coefficient"]) == {"a", "b", "approx"}

    def test_float_problem_gives_floats(self):
        # int weights (the zeros and the +-1 weights) and Fraction zeros
        # join the float data
        problem = build_prop2(float_canonical())
        certificate = completed_wigner_certificate(problem)
        y = tuple(int(v) if v or i % 2 else Fraction(0)
                  for i, v in enumerate(certificate.y))
        assert any(type(v) is int and v for v in y)
        inequality = extract_inequality(FarkasCertificate(y=y), problem)
        assert inequality == extract_inequality(certificate, problem)
        assert type(inequality.bound) is float
        assert all(type(coeff) is float
                   for _, coeff in inequality.coefficients)
        assert isinstance(inequality.to_json()["bound"], float)

    @pytest.mark.parametrize("position", ["zero", "weight"])
    def test_float_entry_in_exact_certificate_raises(self, position):
        # a float weight, zero or not, is refused when y is read into the
        # exact field
        problem = build_prop2(canonical_scenario())
        y = self.raw_certificate(problem, "wigner")
        i = next(i for i, v in enumerate(y)
                 if (v == 0) == (position == "zero"))
        y[i] = float(y[i])
        with pytest.raises(MixedBackendError):
            extract_inequality(FarkasCertificate(y=tuple(y)), problem)


class TestEventMass:
    def test_born_forced_masses_and_shared_bound(self):
        scenario = canonical_scenario()
        problem = build_prop1(scenario, include_decomposition_equality=False)
        result = solve_problem(problem)
        assert event_mass(problem, result.x, "|0>", "Z+X", 0) == HIGH
        assert event_mass(problem, result.x, "|+>", "Z+X", 0) == HIGH
        shared = shared_mass_lower_bound(problem, result.x, "|0>", "|+>",
                                         "Z+X", 0)
        assert shared == HALF_SQRT2

    def test_unknown_labels(self):
        problem = build_prop1(canonical_scenario())
        x = tuple(ex(0) for _ in problem.column_labels)
        with pytest.raises(UnknownState):
            event_mass(problem, x, "|psi>", "Z", 0)
        with pytest.raises(UnknownMeasurement):
            event_mass(problem, x, "|0>", "Y", 0)


class TestSolutionModel:
    def test_no_equality_solution_validates_as_quantum(self):
        scenario = canonical_scenario()
        problem = build_prop1(scenario, include_decomposition_equality=False)
        result = solve_problem(problem)
        model = solution_model(problem, result.x)
        report = validate(model, scenario)
        assert report.quantum_compatible
        assert not report.decomposition_compatible

    def test_two_setting_solution_fully_compatible(self):
        scenario = build_scenario([eighth(0), eighth(2)])
        problem = build_prop1(scenario)
        result = solve_problem(problem)
        model = solution_model(problem, result.x)
        report = validate(model, scenario)
        assert report.quantum_compatible
        assert report.decomposition_compatible

    def test_rejects_strategy_columns(self):
        problem = build_prop2(canonical_scenario())
        with pytest.raises(ValueError):
            solution_model(problem, tuple(ex(0)
                                          for _ in problem.column_labels))


class TestCertificateInequalities:
    """A solver certificate read as an inequality: every one of the 4^m
    strategy pairs, enumerated here, obeys it, and the quantum table
    breaks it by exactly y^T b."""

    @settings(derandomize=True, max_examples=12, deadline=None,
              database=None)
    @given(turns=st.sets(st.integers(0, 7), min_size=3, max_size=5))
    def test_every_strategy_pair_obeys_it(self, turns):
        scenario = build_scenario([eighth(k) for k in sorted(turns)])
        problem = build_prop2(scenario)
        result = solve_problem(problem)
        assume(not result.feasible)
        inequality = extract_inequality(result.certificate, problem)
        margin = ex(0)
        for weight, target in zip(result.certificate.y, problem.rhs):
            margin = margin + weight * target
        assert sign(margin) > 0
        assert inequality.quantum_margin(scenario) == margin
        place = {label: i for i, label in enumerate(problem.settings)}
        terms = [(place[ma], place[mb], a, b, coeff)
                 for (ma, mb, a, b), coeff in inequality.coefficients]
        strings = list(itertools.product((0, 1), repeat=len(place)))
        for alice in strings:
            for bob in strings:
                value = ex(0)
                for ia, ib, a, b, coeff in terms:
                    if alice[ia] == a and bob[ib] == b:
                        value = value + coeff
                assert value <= inequality.bound


def extracts(certificate, problem):
    try:
        extract_inequality(certificate, problem)
    except UnverifiedCertificate:
        return False
    return True


class TestExtractionAudit:
    """extract_inequality's own checks, y^T b > 0 and the best response
    against the bound, accept exactly what verify_certificate accepts: on
    the correlation problem (y^T A)_s = strategy_value(s) - bound."""

    @settings(derandomize=True, max_examples=12, deadline=None,
              database=None)
    @given(turns=st.sets(st.integers(0, 7), min_size=3, max_size=5),
           bumped=st.lists(st.integers(0, 10**6), min_size=2, max_size=2))
    def test_refuses_exactly_what_the_audit_refuses(self, turns, bumped):
        problem = build_prop2(build_scenario([eighth(k)
                                              for k in sorted(turns)]))
        result = solve_problem(problem)
        assume(not result.feasible)
        y = result.certificate.y
        zero = tuple(ex(0) for _ in y)
        # y^T A = -1 on every column, but y^T b = -1 too
        lone = (ex(-1),) + zero[1:]
        candidates = [y, zero, lone]
        # the normalization row and two drawn rows, bumped as in
        # test_simplex.py's TestCertificatePerturbation
        for i in [0] + [k % len(y) for k in bumped]:
            for bump in (1, -1, Fraction(1, 10**12), Fraction(-1, 10**12)):
                candidates.append(y[:i] + (y[i] + bump,) + y[i + 1:])
        verdicts = []
        for candidate in candidates:
            certificate = FarkasCertificate(y=candidate)
            valid = verify_certificate(problem.matrix, problem.rhs,
                                       certificate)
            assert extracts(certificate, problem) == valid
            verdicts.append(valid)
        assert verdicts[:3] == [True, False, False]


def enumerated_max(inequality):
    """Reference for max_strategy_value: all 4^m strategy pairs, first
    maximum in all_strategies order."""
    best = None
    for strategy in all_strategies(len(inequality.settings)):
        value = inequality.strategy_value(strategy)
        if best is None or compare(value, best[0]) > 0:
            best = value, strategy
    return best


def random_inequality(rng, m, terms, exact):
    """Small-integer coefficients (many ties) on random (Ma, Mb, a, b)."""
    settings = tuple(f"M{i}" for i in range(m))
    keys = {(rng.choice(settings), rng.choice(settings), rng.randint(0, 1),
             rng.randint(0, 1)) for _ in range(terms)}
    coefficients = []
    for key in sorted(keys):
        k = rng.randint(-3, 3)
        coefficients.append((key, ex(k) if exact else float(k)))
    zero = ex(0) if exact else 0.0
    return BellInequality(coefficients=tuple(coefficients), bound=zero,
                          settings=settings, provenance=())


class TestBestResponse:
    """max_strategy_value (best response) against full enumeration."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("exact", [True, False])
    def test_random_tables_match_enumeration(self, m, exact):
        rng = random.Random(f"best-response/{m}/{exact}")
        for _ in range(4 if m < 6 else 1):
            inequality = random_inequality(rng, m, 3 * m, exact)
            best, strategy = inequality.max_strategy_value()
            reference, first = enumerated_max(inequality)
            assert compare(best, reference) == 0
            assert compare(inequality.strategy_value(strategy), best) == 0
            if exact:
                assert strategy == first

    @pytest.mark.parametrize("turns, mode", [
        ((0, 1, 2), None), ((0, 1, 2, 3), None), ((0, 1, 2, 3, 4), None),
        ((0, 1, 2, 3, 4), "float")])
    def test_extracted_inequalities_match_enumeration(self, turns, mode):
        # mode as in the CLI: "float" builds the scenario from radians
        make = eighth if mode is None else (
            lambda k: PlanarAngle.from_radians(k * math.pi / 4))
        problem = build_prop2(build_scenario([make(k) for k in turns]))
        assert problem.exact == (mode is None)
        result = solve_problem(problem)
        inequality = extract_inequality(result.certificate, problem)
        best, strategy = inequality.max_strategy_value()
        reference, _ = enumerated_max(inequality)
        assert compare(best, reference) == 0
        assert compare(inequality.strategy_value(strategy), best) == 0
        assert compare(best, inequality.bound) <= 0


@pytest.fixture
def pivot_counts(monkeypatch):
    """Pivots per Tableau.run, in call order, and pivots outside any run."""
    counts = {"runs": [], "outside": 0}
    run, pivot = Tableau.run, Tableau.pivot
    depth = [0]

    def counted_run(self, *args, **kwargs):
        start = self.pivots
        depth[0] += 1
        try:
            return run(self, *args, **kwargs)
        finally:
            depth[0] -= 1
            counts["runs"].append(self.pivots - start)

    def counted_pivot(self, row_index, col):
        if not depth[0]:
            counts["outside"] += 1
        return pivot(self, row_index, col)

    monkeypatch.setattr(Tableau, "run", counted_run)
    monkeypatch.setattr(Tableau, "pivot", counted_pivot)
    return counts


class TestPinnedPivotCounts:
    """The presolve and the entering rules fix the pivot sequence; these
    counts pin it."""

    @pytest.mark.parametrize("turns, pivots, feasible", [
        ((0, 1, 2), 6, False),
        ((0, 2, 4, 6), 4, True),
        ((0, 1, 2, 3), 8, False),
        ((0, 1, 2, 3, 4), 8, False),
    ])
    def test_check_prop2(self, pivot_counts, turns, pivots, feasible):
        result = check_prop2(build_scenario([eighth(k) for k in turns]))
        assert result.feasible == feasible
        assert pivot_counts == {"runs": [pivots], "outside": 0}

    def test_check_prop1_canonical(self, pivot_counts):
        assert not check_prop1(canonical_scenario()).feasible
        assert pivot_counts == {"runs": [33], "outside": 0}

    @pytest.mark.parametrize("build, runs, drive_out", [
        (build_prop2, [74, 80], 0),
        (build_prop1, [95, 38], 0),
    ])
    def test_min_slack_canonical(self, pivot_counts, build, runs, drive_out):
        min_slack(build(canonical_scenario()))
        assert pivot_counts == {"runs": runs, "outside": drive_out}
