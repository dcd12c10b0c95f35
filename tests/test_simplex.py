"""Tests for the exact simplex solver against brute-force and scipy oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from bellgate import simplex
from bellgate.scalar import ExactScalar, MixedBackendError, to_float
from bellgate.simplex import (
    AuditFailed,
    CyclingDetected,
    DimensionMismatch,
    FarkasCertificate,
    InfeasibleProblem,
    LPResult,
    Tableau,
    Unbounded,
    solve_feasibility,
    solve_min,
    verify_certificate,
    verify_solution,
)

from oracles import exact_lp_feasible, exact_lp_minimize


def ex(value):
    return ExactScalar.from_rational(Fraction(value))


def random_system(rng, max_rows=4, max_cols=6, entry_bound=3):
    m = rng.randint(1, max_rows)
    n = rng.randint(1, max_cols)
    A = [[Fraction(rng.randint(-entry_bound, entry_bound))
          for _ in range(n)] for _ in range(m)]
    b = [Fraction(rng.randint(-entry_bound, entry_bound)) for _ in range(m)]
    return A, b


def columns_of(A):
    return [[row[j] for row in A] for j in range(len(A[0]))]


class TestFeasibility:
    def test_single_equation(self):
        result = solve_feasibility([[ex(1)]], [ex(1)])
        assert result.feasible
        assert result.x == (ex(1),)

    def test_inconsistent_pair(self):
        result = solve_feasibility([[ex(1)], [ex(-1)]], [ex(1), ex(1)])
        assert not result.feasible
        assert verify_certificate([[ex(1)], [ex(-1)]], [ex(1), ex(1)],
                                  result.certificate)
        # the textbook certificate for this system also verifies
        assert verify_certificate([[ex(1)], [ex(-1)]], [ex(1), ex(1)],
                                  FarkasCertificate(y=(ex(1), ex(1))))

    def test_negative_rhs_flipped(self):
        # -x = -3 is feasible at x = 3
        result = solve_feasibility([[ex(-1)]], [ex(-3)])
        assert result.feasible
        assert result.x == (ex(3),)

    def test_zero_columns_nonzero_rhs(self):
        result = solve_feasibility([[ex(0), ex(0)]], [ex(2)])
        assert not result.feasible

    def test_no_rows(self):
        assert solve_feasibility([], []).feasible

    def test_redundant_rows(self):
        A = [[ex(1), ex(1)], [ex(2), ex(2)]]
        b = [ex(1), ex(2)]
        result = solve_feasibility(A, b)
        assert result.feasible
        assert verify_solution(A, b, result.x)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_feasibility([[ex(1)]], [ex(1), ex(2)])
        with pytest.raises(DimensionMismatch):
            solve_feasibility([[ex(1), ex(2)], [ex(1)]], [ex(1), ex(2)])

    def test_mixed_backend_rejected(self):
        with pytest.raises(MixedBackendError):
            solve_feasibility([[ex(1), 0.5]], [ex(1)])

    def test_exact_sqrt2_entries(self):
        # x * sqrt2 = 2 has the exact solution x = sqrt2
        sqrt2 = ExactScalar(Fraction(0), Fraction(1))
        result = solve_feasibility([[sqrt2]], [ex(2)])
        assert result.feasible
        assert result.x == (sqrt2,)

    def test_agreement_with_brute_oracle_random(self):
        rng = random.Random(20240920)
        feasible_seen = infeasible_seen = 0
        for _ in range(250):
            A, b = random_system(rng)
            result = solve_feasibility(A, b)
            oracle = exact_lp_feasible(columns_of(A), b)
            if result.feasible:
                feasible_seen += 1
                assert oracle is not None
                assert verify_solution(A, b, result.x)
            else:
                infeasible_seen += 1
                assert oracle is None
                assert verify_certificate(A, b, result.certificate)
        assert feasible_seen > 20 and infeasible_seen > 20

    def test_agreement_with_scipy_on_floats(self):
        rng = random.Random(20240921)
        for _ in range(100):
            A, b = random_system(rng)
            exact_result = solve_feasibility(A, b)
            float_result = solve_feasibility(
                [[float(v) for v in row] for row in A], [float(v) for v in b])
            assert exact_result.feasible == float_result.feasible
            scipy_result = linprog(
                c=[0.0] * len(A[0]),
                A_eq=[[float(v) for v in row] for row in A],
                b_eq=[float(v) for v in b],
                bounds=(0, None), method="highs")
            assert scipy_result.status in (0, 2)
            assert exact_result.feasible == (scipy_result.status == 0)


class TestMinimization:
    def test_pinned_variable(self):
        value, x = solve_min([ex(1)], [[ex(1)]], [ex(5)])
        assert value == ex(5)
        assert x == (ex(5),)

    def test_min_over_simplex(self):
        # minimize x2 on the segment x1 + x2 = 1
        value, x = solve_min([ex(0), ex(1)], [[ex(1), ex(1)]], [ex(1)])
        assert value == ex(0)
        assert x == (ex(1), ex(0))

    def test_infeasible_raises_with_certificate(self):
        A = [[ex(1)], [ex(-1)]]
        b = [ex(1), ex(1)]
        with pytest.raises(InfeasibleProblem) as info:
            solve_min([ex(1)], A, b)
        assert verify_certificate(A, b, info.value.certificate)

    def test_unbounded(self):
        # x1 - x2 = 0 leaves x1 = x2 free to grow; minimizing -x1 diverges
        with pytest.raises(Unbounded):
            solve_min([ex(-1), ex(0)], [[ex(1), ex(-1)]], [ex(0)])

    def test_redundant_row_dropped(self):
        A = [[ex(1), ex(1)], [ex(2), ex(2)]]
        b = [ex(1), ex(2)]
        value, x = solve_min([ex(1), ex(0)], A, b)
        assert value == ex(0)
        assert verify_solution(A, b, x)

    def test_degenerate_ties_terminate(self):
        # every rhs zero except the last: heavy pivot ties at every step
        A = [
            [ex(1), ex(-1), ex(0), ex(0)],
            [ex(0), ex(1), ex(-1), ex(0)],
            [ex(0), ex(0), ex(1), ex(-1)],
            [ex(1), ex(1), ex(1), ex(1)],
        ]
        b = [ex(0), ex(0), ex(0), ex(4)]
        value, x = solve_min([ex(1), ex(0), ex(0), ex(0)], A, b)
        assert x == (ex(1), ex(1), ex(1), ex(1))
        assert value == ex(1)

    def test_cost_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_min([ex(1), ex(2)], [[ex(1)]], [ex(1)])

    def test_agreement_with_vertex_oracle_random(self):
        rng = random.Random(20240922)
        compared = 0
        for _ in range(150):
            A, b = random_system(rng, max_rows=3, max_cols=5, entry_bound=2)
            cost = [Fraction(rng.randint(-2, 2)) for _ in A[0]]
            try:
                value, x = solve_min(cost, A, b)
            except InfeasibleProblem:
                assert exact_lp_feasible(columns_of(A), b) is None
                continue
            except Unbounded:
                continue
            best = exact_lp_minimize(cost, columns_of(A), b)
            assert best is not None
            assert value == ExactScalar.from_rational(best) or \
                to_float(value) == pytest.approx(float(best), abs=1e-12)
            assert verify_solution(A, b, x)
            compared += 1
        assert compared > 30


class TestEnteringRules:
    """Chvatal's cycling example (Linear Programming, 1983, ch. 3) at its
    slack basis: most-negative entering with lowest-index leaving cycles on
    it, so Phase II's rule must fall back to Bland's after degenerate
    pivots.  The ceiling is lowered so that a cycle fails fast."""

    @pytest.mark.parametrize("dantzig", [True, False],
                             ids=["phase2", "bland"])
    def test_cycling_example_reaches_optimum(self, monkeypatch, dantzig):
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 50)
        # cells times the scale 2; the last two columns are the rhs r, s
        rows = [[1, -11, -5, 18, 2, 0, 0, 0, 0],
                [1, -3, -1, 2, 0, 2, 0, 0, 0],
                [2, 0, 0, 0, 0, 0, 2, 2, 0]]
        tableau = Tableau(rows, [4, 5, 6], [-10, 57, 9, 24, 0, 0, 0], 2)
        tableau.run(range(7), dantzig=dantzig)
        assert tableau.solution(7) == tuple(map(ex, (1, 0, 1, 0, 2, 0, 0)))
        # the objective row's rhs is -c.x = 1, times the final scale
        assert tableau.objective[-2:] == [tableau.scale, 0]
        assert tableau.pivots == 7


class TestVerifiers:
    def test_solution_rejects_negative(self):
        assert not verify_solution([[ex(1)]], [ex(-1)], [ex(-1)])

    def test_solution_rejects_residual(self):
        assert not verify_solution([[ex(1)]], [ex(1)], [ex(2)])

    def test_certificate_rejects_zero_vector(self):
        assert not verify_certificate([[ex(1)]], [ex(1)],
                                      FarkasCertificate(y=(ex(0),)))

    def test_certificate_rejects_wrong_direction(self):
        # y = (1,) on the feasible system x = 1 gives y.A = 1 > 0
        assert not verify_certificate([[ex(1)]], [ex(1)],
                                      FarkasCertificate(y=(ex(1),)))

    def test_certificate_wrong_length(self):
        assert not verify_certificate([[ex(1)]], [ex(1)],
                                      FarkasCertificate(y=(ex(1), ex(1))))

    @pytest.mark.parametrize("A, b", [
        ([[1]], [1, 5]),        # a second rhs with no row
        ([[1], [1]], [1]),      # a second row with no rhs
    ], ids=["extra-rhs", "extra-row"])
    def test_solution_rejects_row_count_mismatch(self, A, b):
        # x = 1 satisfies every row it is checked against, so only the
        # count can refuse it
        assert not verify_solution(A, b, (1,))

    @pytest.mark.parametrize("A, b, y", [
        ([[1]], [1, 1], (0, 1)),      # the weight sits on a missing row
        ([[-1], [1]], [1], (1,)),     # y^T A skips the row with no rhs
    ], ids=["extra-rhs", "extra-row"])
    def test_certificate_rejects_row_count_mismatch(self, A, b, y):
        assert not verify_certificate(A, b, FarkasCertificate(y=y))

    @pytest.mark.parametrize("b", [[1.0, 2.0], [1, 2]],
                             ids=["float-b", "int-b"])
    @pytest.mark.parametrize("y", [(-1, 1), (Fraction(-1), Fraction(1))],
                             ids=["int", "Fraction"])
    def test_certificate_plain_weights_join_float_data(self, b, y):
        # a float anywhere in the data makes the audit float, as in the
        # solver, so hand-written rational weights are checked, not refused
        A = [[1.0], [1.0]]
        assert verify_certificate(A, b, FarkasCertificate(y=y))
        assert not verify_certificate(A, b, FarkasCertificate(
            y=tuple(-v for v in y)))

    def test_float_tolerance(self):
        assert verify_solution([[1.0]], [1.0], [1.0 + 1e-12])
        assert not verify_solution([[1.0]], [1.0], [1.0 + 1e-6])

    def test_result_shape(self):
        result = LPResult(status="feasible", x=(ex(1),))
        assert result.feasible and result.certificate is None


class TestInvariantBreaches:
    """The two internal errors, forced on systems the solver gets right."""

    def test_pivot_ceiling_raises_cycling_detected(self, monkeypatch):
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 0)
        with pytest.raises(CyclingDetected):
            solve_feasibility([[ex(1)]], [ex(1)])

    @pytest.mark.parametrize("auditor, solve", [
        ("verify_certificate",
         lambda: solve_feasibility([[ex(1)], [ex(-1)]], [ex(1), ex(1)])),
        ("verify_solution", lambda: solve_feasibility([[ex(1)]], [ex(1)])),
        ("verify_solution", lambda: solve_min([ex(1)], [[ex(1)]], [ex(1)])),
    ], ids=["certificate", "point", "optimum"])
    def test_failed_audit_raises_audit_failed(self, monkeypatch, auditor,
                                              solve):
        monkeypatch.setattr(simplex, auditor, lambda *args: False)
        with pytest.raises(AuditFailed):
            solve()


SQRT2 = ExactScalar(Fraction(0), Fraction(1))


def sixths_system(rng, max_rows=3, max_cols=5):
    """Entries k/6, so rows need scaling to integers, and b in Q(sqrt2)."""
    m = rng.randint(1, max_rows)
    n = rng.randint(1, max_cols)
    A = [[Fraction(rng.randint(-6, 6), 6) for _ in range(n)]
         for _ in range(m)]
    b = [ExactScalar(Fraction(rng.randint(-4, 4), 2),
                     Fraction(rng.randint(-2, 2), 3)) for _ in range(m)]
    return A, b


def sqrt2_value(rng):
    return ExactScalar(Fraction(rng.randint(-2, 2), 2),
                       Fraction(rng.choice((-1, 0, 0, 1))))


def sqrt2_system(rng, max_rows=3, max_cols=4):
    """Entries a + b*sqrt2: the solver keeps ExactScalar cells."""
    m = rng.randint(1, max_rows)
    n = rng.randint(1, max_cols)
    A = [[sqrt2_value(rng) for _ in range(n)] for _ in range(m)]
    b = [sqrt2_value(rng) for _ in range(m)]
    return A, b


def exact_columns(A):
    return [[ExactScalar.from_rational(v) if isinstance(v, Fraction) else v
             for v in column] for column in columns_of(A)]


def check_against_oracle(A, b):
    result = solve_feasibility(A, b)
    oracle = exact_lp_feasible(exact_columns(A), b)
    if result.feasible:
        assert oracle is not None
        assert verify_solution(A, b, result.x)
    else:
        assert oracle is None
        assert verify_certificate(A, b, result.certificate)
    return result.feasible


def check_min_against_oracle(cost, A, b):
    """True when a finite optimum was compared with the vertex oracle."""
    try:
        value, x = solve_min(cost, A, b)
    except InfeasibleProblem as error:
        assert exact_lp_feasible(exact_columns(A), b) is None
        assert verify_certificate(A, b, error.certificate)
        return False
    except Unbounded:
        assert exact_lp_feasible(exact_columns(A), b) is not None
        return False
    exact_cost = [ExactScalar.from_rational(v) if isinstance(v, Fraction)
                  else v for v in cost]
    assert value == exact_lp_minimize(exact_cost, exact_columns(A), b)
    assert verify_solution(A, b, x)
    return True


class TestExactKernelRandom:
    """Seeded systems for the fraction-free kernel's less common paths."""

    def test_sixths_feasibility(self):
        rng = random.Random(20261020)
        verdicts = [check_against_oracle(*sixths_system(rng))
                    for _ in range(120)]
        assert verdicts.count(True) > 15 and verdicts.count(False) > 15

    def test_sixths_minimization(self):
        rng = random.Random(20261021)
        compared = 0
        for _ in range(100):
            A, b = sixths_system(rng)
            cost = [Fraction(rng.randint(-6, 6), 6) for _ in A[0]]
            compared += check_min_against_oracle(cost, A, b)
        assert compared > 15

    def test_sqrt2_entries_feasibility(self):
        rng = random.Random(20261022)
        verdicts = [check_against_oracle(*sqrt2_system(rng))
                    for _ in range(100)]
        assert verdicts.count(True) > 15 and verdicts.count(False) > 15

    def test_sqrt2_entries_minimization(self):
        rng = random.Random(20261023)
        compared = 0
        for _ in range(100):
            A, b = sqrt2_system(rng)
            cost = [sqrt2_value(rng) for _ in A[0]]
            compared += check_min_against_oracle(cost, A, b)
        assert compared > 15

    @pytest.mark.parametrize("scale", [1, Fraction(1, 6), SQRT2])
    def test_negative_drive_out_pivot(self, scale):
        # Phase I ends with row 2's artificial basic at level zero and a
        # negative entry under x2, so the drive-out pivots on a negative head
        A = [[scale, scale], [Fraction(1, 3), Fraction(-1, 3)]]
        b = [scale, Fraction(1, 3)]
        value, x = solve_min([ex(0), ex(1)], A, b)
        assert value == ex(0)
        assert x == (ex(1), ex(0))
        value, x = solve_min([ex(-1), ex(1)], A, b)
        assert value == ex(-1)
        assert x == (ex(1), ex(0))

    @pytest.mark.parametrize("A, b, cost, best", [
        ([[1, 1, 1], [0, 1, 1]], [1, 1], [-1, 0, -2], -2),
        ([[2, -2, 2], [1, -2, 1]], [2, 1], [2, 1, -2], -2),
    ])
    @pytest.mark.parametrize("scale", [1, Fraction(1, 6)])
    def test_phase_two_after_negative_drive_out(self, A, b, cost, best,
                                                scale):
        # a wrong sign on the common scale after the drive-out would stop
        # Phase II at a worse vertex
        A = [[scale * v for v in row] for row in A]
        b = [scale * v for v in b]
        value, x = solve_min(cost, A, b)
        assert value == ex(best)
        assert verify_solution(A, b, x)

    def test_certificate_after_bareiss_pivot(self):
        # 2x = 1 and x = 1: Phase I pivots on the head 2, so the reduced
        # costs are read off over the common denominator 2
        result = solve_feasibility([[ex(2)], [ex(1)]], [ex(1), ex(1)])
        assert result.certificate.y == (ex(Fraction(-1, 2)), ex(1))

    def test_sqrt2_cost_over_rational_rows(self):
        rng = random.Random(20261024)
        compared = 0
        for _ in range(80):
            A, b = sixths_system(rng)
            cost = [sqrt2_value(rng) for _ in A[0]]
            compared += check_min_against_oracle(cost, A, b)
        assert compared > 10


def column_sums(A, y):
    return [sum(y[i].a * A[i][j].a for i in range(len(y)))
            for j in range(len(A[0]))]


# the second bump is below the float tolerance: only an exact audit sees it
BUMPS = [Fraction(1, 64), Fraction(1, 10**12)]


class TestCertificatePerturbation:
    @pytest.mark.parametrize("bump", BUMPS)
    def test_one_entry_perturbation_fails_audit(self, bump):
        # canonical correlation problem: 37 x 64, entries 0/1, sqrt2 in b
        from bellgate.feasibility import build_prop2
        from bellgate.qubit import canonical_scenario
        problem = build_prop2(canonical_scenario())
        A, b = problem.matrix, problem.rhs
        y = solve_feasibility(A, b).certificate.y
        assert verify_certificate(A, b, FarkasCertificate(y=y))
        sums = column_sums(A, y)
        tried = 0
        for i in range(len(y)):
            tight = [j for j, total in enumerate(sums)
                     if total == 0 and A[i][j]]
            if not tight:
                continue
            # raising y_i by A_ij * bump lifts column j's sum above zero
            bumped = list(y)
            bumped[i] = y[i] + A[i][tight[0]] * bump
            assert not verify_certificate(A, b, FarkasCertificate(y=tuple(bumped)))
            tried += 1
        assert tried > len(y) // 2

    @pytest.mark.parametrize("bump", BUMPS)
    def test_perturbed_random_certificates_fail_audit(self, bump):
        rng = random.Random(20261025)
        tried = 0
        for _ in range(120):
            A, b = sixths_system(rng)
            result = solve_feasibility(A, b)
            if result.feasible:
                continue
            rows = [[ExactScalar.from_rational(v) for v in row] for row in A]
            y = result.certificate.y
            for j, total in enumerate(column_sums(rows, y)):
                i = next((i for i in range(len(y)) if rows[i][j]), None)
                if total == 0 and i is not None:
                    bumped = list(y)
                    bumped[i] = y[i] + rows[i][j] * bump
                    assert not verify_certificate(
                        A, b, FarkasCertificate(y=tuple(bumped)))
                    tried += 1
                    break
        assert tried > 10


class TestAuditBackends:
    def test_certificate_audit_refuses_mixed_backends(self):
        with pytest.raises(MixedBackendError):
            verify_certificate([[ex(1)], [ex(-1)]], [ex(1), ex(1)],
                               FarkasCertificate(y=(1.0, 1.0)))
        with pytest.raises(MixedBackendError):
            verify_certificate([[1.0], [-1.0]], [1.0, 1.0],
                               FarkasCertificate(y=(ex(1), ex(1))))
        # y^T A > 0 here, so only the column sums can see the mix
        with pytest.raises(MixedBackendError):
            verify_certificate([[1.0]], [1.0], FarkasCertificate(y=(ex(1),)))

    def test_solution_audit_refuses_mixed_backends(self):
        with pytest.raises(MixedBackendError):
            verify_solution([[ex(1)]], [ex(1)], [1.0])


SIXTHS = st.integers(-6, 6).map(lambda k: Fraction(k, 6))
#: one rhs part: small numerator over a per-entry denominator
RHS_PART = st.builds(Fraction, st.integers(-4, 4),
                     st.sampled_from((1, 2, 3, 5, 6)))
#: zero half the time, so degenerate (zero-ratio) ties are common
RHS_VALUE = st.one_of(st.just(ExactScalar(Fraction(0), Fraction(0))),
                      st.builds(ExactScalar, RHS_PART, RHS_PART))
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=150,
                             deadline=None, database=None)


@st.composite
def rational_systems(draw):
    """A in k/6 (int tableau cells), b in Q(sqrt2), and a k/6 cost.  An
    optional scaled copy of row 0 gives equal ratios in the ratio test;
    a negative factor also makes it a flipped row."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    A = [[draw(SIXTHS) for _ in range(n)] for _ in range(m)]
    b = [draw(RHS_VALUE) for _ in range(m)]
    factor = draw(st.sampled_from((None, 2, Fraction(1, 3), -1)))
    if factor is not None:
        A.append([factor * v for v in A[0]])
        b.append(b[0] * factor)
    cost = [draw(SIXTHS) for _ in range(n)]
    return A, b, cost


class TestIntKernelProperties:
    """The int-rhs kernel against the vertex oracle on generated systems."""

    @PROPERTY_SETTINGS
    @given(rational_systems())
    def test_feasibility_verdict_and_audits(self, system):
        A, b, _ = system
        check_against_oracle(A, b)

    @PROPERTY_SETTINGS
    @given(rational_systems())
    def test_minimum_and_audits(self, system):
        check_min_against_oracle(system[2], system[0], system[1])


def forced_columns(A, b):
    """Columns that a zero-rhs row with no negative entry forces to zero,
    found here without the solver's presolve."""
    forced = set()
    for row, target in zip(A, b):
        if target == 0 and all(v >= 0 for v in row):
            forced |= {j for j, v in enumerate(row) if v > 0}
    return forced


#: nonnegative entries of a planted forcing row, and the positive one it
#: surely has; the sqrt2 variant adds sqrt2 and sqrt2 - 1
PLANTED_POSITIVE = st.sampled_from((Fraction(1), Fraction(2), Fraction(1, 3)))
PLANTED = st.one_of(st.just(Fraction(0)), PLANTED_POSITIVE)
SQRT2_ENTRY = st.builds(ExactScalar,
                        st.integers(-2, 2).map(lambda k: Fraction(k, 2)),
                        st.sampled_from((-1, 0, 0, 1)))
SQRT2_POSITIVE = st.sampled_from((ex(1), SQRT2, SQRT2 - 1))
SQRT2_PLANTED = st.one_of(st.just(ex(0)), SQRT2_POSITIVE)


@st.composite
def planted_systems(draw, entry=SIXTHS, rhs=RHS_VALUE, planted=PLANTED,
                    positive=PLANTED_POSITIVE):
    """A random system with one or two forcing rows (rhs 0, entries >= 0,
    one of them positive) inserted at random places."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    A = [[draw(entry) for _ in range(n)] for _ in range(m)]
    b = [draw(rhs) for _ in range(m)]
    for _ in range(draw(st.integers(1, 2))):
        row = [draw(planted) for _ in range(n)]
        row[draw(st.integers(0, n - 1))] = draw(positive)
        at = draw(st.integers(0, len(A)))
        A.insert(at, row)
        b.insert(at, ex(0))
    return A, b


class TestPresolve:
    """Forcing rows are deleted before Phase I and their columns with them;
    points lift back by zeros and certificates by charged weights."""

    def check_planted(self, system):
        A, b = system
        forced = forced_columns(A, b)
        assert forced
        # the verdict equals the oracle's; the point or the lifted
        # certificate passes its audit on the full A, b
        if check_against_oracle(A, b):
            x = solve_feasibility(A, b).x
            assert all(x[j] == 0 for j in forced)

    @settings(derandomize=True, max_examples=120, deadline=None,
              database=None)
    @given(planted_systems())
    def test_planted_forcing_rows(self, system):
        self.check_planted(system)

    @settings(derandomize=True, max_examples=60, deadline=None,
              database=None)
    @given(planted_systems(entry=SQRT2_ENTRY,
                           rhs=st.one_of(st.just(ex(0)), SQRT2_ENTRY),
                           planted=SQRT2_PLANTED, positive=SQRT2_POSITIVE))
    def test_planted_forcing_rows_sqrt2(self, system):
        self.check_planted(system)

    @pytest.mark.parametrize("one", [ex(1), 1.0], ids=["exact", "float"])
    def test_lift_charges_forced_column(self, one):
        # x2 = 0 forces x2 out; what is left, x1 = 1 and x1 = 2, needs a
        # positive weight y[1] on x1 + x2 = 2, which leaves x2's total
        # (y^T A)_2 = y[1] positive until the row x2 = 0 gets -y[1]
        zero = one * 0
        A = [[one, zero], [one, one], [zero, one]]
        b = [one, one + one, zero]
        y = solve_feasibility(A, b).certificate.y
        assert all(type(weight) is type(one) for weight in y)
        assert y[1] > 0 and y[2] == -y[1]
        assert verify_certificate(A, b, FarkasCertificate(y=y))
        assert not verify_certificate(A, b,
                                      FarkasCertificate(y=y[:2] + (zero,)))

    def test_float_zero_test_is_exact(self):
        # a 1e-13 rhs and a -1e-13 entry sit inside the 1e-9 band but do
        # not make forcing rows, so neither system forces x1 to zero
        for A, b in (([[1.0, 1.0], [1.0, 0.0]], [1.0, 1e-13]),
                     ([[1.0, 1.0], [1.0, -1e-13]], [1.0, 0.0])):
            x = solve_feasibility(A, b).x
            assert x[0] > 0
