"""Command-line front end.

Commands: check-prop1 and check-prop2 run the canonical feasibility
questions and emit JSON reports with audited certificates or witnesses;
scan sweeps the setting family (0, theta, 2*theta) and emits CSV; transform
converts models between the single-qubit and bipartite pictures;
validate-model audits a model file.

Exit codes: 0 success, 1 internal error, 2 usage or unreadable input,
3 violated transformation precondition.

Exact mode reads --angles as integers counting pi/8 steps, so only even
values (multiples of pi/4) are representable; 0,2,4 are the defaults
Z, Z+X, X.  Float mode reads radians.  BELLGATE_MODE sets the default
mode; an explicit --mode wins.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from .feasibility import (
    build_prop1,
    build_prop2,
    column_name,
    extract_inequality,
    min_slack,
    row_name,
    solve_problem,
)
from .ontology import (
    UnknownMeasurement,
    UnknownSetting,
    UnknownState,
    lhv_from_json,
    lhv_to_json,
    model_from_json,
    model_to_json,
    validate,
)
from .qubit import (
    PlanarAngle,
    build_scenario,
    scenario_to_json,
    wigner_inequality_value,
)
from .scalar import scalar_to_json, sign, to_float
from .simplex import FarkasCertificate
from .transform import (
    PremiseViolated,
    ZeroProbabilityCondition,
    decomposition_independence_check,
    forward_charlie,
    reverse_group,
)

SCHEMA = "bellgate/1"
CSV_SCHEMA = "schema_v1"
DEFAULT_EXACT_ANGLES = "0,2,4"
DEFAULT_FLOAT_ANGLES = "0,0.7853981633974483,1.5707963267948966"
#: check-prop1/2 limits: exact m=6 check-prop2 takes ~0.7 s, float m=7 ~1 s
MAX_SETTINGS = {"exact": 6, "float": 7}


class UsageError(Exception):
    """Bad flags or unreadable input; mapped to exit code 2."""


def _default_mode() -> str:
    mode = os.environ.get("BELLGATE_MODE", "exact")
    if mode not in ("exact", "float"):
        raise UsageError(
            f"BELLGATE_MODE must be 'exact' or 'float', not {mode!r}")
    return mode


def _parse_angles(text: str, mode: str) -> List[PlanarAngle]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise UsageError("--angles needs at least one value")
    angles = []
    for part in parts:
        if mode == "exact":
            try:
                steps = int(part)
            except ValueError:
                raise UsageError(
                    f"exact mode takes integers counting pi/8 steps: {part!r}")
            if steps % 2:
                raise UsageError(
                    f"exact mode represents only pi/4 multiples; "
                    f"{part} counts an odd number of pi/8 steps")
            angles.append(PlanarAngle.from_eighth_turns(steps // 2))
        else:
            try:
                angles.append(PlanarAngle.from_radians(float(part)))
            except ValueError:
                raise UsageError(f"float mode takes radians: {part!r}")
    return angles


def _scenario_from_args(args, mode: str):
    if args.angles:
        text = args.angles
    else:
        text = DEFAULT_EXACT_ANGLES if mode == "exact" else DEFAULT_FLOAT_ANGLES
    return build_scenario(_parse_angles(text, mode))


def _certificate_json(problem, certificate: FarkasCertificate) -> list:
    return [{"row": row_name(label), "weight": scalar_to_json(value)}
            for label, value in zip(problem.row_labels, certificate.y)
            if sign(value) != 0]


def _witness_json(problem, x) -> list:
    return [{"column": column_name(label), "value": scalar_to_json(value)}
            for label, value in zip(problem.column_labels, x)
            if sign(value) != 0]


def _result_json(problem, result) -> dict:
    if result.feasible:
        return {"status": "feasible",
                "witness": _witness_json(problem, result.x)}
    return {"status": "infeasible",
            "certificate": _certificate_json(problem, result.certificate)}


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(report: dict, out: Optional[str]):
    _emit(json.dumps(report, indent=2) + "\n", out)


def _check(args, command: str, build, extend) -> int:
    """Solve and report a check command; extend adds the command's keys."""
    mode = args.mode or _default_mode()
    scenario = _scenario_from_args(args, mode)
    m, limit = len(scenario.measurements), MAX_SETTINGS[mode]
    if m > limit:
        raise UsageError(f"{mode} mode takes at most {limit} settings, not "
                         f"{m} (4^{m} = {4 ** m} strategy columns)")
    started = time.perf_counter()
    problem = build(scenario)
    result = solve_problem(problem)
    elapsed = time.perf_counter() - started
    report = {
        "schema": SCHEMA,
        "command": command,
        "mode": mode,
        "scenario": scenario_to_json(scenario),
        "problem": {
            "rows": len(problem.matrix),
            "columns": len(problem.column_labels),
        },
        "result": _result_json(problem, result),
    }
    extend(report, scenario, problem, result)
    if args.with_timings:
        report["timings"] = {"solve_seconds": elapsed}
    _emit_json(report, args.out)
    return 0


def cmd_check_prop1(args) -> int:
    equality = not args.no_equality

    def extend(report, scenario, problem, result):
        report["problem"]["decomposition_equality"] = equality

    return _check(args, "check-prop1", lambda scenario: build_prop1(
        scenario, include_decomposition_equality=equality), extend)


def cmd_check_prop2(args) -> int:
    def extend(report, scenario, problem, result):
        wigner = inequality = None
        if len(scenario.measurements) >= 3:
            wigner = {
                convention: scalar_to_json(
                    wigner_inequality_value(scenario, convention))
                for convention in ("strict01", "differ")}
        if not result.feasible:
            extracted = extract_inequality(result.certificate, problem)
            inequality = extracted.to_json()
            inequality["quantum_value"] = scalar_to_json(
                extracted.quantum_value(scenario))
            inequality["quantum_margin"] = scalar_to_json(
                extracted.quantum_margin(scenario))
        report["wigner"] = wigner
        report["inequality"] = inequality

    return _check(args, "check-prop2", build_prop2, extend)


def cmd_scan(args) -> int:
    if args.steps < 2:
        raise UsageError("--steps must be at least 2")
    if not args.start < args.stop:
        raise UsageError("--from must be smaller than --to")
    rows = []
    for i in range(args.steps):
        theta = args.start + i * (args.stop - args.start) / (args.steps - 1)
        scenario = build_scenario([PlanarAngle.from_radians(angle)
                                   for angle in (0.0, theta, 2 * theta)])
        problem = build_prop2(scenario)
        result = solve_problem(problem)
        slack, _ = min_slack(problem)
        wigner = to_float(wigner_inequality_value(scenario))
        rows.append((theta, 1 if result.feasible else 0, slack, wigner))
    lines = [f"# {CSV_SCHEMA}"]
    lines.append("theta,prop2_feasible,min_slack,wigner_strict01")
    for theta, feasible, slack, wigner in rows:
        lines.append(f"{theta!r},{feasible},{slack!r},{wigner!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}")


def _parse_model(args, blob: dict, parse, what: str = ""):
    try:
        return parse(blob)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"{args.model}: {what}{exc}")


def _unknown_label(args, exc: KeyError) -> UsageError:
    """A scenario or --condition label that the model does not have."""
    kind = {UnknownMeasurement: "measurement", UnknownSetting: "setting",
            UnknownState: "state"}[type(exc)]
    return UsageError(f"{args.model}: the model has no {kind} "
                      f"{exc.args[0]!r}")


def _parse_condition(text: str):
    pieces = text.split(":")
    if len(pieces) != 3:
        raise UsageError("--condition takes SIDE:MEAS:BIT, like B:Z+X:0")
    side, measurement, bit = pieces
    if side not in ("A", "B"):
        raise UsageError(f"condition side must be A or B, not {side!r}")
    if bit not in ("0", "1"):
        raise UsageError(f"condition bit must be 0 or 1, not {bit!r}")
    return side, measurement, int(bit)


def cmd_transform(args) -> int:
    mode = args.mode or _default_mode()
    blob = _load_json(args.model)
    if args.direction == "forward":
        scenario = _scenario_from_args(args, mode)
        model = _parse_model(args, blob, model_from_json,
                             "not an ontological model: ")
        try:
            lhv = forward_charlie(model, scenario)
        except PremiseViolated as exc:
            print(f"premise violated: decomposition mixtures differ on "
                  f"cell {exc.cell!r} by {exc.difference} "
                  f"(~ {to_float(exc.difference):+.6g})", file=sys.stderr)
            return 3
        except (UnknownMeasurement, UnknownState) as exc:
            raise _unknown_label(args, exc)
        _emit_json(lhv_to_json(lhv), args.out)
        return 0
    if not args.condition:
        raise UsageError("reverse transform needs --condition SIDE:MEAS:BIT")
    side, measurement, bit = _parse_condition(args.condition)
    lhv = _parse_model(args, blob, lhv_from_json,
                       "not a local-hidden-variable model: ")
    try:
        model = reverse_group(lhv, side, measurement, bit)
    except ZeroProbabilityCondition as exc:
        print(f"impossible condition: {exc}", file=sys.stderr)
        return 3
    except UnknownSetting as exc:
        raise _unknown_label(args, exc)
    _emit_json(model_to_json(model), args.out)
    return 0


def cmd_validate_model(args) -> int:
    mode = args.mode or _default_mode()
    blob = _load_json(args.model)
    if "epistemics" in blob:
        model = _parse_model(args, blob, model_from_json)
        scenario = _scenario_from_args(args, mode)
        try:
            outcome = validate(model, scenario)
        except (UnknownMeasurement, UnknownState) as exc:
            raise _unknown_label(args, exc)
        report = {
            "schema": SCHEMA,
            "command": "validate-model",
            "kind": "ontological",
            "mode": mode,
            "scenario": scenario_to_json(scenario),
            "verdict": {
                "quantum_compatible": outcome.quantum_compatible,
                "decomposition_compatible": outcome.decomposition_compatible,
            },
            "report": outcome.to_json(),
        }
    elif "weights" in blob:
        lhv = _parse_model(args, blob, lhv_from_json)
        independence = decomposition_independence_check(lhv)
        report = {
            "schema": SCHEMA,
            "command": "validate-model",
            "kind": "local-hidden-variable",
            "verdict": {
                "valid": True,
                "independence_all_zero": independence.all_zero,
            },
            "settings": list(lhv.settings),
            "strategies": len(lhv.weights),
        }
    else:
        raise UsageError(
            f"{args.model}: neither an ontological model (epistemics) "
            f"nor a local-hidden-variable model (weights)")
    _emit_json(report, args.out)
    return 0


def _add_mode_flags(parser):
    parser.add_argument("--mode", choices=("exact", "float"),
                        help="arithmetic backend (default: BELLGATE_MODE "
                             "or exact)")
    parser.add_argument("--angles",
                        help="comma-separated measurement angles; exact "
                             "mode: even integers counting pi/8 steps "
                             "(default 0,2,4 = Z,Z+X,X); float mode: radians")
    parser.add_argument("--out", help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellgate",
        description="Exact feasibility checks for hidden-variable models")
    commands = parser.add_subparsers(dest="command", required=True)

    prop1 = commands.add_parser(
        "check-prop1", help="decomposition-measure feasibility")
    _add_mode_flags(prop1)
    prop1.add_argument("--no-equality", action="store_true",
                       help="drop the decomposition-equality rows")
    prop1.add_argument("--with-timings", action="store_true")
    prop1.set_defaults(handler=cmd_check_prop1)

    prop2 = commands.add_parser(
        "check-prop2", help="local-hidden-variable feasibility")
    _add_mode_flags(prop2)
    prop2.add_argument("--with-timings", action="store_true")
    prop2.set_defaults(handler=cmd_check_prop2)

    scan = commands.add_parser(
        "scan", help="sweep theta over the settings family (0, theta, "
                     "2*theta) in float mode")
    scan.add_argument("--from", dest="start", type=float, required=True,
                      help="first theta, radians")
    scan.add_argument("--to", dest="stop", type=float, required=True,
                      help="last theta, radians (inclusive)")
    scan.add_argument("--steps", type=int, required=True,
                      help="number of grid points (at least 2)")
    scan.add_argument("--out", help="write CSV to this path")
    scan.set_defaults(handler=cmd_scan)

    transform = commands.add_parser(
        "transform", help="convert between the two model pictures")
    transform.add_argument("--direction", choices=("forward", "reverse"),
                           required=True)
    transform.add_argument("--model", required=True,
                           help="input model JSON path")
    transform.add_argument("--condition",
                           help="SIDE:MEAS:BIT, required for reverse")
    _add_mode_flags(transform)
    transform.set_defaults(handler=cmd_transform)

    validate_model = commands.add_parser(
        "validate-model", help="audit a model file")
    validate_model.add_argument("--model", required=True,
                                help="model JSON path")
    _add_mode_flags(validate_model)
    validate_model.set_defaults(handler=cmd_validate_model)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant breach
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
