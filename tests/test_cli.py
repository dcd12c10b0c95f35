"""CLI contract: reports, formats, exit codes."""

import json
import math

import pytest

from bellgate import cli
from bellgate.cli import main
from fixtures import load_bundled, product_model
from bellgate.feasibility import LPProblem
from bellgate.ontology import model_to_json
from bellgate.qubit import canonical_scenario
from bellgate.scalar import ExactScalar


@pytest.fixture(autouse=True)
def clean_mode_env(monkeypatch):
    monkeypatch.delenv("BELLGATE_MODE", raising=False)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


class TestCheckProp1:

    def test_canonical_infeasible(self, capsys):
        report = run_json(capsys, ["check-prop1"])
        assert report["schema"] == "bellgate/1"
        assert report["command"] == "check-prop1"
        assert report["mode"] == "exact"
        assert report["problem"] == {
            "rows": 58, "columns": 48, "decomposition_equality": True}
        assert report["result"]["status"] == "infeasible"
        entries = report["result"]["certificate"]
        assert entries
        for entry in entries:
            assert set(entry) == {"row", "weight"}
        # every certificate row must reference a problem row kind
        kinds = {entry["row"].split("(")[0] for entry in entries}
        assert kinds <= {"normalization", "born", "decomp"}

    def test_no_equality_feasible(self, capsys):
        report = run_json(capsys, ["check-prop1", "--no-equality"])
        assert report["problem"]["decomposition_equality"] is False
        assert report["result"]["status"] == "feasible"
        for entry in report["result"]["witness"]:
            assert entry["column"].startswith("mu(")

    def test_two_settings_feasible(self, capsys):
        report = run_json(capsys, ["check-prop1", "--angles", "0,4"])
        assert report["result"]["status"] == "feasible"
        labels = [m["label"] for m in report["scenario"]["measurements"]]
        assert labels == ["Z", "X"]

    def test_deterministic_output(self, capsys, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(["check-prop1", "--out", str(first)]) == 0
        assert main(["check-prop1", "--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_timings_opt_in(self, capsys):
        without = run_json(capsys, ["check-prop1", "--angles", "0,4"])
        assert "timings" not in without
        with_timings = run_json(
            capsys, ["check-prop1", "--angles", "0,4", "--with-timings"])
        assert with_timings["timings"]["solve_seconds"] > 0


class TestCheckProp2:

    def test_canonical_infeasible_with_wigner(self, capsys):
        report = run_json(capsys, ["check-prop2"])
        assert report["result"]["status"] == "infeasible"
        strict01 = report["wigner"]["strict01"]
        differ = report["wigner"]["differ"]
        # -(sqrt2-1)/4 and -(sqrt2-1)/2
        assert strict01 == {"a": "1/4", "b": "-1/4",
                            "approx": strict01["approx"]}
        assert abs(strict01["approx"] + 0.10355339059327379) < 1e-12
        assert differ["a"] == "1/2" and differ["b"] == "-1/2"
        inequality = report["inequality"]
        assert inequality["bound"]["a"] == "-1"
        assert len(inequality["terms"]) == 34
        assert abs(inequality["quantum_margin"]["approx"]
                   - (5 * math.sqrt(2) - 5)) < 1e-12
        for term in inequality["terms"]:
            assert term["probability"].startswith("P(")

    def test_two_settings_feasible(self, capsys):
        report = run_json(capsys, ["check-prop2", "--angles", "0,4"])
        assert report["result"]["status"] == "feasible"
        assert report["wigner"] is None
        assert report["inequality"] is None
        total = sum(entry["value"]["approx"]
                    for entry in report["result"]["witness"])
        assert abs(total - 1.0) < 1e-12

    def test_float_mode_agrees(self, capsys):
        angles = "0,0.7853981633974483,1.5707963267948966"
        report = run_json(
            capsys, ["check-prop2", "--mode", "float", "--angles", angles])
        assert report["mode"] == "float"
        assert report["result"]["status"] == "infeasible"
        assert abs(report["inequality"]["quantum_margin"]
                   - (5 * math.sqrt(2) - 5)) < 1e-9
        assert abs(report["wigner"]["strict01"]
                   + 0.10355339059327379) < 1e-9

    def test_env_sets_default_mode(self, capsys, monkeypatch):
        monkeypatch.setenv("BELLGATE_MODE", "float")
        report = run_json(capsys, ["check-prop2"])
        assert report["mode"] == "float"
        assert report["result"]["status"] == "infeasible"

    def test_explicit_mode_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BELLGATE_MODE", "float")
        report = run_json(capsys, ["check-prop2", "--mode", "exact"])
        assert report["mode"] == "exact"
        assert report["wigner"]["strict01"]["a"] == "1/4"

    def test_bad_env_mode(self, capsys, monkeypatch):
        monkeypatch.setenv("BELLGATE_MODE", "sideways")
        code, _, err = run(capsys, ["check-prop2"])
        assert code == 2
        assert "BELLGATE_MODE" in err


class TestScan:

    def test_small_scan_format(self, capsys):
        code, out, err = run(capsys, [
            "scan", "--from", "0.3", "--to", "0.7853981633974483",
            "--steps", "3"])
        assert code == 0, err
        assert "\r" not in out
        lines = out.split("\n")
        assert lines[0] == "# schema_v1"
        assert lines[1] == "theta,prop2_feasible,min_slack,wigner_strict01"
        assert lines[-1] == ""
        data = [line.split(",") for line in lines[2:-1]]
        assert len(data) == 3
        # inclusive endpoints
        assert float(data[0][0]) == 0.3
        assert float(data[-1][0]) == 0.7853981633974483
        for row in data:
            theta = float(row[0])
            assert row[1] == "0"
            assert float(row[2]) > 0
            expected = -math.cos(theta) * (1 - math.cos(theta)) / 2
            assert abs(float(row[3]) - expected) < 1e-9

    def test_scan_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, _, _ = run(capsys, [
            "scan", "--from", "0.3", "--to", "0.6", "--steps", "2",
            "--out", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("# schema_v1\n")
        assert text.endswith("\n")
        assert len(text.split("\n")) == 5

    def test_bad_range(self, capsys):
        code, _, err = run(
            capsys, ["scan", "--from", "0.7", "--to", "0.3", "--steps", "3"])
        assert code == 2
        assert "--from" in err

    def test_bad_steps(self, capsys):
        code, _, err = run(
            capsys, ["scan", "--from", "0.3", "--to", "0.7", "--steps", "1"])
        assert code == 2
        assert "--steps" in err


class TestTransform:

    @pytest.fixture
    def toy_path(self, tmp_path):
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(load_bundled("toy_two_setting.json")))
        return str(path)

    @pytest.fixture
    def uniform_path(self, tmp_path):
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps(load_bundled("uniform_lhv.json")))
        return str(path)

    def test_forward_toy(self, capsys, toy_path):
        blob = run_json(capsys, [
            "transform", "--direction", "forward", "--model", toy_path,
            "--angles", "0,4"])
        assert blob["settings"] == ["Z", "X"]
        assert set(blob["weights"]) == {"00|00", "01|01", "10|10", "11|11"}
        for value in blob["weights"].values():
            assert value["a"] == "1/4" and value["b"] == "0"

    def test_forward_premise_violation(self, capsys, tmp_path):
        path = tmp_path / "product.json"
        path.write_text(json.dumps(
            model_to_json(product_model(canonical_scenario()))))
        code, out, err = run(capsys, [
            "transform", "--direction", "forward", "--model", str(path)])
        assert code == 3
        assert out == ""
        assert "premise violated" in err
        assert "cell" in err

    def test_forward_rejects_lhv_file(self, capsys, uniform_path):
        code, _, err = run(capsys, [
            "transform", "--direction", "forward", "--model", uniform_path])
        assert code == 2
        assert "not an ontological model" in err

    def test_reverse_uniform(self, capsys, uniform_path):
        blob = run_json(capsys, [
            "transform", "--direction", "reverse", "--model", uniform_path,
            "--condition", "B:X:0"])
        assert list(blob["epistemics"]) == ["B:X=0"]
        weights = blob["epistemics"]["B:X=0"]
        assert len(weights) == 32
        for value in weights.values():
            assert value["a"] == "1/32"

    def test_reverse_needs_condition(self, capsys, uniform_path):
        code, _, err = run(capsys, [
            "transform", "--direction", "reverse", "--model", uniform_path])
        assert code == 2
        assert "--condition" in err

    def test_reverse_bad_condition(self, capsys, uniform_path):
        for condition in ("C:X:0", "B:X:2", "B:X", "BX0"):
            code, _, err = run(capsys, [
                "transform", "--direction", "reverse",
                "--model", uniform_path, "--condition", condition])
            assert code == 2, condition

    def test_reverse_impossible_condition(self, capsys, tmp_path):
        path = tmp_path / "point.json"
        path.write_text(json.dumps({
            "mode": "exact",
            "settings": ["Z", "X"],
            "weights": {"00|00": {"a": "1", "b": "0"}},
        }))
        code, _, err = run(capsys, [
            "transform", "--direction", "reverse", "--model", str(path),
            "--condition", "B:X:1"])
        assert code == 3
        assert "impossible condition" in err

    def test_forward_unknown_state(self, capsys, toy_path):
        # float scenarios label their states M0:0, ...; the toy uses |0>
        code, out, err = run(capsys, [
            "transform", "--direction", "forward", "--model", toy_path,
            "--mode", "float", "--angles", "0,1.5707963267948966"])
        assert code == 2
        assert out == ""
        assert "the model has no state 'M0:0'" in err

    def test_reverse_unknown_setting(self, capsys, uniform_path):
        code, _, err = run(capsys, [
            "transform", "--direction", "reverse", "--model", uniform_path,
            "--condition", "B:Q:0"])
        assert code == 2
        assert "the model has no setting 'Q'" in err

    def test_missing_model_file(self, capsys):
        code, _, err = run(capsys, [
            "transform", "--direction", "forward",
            "--model", "/nonexistent/model.json"])
        assert code == 2
        assert "cannot read" in err

    def test_forward_then_validate(self, capsys, toy_path, tmp_path):
        out_path = tmp_path / "lhv.json"
        assert main(["transform", "--direction", "forward",
                     "--model", toy_path, "--angles", "0,4",
                     "--out", str(out_path)]) == 0
        capsys.readouterr()
        report = run_json(
            capsys, ["validate-model", "--model", str(out_path)])
        assert report["kind"] == "local-hidden-variable"
        assert report["verdict"]["independence_all_zero"] is True


class TestValidateModel:

    def test_ontological(self, capsys, tmp_path):
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(load_bundled("toy_two_setting.json")))
        report = run_json(capsys, [
            "validate-model", "--model", str(path), "--angles", "0,4"])
        assert report["kind"] == "ontological"
        assert report["verdict"] == {
            "quantum_compatible": True, "decomposition_compatible": True}
        assert report["report"]["born"]

    def test_unknown_measurement(self, capsys, tmp_path):
        # the toy model answers Z and X only; the default angles add Z+X
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(load_bundled("toy_two_setting.json")))
        code, out, err = run(capsys, ["validate-model", "--model", str(path)])
        assert code == 2
        assert out == ""
        assert "the model has no measurement 'Z+X'" in err

    def test_lhv(self, capsys, tmp_path):
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps(load_bundled("uniform_lhv.json")))
        report = run_json(capsys, ["validate-model", "--model", str(path)])
        assert report["kind"] == "local-hidden-variable"
        assert report["verdict"] == {
            "valid": True, "independence_all_zero": True}
        assert report["settings"] == ["Z", "Z+X", "X"]
        assert report["strategies"] == 64

    def test_unrecognized_shape(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"foo": 1}')
        code, _, err = run(capsys, ["validate-model", "--model", str(path)])
        assert code == 2
        assert "neither" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["validate-model", "--model", str(path)])
        assert code == 2
        assert "not valid JSON" in err


class TestUsage:

    def test_no_command(self):
        with pytest.raises(SystemExit) as failure:
            main([])
        assert failure.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as failure:
            main(["frobnicate"])
        assert failure.value.code == 2

    def test_odd_exact_angle(self, capsys):
        code, _, err = run(capsys, ["check-prop1", "--angles", "0,3"])
        assert code == 2
        assert "pi/8" in err

    def test_non_integer_exact_angle(self, capsys):
        code, _, err = run(capsys, ["check-prop1", "--angles", "0,1.5"])
        assert code == 2

    def test_empty_angles(self, capsys):
        code, _, err = run(capsys, ["check-prop1", "--angles", " , "])
        assert code == 2

    def test_float_angles_are_radians(self, capsys):
        report = run_json(capsys, [
            "check-prop2", "--mode", "float", "--angles",
            "0,1.5707963267948966"])
        # two orthogonal settings: Fine-style feasible
        assert report["result"]["status"] == "feasible"


EXACT_ANGLES = ",".join(str(2 * k) for k in range(7))        # pi/8 steps
FLOAT_ANGLES = ",".join(str(0.2 * k) for k in range(8))      # radians


class TestSizeGuard:
    """check-prop1/2 refuse more settings than MAX_SETTINGS, with exit 2."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Replace the LP builders by a one-cell problem; record m."""
        seen = []

        def build(scenario, **options):
            seen.append(len(scenario.measurements))
            one = ExactScalar.from_rational(1) if scenario.exact else 1.0
            return LPProblem(matrix=((one,),), rhs=(one,),
                             column_labels=(("p", "x"),),
                             row_labels=(("normalization",),), settings=())

        monkeypatch.setattr(cli, "build_prop1", build)
        monkeypatch.setattr(cli, "build_prop2", build)
        return seen

    def test_limits(self):
        assert cli.MAX_SETTINGS == {"exact": 6, "float": 7}

    @pytest.mark.parametrize("command", ["check-prop1", "check-prop2"])
    @pytest.mark.parametrize("mode, angles, limit", [
        ("exact", EXACT_ANGLES, 6), ("float", FLOAT_ANGLES, 7)])
    def test_limit_accepted(self, capsys, built, command, mode, angles,
                            limit):
        angles = ",".join(angles.split(",")[:limit])
        report = run_json(capsys, [command, "--mode", mode,
                                   "--angles", angles])
        assert built == [limit]
        assert len(report["scenario"]["measurements"]) == limit

    @pytest.mark.parametrize("command", ["check-prop1", "check-prop2"])
    @pytest.mark.parametrize("mode, angles, limit", [
        ("exact", EXACT_ANGLES, 6), ("float", FLOAT_ANGLES, 7)])
    def test_limit_plus_one_refused(self, capsys, built, command, mode,
                                    angles, limit):
        code, out, err = run(capsys, [command, "--mode", mode,
                                      "--angles", angles])
        assert code == 2
        assert out == ""
        assert built == []
        m = limit + 1
        assert f"at most {limit} settings, not {m}" in err
        assert f"4^{m} = {4 ** m} strategy columns" in err

    def test_exact_limit_solves(self, capsys):
        report = run_json(capsys, ["check-prop1", "--angles",
                                   ",".join(EXACT_ANGLES.split(",")[:6])])
        assert report["problem"]["rows"] == 476
        assert report["result"]["status"] == "infeasible"
