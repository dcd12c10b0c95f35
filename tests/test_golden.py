"""Byte-exact CLI reports for the canonical exact commands.

The golden files pin certificates, witnesses and margins, so any change to
the solver's pivot sequence or certificate read-out shows up here.  To
regenerate after an intended change, run for example
``PYTHONPATH=src python -m bellgate.cli check-prop1 > tests/golden/check_prop1.json``.
"""

from pathlib import Path

import pytest

from bellgate.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(autouse=True)
def clean_mode_env(monkeypatch):
    monkeypatch.delenv("BELLGATE_MODE", raising=False)


@pytest.mark.parametrize("name, argv", [
    ("check_prop1", ["check-prop1"]),
    ("check_prop2", ["check-prop2"]),
    ("check_prop2_0246", ["check-prop2", "--angles", "0,2,4,6"]),
])
def test_exact_report_matches_golden(capsys, name, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text()
