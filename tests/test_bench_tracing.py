"""Guard for the benchmark's traced run (`bench/run.py --trace 1`).

bench/tracing.py patches bellgate names by string: module functions as
module attributes, methods and ExactScalar operations through their class
__dict__.  A rename or a move in the package breaks only the traced run.
The run also replays the ExactScalar operations recorded in one canonical
exact solve and divides by their count, so an operation kind that solve no
longer calls makes every traced run exit 1.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from bellgate.feasibility import build_prop2, solve_problem
from bellgate.qubit import canonical_scenario
from bellgate.scalar import ExactScalar

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    """bench/tracing.py loaded by path, after the imports the traced
    cli-exact run makes."""
    for name in ("bellgate.cli", "bellgate.transform"):
        importlib.import_module(name)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracing):
    for _, module, attr in tracing.FUNCTIONS:
        assert callable(getattr(sys.modules[module], attr, None)), \
            (module, attr)


def test_every_traced_method_is_in_its_class_dict(tracing):
    for _, module, cls, attr in tracing.METHODS:
        assert attr in vars(getattr(sys.modules[module], cls)), (cls, attr)


def test_every_counted_op_is_in_the_scalar_class_dict(tracing):
    missing = [attr for attr in tracing.OPS if attr not in vars(ExactScalar)]
    assert not missing


def test_canonical_solve_records_every_replayed_op(tracing):
    # what bench/run.py's micro_ops records before it replays
    problem = build_prop2(canonical_scenario())
    with tracing.OpRecorder(ExactScalar) as recorder:
        solve_problem(problem)
    counts = {kind: len(recorder.samples[kind]) for kind, _ in tracing.MICRO}
    assert min(counts.values()) > 0, counts
