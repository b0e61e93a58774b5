"""Every public name resolves, and so does every function the bench tracer wraps."""
import ast
from pathlib import Path

import branchlab
import branchlab.cli  # noqa: F401  (loads every branchlab module, as the bench does)
from branchlab.distributions import IncrementDistribution

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _tracer_constant(name):
    """A literal module-level constant of the tracer, read without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER.name}")


def test_all_names_resolve():
    missing = [name for name in branchlab.__all__ if not hasattr(branchlab, name)]
    assert missing == []


def test_traced_functions_exist():
    missing = [
        f"{mod}.{fn}"
        for mod, fn in _tracer_constant("FUNCTIONS")
        if not callable(getattr(getattr(branchlab, mod, None), fn, None))
    ]
    assert missing == []
    for method in _tracer_constant("METHODS"):
        assert method in IncrementDistribution.__dict__
