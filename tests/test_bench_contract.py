"""The benchmark tracer wraps library functions by name; keep them bound."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def wrapped_names() -> tuple[tuple[str, str], ...]:
    """WRAPPED read from the tracer's source, without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no WRAPPED")


def test_every_wrapped_name_is_bound():
    """A dotted name is a method, which the tracer patches from its class's
    own `__dict__`: an inherited method is not enough."""
    names = wrapped_names()
    assert names
    for module, attr in names:
        obj = importlib.import_module(f"nilschober.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"nilschober.{module}.{attr}"
            owner, obj = obj, getattr(obj, part)
        assert callable(obj), f"nilschober.{module}.{attr}"
        if "." in attr:
            assert part in vars(owner), f"nilschober.{module}.{attr} is inherited"
