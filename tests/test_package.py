"""Package-level guards: the public names resolve, invariants are typed, and
the benchmark's spans name live functions."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import cantorlab
import cantorlab.embedding

SRC = Path(cantorlab.__file__).parent


@pytest.mark.parametrize("module", [cantorlab, cantorlab.embedding], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_no_bare_assert_in_the_package():
    """Internal invariants raise typed errors, which `python -O` keeps."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


def _unread_parameters(function):
    """Parameters of `function` (an ast.FunctionDef) that its body never reads.

    `self` and `cls` do not count: a method that needs no instance state
    still belongs to its class's surface."""
    args = function.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    params += [a for a in (args.vararg, args.kwarg) if a is not None]
    read = {"self", "cls"}
    read.update(
        node.id
        for statement in function.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    )
    return [a.arg for a in params if a.arg not in read]


def test_no_unread_parameter_in_the_package():
    """Every parameter is read: a knob no body reads is dead weight callers
    still have to thread through."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} {node.name}({name})"
                          for name in _unread_parameters(node)]
    assert found == []


def test_every_benchmark_span_names_a_live_attribute():
    """perfbench/spans.py wraps each SPANS target with getattr, so a renamed
    or deleted target would crash the benchmark rather than go untraced."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, attr in spans.SPANS:
        target = importlib.import_module(f"cantorlab.{module}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert spans.SPANS and missing == []
