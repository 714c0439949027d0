"""Package-level guards: the public names resolve and have readers, invariants
are typed, and the benchmark's spans name live functions."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import cantorlab
import cantorlab.embedding

SRC = Path(cantorlab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# Exported names kept without a reader, each with its reason.
UNREAD_BUT_KEPT = {
    # with atom_ne and atom_const it hides the atom tuple format from the tests
    "atom_eq",
}


def _benchmark_spans():
    """perfbench/spans.py's SPANS: (module, attribute) -> span name."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SPANS


@pytest.mark.parametrize("module", [cantorlab, cantorlab.embedding], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def _loaded_outside_own_definition(path):
    """Names loaded in the module at `path`, leaving out each top-level
    statement's loads of the names it defines (a def's or class's own name,
    or a name it assigns)."""
    read = set()
    for statement in ast.parse(path.read_text(), filename=str(path)).body:
        defined = {getattr(statement, "name", None)} | {
            node.id
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        read.update(
            node.id
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and node.id not in defined
        )
    return read


def test_every_exported_name_has_a_reader():
    """Each name in cantorlab.__all__ is read by the package outside
    __init__.py and its own definition, is a benchmark span target, or is
    named by the acceptance battery."""
    read = set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            read |= _loaded_outside_own_definition(path)
    read |= {attr.split(".")[0] for _, attr in _benchmark_spans()}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    read |= {node.id for node in ast.walk(acceptance) if isinstance(node, ast.Name)}
    read |= {alias.asname or alias.name for node in ast.walk(acceptance)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    unread = sorted(set(cantorlab.__all__) - read - UNREAD_BUT_KEPT)
    assert unread == []


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
    spans = _benchmark_spans()
    missing = []
    for module, attr in spans:
        target = importlib.import_module(f"cantorlab.{module}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert spans and missing == []


def test_no_module_imports_dataclasses():
    """Importing dataclasses pulls in inspect, which costs every fresh
    process several milliseconds; the package's records are __slots__
    classes."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            found += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "dataclasses"]
    assert found == []
