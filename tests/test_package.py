"""Package-level guards: the public names resolve, and invariants are typed."""

import ast
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
