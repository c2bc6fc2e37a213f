"""Rules on the package source itself."""

import ast
from pathlib import Path

import lpq

SOURCES = sorted(Path(lpq.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {"simulator.py", "spectrum.py", "offset.py"} <= {path.name for path in SOURCES}


def test_no_assert_statements():
    # python -O strips assert, so an invariant checked by one is not checked
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _exported_unused(sources):
    """Names the package's __init__ re-exports that no other module reads."""
    init = next(path for path in sources if path.name == "__init__.py")
    exported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set()
    for path in sources:
        if path == init:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(exported - used)


def test_every_export_has_a_caller_in_the_package():
    # an export that only the tests reach belongs in the tests
    assert _exported_unused(SOURCES) == []
