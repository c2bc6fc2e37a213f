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
