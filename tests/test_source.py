"""Static checks on the library source."""

import ast
from pathlib import Path

import brieskorn_wrt

PACKAGE_DIR = Path(brieskorn_wrt.__file__).parent


def test_library_has_no_assert_statements():
    # python -O strips asserts, so structural invariants must raise instead
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert len(list(PACKAGE_DIR.glob("*.py"))) >= 8
    assert not found, found
