"""Static checks on the library source."""

import ast
from pathlib import Path

import brieskorn_wrt

PACKAGE_DIR = Path(brieskorn_wrt.__file__).parent


def _package_nodes():
    """(file name, node) for every AST node of every library module."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_library_has_no_assert_statements():
    # python -O strips asserts, so structural invariants must raise instead
    found = [
        f"{name}:{node.lineno}"
        for name, node in _package_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert len(list(PACKAGE_DIR.glob("*.py"))) >= 8
    assert not found, found


def test_library_never_references_bernoulli_polynomial():
    # L-values come from the integer power moments of chi; the O(k^2)-Fraction
    # Bernoulli-polynomial route is a test oracle only.  Names, attributes,
    # imports, definitions and strings all count as references.
    banned = "bernoulli_polynomial"
    found = [
        f"{name}:{getattr(node, 'lineno', '?')}"
        for name, node in _package_nodes()
        if any(getattr(node, f, None) == banned for f in ("id", "attr", "name", "value"))
    ]
    assert not found, found
