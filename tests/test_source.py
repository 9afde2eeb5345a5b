"""Source-level rules that hold for every module of the package."""

import ast
from pathlib import Path

import sumrank


def test_no_bare_asserts_in_the_package():
    # python -O strips assert statements; guaranteed identities raise
    # InvariantViolation instead
    found = []
    for path in sorted(Path(sumrank.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"bare asserts: {found}"
