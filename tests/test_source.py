import ast
from pathlib import Path

import falqon


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every invariant check in the
    # package raises its error explicitly instead
    root = Path(falqon.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
