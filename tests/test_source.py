import ast
import os
import subprocess
import sys
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


def test_import_builds_no_rotation_plans():
    # the rotation's buffers are built on first use, not at import
    script = "import falqon; print(len(vars(falqon.statevector._plans)))"
    env = {**os.environ, "PYTHONPATH": str(Path(falqon.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"
