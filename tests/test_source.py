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
    # the kernels keep no array at module level, the driver blocks are built
    # on first use, not at import, and importing the library loads none of
    # the command line's modules
    script = ("import sys, numpy, falqon; from falqon import statevector as sv; "
              "print(sum(isinstance(v, numpy.ndarray) for v in vars(sv).values()), "
              "sv._driver_blocks.cache_info().currsize, "
              "[m for m in ('argparse', 'json', 'hashlib', 'concurrent.futures', "
              "'multiprocessing', 'falqon.cli') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(falqon.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 0 []\n"


def test_package_stays_within_its_line_budget():
    # the package has a budget of 2,000 lines; new code is paid for by
    # removing code elsewhere, not by dropping docstrings
    root = Path(falqon.__file__).parent
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in root.rglob("*.py"))
    assert lines <= 2000
