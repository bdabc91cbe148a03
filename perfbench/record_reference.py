"""Record the reference output values the benchmark checks at seed 0.

    python3 perfbench/record_reference.py

Runs every workload once at seed 0 and writes the values of its output
files to perfbench/reference.json. Rerun it only for a change that is meant
to alter the outputs, and say so in the change's description.
"""
from __future__ import annotations

import json
import shutil
import sys

import checks
import run
from workloads import WORKLOADS, make_inputs


def main() -> int:
    cli = run.import_program()
    work = run.WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    make_inputs(work / "inputs")
    reference = {}
    for name, workload in WORKLOADS.items():
        ck = checks.Checks()
        out = work / name
        run.run_command(cli.main, workload.argv(0, work / "inputs", out), ck)
        if ck.failures:
            print("\n".join(ck.failures), file=sys.stderr)
            return 1
        reference[name] = checks.read_outputs(out)
    checks.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {checks.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
