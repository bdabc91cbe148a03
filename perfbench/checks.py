"""Output checks behind the benchmark's error rate.

Every check is counted as attempted and, when it does not hold, as failed:

* run: the nominal cost in trace.csv never rises, and the success
  probability and fidelity floor in summary.json lie in [0, 1];
* sweep: every fidelity lies in [0, 1], each cell lists its seeds in order,
  and aggregate.csv agrees with the means and spreads of the cell CSVs;
* reference: at the recorded seed every output value agrees within
  REL_TOL with the values recorded in reference.json. An exact-byte
  comparison would reject a change of summation order (about 1e-13);
* determinism: every output file of a sample is byte-identical to the
  first sample's file.
"""
from __future__ import annotations

import json
import math
import re
import statistics
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

#: Tolerance on every recorded output value, relative to max(1, |value|).
REL_TOL = 1e-9

#: The path constant L comes from an iterative norm solver that stops at a
#: relative step of 1e-10 per layer, so it is compared more loosely.
LOOSE_KEYS = {"summary.json:l_value": 1e-6}

#: Tolerance on the aggregate statistics recomputed from the cell CSVs.
AGGREGATE_TOL = 1e-12

_CELL = re.compile(r"cell_eps(?P<eps>[^_]+)_lam(?P<lam>.+)\.csv")


class Checks:
    """Counts attempted checks and keeps a line for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _value(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _read_csv(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    return {
        "columns": lines[0].split(",") if lines else [],
        "rows": [[_value(c) for c in line.split(",")] for line in lines[1:] if line],
    }


def _flatten(obj, prefix: str = "") -> dict:
    if not isinstance(obj, dict):
        return {prefix: obj}
    out = {}
    for key, value in obj.items():
        out.update(_flatten(value, f"{prefix}.{key}" if prefix else key))
    return out


def read_outputs(out_dir: Path) -> dict:
    """Every output file's values, with sweep cells keyed by (epsilon_bar, lambda)."""
    outputs = {}
    if not out_dir.is_dir():
        return outputs
    for path in sorted(out_dir.iterdir()):
        cell = _CELL.fullmatch(path.name)
        if cell:
            outputs[f"cell:{float(cell['eps'])!r}:{float(cell['lam'])!r}"] = _read_csv(path)
        elif path.suffix == ".csv":
            outputs[path.name] = _read_csv(path)
        elif path.name == "summary.json":
            # Strings echo the inputs (the graph file path among them).
            flat = _flatten(json.loads(path.read_text(encoding="utf-8")))
            outputs[path.name] = {k: v for k, v in flat.items() if not isinstance(v, str)}
    return outputs


def _column(table: dict, name: str) -> list:
    i = table["columns"].index(name)
    return [row[i] for row in table["rows"]]


def _in_unit_interval(values) -> bool:
    return all(isinstance(v, float) and 0.0 <= v <= 1.0 for v in values)


def check_run(outputs: dict, depth: int, ck: Checks) -> None:
    trace = outputs.get("trace.csv")
    summary = outputs.get("summary.json", {})
    ck.expect(trace is not None and len(trace["rows"]) == depth,
              f"trace.csv has {depth} rows")
    if trace is not None and "cost" in trace["columns"]:
        costs = _column(trace, "cost")
        rise = max((b - a for a, b in zip(costs, costs[1:])), default=0.0)
        ck.expect(rise <= 0.0, f"nominal cost never rises (largest step {rise!r})")
    else:
        ck.expect(False, "trace.csv has a cost column")
    for key in ("success_probability", "fidelity_lower_bound"):
        ck.expect(_in_unit_interval([summary.get(key)]), f"summary.json {key} in [0, 1]")


def check_sweep(outputs: dict, seeds: list[int], ck: Checks) -> None:
    agg = outputs.get("aggregate.csv")
    cells = {k for k in outputs if k.startswith("cell:")}
    if agg is None:
        ck.expect(False, "aggregate.csv written")
        return
    ck.expect(len(agg["rows"]) == len(cells) > 0, "one aggregate row per cell CSV")
    for eps, lam, n, mean, std in (row[:5] for row in agg["rows"]):
        key = f"cell:{eps!r}:{lam!r}"
        cell = outputs.get(key)
        if cell is None:
            ck.expect(False, f"{key} written")
            continue
        errors = _column(cell, "final_cost_error")
        ck.expect(_column(cell, "seed") == [float(s) for s in seeds],
                  f"{key} lists seeds {seeds[0]}..{seeds[-1]} in order")
        ck.expect(_in_unit_interval(_column(cell, "fidelity")), f"{key} fidelities in [0, 1]")
        ck.expect(n == len(errors), f"aggregate n_seeds matches {key}")
        ck.expect(_close(mean, statistics.fmean(errors), AGGREGATE_TOL),
                  f"aggregate mean matches the mean of {key}")
        spread = statistics.stdev(errors) if len(errors) > 1 else 0.0
        ck.expect(_close(std, spread, AGGREGATE_TOL),
                  f"aggregate std matches the spread of {key}")


def _values_match(key: str, got, want, tol: float) -> bool:
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_values_match(f"{key}:{k}", got[k], want[k],
                                      LOOSE_KEYS.get(f"{key}:{k}", tol)) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_values_match(key, g, w, tol) for g, w in zip(got, want)))
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return math.isfinite(got) and _close(float(got), want, tol)
    return got == want


def check_reference(outputs: dict, reference: dict, ck: Checks) -> None:
    ck.expect(outputs.keys() == reference.keys(),
              f"output files {sorted(outputs)} match the reference")
    for key, want in reference.items():
        ck.expect(_values_match(key, outputs.get(key), want, REL_TOL),
                  f"{key} agrees with the reference within {REL_TOL:g}")


def load_reference(workload: str):
    if not REFERENCE_FILE.exists():
        return None
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8")).get(workload)


def same_files(a: Path, b: Path) -> bool:
    """Whether two output directories hold the same file names and bytes."""
    if not (a.is_dir() and b.is_dir()):
        return False
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names
    )
