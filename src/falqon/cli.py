"""Command-line front end: instance files, single runs, sweeps, fidelity bounds.

Four subcommands:

* graph: generate (or normalize) an instance and write it as an edge list.
* run:   one closed-loop run; writes trace.csv and summary.json.
* sweep: a grid of (epsilon_bar, lambda) cells, several seeds each; writes
         one CSV per cell plus aggregate.csv.
* bound: worst-case fidelity bound for a control sequence next to the
         empirical minimum over independent error draws; writes bound.csv.
         With --trace it bounds a recorded run at the delta_t of the
         summary.json beside the trace, once that summary's edge-list
         digest shows the run was on the same instance.

Every setting is one row of one table, SETTINGS: a flag or config key names
one setting in every subcommand (graph's --out file has no key, so the key
out is always a directory). Flags override the optional JSON config file,
both go through the row's parser, and every subcommand parses the whole
config, so all four refuse the same entries. The instance comes from exactly
one source: one of --graph/--regular/--er or, failing those, one of the
config's graph.path/graph.regular/graph.er. A sweep builds and checks every
cell's run settings before any cell runs. All real numbers in output files
carry 17 significant digits and every file is written with LF endings, so
reruns of a fixed configuration are byte-identical. A subcommand only
computes: it returns its output directory, its files (name to text, in
writing order) and its notes. `main` alone reads the settings, builds the
instance and publishes the files, staging them and moving them into place
only once all exist. So a command that fails before publishing creates
nothing, and no failing command leaves partial output or touches the
results of an earlier one.

Exit codes: 0 on success, 1 for runtime failures (generator retry exhaustion,
I/O), 2 for bad flags, bad config or invalid parameter combinations.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
from collections import Counter
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analysis, engine, statevector
from .engine import FeedbackLaw, RunConfig
from .graphs import (
    BRUTE_FORCE_MAX_NODES,
    Graph,
    erdos_renyi,
    format_edge_list,
    max_cut_brute_force,
    parse_edge_list,
    random_regular,
)
from .hamiltonian import DEGENERACY_TOL, driver_x, ground_energy, maxcut_hamiltonian
from .noise import NoiseKind, NoiseModel, trajectories
from .rng import positive_real

#: Output directory used when neither --out nor the config gives one.
ENV_OUT_DIR = "FALQON_OUT"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Bad flags or config values; maps to exit code 2."""


def _fmt(value) -> str:
    """Render one CSV cell: booleans as true/false, reals with 17 digits."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _csv(header: list[str], rows) -> str:
    return "\n".join([",".join(header), *(",".join(map(_fmt, row)) for row in rows)]) + "\n"


def _publish(out_dir, files: dict[str, str]) -> list[Path]:
    """Write ``files``, name to text, into ``out_dir`` ($FALQON_OUT or '.'
    when None) and return their paths.

    Each file is staged under a temporary name and moved into place with
    os.replace once all exist; any exit removes the remaining temporaries,
    so a failure leaves the results of an earlier command untouched.
    """
    out_dir = Path(os.environ.get(ENV_OUT_DIR, ".") if out_dir is None else out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    staged: dict[Path, Path] = {}
    try:
        for name, text in files.items():
            tmp = out_dir / f".{name}.{os.getpid()}.tmp"
            staged[tmp] = out_dir / name
            tmp.write_text(text, encoding="utf-8", newline="\n")
        for tmp, path in staged.items():
            os.replace(tmp, path)
    finally:
        for tmp in staged:
            with contextlib.suppress(OSError):
                tmp.unlink()
    return list(staged.values())


#: An absent flag or config entry.
_MISSING = object()
#: The default of a setting that must be given.
_REQUIRED = object()


def _integer(value, name: str) -> int:
    """An integer; booleans and non-integral numbers are refused, not truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        with contextlib.suppress(ValueError):
            return int(value)
    raise UsageError(f"{name} must be an integer, got {value!r}")


def _count(value, name: str) -> int:
    if (n := _integer(value, name)) < 1:
        raise UsageError(f"{name} must be at least 1, got {n}")
    return n


def _real(value, name: str) -> float:
    """A finite real; booleans are refused, not read as 0 or 1."""
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        with contextlib.suppress(ValueError, OverflowError):
            if math.isfinite(x := float(value)):
                return x
    raise UsageError(f"{name} must be a finite real number, got {value!r}")


def _reals(value, name: str) -> list[float]:
    """A non-empty list of reals, or a comma-separated string of them."""
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok.strip()]
    if not (isinstance(value, list) and value):
        raise UsageError(f"{name} must be a non-empty list of reals, got {value!r}")
    return [_real(v, name) for v in value]


def _seed_list(value, name: str) -> list[int]:
    """Distinct seeds as a list, comma string, or non-empty 'a:b' half-open ranges."""
    if isinstance(value, str):
        out: list[int] = []
        for tok in value.split(","):
            if ":" in tok:
                a, b = tok.split(":", 1)
                if not (span := range(_integer(a, name), _integer(b, name))):
                    raise UsageError(f"{name} range {tok.strip()} is empty")
                out.extend(span)
            elif tok.strip():
                out.append(_integer(tok, name))
    elif isinstance(value, list):
        out = [_integer(v, name) for v in value]
    else:
        raise UsageError(f"could not parse {name} from {value!r}")
    if not out:
        raise UsageError(f"{name} must be non-empty")
    if repeated := [seed for seed, n in Counter(out).items() if n > 1]:
        raise UsageError(f"{name} lists seed {repeated[0]} more than once")
    return out


def _pair(value, name: str, second) -> tuple:
    """The N and D of a regular graph, or the N and P of an Erdos-Renyi one."""
    if not (isinstance(value, list) and len(value) == 2):
        raise UsageError(f"{name} must be a two-item list, got {value!r}")
    return _integer(value[0], name), second(value[1], name)


def _kind(value, name: str) -> NoiseKind:
    try:
        return NoiseKind(value)
    except ValueError:
        raise UsageError(f"{name} must be none, systematic or independent, got {value!r}") from None


def _path(value, name: str) -> str:
    if not isinstance(value, str):
        raise UsageError(f"{name} must be a string, got {value!r}")
    return value


_regular = functools.partial(_pair, second=_integer)
_er = functools.partial(_pair, second=_real)


class Setting(NamedTuple):
    """One row of the settings table, SETTINGS."""

    dest: str
    flag: str
    key: str | None
    parse: Callable[[object, str], object]
    default: object
    commands: tuple[str, ...]
    help: str
    metavar: tuple[str, str] | None = None


_ALL = ("graph", "run", "sweep", "bound")
_RUNS = ("run", "sweep", "bound")

#: Every setting of every subcommand, one row each: its flag sets ``dest``
#: on the command line and its key in the config file (dotted inside a
#: section; None when only the flag sets it). ``parse`` turns a flag string
#: or a config value into the typed value, or refuses it with a UsageError
#: naming the setting. Defaults are parsed too; None leaves a setting unset.
SETTINGS = (
    Setting("config", "--config", None, _path, None, _ALL,
            "JSON config file; flags override its entries"),
    Setting("edges", "--out", None, _path, None, ("graph",),
            "output edge-list file; without it graph.edges in $FALQON_OUT, else in '.'"),
    Setting("out", "--out", "out", _path, None, _RUNS,
            "output directory; without it $FALQON_OUT, else '.'"),
    Setting("graph", "--graph", "graph.path", _path, None, _ALL, "edge-list file to load"),
    Setting("regular", "--regular", "graph.regular", _regular, None, _ALL,
            "random D-regular graph on N nodes", ("N", "D")),
    Setting("er", "--er", "graph.er", _er, None, _ALL,
            "Erdos-Renyi graph on N nodes with edge probability P", ("N", "P")),
    Setting("graph_seed", "--graph-seed", "graph.seed", _integer, 0, _ALL,
            "generator seed of an inline instance"),
    Setting("delta_t", "--delta-t", "delta_t", _real, 0.05, _RUNS, "layer time step"),
    Setting("depth", "--depth", "depth", _integer, 200, _RUNS, "number of layers"),
    Setting("lam", "--lambda", "lambda", _real, 0.5, _RUNS, "feedback regularization weight"),
    Setting("w", "--w", "w", _real, 1.0, _RUNS, "feedback gain"),
    Setting("noise", "--noise", "noise.kind", _kind, "none", ("run", "sweep"),
            "error model kind: none, systematic or independent (a sweep needs a noisy one)"),
    Setting("epsilon_bar", "--epsilon-bar", "noise.epsilon_bar", _real, 0.0, ("run",),
            "error magnitude bound"),
    Setting("noise_seed", "--seed", "noise.seed", _integer, 0, ("run", "bound"),
            "noise seed; bound draws its independent errors from it"),
    Setting("epsilon_bars", "--epsilon-bars", "epsilon_bars", _reals, _REQUIRED,
            ("sweep", "bound"), "comma list of error bounds, e.g. 0.1,0.25"),
    Setting("lambdas", "--lambdas", "lambdas", _reals, None, ("sweep",),
            "comma list of regularization weights; without it the --lambda value"),
    Setting("seeds", "--seeds", "seeds", _seed_list, _REQUIRED, ("sweep",),
            "distinct noise seeds: comma list and/or a:b ranges, e.g. 0:50"),
    Setting("jobs", "--jobs", "jobs", _count, 1, ("sweep",), "worker processes for sweep blocks"),
    Setting("trace", "--trace", None, _path, None, ("bound",),
            "trace.csv to take the control sequence from"),
    Setting("draws", "--draws", "draws", _count, 100, ("bound",),
            "independent error draws per bound row"),
)

#: The row of each config entry, by its path: (key,) or (section, key).
_BY_PATH = {tuple(row.key.split(".")): row for row in SETTINGS if row.key}
_SECTIONS = {path[0] for path in _BY_PATH if len(path) == 2}


def _unique_keys(pairs: list) -> dict:
    """JSON object hook that refuses a key set twice in one object."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise UsageError(f"config sets {key!r} more than once")
        obj[key] = value
    return obj


def _read_text(path: str | Path, what: str, form: str = "UTF-8 text") -> str:
    """The text of a file that the user named, as ``what``; a file that
    cannot be read or decoded is a usage error that names it."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"{what} {path} is not valid {form}: {exc}") from None


def _read_config(path: str | Path, what: str = "config") -> dict:
    """The JSON object in the --config file, or in the summary.json where a
    run recorded its settings; an unreadable, malformed or non-object file
    is a usage error that names it."""
    try:
        cfg = json.loads(_read_text(path, what, "JSON"), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError(f"{what} {path} must hold a JSON object")
    return cfg


def _settings(args) -> argparse.Namespace:
    """The settings of ``args.command``.

    Every config entry goes through its row's parser whichever subcommand
    runs, so all four refuse the same entries; the command's flags override
    them, and its rows' defaults fill in the rest. ``given`` maps each
    setting that a flag or the config set to "flag" or "config".
    """
    cfg = {} if args.config is _MISSING else _read_config(args.config)
    entries = {}
    for name, value in cfg.items():
        if name not in _SECTIONS:
            entries[(name,)] = value
        elif isinstance(value, dict):
            entries.update(((name, leaf), v) for leaf, v in value.items())
        else:
            raise UsageError(f"config {name!r} must be a JSON object, got {value!r}")
    if unknown := sorted(".".join(p) for p in entries if p not in _BY_PATH):
        raise UsageError(f"unknown config entries: {', '.join(unknown)}")
    values, given = dict.fromkeys(row.dest for row in SETTINGS), {}
    for p, raw in entries.items():
        row = _BY_PATH[p]
        values[row.dest], given[row.dest] = row.parse(raw, row.key), "config"
    for row in (r for r in SETTINGS if args.command in r.commands):
        if (raw := getattr(args, row.dest)) is not _MISSING:
            values[row.dest], given[row.dest] = row.parse(raw, row.flag), "flag"
        elif row.dest not in given and row.default is _REQUIRED:
            raise UsageError(f"missing {row.key} (flag {row.flag} or config)")
        elif row.dest not in given and row.default is not None:
            values[row.dest] = row.parse(row.default, row.flag)
    return argparse.Namespace(command=args.command, given=given, **values)


def _resolve_graph(s) -> tuple[Graph, dict]:
    """Build the instance from its one source, a flag before any config
    entry; returns the graph and a config echo whose edges_sha256, the
    SHA-256 of the canonical edge list, identifies the instance."""
    picked = ([k for k in ("graph", "regular", "er") if s.given.get(k) == "flag"]
              or [k for k in ("graph", "regular", "er") if k in s.given])
    if len(picked) != 1:
        raise UsageError("give one instance source: one of --graph, --regular, --er, "
                         "else one of the config's graph.path, graph.regular, graph.er")
    if picked == ["graph"]:
        text = _read_text(s.graph, "graph")
        try:
            graph = parse_edge_list(text)
        except ValueError as exc:  # the format, or a graph that cannot exist
            raise UsageError(f"graph {s.graph}: {exc}") from None
        echo: dict = {"source": "file", "path": s.graph}
    else:  # a generated instance, whose width a run checks before building it
        (n, x), source = getattr(s, picked[0]), picked[0]
        if s.command != "graph":
            statevector.register_width(n)
        make, key = (random_regular, "d") if source == "regular" else (erdos_renyi, "p")
        graph = make(n, x, s.graph_seed)
        echo = {"source": source, "n": n, key: x, "seed": s.graph_seed}
    digest = hashlib.sha256(format_edge_list(graph).encode()).hexdigest()
    return graph, {**echo, "n_nodes": graph.n_nodes, "n_edges": len(graph.edges),
                   "edges_sha256": digest}


def cmd_graph(s, graph: Graph, _echo: dict) -> tuple:
    out = Path("graph.edges" if s.edges is None else s.edges)
    notes = [f"nodes {graph.n_nodes} edges {len(graph.edges)}"]
    if graph.n_nodes <= BRUTE_FORCE_MAX_NODES:
        value, arg = max_cut_brute_force(graph)
        notes.append(f"max cut {_fmt(value)} at partition {arg:0{graph.n_nodes}b}")
    return (None if s.edges is None else out.parent), {out.name: format_edge_list(graph)}, notes


def cmd_run(s, graph: Graph, echo: dict) -> tuple:
    config = RunConfig(graph, s.delta_t, s.depth, FeedbackLaw(s.lam, s.w),
                       NoiseModel(s.noise, s.epsilon_bar, s.noise_seed))
    trace = engine.run(config)
    diag, driver = maxcut_hamiltonian(graph), driver_x(graph.n_nodes)
    _, l_value = analysis.lipschitz_from_betas(trace.betas, s.delta_t, diag, driver)
    floor, vacuous = analysis.fidelity_floor(l_value, s.epsilon_bar)
    p0, ground_states = ground_energy(diag)
    above = diag.diag[diag.diag > p0 + DEGENERACY_TOL]
    p1 = float(above.min()) if above.size else p0
    succ = analysis.success_probability(trace.final_state, ground_states)
    errors = trace.costs - trace.ground_energy
    rows = zip(range(1, s.depth + 1), trace.betas, trace.a_values, trace.costs, errors)
    summary = {
        "graph": echo,
        "delta_t": s.delta_t,
        "depth": s.depth,
        "lambda": s.lam,
        "w": s.w,
        "noise": {"kind": s.noise.value, "epsilon_bar": s.epsilon_bar, "seed": s.noise_seed},
        "ground_energy": trace.ground_energy,
        "final_cost": float(trace.costs[-1]),
        "final_cost_error": trace.final_cost_error,
        "success_probability": succ,
        "l_value": l_value,
        "fidelity_lower_bound": floor,
        "bound_vacuous": vacuous,
        "assumptions": {
            "ground_energy": p0,
            "n_ground_states": len(ground_states),
            "first_excited_energy": p1,
            # Complementing a partition keeps its cut: every level repeats.
            "degenerate_eigenvalues": True,
            # A repeated level and any third entry give two equal gaps.
            "degenerate_gaps": graph.n_nodes >= 2,
            # X terms couple only bit-flip neighbours, all pairs only at n = 1.
            "driver_connected": graph.n_nodes == 1,
            # The uniform state's cost is the mean of the diagonal.
            "initial_energy_ok": bool(p0 < float(diag.diag.mean()) < p1),
        },
    }
    files = {"trace.csv": _csv(["layer", "beta", "a", "cost", "cost_error"], rows),
             "summary.json": json.dumps(summary, indent=2, sort_keys=True) + "\n"}
    return s.out, files, [f"final cost {_fmt(trace.costs[-1])} "
                          f"error {_fmt(trace.final_cost_error)} success {_fmt(succ)}"]


#: Most amplitudes (rows times half-row width) in a sweep or bound block that ``--jobs`` does
#: not split further. On a 2-core VM a 12-qubit row-layer took 74 us in an 8-row block and
#: 145 us in a 32-row one, an 8-qubit one near 5 us from 64 to 256 rows; a 12-qubit depth-300
#: bound of 3 x 100 draws took 8-9 s in 8-row blocks, 16-18 s in one. MaxCut rows are half rows.
_BLOCK_AMPLITUDES = 1 << 14


def _blocks(rows, n: int, jobs: int) -> list:
    """``rows`` of ``n`` qubits, a list or an array, as max(jobs, ceil(rows * 2^(n-1) /
    _BLOCK_AMPLITUDES)) near-equal contiguous blocks, at most one per row."""
    count = min(len(rows), max(jobs, -((-len(rows) << n - 1) // _BLOCK_AMPLITUDES)))
    return [rows[len(rows) * i // count:len(rows) * (i + 1) // count] for i in range(count)]


def _sweep_block(rows: list[RunConfig]) -> list[list]:
    """The cell CSV row, not the run, of each row of a block, which may cut through cells, from
    one `engine.run_cell` and one stacked ideal replay. Top level for pickling."""
    try:
        runs = engine.run_cell(rows)
        diag, driver = maxcut_hamiltonian(rows[0].graph), driver_x(rows[0].graph.n_nodes)
        fidelities = analysis.ideal_fidelity(runs, diag, driver)
    except (ValueError, RuntimeError) as exc:
        cells = dict.fromkeys(f"epsilon_bar={r.noise.epsilon_bar:g} lambda={r.law.lam:g}"
                              for r in rows)
        raise RuntimeError(f"sweep cells {', '.join(cells)} failed: {exc}") from exc
    return [[t.config.noise.seed, float(t.costs[-1]), t.final_cost_error, fidelity]
            for t, fidelity in zip(runs, fidelities)]


def cmd_sweep(s, graph: Graph, _echo: dict) -> tuple:
    if s.noise is NoiseKind.NONE:
        raise UsageError("sweep needs a noisy kind: systematic or independent")
    lambdas, k = [s.lam] if s.lambdas is None else s.lambdas, len(s.seeds)
    cells = [(eb, lv) for eb in s.epsilon_bars for lv in lambdas]
    names = [f"cell_eps{eb:g}_lam{lv:g}.csv" for eb, lv in cells]
    if repeated := [name for name, n in Counter(names).items() if n > 1]:
        raise UsageError(f"two sweep cells would both write {repeated[0]}")
    rows = [RunConfig(graph, s.delta_t, s.depth, FeedbackLaw(lv, s.w),
                      NoiseModel(s.noise, eb, seed)) for eb, lv in cells for seed in s.seeds]
    blocks = _blocks(rows, graph.n_nodes, s.jobs)
    jobs = min(s.jobs, len(blocks))  # the pool starts every worker at once, busy or not
    with (ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else contextlib.nullcontext()) as pool:
        done = [row for block in (pool.map if pool else map)(_sweep_block, blocks) for row in block]
    by_cell = [done[i:i + k] for i in range(0, len(done), k)]
    files = {name: _csv(["seed", "final_cost", "final_cost_error", "fidelity"], cell)
             for name, cell in zip(names, by_cell)}
    stats = [(eb, lv, k, *analysis.aggregate([row[2] for row in cell]))
             for (eb, lv), cell in zip(cells, by_cell)]
    files["aggregate.csv"] = _csv(["epsilon_bar", "lambda", "n_seeds", "mean_final_cost_error",
                                   "std_final_cost_error"], stats)
    return s.out, files, [f"epsilon_bar {eb:g} lambda {lv:g}: mean error {_fmt(mean)} "
                          f"(std {_fmt(std)}, n={n})" for eb, lv, n, mean, std in stats]


def _read_trace_betas(path: Path) -> np.ndarray:
    lines = _read_text(path, "trace").splitlines()
    if not lines:
        raise UsageError(f"{path} is empty")
    header = lines[0].split(",")
    try:
        col = header.index("beta")
    except ValueError:
        raise UsageError(f"{path} has no 'beta' column") from None
    betas = []
    for row, line in enumerate(lines[1:], start=2):
        if line.strip():
            parts = line.split(",")
            betas.append(_real(parts[col] if col < len(parts) else None, f"{path} row {row} beta"))
    if not betas:
        raise UsageError(f"{path} has no data rows")
    if len(betas) > engine.MAX_DEPTH:
        raise UsageError(f"{path} has {len(betas)} rows, beyond the depth cap {engine.MAX_DEPTH}")
    return np.array(betas)


def _trace_delta_t(trace: Path, digest: str) -> float:
    """delta_t of the run that wrote ``trace``, from the summary.json beside
    it, once that summary's edges_sha256 shows the run was on the instance
    with this edge-list digest."""
    path = trace.with_name("summary.json")
    summary = _read_config(path, "run summary")
    run_graph = summary.get("graph")
    recorded = run_graph.get("edges_sha256") if isinstance(run_graph, dict) else None
    if recorded is None:
        raise UsageError(f"{path} cannot name its run's instance: the digest "
                         "graph.edges_sha256 is missing")
    if recorded != digest:
        raise UsageError(f"{path} records a run on another instance: edges_sha256 "
                         f"{recorded}, here {digest}")
    return positive_real(summary.get("delta_t"), f"delta_t in {path}")


def cmd_bound(s, graph: Graph, echo: dict) -> tuple:
    delta_t, depth, draws = s.delta_t, s.depth, s.draws
    diag, driver = maxcut_hamiltonian(graph), driver_x(graph.n_nodes)
    if s.trace is not None:
        # the trace and its run's summary fix the control sequence and the
        # time step, which these settings would make
        for dest, flag in (("delta_t", "--delta-t"), ("depth", "--depth"),
                           ("lam", "--lambda"), ("w", "--w")):
            if s.given.get(dest) == "flag":
                raise UsageError(f"{flag} does not apply with --trace")
        betas = _read_trace_betas(Path(s.trace))
        depth = betas.size
        delta_t = _trace_delta_t(Path(s.trace), echo["edges_sha256"])
    else:
        config = RunConfig(graph, delta_t, depth, FeedbackLaw(s.lam, s.w), NoiseModel())
        betas = engine.run_nominal(config).betas
    models = [NoiseModel(NoiseKind.INDEPENDENT, eb, s.noise_seed) for eb in s.epsilon_bars]
    _, l_value = analysis.lipschitz_from_betas(betas, delta_t, diag, driver)
    # (epsilon_bar, draw) pairs in the sweep's blocks: each one stacked draw and one ideal replay
    blocks = _blocks([(m, i + 1) for m in models for i in range(draws)], graph.n_nodes, 1)
    fids = np.concatenate([analysis.replay_fidelity(betas, trajectories(block, depth), delta_t,
                                                    diag, driver) for block in blocks])
    rows = []
    for model, empirical in zip(models, fids.reshape(len(models), draws).min(axis=1)):
        floor, vacuous = analysis.fidelity_floor(l_value, model.epsilon_bar)
        rows.append([model.epsilon_bar, l_value, floor, empirical, draws, vacuous])
    header = ["epsilon_bar", "l_value", "fidelity_lower_bound", "empirical_min_fidelity",
              "draws", "vacuous"]
    notes = [f"l_value {_fmt(l_value)} over {depth} layers"]
    return s.out, {"bound.csv": _csv(header, rows)}, notes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="falqon",
        description="Feedback-driven MaxCut optimization on a dense statevector simulator.",
    )
    sub = parser.add_subparsers(dest="command")
    for command, handler, text in (
        ("graph", cmd_graph, "generate or normalize an instance file"),
        ("run", cmd_run, "one closed-loop run"),
        ("sweep", cmd_sweep, "grid of (epsilon_bar, lambda) cells over seeds"),
        ("bound", cmd_bound, "fidelity lower bound vs empirical minimum"),
    ):
        # Flags are spelled out in full, so a flag that one subcommand lacks
        # is refused there, not read as a longer flag that it starts.
        sp = sub.add_parser(command, help=text, allow_abbrev=False)
        sp.set_defaults(handler=handler)
        for row in (r for r in SETTINGS if command in r.commands):
            shape = {"nargs": 2, "metavar": row.metavar} if row.metavar else {}
            note = ("" if row.default is None else " (required)" if row.default is _REQUIRED
                    else f" (default {row.default})")
            sp.add_argument(row.flag, dest=row.dest, default=_MISSING, help=row.help + note,
                            **shape)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        s = _settings(args)
        out_dir, files, notes = args.handler(s, *_resolve_graph(s))
        written = _publish(out_dir, files)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ValueError) else EXIT_RUNTIME
    print(f"wrote {', '.join(map(str, written))}", *notes, sep="\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
