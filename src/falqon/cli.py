"""Command-line front end: instance files, single runs, sweeps, fidelity bounds.

Four subcommands:

* graph: generate (or normalize) an instance and write it as an edge list.
* run:   one closed-loop run; writes trace.csv and summary.json.
* sweep: a grid of (epsilon_bar, lambda) cells, several seeds each; writes
         one CSV per cell plus aggregate.csv.
* bound: worst-case fidelity bound for a control sequence next to the
         empirical minimum over independent error draws; writes bound.csv.
         With --trace it bounds a recorded run of the same instance, at
         the delta_t recorded in the summary.json beside the trace.

Settings come from an optional JSON config file and are overridden by flags.
Every subcommand takes its instance from --graph/--regular/--er or, failing
those, from the config 'graph' entry; `graph` takes its generator seed from
--seed, the others from --graph-seed. A sweep builds and checks every cell's
run settings before any cell runs, and only a sweep takes --jobs. All real
numbers in output files carry 17 significant digits and every file is
written with LF endings, so reruns of a fixed configuration are
byte-identical. Output files are staged and moved
into place only once all exist, so a failing command neither leaves partial
output nor touches the results of an earlier one.

Exit codes: 0 on success, 1 for runtime failures (generator retry exhaustion,
I/O), 2 for bad flags, bad config or invalid parameter combinations.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import analysis, engine, plotting
from .engine import FeedbackLaw, RunConfig
from .graphs import (
    BRUTE_FORCE_MAX_NODES,
    Graph,
    erdos_renyi,
    format_edge_list,
    load_edge_list,
    max_cut_brute_force,
    random_regular,
)
from .hamiltonian import DEGENERACY_TOL, driver_x, ground_energy, maxcut_hamiltonian
from .noise import NoiseKind, NoiseModel, trajectory
from .statevector import inner_product

#: Output directory used when neither --out nor the config gives one.
ENV_OUT_DIR = "FALQON_OUT"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Bad flags or config values; maps to exit code 2."""


def _fmt(value) -> str:
    """Render one CSV cell: booleans as true/false, reals with 17 digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


class _OutputSink:
    """Stages one command's output files and publishes them together.

    Used as a context manager. Each file is written under a temporary name in
    the output directory; a clean exit moves every one into place with
    os.replace once all exist, and any exit removes the remaining
    temporaries, so a failed command leaves the results of an earlier one
    untouched.
    """

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.written: list[Path] = []
        self._staged: list[Path] = []

    def write_text(self, name: str, text: str) -> Path:
        path = self.out_dir / name
        staged = self.out_dir / f".{name}.{os.getpid()}.tmp"
        self._staged.append(staged)
        staged.write_text(text, encoding="utf-8", newline="\n")
        self.written.append(path)
        return path

    def write_csv(self, name: str, header: list[str], rows) -> Path:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(cell) for cell in row))
        return self.write_text(name, "\n".join(lines) + "\n")

    def __enter__(self) -> "_OutputSink":
        return self

    def __exit__(self, exc_type, *_) -> None:
        try:
            if exc_type is None:
                for staged, path in zip(self._staged, self.written):
                    os.replace(staged, path)
        finally:
            for staged in self._staged:
                with contextlib.suppress(OSError):
                    staged.unlink()


def _load_config(path) -> dict:
    if path is None:
        return {}
    cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return cfg


def _pick(flag_value, cfg: dict, key: str, default=None):
    """Flag beats config beats default."""
    if flag_value is not None:
        return flag_value
    if key in cfg:
        return cfg[key]
    return default


def _int(value, what: str) -> int:
    """An integer setting: booleans and non-integral numbers are refused, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise UsageError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{what} must be an integer, got {value!r}") from None


def _float_list(value, what: str) -> list[float]:
    if value is None:
        raise UsageError(f"missing {what} (flag or config)")
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok.strip()]
    try:
        out = [float(v) for v in value]
    except (TypeError, ValueError):
        raise UsageError(f"could not parse {what} from {value!r}") from None
    if not out:
        raise UsageError(f"{what} must be non-empty")
    return out


def _seed_list(value) -> list[int]:
    """Seeds as a list, comma string, or 'a:b' half-open ranges."""
    if value is None:
        raise UsageError("missing seeds (flag or config)")
    if isinstance(value, str):
        out: list[int] = []
        for tok in value.split(","):
            tok = tok.strip()
            if not tok:
                continue
            if ":" in tok:
                a, b = tok.split(":", 1)
                out.extend(range(int(a), int(b)))
            else:
                out.append(int(tok))
    else:
        if not isinstance(value, list):
            raise UsageError(f"could not parse seeds from {value!r}")
        out = [_int(v, "seed") for v in value]
    if not out:
        raise UsageError("seeds must be non-empty")
    return out


def _section(cfg: dict, key: str) -> dict:
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise UsageError(f"config {key!r} must be a JSON object, got {value!r}")
    return value


def _resolve_out_dir(args, cfg: dict) -> Path:
    out = _pick(args.out, cfg, "out")
    if out is None:
        out = os.environ.get(ENV_OUT_DIR, ".")
    return Path(out)


def _resolve_graph(args, cfg: dict, seed) -> tuple[Graph, dict]:
    """Pick the instance source, flags first, then the config 'graph' entry,
    and build it; returns the graph and a config echo.

    ``seed`` is the generator seed given on the command line; without one
    the seed of the config 'graph' entry (default 0) is used.
    """
    if sum(x is not None for x in (args.graph, args.regular, args.er)) > 1:
        raise UsageError("give at most one of --graph, --regular, --er")
    gcfg = _section(cfg, "graph")
    seed = _int(gcfg.get("seed", 0) if seed is None else seed, "graph seed")
    flags = {"path": args.graph, "regular": args.regular, "er": args.er}
    source = next((k for k, v in flags.items() if v is not None), None)
    if source is not None:
        value = flags[source]
    else:
        source = next((k for k in flags if k in gcfg), None)
        if source is None:
            raise UsageError(
                "no graph source: use --graph/--regular/--er or a config 'graph' entry"
            )
        value = gcfg[source]
        if source == "path" and not isinstance(value, str):
            raise UsageError(f"config graph 'path' must be a string, got {value!r}")
        if source != "path" and not (isinstance(value, list) and len(value) == 2):
            raise UsageError(f"config graph {source!r} must be a two-item list, got {value!r}")
    if source == "path":
        graph = load_edge_list(value)
        echo: dict = {"source": "file", "path": str(value)}
    elif source == "regular":
        n, d = (_int(v, "regular N and D") for v in value)
        graph = random_regular(n, d, seed)
        echo = {"source": "regular", "n": n, "d": d, "seed": seed}
    else:
        try:
            n, p = _int(value[0], "er N"), float(value[1])
        except (IndexError, TypeError, ValueError):
            raise UsageError(f"--er expects an integer and a real, got {value}") from None
        graph = erdos_renyi(n, p, seed)
        echo = {"source": "er", "n": n, "p": p, "seed": seed}
    echo["n_nodes"] = graph.n_nodes
    echo["n_edges"] = len(graph.edges)
    return graph, echo


def _run_settings(args, cfg: dict):
    delta_t = float(_pick(args.delta_t, cfg, "delta_t", 0.05))
    depth = _int(_pick(args.depth, cfg, "depth", 200), "depth")
    lam = float(_pick(args.lam, cfg, "lambda", 0.5))
    gain = float(_pick(args.gain, cfg, "w", 1.0))
    return delta_t, depth, lam, gain


def _noise_settings(args, cfg: dict, default_kind: str):
    ncfg = _section(cfg, "noise")
    raw_kind = _pick(getattr(args, "noise", None), ncfg, "kind", default_kind)
    try:
        kind = NoiseKind(str(raw_kind))
    except ValueError:
        raise UsageError(f"unknown noise kind {raw_kind!r}") from None
    epsilon_bar = float(_pick(getattr(args, "epsilon_bar", None), ncfg, "epsilon_bar", 0.0))
    seed = _int(_pick(args.seed, ncfg, "seed", 0), "noise seed")
    return kind, epsilon_bar, seed


def cmd_graph(args) -> int:
    cfg = _load_config(args.config)
    graph, _ = _resolve_graph(args, cfg, _pick(args.seed, cfg, "seed"))
    out = _pick(args.out, cfg, "out")
    out = Path(os.environ.get(ENV_OUT_DIR, ".")) / "graph.edges" if out is None else Path(out)
    with _OutputSink(out.parent) as sink:
        sink.write_text(out.name, format_edge_list(graph))
    print(f"nodes {graph.n_nodes} edges {len(graph.edges)} -> {out}")
    if graph.n_nodes <= BRUTE_FORCE_MAX_NODES:
        value, arg = max_cut_brute_force(graph)
        print(f"max cut {_fmt(value)} at partition {arg:0{graph.n_nodes}b}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    graph, graph_echo = _resolve_graph(args, cfg, args.graph_seed)
    delta_t, depth, lam, gain = _run_settings(args, cfg)
    kind, epsilon_bar, noise_seed = _noise_settings(args, cfg, "none")
    config = RunConfig(
        graph, delta_t, depth,
        FeedbackLaw(lam, gain),
        NoiseModel(kind, epsilon_bar, noise_seed),
    )
    with _OutputSink(_resolve_out_dir(args, cfg)) as sink:
        trace = engine.run(config)
        diag = maxcut_hamiltonian(graph)
        driver = driver_x(graph.n_nodes)
        report = analysis.lipschitz_from_betas(trace.betas, delta_t, diag, driver, epsilon_bar)
        p0, ground_states = ground_energy(diag)
        above = diag.diag[diag.diag > p0 + DEGENERACY_TOL]
        p1 = float(above.min()) if above.size else p0
        succ = analysis.success_probability(trace.final_state, ground_states)
        errors = trace.costs - trace.ground_energy
        rows = [
            [t + 1, trace.betas[t], trace.a_values[t], trace.costs[t], errors[t]]
            for t in range(depth)
        ]
        sink.write_csv("trace.csv", ["layer", "beta", "a", "cost", "cost_error"], rows)
        summary = {
            "graph": graph_echo,
            "delta_t": delta_t,
            "depth": depth,
            "lambda": lam,
            "w": gain,
            "noise": {"kind": kind.value, "epsilon_bar": epsilon_bar, "seed": noise_seed},
            "ground_energy": trace.ground_energy,
            "final_cost": float(trace.costs[-1]),
            "final_cost_error": trace.final_cost_error,
            "success_probability": succ,
            "l_value": report.l_value,
            "fidelity_lower_bound": report.fidelity_lower_bound,
            "bound_vacuous": report.vacuous,
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
        sink.write_text("summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
        if args.svg:
            xs = list(range(1, depth + 1))
            svg = plotting.line_plot_svg(
                [("cost_error", xs, list(errors)), ("beta", xs, list(trace.betas))],
                title="closed-loop trace", x_label="layer", y_label="value",
            )
            sink.write_text("trace.svg", svg)
    print(f"wrote {', '.join(str(p) for p in sink.written)}")
    print(
        f"final cost {_fmt(trace.costs[-1])} "
        f"error {_fmt(trace.final_cost_error)} success {_fmt(succ)}"
    )
    return EXIT_OK


def _sweep_cell(configs: list[RunConfig]) -> tuple[analysis.SweepSummary, list]:
    """Run every seed of one (epsilon_bar, lambda) cell. Top level for pickling."""
    runs = [engine.run(config) for config in configs]
    diag = maxcut_hamiltonian(configs[0].graph)
    driver = driver_x(configs[0].graph.n_nodes)
    summary = analysis.aggregate(runs, runs[0].ground_energy)
    rows = [[trace.config.noise.seed, float(trace.costs[-1]), trace.final_cost_error,
             analysis.ideal_fidelity(trace, diag, driver)] for trace in runs]
    return summary, rows


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    graph, _ = _resolve_graph(args, cfg, args.graph_seed)
    delta_t, depth, lam, gain = _run_settings(args, cfg)
    kind, _, _ = _noise_settings(args, cfg, "systematic")
    if kind is NoiseKind.NONE:
        raise UsageError("sweep needs a noisy kind: systematic or independent")
    epsilon_bars = _float_list(_pick(args.epsilon_bars, cfg, "epsilon_bars"), "epsilon_bars")
    lambdas_raw = _pick(args.lambdas, cfg, "lambdas")
    lambdas = _float_list(lambdas_raw, "lambdas") if lambdas_raw is not None else [lam]
    seeds = _seed_list(_pick(args.seeds, cfg, "seeds"))
    jobs = _int(_pick(args.jobs, cfg, "jobs", 1), "jobs")
    if jobs < 1:
        raise UsageError(f"jobs must be at least 1, got {jobs}")
    cells = [
        (eb, lv, [RunConfig(graph, delta_t, depth, FeedbackLaw(lv, gain),
                            NoiseModel(kind, eb, seed)) for seed in seeds])
        for eb in epsilon_bars
        for lv in lambdas
    ]
    names = [f"cell_eps{eb:g}_lam{lv:g}.csv" for eb, lv, _ in cells]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise UsageError(f"two sweep cells would both write {name}")
    results = []
    with (ProcessPoolExecutor(max_workers=jobs) if jobs > 1
          else contextlib.nullcontext()) as pool:
        outcomes = (pool.map if pool else map)(_sweep_cell, [c for _, _, c in cells])
        for eb, lv, _ in cells:
            try:
                results.append(next(outcomes))
            except (ValueError, RuntimeError) as exc:
                raise RuntimeError(
                    f"cell epsilon_bar={eb:g} lambda={lv:g} failed: {exc}"
                ) from exc
    with _OutputSink(_resolve_out_dir(args, cfg)) as sink:
        for name, (_, rows) in zip(names, results):
            sink.write_csv(name, ["seed", "final_cost", "final_cost_error", "fidelity"], rows)
        sink.write_csv(
            "aggregate.csv",
            ["epsilon_bar", "lambda", "n_seeds",
             "mean_final_cost_error", "std_final_cost_error"],
            [[s.epsilon_bar, s.lam, s.n_seeds, s.mean_final_cost_error, s.std_final_cost_error]
             for s, _ in results],
        )
        if args.svg:
            series = []
            for lv in lambdas:
                picked = [s for s, _ in results if s.lam == lv]
                series.append((f"lambda={lv:g}", [s.epsilon_bar for s in picked],
                               [s.mean_final_cost_error for s in picked]))
            sink.write_text(
                "sweep.svg",
                plotting.line_plot_svg(
                    series, title="final cost error vs error bound",
                    x_label="epsilon_bar", y_label="mean final cost error",
                ),
            )
    print(f"wrote {', '.join(str(p) for p in sink.written)}")
    for s, _ in results:
        print(
            f"epsilon_bar {s.epsilon_bar:g} lambda {s.lam:g}: "
            f"mean error {_fmt(s.mean_final_cost_error)} "
            f"(std {_fmt(s.std_final_cost_error)}, n={s.n_seeds})"
        )
    return EXIT_OK


def _read_trace_betas(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise UsageError(f"{path} is empty")
    header = lines[0].split(",")
    try:
        col = header.index("beta")
    except ValueError:
        raise UsageError(f"{path} has no 'beta' column") from None
    betas = []
    for row, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            beta = float(parts[col])
        except (ValueError, IndexError):
            raise UsageError(f"{path}: unreadable row {line!r}") from None
        if not np.isfinite(beta):
            raise UsageError(f"{path} row {row}: beta {parts[col]} is not finite")
        betas.append(beta)
    if not betas:
        raise UsageError(f"{path} has no data rows")
    return np.array(betas)


def _trace_delta_t(trace: Path, given, graph: Graph, ground: float) -> float:
    """delta_t of the run that wrote ``trace``, from the summary.json beside
    it, once that summary shows the run was on this instance (node and edge
    counts, ground energy); a flag or config delta_t must agree, and stands
    in when there is no summary."""
    path = trace.with_name("summary.json")
    if not path.exists():
        if given is None:
            raise UsageError(f"no {path} to take delta_t from; give --delta-t")
        return float(given)
    summary = json.loads(path.read_text(encoding="utf-8"))
    run_graph = summary.get("graph") if isinstance(summary, dict) else None
    if not isinstance(run_graph, dict):
        raise UsageError(f"{path} records no instance")
    there = (run_graph.get("n_nodes"), run_graph.get("n_edges"), summary.get("ground_energy"))
    here = (graph.n_nodes, len(graph.edges), ground)
    if there != here:
        raise UsageError(f"{path} records a run on another instance: (nodes, edges, "
                         f"ground energy) {there}, here {here}")
    delta_t = summary.get("delta_t")
    if not isinstance(delta_t, (int, float)):
        raise UsageError(f"{path} records no delta_t")
    if given is not None and float(given) != delta_t:
        raise UsageError(f"delta_t {given} disagrees with {delta_t} in {path}")
    return float(delta_t)


def cmd_bound(args) -> int:
    cfg = _load_config(args.config)
    graph, _ = _resolve_graph(args, cfg, args.graph_seed)
    delta_t, depth, lam, gain = _run_settings(args, cfg)
    diag = maxcut_hamiltonian(graph)
    driver = driver_x(graph.n_nodes)
    if args.trace is not None:
        betas = _read_trace_betas(Path(args.trace))
        depth = betas.size
        delta_t = _trace_delta_t(Path(args.trace), _pick(args.delta_t, cfg, "delta_t"),
                                 graph, ground_energy(diag)[0])
    else:
        config = RunConfig(graph, delta_t, depth, FeedbackLaw(lam, gain), NoiseModel())
        betas = engine.run_nominal(config).betas
    epsilon_bars = _float_list(_pick(args.epsilon_bars, cfg, "epsilon_bars"), "epsilon_bars")
    draws = _int(_pick(args.draws, cfg, "draws", 100), "draws")
    if draws < 1:
        raise UsageError(f"draws must be at least 1, got {draws}")
    seed = _int(_pick(args.seed, cfg, "seed", 0), "seed")
    models = [NoiseModel(NoiseKind.INDEPENDENT, eb, seed) for eb in epsilon_bars]
    base = analysis.lipschitz_from_betas(betas, delta_t, diag, driver, 0.0)
    l_value = base.l_value
    ideal = engine.replay(betas, np.zeros_like(betas), delta_t, diag, driver)
    rows = []
    for model in models:
        eb = model.epsilon_bar
        floor, vacuous = analysis.fidelity_floor(l_value, eb)
        empirical = min(
            abs(inner_product(ideal, engine.replay(
                betas, trajectory(model, depth, rebuild_index=i + 1).values,
                delta_t, diag, driver,
            )))
            for i in range(draws)
        )
        rows.append([eb, l_value, floor, empirical, draws, vacuous])
    with _OutputSink(_resolve_out_dir(args, cfg)) as sink:
        sink.write_csv(
            "bound.csv",
            ["epsilon_bar", "l_value", "fidelity_lower_bound",
             "empirical_min_fidelity", "draws", "vacuous"],
            rows,
        )
        if args.svg:
            xs = [r[0] for r in rows]
            sink.write_text(
                "bound.svg",
                plotting.line_plot_svg(
                    [("lower bound", xs, [r[2] for r in rows]),
                     ("empirical min", xs, [r[3] for r in rows])],
                    title="fidelity bound", x_label="epsilon_bar", y_label="fidelity",
                ),
            )
    print(f"wrote {', '.join(str(p) for p in sink.written)}")
    print(f"l_value {_fmt(l_value)} over {depth} layers")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="falqon",
        description="Feedback-driven MaxCut optimization on a dense statevector simulator.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(sp, out_help):
        sp.add_argument("--config", help="JSON config file; flags override its entries")
        sp.add_argument("--out", help=out_help)
        sp.add_argument("--seed", type=int, help="noise/draw seed (generator seed for 'graph')")
        sp.add_argument("--svg", action="store_true", help="also write SVG plots")

    def add_graph_source(sp):
        sp.add_argument("--graph", help="edge-list file to load")
        sp.add_argument("--regular", nargs=2, type=int, metavar=("N", "D"),
                        help="random D-regular graph on N nodes")
        sp.add_argument("--er", nargs=2, metavar=("N", "P"),
                        help="Erdos-Renyi graph on N nodes with edge probability P")

    def add_run_params(sp, with_noise=True):
        sp.add_argument("--graph-seed", type=int,
                        help="generator seed when the instance is built inline")
        sp.add_argument("--delta-t", type=float, help="layer time step (default 0.05)")
        sp.add_argument("--depth", type=int, help="number of layers (default 200)")
        sp.add_argument("--lambda", dest="lam", type=float,
                        help="feedback regularization weight (default 0.5)")
        sp.add_argument("--w", dest="gain", type=float, help="feedback gain (default 1)")
        if with_noise:
            sp.add_argument("--noise", choices=[k.value for k in NoiseKind],
                            help="error model kind")
            sp.add_argument("--epsilon-bar", type=float, help="error magnitude bound")

    sp = sub.add_parser("graph", help="generate or normalize an instance file")
    add_common(sp, out_help="output edge-list file (default: graph.edges in $FALQON_OUT or '.')")
    add_graph_source(sp)
    sp.set_defaults(handler=cmd_graph)

    sp = sub.add_parser("run", help="one closed-loop run")
    add_common(sp, out_help="output directory (default: $FALQON_OUT or '.')")
    add_graph_source(sp)
    add_run_params(sp)
    sp.set_defaults(handler=cmd_run)

    sp = sub.add_parser("sweep", help="grid of (epsilon_bar, lambda) cells over seeds")
    add_common(sp, out_help="output directory (default: $FALQON_OUT or '.')")
    add_graph_source(sp)
    add_run_params(sp)
    sp.add_argument("--epsilon-bars", help="comma list of error bounds, e.g. 0.1,0.25")
    sp.add_argument("--lambdas", help="comma list of regularization weights")
    sp.add_argument("--seeds", help="comma list and/or a:b ranges, e.g. 0:50")
    sp.add_argument("--jobs", type=int, help="worker processes for sweep cells")
    sp.set_defaults(handler=cmd_sweep)

    sp = sub.add_parser("bound", help="fidelity lower bound vs empirical minimum")
    add_common(sp, out_help="output directory (default: $FALQON_OUT or '.')")
    add_graph_source(sp)
    add_run_params(sp, with_noise=False)
    sp.add_argument("--trace", help="trace.csv to take the control sequence from")
    sp.add_argument("--epsilon-bars", help="comma list of error bounds")
    sp.add_argument("--draws", type=int, help="independent error draws per bound row (default 100)")
    sp.set_defaults(handler=cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
