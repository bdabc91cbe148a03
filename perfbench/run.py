"""Benchmark driver for the falqon command line.

    python3 perfbench/run.py --workload run-ref8 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src` directory, never from an installed copy. Each sample calls
`falqon.cli.main(argv)` in this process and times the whole call; nothing
inside the package is timed. Samples repeat until `--seconds` have passed,
and at least MIN_SAMPLES run so that the determinism check always has a
pair to compare.

With `--trace 0` the result holds the end-to-end metrics (see
BENCHMARK.json). With `--trace 1` one more sample runs under the span
tracer and the result holds the per-layer metrics instead. Either way the
outputs are checked (checks.py) and the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Scratch
files, spans and a full result record with the machine facts go to
`.perfbench/` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
from tracer import STATEVECTOR_OPS, Tracer
from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
MIN_SAMPLES = 2
SETUP_REPEATS = 15


def import_program():
    """Import falqon from ROOT/src; exit 2 if the checkout has no program."""
    src = ROOT / "src"
    if not (src / "falqon" / "__init__.py").is_file():
        print(f"error: no falqon package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import falqon.cli

    if src.resolve() not in Path(falqon.__file__).resolve().parents:
        print(f"error: falqon was imported from {falqon.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return falqon.cli


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            threads = getter()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
    }


def measure_setup() -> tuple[float, list[float]]:
    """Median seconds a fresh interpreter takes to import falqon.

    The child times its own import, so interpreter start-up and shutdown
    are left out.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import time; t = time.perf_counter(); import falqon; "
           "print(time.perf_counter() - t)"]
    # The first import compiles the bytecode, which users pay only once.
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60, capture_output=True)
    times = [float(subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60,
                                  capture_output=True, text=True).stdout)
             for _ in range(SETUP_REPEATS)]
    return statistics.median(times), times


def run_command(main, argv: list[str], ck: checks.Checks) -> tuple[float, float]:
    """Wall and CPU seconds of one `falqon` command; a failure counts as a failed check."""
    rc = None
    with contextlib.redirect_stdout(io.StringIO()):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = main(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    ck.expect(rc == 0, f"falqon {' '.join(argv)} exits 0 (got {rc})")
    return wall, cpu


def check_outputs(workload, seed: int, out: Path, ck: checks.Checks) -> None:
    outputs = checks.read_outputs(out)
    if workload.command == "run":
        checks.check_run(outputs, workload.depth, ck)
    else:
        checks.check_sweep(outputs, workload.noise_seeds(seed), ck)
    if seed == 0 or workload.seed_independent:
        reference = checks.load_reference(workload.name)
        ck.expect(reference is not None, f"reference values recorded for {workload.name}")
        if reference is not None:
            checks.check_reference(outputs, reference, ck)


def layer_metrics(tracer: Tracer, workload, **extra) -> dict:
    calls, own = tracer.calls(), tracer.self_times()
    norms = calls["hamiltonian.spectral_norm"]
    matvecs = tracer.counts["hamiltonian.norm_matvecs"]
    replays = calls["engine.replay"]
    metrics = {
        "hamiltonian.norm_matvecs": matvecs,
        "hamiltonian.norm_matvecs_per_norm": matvecs / norms if norms else 0.0,
        "rng.draws": tracer.counts["rng.draws"],
        "statevector.amplitudes":
            sum(calls[name] for name in STATEVECTOR_OPS) << workload.n_qubits,
        # No replay at all wastes nothing.
        "engine.replay.useful_ratio":
            len(tracer.replay_inputs) / replays if replays else 1.0,
        "noise.samples": tracer.counts["noise.samples"],
        "graphs.self_s": float(sum(v for k, v in own.items() if k.startswith("graphs."))),
        "cli.self_s": own["cli"],
        **extra,
    }
    for name in ("hamiltonian.spectral_norm", *STATEVECTOR_OPS, "engine.layer",
                 "engine.replay", "noise.trajectory"):
        metrics[f"{name}.calls"] = calls[name]
    for name in ("hamiltonian.spectral_norm", *STATEVECTOR_OPS, "engine.layer",
                 "engine.replay", "noise.trajectory", "analysis.aggregate",
                 "engine.run", "analysis.lipschitz_from_betas"):
        metrics[f"{name}.self_s"] = float(own[name])
    return metrics


def traced_sample(main, workload, seed: int, inputs: Path, out: Path,
                  ck: checks.Checks, run_id: str) -> tuple[Tracer, float]:
    """Run the workload once under the tracer; returns it and the traced wall time."""
    tracer = Tracer(run_id)
    tracer.install()
    try:
        wall, _ = run_command(lambda argv: tracer.call("cli", main, argv),
                              workload.argv(seed, inputs, out), ck)
    finally:
        tracer.restore()
    return tracer, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / run_id
    shutil.rmtree(work, ignore_errors=True)
    inputs, outs = work / "inputs", work / "out"
    make_inputs(inputs)
    outs.mkdir()

    ck = checks.Checks()
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine_facts(),
              "loadavg_before": os.getloadavg()}
    if not args.trace:
        record["setup_s"], record["setup_samples_s"] = measure_setup()
    # Warm-up at a tiny depth, so that lazy imports and first-call set-up
    # inside numpy are not charged to the first sample.
    run_command(cli.main, workload.argv(args.seed, inputs, outs / "warmup", depth=2,
                                        n_seeds=1), ck)

    walls, cpus = [], []
    first = outs / "s0"
    start = time.perf_counter()
    while len(walls) < MIN_SAMPLES or time.perf_counter() - start < args.seconds:
        out = outs / f"s{len(walls)}"
        wall, cpu = run_command(cli.main, workload.argv(args.seed, inputs, out), ck)
        walls.append(wall)
        cpus.append(cpu)
        if out == first:
            check_outputs(workload, args.seed, out, ck)
        else:
            ck.expect(checks.same_files(first, out), f"{out.name} is byte-identical to s0")
            shutil.rmtree(out)
    record["wall_samples_s"] = walls
    wall_s = statistics.median(walls)

    if args.trace:
        out = outs / "traced"
        tracer, traced_wall = traced_sample(cli.main, workload, args.seed, inputs, out,
                                            ck, run_id)
        check_outputs(workload, args.seed, out, ck)
        ck.expect(checks.same_files(first, out), "traced outputs are byte-identical to s0")
        tracer.write(work / "spans.csv")
        values = layer_metrics(
            tracer, workload,
            **{"cli.bytes_written": sum(p.stat().st_size for p in out.iterdir()),
               "cli.cpu_s": statistics.median(cpus),
               "trace.overhead_s": traced_wall - wall_s})
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": record["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    if {m["name"] for m in wanted} != values.keys():
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record.update(loadavg_after=os.getloadavg(), attempted=ck.attempted,
                  failed=ck.failed, failures=ck.failures, metrics=metrics)
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"perfbench {run_id}: {len(walls)} samples, median {wall_s:.4f} s per command")
    print("machine " + json.dumps(record["machine"]))
    print(f"loadavg before {record['loadavg_before']} after {record['loadavg_after']}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<44} {ck.failed / ck.attempted:>14.6g} "
          f"({ck.failed} of {ck.attempted} checks failed)")
    for failure in ck.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({"correct": ck.failed == 0, "attempted": ck.attempted,
                      "failed": ck.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
