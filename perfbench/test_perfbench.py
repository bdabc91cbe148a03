"""Tests of the benchmark's tracer and output checks.

    python3 -m pytest perfbench -q

The traced runs pin the exact work counts of each workload, so a change to
the tracer that loses or double-counts calls shows here. A change to the
program that is meant to do less work changes these counts too.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
from tracer import Tracer, self_times
from workloads import WORKLOADS, make_inputs

cli = run.import_program()
BASE = run.WORK / "tests"


@pytest.fixture(scope="module")
def traced():
    shutil.rmtree(BASE, ignore_errors=True)
    make_inputs(BASE / "inputs")
    done = {}

    def get(name):
        if name not in done:
            ck = checks.Checks()
            out = BASE / name
            tracer, _ = run.traced_sample(cli.main, WORKLOADS[name], 0, BASE / "inputs",
                                          out, ck, name)
            assert ck.failures == []
            done[name] = tracer, out
        return done[name]

    return get


def test_run_ref8_counts(traced):
    tracer, _ = traced("run-ref8")
    calls = tracer.calls()
    assert calls["engine.layer"] == 200
    assert calls["hamiltonian.spectral_norm"] == 200
    assert calls["cli"] == 1


def test_sweep_indep_ref8_counts(traced):
    tracer, _ = traced("sweep-indep-ref8")
    calls = tracer.calls()
    assert calls["engine.layer"] == 39_000
    assert calls["noise.trajectory"] == 1_200
    assert tracer.counts["noise.samples"] == 36_600
    assert calls["hamiltonian.spectral_norm"] == 0


def test_sweep_sys_n12_counts(traced):
    tracer, _ = traced("sweep-sys-n12")
    calls = tracer.calls()
    assert calls["engine.layer"] == 12_000
    assert calls["engine.replay"] == 16
    assert len(tracer.replay_inputs) == 8


def test_layer_metrics_are_the_benchmark_json_set(traced):
    tracer, _ = traced("sweep-sys-n12")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = run.layer_metrics(tracer, WORKLOADS["sweep-sys-n12"], **{
        "cli.bytes_written": 0, "cli.cpu_s": 0.0, "trace.overhead_s": 0.0})
    assert metrics.keys() == {m["name"] for m in spec["per_layer"]}
    assert metrics["engine.replay.useful_ratio"] == 0.5
    assert metrics["statevector.amplitudes"] == (12_000 + 12_000 + 4_000 + 4_000) * 4096


def test_install_wraps_every_binding_and_restore_puts_them_back():
    import falqon.engine
    import falqon.hamiltonian
    import falqon.rng
    import falqon.statevector

    bindings = [(falqon.engine, "layer"), (falqon.engine, "apply_x_rotations"),
                (falqon.statevector, "apply_x_rotations"),
                (falqon.hamiltonian, "driver_matvec"), (falqon.rng.SplitMix64, "next_u64")]
    before = [getattr(owner, attr) for owner, attr in bindings]
    tracer = Tracer("t")
    tracer.install()
    try:
        assert all(getattr(o, a) is not b for (o, a), b in zip(bindings, before))
        assert falqon.engine.apply_x_rotations is falqon.statevector.apply_x_rotations
        assert falqon.statevector.driver_matvec is before[3]
    finally:
        tracer.restore()
    assert all(getattr(o, a) is b for (o, a), b in zip(bindings, before))


def test_self_time_subtracts_direct_children_only():
    spans = [(1, "a", 0.0, 10.0, 0), (2, "b", 1.0, 4.0, 1), (3, "c", 2.0, 3.0, 2),
             (4, "b", 5.0, 6.0, 1)]
    assert self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


def _tampered(src, dst, name, edit):
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    path = dst / name
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    return dst


def _failures(check, outputs, *args):
    ck = checks.Checks()
    check(outputs, *args, ck)
    return ck.failures


def test_checks_pass_on_the_program_outputs(traced):
    _, out = traced("run-ref8")
    outputs = checks.read_outputs(out)
    assert _failures(checks.check_run, outputs, 200) == []
    assert _failures(checks.check_reference, outputs, checks.load_reference("run-ref8")) == []


def test_checks_catch_a_rising_cost(traced):
    _, out = traced("run-ref8")

    def raise_cost(lines):
        cells = lines[100].split(",")
        cells[3] = repr(float(lines[99].split(",")[3]) + 1e-6)
        lines[100] = ",".join(cells)
        return lines

    outputs = checks.read_outputs(_tampered(out, BASE / "bad-run", "trace.csv", raise_cost))
    assert len(_failures(checks.check_run, outputs, 200)) == 1
    assert _failures(checks.check_reference, outputs, checks.load_reference("run-ref8")) == [
        "trace.csv agrees with the reference within 1e-09"]
    assert not checks.same_files(out, BASE / "bad-run")


def test_checks_catch_a_wrong_aggregate_and_fidelity(traced):
    _, out = traced("sweep-indep-ref8")
    seeds = WORKLOADS["sweep-indep-ref8"].noise_seeds(0)
    assert _failures(checks.check_sweep, checks.read_outputs(out), seeds) == []

    def shift_mean(lines):
        cells = lines[1].split(",")
        cells[3] = repr(float(cells[3]) * (1 + 1e-9))
        return [lines[0], ",".join(cells), *lines[2:]]

    bad = _tampered(out, BASE / "bad-agg", "aggregate.csv", shift_mean)
    assert len(_failures(checks.check_sweep, checks.read_outputs(bad), seeds)) == 1

    def fidelity_above_one(lines):
        return [lines[0], lines[1].rsplit(",", 1)[0] + ",1.0000000001", *lines[2:]]

    bad = _tampered(out, BASE / "bad-fid", "cell_eps0.25_lam0.5.csv", fidelity_above_one)
    assert len(_failures(checks.check_sweep, checks.read_outputs(bad), seeds)) == 1


def test_benchmark_without_the_program_exits_nonzero():
    bare = BASE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-ref8", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
