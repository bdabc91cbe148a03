import argparse
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import falqon
from falqon import analysis, cli
from falqon.cli import SETTINGS, _build_parser, main
from falqon.graphs import (
    load_edge_list,
    parse_edge_list,
    random_regular,
    reference_instance,
    save_edge_list,
)


def run_cli(*argv):
    return main(list(argv))


def test_graph_regular_writes_instance(tmp_path, capsys):
    out = tmp_path / "inst.edges"
    assert run_cli("graph", "--regular", "8", "3", "--graph-seed", "42", "--out", str(out)) == 0
    g = load_edge_list(out)
    assert g == random_regular(8, 3, seed=42)
    wrote, size, cut = capsys.readouterr().out.splitlines()
    assert (wrote, size) == (f"wrote {out}", "nodes 8 edges 12")
    assert cut.startswith("max cut 10 at partition ")
    # the instance may also come from a config 'graph' entry, with its seed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": {"regular": [8, 3], "seed": 42}}))
    out2 = tmp_path / "cfg.edges"
    assert run_cli("graph", "--config", str(cfg), "--out", str(out2)) == 0
    assert out2.read_bytes() == out.read_bytes()
    # a missing parent directory is created, and only the instance lands there
    nested = tmp_path / "sub" / "g.edges"
    assert run_cli("graph", "--regular", "8", "3", "--graph-seed", "42",
                   "--out", str(nested)) == 0
    assert nested.read_bytes() == out.read_bytes()
    assert [p.name for p in nested.parent.iterdir()] == ["g.edges"]


def test_graph_er_deterministic(tmp_path):
    a = tmp_path / "a.edges"
    b = tmp_path / "b.edges"
    assert run_cli("graph", "--er", "6", "0.5", "--graph-seed", "3", "--out", str(a)) == 0
    assert run_cli("graph", "--er", "6", "0.5", "--graph-seed", "3", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_graph_rejects_impossible_parameters(tmp_path):
    out = tmp_path / "x.edges"
    assert run_cli("graph", "--regular", "5", "3", "--out", str(out)) == 2
    assert not out.exists()
    assert run_cli("graph", "--out", str(out)) == 2
    # the generator seed of 'graph' is --graph-seed; --seed is the noise seed,
    # which 'graph' does not take
    with pytest.raises(SystemExit) as info:
        run_cli("graph", "--regular", "8", "3", "--seed", "5", "--out", str(out))
    assert info.value.code == 2
    assert not out.exists()


def test_runs_refuse_a_wide_generated_instance_before_building_it(tmp_path, monkeypatch,
                                                                    capsys):
    # graph generates any size, but run, sweep and bound check the width of
    # a generated instance, from a flag or the config, before generating it
    assert run_cli("graph", "--regular", "14", "3", "--out", str(tmp_path / "g.edges")) == 0

    def unbuilt(*args):
        raise AssertionError(f"an instance was generated from {args}")

    monkeypatch.setattr(cli, "erdos_renyi", unbuilt)
    monkeypatch.setattr(cli, "random_regular", unbuilt)
    out, cfg = tmp_path / "out", tmp_path / "cfg.json"
    tails = {"run": (), "bound": ("--epsilon-bars", "0.1"),
             "sweep": ("--noise", "systematic", "--epsilon-bars", "0.1", "--seeds", "0")}
    for command, tail in tails.items():
        for source, n in ((("--er", "2000", "0.5"), 2000), (("--regular", "100000", "3"), 100000),
                          ((), 13), (("--er", "0", "0.5"), 0)):
            cfg.write_text(json.dumps({"graph": {"regular": [13, 3]}}))
            capsys.readouterr()
            assert run_cli(command, *source, *tail, "--config", str(cfg), "--out", str(out)) == 2
            assert capsys.readouterr().err == f"error: qubit count must be in [1, 12], got {n}\n"
            assert not out.exists()


def test_run_writes_trace_and_summary(tmp_path):
    out = tmp_path / "results"
    code = run_cli(
        "run", "--regular", "8", "3", "--graph-seed", "42",
        "--depth", "60", "--out", str(out),
    )
    assert code == 0
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "layer,beta,a,cost,cost_error"
    assert len(trace_lines) == 61
    first = trace_lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == 0.0  # no feedback has been applied yet
    summary = json.loads((out / "summary.json").read_text())
    assert summary["depth"] == 60
    assert summary["ground_energy"] == -10.0
    assert summary["noise"]["kind"] == "none"
    assert summary["final_cost_error"] == pytest.approx(
        summary["final_cost"] - summary["ground_energy"]
    )
    assert 0.0 <= summary["success_probability"] <= 1.0
    assert summary["l_value"] > 0.0
    assert summary["assumptions"]["degenerate_eigenvalues"] is True
    assert sorted(p.name for p in out.iterdir()) == ["summary.json", "trace.csv"]


def test_run_trace_floats_round_trip(tmp_path):
    out = tmp_path / "results"
    run_cli("run", "--regular", "4", "3", "--depth", "20", "--out", str(out))
    lines = (out / "trace.csv").read_text().splitlines()[1:]
    # 17 significant digits must reproduce the float bit patterns on re-read
    for line in lines:
        for cell in line.split(",")[1:]:
            x = float(cell)
            assert format(x, ".17g") == cell


def test_run_rerun_is_byte_identical(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    args = ("run", "--regular", "8", "3", "--graph-seed", "42", "--depth", "30",
            "--noise", "systematic", "--epsilon-bar", "0.3", "--seed", "5")
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    for name in ("trace.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the norm solver runs on BLAS products; one and two OpenBLAS threads
    # must write the same bytes for the reference instance at depth 200
    graph = tmp_path / "ref8.edges"
    save_edge_list(reference_instance(), graph)
    env = {**os.environ, "PYTHONPATH": str(Path(falqon.__file__).parents[1])}
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-m", "falqon.cli", "run", "--graph", str(graph), "--depth", "200",
             "--out", str(tmp_path / threads)],
            capture_output=True, text=True, timeout=300,
            env={**env, "OPENBLAS_NUM_THREADS": threads})
        assert done.returncode == 0, done.stderr
    for name in ("trace.csv", "summary.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_run_config_file_with_flag_override(tmp_path):
    cfg = {
        "graph": {"regular": [8, 3], "seed": 42},
        "delta_t": 0.05,
        "depth": 40,
        "lambda": 1.0,
        "noise": {"kind": "systematic", "epsilon_bar": 0.2, "seed": 1},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "results"
    assert run_cli("run", "--config", str(cfg_path), "--depth", "25",
                   "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["depth"] == 25  # flag wins
    assert summary["lambda"] == 1.0  # config survives where no flag is given
    assert summary["noise"]["epsilon_bar"] == 0.2
    assert summary["graph"]["seed"] == 42


def test_run_defaults_out_dir_to_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FALQON_OUT", str(tmp_path / "envout"))
    assert run_cli("run", "--regular", "4", "3", "--depth", "5") == 0
    assert (tmp_path / "envout" / "trace.csv").exists()
    capsys.readouterr()
    assert run_cli("graph", "--regular", "4", "3") == 0
    assert (tmp_path / "envout" / "graph.edges").exists()
    assert f"wrote {tmp_path / 'envout' / 'graph.edges'}\n" in capsys.readouterr().out


def test_run_bad_config_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in (b"{not json", b'{"depth": }', b'{"depth": 2\xff}'):
        bad.write_bytes(text)
        capsys.readouterr()
        assert run_cli("run", "--regular", "4", "3", "--config", str(bad)) == 2
        assert f"config {bad} is not valid JSON" in capsys.readouterr().err


def test_run_invalid_parameters_exit_2(tmp_path, capsys):
    out = tmp_path / "results"
    assert run_cli("run", "--regular", "4", "3", "--depth", "0", "--out", str(out)) == 2
    assert run_cli("run", "--regular", "4", "3", "--delta-t", "-1", "--out", str(out)) == 2
    assert run_cli("run", "--regular", "4", "3", "--noise", "systematic",
                   "--epsilon-bar", "1.0", "--out", str(out)) == 2
    assert run_cli("run", "--depth", "5", "--out", str(out)) == 2  # no graph source
    assert run_cli("run", "--regular", "4", "3", "--epsilon-bar", "nan",
                   "--out", str(out)) == 2
    sweep = ("sweep", "--regular", "4", "3", "--seeds", "0", "--out", str(out))
    assert run_cli(*sweep, "--noise", "systematic", "--epsilon-bars", "nan") == 2
    assert run_cli(*sweep, "--noise", "independent", "--epsilon-bars", "0.1",
                   "--depth", "600") == 2
    assert run_cli("bound", "--regular", "4", "3", "--depth", "2", "--draws", "1",
                   "--epsilon-bars", "nan", "--out", str(out)) == 2
    # only a sweep has cells to spread over worker processes, and a sweep takes
    # its noise seeds and error bounds from --seeds and --epsilon-bars alone
    grid = ("--seeds", "0", "--epsilon-bars", "0.1")
    for argv in (("run", "--jobs", "7"), ("bound", "--jobs", "7"),
                 ("sweep", *grid, "--seed", "7"), ("sweep", *grid, "--epsilon-bar", "0.3")):
        with pytest.raises(SystemExit) as info:
            run_cli(*argv, "--regular", "4", "3", "--depth", "3", "--out", str(out))
        assert info.value.code == 2
    # integer settings from a config file are refused, not truncated
    cfg = tmp_path / "cfg.json"
    for command, entries in (
        ("run", {"depth": 2.7}), ("run", {"depth": True}),
        ("run", {"noise": {"seed": 1.5}}), ("run", {"graph": {"seed": 0.5}}),
        ("bound", {"draws": 2.5}), ("bound", {"noise": {"seed": False}}),
        # a noise entry that is not an object is refused, not run as nominal
        ("run", {"noise": 5}), ("run", {"noise": "systematic"}),
        # real and path settings of the wrong JSON type are refused, not a traceback
        ("run", {"delta_t": [1]}), ("run", {"delta_t": None}), ("run", {"out": 5}),
        ("bound", {"delta_t": [0.05]}), ("run", {"lambda": {"a": 1}}),
        ("run", {"noise": {"kind": "systematic", "epsilon_bar": [0.1]}}),
        # booleans are not reals
        ("run", {"lambda": True}), ("bound", {"epsilon_bars": [False]}),
    ):
        cfg.write_text(json.dumps({"depth": 2, "epsilon_bars": [0.1], **entries}))
        assert run_cli(command, "--regular", "4", "3", "--config", str(cfg),
                       "--out", str(out)) == 2, entries
    # every subcommand parses the whole config, so a shared config fails alike
    for entries, message in (({"noise": 5}, "config 'noise' must be a JSON object"),
                             ({"draws": 2.5}, "draws must be an integer")):
        cfg.write_text(json.dumps({"graph": {"regular": [4, 3]}, "depth": 2, "seeds": [0],
                                   "epsilon_bars": [0.1], "noise": {"kind": "systematic"},
                                   **entries}))
        for command in ("graph", "run", "sweep", "bound"):
            capsys.readouterr()
            assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2, command
            assert message in capsys.readouterr().err, command
    # a malformed config graph entry is a usage error, not a traceback
    for entries, message in (
        ({"graph": 5}, "config 'graph' must be a JSON object"),
        ({"graph": {"regular": 8}}, "graph.regular must be a two-item list"),
        ({"graph": {"regular": [8, 3, 1]}}, "graph.regular must be a two-item list"),
        ({"graph": {"er": "80.5"}}, "graph.er must be a two-item list"),
        ({"graph": {"path": 5}}, "graph.path must be a string"),
    ):
        cfg.write_text(json.dumps({"depth": 2, **entries}))
        capsys.readouterr()
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 2, entries
        assert message in capsys.readouterr().err, entries
    # a config entry that no setting reads is refused and named, not ignored
    for entries, names in (
        ({"dept": 7}, "dept"),
        ({"noise": {"knd": "systematic"}}, "noise.knd"),
        ({"graph": {"regular": [4, 3], "sed": 3}}, "graph.sed"),
        ({"dept": 7, "noise": {"knd": "systematic"}, "graph": {"regular": [4, 3], "sed": 3}},
         "dept, graph.sed, noise.knd"),
    ):
        cfg.write_text(json.dumps({"graph": {"regular": [4, 3]}, **entries}))
        for command in ("graph", "run"):
            capsys.readouterr()
            assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2, entries
            assert f"unknown config entries: {names}" in capsys.readouterr().err, entries
    # a config path that cannot be read is a bad flag, named in the message
    for path in (tmp_path / "nosuch.json", tmp_path):
        capsys.readouterr()
        assert run_cli("run", "--regular", "4", "3", "--depth", "2", "--config", str(path),
                       "--out", str(out)) == 2, path
        assert f"cannot read config {path}" in capsys.readouterr().err, path
    # so is a graph or trace file that is missing, not UTF-8 or not an edge list
    trace, garbled = tmp_path / "run" / "trace.csv", tmp_path / "garbled"
    assert run_cli("run", "--regular", "4", "3", "--depth", "2", "--out", str(trace.parent)) == 0
    garbled.write_bytes(b"nodes 2\n0 1\xff\n")
    nosuch = tmp_path / "nosuch"
    bound = ("bound", "--regular", "4", "3", "--epsilon-bars", "0.1", "--draws", "1", "--trace")
    run = ("run", "--depth", "2", "--graph")
    for argv, message in (
        ((*run, str(nosuch)), f"cannot read graph {nosuch}"),
        ((*run, str(garbled)), f"graph {garbled} is not valid UTF-8 text"),
        ((*run, str(trace)), f"graph {trace}: line 1"),
        ((*bound, str(nosuch)), f"cannot read trace {nosuch}"),
        ((*bound, str(garbled)), f"trace {garbled} is not valid UTF-8 text"),
    ):
        capsys.readouterr()
        assert run_cli(*argv, "--out", str(out)) == 2, argv
        assert message in capsys.readouterr().err, argv
    assert not out.exists()


def test_seeds_outside_64_bits_exit_2_naming_the_seed(tmp_path, capsys):
    # one seed per flag: a huge a:b range would list every seed in it
    out = tmp_path / "results"
    graph = ("graph", "--regular", "4", "3", "--out", str(out / "g.edges"))
    regular = ("--regular", "4", "3", "--depth", "2", "--out", str(out))
    bound = ("bound", "--epsilon-bars", "0.1", "--draws", "1", *regular)
    sweep = ("sweep", "--noise", "systematic", "--epsilon-bars", "0.1", *regular)
    for seed in (-(2**63) - 1, 2**63):
        for argv in (("run", f"--seed={seed}", *regular), (*bound, f"--seed={seed}"),
                     ("run", f"--graph-seed={seed}", *regular), (*graph, f"--graph-seed={seed}"),
                     (*sweep, f"--seeds={seed}")):
            capsys.readouterr()
            assert run_cli(*argv) == 2, argv
            assert f"seed {seed} is outside [-2^63, 2^63)" in capsys.readouterr().err, argv
    assert not out.exists()
    for seed in (-(2**63), 2**63 - 1):
        assert run_cli("run", f"--seed={seed}", f"--graph-seed={seed}", *regular) == 0
        assert run_cli(*sweep, f"--seeds={seed}") == 0


def test_config_refuses_repeated_keys(tmp_path, capsys):
    # JSON keeps the last of repeated keys; a config that sets one twice is refused
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "results"
    for text, key in (
        ('{"depth": 2, "depth": 3}', "depth"),
        ('{"depth": 2, "graph": {"regular": [4, 3], "regular": [6, 3]}}', "regular"),
        ('{"depth": 2, "noise": {"kind": "systematic", "kind": "none"}}', "kind"),
    ):
        cfg.write_text(text)
        for command in ("graph", "run"):
            capsys.readouterr()
            assert run_cli(command, "--regular", "4", "3", "--config", str(cfg),
                           "--out", str(out)) == 2, text
            assert f"config sets {key!r} more than once" in capsys.readouterr().err, text
    assert not out.exists()


def test_one_config_drives_every_command(tmp_path, monkeypatch):
    # a key that one subcommand does not read is still legal there
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "graph": {"regular": [6, 3], "seed": 1}, "delta_t": 0.05, "depth": 4,
        "lambda": 1.0, "w": 1.0,
        "noise": {"kind": "independent", "epsilon_bar": 0.1, "seed": 2},
        "epsilon_bars": [0.1], "lambdas": [0.5], "seeds": [0, 1], "jobs": 1,
        "draws": 2, "out": str(tmp_path / "shared"),
    }))
    for command, out, names in (
        ("graph", tmp_path / "g.edges", None),
        ("run", tmp_path / "run", ["summary.json", "trace.csv"]),
        ("sweep", tmp_path / "sweep", ["aggregate.csv", "cell_eps0.1_lam0.5.csv"]),
        ("bound", tmp_path / "bound", ["bound.csv"]),
    ):
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 0, command
        if names:
            assert sorted(p.name for p in out.iterdir()) == names
    assert load_edge_list(tmp_path / "g.edges") == random_regular(6, 3, seed=1)
    # without --out, the config's out is the directory of run, sweep and bound,
    # while graph writes graph.edges in '.'
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FALQON_OUT", raising=False)
    for command in ("graph", "run", "sweep", "bound"):
        assert run_cli(command, "--config", str(cfg)) == 0, command
    assert (tmp_path / "graph.edges").read_bytes() == (tmp_path / "g.edges").read_bytes()
    assert sorted(p.name for p in (tmp_path / "shared").iterdir()) == [
        "aggregate.csv", "bound.csv", "cell_eps0.1_lam0.5.csv", "summary.json", "trace.csv"]
    assert (tmp_path / "shared" / "bound.csv").read_bytes() == (
        tmp_path / "bound" / "bound.csv").read_bytes()


def test_bound_draws_from_the_noise_seed(tmp_path):
    # bound's error draws take the same seed as run's noise: flag --seed,
    # config noise.seed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise": {"seed": 3}}))
    bound = ("bound", "--regular", "4", "3", "--depth", "6", "--epsilon-bars", "0.3",
             "--draws", "3")
    for name, flags in (("flag", ("--seed", "3")), ("config", ("--config", str(cfg))),
                        ("default", ())):
        assert run_cli(*bound, *flags, "--out", str(tmp_path / name)) == 0
    by_flag, by_config, by_default = (
        (tmp_path / name / "bound.csv").read_bytes() for name in ("flag", "config", "default"))
    assert by_config == by_flag
    assert by_default != by_flag


def test_config_names_one_instance(tmp_path, capsys):
    # graph.seed is the generator seed; noise.seed is the noise and draw seed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": {"regular": [8, 3], "seed": 1}, "noise": {"seed": 5}}))
    by_flag, by_config = tmp_path / "flag.edges", tmp_path / "config.edges"
    assert run_cli("graph", "--regular", "8", "3", "--graph-seed", "1",
                   "--out", str(by_flag)) == 0
    assert run_cli("graph", "--config", str(cfg), "--out", str(by_config)) == 0
    assert by_config.read_bytes() == by_flag.read_bytes()
    out = tmp_path / "run"
    assert run_cli("run", "--config", str(cfg), "--depth", "2", "--out", str(out)) == 0
    assert json.loads((out / "summary.json").read_text())["graph"]["seed"] == 1
    # a graph entry that names two sources is refused, not resolved by precedence
    bad = tmp_path / "bad"
    cfg.write_text(json.dumps({"graph": {"path": str(by_flag), "regular": [8, 3]}}))
    for command in ("graph", "run"):
        capsys.readouterr()
        assert run_cli(command, "--config", str(cfg), "--out", str(bad)) == 2
        assert "give one instance source" in capsys.readouterr().err
    assert not bad.exists()
    # an instance flag beats every source of the config entry
    cfg.write_text(json.dumps({"graph": {"path": str(tmp_path / "missing.edges")}}))
    assert run_cli("run", "--regular", "4", "3", "--config", str(cfg), "--depth", "2",
                   "--out", str(out)) == 0
    assert json.loads((out / "summary.json").read_text())["graph"]["source"] == "regular"


@pytest.mark.parametrize("text, want", [
    ("nodes 2\n0 1\n", {
        "ground_energy": -1.0, "n_ground_states": 2, "first_excited_energy": 0.0,
        "degenerate_eigenvalues": True, "degenerate_gaps": True,
        "driver_connected": False, "initial_energy_ok": True}),
    (None, {
        "ground_energy": -10.0, "n_ground_states": 4, "first_excited_energy": -9.0,
        "degenerate_eigenvalues": True, "degenerate_gaps": True,
        "driver_connected": False, "initial_energy_ok": False}),
    ("nodes 1\n", {
        "ground_energy": 0.0, "n_ground_states": 2, "first_excited_energy": 0.0,
        "degenerate_eigenvalues": True, "degenerate_gaps": False,
        "driver_connected": True, "initial_energy_ok": False}),
], ids=["k2", "ref8", "single-node"])
def test_run_summary_assumptions(tmp_path, text, want):
    inst = tmp_path / "inst.edges"
    if text is None:
        save_edge_list(reference_instance(), inst)
    else:
        inst.write_text(text)
    out = tmp_path / "results"
    assert run_cli("run", "--graph", str(inst), "--depth", "3", "--out", str(out)) == 0
    assert json.loads((out / "summary.json").read_text())["assumptions"] == want


def test_failed_rerun_keeps_earlier_results(tmp_path, monkeypatch):
    out = tmp_path / "results"
    args = ("run", "--regular", "4", "3", "--out", str(out))
    assert run_cli(*args, "--depth", "5") == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["summary.json", "trace.csv"]
    write_text = Path.write_text

    def fail_on_the_summary(path, *a, **kw):
        # trace.csv is staged by then; staging summary.json fails
        if path.name.startswith(".summary.json."):
            raise OSError("disk full")
        return write_text(path, *a, **kw)

    monkeypatch.setattr(Path, "write_text", fail_on_the_summary)
    assert run_cli(*args, "--depth", "8") == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_failed_run_creates_no_output_directory(tmp_path, monkeypatch, capsys):
    def fail(config):
        raise RuntimeError("simulated failure")

    monkeypatch.setattr(cli.engine, "run", fail)
    out = tmp_path / "results"
    assert run_cli("run", "--regular", "4", "3", "--depth", "5", "--out", str(out)) == 1
    assert "simulated failure" in capsys.readouterr().err
    assert not out.exists()


def test_run_loads_graph_file(tmp_path):
    inst = tmp_path / "inst.edges"
    inst.write_text("nodes 2\n0 1\n")
    out = tmp_path / "results"
    assert run_cli("run", "--graph", str(inst), "--depth", "10", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["graph"]["source"] == "file"
    assert summary["graph"]["n_nodes"] == 2


def test_sweep_aggregate_and_cells(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli(
        "sweep", "--regular", "4", "3", "--depth", "15",
        "--noise", "independent", "--epsilon-bars", "0.1,0.3",
        "--lambdas", "0.5,1.0", "--seeds", "0:3", "--out", str(out),
    )
    assert code == 0
    agg_lines = (out / "aggregate.csv").read_text().splitlines()
    assert agg_lines[0] == "epsilon_bar,lambda,n_seeds,mean_final_cost_error,std_final_cost_error"
    assert len(agg_lines) == 5  # 2 epsilon_bars x 2 lambdas
    for eb in ("0.1", "0.3"):
        for lam in ("0.5", "1"):
            cell = out / f"cell_eps{eb}_lam{lam}.csv"
            lines = cell.read_text().splitlines()
            assert lines[0] == "seed,final_cost,final_cost_error,fidelity"
            assert len(lines) == 4  # three seeds
    row = agg_lines[1].split(",")
    assert float(row[0]) == 0.1
    assert row[2] == "3"


def test_sweep_single_cell_matches_run_summary(tmp_path):
    out_sweep = tmp_path / "sweep"
    out_run = tmp_path / "run"
    common = ("--regular", "8", "3", "--graph-seed", "42", "--depth", "30",
              "--noise", "systematic")
    assert run_cli("sweep", *common, "--epsilon-bars", "0.3", "--lambdas", "0.5",
                   "--seeds", "9", "--out", str(out_sweep)) == 0
    assert run_cli("run", *common, "--epsilon-bar", "0.3", "--seed", "9",
                   "--out", str(out_run)) == 0
    agg = (out_sweep / "aggregate.csv").read_text().splitlines()[1].split(",")
    summary = json.loads((out_run / "summary.json").read_text())
    assert float(agg[3]) == summary["final_cost_error"]
    assert agg[4] == "0"


def test_sweep_parallel_matches_serial(tmp_path):
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    args = ("sweep", "--regular", "4", "3", "--depth", "10",
            "--noise", "independent", "--epsilon-bars", "0.2,0.4",
            "--seeds", "0:2")
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--jobs", "2", "--out", str(out2)) == 0
    # every file, so the cells' fidelities from the workers' final states too
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir()) and len(names) == 3
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sweep_replays_each_seed_once(tmp_path, monkeypatch):
    # each seed's ideal state is replayed once, for its cell row's fidelity,
    # in one stacked replay per block, here one block of both cells; the cell
    # statistics replay nothing
    shapes = []
    real_replay = analysis.replay

    def counting_replay(betas, epsilons, *args):
        shapes.append(np.shape(epsilons))
        return real_replay(betas, epsilons, *args)

    monkeypatch.setattr(analysis, "replay", counting_replay)
    assert run_cli("sweep", "--regular", "4", "3", "--depth", "5", "--noise", "systematic",
                   "--epsilon-bars", "0.1,0.2", "--seeds", "0:2", "--jobs", "1",
                   "--out", str(tmp_path / "sweep")) == 0
    assert shapes == [(4, 5)]  # 2 cells of 2 seeds in one block


def test_sweep_files_do_not_depend_on_where_blocks_cut_cells(tmp_path):
    # 3 epsilon_bars x 2 lambdas x 3 seeds are 18 rows in (epsilon_bar,
    # lambda, seed) order, run as one block, or as --jobs near-equal blocks:
    # 9 + 9 and 6 + 6 + 6 rows end where cells end, 4 + 5 + 4 + 5 cut two
    # cells in two; every file stays byte-identical
    args = ("sweep", "--regular", "4", "3", "--depth", "6", "--noise", "independent",
            "--epsilon-bars", "0.1,0.3,0.5", "--lambdas", "0.5,1.0", "--seeds", "0:3")
    for jobs in (1, 2, 3, 4):
        assert run_cli(*args, "--jobs", str(jobs), "--out", str(tmp_path / f"j{jobs}")) == 0
    names = sorted(p.name for p in (tmp_path / "j1").iterdir())
    assert len(names) == 7
    for jobs in (2, 3, 4):
        assert sorted(p.name for p in (tmp_path / f"j{jobs}").iterdir()) == names
        for name in names:
            assert (tmp_path / f"j{jobs}" / name).read_bytes() == (
                tmp_path / "j1" / name).read_bytes(), (jobs, name)


def test_sweep_blocks_hold_at_most_2_14_amplitudes(tmp_path, monkeypatch):
    # a 12-qubit row is 2^11 half-register amplitudes: 8 rows fill one block,
    # 9 rows take two, the first ending inside the second cell
    sizes = []
    block = cli._sweep_block

    def recording(rows):
        sizes.append(len(rows))
        return block(rows)

    monkeypatch.setattr(cli, "_sweep_block", recording)
    args = ("sweep", "--regular", "12", "3", "--depth", "2", "--noise", "systematic")
    assert run_cli(*args, "--epsilon-bars", "0.1,0.2,0.3", "--seeds", "0:3",
                   "--out", str(tmp_path / "nine")) == 0
    assert run_cli(*args, "--epsilon-bars", "0.1,0.2", "--seeds", "0:4",
                   "--out", str(tmp_path / "eight")) == 0
    assert sizes == [4, 5, 8]
    cell = (tmp_path / "nine" / "cell_eps0.2_lam0.5.csv").read_text().splitlines()
    assert cell[1:] == (tmp_path / "eight" / "cell_eps0.2_lam0.5.csv").read_text().splitlines()[1:4]


def test_sweep_failure_names_the_cells_of_its_block(tmp_path, monkeypatch, capsys):
    # a run that fails in a block is a runtime failure (exit 1), not a bad
    # setting, and the message names every cell the block holds
    def fail(rows):
        raise ValueError("state is not a unit state")

    monkeypatch.setattr(cli.engine, "run_cell", fail)
    assert run_cli("sweep", "--regular", "4", "3", "--depth", "3", "--noise", "systematic",
                   "--epsilon-bars", "0.1,0.2", "--seeds", "0:2",
                   "--out", str(tmp_path / "sweep")) == 1
    assert ("sweep cells epsilon_bar=0.1 lambda=0.5, epsilon_bar=0.2 lambda=0.5 failed: "
            "state is not a unit state") in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_bound_replays_its_ideal_state_once(tmp_path, monkeypatch):
    # one ideal replay for the whole bound, then one stacked replay of every
    # draw of every row
    shapes = []
    real_replay = analysis.replay

    def counting_replay(betas, epsilons, *args):
        shapes.append(np.shape(epsilons))
        return real_replay(betas, epsilons, *args)

    monkeypatch.setattr(analysis, "replay", counting_replay)
    assert run_cli("bound", "--regular", "4", "3", "--depth", "5", "--epsilon-bars", "0.1,0.2",
                   "--draws", "3", "--out", str(tmp_path / "bound")) == 0
    assert shapes == [(5,), (6, 5)]  # 1 ideal + 2 rows x 3 draws in one stack


def test_sweep_starts_no_more_workers_than_cells(tmp_path, monkeypatch):
    # a pool starts all of its workers at once, so --jobs is capped at the
    # block count, here one block per row and so per cell; a stand-in pool
    # records the size and maps in this process
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    args = ("sweep", "--regular", "4", "3", "--depth", "3", "--noise", "systematic",
            "--seeds", "0")
    assert run_cli(*args, "--epsilon-bars", "0.1,0.2", "--jobs", "64",
                   "--out", str(tmp_path / "two")) == 0
    assert pools == [2]
    assert run_cli(*args, "--epsilon-bars", "0.1", "--jobs", "64",
                   "--out", str(tmp_path / "one")) == 0
    assert pools == [2]  # a single cell runs serially, without a pool
    assert run_cli(*args, "--epsilon-bars", "0.1,0.2", "--out", str(tmp_path / "serial")) == 0
    for name in ("aggregate.csv", "cell_eps0.1_lam0.5.csv", "cell_eps0.2_lam0.5.csv"):
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_sweep_requires_noisy_kind_and_lists(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--regular", "4", "3", "--noise", "none",
                   "--epsilon-bars", "0.1", "--seeds", "0", "--out", str(out)) == 2
    # the noise kind defaults to none for a sweep too, so it must be given
    capsys.readouterr()
    assert run_cli("sweep", "--regular", "4", "3",
                   "--epsilon-bars", "0.1", "--seeds", "0", "--out", str(out)) == 2
    assert "sweep needs a noisy kind" in capsys.readouterr().err
    assert run_cli("sweep", "--regular", "4", "3", "--noise", "systematic",
                   "--seeds", "0", "--out", str(out)) == 2
    assert run_cli("sweep", "--regular", "4", "3", "--noise", "systematic",
                   "--epsilon-bars", "0.1", "--out", str(out)) == 2
    # grid values whose cell files would share a name
    assert run_cli("sweep", "--regular", "4", "3", "--noise", "systematic", "--seeds", "0",
                   "--epsilon-bars", "0.1,0.1000000001", "--out", str(out)) == 2
    assert run_cli("sweep", "--regular", "4", "3", "--noise", "systematic", "--seeds", "0",
                   "--epsilon-bars", "0.1", "--lambdas", "0.5,0.5", "--out", str(out)) == 2
    # a sweep needs at least one worker, and integral seeds and jobs
    assert run_cli("sweep", "--regular", "4", "3", "--noise", "systematic", "--seeds", "0",
                   "--epsilon-bars", "0.1", "--jobs", "0", "--out", str(out)) == 2
    # each seed runs once: a repeated seed or an empty range is refused and named
    for seeds, message in (("0:3,1", "--seeds lists seed 1 more than once"),
                           ("5:2", "--seeds range 5:2 is empty")):
        capsys.readouterr()
        assert run_cli("sweep", "--regular", "4", "3", "--noise", "systematic",
                       "--epsilon-bars", "0.1", "--seeds", seeds, "--out", str(out)) == 2
        assert message in capsys.readouterr().err, seeds
    cfg = tmp_path / "cfg.json"
    for entries in ({"jobs": 1.5}, {"jobs": 0}, {"seeds": [0, 1.5]}, {"seeds": [True]},
                    {"seeds": [2, 2]}):
        cfg.write_text(json.dumps({"depth": 2, "seeds": [0], "epsilon_bars": [0.1], **entries}))
        assert run_cli("sweep", "--regular", "4", "3", "--config", str(cfg),
                       "--out", str(out)) == 2, entries
    assert not out.exists()


def test_bound_from_config_run(tmp_path):
    out = tmp_path / "bound"
    code = run_cli(
        "bound", "--regular", "8", "3", "--graph-seed", "42", "--depth", "25",
        "--epsilon-bars", "0,0.05,0.2", "--draws", "20", "--out", str(out),
    )
    assert code == 0
    lines = (out / "bound.csv").read_text().splitlines()
    assert lines[0] == ("epsilon_bar,l_value,fidelity_lower_bound,"
                        "empirical_min_fidelity,draws,vacuous")
    assert len(lines) == 4
    rows = [line.split(",") for line in lines[1:]]
    # zero error: bound and empirical minimum both sit at 1
    assert float(rows[0][2]) == 1.0
    assert abs(float(rows[0][3]) - 1.0) < 1e-12
    for row in rows:
        assert float(row[3]) >= float(row[2]) - 1e-12  # bound really is a lower bound
        assert row[5] in ("true", "false")
    # same l_value in every row
    assert len({row[1] for row in rows}) == 1


def test_bound_from_trace_file(tmp_path):
    out_run = tmp_path / "run"
    assert run_cli("run", "--regular", "4", "3", "--depth", "12",
                   "--out", str(out_run)) == 0
    out_bound = tmp_path / "bound"
    code = run_cli(
        "bound", "--regular", "4", "3", "--trace", str(out_run / "trace.csv"),
        "--epsilon-bars", "0.1", "--draws", "10", "--out", str(out_bound),
    )
    assert code == 0
    row = (out_bound / "bound.csv").read_text().splitlines()[1].split(",")
    assert row[4] == "10"


def test_bound_trace_takes_delta_t_from_its_run(tmp_path, capsys):
    out_run = tmp_path / "run"
    assert run_cli("run", "--regular", "4", "3", "--depth", "12", "--delta-t", "0.1",
                   "--out", str(out_run)) == 0
    summary = json.loads((out_run / "summary.json").read_text())
    trace = out_run / "trace.csv"
    bound = ("bound", "--regular", "4", "3", "--epsilon-bars", "0.1", "--draws", "2")
    out = tmp_path / "bound"
    assert run_cli(*bound, "--trace", str(trace), "--out", str(out)) == 0
    row = (out / "bound.csv").read_text().splitlines()[1].split(",")
    assert float(row[1]) == summary["l_value"]
    # the run's summary alone gives delta_t, so a flag for it is refused, also
    # one that agrees with the run's
    bad = tmp_path / "bad"
    capsys.readouterr()
    assert run_cli(*bound, "--trace", str(trace), "--delta-t", "0.1",
                   "--out", str(out)) == 2
    assert "--delta-t does not apply with --trace" in capsys.readouterr().err
    assert run_cli(*bound, "--trace", str(trace), "--delta-t", "0.05",
                   "--out", str(bad)) == 2
    # without a readable summary.json beside the trace, the run's instance and
    # delta_t are unknown; the error names the file
    lone = tmp_path / "lone" / "trace.csv"
    lone.parent.mkdir()
    lone.write_bytes(trace.read_bytes())
    lone_summary = lone.with_name("summary.json")
    for make in (lambda: None, lambda: lone_summary.write_text("{oops"),
                 lambda: (lone_summary.unlink(), lone_summary.mkdir())):
        make()
        capsys.readouterr()
        assert run_cli(*bound, "--trace", str(lone), "--out", str(bad)) == 2
        assert str(lone_summary) in capsys.readouterr().err
    lone_summary.rmdir()
    # a recorded time step that is not a positive finite real, a string
    # among them, is refused with the file's name
    for bad_dt in (0, -0.05, "0.05", True):
        lone_summary.write_text(json.dumps({**summary, "delta_t": bad_dt}))
        capsys.readouterr()
        assert run_cli(*bound, "--trace", str(lone), "--out", str(bad)) == 2
        assert f"delta_t in {lone_summary}" in capsys.readouterr().err
    # a summary without the instance digest cannot name its instance
    del summary["graph"]["edges_sha256"]
    lone_summary.write_text(json.dumps(summary))
    capsys.readouterr()
    assert run_cli(*bound, "--trace", str(lone), "--out", str(bad)) == 2
    assert "graph.edges_sha256 is missing" in capsys.readouterr().err
    # a trace from another instance is refused: another size, the same size
    # with another weight, or another graph of the same family and size
    assert run_cli("bound", "--regular", "6", "3", "--epsilon-bars", "0.1", "--draws", "2",
                   "--trace", str(trace), "--out", str(bad)) == 2
    heavy = tmp_path / "heavy.edges"
    heavy.write_text("nodes 4\n0 1 2\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    assert run_cli("bound", "--graph", str(heavy), "--epsilon-bars", "0.1", "--draws", "2",
                   "--trace", str(trace), "--out", str(bad)) == 2
    seed1 = tmp_path / "seed1"
    assert run_cli("run", "--regular", "8", "3", "--graph-seed", "1", "--depth", "30",
                   "--out", str(seed1)) == 0
    capsys.readouterr()
    assert run_cli("bound", "--regular", "8", "3", "--graph-seed", "2", "--epsilon-bars",
                   "0.1", "--draws", "5", "--trace", str(seed1 / "trace.csv"),
                   "--out", str(bad)) == 2
    assert "records a run on another instance" in capsys.readouterr().err
    # the instance is its edge list, whichever source gave it: a file that
    # graph wrote names the instance that its generator arguments name
    seed42, edges = tmp_path / "seed42", tmp_path / "g42.edges"
    assert run_cli("run", "--regular", "8", "3", "--graph-seed", "42", "--depth", "5",
                   "--out", str(seed42)) == 0
    assert run_cli("graph", "--regular", "8", "3", "--graph-seed", "42",
                   "--out", str(edges)) == 0
    assert run_cli("bound", "--graph", str(edges), "--epsilon-bars", "0.1", "--draws", "2",
                   "--trace", str(seed42 / "trace.csv"), "--out", str(tmp_path / "g42")) == 0
    # the trace fixes depth, lambda and w, so flags for them are refused, while
    # config entries for them and for delta_t stay legal and have no effect: a
    # config is shared between commands
    for flag, value in (("--depth", "5"), ("--lambda", "3"), ("--w", "2")):
        capsys.readouterr()
        assert run_cli(*bound, "--trace", str(trace), flag, value, "--out", str(bad)) == 2
        assert f"{flag} does not apply with --trace" in capsys.readouterr().err
    capsys.readouterr()
    assert run_cli(*bound, "--trace", str(lone), "--delta-t", "0.1", "--out", str(bad)) == 2
    assert "--delta-t does not apply with --trace" in capsys.readouterr().err
    assert not bad.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta_t": 0.05, "depth": 5, "lambda": 3, "w": 2}))
    shared = tmp_path / "shared"
    assert run_cli(*bound, "--trace", str(trace), "--config", str(cfg),
                   "--out", str(shared)) == 0
    assert (shared / "bound.csv").read_bytes() == (out / "bound.csv").read_bytes()


def test_bound_trace_rejects_non_finite_betas(tmp_path, capsys):
    out_run = tmp_path / "run"
    assert run_cli("run", "--regular", "4", "3", "--depth", "4", "--out", str(out_run)) == 0
    trace = out_run / "trace.csv"
    lines = trace.read_text().splitlines()
    for value in ("nan", "inf", "-inf"):
        cells = lines[2].split(",")
        cells[1] = value
        trace.write_text("\n".join([*lines[:2], ",".join(cells), *lines[3:]]) + "\n")
        out = tmp_path / "bound"
        assert run_cli("bound", "--regular", "4", "3", "--trace", str(trace),
                       "--epsilon-bars", "0.1", "--draws", "2", "--out", str(out)) == 2
        assert "row 3" in capsys.readouterr().err
        assert not out.exists()


def test_bound_trace_refuses_more_rows_than_the_depth_cap(tmp_path, capsys):
    out_run = tmp_path / "run"
    assert run_cli("run", "--regular", "4", "3", "--depth", "4", "--out", str(out_run)) == 0
    trace = out_run / "trace.csv"
    header, row = trace.read_text().splitlines()[:2]
    trace.write_text("\n".join([header, *[row] * 2500]) + "\n")
    out = tmp_path / "bound"
    assert run_cli("bound", "--regular", "4", "3", "--trace", str(trace),
                   "--epsilon-bars", "0.1", "--draws", "2", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert str(trace) in err and "2500 rows" in err and "cap 2000" in err
    assert not out.exists()


def test_bound_flags_vacuous_rows(tmp_path):
    out = tmp_path / "bound"
    # deep circuit: L*eb >> sqrt(2), the quadratic bound dies at 0
    code = run_cli(
        "bound", "--regular", "8", "3", "--graph-seed", "42", "--depth", "300",
        "--epsilon-bars", "0.9", "--draws", "5", "--out", str(out),
    )
    assert code == 0
    row = (out / "bound.csv").read_text().splitlines()[1].split(",")
    assert float(row[2]) == 0.0
    assert row[5] == "true"


@pytest.mark.parametrize("command", ["graph", "run", "sweep", "bound"])
def test_svg_flag_is_refused(tmp_path, command):
    # no subcommand writes plots; asking for one is a usage error
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        run_cli(command, "--regular", "4", "3", "--svg", "--out", str(out))
    assert info.value.code == 2
    assert not out.exists()


def test_no_subcommand_prints_usage():
    assert main([]) == 2


@pytest.mark.parametrize("command", ["graph", "run", "sweep", "bound"])
def test_parser_flags_match_settings_table(command):
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = [flag for action in sub.choices[command]._actions
             for flag in action.option_strings if flag not in ("-h", "--help")]
    assert sorted(flags) == sorted(row.flag for row in SETTINGS if command in row.commands)


def test_settings_rows_name_one_setting_each():
    # _settings maps each config entry to one row, and argparse each flag to one dest
    for names in ([row.key for row in SETTINGS if row.key], [row.dest for row in SETTINGS]):
        assert [n for n, count in Counter(names).items() if count > 1] == []
    for command in ("graph", "run", "sweep", "bound"):
        flags = [row.flag for row in SETTINGS if command in row.commands]
        assert [f for f, count in Counter(flags).items() if count > 1] == [], command


def test_readme_settings_table_matches_settings():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| Flag | Config key | Subcommands | Type | Default |")
    table = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        flag, key, commands = (cell.strip().strip("`") for cell in line.split("|")[1:4])
        for command in (("graph", "run", "sweep", "bound") if commands == "all"
                        else commands.split(", ")):
            table.append((flag.split()[0], key or None, command))
    # compared as multisets: graph's --out has no key, which does not sort against a key
    assert Counter(table) == Counter(
        (row.flag, row.key, command) for row in SETTINGS for command in row.commands
    )


def test_readme_command_line_section_names_only_settings_flags():
    # the prose and examples must not name a flag that no setting has, so a
    # removed row cannot linger there either
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Command line"):text.index("## Edge-list format")]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert named and named <= {row.flag for row in SETTINGS}
