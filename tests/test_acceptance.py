"""End-to-end checks of the library's headline behaviors.

Each test here is one gate. Every gate prints a single PASS/FAIL scoreboard
line that bypasses pytest's capture, so a plain ``pytest -v`` run shows the
verdicts inline next to the usual test report. Budgets are asserted with a
wall clock because the slow paths (full-depth runs, quadratic rebuilds) are
part of the contract, not incidental.
"""
import time

import numpy as np
import pytest

from falqon.analysis import (
    aggregate,
    lipschitz_from_betas,
    replay_fidelity,
    success_probability,
)
from falqon.cli import main as cli_main
from falqon.engine import FeedbackLaw, RunConfig, feedback, layer, run, run_nominal, run_systematic
from falqon.graphs import Graph, max_cut_brute_force, reference_instance
from falqon.hamiltonian import driver_x, ground_energy, maxcut_hamiltonian
from falqon.noise import NoiseModel, trajectory
from falqon.statevector import a_value, uniform_state

from oracles import dense_commutator_expectation, dense_layer_unitary

DELTA_T = 0.05


def _verdict(capsys, label, ok):
    with capsys.disabled():
        print(f"acceptance {label}: {'PASS' if ok else 'FAIL'}")


def _small_instances():
    k2 = Graph.from_edges(2, [(0, 1)])
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    w3 = Graph.from_edges(3, [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0)])
    return [k2, k3, p3, w3]


def test_small_instances_match_dense_oracles(capsys):
    """Layers, A values and ground energies agree with dense linear algebra."""
    ok = False
    t0 = time.perf_counter()
    try:
        rng = np.random.default_rng(1)
        for g in _small_instances():
            n = g.n_nodes
            diag = maxcut_hamiltonian(g)
            driver = driver_x(n)

            best, _ = max_cut_brute_force(g)
            lo, _ = ground_energy(diag)
            assert lo == -best  # integer weights, exact

            state = uniform_state(n)
            dense = state.amplitudes.copy()
            for _ in range(15):
                beta = float(rng.uniform(-1.5, 1.5))
                eps = float(rng.uniform(-0.5, 0.5))
                state = layer(state, beta, DELTA_T, eps, diag, driver)
                u = dense_layer_unitary(diag.diag, driver.terms, n, beta, DELTA_T, eps)
                dense = u @ dense
                np.testing.assert_allclose(state.amplitudes, dense, atol=1e-10, rtol=0.0)
                want_a = dense_commutator_expectation(dense, diag.diag, driver.terms, n)
                assert abs(a_value(state, diag, driver) - want_a) <= 1e-10
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"oracle sweep took {elapsed:.2f}s"
        ok = True
    finally:
        _verdict(capsys, "1 small-instance oracle equivalence", ok)


def test_noiseless_reference_run_converges(capsys):
    """Depth-1000 noiseless run: small final error, high success, monotone cost."""
    ok = False
    try:
        g = reference_instance()
        diag = maxcut_hamiltonian(g)
        _, ground_states = ground_energy(diag)
        cfg = RunConfig(graph=g, delta_t=DELTA_T, depth=1000,
                        law=FeedbackLaw(lam=0.5), noise=NoiseModel("none"))
        t0 = time.perf_counter()
        tr = run_nominal(cfg)
        elapsed = time.perf_counter() - t0

        assert tr.final_cost_error <= 0.05
        assert success_probability(tr.final_state, ground_states) > 0.9
        assert float(np.max(np.diff(tr.costs))) <= 1e-6  # never climbs past tolerance
        assert elapsed < 10.0, f"depth-1000 run took {elapsed:.2f}s"
        ok = True
    finally:
        _verdict(capsys, "2 noiseless convergence on reference instance", ok)


def test_systematic_error_runs_still_converge(capsys):
    """Systematic control error up to 90% leaves depth-1000 convergence intact."""
    ok = False
    try:
        g = reference_instance()
        t0 = time.perf_counter()
        for eb in (0.1, 0.3, 0.5, 0.7, 0.9):
            cfg = RunConfig(graph=g, delta_t=DELTA_T, depth=1000,
                            law=FeedbackLaw(lam=0.5),
                            noise=NoiseModel("systematic", epsilon_bar=eb, seed=0))
            tr = run_systematic(cfg)
            assert tr.final_cost_error <= 0.1, f"eps_bar={eb}: error {tr.final_cost_error}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"systematic sweep took {elapsed:.1f}s"
        ok = True
    finally:
        _verdict(capsys, "3 systematic-error robustness", ok)


def test_regularized_law_beats_standard_under_independent_noise(capsys):
    """Under per-rebuild noise the lam=1.0 law ends lower than lam=0.5.

    50 seeds per law at eps_bar=0.25, depth 200. The separation must exceed
    one pooled standard error of the two sample means.
    """
    ok = False
    try:
        g = reference_instance()
        t0 = time.perf_counter()
        means = {}
        stds = {}
        n_seeds = 50
        for lam in (0.5, 1.0):
            runs = []
            for seed in range(n_seeds):
                cfg = RunConfig(graph=g, delta_t=DELTA_T, depth=200,
                                law=FeedbackLaw(lam=lam),
                                noise=NoiseModel("independent", epsilon_bar=0.25, seed=seed))
                runs.append(run(cfg))
            summary = aggregate(runs)
            means[lam] = summary.mean_final_cost_error
            stds[lam] = summary.std_final_cost_error
        elapsed = time.perf_counter() - t0

        pooled_se = float(np.hypot(stds[0.5], stds[1.0])) / np.sqrt(n_seeds)
        assert means[1.0] < means[0.5]
        assert means[0.5] - means[1.0] >= pooled_se
        assert elapsed < 600.0, f"independent-noise comparison took {elapsed:.0f}s"
        ok = True
    finally:
        _verdict(capsys, "4 regularized law beats standard under independent noise", ok)


def test_replay_fidelity_never_below_quadratic_bound(capsys):
    """Monte-Carlo draws never dip under 1 - (L*eps_bar)^2/2 on a depth-50 trace."""
    ok = False
    try:
        g = reference_instance()
        diag = maxcut_hamiltonian(g)
        driver = driver_x(g.n_nodes)
        t0 = time.perf_counter()
        cfg = RunConfig(graph=g, delta_t=DELTA_T, depth=50,
                        law=FeedbackLaw(lam=0.5), noise=NoiseModel("none"))
        tr = run_nominal(cfg)
        _, l_value = lipschitz_from_betas(tr.betas, DELTA_T, diag, driver)

        for eb in (0.01, 0.05, 0.1):
            bound = max(0.0, 1.0 - 0.5 * (l_value * eb) ** 2)
            model = NoiseModel("independent", epsilon_bar=eb, seed=7)
            for draw in range(100):
                eps = trajectory(model, tr.depth, rebuild_index=draw + 1)
                fid = replay_fidelity(tr.betas, eps, DELTA_T, diag, driver)
                assert fid >= bound, f"eps_bar={eb} draw={draw}: {fid} < {bound}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"bound check took {elapsed:.1f}s"
        ok = True
    finally:
        _verdict(capsys, "5 fidelity bound never violated", ok)


def test_feedback_law_identities(capsys):
    """lam=1/2 with unit gain inverts A exactly; zero maps to zero; sign flips."""
    ok = False
    try:
        standard = FeedbackLaw(lam=0.5, gain=1.0)
        rng = np.random.default_rng(6)
        for _ in range(1000):
            a = float(rng.uniform(-20.0, 20.0))
            assert feedback(a, standard) == -a
        for law in (standard, FeedbackLaw(lam=1.0), FeedbackLaw(lam=0.25, gain=2.0)):
            assert feedback(0.0, law) == 0.0
        for _ in range(1000):
            a = float(rng.uniform(-20.0, 20.0))
            lam = float(rng.uniform(0.05, 4.0))
            gain = float(rng.uniform(0.05, 4.0))
            b = feedback(a, FeedbackLaw(lam=lam, gain=gain))
            assert np.sign(b) == -np.sign(a)
        ok = True
    finally:
        _verdict(capsys, "6 feedback-law identities", ok)


def test_noise_contracts_and_run_determinism(capsys, tmp_path):
    """Prefix-consistent systematic draws, bounded independent draws, stable files."""
    ok = False
    try:
        systematic = NoiseModel("systematic", epsilon_bar=0.5, seed=3)
        full = trajectory(systematic, 64)
        for depth in (1, 5, 17, 64):
            for rebuild in (1, 2, 9):
                got = trajectory(systematic, depth, rebuild_index=rebuild)
                np.testing.assert_array_equal(got, full[:depth])

        independent = NoiseModel("independent", epsilon_bar=0.25, seed=11)
        samples = trajectory(independent, 10 ** 5)
        assert float(np.max(np.abs(samples))) <= 0.25
        assert abs(float(np.mean(samples))) < 0.01

        run_args = [
            "run", "--regular", "8", "3", "--graph-seed", "42", "--depth", "60",
            "--noise", "systematic", "--epsilon-bar", "0.3", "--seed", "5",
        ]
        sweep_args = [
            "sweep", "--regular", "8", "3", "--graph-seed", "42", "--depth", "30",
            "--noise", "independent", "--epsilon-bars", "0.25",
            "--lambdas", "0.5,1.0", "--seeds", "0:3",
        ]
        for args, names in (
            (run_args, ["trace.csv", "summary.json"]),
            (sweep_args, ["aggregate.csv", "cell_eps0.25_lam0.5.csv", "cell_eps0.25_lam1.csv"]),
        ):
            first = tmp_path / (args[0] + "_a")
            second = tmp_path / (args[0] + "_b")
            assert cli_main(args + ["--out", str(first)]) == 0
            assert cli_main(args + ["--out", str(second)]) == 0
            for name in names:
                assert (first / name).read_bytes() == (second / name).read_bytes()
        ok = True
    finally:
        _verdict(capsys, "7 noise contracts and byte-stable outputs", ok)


def test_incremental_matches_explicit_rebuilds(capsys):
    """Growing one systematic circuit equals rebuilding it from scratch each step."""
    ok = False
    try:
        for g in (Graph.from_edges(2, [(0, 1)]), reference_instance()):
            depth = 20
            noise = NoiseModel("systematic", epsilon_bar=0.4, seed=9)
            cfg = RunConfig(graph=g, delta_t=DELTA_T, depth=depth,
                            law=FeedbackLaw(lam=0.5), noise=noise)
            tr = run_systematic(cfg)

            diag = maxcut_hamiltonian(g)
            driver = driver_x(g.n_nodes)
            law = FeedbackLaw(lam=0.5)
            eps = trajectory(noise, depth)
            betas = [0.0]
            state = None
            for t in range(1, depth + 1):
                state = uniform_state(g.n_nodes)
                for k in range(t):
                    state = layer(state, betas[k], DELTA_T, float(eps[k]), diag, driver)
                if t < depth:
                    betas.append(feedback(a_value(state, diag, driver), law))

            np.testing.assert_allclose(tr.betas, betas, atol=1e-12, rtol=0.0)
            np.testing.assert_allclose(tr.final_state.amplitudes, state.amplitudes,
                                       atol=1e-12, rtol=0.0)
        ok = True
    finally:
        _verdict(capsys, "8 incremental equals explicit rebuild", ok)
