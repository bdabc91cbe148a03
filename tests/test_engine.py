import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import falqon.engine as engine
from falqon import statevector
from falqon.engine import (
    FeedbackLaw,
    RunConfig,
    feedback,
    layer,
    replay,
    run,
    run_cell,
    run_independent,
    run_nominal,
    run_systematic,
)
from falqon.graphs import Graph, reference_instance
from falqon.hamiltonian import DiagonalHamiltonian, driver_x, maxcut_hamiltonian
from falqon.noise import NoiseKind, NoiseModel, trajectory
from falqon.statevector import StateVector, a_value, expectation_diagonal, uniform_state

from oracles import dense_layer_unitary, random_unit_state, weighted_graphs

K2 = Graph.from_edges(2, [(0, 1)])


def test_feedback_identities():
    assert feedback(0.3, FeedbackLaw(lam=0.5, gain=1.0)) == -0.3
    assert feedback(0.0, FeedbackLaw()) == 0.0
    assert feedback(0.3, FeedbackLaw(lam=1.0, gain=1.0)) == -0.15
    assert feedback(-0.4, FeedbackLaw(lam=2.0, gain=3.0)) == pytest.approx(0.3)


def test_feedback_opposes_measurement_sign():
    rng = np.random.default_rng(20)
    for _ in range(1000):
        a = rng.uniform(-5, 5)
        law = FeedbackLaw(lam=rng.uniform(0.1, 3), gain=rng.uniform(0.1, 3))
        b = feedback(a, law)
        assert np.sign(b) == -np.sign(a)


def test_feedback_law_validation():
    with pytest.raises(ValueError):
        FeedbackLaw(lam=0.0)
    with pytest.raises(ValueError):
        FeedbackLaw(gain=-1.0)


def test_layer_matches_dense_unitary():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3):
        diag_arr = rng.normal(size=1 << n)
        diag = DiagonalHamiltonian(n, diag_arr)
        driver = driver_x(n)
        for _ in range(6):
            state = StateVector(n, random_unit_state(rng, n))
            beta = rng.uniform(-1.5, 1.5)
            eps = rng.uniform(-0.8, 0.8)
            u = dense_layer_unitary(diag_arr, driver.terms, n, beta, 0.05, eps)
            out = layer(state, beta, 0.05, eps, diag, driver)
            np.testing.assert_allclose(out.amplitudes, u @ state.amplitudes, atol=1e-10)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(1, 5), beta=st.floats(-3.0, 3.0),
       eps=st.floats(-0.9, 0.9), seed=st.integers(0, 2 ** 32 - 1))
def test_layer_property_against_dense_unitary(n, beta, eps, seed):
    # random diagonals, controls of either sign; the layer is unitary
    driver = driver_x(n)
    rng = np.random.default_rng(seed)
    diag_arr = rng.normal(size=1 << n)
    state = StateVector(n, random_unit_state(rng, n))
    u = dense_layer_unitary(diag_arr, driver.terms, n, beta, 0.05, eps)
    out = layer(state, beta, 0.05, eps, DiagonalHamiltonian(n, diag_arr), driver)
    np.testing.assert_allclose(out.amplitudes, u @ state.amplitudes, atol=1e-10)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-13


def test_layer_error_is_time_rescaling():
    # a layer with error eps equals a clean layer run for (1+eps)*delta_t
    diag = maxcut_hamiltonian(K2)
    driver = driver_x(2)
    state = uniform_state(2)
    for eps in (-0.5, 0.25, 0.9):
        noisy = layer(state, 0.3, 0.05, eps, diag, driver)
        clean = layer(state, 0.3, (1 + eps) * 0.05, 0.0, diag, driver)
        np.testing.assert_allclose(noisy.amplitudes, clean.amplitudes, atol=1e-14)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(graph=weighted_graphs(), depth=st.integers(1, 40), epsilon_bar=st.floats(0.0, 0.9),
       seed=st.integers(0, 2**32), lam=st.floats(0.05, 20.0), delta_t=st.floats(0.01, 0.5))
@example(graph=reference_instance(), depth=300, epsilon_bar=0.5, seed=0, lam=0.5, delta_t=0.05)
@example(graph=reference_instance(), depth=300, epsilon_bar=0.9, seed=2, lam=1.0, delta_t=0.05)
def test_systematic_run_is_a_noiseless_run_with_variable_steps(graph, depth, epsilon_bar,
                                                               seed, lam, delta_t):
    # the feedback law does not read the step, so a systematic run is the
    # noiseless loop with step (1 + eps_t) * delta_t at layer t, bit for bit
    law = FeedbackLaw(lam=lam)
    noise = NoiseModel(NoiseKind.SYSTEMATIC, epsilon_bar, seed)
    trace = run(RunConfig(graph, delta_t, depth, law, noise))
    diag, driver = maxcut_hamiltonian(graph), driver_x(graph.n_nodes)
    state, beta, betas, costs = uniform_state(graph.n_nodes), 0.0, [], []
    for eps in trajectory(noise, depth):
        betas.append(beta)
        state = layer(state, beta, (1.0 + float(eps)) * delta_t, 0.0, diag, driver)
        costs.append(expectation_diagonal(state, diag))
        beta = feedback(a_value(state, diag, driver), law)
    for got, want in ((trace.betas, np.array(betas)), (trace.costs, np.array(costs)),
                      (trace.final_state.amplitudes, state.amplitudes)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_layer_rejects_total_detuning():
    diag = maxcut_hamiltonian(K2)
    with pytest.raises(ValueError):
        layer(uniform_state(2), 0.1, 0.05, 1.0, diag, driver_x(2))


def test_run_nominal_trace_contract():
    trace = run_nominal(RunConfig(K2, 0.05, 50))
    assert trace.depth == 50
    assert trace.betas[0] == 0.0
    assert trace.betas.shape == trace.a_values.shape == trace.costs.shape
    np.testing.assert_array_equal(trace.epsilons, np.zeros(50))
    assert trace.ground_energy == -1.0
    # beta_{t+1} = -A_t exactly at lam = 1/2, gain 1
    np.testing.assert_array_equal(trace.betas[1:], -trace.a_values[:-1])


def test_run_nominal_converges_on_k2():
    trace = run_nominal(RunConfig(K2, 0.05, 200))
    assert trace.final_cost_error < 0.01
    rises = np.diff(trace.costs)
    assert np.all(rises <= 1e-6)


def test_run_nominal_constant_cost_is_a_fixed_point():
    # no edges: H_p = 0, so A stays 0 and beta stays 0
    g = Graph(3)
    trace = run_nominal(RunConfig(g, 0.05, 10))
    np.testing.assert_array_equal(trace.betas, np.zeros(10))
    np.testing.assert_array_equal(trace.a_values, np.zeros(10))
    np.testing.assert_array_equal(trace.costs, np.zeros(10))


def test_noise_free_descent_on_reference_instance():
    trace = run_nominal(RunConfig(reference_instance(), 0.05, 300))
    rises = np.diff(trace.costs)
    assert np.all(rises <= 1e-6)
    assert trace.costs[-1] < trace.costs[0]


def test_run_systematic_zero_magnitude_equals_nominal():
    noisy_cfg = RunConfig(K2, 0.05, 40, noise=NoiseModel(NoiseKind.SYSTEMATIC, 0.0, 3))
    clean_cfg = RunConfig(K2, 0.05, 40)
    noisy = run_systematic(noisy_cfg)
    clean = run_nominal(clean_cfg)
    np.testing.assert_array_equal(noisy.betas, clean.betas)
    np.testing.assert_array_equal(noisy.costs, clean.costs)
    np.testing.assert_array_equal(
        noisy.final_state.amplitudes, clean.final_state.amplitudes
    )


def test_run_systematic_uses_master_sequence():
    config = RunConfig(K2, 0.05, 25, noise=NoiseModel(NoiseKind.SYSTEMATIC, 0.4, 11))
    trace = run_systematic(config)
    np.testing.assert_array_equal(
        trace.epsilons, trajectory(config.noise, 25, rebuild_index=1)
    )


def _explicit_rebuild(config):
    """Reference loop: rebuild the circuit from scratch at every step."""
    diag = maxcut_hamiltonian(config.graph)
    driver = driver_x(config.graph.n_nodes)
    from falqon.statevector import a_value, expectation_diagonal

    depth = config.depth
    betas = np.zeros(depth)
    a_values = np.zeros(depth)
    costs = np.zeros(depth)
    beta = 0.0
    state = None
    for t in range(depth):
        betas[t] = beta
        eps = trajectory(config.noise, t + 1, rebuild_index=t + 1)
        state = uniform_state(config.graph.n_nodes)
        for tau in range(t + 1):
            state = layer(state, betas[tau], config.delta_t, eps[tau], diag, driver)
        a_values[t] = a_value(state, diag, driver)
        costs[t] = expectation_diagonal(state, diag)
        beta = feedback(a_values[t], config.law)
    return betas, a_values, costs, state


def test_systematic_incremental_equals_explicit_rebuilds():
    # prefix consistency must make the incremental shortcut exact
    for graph, depth in ((K2, 20), (reference_instance(), 12)):
        config = RunConfig(
            graph, 0.05, depth, noise=NoiseModel(NoiseKind.SYSTEMATIC, 0.5, 7)
        )
        fast = run_systematic(config)
        betas, _, _, state = _explicit_rebuild(config)
        np.testing.assert_allclose(fast.betas, betas, atol=1e-12, rtol=0)
        np.testing.assert_allclose(
            fast.final_state.amplitudes, state.amplitudes, atol=1e-12, rtol=0
        )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(graph=weighted_graphs(max_nodes=5), depth=st.integers(1, 8),
       kind=st.sampled_from([NoiseKind.SYSTEMATIC, NoiseKind.INDEPENDENT]),
       epsilon_bar=st.floats(0.0, 0.9), seed=st.integers(-(2**63), 2**63 - 1),
       lam=st.floats(0.05, 20.0))
def test_run_matches_explicit_rebuilds(graph, depth, kind, epsilon_bar, seed, lam):
    # one loop serves both kinds: incremental steps for systematic errors,
    # a replay per step for independent ones; both must equal full rebuilds
    config = RunConfig(graph, 0.05, depth, FeedbackLaw(lam=lam),
                       NoiseModel(kind, epsilon_bar, seed))
    trace = run(config)
    betas, a_values, costs, state = _explicit_rebuild(config)
    for got, want in ((trace.betas, betas), (trace.a_values, a_values),
                      (trace.costs, costs),
                      (trace.final_state.amplitudes, state.amplitudes)):
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(graph=weighted_graphs(), depth=st.integers(1, 10), kind=st.sampled_from(NoiseKind),
       epsilon_bar=st.floats(0.0, 0.9), seed=st.integers(0, 2**32),
       delta_t=st.floats(0.01, 0.5))
@example(graph=Graph(1), depth=5, kind=NoiseKind.SYSTEMATIC, epsilon_bar=0.5, seed=1,
         delta_t=0.3)
@example(graph=Graph.from_edges(2, [(0, 1, -1.5)]), depth=6, kind=NoiseKind.INDEPENDENT,
         epsilon_bar=0.5, seed=2, delta_t=0.3)
def test_half_register_run_is_bit_identical_to_full(graph, depth, kind, epsilon_bar, seed,
                                                    delta_t):
    # the run's block holds half rows under the MaxCut diagonal; the rebuild
    # loop of per-state calls takes full rows, and every bit agrees
    config = RunConfig(graph, delta_t, depth, noise=NoiseModel(kind, epsilon_bar, seed))
    assert maxcut_hamiltonian(graph).complement_invariant
    half = run(config)
    betas, a_values, costs, state = _explicit_rebuild(config)
    for got, want in ((half.betas, betas), (half.a_values, a_values), (half.costs, costs),
                      (half.final_state.amplitudes, state.amplitudes)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_run_independent_zero_magnitude_equals_nominal():
    noisy = run_independent(
        RunConfig(K2, 0.05, 30, noise=NoiseModel(NoiseKind.INDEPENDENT, 0.0, 5))
    )
    clean = run_nominal(RunConfig(K2, 0.05, 30))
    np.testing.assert_array_equal(noisy.betas, clean.betas)
    np.testing.assert_array_equal(noisy.a_values, clean.a_values)
    np.testing.assert_array_equal(
        noisy.final_state.amplitudes, clean.final_state.amplitudes
    )


def test_run_independent_is_deterministic():
    config = RunConfig(K2, 0.05, 15, noise=NoiseModel(NoiseKind.INDEPENDENT, 0.3, 8))
    t1 = run_independent(config)
    t2 = run_independent(config)
    np.testing.assert_array_equal(t1.betas, t2.betas)
    np.testing.assert_array_equal(t1.costs, t2.costs)


def test_run_independent_rebuild_count(monkeypatch):
    # every row-layer the engine makes goes through `layer_rows`
    calls = {"n": 0}
    kernel = engine.layer_rows

    def counting_layer(rows, diag, scales, angles, *plan):
        calls["n"] += np.size(scales)
        kernel(rows, diag, scales, angles, *plan)

    monkeypatch.setattr(engine, "layer_rows", counting_layer)
    depth = 6
    run_independent(
        RunConfig(K2, 0.05, depth, noise=NoiseModel(NoiseKind.INDEPENDENT, 0.2, 1))
    )
    assert calls["n"] == depth * (depth + 1) // 2


@pytest.mark.parametrize("kind", [NoiseKind.NONE, NoiseKind.SYSTEMATIC])
def test_prefix_consistent_cells_advance_as_one_block(monkeypatch, kind):
    # a nominal or systematic cell of k rows and depth d makes d kernel
    # calls of k row-layers each: its rows advance as one block
    sizes = []
    kernel = engine.layer_rows

    def counting_layer(rows, diag, scales, angles, *plan):
        sizes.append(np.size(scales))
        kernel(rows, diag, scales, angles, *plan)

    monkeypatch.setattr(engine, "layer_rows", counting_layer)
    depth, eb = 6, 0.3 if kind is NoiseKind.SYSTEMATIC else 0.0
    run_cell([RunConfig(K2, 0.05, depth, FeedbackLaw(lam), NoiseModel(kind, eb, seed))
              for lam, seed in ((0.5, 1), (1.0, 2), (2.0, 3))])
    assert sizes == [3] * depth


def test_run_independent_records_last_rebuild_errors():
    config = RunConfig(K2, 0.05, 9, noise=NoiseModel(NoiseKind.INDEPENDENT, 0.3, 2))
    trace = run_independent(config)
    np.testing.assert_array_equal(
        trace.epsilons, trajectory(config.noise, 9, rebuild_index=9)
    )


def test_run_dispatch_matches_kind():
    nominal = RunConfig(K2, 0.05, 5)
    assert run(nominal).depth == 5
    np.testing.assert_array_equal(run(nominal).costs, run_nominal(nominal).costs)
    sys_cfg = RunConfig(K2, 0.05, 5, noise=NoiseModel(NoiseKind.SYSTEMATIC, 0.1, 0))
    np.testing.assert_array_equal(
        run(sys_cfg).betas, run_systematic(sys_cfg).betas
    )
    ind_cfg = RunConfig(K2, 0.05, 5, noise=NoiseModel(NoiseKind.INDEPENDENT, 0.1, 0))
    np.testing.assert_array_equal(
        run(ind_cfg).betas, run_independent(ind_cfg).betas
    )


def test_run_mode_rejects_wrong_kind():
    with pytest.raises(ValueError):
        run_nominal(RunConfig(K2, 0.05, 5, noise=NoiseModel(NoiseKind.SYSTEMATIC, 0.1, 0)))
    with pytest.raises(ValueError):
        run_systematic(RunConfig(K2, 0.05, 5))
    with pytest.raises(ValueError):
        run_independent(RunConfig(K2, 0.05, 5))


def test_settings_refuse_booleans_and_strings():
    # True is not 1 and "5" is not 5: each is refused with the setting's name
    cases = [
        ("delta_t", lambda: RunConfig(K2, True, 5)),
        ("depth", lambda: RunConfig(K2, 0.05, "5")),
        ("depth", lambda: RunConfig(K2, 0.05, True)),
        ("lam", lambda: FeedbackLaw(lam=True)),
        ("gain", lambda: FeedbackLaw(gain=True)),
        ("epsilon_bar", lambda: NoiseModel("none", True)),
        ("epsilon_bar", lambda: NoiseModel("none", False)),
        ("epsilon_bar", lambda: NoiseModel("systematic", "0.1")),
        ("depth", lambda: trajectory(NoiseModel(), True)),
        ("depth", lambda: trajectory(NoiseModel(), "3")),
        ("rebuild_index", lambda: trajectory(NoiseModel(), 3, rebuild_index=True)),
    ]
    for name, make in cases:
        with pytest.raises(ValueError, match=name):
            make()
    # numpy scalars, ints and integral floats keep passing
    config = RunConfig(K2, np.float64(0.05), 5.0, FeedbackLaw(np.float32(0.5), 2),
                       NoiseModel("systematic", np.float64(0.1)))
    assert config.depth == 5
    assert trajectory(config.noise, np.int64(3), 2.0).shape == (3,)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(K2, 0.0, 10)
    with pytest.raises(ValueError):
        RunConfig(K2, 0.05, 0)
    for depth in (2.7, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            RunConfig(K2, 0.05, depth)
    assert RunConfig(K2, 0.05, 3.0).depth == 3  # integral floats stay legal
    with pytest.raises(ValueError):
        RunConfig(K2, 0.05, 2001)
    with pytest.raises(ValueError):
        RunConfig(K2, 0.05, 501, noise=NoiseModel(NoiseKind.INDEPENDENT, 0.1, 0))
    with pytest.raises(ValueError):
        RunConfig(Graph(13), 0.05, 10)
    # the systematic/none cap is looser
    RunConfig(K2, 0.05, 2000)
    # a field of the wrong type is refused by name, not met as an
    # AttributeError inside the run
    for kwargs, name in (({"law": None}, "law"), ({"noise": None}, "noise"),
                         ({"law": 0.5}, "law"), ({"noise": NoiseKind.SYSTEMATIC}, "noise")):
        with pytest.raises(ValueError, match=f"^{name} must be a "):
            RunConfig(K2, 0.05, 3, **kwargs)
    with pytest.raises(ValueError, match="^law must be a FeedbackLaw"):
        RunConfig(K2, 0.05, 3, None)
    with pytest.raises(ValueError, match="^graph must be a Graph"):
        RunConfig("K2", 0.05, 3)


#: Every entry point that takes a register width, as a function of the width
#: that returns the width it stored. A Graph refuses a non-integer or zero
#: node count before maxcut_hamiltonian or RunConfig reads it.
WIDTH_ENTRY_POINTS = {
    "StateVector": lambda n: StateVector(n, np.full(8, 8 ** -0.5)).n_qubits,
    "uniform_state": lambda n: uniform_state(n).n_qubits,
    "DiagonalHamiltonian": lambda n: DiagonalHamiltonian(n, np.zeros(8)).n_qubits,
    "DriverHamiltonian": lambda n: driver_x(n).n_qubits,
    "maxcut_hamiltonian": lambda n: maxcut_hamiltonian(Graph(n)).n_qubits,
    "RunConfig": lambda n: run(RunConfig(Graph(n), 0.05, 1)).final_state.n_qubits,
}


@pytest.mark.parametrize("entry", sorted(WIDTH_ENTRY_POINTS))
def test_register_width_is_one_integer_check(entry):
    make = WIDTH_ENTRY_POINTS[entry]
    for bad in (True, 2.0, 2.5, 0, 13):
        with pytest.raises(ValueError, match=rf"(?<![\d.]){re.escape(repr(bad))}(?![\d.])"):
            make(bad)
    width = make(np.int64(3))
    assert width == 3 and type(width) is int
    # the cost diagonal is refused before its 2^n entries are allocated
    with pytest.raises(ValueError, match="got 40"):
        maxcut_hamiltonian(Graph(40))


def test_replay_reproduces_closed_loop_states():
    config = RunConfig(K2, 0.05, 30, noise=NoiseModel(NoiseKind.SYSTEMATIC, 0.4, 4))
    trace = run_systematic(config)
    diag = maxcut_hamiltonian(K2)
    state = replay(trace.betas, trace.epsilons, 0.05, diag, driver_x(2))
    np.testing.assert_allclose(
        state.amplitudes, trace.final_state.amplitudes, atol=1e-13, rtol=0
    )


def test_replay_validates_lengths():
    diag = maxcut_hamiltonian(K2)
    with pytest.raises(ValueError):
        replay(np.zeros(3), np.zeros(4), 0.05, diag, driver_x(2))


REF8 = reference_instance()
KINDS = [NoiseModel(), NoiseModel("systematic", 0.3, 1), NoiseModel("independent", 0.3, 1)]


@pytest.mark.parametrize("noise", KINDS, ids=lambda noise: noise.kind.value)
def test_cell_loop_stays_inside_its_block(monkeypatch, noise):
    # every kind brings its rows to step t with one kernel call on the cell's
    # own block, never through `replay`, and wraps its states once, at the end
    spies = {name: mock.Mock(wraps=getattr(engine, name)) for name in ("layer_rows", "_states")}
    for name, spy in spies.items():
        monkeypatch.setattr(engine, name, spy)
    monkeypatch.setattr(engine, "replay", mock.Mock(side_effect=AssertionError("replay called")))
    depth = 5
    rows = [NoiseModel(noise.kind, noise.epsilon_bar, seed) for seed in range(3)]
    assert len(run_cell([RunConfig(REF8, 0.05, depth, noise=row) for row in rows])) == 3
    assert {name: spy.call_count for name, spy in spies.items()} == {"layer_rows": depth,
                                                                      "_states": 1}


def test_engine_states_skip_the_constructor_checks(monkeypatch):
    # kernel results are wrapped unchecked; the constructor runs for caller states only
    calls = {"n": 0}
    post_init = StateVector.__post_init__

    def counting(self):
        calls["n"] += 1
        post_init(self)

    monkeypatch.setattr(StateVector, "__post_init__", counting)
    diag, driver = maxcut_hamiltonian(REF8), driver_x(8)
    for noise in KINDS:
        trace = run(RunConfig(REF8, 0.05, 12, noise=noise))
    replay(trace.betas, trace.epsilons, 0.05, diag, driver)
    assert calls["n"] == 0
    StateVector(8, trace.final_state.amplitudes)
    assert calls["n"] == 1


def test_norm_drift_is_caught_where_states_leave_the_engine(monkeypatch):
    # a layer that scales its rows by 1 + 1e-8 goes unseen inside the
    # loop, and is refused when run or replay hands the state out
    kernel = engine.layer_rows

    def drifting(rows, *args):
        kernel(rows, *args)
        rows *= 1 + 1e-8

    monkeypatch.setattr(engine, "layer_rows", drifting)
    diag, driver = maxcut_hamiltonian(REF8), driver_x(8)
    with pytest.raises(ValueError, match="not a unit state"):
        replay(np.full(3, 0.2), np.zeros(3), 0.05, diag, driver)
    for noise in KINDS:
        with pytest.raises(ValueError, match="not a unit state"):
            run(RunConfig(REF8, 0.05, 12, noise=noise))


def test_layer_and_replay_refuse_non_finite_inputs():
    diag, driver = maxcut_hamiltonian(REF8), driver_x(8)
    assert diag.peak > 1.0
    for beta in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="rotation angle must be finite, got"):
            layer(uniform_state(8), beta, 0.05, 0.0, diag, driver)
        with pytest.raises(ValueError, match="rotation angle must be finite, got"):
            replay([0.1, beta], [0.0, 0.0], 0.05, diag, driver)
    # a finite step whose largest phase, |scale| * peak, overflows
    with pytest.raises(ValueError, match="phase scale 1e[+]308 gives a non-finite phase"):
        layer(uniform_state(8), 0.1, 1e308, 0.0, diag, driver)
    with pytest.raises(ValueError, match="phase scale 1e[+]308 gives a non-finite phase"):
        replay([0.1], [0.0], 1e308, diag, driver)


def _assert_same_run(got, want):
    for a, b in ((got.betas, want.betas), (got.a_values, want.a_values),
                 (got.costs, want.costs), (got.epsilons, want.epsilons),
                 (got.final_state.amplitudes, want.final_state.amplitudes)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(graph=st.one_of(weighted_graphs(max_nodes=5), st.just(REF8)), depth=st.integers(1, 6),
       kind=st.sampled_from(NoiseKind),
       epsilon_bars=st.lists(st.floats(0.0, 0.9), min_size=4, max_size=4),
       seeds=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=4, unique=True),
       lams=st.lists(st.floats(0.05, 20.0), min_size=4, max_size=4), data=st.data())
@example(graph=REF8, depth=5, kind=NoiseKind.INDEPENDENT, epsilon_bars=[0.25, 0.25, 0.5, 0.5],
         seeds=[0, 1, 2], lams=[0.5, 1.0, 0.5, 1.0], data=None)
def test_cell_rows_do_not_depend_on_batch_size(graph, depth, kind, epsilon_bars, seeds, lams,
                                              data):
    # every row of a cell is its own run bit for bit, and the rebuild loop
    # of that run (`_explicit_rebuild`, per state from the uniform state)
    # too, whichever seeds share the cell and in whatever order; rows differ
    # in law and error bound as well, as in a sweep block that cuts cells
    configs = [RunConfig(graph, 0.05, depth, FeedbackLaw(lam), NoiseModel(kind, eb, seed))
               for seed, lam, eb in zip(seeds, lams, epsilon_bars)]
    singles = [run(config) for config in configs]
    for config, single in zip(configs, singles):
        betas, a_values, costs, state = _explicit_rebuild(config)
        for got, want in ((single.betas, betas), (single.a_values, a_values),
                          (single.costs, costs), (single.final_state.amplitudes, state.amplitudes)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for got, want in zip(run_cell(configs), singles):
        _assert_same_run(got, want)
    if data is not None:
        order = data.draw(st.permutations(range(len(configs))))[:data.draw(
            st.integers(1, len(configs)))]
        for got, i in zip(run_cell(configs[i] for i in order), order):
            _assert_same_run(got, singles[i])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(graph=weighted_graphs(max_nodes=5), n_rows=st.integers(1, 4), depth=st.integers(0, 6),
       per_row_betas=st.booleans(), invariant=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_replay_rows_equal_single_replays(graph, n_rows, depth, per_row_betas,
                                                  invariant, seed):
    # half rows under a MaxCut diagonal, full rows under a caller's diagonal
    # that complementing the index does not leave alone; a one-row stack too
    rng = np.random.default_rng(seed)
    n = graph.n_nodes
    diag = (maxcut_hamiltonian(graph) if invariant
            else DiagonalHamiltonian(n, np.arange(1 << n) + rng.uniform(-0.5, 0.5, 1 << n)))
    assert diag.complement_invariant == invariant
    driver = driver_x(n)
    eps = rng.uniform(-0.9, 0.9, (n_rows, depth))
    betas = rng.uniform(-3.0, 3.0, (n_rows, depth) if per_row_betas else depth)
    states = replay(betas, eps, 0.07, diag, driver)
    assert isinstance(states, list) and len(states) == n_rows
    for r, state in enumerate(states):
        single = replay(betas[r] if per_row_betas else betas, eps[r], 0.07, diag, driver)
        assert np.array_equal(state.amplitudes.view(np.uint64),
                              single.amplitudes.view(np.uint64))


def test_stacked_replay_refuses_bad_stacks():
    diag, driver = maxcut_hamiltonian(REF8), driver_x(8)
    eps = np.zeros((2, 3))
    for betas, errors in ((np.zeros(4), eps), (np.zeros((3, 3)), eps),
                          (np.zeros(3), np.zeros((2, 2, 3))), (np.zeros(()), np.zeros(())),
                          (np.zeros((2, 3)), np.zeros(3))):
        with pytest.raises(ValueError, match="disagree on depth"):
            replay(betas, errors, 0.05, diag, driver)
    for bad in (1.0, -1.0, 1.5, float("nan")):
        errors = eps.copy()
        errors[1, 2] = bad
        with pytest.raises(ValueError, match=r"\|epsilon\| < 1"):
            replay(np.full(3, 0.2), errors, 0.05, diag, driver)
    for beta in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="rotation angle must be finite, got"):
            replay(np.array([[0.1, 0.2, 0.3], [0.1, beta, 0.3]]), eps, 0.05, diag, driver)
    with pytest.raises(ValueError, match="phase scale 1e[+]308 gives a non-finite phase"):
        replay(np.full(3, 0.1), eps, 1e308, diag, driver)
    with pytest.raises(ValueError, match="operator widths differ"):
        replay(np.full(3, 0.1), eps, 0.05, diag, driver_x(7))
    # a stack with no rows is refused at the boundary (a sequence of no layers is one row)
    for errors in (np.zeros((0, 3)), np.zeros((0, 0))):
        with pytest.raises(ValueError, match=r"error stack is empty: shape \(0, \d\)"):
            replay(np.zeros(errors.shape[1]), errors, 0.05, diag, driver)
    with pytest.raises(ValueError, match="no full or half row"):
        statevector.layer_rows(np.zeros((2, 64), complex), diag, np.ones(2), np.ones(2))


def test_stacked_replay_checks_the_norm_of_every_row(monkeypatch):
    # a batched layer that scales its rows by 1 + 1e-8 is refused where the
    # stacked replay hands its states out
    kernel = engine.layer_rows

    def drifting(rows, *args):
        kernel(rows, *args)
        rows *= 1 + 1e-8

    monkeypatch.setattr(engine, "layer_rows", drifting)
    with pytest.raises(ValueError, match="not a unit state"):
        replay(np.full(3, 0.2), np.zeros((2, 3)), 0.05, maxcut_hamiltonian(REF8), driver_x(8))


def test_run_cell_refuses_mixed_or_empty_cells():
    base = RunConfig(K2, 0.05, 4, noise=NoiseModel(NoiseKind.INDEPENDENT, 0.2, 0))
    for other in (RunConfig(K2, 0.05, 5, noise=base.noise),
                  RunConfig(K2, 0.1, 4, noise=base.noise),
                  RunConfig(K2, 0.05, 4, noise=NoiseModel(NoiseKind.SYSTEMATIC, 0.2, 0)),
                  RunConfig(Graph.from_edges(2, [(0, 1, 2.0)]), 0.05, 4, noise=base.noise)):
        with pytest.raises(ValueError, match="a cell needs runs"):
            run_cell([base, other])
    with pytest.raises(ValueError, match="a cell needs runs"):
        run_cell([])
    # rows may differ in seed, bound and law
    mixed = [base, RunConfig(K2, 0.05, 4, FeedbackLaw(2.0),
                             NoiseModel(NoiseKind.INDEPENDENT, 0.5, 9))]
    for got, config in zip(run_cell(mixed), mixed):
        _assert_same_run(got, run(config))
