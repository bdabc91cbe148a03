from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import falqon.engine as engine
from falqon.engine import (
    FeedbackLaw,
    RunConfig,
    feedback,
    layer,
    replay,
    run,
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


def _unflagged_uniform(n):
    return StateVector(n, uniform_state(n).amplitudes)


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
    # the same run with every state unflagged takes the full-register paths
    config = RunConfig(graph, delta_t, depth, noise=NoiseModel(kind, epsilon_bar, seed))
    half = run(config)
    with mock.patch.object(engine, "uniform_state", _unflagged_uniform):
        full = run(config)
    assert half.final_state.symmetric and not full.final_state.symmetric
    for got, want in ((half.betas, full.betas), (half.a_values, full.a_values),
                      (half.costs, full.costs),
                      (half.final_state.amplitudes, full.final_state.amplitudes)):
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
    calls = {"n": 0}
    real_layer = engine.layer

    def counting_layer(*args, **kwargs):
        calls["n"] += 1
        return real_layer(*args, **kwargs)

    monkeypatch.setattr(engine, "layer", counting_layer)
    depth = 6
    run_independent(
        RunConfig(K2, 0.05, depth, noise=NoiseModel(NoiseKind.INDEPENDENT, 0.2, 1))
    )
    assert calls["n"] == depth * (depth + 1) // 2


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
