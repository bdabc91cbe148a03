import numpy as np
import pytest
from hypothesis import given, settings

from falqon import analysis
from falqon.analysis import (
    aggregate,
    fidelity_floor,
    ideal_fidelity,
    lipschitz_from_betas,
    replay_fidelity,
    success_probability,
)
from falqon.engine import (
    FeedbackLaw,
    RunConfig,
    replay,
    run,
    run_cell,
    run_nominal,
    run_systematic,
)
from falqon.graphs import Graph, reference_instance
from falqon.hamiltonian import driver_x, ground_energy, maxcut_hamiltonian
from falqon.noise import NoiseKind, NoiseModel, trajectory
from falqon.statevector import StateVector, uniform_state

from oracles import (
    beta_paths,
    dense_driver,
    dense_layer_unitary,
    dense_spectral_norm,
    weighted_graphs,
)

K2 = Graph.from_edges(2, [(0, 1)])
K2_DIAG = maxcut_hamiltonian(K2)
K2_DRIVER = driver_x(2)


def test_lipschitz_zero_magnitude_bound_is_one():
    _, l_value = lipschitz_from_betas([0.0, 0.1], 0.05, K2_DIAG, K2_DRIVER)
    floor, vacuous = fidelity_floor(l_value, 0.0)
    assert floor == 1.0
    assert vacuous is False


def test_lipschitz_idle_controls():
    # beta = 0 everywhere: every layer norm is max|diag| = 1, so L = 2*0.05
    norms, l_value = lipschitz_from_betas([0.0, 0.0], 0.05, K2_DIAG, K2_DRIVER)
    floor, vacuous = fidelity_floor(l_value, 0.5)
    np.testing.assert_allclose(norms, [1.0, 1.0], atol=1e-10)
    assert abs(l_value - 0.1) < 1e-10
    assert abs(floor - (1.0 - 0.5 * (0.1 * 0.5) ** 2)) < 1e-12
    assert vacuous is False


def test_lipschitz_clamps_and_flags_vacuous_bound():
    betas = np.zeros(2000)
    _, l_value = lipschitz_from_betas(betas, 0.05, K2_DIAG, K2_DRIVER)
    floor, vacuous = fidelity_floor(l_value, 0.9)
    # L = 100, raw bound 1 - 0.5*(90)^2 is deeply negative
    assert floor == 0.0
    assert vacuous is True


def test_lipschitz_monotone_in_depth():
    trace = run_nominal(RunConfig(K2, 0.05, 40))
    diag, driver = K2_DIAG, K2_DRIVER
    _, l_short = lipschitz_from_betas(trace.betas[:10], 0.05, diag, driver)
    _, l_long = lipschitz_from_betas(trace.betas, 0.05, diag, driver)
    assert l_long > l_short


@settings(derandomize=True, max_examples=60, deadline=None)
@given(graph=weighted_graphs(), betas=beta_paths())
def test_per_layer_norms_property_against_dense(graph, betas):
    # warm-started along the path, negative weights included
    n = graph.n_nodes
    diag, driver = maxcut_hamiltonian(graph), driver_x(n)
    norms, _ = lipschitz_from_betas(betas, 0.05, diag, driver)
    for beta, got in zip(betas, norms):
        want = dense_spectral_norm(diag.diag, driver.terms, n, beta)
        assert abs(got - want) <= 1e-10 * max(1.0, want), beta
        assert got >= want - 1e-12 * max(1.0, want), beta


def test_per_layer_norms_never_below_dense_on_the_reference_run():
    graph = reference_instance()
    diag, driver = maxcut_hamiltonian(graph), driver_x(8)
    betas = run_nominal(RunConfig(graph, 0.05, 200)).betas
    norms, _ = lipschitz_from_betas(betas, 0.05, diag, driver)
    h_p, h_d = np.diag(diag.diag), dense_driver(driver.terms, 8).real
    for beta, got in zip(betas, norms):
        want = float(np.max(np.abs(np.linalg.eigvalsh(h_p + beta * h_d))))
        assert got >= want, beta
        assert got - want <= 1e-10 * want, beta


def test_per_layer_norms_are_prefix_consistent():
    # the warm start carries only earlier layers, so a prefix is bit-identical
    graph = reference_instance()
    diag, driver = maxcut_hamiltonian(graph), driver_x(8)
    betas = run_nominal(RunConfig(graph, 0.05, 60)).betas
    full, _ = lipschitz_from_betas(betas, 0.05, diag, driver)
    for k in (1, 2, 17, 59):
        prefix, _ = lipschitz_from_betas(betas[:k], 0.05, diag, driver)
        assert np.array_equal(prefix, full[:k]), k


def test_lipschitz_from_betas_validates_input():
    trace = run_nominal(RunConfig(K2, 0.05, 10))
    norms, l_value = lipschitz_from_betas(trace.betas, 0.05, K2_DIAG, K2_DRIVER)
    assert norms.shape == (10,) and l_value == 0.05 * float(norms.sum())
    with pytest.raises(ValueError):
        lipschitz_from_betas([], 0.05, K2_DIAG, K2_DRIVER)


def test_lipschitz_refuses_a_non_finite_control():
    with pytest.raises(ValueError, match="beta must be finite"):
        lipschitz_from_betas([0.1, float("nan")], 0.05, K2_DIAG, K2_DRIVER)


def test_lipschitz_refuses_a_time_step_that_is_not_positive_and_finite():
    for dt in (float("nan"), float("inf"), -0.05, 0.0, True, "0.05"):
        with pytest.raises(ValueError, match="delta_t"):
            lipschitz_from_betas([0.1, 0.2], dt, K2_DIAG, K2_DRIVER)


def test_fidelity_floor_refuses_negative_or_nan_inputs():
    for l_value, eb in ((float("nan"), 0.1), (-1.0, 0.1), (1.0, float("nan")), (1.0, -0.1)):
        with pytest.raises(ValueError, match="must be nonnegative"):
            fidelity_floor(l_value, eb)
    # a string or a boolean is not read as a number
    for l_value, eb, bad in (("1", True, "'1'"), (1.0, True, "True"), (None, 0.1, "None")):
        with pytest.raises(ValueError, match=f"must be nonnegative, got {bad}"):
            fidelity_floor(l_value, eb)
    assert fidelity_floor(float("inf"), 0.1) == (0.0, True)


def test_fidelity_floor_of_a_zero_factor_is_one_even_beside_infinity():
    # a zero L or epsilon_bar means no error; inf * 0 must not become NaN
    for l_value, eb in ((float("inf"), 0.0), (0.0, float("inf")), (0.0, 0.0), (5.0, 0.0)):
        assert fidelity_floor(l_value, eb) == (1.0, False)


def test_fidelity_floor_past_the_float_range_is_vacuous():
    # (L * epsilon_bar)^2 would overflow a float; the floor is 0, flagged
    assert fidelity_floor(1e200, 0.5) == (0.0, True)
    _, l_value = lipschitz_from_betas([1e300] * 3, 0.05, K2_DIAG, K2_DRIVER)
    assert fidelity_floor(l_value, 0.1) == (0.0, True)
    # below that the floor is the plain formula, bit for bit
    for product in (0.3, 1.0, 1.4, 1.5, 1.999):
        assert fidelity_floor(product, 1.0)[0] == max(0.0, 1.0 - 0.5 * product ** 2)


def test_replays_refuse_a_time_step_run_config_refuses():
    # checked once per replay, before any layer runs
    trace = run_nominal(RunConfig(K2, 0.05, 3))
    for dt in (-0.05, 0.0, True, float("nan"), float("inf"), "0.05"):
        with pytest.raises(ValueError, match="delta_t"):
            RunConfig(K2, dt, 3)
        with pytest.raises(ValueError, match="delta_t"):
            replay(trace.betas, np.zeros(3), dt, K2_DIAG, K2_DRIVER)
        with pytest.raises(ValueError, match="delta_t"):
            replay_fidelity(trace.betas, np.zeros(3), dt, K2_DIAG, K2_DRIVER)


def test_replay_fidelity_exact_for_zero_errors():
    trace = run_nominal(RunConfig(K2, 0.05, 20))
    f = replay_fidelity(trace.betas, np.zeros(20), 0.05, K2_DIAG, K2_DRIVER)
    assert abs(f - 1.0) < 1e-12


def test_replay_fidelity_single_layer_direct_computation():
    # one idle-control layer under error eps: states differ only by diagonal
    # phases, so the fidelity is computable in closed form from the 4 phases
    eps = 0.1
    f = replay_fidelity([0.0], [eps], 0.05, K2_DIAG, K2_DRIVER)
    u0 = dense_layer_unitary(K2_DIAG.diag, K2_DRIVER.terms, 2, 0.0, 0.05, 0.0)
    u1 = dense_layer_unitary(K2_DIAG.diag, K2_DRIVER.terms, 2, 0.0, 0.05, eps)
    psi = np.full(4, 0.5)
    want = abs(np.vdot(u0 @ psi, u1 @ psi))
    assert abs(f - want) < 1e-12


def test_replay_fidelity_accepts_trajectory_objects(monkeypatch):
    model = NoiseModel(NoiseKind.INDEPENDENT, 0.2, 3)
    traj = trajectory(model, 10, rebuild_index=1)
    betas = run_nominal(RunConfig(K2, 0.05, 10)).betas
    f1 = replay_fidelity(betas, traj, 0.05, K2_DIAG, K2_DRIVER)
    f2 = replay_fidelity(betas, traj.tolist(), 0.05, K2_DIAG, K2_DRIVER)
    assert f1 == f2
    assert 0.0 <= f1 <= 1.0 + 1e-10
    with pytest.raises(ValueError):
        replay_fidelity(betas, np.zeros(9), 0.05, K2_DIAG, K2_DRIVER)
    # a (draws, depth) stack gives one fidelity per row, each bit-identical
    # to the call on that row alone, from one ideal replay per call and one
    # stacked replay of every row
    stack = np.array([trajectory(model, 10, rebuild_index=i + 1) for i in range(5)])
    singles = [replay_fidelity(betas, row, 0.05, K2_DIAG, K2_DRIVER) for row in stack]
    shapes = []
    real_replay = analysis.replay

    def counting_replay(betas, epsilons, *args):
        shapes.append(np.shape(epsilons))
        return real_replay(betas, epsilons, *args)

    monkeypatch.setattr(analysis, "replay", counting_replay)
    fids = replay_fidelity(betas, stack, 0.05, K2_DIAG, K2_DRIVER)
    assert shapes == [(10,), (5, 10)]
    assert isinstance(fids, np.ndarray) and fids.shape == (5,)
    assert fids.tolist() == singles
    one = replay_fidelity(betas, stack[:1], 0.05, K2_DIAG, K2_DRIVER)
    assert isinstance(one, np.ndarray) and one.tolist() == singles[:1]
    for bad in (np.zeros((3, 9)), np.zeros((2, 3, 10)), np.zeros(())):
        with pytest.raises(ValueError):
            replay_fidelity(betas, bad, 0.05, K2_DIAG, K2_DRIVER)
    # a stack of no draws is refused by name, before any kernel runs
    with pytest.raises(ValueError, match=r"error stack is empty: shape \(0, 10\)"):
        replay_fidelity(betas, np.zeros((0, 10)), 0.05, K2_DIAG, K2_DRIVER)


def test_ideal_fidelity_against_replays():
    # a nominal run is its own ideal replay; a systematic run's final state
    # is the replay of its controls under its master sequence
    nominal = run_nominal(RunConfig(K2, 0.05, 20))
    assert abs(ideal_fidelity(nominal, K2_DIAG, K2_DRIVER) - 1.0) < 1e-12
    graph = reference_instance()
    diag, driver = maxcut_hamiltonian(graph), driver_x(graph.n_nodes)
    noisy = run_systematic(
        RunConfig(graph, 0.05, 30, noise=NoiseModel(NoiseKind.SYSTEMATIC, 0.5, 6)))
    want = replay_fidelity(noisy.betas, noisy.epsilons, 0.05, diag, driver)
    assert want < 0.999
    assert abs(ideal_fidelity(noisy, diag, driver) - want) < 1e-12
    # a cell's runs in one stacked replay, each as its own call; runs that
    # differ in depth or time step share no stack
    cell = run_cell([RunConfig(graph, 0.05, 30, noise=NoiseModel(NoiseKind.SYSTEMATIC, 0.5, seed))
                     for seed in (6, 7, 8)])
    assert ideal_fidelity(cell, diag, driver) == [ideal_fidelity(t, diag, driver) for t in cell]
    for runs in ([], [noisy, run_nominal(RunConfig(graph, 0.05, 29))],
                 [noisy, run_nominal(RunConfig(graph, 0.06, 30))]):
        with pytest.raises(ValueError, match="one delta_t and depth"):
            ideal_fidelity(runs, diag, driver)


def test_fidelity_respects_lipschitz_bound_on_random_draws():
    trace = run_nominal(RunConfig(K2, 0.05, 25))
    _, l_value = lipschitz_from_betas(trace.betas, 0.05, K2_DIAG, K2_DRIVER)
    for eb in (0.01, 0.05, 0.1):
        floor, _ = fidelity_floor(l_value, eb)
        model = NoiseModel(NoiseKind.INDEPENDENT, eb, 17)
        for i in range(40):
            traj = trajectory(model, 25, rebuild_index=i + 1)
            f = replay_fidelity(trace.betas, traj, 0.05, K2_DIAG, K2_DRIVER)
            assert f >= floor - 1e-12


def _cell_runs(lam, seeds, depth=12, eb=0.2):
    law = FeedbackLaw(lam=lam)
    return [
        run(RunConfig(K2, 0.05, depth, law, NoiseModel(NoiseKind.INDEPENDENT, eb, s)))
        for s in seeds
    ]


def test_aggregate_single_run_has_zero_std():
    runs = _cell_runs(0.5, [0])
    p0, _ = ground_energy(K2_DIAG)
    mean, std = aggregate(runs)
    assert std == 0.0
    assert mean == runs[0].costs[-1] - p0


def test_aggregate_matches_two_pass_statistics():
    runs = _cell_runs(1.0, range(6))
    p0, _ = ground_energy(K2_DIAG)
    got_mean, got_std = aggregate(runs)
    errors = np.array([t.costs[-1] - p0 for t in runs])
    mean = errors.sum() / errors.size
    var = ((errors - mean) ** 2).sum() / (errors.size - 1)
    assert abs(got_mean - mean) < 1e-12
    assert abs(got_std - np.sqrt(var)) < 1e-12


def test_aggregate_rejects_mixed_cells():
    with pytest.raises(ValueError):
        aggregate([])
    runs = _cell_runs(0.5, [0]) + _cell_runs(1.0, [0])
    with pytest.raises(ValueError):
        aggregate(runs)


def test_aggregate_rejects_runs_with_different_time_steps():
    noise = NoiseModel(NoiseKind.INDEPENDENT, 0.2, 0)
    runs = [run(RunConfig(K2, dt, 12, FeedbackLaw(lam=0.5), noise)) for dt in (0.05, 0.3)]
    with pytest.raises(ValueError, match="time step"):
        aggregate(runs)
    assert aggregate(runs[:1] * 2)[1] == 0.0


def test_aggregate_identical_seeds_zero_spread():
    runs = _cell_runs(0.5, [4, 4])
    _, std = aggregate(runs)
    assert std == 0.0


def test_success_probability_basis_and_uniform():
    amps = np.zeros(4, dtype=complex)
    amps[2] = 1.0
    state = StateVector(2, amps)
    assert success_probability(state, [2]) == 1.0
    assert success_probability(state, [0, 1]) == 0.0
    assert abs(success_probability(uniform_state(2), [1, 2]) - 0.5) < 1e-14


def test_success_probability_validates_indices():
    with pytest.raises(ValueError):
        success_probability(uniform_state(2), [4])
    with pytest.raises(ValueError):
        success_probability(uniform_state(2), [1, 1])
    # an index is an integer: 1.5 is not truncated, True and "1" are not read as 1
    for bad in (1.5, True, "1"):
        with pytest.raises(ValueError, match=f"basis index {bad!r} is not an integer"):
            success_probability(uniform_state(2), [bad])
    assert success_probability(uniform_state(2), np.array([1, 2])) == 0.5
