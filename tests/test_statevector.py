import os
import pickle
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import falqon
from falqon import statevector
from falqon.engine import replay
from falqon.graphs import random_regular
from falqon.hamiltonian import (
    DiagonalHamiltonian,
    driver_x,
    maxcut_hamiltonian,
)
from falqon.noise import NoiseModel, trajectory
from falqon.statevector import (
    StateVector,
    a_value,
    apply_diagonal_phase,
    apply_x_rotations,
    driver_matvec,
    expectation_diagonal,
    inner_product,
    uniform_state,
)

from oracles import (
    dense_commutator_expectation,
    dense_layer_unitary,
    random_unit_state,
    reference_diagonal_phase,
    reference_driver_matvec,
    reference_x_rotations,
    weighted_graphs,
)

K2_DIAG = DiagonalHamiltonian(2, np.array([0.0, -1.0, -1.0, 0.0]))


def basis_state(n, index):
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def test_uniform_state_amplitudes():
    s1 = uniform_state(1)
    np.testing.assert_allclose(s1.amplitudes, [0.7071067811865476] * 2, atol=0, rtol=0)
    s2 = uniform_state(2)
    np.testing.assert_allclose(s2.amplitudes, [0.5] * 4, atol=0, rtol=0)
    s8 = uniform_state(8)
    assert s8.dim == 256
    np.testing.assert_allclose(s8.amplitudes, np.full(256, 0.0625), atol=1e-16, rtol=0)


def test_uniform_state_rejects_bad_width():
    with pytest.raises(ValueError):
        uniform_state(0)
    with pytest.raises(ValueError):
        uniform_state(13)
    with pytest.raises(ValueError):
        uniform_state(17)


def test_statevector_validates_shape_and_norm():
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0 + 2e-10, 0.0]))
    with pytest.raises(ValueError):
        StateVector(1, np.array([np.nan, 0.0]))


def test_diagonal_phase_zero_scale_is_identity():
    s = uniform_state(2)
    out = apply_diagonal_phase(s, K2_DIAG, 0.0)
    np.testing.assert_array_equal(out.amplitudes, s.amplitudes)
    assert out.amplitudes is not s.amplitudes


def test_diagonal_phase_moduli_unchanged():
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = StateVector(2, random_unit_state(rng, 2))
        out = apply_diagonal_phase(s, K2_DIAG, rng.uniform(-3, 3))
        np.testing.assert_allclose(np.abs(out.amplitudes), np.abs(s.amplitudes), atol=1e-14)


def test_diagonal_phase_matches_dense_exponential():
    rng = np.random.default_rng(4)
    for _ in range(10):
        diag = DiagonalHamiltonian(3, rng.normal(size=8))
        s = StateVector(3, random_unit_state(rng, 3))
        scale = rng.uniform(-1, 1)
        expected = np.exp(-1j * scale * diag.diag) * s.amplitudes
        out = apply_diagonal_phase(s, diag, scale)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


def test_diagonal_phase_width_mismatch():
    with pytest.raises(ValueError):
        apply_diagonal_phase(uniform_state(3), K2_DIAG, 0.1)


def test_x_rotation_zero_angle_is_identity():
    s = uniform_state(3)
    out = apply_x_rotations(s, driver_x(3), 0.0)
    np.testing.assert_array_equal(out.amplitudes, s.amplitudes)


def test_x_rotation_half_pi_flips_single_qubit():
    # e^{-i (pi/2) X} |0> = -i |1>
    out = apply_x_rotations(basis_state(1, 0), driver_x(1), np.pi / 2)
    np.testing.assert_allclose(out.amplitudes, [0.0, -1j], atol=1e-12)


def test_x_rotations_match_dense_exponential():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        driver = driver_x(n)
        for _ in range(8):
            s = StateVector(n, random_unit_state(rng, n))
            angle = rng.uniform(-2, 2)
            u = dense_layer_unitary(np.zeros(1 << n), driver.terms, n, 1.0, angle)
            out = apply_x_rotations(s, driver, angle)
            np.testing.assert_allclose(out.amplitudes, u @ s.amplitudes, atol=1e-12)


def test_unitaries_preserve_norm():
    rng = np.random.default_rng(7)
    driver = driver_x(4)
    diag = DiagonalHamiltonian(4, rng.normal(size=16))
    s = StateVector(4, random_unit_state(rng, 4))
    for _ in range(50):
        s = apply_diagonal_phase(s, diag, rng.uniform(-1, 1))
        s = apply_x_rotations(s, driver, rng.uniform(-1, 1))
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12


def test_expectation_diagonal_basis_states():
    diag = DiagonalHamiltonian(2, np.array([0.5, -1.0, 2.0, 0.0]))
    for i in range(4):
        assert expectation_diagonal(basis_state(2, i), diag) == diag.diag[i]


def test_expectation_diagonal_uniform_k2():
    assert abs(expectation_diagonal(uniform_state(2), K2_DIAG) - (-0.5)) < 1e-14


def test_expectation_constant_diagonal():
    rng = np.random.default_rng(8)
    diag = DiagonalHamiltonian(3, np.full(8, 1.75))
    for _ in range(10):
        s = StateVector(3, random_unit_state(rng, 3))
        assert abs(expectation_diagonal(s, diag) - 1.75) < 1e-12


def test_driver_matvec_matches_dense():
    rng = np.random.default_rng(9)
    from oracles import dense_driver
    h = dense_driver(driver_x(3).terms, 3)
    for weight in (1.0, -0.5, 2.0):
        v = weight * random_unit_state(rng, 3)
        np.testing.assert_allclose(driver_matvec(v), h @ v, atol=1e-12)


def test_a_value_zero_in_uniform_and_basis_states():
    driver = driver_x(2)
    assert abs(a_value(uniform_state(2), K2_DIAG, driver)) < 1e-14
    for i in range(4):
        assert abs(a_value(basis_state(2, i), K2_DIAG, driver)) < 1e-14


def test_a_value_matches_dense_commutator():
    rng = np.random.default_rng(10)
    for n in (1, 2, 3):
        driver = driver_x(n)
        for _ in range(10):
            diag = DiagonalHamiltonian(n, rng.normal(size=1 << n))
            s = StateVector(n, random_unit_state(rng, n))
            want = dense_commutator_expectation(s.amplitudes, diag.diag, driver.terms, n)
            assert abs(a_value(s, diag, driver) - want) < 1e-10


def test_a_value_after_one_problem_layer():
    driver = driver_x(2)
    s = apply_diagonal_phase(uniform_state(2), K2_DIAG, 0.05)
    want = dense_commutator_expectation(s.amplitudes, K2_DIAG.diag, driver.terms, 2)
    got = a_value(s, K2_DIAG, driver)
    assert abs(got - want) < 1e-10
    assert got > 0.0  # descent direction exists right away on this instance


def test_inner_product_values():
    assert abs(inner_product(uniform_state(2), uniform_state(2)) - 1.0) < 1e-14
    assert inner_product(basis_state(2, 0), basis_state(2, 3)) == 0.0
    assert abs(inner_product(basis_state(2, 1), uniform_state(2)) - 0.5) < 1e-14


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(11)
    a = StateVector(3, random_unit_state(rng, 3))
    b = StateVector(3, random_unit_state(rng, 3))
    assert abs(inner_product(a, b) - np.conj(inner_product(b, a))) < 1e-14


def test_inner_product_width_mismatch():
    with pytest.raises(ValueError):
        inner_product(uniform_state(2), uniform_state(3))


def test_operations_do_not_mutate_input():
    s = uniform_state(2)
    before = s.amplitudes.copy()
    apply_diagonal_phase(s, K2_DIAG, 0.3)
    apply_x_rotations(s, driver_x(2), 0.3)
    a_value(s, K2_DIAG, driver_x(2))
    np.testing.assert_array_equal(s.amplitudes, before)


def test_a_value_on_a_symmetric_state_with_a_non_invariant_diagonal():
    # the half-register readout needs the diagonal's symmetry as well as the
    # state's: halving here would read A = -3.41 instead of about 0
    s = apply_diagonal_phase(
        uniform_state(3), DiagonalHamiltonian(3, [0, -1, -1, -2, -2, -1, -1, 0]), 0.7)
    skew = DiagonalHamiltonian(3, np.arange(8.0))
    assert s.symmetric and not skew.complement_invariant
    driver = driver_x(3)
    got = a_value(s, skew, driver)
    assert_same_bits(got, a_value(StateVector(3, s.amplitudes), skew, driver))
    want = dense_commutator_expectation(s.amplitudes, skew.diag, driver.terms, 3)
    assert abs(got - want) < 1e-12


def test_symmetric_flag_is_set_only_by_the_kernels():
    diag, driver = maxcut_hamiltonian(random_regular(6, 3, 1)), driver_x(6)
    skew = DiagonalHamiltonian(6, np.arange(64.0))
    assert diag.complement_invariant and not skew.complement_invariant
    # signed zeros compare equal but are different bits
    assert not DiagonalHamiltonian(1, [0.0, -0.0]).complement_invariant
    s = uniform_state(6)
    assert s.symmetric
    with pytest.raises(TypeError):
        StateVector(6, s.amplitudes, True)
    assert not StateVector(6, s.amplitudes).symmetric
    kept = apply_x_rotations(apply_diagonal_phase(s, diag, 0.3), driver, 0.2)
    assert kept.symmetric
    dropped = apply_diagonal_phase(s, skew, 0.3)
    assert not dropped.symmetric
    assert not apply_x_rotations(apply_diagonal_phase(dropped, diag, 0.3), driver, 0.2).symmetric
    back = pickle.loads(pickle.dumps(kept))
    assert back.symmetric
    assert_same_bits(back.amplitudes, kept.amplitudes)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    # compare the IEEE bit patterns: signed zeros and last-ulp differences count
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_kernels_match_references(state, diag, driver, angle):
    amps = state.amplitudes
    assert_same_bits(apply_x_rotations(state, driver, angle).amplitudes,
                     reference_x_rotations(amps, driver.terms, angle))
    assert_same_bits(apply_diagonal_phase(state, diag, angle).amplitudes,
                     reference_diagonal_phase(amps, diag.diag, angle))
    # a_value sums the driver product qubit by qubit, as the reference does
    y = diag.diag * amps
    assert_same_bits(a_value(state, diag, driver),
                     -2.0 * float(np.vdot(amps, reference_driver_matvec(y, driver.terms)).imag))
    # the norm solver's GEMM product sums the same n terms in another order:
    # each sum is within (n-1)u of n*max|buf| per component, so the two
    # differ by less than 4n^2 u max|buf| in modulus
    for buf in (amps, amps.real.copy(), y):
        want = reference_driver_matvec(buf, driver.terms)
        tol = 4 * state.n_qubits ** 2 * 2.0 ** -53 * np.abs(buf).max()
        np.testing.assert_allclose(driver_matvec(buf), want, rtol=0, atol=tol)
    if state.symmetric:  # the half-register paths against the full ones
        assert_same_bits(amps, amps[::-1].copy())
        assert_same_bits(a_value(state, diag, driver),
                         a_value(StateVector(state.n_qubits, amps), diag, driver))


@st.composite
def kernel_cases(draw):
    graph = draw(weighted_graphs())
    n = graph.n_nodes
    diag, driver = maxcut_hamiltonian(graph), driver_x(n)
    # None starts from the uniform state, whose imaginary parts are exact
    # zeros, and may run a few layers on the symmetric (half-register) path
    seed = draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    if seed is None:
        state = uniform_state(n)
        for angle in draw(st.lists(st.floats(-3.0, 3.0), max_size=4)):
            state = apply_x_rotations(apply_diagonal_phase(state, diag, angle), driver, angle)
    else:
        state = StateVector(n, random_unit_state(np.random.default_rng(seed), n))
    angle = draw(st.floats(-10.0, 10.0))
    return state, diag, driver, angle


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=kernel_cases())
def test_kernels_bit_identical_to_per_pair_references(case):
    assert_kernels_match_references(*case)


def test_kernels_bit_identical_at_twelve_qubits():
    graph = random_regular(12, 3, 42)
    diag = maxcut_hamiltonian(graph)
    values, index = diag.levels
    assert values.size <= len(graph.edges) + 1
    assert_same_bits(values[index], diag.diag)
    driver, state = driver_x(12), uniform_state(12)
    for angle in (0.05, -0.7, 2.3):
        assert_kernels_match_references(state, diag, driver, angle)
        state = apply_x_rotations(apply_diagonal_phase(state, diag, angle), driver, angle)


def test_rotated_states_share_no_memory_with_the_plan():
    for n in range(1, 13):
        driver, uniform = driver_x(n), uniform_state(n)
        for state in (uniform, StateVector(n, uniform.amplitudes)):
            out = apply_x_rotations(state, driver, 0.3).amplitudes
            buf, steps = statevector._plan(state.dim >> state.symmetric, state.symmetric)
            assert not np.shares_memory(out, buf)
            assert not any(np.shares_memory(out, cross) for _, _, cross in steps)


def test_driver_products_share_no_memory_with_the_plan():
    # real buffers (the norm solver) and complex ones; a product is a fresh
    # array, apart from its input and the cached blocks
    rng = np.random.default_rng(4)
    for n in range(13):
        for x in (rng.random(1 << n), rng.random(1 << n) - 1j * rng.random(1 << n)):
            out = driver_matvec(x)
            saved = out.copy()
            assert out.dtype == x.dtype and out.shape == x.shape
            assert not np.shares_memory(out, x)
            assert not any(np.shares_memory(out, b) for b in statevector._driver_blocks(n))
            driver_matvec(rng.random(x.size).astype(x.dtype))
            assert_same_bits(out, saved)


def test_later_rotations_leave_earlier_results_unchanged():
    diag, driver = maxcut_hamiltonian(random_regular(6, 3, 1)), driver_x(6)
    flagged = apply_diagonal_phase(uniform_state(6), diag, 0.4)
    plain = StateVector(6, flagged.amplitudes)
    first = [apply_x_rotations(s, driver, 0.3) for s in (flagged, plain)]
    saved = [s.amplitudes.copy() for s in first]
    for angle in (0.1, -0.8, 2.5):
        for s in (flagged, plain, *first):
            apply_x_rotations(s, driver, angle)
    for s, bits in zip(first, saved):
        assert_same_bits(s.amplitudes, bits)


def test_threads_replay_bit_identical_to_serial():
    # each thread rotates in its own plan; a shared buffer would mix the
    # registers of concurrent replays
    diag, driver = maxcut_hamiltonian(random_regular(12, 3, 42)), driver_x(12)
    betas = 0.5 * np.sin(np.arange(40.0))
    model = NoiseModel("independent", 0.2, 5)
    rows = [trajectory(model, betas.size, rebuild_index=i + 1) for i in range(8)]

    def job(eps):
        state = replay(betas, eps, 0.05, diag, driver)
        return state.amplitudes, a_value(state, diag, driver)

    serial = [job(eps) for eps in rows]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(job, rows, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for (got, got_a), (want, want_a) in zip(threaded, serial):
        assert_same_bits(got, want)
        assert_same_bits(got_a, want_a)


def test_threads_driver_products_bit_identical_to_serial():
    # real products as the norm solver forms them, and complex ones, from
    # four threads at once on the shared read-only blocks
    rng = np.random.default_rng(6)
    inputs = [rng.random(1 << 12) if i % 2 else rng.random(1 << 11) - 1j * rng.random(1 << 11)
              for i in range(8)]

    def job(x):
        return [driver_matvec(x) for _ in range(20)]

    serial = [job(x) for x in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(job, inputs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(threaded, serial):
        for g, w in zip(got, want):
            assert_same_bits(g, w)


def test_invariant_checks_hold_under_optimize_flag():
    # each check gets an operand smuggled past the constructors' own checks
    script = textwrap.dedent("""
        import numpy as np
        from falqon.analysis import success_probability
        from falqon.hamiltonian import DiagonalHamiltonian, driver_x
        from falqon.statevector import (a_value, expectation_diagonal,
                                        inner_product, uniform_state)

        assert False, "asserts must be stripped under -O"
        s = uniform_state(2)
        object.__setattr__(s, "amplitudes", 2.0 * s.amplitudes)
        w = uniform_state(2)
        object.__setattr__(w, "amplitudes", 10.0 * np.array([1, 1j, -1, 1]))
        d = DiagonalHamiltonian(2, np.array([0.0, -1.0, -1.0, 0.0]))
        c = DiagonalHamiltonian(2, np.zeros(4))
        object.__setattr__(c, "diag", np.array([1j, 0, 0, 0]))
        checks = [lambda: inner_product(s, s), lambda: success_probability(s, [0, 1]),
                  lambda: a_value(w, d, driver_x(2)), lambda: expectation_diagonal(s, c)]
        for check in checks:
            try:
                check()
            except AssertionError as exc:
                print(exc)
            else:
                raise SystemExit("no AssertionError")
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(falqon.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 4
    for line, text in zip(lines, ("inner product", "probability", "commutator",
                                  "came out complex")):
        assert text in line
