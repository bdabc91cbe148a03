import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from falqon.engine import RunConfig, run_nominal
from falqon.graphs import Graph, erdos_renyi, max_cut_brute_force, reference_instance
from falqon.hamiltonian import (
    DiagonalHamiltonian,
    driver_matvec,
    driver_x,
    ground_energy,
    maxcut_hamiltonian,
    spectral_norm,
)
from falqon.statevector import _driver_blocks

from oracles import (
    dense_driver,
    dense_spectral_norm,
    reference_driver_matvec,
    weighted_graphs,
)

K2 = Graph.from_edges(2, [(0, 1)])
K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_maxcut_k2_diagonal():
    diag = maxcut_hamiltonian(K2)
    np.testing.assert_array_equal(diag.diag, [0.0, -1.0, -1.0, 0.0])


def test_maxcut_k3_ground_space():
    diag = maxcut_hamiltonian(K3)
    lo, states = ground_energy(diag)
    assert lo == -2.0
    assert states == [1, 2, 3, 4, 5, 6]


def test_maxcut_c4_ground_space():
    diag = maxcut_hamiltonian(C4)
    lo, states = ground_energy(diag)
    assert lo == -4.0
    assert states == [5, 10]  # the two alternating partitions


def test_maxcut_diag_is_minus_cut_everywhere():
    # independent enumeration: the diagonal entry at x equals -cut(x)
    graphs = [K2, K3, C4, reference_instance(), erdos_renyi(6, 0.5, seed=3)]
    for g in graphs:
        diag = maxcut_hamiltonian(g).diag
        n = g.n_nodes
        for x in range(1 << n):
            cut = sum(
                w for u, v, w in g.edges if ((x >> u) & 1) != ((x >> v) & 1)
            )
            assert diag[x] == -cut


def test_maxcut_weighted_edges():
    g = Graph.from_edges(2, [(0, 1, 2.5)])
    diag = maxcut_hamiltonian(g)
    np.testing.assert_array_equal(diag.diag, [0.0, -2.5, -2.5, 0.0])


def test_ground_energy_matches_brute_force():
    for g in (K2, K3, C4, reference_instance()):
        lo, _ = ground_energy(maxcut_hamiltonian(g))
        best, _ = max_cut_brute_force(g)
        assert lo == -best


def test_ground_energy_reports_all_ties():
    diag = DiagonalHamiltonian(2, np.full(4, 3.0))
    lo, states = ground_energy(diag)
    assert lo == 3.0
    assert states == [0, 1, 2, 3]


def test_driver_x_structure():
    d = driver_x(8)
    assert d.terms == tuple((q, 1.0) for q in range(8))
    with pytest.raises(ValueError):
        driver_x(0)


def test_spectral_norm_diagonal_only():
    diag = maxcut_hamiltonian(K2)
    assert abs(spectral_norm(diag, driver_x(2), 0.0) - 1.0) < 1e-8


def test_spectral_norm_driver_only():
    diag = DiagonalHamiltonian(3, np.zeros(8))
    assert abs(spectral_norm(diag, driver_x(3), 1.0) - 3.0) < 1e-8


def test_spectral_norm_refuses_a_non_finite_beta():
    for beta in (float("nan"), float("inf"), -float("inf"), 1e308):
        with pytest.raises(ValueError, match="beta must be finite"):
            spectral_norm(maxcut_hamiltonian(K2), driver_x(2), beta)


def test_spectral_norm_zero_operator():
    diag = DiagonalHamiltonian(2, np.zeros(4))
    assert spectral_norm(diag, driver_x(2), 0.0) == 0.0


def test_spectral_norm_matches_dense():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        driver = driver_x(n)
        for _ in range(6):
            diag = DiagonalHamiltonian(n, rng.normal(size=1 << n))
            beta = rng.uniform(-2, 2)
            want = dense_spectral_norm(diag.diag, driver.terms, n, beta)
            got = spectral_norm(diag, driver, beta)
            assert abs(got - want) <= 1e-8 * max(1.0, want)


def test_spectral_norm_triangle_bound():
    rng = np.random.default_rng(13)
    diag = maxcut_hamiltonian(reference_instance())
    driver = driver_x(8)
    peak = float(np.max(np.abs(diag.diag)))
    for _ in range(10):
        beta = rng.uniform(-3, 3)
        norm = spectral_norm(diag, driver, beta)
        assert norm <= peak + abs(beta) * 8 + 1e-8


@settings(derandomize=True, max_examples=80, deadline=None)
@given(graph=weighted_graphs(), beta=st.floats(-3.0, 3.0))
def test_spectral_norm_property_against_dense(graph, beta):
    # negative weights included: the norm is read from both spectrum ends
    n = graph.n_nodes
    diag = maxcut_hamiltonian(graph)
    driver = driver_x(n)
    want = dense_spectral_norm(diag.diag, driver.terms, n, beta)
    got = spectral_norm(diag, driver, beta)
    assert abs(got - want) <= 1e-10 * max(1.0, want)
    assert got >= want * (1.0 - 1e-12)
    assert got <= float(np.max(np.abs(diag.diag))) + abs(beta) * n


def test_spectral_norm_exact_on_the_diagonal():
    # beta = 0 leaves the cost diagonal, whose norm is the maximum cut, 10
    norm = spectral_norm(maxcut_hamiltonian(reference_instance()), driver_x(8), 0.0)
    assert 10.0 <= norm <= 10.0 + 1e-12


def test_spectral_norm_warm_start_keeps_the_value():
    # a warm start changes the work, not the answer beyond the certified gap
    diag, driver = maxcut_hamiltonian(reference_instance()), driver_x(8)
    warm = {}
    for beta in (1.3, 1.25, -1.2, 0.4):
        cold = spectral_norm(diag, driver, beta)
        hot = spectral_norm(diag, driver, beta, warm)
        want = dense_spectral_norm(diag.diag, driver.terms, 8, beta)
        assert min(cold, hot) >= want
        assert abs(hot - cold) <= 1e-10 * want
    assert set(warm) == {-1}
    vector, stop = warm[-1]  # the Perron vector and the step its solve stopped at
    assert np.all(vector > 0.0) and abs(np.linalg.norm(vector) - 1.0) <= 1e-12
    assert 0 <= stop < 256


def test_warm_schedule_matches_every_other_step_checks_on_the_reference_run():
    # A warm solve checks its even steps only from the previous stop - 4 on.
    # The checks it skips would have failed and leave no state, so it returns
    # the bits of a solve from the same vector that checks every even step,
    # which a recorded stop of 0 asks for.
    graph = reference_instance()
    diag, driver = maxcut_hamiltonian(graph), driver_x(8)
    warm = {}
    for beta in run_nominal(RunConfig(graph, 0.05, 200)).betas:
        oracle = {sign: (vector, 0) for sign, (vector, _) in warm.items()}
        want = spectral_norm(diag, driver, beta, oracle)
        assert spectral_norm(diag, driver, beta, warm).hex() == want.hex(), beta
        assert warm.keys() == oracle.keys()
        for sign, (vector, stop) in warm.items():
            assert np.array_equal(vector, oracle[sign][0]) and stop == oracle[sign][1], beta


@settings(derandomize=True, max_examples=80, deadline=None)
@given(n=st.integers(1, 8), coupling=st.floats(2.0 ** -10, 1.0), seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, coupling=0.5, seed=1)  # empty low block
@example(n=5, coupling=0.75, seed=2)
@example(n=8, coupling=2.0 ** -3, seed=3)
def test_block_matvec_matches_per_qubit_reference(n, coupling, seed):
    # the norm solver's product c sum_q X_q, on the nonnegative vectors the
    # Perron solver feeds it, against the per-pair sums
    rng = np.random.default_rng(seed)
    x = rng.random(1 << n) * (rng.random(1 << n) < 0.8)  # some entries exactly zero
    got = driver_matvec(coupling * x)
    want = reference_driver_matvec(x, [(q, coupling) for q in range(n)])
    assert got.shape == x.shape
    assert np.all(np.abs(got - want) <= 2 * n * 2.0 ** -53 * want)


def test_driver_blocks_are_cached_read_only_and_small():
    lo, hi = _driver_blocks(3)
    assert _driver_blocks(3)[0] is lo
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(lo, x)  # qubit 0
    np.testing.assert_array_equal(hi, np.kron(x, np.eye(2)) + np.kron(np.eye(2), x))  # qubits 1, 2
    with pytest.raises(ValueError):
        lo[0, 1] = 1.0
    assert sum(b.nbytes for b in _driver_blocks(12)) <= 64 * 1024


def _krylov_dimension(m, v, tol=1e-9):
    """Dimension of span{v, Mv, M^2 v, ...}, by dense Gram-Schmidt, twice."""
    basis = []
    while len(basis) < v.size:
        for _ in range(2):
            v = v - sum(((b @ v) * b for b in basis), np.zeros_like(v))
        if np.linalg.norm(v) <= tol:
            break
        basis.append(v / np.linalg.norm(v))
        v = m @ basis[-1]
    return len(basis)


K2_DIAG = maxcut_hamiltonian(K2)
K3_DIAG = maxcut_hamiltonian(K3)


@pytest.mark.parametrize("diag, driver", [
    (K2_DIAG, driver_x(2)),
    (K3_DIAG, driver_x(3)),
    (maxcut_hamiltonian(Graph.from_edges(5, [(q, (q + 1) % 5) for q in range(5)])),
     driver_x(5)),
    (maxcut_hamiltonian(Graph.from_edges(2, [(0, 1, -1.0)])), driver_x(2)),  # the N+ end
    (maxcut_hamiltonian(Graph.from_edges(3, [(0, 2, 1.5)])), driver_x(3)),
    (DiagonalHamiltonian(2, np.array([-1.0, 0.5, 0.5, -1.0])), driver_x(2)),
    (DiagonalHamiltonian(1, np.array([-1.0, 0.5])), driver_x(1)),
])
def test_spectral_norm_when_the_krylov_space_ends_on_an_odd_step(diag, driver):
    # symmetric instances whose Krylov space from the uniform start has even
    # dimension, so the last Lanczos step is odd and its off-diagonal entry
    # is at rounding level: that step must still be checked, not divided by
    n, dim = diag.n_qubits, 1 << diag.n_qubits
    coupling = dense_driver(driver.terms, n).real
    for beta in (0.3, -1.1, 2.0):
        for sign in (-1, 1):  # both spectrum ends, whichever the solver needs
            size = _krylov_dimension(sign * np.diag(diag.diag) + abs(beta) * coupling,
                                     np.full(dim, dim ** -0.5))
            assert size % 2 == 0 and (size < dim or n == 1), (sign, size)
        want = dense_spectral_norm(diag.diag, driver.terms, n, beta)
        got = spectral_norm(diag, driver, beta)
        assert want <= got <= want + 1e-10 * max(1.0, want), beta


def _assert_bounds_the_norm(diag, driver, beta, got):
    want = dense_spectral_norm(diag.diag, driver.terms, diag.n_qubits, beta)
    assert abs(got - want) <= 1e-10 * max(1.0, want), beta
    assert got >= want - 1e-12 * max(1.0, want), beta


def test_spectral_norm_bounds_k2_at_small_beta():
    # near beta = 0 the Perron vector's entries off the top diagonal level are
    # tiny and Lanczos gets them wrong; the certificate must still close
    driver = driver_x(2)
    for beta in np.logspace(-10, -1, 400):
        _assert_bounds_the_norm(K2_DIAG, driver, beta, spectral_norm(K2_DIAG, driver, beta))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(graph=weighted_graphs(), exponent=st.floats(-12.0, 1.0), sign=st.sampled_from((-1, 1)))
@example(graph=K2, exponent=-10.0, sign=1)
@example(graph=Graph.from_edges(2, [(0, 1, 0.125)]), exponent=-10.0, sign=1)
@example(graph=Graph.from_edges(3, [(0, 1, 2.0), (1, 2, -1.5)]), exponent=-12.0, sign=-1)
def test_spectral_norm_small_beta_property_cold_and_warm(graph, exponent, sign):
    # mixed-sign weights and |beta| down to 1e-12, each solve cold and warm
    # from the previous one, as a run's layers take them
    diag, driver = maxcut_hamiltonian(graph), driver_x(graph.n_nodes)
    warm = {}
    for beta in sign * 10.0 ** exponent * np.array([1.0, 1.01, 0.5, -0.5]):
        _assert_bounds_the_norm(diag, driver, beta, spectral_norm(diag, driver, beta))
        _assert_bounds_the_norm(diag, driver, beta, spectral_norm(diag, driver, beta, warm))


def test_maxcut_spectral_flags_are_fixed_by_width():
    # summary.json states these flags instead of computing them; check the
    # claims by brute force on random weighted graphs, negative weights too
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        for _ in range(4):
            edges = [(u, v, rng.normal()) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.6]
            diag = maxcut_hamiltonian(Graph.from_edges(n, edges)).diag
            assert np.unique(diag).size < diag.size  # every level repeats
            s = np.sort(diag)
            i, j = np.triu_indices(s.size, k=1)
            gaps = np.sort(s[j] - s[i])
            assert bool(np.any(np.diff(gaps) <= 1e-12)) == (n >= 2)
            coupling = dense_driver(driver_x(n).terms, n)
            off_diagonal = coupling[~np.eye(1 << n, dtype=bool)]
            assert bool(np.all(off_diagonal != 0.0)) == (n == 1)


def test_maxcut_rejects_oversized_instance():
    g = Graph(17)
    with pytest.raises(ValueError):
        maxcut_hamiltonian(g)
