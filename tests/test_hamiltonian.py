import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from falqon.graphs import Graph, erdos_renyi, max_cut_brute_force, reference_instance
from falqon.hamiltonian import (
    DiagonalHamiltonian,
    DriverHamiltonian,
    driver_x,
    ground_energy,
    maxcut_hamiltonian,
    spectral_norm,
)

from oracles import dense_driver, dense_spectral_norm, weighted_graphs

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


def test_driver_validates_terms():
    with pytest.raises(ValueError):
        DriverHamiltonian(2, ((0, 1.0), (0, 2.0)))
    with pytest.raises(ValueError):
        DriverHamiltonian(2, ((2, 1.0),))


def test_spectral_norm_diagonal_only():
    diag = maxcut_hamiltonian(K2)
    assert abs(spectral_norm(diag, driver_x(2), 0.0) - 1.0) < 1e-8


def test_spectral_norm_driver_only():
    diag = DiagonalHamiltonian(3, np.zeros(8))
    assert abs(spectral_norm(diag, driver_x(3), 1.0) - 3.0) < 1e-8


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


def test_spectral_norm_with_a_missing_driver_term_matches_dense():
    # a driver that leaves a qubit out splits N into blocks; the warm dict
    # is then left alone and every norm still matches the oracle
    rng = np.random.default_rng(41)
    for n in (2, 3, 5):
        for missing in (0, n - 1):
            driver = DriverHamiltonian(n, tuple((q, rng.uniform(-2, 2))
                                                for q in range(n) if q != missing))
            edges = [(u, v, rng.normal()) for u in range(n) for v in range(u + 1, n)]
            for diag in (maxcut_hamiltonian(Graph.from_edges(n, edges)),
                         DiagonalHamiltonian(n, rng.normal(size=1 << n))):
                warm = {}
                for beta in (0.7, 0.71, -0.71, 0.0, 0.05, 2.5):
                    want = dense_spectral_norm(diag.diag, driver.terms, n, beta)
                    got = spectral_norm(diag, driver, beta, warm)
                    assert abs(got - want) <= 1e-10 * max(1.0, want), (n, missing, beta)
                    assert got >= want - 1e-12 * max(1.0, want), (n, missing, beta)
                assert warm == {}


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
    assert np.all(warm[-1] > 0.0) and abs(np.linalg.norm(warm[-1]) - 1.0) <= 1e-12


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
