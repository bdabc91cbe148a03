"""Dense-matrix oracles the structured implementations are checked against.

Everything here goes the slow, obviously-correct way: build the full 2^n x 2^n
operators with Kronecker products, exponentiate them with scipy, and compute
expectations as literal matrix sandwiches. Intended for n <= a handful.

The ``reference_*`` kernels are the plain per-pair and elementwise forms of
the structured statevector kernels. They perform the same floating-point
operations per amplitude, so the fused kernels must match them bit for bit.
"""
import math

import numpy as np
from hypothesis import strategies as st
from scipy.linalg import expm

from falqon.graphs import Graph
from falqon.noise import NoiseKind
from falqon.rng import SplitMix64, derive_key

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def dense_x(q: int, n: int) -> np.ndarray:
    """X on qubit q (qubit 0 = least significant bit of the basis index)."""
    left = np.eye(1 << (n - 1 - q), dtype=complex)
    right = np.eye(1 << q, dtype=complex)
    return np.kron(left, np.kron(_X, right))


def dense_driver(terms, n: int) -> np.ndarray:
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for q, w in terms:
        h += w * dense_x(q, n)
    return h


def dense_problem(diag: np.ndarray) -> np.ndarray:
    return np.diag(np.asarray(diag, dtype=complex))


def dense_layer_unitary(diag, terms, n: int, beta: float, delta_t: float,
                        epsilon: float = 0.0) -> np.ndarray:
    """U_d(beta) U_p with both generator exponents scaled by (1 + epsilon)."""
    scale = (1.0 + epsilon) * delta_t
    u_p = expm(-1j * scale * dense_problem(diag))
    u_d = expm(-1j * scale * beta * dense_driver(terms, n))
    return u_d @ u_p


def dense_commutator_expectation(psi: np.ndarray, diag, terms, n: int) -> float:
    """<psi| i[H_d, H_p] |psi> computed from the full matrices."""
    h_d = dense_driver(terms, n)
    h_p = dense_problem(diag)
    comm = 1j * (h_d @ h_p - h_p @ h_d)
    val = np.vdot(psi, comm @ psi)
    assert abs(val.imag) < 1e-10
    return float(val.real)


def dense_spectral_norm(diag, terms, n: int, beta: float) -> float:
    m = dense_problem(diag) + beta * dense_driver(terms, n)
    return float(np.max(np.abs(np.linalg.eigvalsh(m))))


def random_unit_state(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def assert_equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, atol: float) -> None:
    k = int(np.argmax(np.abs(a)))
    assert abs(b[k]) > 1e-12, "reference amplitude vanished, cannot fix the phase"
    phase = a[k] / b[k]
    phase /= abs(phase)
    np.testing.assert_allclose(a, phase * b, atol=atol, rtol=0.0)


@st.composite
def weighted_graphs(draw, max_nodes: int = 6, weights=st.floats(-3.0, 3.0)):
    """Random graphs on 1..max_nodes nodes, weights drawn from ``weights``
    (by default [-3, 3], zero included)."""
    n = draw(st.integers(1, max_nodes))
    weight = st.one_of(st.none(), weights)
    edges = [(u, v, w) for u in range(n) for v in range(u + 1, n)
             if (w := draw(weight)) is not None]
    return Graph.from_edges(n, edges)


@st.composite
def beta_paths(draw, max_len: int = 10):
    """Control sequences as the feedback law makes them: slow drifts from a
    start in [-3, 3], with sign flips and exact zeros mixed in."""
    beta = draw(st.floats(-3.0, 3.0))
    path = []
    for step in draw(st.lists(st.sampled_from(("drift", "flip", "zero")),
                              min_size=1, max_size=max_len)):
        if step == "drift":
            beta += draw(st.floats(-0.05, 0.05))
        elif step == "flip":
            beta = -beta
        path.append(0.0 if step == "zero" else beta)
    return path


def reference_x_rotations(amplitudes: np.ndarray, terms, angle: float) -> np.ndarray:
    """e^{-i*angle*sum_q w_q X_q}, one qubit at a time on the (lo, hi) halves."""
    amps = np.array(amplitudes, dtype=complex)
    for q, w in terms:
        theta = float(angle) * w
        c = math.cos(theta)
        s = -1j * math.sin(theta)
        view = amps.reshape(-1, 2, 1 << q)
        lo = view[:, 0, :].copy()
        hi = view[:, 1, :]
        view[:, 0, :] = c * lo + s * hi
        view[:, 1, :] = s * lo + c * hi
    return amps


def reference_driver_matvec(amplitudes: np.ndarray, terms) -> np.ndarray:
    """sum_q w_q X_q applied as two half-slice updates per qubit."""
    out = np.zeros_like(amplitudes)
    for q, w in terms:
        a = amplitudes.reshape(-1, 2, 1 << q)
        o = out.reshape(-1, 2, 1 << q)
        o[:, 0, :] += w * a[:, 1, :]
        o[:, 1, :] += w * a[:, 0, :]
    return out


def reference_diagonal_phase(amplitudes: np.ndarray, diag, scale: float) -> np.ndarray:
    """e^{-i*scale*H_p} with one exp per basis index."""
    return amplitudes * np.exp((-1j * float(scale)) * np.asarray(diag, dtype=np.float64))


def reference_trajectory(model, depth: int, rebuild_index: int = 1) -> np.ndarray:
    """`noise.trajectory` one value at a time: one SplitMix64 step per layer, keyed by
    (seed, 101) for systematic errors and (seed, 202, rebuild_index) for independent
    ones, each value low + (high - low) * u on [-epsilon_bar, epsilon_bar)."""
    if model.kind is NoiseKind.NONE:
        return np.zeros(depth)
    streams = (101,) if model.kind is NoiseKind.SYSTEMATIC else (202, rebuild_index)
    rng = SplitMix64(derive_key(model.seed, *streams))
    low, high = -model.epsilon_bar, model.epsilon_bar
    return np.array([low + (high - low) * rng.random() for _ in range(depth)])
