"""MaxCut cost Hamiltonian, transverse-field driver, ground space and norm.

Both operators are kept in structured form. The cost Hamiltonian is diagonal
in the computational basis and stored as its diagonal vector; the driver is a
sum of weighted single-qubit X terms stored as (qubit, weight) pairs.
Everything in this module works through matrix-vector products on those
structures; no operator is ever built as a 2^n x 2^n matrix.

Encoding: for an edge (u, v, w) and partition bitstring x, the cost diagonal
picks up w*(z_u*z_v - 1)/2 where z_q = +1 when bit q of x is 0 and -1 when it
is 1. Summed over edges this equals minus the cut value of x, so the ground
energy is minus the maximum cut and optimal partitions sit in the ground
space. Complementing a partition keeps its cut, so every level of such a
diagonal repeats exactly; spectral facts that hold for every MaxCut
instance are therefore stated where they are reported, not computed.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .rng import SplitMix64, derive_key
from .statevector import MAX_QUBITS, driver_matvec

#: Eigenvalues closer than this count as degenerate.
DEGENERACY_TOL = 1e-12

_STREAM_POWER_ITERATION = 21


@dataclass(frozen=True, eq=False)
class DiagonalHamiltonian:
    """Operator diagonal in the computational basis, stored as its diagonal."""

    n_qubits: int
    diag: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        d = np.ascontiguousarray(self.diag, dtype=np.float64)
        if d.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} diagonal entries, got shape {d.shape}"
            )
        if not np.all(np.isfinite(d)):
            raise ValueError("diagonal entries must be finite")
        object.__setattr__(self, "diag", d)

    @functools.cached_property
    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct diagonal values and, per basis index, the position of
        its value among them (``values[index] == diag``); computed once. A
        MaxCut diagonal has at most |E|+1, so phases are evaluated per level."""
        return np.unique(self.diag, return_inverse=True)


@dataclass(frozen=True)
class DriverHamiltonian:
    """Sum of weighted single-qubit X terms, stored as (qubit, weight) pairs."""

    n_qubits: int
    terms: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        seen = set()
        for q, w in self.terms:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"term qubit {q} out of range for {self.n_qubits} qubits")
            if q in seen:
                raise ValueError(f"duplicate term on qubit {q}")
            if not math.isfinite(w):
                raise ValueError(f"term on qubit {q} has non-finite weight {w}")
            seen.add(q)

    @property
    def abs_weight_sum(self) -> float:
        """Sum of |weight|, which is exactly the spectral norm of the driver."""
        return float(sum(abs(w) for _, w in self.terms))


def maxcut_hamiltonian(graph: Graph) -> DiagonalHamiltonian:
    """Cost Hamiltonian whose diagonal entry at x is minus the cut value of x."""
    n = graph.n_nodes
    if n > MAX_QUBITS:
        raise ValueError(f"instance needs {n} qubits, cap is {MAX_QUBITS}")
    idx = np.arange(1 << n, dtype=np.int64)
    diag = np.zeros(1 << n, dtype=np.float64)
    for u, v, w in graph.edges:
        z_u = 1.0 - 2.0 * ((idx >> u) & 1)
        z_v = 1.0 - 2.0 * ((idx >> v) & 1)
        diag += (0.5 * w) * (z_u * z_v - 1.0)
    return DiagonalHamiltonian(n, diag)


def driver_x(n: int) -> DriverHamiltonian:
    """Transverse-field driver sum_q X_q with unit weights."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in [1, {MAX_QUBITS}], got {n}")
    return DriverHamiltonian(n, tuple((q, 1.0) for q in range(n)))


def ground_energy(diag: DiagonalHamiltonian) -> tuple[float, list[int]]:
    """Minimum diagonal entry and every basis index within DEGENERACY_TOL of it."""
    lo = float(diag.diag.min())
    idxs = np.flatnonzero(diag.diag <= lo + DEGENERACY_TOL)
    return lo, [int(i) for i in idxs]


@functools.cache
def _start_vector(dim: int) -> np.ndarray:
    """Seeded unit vector; random entries overlap every symmetry sector."""
    rng = SplitMix64(derive_key(dim, _STREAM_POWER_ITERATION))
    v = np.fromiter((rng.random() - 0.5 for _ in range(dim)), np.float64, count=dim)
    return v / np.linalg.norm(v)


def spectral_norm(diag: DiagonalHamiltonian, driver: DriverHamiltonian,
                  beta: float) -> float:
    """2-norm of M = H_p + beta*H_d by Lanczos with full reorthogonalisation.

    M is real symmetric, so for any weight sign ||M||_2 is the larger of
    |theta_min|, |theta_max| once those extreme Ritz values converge: both
    residuals at most 1e-12 times the estimate, or a Krylov space that
    stops growing (within 2^n steps). Ritz values sit inside the spectrum,
    so the result is padded by its residual and capped at the triangle
    ceiling max|diag| + |beta|*sum|w|, by which M is scaled throughout.
    """
    if diag.n_qubits != driver.n_qubits:
        raise ValueError(
            f"operator widths differ: {diag.n_qubits} vs {driver.n_qubits} qubits"
        )
    ceiling = float(np.max(np.abs(diag.diag))) + abs(float(beta)) * driver.abs_weight_sum
    if ceiling == 0.0:
        return 0.0
    # M / ceiling has its spectrum in [-1, 1], so tiny or subnormal inputs lose no digits
    d, b = diag.diag / ceiling, float(beta) / ceiling
    dim = d.size
    basis = np.empty((dim, dim))  # one row per Krylov vector; unused rows stay untouched
    basis[0] = _start_vector(dim)
    alpha, off = np.zeros(dim), np.zeros(dim)
    for k in range(dim):
        w = d * basis[k]
        if b != 0.0:
            w += b * driver_matvec(basis[k], driver.terms)
        alpha[k] = basis[k] @ w
        for _ in range(2):  # classical Gram-Schmidt, twice
            w -= basis[:k + 1].T @ (basis[:k + 1] @ w)
        off[k] = np.linalg.norm(w)
        # eigh reads only the lower triangle of the tridiagonal matrix
        theta, s = np.linalg.eigh(np.diag(alpha[:k + 1]) + np.diag(off[:k], -1))
        resid = off[k] * np.abs(s[-1, [0, -1]])
        if k + 1 == dim or resid.max() <= 1e-12 * max(-theta[0], theta[-1]):
            break
        basis[k + 1] = w / off[k]
    return ceiling * float(min(max(abs(theta[0]) + resid[0], abs(theta[-1]) + resid[1]), 1.0))
