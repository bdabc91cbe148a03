"""MaxCut cost Hamiltonian, transverse-field driver, ground space and norm.

Both operators are kept in structured form. The cost Hamiltonian is diagonal
in the computational basis and stored as its diagonal vector; the driver is a
sum of weighted single-qubit X terms stored as (qubit, weight) pairs.
Everything in this module works through matrix-vector products on those
structures, no 2^n x 2^n matrix is ever materialized.

Encoding: for an edge (u, v, w) and partition bitstring x, the cost diagonal
picks up w*(z_u*z_v - 1)/2 where z_q = +1 when bit q of x is 0 and -1 when it
is 1. Summed over edges this equals minus the cut value of x, so the ground
energy is minus the maximum cut and optimal partitions sit in the ground
space. Complementing a partition keeps its cut, so every level of such a
diagonal repeats exactly; spectral facts that hold for every MaxCut
instance are therefore stated where they are reported, not computed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .rng import SplitMix64, derive_key
from .statevector import MAX_QUBITS, driver_matvec

#: Eigenvalues closer than this count as degenerate.
DEGENERACY_TOL = 1e-12

_STREAM_POWER_ITERATION = 21

#: Block width for the norm iteration. Must exceed the extreme-level
#: degeneracy of the cost diagonal for fast convergence; 8 covers the
#: bit-flip pair times typical graph-automorphism multiplicity.
_POWER_BLOCK = 8


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


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; carries the last norm estimate."""

    def __init__(self, message: str, last_value: float | None = None):
        super().__init__(message)
        self.last_value = last_value


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


def spectral_norm(diag: DiagonalHamiltonian, driver: DriverHamiltonian,
                  beta: float, *, max_iter: int = 5000,
                  rtol: float = 1e-10) -> float:
    """2-norm of H_p + beta*H_d by block power iteration on the squared operator.

    M = H_p + beta*H_d is real symmetric, so ||M||_2 is the square root of
    the top eigenvalue of M^2 and iterating with M^2 is insensitive to the
    sign of the extreme eigenvalue. A single iterate is not enough here: the
    extreme level of a MaxCut diagonal is usually degenerate, and a small
    driver admixture splits it only at second order, leaving M^2 with a
    cluster of leading eigenvalues a part in 1e4..1e8 apart. A lone vector
    then needs on the order of 1/gap iterations, far past any sane cap.
    Iterating a block of _POWER_BLOCK orthonormal vectors and reading off the
    top Ritz value sidesteps that: once the block covers the cluster, the
    rate is set by the gap to the first eigenvalue below the block, which
    stays macroscopic.

    The start block is seeded deterministically; the loop stops once
    successive top Ritz values agree to ``rtol`` and raises
    PowerIterationError (with the last estimate) otherwise.
    """
    if diag.n_qubits != driver.n_qubits:
        raise ValueError(
            f"operator widths differ: {diag.n_qubits} vs {driver.n_qubits} qubits"
        )
    d = diag.diag
    b = float(beta)
    terms = driver.terms
    if float(np.max(np.abs(d))) + abs(b) * driver.abs_weight_sum == 0.0:
        return 0.0

    def matvec(v: np.ndarray) -> np.ndarray:
        if b == 0.0:
            return d * v
        return d * v + b * driver_matvec(v, terms)

    dim = d.size
    width = min(dim, _POWER_BLOCK)
    rng = SplitMix64(derive_key(dim, _STREAM_POWER_ITERATION))

    def fresh_start() -> np.ndarray:
        block = np.fromiter(
            (rng.random() - 0.5 for _ in range(dim * width)), np.float64,
            count=dim * width,
        ).reshape(dim, width)
        q, _ = np.linalg.qr(block)
        return q

    basis = fresh_start()
    theta = 0.0
    theta_prev = None
    for _ in range(max_iter):
        image = np.empty_like(basis)
        for j in range(width):
            image[:, j] = matvec(matvec(basis[:, j]))
        if float(np.linalg.norm(image)) == 0.0:
            # the block landed in the kernel of M^2; restart, don't divide by zero
            basis = fresh_start()
            theta_prev = None
            continue
        # Rayleigh-Ritz on the current block: top eigenvalue of the projected
        # operator is the best estimate of the top eigenvalue of M^2
        projected = basis.T @ image
        projected = 0.5 * (projected + projected.T)
        theta = float(np.linalg.eigvalsh(projected)[-1])
        if theta_prev is not None and abs(theta - theta_prev) <= rtol * max(abs(theta), 1.0):
            return math.sqrt(max(theta, 0.0))
        theta_prev = theta
        basis, _ = np.linalg.qr(image)
    raise PowerIterationError(
        f"power iteration did not converge in {max_iter} iterations; "
        f"last Rayleigh quotient {theta!r}",
        last_value=math.sqrt(max(theta, 0.0)),
    )
