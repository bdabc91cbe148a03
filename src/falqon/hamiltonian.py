"""MaxCut cost Hamiltonian, transverse-field driver, ground space and norm.

Both operators are kept in structured form. The cost Hamiltonian is diagonal
in the computational basis and stored as its diagonal vector; the driver is
the transverse field sum_q X_q, stored as its width. Everything in this
module works through matrix-vector products on those structures; no operator
is ever built as a 2^n x 2^n matrix, and the norm solver forms every
driver product with `statevector.driver_matvec`.

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
from .statevector import driver_matvec, register_width

#: Eigenvalues closer than this count as degenerate.
DEGENERACY_TOL = 1e-12

#: A norm solve stops once its Collatz-Wielandt upper bound is within this
#: fraction of the top Ritz value.
CERTIFY_GAP = 1e-10


@dataclass(frozen=True, eq=False)
class DiagonalHamiltonian:
    """Operator diagonal in the computational basis, stored as its diagonal."""

    n_qubits: int
    diag: np.ndarray

    def __post_init__(self) -> None:
        n = register_width(self.n_qubits)
        d = np.ascontiguousarray(self.diag, dtype=np.float64)
        if d.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} diagonal entries, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("diagonal entries must be finite")
        vars(self).update(n_qubits=n, diag=d)

    @functools.cached_property
    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct diagonal values and, per basis index, the position of
        its value among them (``values[index] == diag``); computed once. A
        MaxCut diagonal has at most |E|+1, so phases are evaluated per level."""
        return np.unique(self.diag, return_inverse=True)

    @functools.cached_property
    def complement_invariant(self) -> bool:
        """Whether diag[x] and diag[2^n-1-x] have equal bits for every x, as
        complementing x reverses the index; bits, not values, because
        0.0 == -0.0. Every MaxCut diagonal has it (see `statevector`)."""
        bits = self.diag.view(np.uint64)
        return bool(np.array_equal(bits, bits[::-1]))

    @property
    def peak(self) -> float:
        """max|diag|, the operator's norm, read from the two ends of ``levels``."""
        values = self.levels[0]
        return max(-float(values[0]), float(values[-1]))


@dataclass(frozen=True)
class DriverHamiltonian:
    """The transverse field sum_q X_q on ``n_qubits`` qubits."""

    n_qubits: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_qubits", register_width(self.n_qubits))

    @property
    def terms(self) -> tuple[tuple[int, float], ...]:
        """(qubit, weight) pairs, every weight 1.0, as the dense oracles take them."""
        return tuple((q, 1.0) for q in range(self.n_qubits))


def maxcut_hamiltonian(graph: Graph) -> DiagonalHamiltonian:
    """Cost Hamiltonian whose diagonal entry at x is minus the cut value of x."""
    n = register_width(graph.n_nodes)  # before the 2^n arrays are allocated
    idx = np.arange(1 << n, dtype=np.int64)
    diag = np.zeros(1 << n, dtype=np.float64)
    for u, v, w in graph.edges:
        z_u = 1.0 - 2.0 * ((idx >> u) & 1)
        z_v = 1.0 - 2.0 * ((idx >> v) & 1)
        diag += (0.5 * w) * (z_u * z_v - 1.0)
    return DiagonalHamiltonian(n, diag)


def driver_x(n: int) -> DriverHamiltonian:
    """Transverse-field driver sum_q X_q on n qubits."""
    return DriverHamiltonian(n)


def ground_energy(diag: DiagonalHamiltonian) -> tuple[float, list[int]]:
    """Minimum diagonal entry and every basis index within DEGENERACY_TOL of it."""
    lo = float(diag.diag.min())
    idxs = np.flatnonzero(diag.diag <= lo + DEGENERACY_TOL)
    return lo, [int(i) for i in idxs]


def spectral_norm(diag: DiagonalHamiltonian, driver: DriverHamiltonian,
                  beta: float, warm: dict | None = None) -> float:
    """2-norm of M = H_p + beta*H_d as a certified Perron root.

    Conjugating by Z on every qubit flips the sign of H_d, so beta*H_d is
    similar to both A = |beta| sum_q X_q and -A, and the spectrum of M is
    that of D + A and minus that of -D + A (D the cost diagonal). Hence
    ||M|| = max(lambda_max(N-), lambda_max(N+)) with N-/+ = -/+D + A,
    matrices with nonnegative off-diagonal entries. When no diagonal entry
    is positive (every MaxCut instance with nonnegative weights) N-
    dominates N+ entrywise and is the only problem solved; no negative
    entry leaves N+ alone; mixed signs solve both.

    Each top eigenvalue comes from Lanczos with full reorthogonalisation,
    whose steps form A x as `driver_matvec` of the coupling times x, as the
    certificate does, so both apply one floating-point operator.
    Its top Ritz vector, made positive, is certified: for any positive x
    the Collatz-Wielandt maximum max_i (Nx)_i / x_i, padded for rounding
    (`_collatz_wielandt`), bounds lambda_max(N) from above, and the smallest
    such bound is the only value a solve returns. At small |beta| the
    certificate first rebuilds the tiny entries that Lanczos gets wrong. A
    solve that never sees a positive vector bounds by +inf, which the
    triangle ceiling below replaces, so no result is below the norm.

    ``warm`` carries each problem's last solve between calls on the same
    operators: a dict, initially empty, that maps the sign of each problem
    to its unit Perron vector and the Lanczos step its solve stopped at.
    This call starts each problem from that vector, checks for convergence
    from four steps before that stop on (`_perron_root`) and replaces the
    entry. The X terms connect every basis state, so N is irreducible and
    its positive Perron vector overlaps any positive start. At beta = 0 the
    norm is max|diag| exactly, read from the ends of ``diag.levels``. The
    operator is scaled by a power of two near the triangle ceiling
    max|diag| + n*|beta|, which also caps the result, so tiny and subnormal
    inputs lose no digits. A beta whose ceiling is not finite is refused.
    """
    if diag.n_qubits != driver.n_qubits:
        raise ValueError(f"operator widths differ: {diag.n_qubits} vs {driver.n_qubits} qubits")
    beta = float(beta)
    ceiling = diag.peak + abs(beta) * driver.n_qubits
    if not math.isfinite(ceiling):  # a NaN or infinite beta, or one too large for any norm
        raise ValueError(f"beta must be finite, and small enough for a finite norm, got {beta}")
    exp = math.frexp(ceiling)[1]  # scaling by 2^-exp is exact and puts the ceiling in [1/2, 1)
    coupling = math.ldexp(abs(beta), -exp)
    if coupling == 0.0:  # beta = 0, or a coupling that vanishes beside the diagonal
        return diag.peak
    values = diag.levels[0]
    ends = (-1,) if values[-1] <= 0.0 else (1,) if values[0] >= 0.0 else (-1, 1)
    norm, warm = 0.0, {} if warm is None else warm
    for sign in ends:
        root, warm[sign] = _perron_root(np.ldexp(sign * diag.diag, -exp), coupling, warm.get(sign))
        norm = max(norm, math.ldexp(root, exp))
    return min(norm, ceiling)


def _perron_root(d: np.ndarray, coupling: float,
                 start: tuple[np.ndarray, int] | None) -> tuple[float, tuple[np.ndarray, int]]:
    """Collatz-Wielandt upper bound on lambda_max(N) for N = diag(d) +
    c sum_q X_q (c > 0, |d| < 1), and the warm entry it leaves: the unit
    Perron vector the bound came from and the step the solve stopped at.

    Lanczos with full reorthogonalisation (classical Gram-Schmidt, twice)
    from the vector of ``start``, a previous solve's warm entry, or from
    the uniform vector. The tridiagonal eigh runs on even steps from that
    entry's stop - 4 on (from step 0 when cold), where one certificate
    round is tried once the top Ritz residual is at most 1e-9 of theta; a
    bound within CERTIFY_GAP of theta is returned. A failed check leaves no
    state behind, so skipping checks that would fail changes no bit; a
    solve that could stop before stop - 4 runs on and returns another bound,
    certified the same way. The eigh runs on any other step only when that
    step is the last or its off-diagonal entry is at most 1e-9, which may
    mean the Krylov space stopped growing; any other stop an odd step would
    find is found one step later. Once the residual is at most 1e-12 or the
    Krylov space stops growing (within 2^n steps), n rounds run and their
    smallest bound is returned.
    """
    dim = d.size
    basis = np.empty((dim, dim))  # one row per Krylov vector; unused rows stay untouched
    basis[0], stop = start or (np.full(dim, dim ** -0.5), 0)
    alpha, off = np.zeros(dim), np.zeros(dim)
    for k in range(dim):
        v = basis[k]
        w = driver_matvec(coupling * v)
        w += d * v
        alpha[k] = v @ w
        span = basis[:k + 1]
        for _ in range(2):  # classical Gram-Schmidt, twice
            w -= span.T @ (span @ w)
        off[k] = norm = math.sqrt(w @ w)  # the value np.linalg.norm computes, without its overhead
        last = k + 1 == dim
        # A step is skipped only while off[k] is clearly nonzero (N has norm
        # below 1), so that dividing by it below is safe.
        if (k % 2 == 0 and k >= stop - 4) or last or norm <= 1e-9:
            # eigh reads only the lower triangle of the tridiagonal matrix
            tri = np.diag(alpha[:k + 1])
            tri.flat[k + 1::k + 2] = off[:k]  # the subdiagonal
            theta, s = np.linalg.eigh(tri)
            top, resid = float(theta[-1]), float(norm * abs(s[-1, -1]))
            converged = last or resid <= 1e-12 * top
            if converged or (resid <= 1e-9 * top and k % 2 == 0):
                x = np.abs(span.T @ s[:, -1])
                rounds = dim.bit_length() - 1 if converged else 1
                bound, x = _collatz_wielandt(d, coupling, x, top, rounds)
                if converged or bound - top <= CERTIFY_GAP * top:
                    return bound, (x / np.linalg.norm(x), k)
        np.divide(w, norm, out=basis[k + 1])
    raise AssertionError("unreachable: the Krylov space is exhausted within 2^n steps")


def _collatz_wielandt(d: np.ndarray, coupling: float, x: np.ndarray, top: float,
                      rounds: int) -> tuple[float, np.ndarray]:
    """Smallest Collatz-Wielandt bound on lambda_max(N) over ``rounds``
    rounds from x, +inf when no round's vector is positive, and the vector
    that gave it.

    Each round forms a = Ax with A = c sum_q X_q, as `driver_matvec` of the
    rounded products fl(c*x_j), and, when x > 0, the bound
    max_i (d_i + a_i/x_i). The two GEMMs multiply the n nonnegative terms of
    a_i by exact 1.0s and the rest by exact zeros and sum them in any order,
    fused or not; every such product is exact, so a_i is the n terms summed
    in some order, within gamma_{n-1} of their exact sum, where
    gamma_k = k*u/(1 - k*u) for unit roundoff u. With the rounding of each
    fl(c*x_j), one more each for the quotient and the sum, and at most
    u*||A|| <= u from rounding c, lambda_max(N) exceeds the computed maximum
    by at most gamma_{n+6} * (2 + max_i a_i/x_i), the pad added. The rounds
    stop at a bound within CERTIFY_GAP of the Ritz value ``top``; before any
    further round x_i becomes a_i / (top - d_i), the fixed-point form of
    N x = lambda x, which rebuilds small entries from their larger neighbours
    to full relative accuracy. Only entries whose shift top - d_i exceeds half
    the gap between the two highest distinct values of d are rebuilt (none
    when d is constant): the top level's shifts may be near zero, and its
    entries are the large ones as c -> 0.
    """
    eps = (d.size.bit_length() - 1 + 6) * 2.0 ** -53
    gamma = eps / (1.0 - eps)
    best, best_x = math.inf, x
    for i in range(rounds):
        a = driver_matvec(coupling * x)
        if x.min() > 0.0:
            ratio = a / x
            bound = float((d + ratio).max()) + gamma * (2.0 + float(ratio.max()))
            if bound < best:
                best, best_x = bound, x
            if bound - top <= CERTIFY_GAP * top:
                break
        if i + 1 == rounds:  # nothing reads a refinement after the last round
            break
        if i == 0:  # the first refinement; later rounds reuse its shifts
            shift, below = top - d, d[d < d.max()]
            refine = shift > ((d.max() - below.max()) / 2 if below.size else math.inf)
        x = np.divide(a, shift, out=x.copy(), where=refine)
        x /= x.max()
    return best, best_x
