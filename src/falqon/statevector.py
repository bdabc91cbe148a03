"""Dense complex statevector and the structured operations the feedback loop needs.

This is deliberately not a general gate simulator. The closed-loop optimizer
only ever applies two unitaries, a diagonal phase e^{-i*scale*H_p} and a
product of single-qubit X rotations e^{-i*angle*sum_q X_q}, and only ever
reads three scalars back out of the state (a diagonal expectation, the
driver/problem commutator expectation, an inner product). Those are the
operations provided, each costing O(2^n) per single-qubit factor.

Per qubit, the X rotation makes three numpy calls on the bit-flipped view
``view[:, ::-1, :]`` (``cross = s*flipped``, ``view *= c``, ``view += cross``)
and the driver matvec one (``out += flipped``); the phase takes ``exp``
once per distinct diagonal value (`DiagonalHamiltonian.levels`, at most
|E|+1 for MaxCut) and gathers. Each amplitude gets the same floating-point
operations as the per-pair form c*lo + s*hi, s*lo + c*hi with one exp per
entry, up to the operand order of commutative IEEE products and sums, so
the results are bit-identical to it.

Basis convention: basis index i encodes the bitstring whose qubit-q bit is
(i >> q) & 1, so qubit 0 is the least significant bit of the index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .hamiltonian import DiagonalHamiltonian, DriverHamiltonian

#: Register cap for the whole package. Closed-loop cost grows with 2^n (and
#: with depth^2 for independent errors), and the norm reserves room for 2^n
#: Krylov vectors of 2^n entries: 134 MB at 12 qubits, touched row by row.
MAX_QUBITS = 12

#: Accepted deviation of |amplitudes| from 1 when wrapping a StateVector.
NORM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitude vector over ``n_qubits`` qubits.

    Instances are immutable; every operation below returns a fresh state and
    never aliases the input buffer.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        n = self.n_qubits
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n}")
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << n,):
            raise ValueError(
                f"expected {1 << n} amplitudes for {n} qubits, got shape {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)
        nrm = float(np.linalg.norm(amps))
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"amplitudes have norm {nrm!r}, not a unit state")

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


def _check_width(n_op: int, state: StateVector, what: str) -> None:
    if n_op != state.n_qubits:
        raise ValueError(
            f"{what} acts on {n_op} qubits but the state has {state.n_qubits}"
        )


def uniform_state(n: int) -> StateVector:
    """Equal superposition of all 2^n basis states, amplitude 2^(-n/2)."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in [1, {MAX_QUBITS}], got {n}")
    dim = 1 << n
    return StateVector(n, np.full(dim, dim ** -0.5, dtype=np.complex128))


def apply_diagonal_phase(state: StateVector, diag: "DiagonalHamiltonian",
                         scale: float) -> StateVector:
    """Apply e^{-i * scale * H_p} for a diagonal H_p.

    Elementwise exact: amplitude x picks up the phase e^{-i*scale*diag[x]},
    evaluated once per distinct diagonal value and gathered.
    """
    _check_width(diag.n_qubits, state, "diagonal Hamiltonian")
    values, index = diag.levels
    phases = np.exp((-1j * float(scale)) * values)[index]
    return StateVector(state.n_qubits, state.amplitudes * phases)


def apply_x_rotations(state: StateVector, driver: "DriverHamiltonian",
                      angle: float) -> StateVector:
    """Apply e^{-i * angle * sum_q X_q}.

    The terms commute, so the exponential factorizes exactly into one
    rotation per qubit: cos(angle) on the diagonal and -i*sin(angle)
    between the bit-flipped pairs. No Trotter error is introduced here.
    """
    _check_width(driver.n_qubits, state, "driver Hamiltonian")
    amps = state.amplitudes.copy()
    tmp = np.empty_like(amps)
    c = math.cos(float(angle))
    s = -1j * math.sin(float(angle))
    for q in range(driver.n_qubits):
        view = amps.reshape(-1, 2, 1 << q)
        cross = np.multiply(view[:, ::-1, :], s, out=tmp.reshape(view.shape))  # s*hi | s*lo
        view *= c
        view += cross  # c*lo + s*hi | c*hi + s*lo
    return StateVector(state.n_qubits, amps)


def driver_matvec(amplitudes: np.ndarray) -> np.ndarray:
    """Apply sum_q X_q to a raw amplitude buffer of 2^n entries.

    Works on real or complex buffers (the norm certificate uses real ones)
    and performs no normalization, so it is a plain matrix-vector product.
    """
    out = np.zeros_like(amplitudes)
    for q in range(amplitudes.size.bit_length() - 1):
        o = out.reshape(-1, 2, 1 << q)
        o += amplitudes.reshape(o.shape)[:, ::-1, :]
    return out


def expectation_diagonal(state: StateVector, diag: "DiagonalHamiltonian") -> float:
    """<state| H_p |state> for a diagonal H_p, returned as a real number."""
    _check_width(diag.n_qubits, state, "diagonal Hamiltonian")
    amps = state.amplitudes
    val = np.vdot(amps, diag.diag * amps)
    if not abs(val.imag) <= 1e-10:
        raise AssertionError(f"diagonal expectation came out complex: {val!r}")
    return float(val.real)


def a_value(state: StateVector, diag: "DiagonalHamiltonian",
            driver: "DriverHamiltonian") -> float:
    """Expectation of i[H_d, H_p] in the given state.

    With z = <psi| H_d H_p |psi>, Hermiticity of both operators gives
    <psi| i[H_d, H_p] |psi> = i(z - conj(z)) = -2*Im(z), which is real by
    construction, so only one structured matvec chain is needed.
    """
    _check_width(diag.n_qubits, state, "diagonal Hamiltonian")
    _check_width(driver.n_qubits, state, "driver Hamiltonian")
    amps = state.amplitudes
    z = np.vdot(amps, driver_matvec(diag.diag * amps))
    val = -2.0 * float(z.imag)
    limit = 2.0 * diag.peak * driver.n_qubits
    if not abs(val) <= limit * (1.0 + 1e-12) + 1e-12:
        raise AssertionError(f"commutator expectation {val} exceeds operator bound {limit}")
    return val


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(
            f"states live on different registers: {a.n_qubits} vs {b.n_qubits} qubits"
        )
    z = complex(np.vdot(a.amplitudes, b.amplitudes))
    if not abs(z) <= 1.0 + 1e-10:
        raise AssertionError(f"inner product of unit states has |z| = {abs(z)}")
    return z
