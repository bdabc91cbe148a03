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
the results are bit-identical to it. The rotation's views are built once
per register size, half flag and thread (`_plan`) over two buffers of at
most 2^12 complex entries, under 0.5 MiB per thread in all; each call
copies its input in and returns a fresh array that shares none of them.

Half register. Complementing every bit of x maps index x to 2^n-1-x. The
uniform state and every MaxCut diagonal are invariant under it, and the
driver commutes with it, so every state the feedback loop prepares has
psi(x) == psi(2^n-1-x). `StateVector.symmetric` marks the states this module
built with that property bit for bit: `uniform_state` sets it, the rotation
keeps it and the phase keeps it when the diagonal is
`DiagonalHamiltonian.complement_invariant`. On such a state the rotation
and the driver product of `a_value` (which also needs an invariant
diagonal) run on the lower half h = psi[:2^(n-1)]: qubits 0..n-2 pair
entries inside h as above, and the top qubit pairs h with ``h[::-1]``,
since x + 2^(n-1) is the complement of 2^(n-1)-1-x. The result is mirrored
into the upper half. This is bit-identical to the full kernel: given an
input with mirrored bits, the full kernel computes entry 2^n-1-x with the
same operations on the mirrored operands of entry x, so its upper half is
its lower half reversed. `a_value` rebuilds the full vector before its one
``vdot``, so the reduction is the full path's too.

Basis convention: basis index i encodes the bitstring whose qubit-q bit is
(i >> q) & 1, so qubit 0 is the least significant bit of the index.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
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

#: Per thread, `_plan`'s buffers and views keyed by (size, half).
_plans = threading.local()


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitude vector over ``n_qubits`` qubits.

    Instances are immutable; every operation below returns a fresh state and
    never aliases the input buffer. ``symmetric``, set only by this module,
    records that amplitudes[x] and amplitudes[2^n-1-x] have equal bits.
    """

    n_qubits: int
    amplitudes: np.ndarray
    symmetric: bool = field(default=False, init=False)

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
        nrm = math.sqrt(np.vdot(amps, amps).real)
        if not abs(nrm - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"amplitudes have norm {nrm!r}, not a unit state")

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


def _check_width(n_op: int, state: StateVector, what: str) -> None:
    if n_op != state.n_qubits:
        raise ValueError(
            f"{what} acts on {n_op} qubits but the state has {state.n_qubits}"
        )


def _state(n: int, amps: np.ndarray, symmetric: bool) -> StateVector:
    state = StateVector(n, amps)
    object.__setattr__(state, "symmetric", symmetric)
    return state


def uniform_state(n: int) -> StateVector:
    """Equal superposition of all 2^n basis states, amplitude 2^(-n/2)."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in [1, {MAX_QUBITS}], got {n}")
    dim = 1 << n
    return _state(n, np.full(dim, dim ** -0.5, dtype=np.complex128), True)


def apply_diagonal_phase(state: StateVector, diag: "DiagonalHamiltonian",
                         scale: float) -> StateVector:
    """Apply e^{-i * scale * H_p} for a diagonal H_p.

    Elementwise exact: amplitude x picks up the phase e^{-i*scale*diag[x]},
    evaluated once per distinct diagonal value and gathered.
    """
    _check_width(diag.n_qubits, state, "diagonal Hamiltonian")
    values, index = diag.levels
    phases = np.exp((-1j * float(scale)) * values)[index]
    return _state(state.n_qubits, state.amplitudes * phases,
                  state.symmetric and diag.complement_invariant)


def _flips(buf: np.ndarray, half: bool):
    """Per qubit, ``buf`` as (-1, 2, 2^q) and its bit-flipped view. On a half
    register the top qubit comes last and pairs ``buf`` with ``buf[::-1]``."""
    for q in range(buf.size.bit_length() - 1):
        view = buf.reshape(-1, 2, 1 << q)
        yield view, view[:, ::-1, :]
    if half:
        yield buf, buf[::-1]


def _plan(size: int, half: bool):
    """This thread's work buffer for ``size`` amplitudes and its per-qubit
    (view, flipped, cross) triples over it and a cross buffer, built once."""
    plans = vars(_plans)
    if (size, half) not in plans:
        buf = np.empty(size, dtype=np.complex128)
        tmp = np.empty_like(buf)
        plans[size, half] = buf, [(view, flipped, tmp.reshape(view.shape))
                                  for view, flipped in _flips(buf, half)]
    return plans[size, half]


def apply_x_rotations(state: StateVector, driver: "DriverHamiltonian",
                      angle: float) -> StateVector:
    """Apply e^{-i * angle * sum_q X_q}.

    The terms commute, so the exponential factorizes exactly into one
    rotation per qubit: cos(angle) on the diagonal and -i*sin(angle)
    between the bit-flipped pairs. No Trotter error is introduced here.
    A symmetric state is rotated on its lower half and mirrored.
    """
    _check_width(driver.n_qubits, state, "driver Hamiltonian")
    half = state.symmetric
    h, steps = _plan(state.dim >> half, half)
    h[:] = state.amplitudes[:h.size]
    # 0-d arrays, which the ufuncs take without converting a Python scalar
    # on every call; c is cast to complex exactly as the ufunc would cast it
    c = np.array(math.cos(float(angle)), dtype=np.complex128)
    s = np.array(-1j * math.sin(float(angle)))
    for view, flipped, cross in steps:
        np.multiply(flipped, s, out=cross)  # s*hi | s*lo
        view *= c
        view += cross  # c*lo + s*hi | c*hi + s*lo
    amps = np.concatenate((h, h[::-1])) if half else h.copy()
    return _state(state.n_qubits, amps, half)


def driver_matvec(amplitudes: np.ndarray) -> np.ndarray:
    """Apply sum_q X_q to a raw amplitude buffer of 2^n entries.

    Works on real or complex buffers (the norm certificate uses real ones)
    and performs no normalization, so it is a plain matrix-vector product.
    """
    out = np.zeros_like(amplitudes)
    for view, flipped in _flips(amplitudes, False):
        o = out.reshape(view.shape)
        o += flipped
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
    construction, so only one structured matvec chain is needed; on a
    symmetric state and an invariant diagonal it runs on the lower half.
    """
    _check_width(diag.n_qubits, state, "diagonal Hamiltonian")
    _check_width(driver.n_qubits, state, "driver Hamiltonian")
    amps = state.amplitudes
    size = amps.size >> (state.symmetric and diag.complement_invariant)
    y = diag.diag[:size] * amps[:size]
    hy = driver_matvec(y)
    if size < amps.size:
        hy += y[::-1]  # the top qubit, added last as in the full sum
        hy = np.concatenate((hy, hy[::-1]))
    z = np.vdot(amps, hy)
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
