"""Dense complex statevector and the structured operations the feedback loop needs.

This is deliberately not a general gate simulator. The closed-loop optimizer
only ever applies two unitaries, a diagonal phase e^{-i*scale*H_p} and a
product of single-qubit X rotations e^{-i*angle*sum_q X_q}, and only ever
reads three scalars back out of the state (a diagonal expectation, the
driver/problem commutator expectation, an inner product). Those are the
operations provided, each costing O(2^n) per single-qubit factor. A
`StateVector` a caller builds is checked when constructed; a kernel checks
its scalar on entry and wraps its fresh result unchecked (`_state`), and
`engine.run` and `engine.replay` check the norm of the state they hand out.

Per qubit, the X rotation makes three numpy calls on the bit-flipped view
``view[:, ::-1, :]`` (``cross = s*flipped``, ``view *= c``, ``view += cross``)
and the `A` readout one (``hy += flipped``); the phase takes ``exp``
once per distinct diagonal value (`DiagonalHamiltonian.levels`, at most
|E|+1 for MaxCut) and gathers. Each amplitude gets the same floating-point
operations as the per-pair form c*lo + s*hi, s*lo + c*hi with one exp per
entry, up to the operand order of commutative IEEE products and sums, so
the results are bit-identical to it. The views of both are built once per
register size, half flag and thread (`_plan`) over two buffers of at most
2^12 entries, under 0.4 MiB per thread in all; each call copies its input
in and returns a fresh array that shares none of them. `layer_rows`, the
batched layer, makes the same calls in place on a block of rows, with each
row's phase table and its c and s from `math.cos`/`math.sin` broadcast over
the (rows, -1, 2, 2^q) views, so every amplitude meets the per-state
operands and each row is bit-identical to the per-state kernels; its one
buffer, the cross block, lives for one call. The norm solver's
`driver_matvec` is instead two GEMMs on blocks cached per register size.

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

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .rng import exact_int

if TYPE_CHECKING:
    from .hamiltonian import DiagonalHamiltonian, DriverHamiltonian

#: Register cap for the whole package. Closed-loop cost grows with 2^n (and
#: with depth^2 for independent errors), and the norm reserves room for 2^n
#: Krylov vectors of 2^n entries: 134 MB at 12 qubits, touched row by row.
MAX_QUBITS = 12

#: Accepted deviation of |amplitudes| from 1 in `check_norm`.
NORM_TOL = 1e-10

#: Per thread, `_plan`'s buffers and views keyed by (size, half).
_plans = threading.local()


def register_width(n) -> int:
    """``n`` as a register width, an int in [1, MAX_QUBITS], or a ValueError naming it."""
    if not 1 <= (n := exact_int(n, "qubit count")) <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    return n


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
        n = register_width(self.n_qubits)
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} amplitudes for {n} qubits, got shape {amps.shape}")
        vars(self).update(n_qubits=n, amplitudes=amps)
        check_norm(self)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


def _check_width(n_op: int, state: StateVector, what: str) -> None:
    if n_op != state.n_qubits:
        raise ValueError(
            f"{what} acts on {n_op} qubits but the state has {state.n_qubits}"
        )


def check_norm(state: StateVector) -> StateVector:
    """``state``, or a ValueError if its norm is off 1 by more than NORM_TOL."""
    nrm = math.sqrt(np.vdot(state.amplitudes, state.amplitudes).real)
    if not abs(nrm - 1.0) <= NORM_TOL:  # NaN fails too
        raise ValueError(f"amplitudes have norm {nrm!r}, not a unit state")
    return state


def _state(n: int, amps: np.ndarray, symmetric: bool) -> StateVector:
    state = object.__new__(StateVector)
    vars(state).update(n_qubits=n, amplitudes=amps, symmetric=symmetric)
    return state


def uniform_state(n: int) -> StateVector:
    """Equal superposition of all 2^n basis states, amplitude 2^(-n/2)."""
    n = register_width(n)
    dim = 1 << n
    return _state(n, np.full(dim, dim ** -0.5, dtype=np.complex128), True)


def apply_diagonal_phase(state: StateVector, diag: "DiagonalHamiltonian",
                         scale: float) -> StateVector:
    """Apply e^{-i * scale * H_p} for a diagonal H_p.

    Elementwise exact: amplitude x picks up the phase e^{-i*scale*diag[x]},
    evaluated once per distinct diagonal value and gathered.
    """
    _check_width(diag.n_qubits, state, "diagonal Hamiltonian")
    if not math.isfinite(abs(scale := float(scale)) * diag.peak):
        raise ValueError(f"phase scale {scale!r} gives a non-finite phase")
    values, index = diag.levels
    phases = np.exp((-1j * scale) * values)[index]
    return _state(state.n_qubits, state.amplitudes * phases,
                  state.symmetric and diag.complement_invariant)


def _flips(buf: np.ndarray, half: bool):
    """Per qubit, the last axis of ``buf`` as (-1, 2, 2^q) and its bit-flipped view. On a
    half register the top qubit comes last and pairs that axis with its reverse."""
    for q in range(buf.shape[-1].bit_length() - 1):
        view = buf.reshape(*buf.shape[:-1], buf.shape[-1] >> (q + 1), 2, 1 << q)
        yield view, view[..., ::-1, :]
    if half:
        yield buf, buf[..., ::-1]


def _plan(size: int, half: bool):
    """This thread's complex work buffer for ``size`` entries and its
    per-qubit (view, flipped, cross) triples over it and a cross buffer,
    built once."""
    plans, key = vars(_plans), (size, half)
    if key not in plans:
        buf = np.empty(size, dtype=np.complex128)
        tmp = np.empty_like(buf)
        plans[key] = buf, [(view, flipped, tmp.reshape(view.shape))
                           for view, flipped in _flips(buf, half)]
    return plans[key]


def apply_x_rotations(state: StateVector, driver: "DriverHamiltonian",
                      angle: float) -> StateVector:
    """Apply e^{-i * angle * sum_q X_q}.

    The terms commute, so the exponential factorizes exactly into one
    rotation per qubit: cos(angle) on the diagonal and -i*sin(angle)
    between the bit-flipped pairs. No Trotter error is introduced here.
    A symmetric state is rotated on its lower half and mirrored.
    """
    _check_width(driver.n_qubits, state, "driver Hamiltonian")
    if not math.isfinite(angle := float(angle)):
        raise ValueError(f"rotation angle must be finite, got {angle!r}")
    half = state.symmetric
    h, steps = _plan(state.dim >> half, half)
    h[:] = state.amplitudes[:h.size]
    # 0-d arrays, which the ufuncs take without converting a Python scalar
    # on every call; c is cast to complex exactly as the ufunc would cast it
    c = np.array(math.cos(angle), dtype=np.complex128)
    s = np.array(-1j * math.sin(angle))
    for view, flipped, cross in steps:
        np.multiply(flipped, s, out=cross)  # s*hi | s*lo
        view *= c
        view += cross  # c*lo + s*hi | c*hi + s*lo
    amps = np.concatenate((h, h[::-1])) if half else h.copy()
    return _state(state.n_qubits, amps, half)


def layer_rows(rows: np.ndarray, diag: "DiagonalHamiltonian", scales: np.ndarray,
               angles: np.ndarray) -> None:
    """Apply e^{-i*angles[r]*sum_q X_q} e^{-i*scales[r]*H_p} in place to each row r of
    ``rows``, full rows of 2^n entries or the lower halves of symmetric states under a
    `complement_invariant` diagonal, with the operations of the per-state kernels."""
    n, width, peak = diag.n_qubits, rows.shape[-1], diag.peak
    if (half := width != 1 << n) and not (width << 1 == 1 << n and diag.complement_invariant):
        raise ValueError(f"{width} entries are no full or half row under this diagonal")
    if bad := [x for x in scales.tolist() if not math.isfinite(abs(x) * peak)]:
        raise ValueError(f"phase scale {bad[0]!r} gives a non-finite phase")
    if bad := [x for x in angles.tolist() if not math.isfinite(x)]:
        raise ValueError(f"rotation angle must be finite, got {bad[0]!r}")
    values, index = diag.levels
    phases = np.exp(np.array([-1j * x for x in scales.tolist()])[:, None] * values)
    rows *= phases[:, index[:width]]
    c = np.array([math.cos(x) for x in angles.tolist()], dtype=np.complex128)
    s = np.array([-1j * math.sin(x) for x in angles.tolist()], dtype=np.complex128)
    cross = np.empty_like(rows)
    for view, flipped in _flips(rows, half):
        per_row = (-1,) + (1,) * (view.ndim - 1)
        np.multiply(flipped, s.reshape(per_row), out=(out := cross.reshape(view.shape)))
        view *= c.reshape(per_row)
        view += out


@functools.cache
def _driver_blocks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`driver_matvec`'s read-only blocks (lo, hi) for n qubits, built once."""
    k = n // 2
    lo, hi = np.zeros((1 << k, 1 << k)), np.zeros((1 << (n - k),) * 2)
    for q in range(n):
        block, bit = (lo, q) if q < k else (hi, q - k)
        i = np.arange(block.shape[0])
        block[i, i ^ (1 << bit)] = 1.0
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


def driver_matvec(amplitudes: np.ndarray) -> np.ndarray:
    """sum_q X_q times a real or complex buffer of 2^n entries, as a fresh
    array: with k = n // 2, sum_q X_q = I (x) lo + hi (x) I, two GEMMs on x
    viewed as a (2^(n-k), 2^k) matrix whose rows index the high qubits.
    ``lo`` (2^k square) holds 1.0 at (i, i ^ 2^q) for the qubits q < k,
    ``hi`` the same for q >= k shifted down by k; 64 KiB together at n = 12."""
    lo, hi = _driver_blocks(amplitudes.size.bit_length() - 1)
    v = amplitudes.reshape(hi.shape[0], lo.shape[0])
    return (v @ lo + hi @ v).ravel()


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
    half = state.symmetric and diag.complement_invariant
    y, steps = _plan(amps.size >> half, half)
    np.multiply(diag.diag[:y.size], amps[:y.size], out=y)
    hy = steps[0][2].reshape(-1)  # the first step's cross view spans its whole buffer
    hy.fill(0)
    for _, flipped, o in steps:  # on a half register the top qubit comes last
        o += flipped
    z = np.vdot(amps, np.concatenate((hy, hy[::-1])) if half else hy)
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
