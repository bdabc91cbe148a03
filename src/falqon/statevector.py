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

One kernel does each step once, on C-ordered (width, rows) blocks whose
columns are amplitude rows, so that the row axis is innermost: the phase,
one exp per distinct diagonal value (`DiagonalHamiltonian.levels`) and row,
gathered along the width axis; per qubit, ``cross = s*flipped``,
``view *= c``, ``view += cross`` on the (-1, 2, 2^q, rows) view and its
bit-flipped view, with c and s from `math.cos`/`math.sin` per row written
into two full tiles, so that no operand broadcasts; and `read_rows`, which
sums the driver product the same way and takes each row's `A` and cost with
one ``vdot`` per full row, copied out C-ordered. The engine calls only
`layer_rows` and `read_rows`, with views and work blocks (`_plan`) built
once per run, cell or replay; the per-state operations are one-column
calls. Each amplitude gets the operations of the per-pair form c*lo + s*hi,
s*lo + c*hi with one exp per entry, up to the operand order of commutative
IEEE products and sums, so every row is bit-identical to it in any block.
`driver_matvec`, the norm solver's product, is instead two GEMMs.

Half register. Complementing every bit of x maps index x to 2^n-1-x. The
uniform state is invariant under it and the driver commutes with it, so
under a `DiagonalHamiltonian.complement_invariant` diagonal, as every MaxCut
diagonal is, every state the feedback loop prepares has psi(x) ==
psi(2^n-1-x) bit for bit. The engine's blocks then hold each row as its
lower half h = psi[:2^(n-1)]: qubits 0..n-2 pair entries inside h, and the
top qubit pairs h with ``h[::-1]``, since x + 2^(n-1) is the complement of
2^(n-1)-1-x. This is bit-identical to the full kernel, which on mirrored
input computes entry 2^n-1-x with the same operations on the mirrored
operands of entry x; `read_rows` mirrors back. A block's width alone says
which it holds (`_half`). The per-state operations always take full rows,
so they are a reference that shares none of this shortcut.

Basis convention: basis index i encodes the bitstring whose qubit-q bit is
(i >> q) & 1, so qubit 0 is the least significant bit of the index.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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
#: Bound on |<a|b>| for accepted states a and b: their norms' product, each within NORM_TOL of 1
#: as computed, and the rounding of sums over 2^MAX_QUBITS entries, 16 unit roundoffs per entry.
PRODUCT_BOUND = (1.0 + NORM_TOL) ** 2 * (1.0 + 2.0 ** (MAX_QUBITS - 49))


def register_width(n) -> int:
    """``n`` as a register width, an int in [1, MAX_QUBITS], or a ValueError naming it."""
    if not 1 <= (n := exact_int(n, "qubit count")) <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    return n


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitude vector over ``n_qubits`` qubits.

    Instances are immutable; every operation below returns a fresh state and
    never aliases the input buffer.
    """

    n_qubits: int
    amplitudes: np.ndarray

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
        raise ValueError(f"{what} acts on {n_op} qubits but the state has {state.n_qubits}")


def check_norm(state: StateVector) -> StateVector:
    """``state``, or a ValueError if its norm is off 1 by more than NORM_TOL."""
    nrm = math.sqrt(np.vdot(state.amplitudes, state.amplitudes).real)
    if not abs(nrm - 1.0) <= NORM_TOL:  # NaN fails too
        raise ValueError(f"amplitudes have norm {nrm!r}, not a unit state")
    return state


def _state(n: int, amps: np.ndarray) -> StateVector:
    state = object.__new__(StateVector)
    vars(state).update(n_qubits=n, amplitudes=amps)
    return state


def uniform_state(n: int) -> StateVector:
    """Equal superposition of all 2^n basis states, amplitude 2^(-n/2)."""
    dim = 1 << (n := register_width(n))
    return _state(n, np.full(dim, dim ** -0.5, dtype=np.complex128))


def _half(block: np.ndarray, diag: "DiagonalHamiltonian") -> bool:
    """Whether ``block``'s columns are lower halves of symmetric states under ``diag``."""
    n, width = diag.n_qubits, len(block)
    if (half := width != 1 << n) and not (width << 1 == 1 << n and diag.complement_invariant):
        raise ValueError(f"{width} entries are no full or half row under this diagonal")
    return half


def _phases(diag: "DiagonalHamiltonian", scales: list, width: int, out=None) -> np.ndarray:
    """Column r holds e^{-i*scales[r]*diag[x]} for the first ``width`` entries x (in ``out``)."""
    peak = diag.peak
    if bad := [x for x in scales if not math.isfinite(abs(x) * peak)]:
        raise ValueError(f"phase scale {bad[0]!r} gives a non-finite phase")
    values, index = diag.levels
    table = np.exp(np.array([-1j * x for x in scales]) * values[:, None])
    return table.take(index[:width], 0, out, "clip")  # every index is valid; "clip" copies once


def _plan(block: np.ndarray, half: bool, tiles: int = 3) -> tuple:
    """``block``, ``tiles`` blocks of its (width, rows) shape (`layer_rows`' cross block and c and s
    tiles, or `read_rows`' hy over a y block) and per qubit (view, flipped, *tiles): ``block`` as
    (-1, 2, 2^q, rows), its bit-flipped view and each tile alike; on a half register last the top
    qubit, pairing the block with its reverse. Built once per run, cell or replay."""
    (width, count), work = block.shape, np.empty((tiles, *block.shape), dtype=np.complex128)
    shapes = [(width >> (q + 1), 2, 1 << q, count) for q in range(width.bit_length() - 1)]
    steps = [(v := block.reshape(shape, copy=False), v[:, ::-1], *(t.reshape(shape) for t in work))
             for shape in shapes]
    return block, work, steps + [(block, block[::-1], *work)] * half


def _rotate(steps, angles: list) -> None:
    """e^{-i*angles[r]*sum_q X_q} in place on column r of the block ``steps`` views."""
    if bad := [x for x in angles if not math.isfinite(x)]:
        raise ValueError(f"rotation angle must be finite, got {bad[0]!r}")
    _, _, _, c, s = steps[0]  # every step views the same full tiles, so no operand broadcasts
    c[...] = [math.cos(x) for x in angles]
    s[...] = [-1j * math.sin(x) for x in angles]
    for view, flipped, cross, c, s in steps:
        np.multiply(flipped, s, out=cross)  # s*hi | s*lo
        view *= c
        view += cross  # c*lo + s*hi | c*hi + s*lo


def apply_diagonal_phase(state: StateVector, diag: "DiagonalHamiltonian",
                         scale: float) -> StateVector:
    """Apply e^{-i * scale * H_p} for a diagonal H_p.

    Elementwise exact: amplitude x picks up the phase e^{-i*scale*diag[x]},
    evaluated once per distinct diagonal value and gathered.
    """
    _check_width(diag.n_qubits, state, "diagonal Hamiltonian")
    amps = state.amplitudes * _phases(diag, [float(scale)], state.dim)[:, 0]
    return _state(state.n_qubits, amps)


def apply_x_rotations(state: StateVector, driver: "DriverHamiltonian",
                      angle: float) -> StateVector:
    """Apply e^{-i * angle * sum_q X_q}.

    The terms commute, so the exponential factorizes exactly into one
    rotation per qubit: cos(angle) on the diagonal and -i*sin(angle)
    between the bit-flipped pairs. No Trotter error is introduced here.
    The state is rotated as one full row.
    """
    _check_width(driver.n_qubits, state, "driver Hamiltonian")
    _rotate(_plan((amps := state.amplitudes.copy())[:, None], False)[2], [float(angle)])
    return _state(state.n_qubits, amps)


def layer_rows(block: np.ndarray, diag: "DiagonalHamiltonian", scales: np.ndarray,
               angles: np.ndarray, plan: tuple | None = None) -> None:
    """Apply e^{-i*angles[r, t]*sum_q X_q} e^{-i*scales[r, t]*H_p} in place to each row r, the
    column r of the C-ordered (width, rows) ``block``, for t = 0, 1, ... in turn (``scales`` and
    ``angles`` (rows,) for one layer, or (rows, T)), to full rows of 2^n entries or the lower
    halves of symmetric states under a `complement_invariant` diagonal, each row bit-identical
    to its own one-row call. ``plan`` is the block's `_plan`, or None to build it."""
    half, count = _half(block, diag), block.shape[1]
    _, (cross, _, _), steps = plan or _plan(block, half)
    for scale, angle in zip(*(x.reshape(count, -1).T.tolist() for x in (scales, angles))):
        block *= _phases(diag, scale, len(block), cross)  # the cross block holds the phases first
        _rotate(steps, angle)


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


def read_rows(block: np.ndarray, diag: "DiagonalHamiltonian",
              plan: tuple | None = None) -> tuple[list, list]:
    """Each row's commutator expectation `A` (see `a_value`) and cost <psi| H_p |psi>, as floats,
    for a block as in `layer_rows` and a one-tile `_plan` of its shape (None builds it); a
    complex cost or an `A` past the bound is an error."""
    half, (width, count) = _half(block, diag), block.shape
    y, (hy,), steps = plan or _plan(np.empty(block.shape, dtype=np.complex128), half, 1)
    np.multiply(diag.diag[:width, None], block, out=y)
    hy.fill(0)
    for _, flipped, o in steps:  # on a half register the top qubit comes last
        o += flipped
    a, costs, step = [], [], max(1, (1 << MAX_QUBITS) >> diag.n_qubits)
    for part in ((b[:, i:i + step] for b in (block, y, hy)) for i in range(0, count, step)):
        # C-ordered full rows, at most 2^12 amplitudes per copy: a larger one faults its pages in
        # per call; diag*psi mirrors y, since the diagonal does under complementing
        amps, dy, h = (np.ascontiguousarray((np.concatenate((b, b[::-1])) if half else b).T)
                       for b in part)
        costs += map(np.vdot, amps, dy)
        a += [-2.0 * float(np.vdot(x, z).imag) for x, z in zip(amps, h)]
    if bad := [z for z in costs if not abs(z.imag) <= 1e-10]:
        raise AssertionError(f"diagonal expectation came out complex: {bad[0]!r}")
    limit = 2.0 * diag.peak * diag.n_qubits
    if bad := [x for x in a if not abs(x) <= limit * (1.0 + 1e-12) + 1e-12]:
        raise AssertionError(f"commutator expectation {bad[0]} exceeds operator bound {limit}")
    return a, [float(z.real) for z in costs]


def _read(state: StateVector, diag: "DiagonalHamiltonian") -> tuple[list, list]:
    """`read_rows` on ``state`` as one full row."""
    _check_width(diag.n_qubits, state, "diagonal Hamiltonian")
    return read_rows(state.amplitudes[:, None], diag)


def expectation_diagonal(state: StateVector, diag: "DiagonalHamiltonian") -> float:
    """<state| H_p |state> for a diagonal H_p, returned as a real number."""
    return _read(state, diag)[1][0]


def a_value(state: StateVector, diag: "DiagonalHamiltonian",
            driver: "DriverHamiltonian") -> float:
    """Expectation of i[H_d, H_p] in the given state.

    With z = <psi| H_d H_p |psi>, Hermiticity of both operators gives
    <psi| i[H_d, H_p] |psi> = i(z - conj(z)) = -2*Im(z), which is real by
    construction, so only one structured matvec chain is needed, on the full row.
    """
    _check_width(driver.n_qubits, state, "driver Hamiltonian")
    return _read(state, diag)[0][0]


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"states live on different registers: {a.n_qubits} vs {b.n_qubits} qubits")
    z = complex(np.vdot(a.amplitudes, b.amplitudes))
    if not abs(z) <= PRODUCT_BOUND:
        raise AssertionError(f"inner product of unit states has |z| = {abs(z)}")
    return z
