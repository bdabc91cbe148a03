"""Robustness analysis: sensitivity bounds, replay fidelity, sweep statistics.

The central object is the control-path length

    L = sum_t delta_t * ||H_p + beta_t * H_d||_2,

a Lipschitz constant for the map from per-layer errors to the final state.
For errors bounded by epsilon_bar it yields the worst-case fidelity bound

    |<ideal|noisy>| >= 1 - (L * epsilon_bar)^2 / 2,

which is clamped to [0, 1] and flagged vacuous once the raw value drops
below zero (deep circuits make L grow linearly, so the bound is a
short-horizon tool). `lipschitz_from_betas` returns the per-layer norms and
L; `fidelity_floor` alone turns L and epsilon_bar into that bound.

Each norm is a Perron root (`hamiltonian.spectral_norm`): flipping the sign
of some basis states turns H_p + beta*H_d into minus a matrix
N = -H_p + |beta| sum_q X_q with nonnegative off-diagonal entries, and
||H_p + beta*H_d|| = lambda_max(N) when H_p <= 0. For any positive vector x,
the Collatz-Wielandt maximum max_i (Nx)_i / x_i bounds lambda_max(N) from
above; each norm is the smallest such bound found, padded by its rounding
error, so L never undershoots, and a solve stops once one is within 1e-10
of the top Lanczos value. The Lanczos steps and the certificate both form
the driver product with `driver_matvec`, as two small matrix products, one
per half of the register, whose rounding in any summation order the pad
covers; at controls near zero the certificate first rebuilds the Perron
vector's tiny entries from their neighbours. The control moves little from
layer to layer, so `lipschitz_from_betas` starts each layer's solve from the
previous layer's Perron vector, and reads the Ritz values on every other
step only from four steps before the step where that solve stopped. Layer t
depends only on beta_0..beta_t, so the norms of a prefix of a control
sequence are bit-identical to the first norms of the whole sequence.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .engine import RunTrace, replay
from .hamiltonian import (
    DiagonalHamiltonian,
    DriverHamiltonian,
    driver_x,
    maxcut_hamiltonian,
    spectral_norm,
)
from .rng import positive_real
from .statevector import StateVector, inner_product


@dataclass(frozen=True)
class SweepSummary:
    """Aggregate statistics for one (epsilon_bar, lam) sweep cell."""

    epsilon_bar: float
    lam: float
    n_seeds: int
    mean_final_cost_error: float
    std_final_cost_error: float
    mean_fidelity: float


def fidelity_floor(l_value: float, epsilon_bar: float) -> tuple[float, bool]:
    """Quadratic floor 1 - (L * epsilon_bar)^2 / 2 clamped to [0, 1], and
    whether the raw value fell below zero (the bound says nothing there).
    A negative or NaN L or epsilon_bar is refused; a zero one means no
    error, so the floor is 1 even when the other is infinite."""
    for name, value in (("L", l_value), ("epsilon_bar", epsilon_bar)):
        if not float(value) >= 0.0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    product = float(l_value) * float(epsilon_bar) if l_value and epsilon_bar else 0.0
    raw = 1.0 - 0.5 * min(product, 2.0) ** 2  # from 2 on, raw < 0 without overflow
    return min(1.0, max(0.0, raw)), bool(raw < 0.0)


def lipschitz_from_betas(betas, delta_t: float, diag: DiagonalHamiltonian,
                         driver: DriverHamiltonian) -> tuple[np.ndarray, float]:
    """Per-layer norms ||H_p + beta_t H_d|| of a recorded control sequence
    and the path length L they give at a positive, finite time step
    ``delta_t``; `fidelity_floor` turns L into a fidelity bound."""
    betas = np.asarray(betas, dtype=np.float64)
    if betas.size < 1:
        raise ValueError("need at least one control input")
    dt = positive_real(delta_t, "delta_t")
    warm: dict = {}  # each layer's Perron vectors start the next layer's solve
    norms = np.array([spectral_norm(diag, driver, float(b), warm) for b in betas])
    return norms, dt * float(norms.sum())


def replay_fidelity(betas, epsilons, delta_t: float, diag: DiagonalHamiltonian,
                    driver: DriverHamiltonian) -> float | np.ndarray:
    """|<ideal|noisy>| for one control sequence under error sequences.

    Both states are open-loop replays of the same inputs, one error-free and
    one under the errors. ``epsilons`` is one sequence, which gives one
    float, or a (draws, depth) stack of them, which gives one fidelity per
    row, each bit-identical to the call on that row alone; the ideal state
    is replayed once per call.
    """
    eps = np.asarray(epsilons)
    betas = np.asarray(betas, dtype=np.float64)
    if eps.ndim not in (1, 2) or eps.shape[-1:] != betas.shape:
        raise ValueError(
            f"betas and epsilons disagree on depth: {betas.shape} vs {eps.shape}"
        )
    ideal = replay(betas, np.zeros_like(betas), delta_t, diag, driver)
    fids = [abs(inner_product(ideal, replay(betas, row, delta_t, diag, driver)))
            for row in np.atleast_2d(eps)]
    return fids[0] if eps.ndim == 1 else np.array(fids)


def ideal_fidelity(trace: RunTrace, diag: DiagonalHamiltonian,
                   driver: DriverHamiltonian) -> float:
    """|<ideal|final>|: the run's final state against the error-free replay
    of its own control sequence."""
    ideal = replay(trace.betas, np.zeros_like(trace.betas), trace.config.delta_t,
                   diag, driver)
    return abs(inner_product(ideal, trace.final_state))


def aggregate(runs: list[RunTrace]) -> SweepSummary:
    """Summary statistics over repeated runs of one sweep cell.

    All runs must share instance, depth, time step, feedback law and noise
    settings. The mean fidelity compares each final state against the
    noiseless replay of its own control sequence. The standard deviation is
    the sample one (ddof=1) and defined as 0.0 for a single run.
    """
    if not runs:
        raise ValueError("need at least one run to aggregate")
    head = runs[0].config
    cell = operator.attrgetter("graph", "depth", "delta_t", "law", "noise.kind",
                               "noise.epsilon_bar")
    if any(cell(trace.config) != cell(head) for trace in runs[1:]):
        raise ValueError("runs in one cell must share instance, depth, time step, law and "
                         "noise shape")
    diag = maxcut_hamiltonian(head.graph)
    driver = driver_x(head.graph.n_nodes)
    # final_cost_error's bits; the property read here raised peak RSS on sweeps
    errors = np.array([float(t.costs[-1]) - float(t.ground_energy) for t in runs])
    fidelities = np.array([ideal_fidelity(t, diag, driver) for t in runs])
    std = 0.0 if errors.size == 1 else float(np.std(errors, ddof=1))
    return SweepSummary(epsilon_bar=head.noise.epsilon_bar, lam=head.law.lam, n_seeds=len(runs),
                        mean_final_cost_error=float(errors.mean()), std_final_cost_error=std,
                        mean_fidelity=float(fidelities.mean()))


def success_probability(state: StateVector, ground_states) -> float:
    """Total probability mass the state puts on the listed basis indices."""
    idxs = [int(i) for i in ground_states]
    for i in idxs:
        if not 0 <= i < state.dim:
            raise ValueError(f"basis index {i} out of range for {state.n_qubits} qubits")
    if len(set(idxs)) != len(idxs):
        raise ValueError("ground-state indices must be distinct")
    amps = state.amplitudes[idxs]
    p = float(np.sum(amps.real ** 2 + amps.imag ** 2))
    if not -1e-10 <= p <= 1.0 + 1e-10:
        raise AssertionError(f"probability {p} outside [0, 1]")
    return p
