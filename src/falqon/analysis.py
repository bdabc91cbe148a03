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

The sweep side is plain statistics: `aggregate` takes one cell's final cost
errors and returns their mean and sample std, and replays nothing, while
`ideal_fidelity` replays a sweep block's ideal states in one stack.
"""
from __future__ import annotations

import numpy as np

from .engine import RunTrace, replay
from .hamiltonian import DiagonalHamiltonian, DriverHamiltonian, spectral_norm
from .rng import exact_int, positive_real, real
from .statevector import PRODUCT_BOUND, StateVector, inner_product


def fidelity_floor(l_value: float, epsilon_bar: float) -> tuple[float, bool]:
    """Quadratic floor 1 - (L * epsilon_bar)^2 / 2 clamped to [0, 1], and
    whether the raw value fell below zero (the bound says nothing there).
    A negative or NaN L or epsilon_bar is refused; a zero one means no
    error, so the floor is 1 even when the other is infinite."""
    l_value, epsilon_bar = (real(value, name, "nonnegative", lambda x: x >= 0.0)
                            for name, value in (("L", l_value), ("epsilon_bar", epsilon_bar)))
    product = l_value * epsilon_bar if l_value and epsilon_bar else 0.0
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
    row from one stacked `replay`, each bit-identical to the call on that
    row alone; the ideal state is replayed once per call.
    """
    ideal = replay(betas, np.zeros(np.shape(betas)[-1:]), delta_t, diag, driver)
    if isinstance(noisy := replay(betas, epsilons, delta_t, diag, driver), StateVector):
        return abs(inner_product(ideal, noisy))
    return np.array([abs(inner_product(ideal, state)) for state in noisy])


def ideal_fidelity(runs: RunTrace | list[RunTrace], diag: DiagonalHamiltonian,
                   driver: DriverHamiltonian) -> float | list[float]:
    """|<ideal|final>|: a run's final state against the error-free replay of its own control
    sequence; for a list of runs that share time step and depth, as a sweep block's do, one per
    run from one stacked `replay`, each bit-identical to the call on that run alone."""
    runs = [runs] if (one := isinstance(runs, RunTrace)) else list(runs)
    if len({(r.config.delta_t, r.depth) for r in runs}) != 1:
        raise ValueError("need runs, all with one delta_t and depth")
    betas = np.array([r.betas for r in runs])
    ideal = replay(betas, np.zeros_like(betas), runs[0].config.delta_t, diag, driver)
    fids = [abs(inner_product(i, r.final_state)) for i, r in zip(ideal, runs)]
    return fids[0] if one else fids


def aggregate(errors) -> tuple[float, float]:
    """(mean, std): the mean and sample std (ddof=1, 0.0 for a single value)
    of one sweep cell's final cost errors.

    Nothing is replayed here: a seed's fidelity against its noiseless replay
    is `ideal_fidelity`, which the sweep's cell rows carry.
    """
    errors = np.array(errors, dtype=np.float64)
    if not errors.size:
        raise ValueError("need at least one final cost error to aggregate")
    std = 0.0 if errors.size == 1 else float(np.std(errors, ddof=1))
    return float(errors.mean()), std


def success_probability(state: StateVector, ground_states) -> float:
    """Total probability mass the state puts on the listed basis indices."""
    idxs = [exact_int(i, "basis index") for i in ground_states]
    for i in idxs:
        if not 0 <= i < state.dim:
            raise ValueError(f"basis index {i} out of range for {state.n_qubits} qubits")
    if len(set(idxs)) != len(idxs):
        raise ValueError("ground-state indices must be distinct")
    amps = state.amplitudes[idxs]
    p = float(np.sum(amps.real ** 2 + amps.imag ** 2))
    if not -1e-10 <= p <= PRODUCT_BOUND:  # p <= |<state|state>|
        raise AssertionError(f"probability {p} outside [0, 1]")
    return p
