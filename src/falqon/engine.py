"""Closed-loop Trotterized evolution driven by measured feedback.

One layer applies U_d(beta_t) U_p to the state, with U_p = e^{-i*dt*H_p} and
U_d(b) = e^{-i*b*dt*H_d}. A control error eps_t scales both generator
exponents of layer t by (1 + eps_t). After each layer the commutator
expectation A_t is read from the state and the next input is

    beta_{t+1} = -gain * A_t / (2 * lam),

which for the noiseless dynamics makes the cost <H_p> non-increasing up to
the discretization error of the layer splitting. lam = 1/2 with unit gain
gives the plain greedy law beta = -A; larger lam damps the controls, which
costs convergence speed but buys robustness against errors the loop cannot
see coming.

Run modes:

* run_nominal: no error. One state evolves incrementally, since a noiseless
  rebuild of t layers reproduces the incremental state exactly.
* run_systematic: frozen master error sequence. Prefix consistency makes
  every rebuild reproduce the incremental state too, so the loop stays
  incremental (the equivalence is covered by the test suite).
* run_independent: fresh errors on every rebuild. Step t really does rebuild
  the whole t-layer circuit, depth*(depth+1)/2 layer applications in total,
  because no two rebuilds see the same error sequence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph
from .hamiltonian import (
    DiagonalHamiltonian,
    DriverHamiltonian,
    driver_x,
    ground_energy,
    maxcut_hamiltonian,
)
from .noise import NoiseKind, NoiseModel, trajectory
from .statevector import (
    MAX_QUBITS,
    StateVector,
    a_value,
    apply_diagonal_phase,
    apply_x_rotations,
    expectation_diagonal,
    uniform_state,
)

MAX_DEPTH = 2000
MAX_DEPTH_INDEPENDENT = 500


@dataclass(frozen=True)
class FeedbackLaw:
    """Linear feedback beta = -gain * A / (2 * lam)."""

    lam: float = 0.5
    gain: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be a positive real, got {self.lam}")
        if not (math.isfinite(self.gain) and self.gain > 0.0):
            raise ValueError(f"gain must be a positive real, got {self.gain}")


def feedback(a: float, law: FeedbackLaw) -> float:
    """Next control input from the measured commutator expectation."""
    return -(law.gain * float(a)) / (2.0 * law.lam)


@dataclass(frozen=True)
class RunConfig:
    graph: Graph
    delta_t: float
    depth: int
    law: FeedbackLaw = field(default_factory=FeedbackLaw)
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta_t) and self.delta_t > 0.0):
            raise ValueError(f"delta_t must be a positive real, got {self.delta_t}")
        if not float(self.depth).is_integer():
            raise ValueError(f"depth must be an integer, got {self.depth}")
        depth = int(self.depth)
        object.__setattr__(self, "depth", depth)
        if depth < 1:
            raise ValueError(f"depth must be at least 1, got {depth}")
        if self.graph.n_nodes > MAX_QUBITS:
            raise ValueError(
                f"closed-loop runs are capped at {MAX_QUBITS} qubits, "
                f"got {self.graph.n_nodes}"
            )
        cap = (
            MAX_DEPTH_INDEPENDENT
            if self.noise.kind is NoiseKind.INDEPENDENT
            else MAX_DEPTH
        )
        if depth > cap:
            raise ValueError(
                f"depth {depth} exceeds the cap {cap} for {self.noise.kind.value} runs"
            )


@dataclass(eq=False)
class RunTrace:
    """Per-layer record of one closed-loop run.

    betas[t] is the input applied at layer t+1 (betas[0] is always 0, the
    loop has seen no measurement yet), a_values[t] and costs[t] are read from
    the state after that layer. epsilons holds the error sequence of the
    final circuit build: the master sequence for systematic runs, the last
    rebuild's sequence for independent runs, zeros for nominal ones.
    """

    config: RunConfig
    betas: np.ndarray
    a_values: np.ndarray
    costs: np.ndarray
    final_state: StateVector
    ground_energy: float
    epsilons: np.ndarray

    @property
    def depth(self) -> int:
        return int(self.betas.size)

    @property
    def final_cost_error(self) -> float:
        return float(self.costs[-1] - self.ground_energy)


def layer(state: StateVector, beta: float, delta_t: float, epsilon: float,
          diag: DiagonalHamiltonian, driver: DriverHamiltonian) -> StateVector:
    """One Trotter layer U_d(beta) U_p with both exponents scaled by (1+epsilon)."""
    if not abs(epsilon) < 1.0:
        raise ValueError(f"layer error must satisfy |epsilon| < 1, got {epsilon}")
    scale = (1.0 + epsilon) * delta_t
    out = apply_diagonal_phase(state, diag, scale)
    return apply_x_rotations(out, driver, scale * beta)


def replay(betas, epsilons, delta_t: float, diag: DiagonalHamiltonian,
           driver: DriverHamiltonian) -> StateVector:
    """Open-loop pass: apply recorded inputs under a given error sequence.

    Starts from the uniform state like every closed-loop run. No feedback is
    evaluated, so this is the tool for questions of the form "what state
    would these controls have prepared under different errors".
    """
    betas = np.asarray(betas, dtype=np.float64)
    epsilons = np.asarray(epsilons, dtype=np.float64)
    if betas.shape != epsilons.shape:
        raise ValueError(
            f"betas and epsilons disagree on depth: {betas.shape} vs {epsilons.shape}"
        )
    state = uniform_state(diag.n_qubits)
    for b, e in zip(betas, epsilons):
        state = layer(state, float(b), delta_t, float(e), diag, driver)
    return state


def _hamiltonians(config: RunConfig) -> tuple[DiagonalHamiltonian, DriverHamiltonian]:
    diag = maxcut_hamiltonian(config.graph)
    return diag, driver_x(config.graph.n_nodes)


def _closed_loop(config: RunConfig, eps: np.ndarray) -> RunTrace:
    """Incremental feedback loop under a fixed per-layer error sequence."""
    diag, driver = _hamiltonians(config)
    p0, _ = ground_energy(diag)
    depth = config.depth
    betas = np.zeros(depth)
    a_values = np.zeros(depth)
    costs = np.zeros(depth)
    state = uniform_state(config.graph.n_nodes)
    beta = 0.0
    for t in range(depth):
        state = layer(state, beta, config.delta_t, float(eps[t]), diag, driver)
        a = a_value(state, diag, driver)
        betas[t] = beta
        a_values[t] = a
        costs[t] = expectation_diagonal(state, diag)
        beta = feedback(a, config.law)
    return RunTrace(config, betas, a_values, costs, state, p0, np.array(eps))


def _require(config: RunConfig, kind: NoiseKind, mode: str) -> None:
    if config.noise.kind is not kind:
        raise ValueError(
            f"{mode} needs noise kind {kind.value!r}, got {config.noise.kind.value}"
        )


def run_nominal(config: RunConfig) -> RunTrace:
    """Error-free closed-loop run."""
    _require(config, NoiseKind.NONE, "run_nominal")
    return _closed_loop(config, np.zeros(config.depth))


def run_systematic(config: RunConfig) -> RunTrace:
    """Closed-loop run under a frozen (prefix-consistent) error sequence."""
    _require(config, NoiseKind.SYSTEMATIC, "run_systematic")
    return _closed_loop(config, trajectory(config.noise, config.depth).values)


def run_independent(config: RunConfig) -> RunTrace:
    """Closed-loop run where every feedback step rebuilds the circuit.

    At step t the full t-layer circuit runs from the uniform state under a
    fresh error sequence (rebuild index t); A_t and the cost are read from
    that build's final state. The feedback therefore reacts to one noisy
    realization per step, not to an average over builds.
    """
    _require(config, NoiseKind.INDEPENDENT, "run_independent")
    diag, driver = _hamiltonians(config)
    p0, _ = ground_energy(diag)
    depth = config.depth
    betas = np.zeros(depth)
    a_values = np.zeros(depth)
    costs = np.zeros(depth)
    eps = np.zeros(depth)
    state = uniform_state(config.graph.n_nodes)
    beta = 0.0
    for t in range(depth):
        betas[t] = beta
        eps = trajectory(config.noise, t + 1, rebuild_index=t + 1).values
        state = uniform_state(config.graph.n_nodes)
        for tau in range(t + 1):
            state = layer(state, float(betas[tau]), config.delta_t,
                          float(eps[tau]), diag, driver)
        a = a_value(state, diag, driver)
        a_values[t] = a
        costs[t] = expectation_diagonal(state, diag)
        beta = feedback(a, config.law)
    return RunTrace(config, betas, a_values, costs, state, p0, np.array(eps))


def run(config: RunConfig) -> RunTrace:
    """Closed-loop run in the mode that config.noise.kind selects.

    Nominal and systematic runs share the incremental loop; the NONE
    trajectory is all zeros, so the two need no branch of their own.
    """
    if config.noise.kind is NoiseKind.INDEPENDENT:
        return run_independent(config)
    return _closed_loop(config, trajectory(config.noise, config.depth).values)
