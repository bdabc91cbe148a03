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

A systematic error is a variable time step. Layer t under error eps_t forms
scale = (1 + eps_t)*dt for both exponents, and a noiseless layer of step
dt_t = fl((1 + eps_t)*dt) forms the same float, since 1.0*dt_t is exact; the
law reads A_t, never the step. So a systematic run is, bit for bit, the
noiseless run whose layer t has step dt_t, every step in
[(1 - eps_bar)*dt, (1 + eps_bar)*dt] and positive, and the descent of the
noiseless loop holds for it where it holds at the largest step
(1 + eps_bar)*dt.

`run` is the one feedback loop for every noise kind. Step t fixes beta_t,
obtains the state of the t-layer circuit, reads A_t and the cost from it and
feeds A_t back. The kinds differ only in how that state is obtained:

* no error and systematic errors are prefix-consistent: rebuilding t layers
  replays the same error prefix, so it reproduces the previous step's state
  plus one layer, and the loop advances one state incrementally (the
  equivalence is covered by the test suite);
* independent errors are redrawn on every rebuild, so no two rebuilds agree
  and step t replays the whole t-layer circuit from the uniform state under
  rebuild t's sequence, depth*(depth+1)/2 layer applications in total.

run_nominal, run_systematic and run_independent are `run` restricted to one
kind.
"""
from __future__ import annotations

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
from .rng import positive_real
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
        positive_real(self.lam, "lam")
        positive_real(self.gain, "gain")


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
        positive_real(self.delta_t, "delta_t")
        if not positive_real(self.depth, "depth").is_integer():
            raise ValueError(f"depth must be an integer, got {self.depth}")
        depth = int(self.depth)
        object.__setattr__(self, "depth", depth)
        if self.graph.n_nodes > MAX_QUBITS:
            raise ValueError(
                f"closed-loop runs are capped at {MAX_QUBITS} qubits, "
                f"got {self.graph.n_nodes}"
            )
        cap = MAX_DEPTH_INDEPENDENT if self.noise.kind is NoiseKind.INDEPENDENT else MAX_DEPTH
        if depth > cap:
            raise ValueError(
                f"depth {depth} exceeds the cap {cap} for {self.noise.kind.value} runs"
            )


@dataclass(eq=False)
class RunTrace:
    """Per-layer record of one closed-loop run.

    betas[t] is the input applied at layer t+1 (betas[0] is 0: no measurement
    yet); a_values[t] and costs[t] are read from the (t+1)-layer circuit, whose
    last build's state is final_state and whose errors are epsilons: the
    master sequence for systematic runs, the last rebuild's sequence for
    independent runs, zeros for nominal ones.
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
    would these controls have prepared under different errors". The time
    step is checked here, once per call, not in `layer`.
    """
    positive_real(delta_t, "delta_t")
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


def _run_as(config: RunConfig, kind: NoiseKind, mode: str) -> RunTrace:
    if config.noise.kind is not kind:
        raise ValueError(
            f"{mode} needs noise kind {kind.value!r}, got {config.noise.kind.value}"
        )
    return run(config)


def run_nominal(config: RunConfig) -> RunTrace:
    """Error-free closed-loop run."""
    return _run_as(config, NoiseKind.NONE, "run_nominal")


def run_systematic(config: RunConfig) -> RunTrace:
    """Closed-loop run under a frozen (prefix-consistent) error sequence."""
    return _run_as(config, NoiseKind.SYSTEMATIC, "run_systematic")


def run_independent(config: RunConfig) -> RunTrace:
    """Closed-loop run where every feedback step rebuilds the circuit."""
    return _run_as(config, NoiseKind.INDEPENDENT, "run_independent")


def run(config: RunConfig) -> RunTrace:
    """Closed-loop run in the mode that config.noise.kind selects.

    Nominal and systematic runs take their whole error sequence up front and
    advance one state by a layer per step. An independent run draws rebuild
    t's sequence at step t and replays the t-layer circuit under it, so its
    A_t and cost come from one noisy realization per step, not from an
    average over builds.
    """
    diag = maxcut_hamiltonian(config.graph)
    driver = driver_x(config.graph.n_nodes)
    p0, _ = ground_energy(diag)
    depth = config.depth
    rebuild = config.noise.kind is NoiseKind.INDEPENDENT
    eps = None if rebuild else trajectory(config.noise, depth)
    betas = np.zeros(depth)
    a_values = np.zeros(depth)
    costs = np.zeros(depth)
    state = uniform_state(config.graph.n_nodes)
    beta = 0.0
    for t in range(depth):
        betas[t] = beta
        if rebuild:
            eps = trajectory(config.noise, t + 1, rebuild_index=t + 1)
            state = replay(betas[:t + 1], eps, config.delta_t, diag, driver)
        else:
            state = layer(state, beta, config.delta_t, float(eps[t]), diag, driver)
        a = a_value(state, diag, driver)
        a_values[t] = a
        costs[t] = expectation_diagonal(state, diag)
        beta = feedback(a, config.law)
    return RunTrace(config, betas, a_values, costs, state, p0, np.array(eps))
