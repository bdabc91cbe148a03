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

`run_cell` is the one feedback loop, over a cell of rows that share graph,
time step, depth and noise kind; `run` is its one-row call. The cell is one
(width, rows) block whose columns are raw amplitude rows, from start to
finish, lower halves under a complement-invariant diagonal. Step t brings
each row to its t-layer circuit with `statevector.layer_rows`, reads every
A_t and cost in one `statevector.read_rows` call and feeds A_t back. The
kinds differ only in how the block reaches step t:

* no error and systematic errors are prefix-consistent: rebuilding t layers
  replays the same error prefix, so it reproduces the previous step's state
  plus one layer (the test suite covers the equivalence), which every row
  gets in one call on the block, under one `noise.trajectories` error stack;
* independent errors are redrawn on every rebuild, so no two rebuilds agree:
  step t resets the block to the uniform rows and re-runs layers 0..t under
  each row's rebuild t+1 sequence, depth*(depth+1)/2 layers per row, in one
  kernel call per step over all rows, drawn as one stack per step.

`replay` runs the same block, one sequence being a one-row stack. States are
wrapped, and their norm checked, only where `run` and `replay` hand them
out. run_nominal, run_systematic and run_independent are `run` restricted to
one kind.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph
from .hamiltonian import (
    DiagonalHamiltonian,
    DriverHamiltonian,
    ground_energy,
    maxcut_hamiltonian,
)
from .noise import NoiseKind, NoiseModel, trajectories
from .rng import positive_real
from .statevector import (
    StateVector,
    _plan,
    _state,
    apply_diagonal_phase,
    apply_x_rotations,
    check_norm,
    layer_rows,
    read_rows,
    register_width,
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
        for name, kind in (("graph", Graph), ("law", FeedbackLaw), ("noise", NoiseModel)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        positive_real(self.delta_t, "delta_t")
        if not positive_real(self.depth, "depth").is_integer():
            raise ValueError(f"depth must be an integer, got {self.depth}")
        depth = int(self.depth)
        object.__setattr__(self, "depth", depth)
        register_width(self.graph.n_nodes)
        cap = MAX_DEPTH_INDEPENDENT if self.noise.kind is NoiseKind.INDEPENDENT else MAX_DEPTH
        if depth > cap:
            raise ValueError(f"depth {depth} exceeds the cap {cap} for "
                             f"{self.noise.kind.value} runs")


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
    return apply_x_rotations(apply_diagonal_phase(state, diag, scale), driver, scale * beta)


def replay(betas, epsilons, delta_t: float, diag: DiagonalHamiltonian,
           driver: DriverHamiltonian) -> StateVector | list[StateVector]:
    """Open-loop pass: apply recorded inputs under a given error sequence.

    Starts from the uniform state like every closed-loop run. No feedback is
    evaluated, so this is the tool for questions of the form "what state
    would these controls have prepared under different errors". The time
    step and the returned state's norm are checked here, not in `layer`.

    A (rows, T) stack of ``epsilons``, with ``betas`` (T,) or (rows, T),
    gives one state per row, each bit-identical to its own replay, from one
    `statevector.layer_rows` call; one sequence is a one-row stack.
    """
    dt = positive_real(delta_t, "delta_t")
    betas, epsilons = (np.asarray(x, dtype=np.float64) for x in (betas, epsilons))
    if epsilons.ndim not in (1, 2) or betas.shape not in (epsilons.shape, epsilons.shape[-1:]):
        raise ValueError(f"betas and epsilons disagree on depth: {betas.shape} vs {epsilons.shape}")
    if driver.n_qubits != diag.n_qubits:
        raise ValueError(f"operator widths differ: {diag.n_qubits} vs {driver.n_qubits} qubits")
    if not len(stack := np.atleast_2d(epsilons)):
        raise ValueError(f"the error stack is empty: shape {epsilons.shape}, no row to replay")
    if (bad := stack[~(abs(stack) < 1.0)]).size:
        raise ValueError(f"layer error must satisfy |epsilon| < 1, got {bad[0]}")
    with np.errstate(over="ignore", invalid="ignore"):  # `layer_rows` refuses a non-finite one
        angles = (scales := (1.0 + stack) * dt) * betas
    block, half = _start(diag, len(stack))
    layer_rows(block, diag, scales, angles)
    states = _states(block, diag.n_qubits, half)
    return states if epsilons.ndim == 2 else states[0]


def _start(diag: DiagonalHamiltonian, count: int) -> tuple[np.ndarray, bool]:
    """``count`` uniform-state columns: lower halves, and True, iff ``diag`` is invariant."""
    start, half = uniform_state(diag.n_qubits), diag.complement_invariant
    return np.tile(start.amplitudes[:start.dim >> half, None], count), half


def _states(block: np.ndarray, n: int, half: bool) -> list[StateVector]:
    """Each column as a norm-checked state, half columns mirrored into full ones."""
    return [check_norm(_state(n, np.concatenate((h, h[::-1])) if half else h.copy()))
            for h in block.T]


def _run_as(kind: NoiseKind, mode: str, doc: str):
    def run_as(config: RunConfig) -> RunTrace:
        if config.noise.kind is not kind:
            raise ValueError(f"{mode} needs noise kind {kind.value!r}, "
                             f"got {config.noise.kind.value}")
        return run(config)

    run_as.__name__, run_as.__qualname__, run_as.__doc__ = mode, mode, doc
    return run_as


run_nominal = _run_as(NoiseKind.NONE, "run_nominal", "Error-free closed-loop run.")
run_systematic = _run_as(NoiseKind.SYSTEMATIC, "run_systematic",
                         "Closed-loop run under a frozen (prefix-consistent) error sequence.")
run_independent = _run_as(NoiseKind.INDEPENDENT, "run_independent",
                          "Closed-loop run where every feedback step rebuilds the circuit.")


def run(config: RunConfig) -> RunTrace:
    """Closed-loop run in the mode that config.noise.kind selects: a one-row `run_cell`."""
    return run_cell([config])[0]


def run_cell(configs) -> list[RunTrace]:
    """Closed-loop runs, in lockstep, of configs that share graph, time step,
    depth and noise kind, each bit-identical to its own `run`. An
    independent row's A_t and cost come from one noisy build per step, not
    from an average over builds."""
    configs = list(configs)
    if len({(c.graph, c.delta_t, c.depth, c.noise.kind) for c in configs}) != 1:
        raise ValueError("a cell needs runs, all with one graph, delta_t, depth and noise kind")
    diag, dt, depth = maxcut_hamiltonian(configs[0].graph), configs[0].delta_t, configs[0].depth
    p0, rebuild = ground_energy(diag)[0], configs[0].noise.kind is NoiseKind.INDEPENDENT
    eps = None if rebuild else trajectories([(c.noise, 1) for c in configs], depth)
    betas, a_values, costs = (np.zeros((len(configs), depth)) for _ in range(3))
    start, half = _start(diag, len(configs))  # kept for the rebuilds' resets
    rotation, readout = _plan(block := start.copy(), half), _plan(np.empty_like(start), half, 1)
    for t in range(depth):  # every row to its (t+1)-layer circuit in one kernel call
        if rebuild:  # anew from the uniform rows, each under its own rebuild's errors
            eps = trajectories([(c.noise, t + 1) for c in configs], t + 1)
            block[...] = start
        window = slice(0 if rebuild else t, t + 1)  # layers 0..t, or layer t on step t-1's rows
        scales = (1.0 + eps[:, window]) * dt
        layer_rows(block, diag, scales, scales * betas[:, window], rotation)
        a_values[:, t], costs[:, t] = a_t, _ = read_rows(block, diag, readout)
        if t + 1 < depth:
            betas[:, t + 1] = [feedback(a, c.law) for a, c in zip(a_t, configs)]
    return [RunTrace(c, *arrays, state, p0, e) for c, *arrays, state, e in
            zip(configs, betas, a_values, costs, _states(block, diag.n_qubits, half), eps)]
