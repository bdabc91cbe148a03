"""Feedback-driven combinatorial optimization on a dense statevector simulator.

The package covers a full desk-scale experiment loop: MaxCut instances
(graphs), their cost and driver operators (hamiltonian), statevector
primitives (statevector), multiplicative control-error models (noise), the
closed-loop optimizer (engine), robustness bounds and sweep statistics
(analysis), and a config-driven command line (cli).
"""
import types

from .analysis import (
    SweepSummary,
    aggregate,
    ideal_fidelity,
    lipschitz_from_betas,
    replay_fidelity,
    success_probability,
)
from .engine import (
    FeedbackLaw,
    RunConfig,
    RunTrace,
    feedback,
    layer,
    replay,
    run,
    run_independent,
    run_nominal,
    run_systematic,
)
from .graphs import (
    GenerationError,
    Graph,
    GraphFormatError,
    erdos_renyi,
    format_edge_list,
    load_edge_list,
    max_cut_brute_force,
    parse_edge_list,
    random_regular,
    reference_instance,
    save_edge_list,
)
from .hamiltonian import (
    DiagonalHamiltonian,
    DriverHamiltonian,
    driver_x,
    ground_energy,
    maxcut_hamiltonian,
    spectral_norm,
)
from .noise import NoiseKind, NoiseModel, trajectory
from .statevector import (
    StateVector,
    a_value,
    apply_diagonal_phase,
    apply_x_rotations,
    expectation_diagonal,
    inner_product,
    uniform_state,
)

__version__ = "0.1.0"

#: The public API: every name imported above, listed once.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
