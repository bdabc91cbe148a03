"""The three falqon commands the benchmark measures.

Each workload is one `falqon` command line, run in-process with `--jobs 1`.
The workload seed shifts the noise seeds of the sweeps, so every seed gives
the same amount of work on different draws; `run-ref8` is nominal and has
no noise seed, so its inputs are the same for every seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: Edge-list file, relative to the inputs directory, holding the pinned
#: 8-node 3-regular reference instance.
REF8_FILE = "ref8.edges"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    n_qubits: int
    depth: int
    #: Noise seeds per run; 0 for a nominal run that takes no noise seed.
    seeds_per_run: int
    graph_args: tuple[str, ...]
    options: tuple[str, ...]

    @property
    def seed_independent(self) -> bool:
        return self.seeds_per_run == 0

    def noise_seeds(self, seed: int) -> list[int]:
        first = self.seeds_per_run * seed
        return list(range(first, first + self.seeds_per_run))

    def argv(self, seed: int, inputs: Path, out: Path, *, depth: int | None = None,
             n_seeds: int | None = None) -> list[str]:
        """The command line; `depth` and `n_seeds` shrink it for a warm-up."""
        graph = [a.replace("{inputs}", str(inputs)) for a in self.graph_args]
        argv = [self.command, *graph, "--depth", str(depth or self.depth), *self.options]
        if self.seeds_per_run:
            first = self.seeds_per_run * seed
            # One token, so that a negative first seed is not read as a flag.
            argv += [f"--seeds={first}:{first + (n_seeds or self.seeds_per_run)}",
                     "--jobs", "1"]
        return argv + ["--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        # Nominal run with its Lipschitz floor: the norms dominate, the
        # sweeps never compute one.
        Workload(
            name="run-ref8", command="run", n_qubits=8, depth=200, seeds_per_run=0,
            graph_args=("--graph", f"{{inputs}}/{REF8_FILE}"), options=(),
        ),
        # Independent noise rebuilds the circuit at every step: 39,000 small
        # layer calls, no norms.
        Workload(
            name="sweep-indep-ref8", command="sweep", n_qubits=8, depth=60,
            seeds_per_run=10,
            graph_args=("--graph", f"{{inputs}}/{REF8_FILE}"),
            options=("--noise", "independent", "--epsilon-bars", "0.25",
                     "--lambdas", "0.5,1.0"),
        ),
        # The same layer kernel at 4,096 amplitudes, where memory bandwidth
        # limits it, plus the duplicated open-loop replays.
        Workload(
            name="sweep-sys-n12", command="sweep", n_qubits=12, depth=500,
            seeds_per_run=4,
            graph_args=("--regular", "12", "3", "--graph-seed", "42"),
            options=("--noise", "systematic", "--epsilon-bars", "0.5,0.9"),
        ),
    )
}


def make_inputs(inputs: Path) -> None:
    """Write the input files every workload reads."""
    from falqon import reference_instance, save_edge_list

    inputs.mkdir(parents=True, exist_ok=True)
    save_edge_list(reference_instance(), inputs / REF8_FILE)
