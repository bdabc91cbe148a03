"""In-memory span tracer that wraps falqon's functions from outside the package.

A wrapper has to sit at the name its caller looks up. `engine` binds
`apply_x_rotations` with `from .statevector import ...`, so replacing
`falqon.statevector.apply_x_rotations` alone would miss every call the
engine makes. `install` therefore replaces every binding of a target
function in every loaded falqon module, and `restore` puts each one back.

A span is (id, name, start, end, parent). Spans stay in memory and share
the tracer's run id; `write` saves them when the run is over. A name's self
time is the sum of its spans' durations minus the time their direct
children cover.
"""
from __future__ import annotations

import dataclasses
import hashlib
import importlib
import itertools
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

#: (module, function) pairs recorded as spans, named "<module>.<function>"
#: without the package prefix.
SPANNED = (
    ("falqon.engine", "run"),
    ("falqon.engine", "layer"),
    ("falqon.engine", "replay"),
    ("falqon.statevector", "apply_x_rotations"),
    ("falqon.statevector", "apply_diagonal_phase"),
    ("falqon.statevector", "a_value"),
    ("falqon.statevector", "expectation_diagonal"),
    ("falqon.hamiltonian", "spectral_norm"),
    ("falqon.noise", "trajectory"),
    ("falqon.analysis", "aggregate"),
    ("falqon.analysis", "lipschitz_from_betas"),
    ("falqon.graphs", "random_regular"),
    ("falqon.graphs", "erdos_renyi"),
    ("falqon.graphs", "load_edge_list"),
    ("falqon.graphs", "parse_edge_list"),
    ("falqon.graphs", "save_edge_list"),
    ("falqon.graphs", "format_edge_list"),
    ("falqon.graphs", "max_cut_brute_force"),
    ("falqon.graphs", "reference_instance"),
)

#: Statevector operations whose calls each touch all 2^n amplitudes.
STATEVECTOR_OPS = (
    "statevector.apply_x_rotations",
    "statevector.apply_diagonal_phase",
    "statevector.a_value",
    "statevector.expectation_diagonal",
)


def self_times(spans) -> Counter:
    """Seconds per span name, each span minus its direct children."""
    covered = Counter()
    for _, _, start, end, parent in spans:
        covered[parent] += end - start
    totals = Counter()
    for sid, name, start, end, _ in spans:
        totals[name] += (end - start) - covered[sid]
    return totals


def _fingerprint(value, digest) -> None:
    """Feed a replay argument into `digest` by content, not identity."""
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _fingerprint(getattr(value, f.name), digest)
    else:
        digest.update(repr(value).encode())
    digest.update(b"|")


class Tracer:
    """Spans and counters of one traced command."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.replay_inputs: set[bytes] = set()
        self._ids = itertools.count(1)
        self._stack = [0]
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn` inside a span called `name`."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn, observe=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _counting(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _count_samples(self, args, kwargs, result) -> None:
        self.counts["noise.samples"] += len(result)

    def _record_replay_input(self, args, kwargs, result) -> None:
        digest = hashlib.sha256()
        for value in args:
            _fingerprint(value, digest)
        for key in sorted(kwargs):
            _fingerprint(key, digest)
            _fingerprint(kwargs[key], digest)
        self.replay_inputs.add(digest.digest())

    def install(self) -> None:
        """Wrap every target at each falqon binding; missing targets are skipped."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "falqon" or name.startswith("falqon."))]
        observers = {
            "noise.trajectory": self._count_samples,
            "engine.replay": self._record_replay_input,
        }
        for module, function in SPANNED:
            original = getattr(importlib.import_module(module), function, None)
            if original is None:
                continue
            name = f"{module.removeprefix('falqon.')}.{function}"
            wrapper = self._wrap(name, original, observers.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)
        # Products with the driver inside the norm solver: only the binding
        # in hamiltonian, since a_value calls the statevector one.
        hamiltonian = importlib.import_module("falqon.hamiltonian")
        if hasattr(hamiltonian, "driver_matvec"):
            self._patch(hamiltonian, "driver_matvec",
                        self._counting("hamiltonian.norm_matvecs", hamiltonian.driver_matvec))
        rng = importlib.import_module("falqon.rng")
        if hasattr(rng, "SplitMix64"):
            self._patch(rng.SplitMix64, "next_u64",
                        self._counting("rng.draws", rng.SplitMix64.next_u64))

    def restore(self) -> None:
        """Put back every binding `install` replaced, last first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def calls(self) -> Counter:
        return Counter(name for _, name, _, _, _ in self.spans)

    def self_times(self) -> Counter:
        return self_times(self.spans)

    def write(self, path: Path) -> None:
        """Save the spans as CSV, times in seconds from the first span's start."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        lines = ["run_id,id,name,start_s,end_s,parent"]
        lines += [f"{self.run_id},{sid},{name},{start - t0:.9f},{end - t0:.9f},{parent}"
                  for sid, name, start, end, parent in self.spans]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
