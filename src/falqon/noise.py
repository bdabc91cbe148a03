"""Multiplicative control-error models and their per-layer error sequences.

A control error scales the generator exponent of circuit layer t by a factor
(1 + eps_t), leaving the layer unitary but detuned. Two noisy regimes:

* SYSTEMATIC freezes one master error sequence. Rebuilding a deeper circuit
  replays the identical prefix (eps at layer position tau never depends on
  how many layers follow it), which is what lets a feedback loop cancel the
  miscalibration out.
* INDEPENDENT draws a fresh sequence on every circuit rebuild, so no two
  rebuilds agree and the error behaves like per-shot noise.

Samples are uniform on [-epsilon_bar, +epsilon_bar] and derived counter-style
from (seed, rebuild index), so sweep cells and rebuilds can be evaluated in
any order, or in parallel, with no shared generator state. `trajectories` draws
a (rows, depth) stack, a row per (model, rebuild index), in uint64 array
arithmetic; `trajectory` is its one-row call.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rng import GOLDEN, derive_key, mix64, positive_real, seed_int

_STREAM_SYSTEMATIC = 101
_STREAM_INDEPENDENT = 202


class NoiseKind(str, Enum):
    NONE = "none"
    SYSTEMATIC = "systematic"
    INDEPENDENT = "independent"


@dataclass(frozen=True)
class NoiseModel:
    """Error regime plus its magnitude bound and sampling seed.

    ``epsilon_bar`` must stay below 1 for noisy kinds: a scaling factor
    (1 + eps) with eps <= -1 would freeze or reverse a layer, which is out of
    scope for a miscalibration model.
    """

    kind: NoiseKind = NoiseKind.NONE
    epsilon_bar: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", NoiseKind(self.kind))
        seed_int(self.seed)  # refused here, not at the first draw
        eb = self.epsilon_bar
        if eb != 0 or isinstance(eb, bool):  # 0 is no error; a bool is not read as 0 or 1
            eb = positive_real(eb, "nonzero epsilon_bar")
        object.__setattr__(self, "epsilon_bar", float(eb))
        if self.kind is not NoiseKind.NONE and self.epsilon_bar >= 1.0:
            raise ValueError(f"epsilon_bar must be below 1, got {self.epsilon_bar}")


def trajectory(model: NoiseModel, depth: int, rebuild_index: int = 1) -> np.ndarray:
    """Error values for layers 1..depth of one circuit build, as a fresh
    1-D float64 array: the one-row `trajectories`.

    ``rebuild_index`` identifies which build of the circuit this is (1-based).
    NONE gives zeros. SYSTEMATIC ignores the rebuild index by construction,
    which makes prefix consistency across rebuilds automatic. INDEPENDENT
    folds the rebuild index into the stream key, so each rebuild sees fresh
    draws while remaining reproducible from (seed, rebuild_index).
    """
    return trajectories([(model, rebuild_index)], depth)[0]


def trajectories(rows, depth: int) -> np.ndarray:
    """Error values for layers 1..depth of several circuit builds, as a fresh
    (rows, depth) float64 array whose row r is `trajectory(model, depth,
    rebuild_index)` of the r-th (model, rebuild_index) pair in ``rows``."""
    rows = list(rows)
    for name, value in (("depth", depth), *(("rebuild_index", r) for _, r in rows)):
        if not positive_real(value, name).is_integer():  # 2.5 is refused, not truncated
            raise ValueError(f"{name} must be an integer of at least 1, got {value}")
    keys = [derive_key(m.seed, _STREAM_INDEPENDENT, int(r)) if m.kind is NoiseKind.INDEPENDENT
            else derive_key(m.seed, _STREAM_SYSTEMATIC) for m, r in rows]
    # SplitMix64 value k mixes key + k*GOLDEN, here on arrays: a numpy scalar warns as it wraps
    z = mix64(np.array(keys, np.uint64)[:, None]
              + np.arange(1, int(depth) + 1, dtype=np.uint64) * GOLDEN)
    eb = np.array([0.0 if m.kind is NoiseKind.NONE else m.epsilon_bar for m, _ in rows])[:, None]
    return -eb + (eb - -eb) * ((z >> 11) * 2.0 ** -53)  # as `SplitMix64.random`; NONE gives +0.0
