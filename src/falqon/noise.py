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
any order, or in parallel, with no shared generator state. `trajectory`
returns one build's values as a fresh 1-D float64 array.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rng import SplitMix64, derive_key, exact_int, positive_real

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
        exact_int(self.seed, "seed")  # refused here, not at the first draw
        eb = self.epsilon_bar
        if eb != 0 or isinstance(eb, bool):  # 0 is no error; a bool is not read as 0 or 1
            eb = positive_real(eb, "nonzero epsilon_bar")
        object.__setattr__(self, "epsilon_bar", float(eb))
        if self.kind is not NoiseKind.NONE and self.epsilon_bar >= 1.0:
            raise ValueError(f"epsilon_bar must be below 1, got {self.epsilon_bar}")


def trajectory(model: NoiseModel, depth: int, rebuild_index: int = 1) -> np.ndarray:
    """Error values for layers 1..depth of one circuit build, as a fresh
    1-D float64 array.

    ``rebuild_index`` identifies which build of the circuit this is (1-based).
    NONE gives zeros. SYSTEMATIC ignores the rebuild index by construction,
    which makes prefix consistency across rebuilds automatic. INDEPENDENT
    folds the rebuild index into the stream key, so each rebuild sees fresh
    draws while remaining reproducible from (seed, rebuild_index).
    """
    for name, value in (("depth", depth), ("rebuild_index", rebuild_index)):
        if not positive_real(value, name).is_integer():  # 2.5 is refused, not truncated
            raise ValueError(f"{name} must be an integer of at least 1, got {value}")
    depth = int(depth)
    if model.kind is NoiseKind.NONE:
        return np.zeros(depth)
    if model.kind is NoiseKind.SYSTEMATIC:
        key = derive_key(model.seed, _STREAM_SYSTEMATIC)
    else:
        key = derive_key(model.seed, _STREAM_INDEPENDENT, int(rebuild_index))
    rng = SplitMix64(key)
    eb = model.epsilon_bar
    return np.fromiter(
        (rng.uniform(-eb, eb) for _ in range(depth)), np.float64, count=depth
    )
