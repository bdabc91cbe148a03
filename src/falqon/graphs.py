"""MaxCut instance graphs: generators, edge-list round-trip, brute-force optimum."""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .rng import SplitMix64, derive_key

BRUTE_FORCE_MAX_NODES = 20
PAIRING_RETRY_CAP = 1000

_STREAM_REGULAR = 11
_STREAM_ER = 12

_REFERENCE_RESOURCE = "data/reference_8node_3regular.edges"


class GraphFormatError(ValueError):
    """Raised for text that cannot be parsed as an edge list.

    ``line_number`` is 1-based; 0 means the document as a whole (for example
    a missing header).
    """

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}" if line_number else message)
        self.line_number = line_number


class GenerationError(RuntimeError):
    """Raised when the pairing-model generator exhausts its retry budget."""


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph with canonical (u < v) edge tuples."""

    n_nodes: int
    edges: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        for node in (self.n_nodes, *(x for edge in self.edges for x in edge[:2])):
            try:
                operator.index(node)  # numpy integers pass; 1.5 and 2.0 do not
            except TypeError:
                raise ValueError(f"node {node!r} is not an integer") from None
        if self.n_nodes < 1:
            raise ValueError("graph needs at least one node")
        seen = set()
        for u, v, w in self.edges:
            if not 0 <= u < v < self.n_nodes:
                raise ValueError(
                    f"edge ({u}, {v}) violates 0 <= u < v < {self.n_nodes}"
                )
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            if not math.isfinite(w):
                raise ValueError(f"edge ({u}, {v}) has non-finite weight {w}")
            seen.add((u, v))

    @classmethod
    def from_edges(cls, n_nodes: int, edge_seq: Iterable[Sequence]) -> "Graph":
        """Build a graph from loose (u, v) or (u, v, w) items.

        Endpoints are swapped into u < v order, missing weights default to
        1.0 and the edge list is sorted, so equal edge sets produce equal
        (and identically serialized) graphs.
        """
        canon = []
        for item in edge_seq:
            u, v = int(item[0]), int(item[1])
            w = float(item[2]) if len(item) > 2 else 1.0
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if u > v:
                u, v = v, u
            canon.append((u, v, w))
        canon.sort()
        return cls(int(n_nodes), tuple(canon))

    def degrees(self) -> list[int]:
        deg = [0] * self.n_nodes
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph from the pairing model, deterministic per seed.

    Shuffles the multiset of node stubs (each node appears d times) and pairs
    consecutive entries. An attempt that produces a self-loop or a repeated
    edge is discarded whole, which keeps the accepted samples uniform over
    simple d-regular pairings.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if d >= n:
        raise ValueError(f"degree {d} is impossible on {n} nodes")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    rng = SplitMix64(derive_key(seed, _STREAM_REGULAR))
    for _ in range(PAIRING_RETRY_CAP):
        stubs = list(range(n)) * d
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            if u > v:
                u, v = v, u
            if (u, v) in edges:
                ok = False
                break
            edges.add((u, v))
        if ok:
            return Graph.from_edges(n, sorted(edges))
    raise GenerationError(
        f"no simple {d}-regular pairing on {n} nodes after {PAIRING_RETRY_CAP} attempts"
    )


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each of the n(n-1)/2 candidate edges is kept with probability p."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = SplitMix64(derive_key(seed, _STREAM_ER))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def format_edge_list(graph: Graph) -> str:
    """Canonical text form: 'nodes N' header, one edge per line, LF endings.

    Weights are written with 17 significant digits and omitted when exactly
    1.0, so format/parse is an identity round trip.
    """
    lines = [f"nodes {graph.n_nodes}"]
    for u, v, w in graph.edges:
        if w == 1.0:
            lines.append(f"{u} {v}")
        else:
            lines.append(f"{u} {v} {w:.17g}")
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format. '#' starts a comment, blank lines are skipped.

    Malformed text raises GraphFormatError with the offending line number;
    structurally invalid graphs (self-loops, duplicate edges, out-of-range
    endpoints) raise plain ValueError from graph validation.
    """
    n_nodes = None
    edges: list[tuple[int, int, float]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n_nodes is None:
            if len(parts) != 2 or parts[0] != "nodes":
                raise GraphFormatError(ln, f"expected 'nodes N' header, got {line!r}")
            try:
                n_nodes = int(parts[1])
            except ValueError:
                raise GraphFormatError(
                    ln, f"node count {parts[1]!r} is not an integer"
                ) from None
            continue
        if len(parts) not in (2, 3):
            raise GraphFormatError(ln, f"expected 'u v' or 'u v w', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise GraphFormatError(
                ln, f"could not parse edge fields in {line!r}"
            ) from None
        edges.append((u, v, w))
    if n_nodes is None:
        raise GraphFormatError(0, "no 'nodes N' header found")
    return Graph.from_edges(n_nodes, edges)


def load_edge_list(path) -> Graph:
    return parse_edge_list(Path(path).read_text(encoding="utf-8"))


def save_edge_list(graph: Graph, path) -> None:
    Path(path).write_text(format_edge_list(graph), encoding="utf-8", newline="\n")


def max_cut_brute_force(graph: Graph) -> tuple[float, int]:
    """Exhaustive maximum cut: (best cut value, first partition attaining it).

    The partition is encoded as a basis index (bit q = side of node q), and
    ties resolve to the smallest index. This is the independent check the
    Hamiltonian encoding is validated against.
    """
    n = graph.n_nodes
    if n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(
            f"brute force is capped at {BRUTE_FORCE_MAX_NODES} nodes, got {n}"
        )
    idx = np.arange(1 << n, dtype=np.int64)
    cut = np.zeros(1 << n, dtype=np.float64)
    for u, v, w in graph.edges:
        cut += w * (((idx >> u) ^ (idx >> v)) & 1)
    best = int(np.argmax(cut))
    return float(cut[best]), best


def reference_instance() -> Graph:
    """The pinned 8-node 3-regular benchmark graph shipped with the package."""
    from importlib.resources import files

    text = files("falqon").joinpath(_REFERENCE_RESOURCE).read_text(encoding="utf-8")
    return parse_edge_list(text)
