"""Dual-perspective interaction graph with class-typed normalized edges.

Every user owns two nodes, an active one (initiating interactions) and a
passive one (receiving them). A match between candidate i and job k inserts
two undirected edges, (c_i active, j_k passive) and (j_k active, c_i passive);
a lone application or reach-out inserts only the edge for its direction. Each
user may additionally get a self-association edge tying their two nodes.

Flat node ids: candidate i active -> i, passive -> n + i; job k active ->
2n + k, passive -> 2n + m + k. The single-node layout used by the ablation
without dual perspectives keeps one node per user: candidate i -> i,
job k -> n + k.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .corpus import InteractionSplit, sorted_unique
from .errors import ConfigError, GraphError

SELF_EDGE_MODES = ("as_match", "as_uni", "off")


class EdgeClass(enum.Enum):
    MATCH = "match"
    UNI = "uni"
    SELF = "self"


EDGE_CLASSES = tuple(EdgeClass)


@dataclass(frozen=True)
class NodeLayout:
    """Maps (side, role) to flat node index for dual or single layouts."""

    n: int
    m: int
    dual: bool = True

    @property
    def node_count(self) -> int:
        return 2 * (self.n + self.m) if self.dual else self.n + self.m

    def cand_active(self, i):
        return np.asarray(i)

    def cand_passive(self, i):
        return np.asarray(i) + (self.n if self.dual else 0)

    def job_active(self, k):
        return np.asarray(k) + (2 * self.n if self.dual else self.n)

    def job_passive(self, k):
        return np.asarray(k) + (2 * self.n + self.m if self.dual else self.n)


def _unique_edges(src: np.ndarray, dst: np.ndarray, node_count: int) -> np.ndarray:
    """Canonicalize undirected (src, dst) pairs and drop duplicates.

    Returns an (e, 2) int64 array sorted by (lo, hi); rows satisfy lo < hi.
    """
    if src.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    lo = np.minimum(src, dst).astype(np.int64)
    hi = np.maximum(src, dst).astype(np.int64)
    if np.any(lo == hi):
        raise GraphError("degenerate edge connecting a node to itself")
    keys = sorted_unique(lo * node_count + hi)
    return np.stack([keys // node_count, keys % node_count], axis=1)


@dataclass
class DualGraph:
    """Undirected edge list with class codes and shared degree normalization.

    Row e of ``edges`` is a node pair (lo, hi) with lo < hi, its class is
    ``EDGE_CLASSES[classes[e]]``, and its coefficient is
    1/sqrt(deg(lo)*deg(hi)), where degrees count incident edges across all
    classes, so isolated nodes carry no arcs and never divide by zero.
    """

    layout: NodeLayout
    self_edges: str
    edges: np.ndarray          # (e, 2) int64, sorted by class then (lo, hi)
    classes: np.ndarray        # (e,) int8 index into EDGE_CLASSES
    coeffs: np.ndarray         # (e,) float64
    degrees: np.ndarray
    _operators: dict[float, sp.csr_matrix] = field(default_factory=dict, repr=False)

    @property
    def node_count(self) -> int:
        return self.layout.node_count

    @property
    def edge_counts(self) -> dict[EdgeClass, int]:
        counts = np.bincount(self.classes, minlength=len(EDGE_CLASSES))
        return {cls: int(count) for cls, count in zip(EDGE_CLASSES, counts)}

    def operator(self, omega: float) -> sp.csr_matrix:
        """Combined propagation operator: match + omega * uni (+ self edges).

        Self-association edges fold into the match term at weight 1 under
        "as_match" and into the unidirectional term (weight omega) under
        "as_uni"; under "off" they do not exist. Arcs weighted zero are
        dropped, so omega = 0 removes the unidirectional edges.
        """
        key = float(omega)
        cached = self._operators.get(key)
        if cached is not None:
            return cached
        self_weight = omega if self.self_edges == "as_uni" else 1.0
        weights = np.array([1.0, omega, self_weight])[self.classes]
        data = weights * self.coeffs
        rows = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        cols = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        total = self.node_count
        combined = sp.csr_matrix(
            (np.concatenate([data, data]), (rows, cols)), shape=(total, total)
        )
        combined.eliminate_zeros()
        self._operators[key] = combined
        return combined


def build_graph(
    split: InteractionSplit,
    n: int,
    m: int,
    self_edges: str = "as_match",
    dual: bool = True,
) -> DualGraph:
    """Assemble the interaction graph for one split.

    A pair that both matched and interacted unidirectionally contributes only
    its match edges. In the single-node layout every pair collapses to one
    undirected edge and self-association edges cannot exist.
    """
    if self_edges not in SELF_EDGE_MODES:
        raise ConfigError(f"self_edges must be one of {SELF_EDGE_MODES}, got {self_edges!r}")
    layout = NodeLayout(n=n, m=m, dual=dual)
    total = layout.node_count

    mc, mj = split.matches.T
    ac, aj = split.applies.T
    rc, rj = split.reachouts.T

    if dual:
        match_src = np.concatenate([layout.cand_active(mc), layout.job_active(mj)])
        match_dst = np.concatenate([layout.job_passive(mj), layout.cand_passive(mc)])
        uni_src = np.concatenate([layout.cand_active(ac), layout.job_active(rj)])
        uni_dst = np.concatenate([layout.job_passive(aj), layout.cand_passive(rc)])
    else:
        match_src = layout.cand_active(mc)
        match_dst = layout.job_passive(mj)
        uni_src = np.concatenate([layout.cand_active(ac), layout.cand_active(rc)])
        uni_dst = np.concatenate([layout.job_passive(aj), layout.job_passive(rj)])

    match_edges = _unique_edges(match_src, match_dst, total)
    uni_edges = _unique_edges(uni_src, uni_dst, total)
    if match_edges.size and uni_edges.size:
        # Match wins when the same node pair appears in both classes.
        match_keys = match_edges[:, 0] * total + match_edges[:, 1]
        uni_keys = uni_edges[:, 0] * total + uni_edges[:, 1]
        uni_edges = uni_edges[~np.isin(uni_keys, match_keys, assume_unique=True)]

    if dual and self_edges != "off":
        users = np.arange(n + m, dtype=np.int64)
        cands, jobs = users[:n], np.arange(m, dtype=np.int64)
        self_src = np.concatenate([layout.cand_active(cands), layout.job_active(jobs)])
        self_dst = np.concatenate([layout.cand_passive(cands), layout.job_passive(jobs)])
        self_edges_arr = _unique_edges(self_src, self_dst, total)
        mode = self_edges
    else:
        self_edges_arr = np.empty((0, 2), dtype=np.int64)
        mode = "off"

    by_class = (match_edges, uni_edges, self_edges_arr)
    edges = np.concatenate(by_class)
    classes = np.repeat(np.arange(len(by_class), dtype=np.int8), [e.shape[0] for e in by_class])
    degrees = np.bincount(edges.ravel(), minlength=total).astype(np.int64)
    coeffs = 1.0 / np.sqrt(degrees[edges[:, 0]] * degrees[edges[:, 1]])
    return DualGraph(
        layout=layout,
        self_edges=mode,
        edges=edges,
        classes=classes,
        coeffs=coeffs,
        degrees=degrees,
    )


def edge_table(graph: DualGraph) -> list[tuple[int, int, str, float]]:
    """Flat (src, dst, class, coeff) rows for inspection dumps, src < dst."""
    return sorted(
        (int(src), int(dst), EDGE_CLASSES[cls].value, float(coeff))
        for (src, dst), cls, coeff in zip(graph.edges, graph.classes, graph.coeffs)
    )
