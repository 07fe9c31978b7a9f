"""Node embeddings, hybrid propagation, and two-way pair scoring.

A node's initial representation is the concatenation of its learnable id
embedding with a learned linear projection of its user's frozen document
embedding. Propagation is linear: each layer aggregates match-class neighbors
at full weight and unidirectional neighbors scaled by omega, and the final
representation is the average of all layer outputs including layer zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corpus import InteractionSplit
from .errors import ConfigError, NumericsError
from .graph import SELF_EDGE_MODES, DualGraph, NodeLayout, build_graph

VARIANTS = ("full", "no-dpg", "no-ql", "no-ssl")


@dataclass(frozen=True)
class VariantConfig:
    """Model axes: graph shape, ranking loss form, and objective weights."""

    dual_graph: bool = True
    quadruple_loss: bool = True
    ssl_weight: float = 0.05
    omega: float = 1.0
    layers: int = 3
    self_edges: str = "as_match"

    def validate(self) -> None:
        if self.layers < 0:
            raise ConfigError(f"layers must be >= 0, got {self.layers}")
        if self.ssl_weight < 0:
            raise ConfigError(f"ssl_weight must be >= 0, got {self.ssl_weight}")
        if self.omega < 0:
            raise ConfigError(f"omega must be >= 0, got {self.omega}")
        if self.self_edges not in SELF_EDGE_MODES:
            raise ConfigError(
                f"self_edges must be one of {SELF_EDGE_MODES}, got {self.self_edges!r}"
            )


def variant_config(name: str, **overrides) -> VariantConfig:
    """Build a VariantConfig from one of the named ablation presets."""
    if name not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {name!r}")
    cfg = VariantConfig(**overrides)
    if name == "no-dpg":
        cfg = replace(cfg, dual_graph=False)
    elif name == "no-ql":
        cfg = replace(cfg, quadruple_loss=False)
    elif name == "no-ssl":
        cfg = replace(cfg, ssl_weight=0.0)
    cfg.validate()
    return cfg


@dataclass
class ModelParams:
    """Learnable state plus the frozen per-node document table.

    ``doc_table`` holds one row per node; both nodes of a user share the
    user's document embedding. Only ``embeddings`` and ``projection`` are
    updated by the optimizer.
    """

    layout: NodeLayout
    embeddings: np.ndarray     # (node_count, d_e), learnable
    projection: np.ndarray     # (d_t, d_o), learnable, shared across sides
    doc_table: np.ndarray      # (node_count, d_o), frozen

    @property
    def d_e(self) -> int:
        return self.embeddings.shape[1]

    @property
    def d_t(self) -> int:
        return self.projection.shape[0]

    @property
    def d_o(self) -> int:
        return self.projection.shape[1]

    @property
    def dim(self) -> int:
        return self.d_e + self.d_t


def node_doc_table(layout: NodeLayout, cand_docs: np.ndarray, job_docs: np.ndarray) -> np.ndarray:
    """Expand per-user document rows to per-node rows for the layout."""
    cand_docs = np.asarray(cand_docs, dtype=np.float64)
    job_docs = np.asarray(job_docs, dtype=np.float64)
    if cand_docs.shape[0] != layout.n or job_docs.shape[0] != layout.m:
        raise ConfigError(
            f"document tables have {cand_docs.shape[0]}/{job_docs.shape[0]} rows, "
            f"layout needs {layout.n}/{layout.m}"
        )
    if cand_docs.shape[1] != job_docs.shape[1]:
        raise ConfigError("candidate and job document dimensions differ")
    if layout.dual:
        return np.vstack([cand_docs, cand_docs, job_docs, job_docs])
    return np.vstack([cand_docs, job_docs])


def init_params(
    layout: NodeLayout,
    d_e: int,
    d_t: int,
    cand_docs: np.ndarray,
    job_docs: np.ndarray,
    seed: int,
    dtype=np.float64,
) -> ModelParams:
    """Xavier-uniform initialization of the id table and text projection."""
    if d_e <= 0 or d_t <= 0:
        raise ConfigError(f"d_e and d_t must be positive, got {d_e}, {d_t}")
    doc_table = node_doc_table(layout, cand_docs, job_docs).astype(dtype)
    d_o = doc_table.shape[1]
    rng = np.random.default_rng(seed)
    bound_e = np.sqrt(6.0 / (d_e + d_e))
    embeddings = rng.uniform(-bound_e, bound_e, size=(layout.node_count, d_e)).astype(dtype)
    bound_w = np.sqrt(6.0 / (d_t + d_o))
    projection = rng.uniform(-bound_w, bound_w, size=(d_t, d_o)).astype(dtype)
    return ModelParams(layout, embeddings, projection, doc_table)


def node_init(params: ModelParams) -> np.ndarray:
    """Layer-zero representations: [id embedding ; projected document]."""
    return np.hstack([params.embeddings, params.doc_table @ params.projection.T])


@dataclass
class PropagatedState:
    z: np.ndarray


def check_finite(x: np.ndarray, what: str) -> None:
    """Raise NumericsError naming the first rows of x that hold inf or NaN."""
    finite = np.isfinite(x)
    if not finite.all():
        rows = np.flatnonzero(~finite.reshape(len(x), -1).all(axis=1))[:5]
        raise NumericsError(f"non-finite values in {what}, first rows {rows.tolist()}")


def propagate(params: ModelParams, graph: DualGraph, variant: VariantConfig) -> PropagatedState:
    """Run L propagation steps and average all layer outputs."""
    return PropagatedState(z=apply_mean_powers(graph, variant, node_init(params)))


def apply_mean_powers(graph: DualGraph, variant: VariantConfig, x: np.ndarray) -> np.ndarray:
    """Apply the averaged propagation operator (1/(L+1)) sum_l A^l to x.

    The operator is symmetric, so this is also the adjoint of the forward
    pass and backs the exact gradient with respect to layer-zero inputs.
    """
    op = graph.operator(variant.omega)
    acc = x.copy()
    cur = x
    for depth in range(1, variant.layers + 1):
        cur = op @ cur
        check_finite(cur, f"propagation layer {depth}")
        acc += cur
    return acc / (variant.layers + 1)


def pair_scores(z: np.ndarray, layout: NodeLayout, cands, jobs):
    """Directed and combined scores for (candidate, job) pairs.

    Returns (r, s, y): r scores the candidate's interest in the job, s the
    job's interest in the candidate, and y is their mean. In the single-node
    layout both directions collapse onto the same inner product, r = s = y.
    ``cands`` and ``jobs`` broadcast against each other, so an (a, 1) column
    of anchors against an (a, b) grid of items scores a·b pairs.
    """
    cands = np.asarray(cands)
    jobs = np.asarray(jobs)
    r = np.sum(z[layout.cand_active(cands)] * z[layout.job_passive(jobs)], axis=-1)
    s = np.sum(z[layout.job_active(jobs)] * z[layout.cand_passive(cands)], axis=-1)
    return r, s, 0.5 * (r + s)


def score_pair(z: np.ndarray, layout: NodeLayout, cand: int, job: int) -> tuple[float, float, float]:
    r, s, y = pair_scores(z, layout, [cand], [job])
    return float(r[0]), float(s[0]), float(y[0])


def build_variant_graph(
    split: InteractionSplit, n: int, m: int, variant: VariantConfig
) -> DualGraph:
    """Build the training graph for a variant (dual or single layout)."""
    self_edges = variant.self_edges if variant.dual_graph else "off"
    return build_graph(split, n, m, self_edges=self_edges, dual=variant.dual_graph)
