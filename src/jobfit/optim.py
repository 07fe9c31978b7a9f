"""Losses, exact manual gradients, Adam, the training loop, and checkpoints.

The whole forward pass is linear algebra plus smooth scalar maps, so
gradients are computed in closed form: score gradients scatter into a dense
matrix over node representations, the symmetric averaged propagation operator
pulls that back to layer zero, and the layer-zero gradient splits into the id
embedding rows and (through the frozen document table) the text projection.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .corpus import SplitDataset, sorted_unique, write_atomic
from .errors import CheckpointError, ConfigError, SamplingError, TrainingError
from .evaluation import (
    PartnerLists,
    build_eval_instances,
    distinct_draws,
    evaluate,
    interaction_counts,
    partner_maps,
)
from .graph import SELF_EDGE_MODES, DualGraph, NodeLayout
from .model import (
    ModelParams,
    VariantConfig,
    apply_mean_powers,
    build_variant_graph,
    check_finite,
    init_params,
    node_doc_table,
    propagate,
)

CKPT_MAGIC = b"DPFCKPT1"
CKPT_VERSION = 4
# Marks a document table that had no file: the all-zero fallback of width d_o.
ZERO_TABLE = bytes(32)
# After the magic and version: sizes and variant, best epoch and metric, the
# input fingerprint, and the match row counts of MATCH_SPLITS, in that order.
_HEADER = struct.Struct("<6I4B2dI" "Id" "?32s2q32s32s" "3Q")
_PAYLOAD_AT = len(CKPT_MAGIC) + 4 + _HEADER.size
MATCH_SPLITS = ("train", "valid", "test")


@dataclass(frozen=True)
class TrainConfig:
    d_e: int = 128
    d_t: int = 32
    learning_rate: float = 1e-3
    batch_size: int = 512
    max_epochs: int = 100
    patience: int = 10
    tau: float = 0.2
    seed: int = 0
    eval_seed: int = 1
    ssl_negatives: int = 0          # 0 keeps in-batch denominators
    eval_negatives: int = 20
    k: int = 5

    def validate(self) -> None:
        if self.d_e <= 0 or self.d_t <= 0:
            raise ConfigError(f"d_e and d_t must be positive, got {self.d_e}, {self.d_t}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size <= 0:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.max_epochs < 0:
            raise ConfigError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.patience <= 0:
            raise ConfigError(f"patience must be positive, got {self.patience}")
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if self.ssl_negatives < 0:
            raise ConfigError(f"ssl_negatives must be >= 0, got {self.ssl_negatives}")
        if self.eval_negatives <= 0:
            raise ConfigError(f"eval_negatives must be positive, got {self.eval_negatives}")
        if self.k <= 0:
            raise ConfigError(f"k must be positive, got {self.k}")


def softplus(x):
    """log(1 + exp(x)) computed without overflow."""
    return np.logaddexp(0.0, x)


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of a finite 2-D array.

    SciPy 1.17's ``logsumexp(a, axis=1)`` algorithm, equal to it bit for bit:
    the row maximum's terms are counted out of the sum, for precision.
    """
    top = a.max(axis=1)
    is_top = a == top[:, None]
    terms = np.exp(a - top[:, None])
    terms[is_top] = 0.0
    ties = is_top.sum(axis=1, dtype=a.dtype)
    return np.log1p(terms.sum(axis=1) / ties) + np.log(ties) + top


def scatter_add_rows(out: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """out[ids] += rows, repeated ids summed in input order by one segment-sum product."""
    ids = np.asarray(ids)
    indptr = np.r_[0, np.cumsum(np.bincount(ids, minlength=len(out)))]
    order = np.argsort(ids, kind="stable")
    out += sp.csr_matrix((np.ones(ids.size), order, indptr), shape=(len(out), ids.size)) @ rows


def sample_quadruples(
    cands: np.ndarray,
    jobs: np.ndarray,
    by_cand: PartnerLists,
    by_job: PartnerLists,
    n: int,
    m: int,
    rng: np.random.Generator,
    max_tries: int = 1000,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform negative job and candidate per positive pair, by rejection.

    Exclusion lists must cover matches from every split so no sampled negative
    is a true match anywhere in the data.
    """
    cand_width, cand_keys = by_cand.pair_keys
    job_width, job_keys = by_job.pair_keys
    neg_jobs = np.empty(len(cands), dtype=np.int64)
    neg_cands = np.empty(len(cands), dtype=np.int64)
    for idx in range(len(cands)):
        cand, job = int(cands[idx]), int(jobs[idx])
        base = cand * cand_width
        for _ in range(max_tries):
            draw = int(rng.integers(0, m))
            if draw >= cand_width or base + draw not in cand_keys:
                neg_jobs[idx] = draw
                break
        else:
            raise SamplingError(f"no eligible negative job found for candidate {cand}")
        base = job * job_width
        for _ in range(max_tries):
            draw = int(rng.integers(0, n))
            if draw >= job_width or base + draw not in job_keys:
                neg_cands[idx] = draw
                break
        else:
            raise SamplingError(f"no eligible negative candidate found for job {job}")
    return neg_jobs, neg_cands


def _main_loss_and_weights(y_pos, y_neg_job, y_neg_cand, quadruple: bool):
    """Mean quadruple or pairwise ranking loss and its derivatives by each score."""
    y_pos, y_neg_job, y_neg_cand = (np.asarray(y) for y in (y_pos, y_neg_job, y_neg_cand))
    batch = y_pos.size
    if quadruple:
        x = y_pos - 0.5 * y_neg_job - 0.5 * y_neg_cand
        dx = (expit(x) - 1.0) / batch
        return float(np.mean(softplus(-x))), (dx, -0.5 * dx, -0.5 * dx)
    x1 = y_pos - y_neg_job
    x2 = y_pos - y_neg_cand
    dx1 = 0.5 * (expit(x1) - 1.0) / batch
    dx2 = 0.5 * (expit(x2) - 1.0) / batch
    return float(np.mean(0.5 * (softplus(-x1) + softplus(-x2)))), (dx1 + dx2, -dx1, -dx2)


def quadruple_loss(y_pos, y_neg_job, y_neg_cand) -> float:
    """Mean -log sigmoid(y_pos - y_neg_job/2 - y_neg_cand/2) over the batch."""
    return main_loss(y_pos, y_neg_job, y_neg_cand, quadruple=True)


def pairwise_bpr_loss(y_pos, y_neg_job, y_neg_cand) -> float:
    """Average of the two one-sided pairwise ranking losses per quadruple."""
    return main_loss(y_pos, y_neg_job, y_neg_cand, quadruple=False)


def main_loss(y_pos, y_neg_job, y_neg_cand, quadruple: bool = True) -> float:
    return _main_loss_and_weights(y_pos, y_neg_job, y_neg_cand, quadruple)[0]


def _side_contrastive(
    z: np.ndarray,
    active: Callable[[np.ndarray], np.ndarray],
    passive: Callable[[np.ndarray], np.ndarray],
    users: np.ndarray,
    tau: float,
    dens: np.ndarray | None = None,
    grad_out: np.ndarray | None = None,
    weight: float = 1.0,
) -> float:
    """One side's contrastive loss over distinct anchors ``users``.

    Anchor i scores its active node against the passive nodes of a column set
    C of users (s1) and its passive node against their active nodes (s2). Its
    denominator sums exp of both over its denominator set, which includes the
    anchor itself; the numerator is its own active/passive agreement. With
    ``dens`` None the set is the whole batch and C is ``users``. Otherwise row
    i of ``dens`` is anchor i's set (the anchor in column 0), C is every user
    in ``dens``, and only the row's S + 1 scores are gathered into the
    log-sum-exp. Returns the sum (not mean) over anchors.
    """
    batch = len(users)
    if batch == 0:
        return 0.0
    rows = np.arange(batch)
    if dens is None:
        cols, own = users, rows
    else:
        cols, where = np.unique(dens, return_inverse=True)
        where = where.reshape(dens.shape)
        own = where[:, 0]
    a_cols = z[active(cols)]
    p_cols = z[passive(cols)]
    a, p = (a_cols, p_cols) if dens is None else (a_cols[own], p_cols[own])
    s1 = (a @ p_cols.T) / tau
    if dens is None:
        # C is the anchors, so s2 = s1.T. The copy makes it C-contiguous:
        # logsumexp_rows sums an F-ordered array's rows in another order.
        live1, live2, pos = s1, s1.T.copy(), own
    else:
        s2 = ((a_cols @ p.T) / tau).T  # s2[i, c] = a_c . p_i / tau
        live1, live2, pos = np.take_along_axis(s1, where, 1), np.take_along_axis(s2, where, 1), 0
    logden = np.logaddexp(logsumexp_rows(live1), logsumexp_rows(live2))
    loss = float(np.sum(logden - live1[rows, pos]))
    if grad_out is not None:
        g1 = np.exp(live1 - logden[:, None])
        w2 = np.exp(live2 - logden[:, None])
        g1[rows, pos] -= 1.0
        if dens is not None:  # back to C's columns, zero outside each row's set
            g1_cols, w2_cols = np.zeros(s1.shape), np.zeros(s1.shape)
            np.put_along_axis(g1_cols, where, g1, 1)
            np.put_along_axis(w2_cols, where, w2, 1)
            g1, w2 = g1_cols, w2_cols
        # Gradients in C's row space; the anchors' own rows are part of C.
        d_active = w2.T @ p
        d_active[own] += g1 @ p_cols
        d_passive = g1.T @ a
        d_passive[own] += w2 @ a_cols
        grad_out[active(cols)] += weight * (d_active / tau)
        grad_out[passive(cols)] += weight * (d_passive / tau)
    return loss


def ssl_loss(
    z: np.ndarray,
    layout: NodeLayout,
    cand_users: np.ndarray,
    job_users: np.ndarray,
    tau: float,
) -> float:
    """Dual-perspective contrastive loss, candidate side plus job side."""
    if tau <= 0:
        raise ConfigError(f"tau must be positive, got {tau}")
    cand_users = np.asarray(cand_users, dtype=np.int64)
    job_users = np.asarray(job_users, dtype=np.int64)
    return _contrastive(z, layout, cand_users, job_users, tau)


def _contrastive(
    z: np.ndarray,
    layout: NodeLayout,
    cand_users: np.ndarray,
    job_users: np.ndarray,
    tau: float,
    ssl_dens: tuple[np.ndarray, np.ndarray] | None = None,
    grad_out: np.ndarray | None = None,
    weight: float = 1.0,
) -> float:
    """Candidate-side plus job-side contrastive loss, in-batch or sampled."""
    loss = 0.0
    for side, (users, active, passive) in enumerate((
        (cand_users, layout.cand_active, layout.cand_passive),
        (job_users, layout.job_active, layout.job_passive),
    )):
        dens = None if ssl_dens is None else ssl_dens[side]
        loss += _side_contrastive(z, active, passive, users, tau, dens, grad_out, weight)
    return loss


def sample_ssl_denominators(
    anchors: np.ndarray, universe: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """(batch, count + 1) user ids per anchor; column 0 is the anchor."""
    if count >= universe:
        raise SamplingError(
            f"cannot sample {count} distinct contrastive negatives from {universe} users"
        )
    anchors = np.asarray(anchors, dtype=np.int64)
    draws = distinct_draws(rng, np.full(len(anchors), universe - 1), count)
    return np.concatenate([anchors[:, None], draws + (draws >= anchors[:, None])], axis=1)


@dataclass
class BatchResult:
    loss_main: float
    loss_ssl: float
    d_embeddings: np.ndarray
    d_projection: np.ndarray


def _losses_and_score_grads(
    z: np.ndarray,
    layout: NodeLayout,
    variant: VariantConfig,
    quads: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    cand_users: np.ndarray,
    job_users: np.ndarray,
    tau: float,
    ssl_dens: tuple[np.ndarray, np.ndarray] | None,
    grad_out: np.ndarray | None,
) -> tuple[float, float]:
    cands, jobs, neg_cands, neg_jobs = quads
    if len(cands) == 0:
        raise TrainingError("empty batch of positive pairs")
    # The positive, negative-job and negative-candidate pairs, in three blocks.
    pair_cands = np.concatenate([cands, cands, neg_cands])
    pair_jobs = np.concatenate([jobs, neg_jobs, jobs])
    ca, cp = layout.cand_active(pair_cands), layout.cand_passive(pair_cands)
    ja, jp = layout.job_active(pair_jobs), layout.job_passive(pair_jobs)
    # One gather, in the order the scatter pairs each row with its partner's id.
    rows = z[np.concatenate([jp, ca, cp, ja])]
    z_jp, z_ca, z_cp, z_ja = np.split(rows, 4)
    y = 0.5 * (np.sum(z_ca * z_jp, axis=-1) + np.sum(z_ja * z_cp, axis=-1))
    loss_main, weights = _main_loss_and_weights(*np.split(y, 3), variant.quadruple_loss)
    if grad_out is not None:
        half = np.tile(0.5 * np.concatenate(weights), 4)[:, None]
        scatter_add_rows(grad_out, np.concatenate([ca, jp, ja, cp]), half * rows)

    loss_ssl = 0.0
    if variant.ssl_weight > 0:
        loss_ssl = _contrastive(
            z, layout, cand_users, job_users, tau, ssl_dens, grad_out, variant.ssl_weight
        )
    return loss_main, loss_ssl


def batch_loss(
    params: ModelParams,
    graph: DualGraph,
    variant: VariantConfig,
    quads: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    cand_users: np.ndarray,
    job_users: np.ndarray,
    tau: float,
    ssl_dens: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Joint objective value for a fixed batch, forward pass only."""
    state = propagate(params, graph, variant)
    loss_main, loss_ssl = _losses_and_score_grads(
        state.z, params.layout, variant, quads, cand_users, job_users, tau, ssl_dens, None
    )
    return loss_main + variant.ssl_weight * loss_ssl


def batch_gradients(
    params: ModelParams,
    graph: DualGraph,
    variant: VariantConfig,
    quads: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    cand_users: np.ndarray,
    job_users: np.ndarray,
    tau: float,
    ssl_dens: tuple[np.ndarray, np.ndarray] | None = None,
    z: np.ndarray | None = None,
) -> BatchResult:
    """Joint loss and exact gradients; ``z`` is the forward pass of ``params``, if known."""
    if z is None:
        z = propagate(params, graph, variant).z
    grad_z = np.zeros_like(z)
    loss_main, loss_ssl = _losses_and_score_grads(
        z, params.layout, variant, quads, cand_users, job_users, tau, ssl_dens, grad_z
    )
    grad_z0 = apply_mean_powers(graph, variant, grad_z)
    d_embeddings = grad_z0[:, : params.d_e]
    d_projection = grad_z0[:, params.d_e :].T @ params.doc_table
    check_finite(d_embeddings, "the embeddings gradient")
    check_finite(d_projection, "the projection gradient")
    return BatchResult(loss_main, loss_ssl, d_embeddings, d_projection)


@dataclass
class AdamState:
    m_embeddings: np.ndarray
    v_embeddings: np.ndarray
    m_projection: np.ndarray
    v_projection: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamState":
        return cls(
            m_embeddings=np.zeros_like(params.embeddings),
            v_embeddings=np.zeros_like(params.embeddings),
            m_projection=np.zeros_like(params.projection),
            v_projection=np.zeros_like(params.projection),
        )


def adam_step(
    params: ModelParams,
    d_embeddings: np.ndarray,
    d_projection: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, in place, through two scratch arrays per tensor.

    Each tensor moves by ``(lr * m_hat) / (sqrt(v_hat) + eps)``, in that order.
    """
    state.step += 1
    t = state.step
    for value, grad, m, v in (
        (params.embeddings, d_embeddings, state.m_embeddings, state.v_embeddings),
        (params.projection, d_projection, state.m_projection, state.v_projection),
    ):
        step, den = np.multiply(grad, 1.0 - beta1), np.square(grad)
        m *= beta1
        m += step
        den *= 1.0 - beta2
        v *= beta2
        v += den
        np.divide(m, 1.0 - beta1**t, out=step)
        step *= lr
        np.divide(v, 1.0 - beta2**t, out=den)
        np.sqrt(den, out=den)
        den += eps
        step /= den
        value -= step


@dataclass(frozen=True)
class InputFingerprint:
    """The inputs a checkpoint was trained from.

    Digests are sha256 of the file bytes; ``ZERO_TABLE`` stands for a
    document table without a file, the zero fallback of the checkpoint's
    ``d_o`` columns.
    """

    log_sha256: bytes
    t_valid_start: int
    t_test_start: int
    cand_docs_sha256: bytes
    job_docs_sha256: bytes


@dataclass
class Checkpoint:
    """Trained parameters, the best epoch's final table ``z`` and the split it was trained on.

    ``z`` is ``propagate`` of the stored parameters over the training graph,
    so reads score pairs from it directly. ``matches`` maps each of
    ``MATCH_SPLITS`` to its sorted (k, 2) match rows, and ``train_counts``
    holds each user's training interactions, candidates first, so evaluation
    reads no event log. ``fingerprint`` is ``None`` until the caller that
    knows the input files sets it.
    """

    n: int
    m: int
    d_e: int
    d_t: int
    d_o: int
    variant: VariantConfig
    embeddings: np.ndarray
    projection: np.ndarray
    epoch: int
    best_metric: float
    z: np.ndarray
    matches: dict[str, np.ndarray]
    train_counts: np.ndarray
    fingerprint: InputFingerprint | None = None

    @property
    def layout(self) -> NodeLayout:
        return NodeLayout(self.n, self.m, self.variant.dual_graph)


def checkpoint_from(
    params: ModelParams,
    variant: VariantConfig,
    epoch: int,
    best_metric: float,
    z: np.ndarray,
    matches: dict[str, np.ndarray],
    train_counts: np.ndarray,
) -> Checkpoint:
    """Snapshot of the parameters; ``z``, ``matches`` and ``train_counts`` are kept, not copied."""
    layout = params.layout
    return Checkpoint(
        n=layout.n,
        m=layout.m,
        d_e=params.d_e,
        d_t=params.d_t,
        d_o=params.d_o,
        variant=variant,
        embeddings=params.embeddings.copy(),
        projection=params.projection.copy(),
        epoch=epoch,
        best_metric=best_metric,
        z=z,
        matches=matches,
        train_counts=train_counts,
    )


def params_from_checkpoint(
    ckpt: Checkpoint, cand_docs: np.ndarray, job_docs: np.ndarray
) -> ModelParams:
    if cand_docs.shape[1] != ckpt.d_o:
        raise CheckpointError(
            f"checkpoint expects document dimension {ckpt.d_o}, got {cand_docs.shape[1]}"
        )
    doc_table = node_doc_table(ckpt.layout, cand_docs, job_docs)
    return ModelParams(ckpt.layout, ckpt.embeddings.copy(), ckpt.projection.copy(), doc_table)


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    variant, fp = ckpt.variant, ckpt.fingerprint
    fp_fields = astuple(fp) if fp is not None else (ZERO_TABLE, 0, 0, ZERO_TABLE, ZERO_TABLE)
    matches = [ckpt.matches[name] for name in MATCH_SPLITS]
    blob = bytearray(CKPT_MAGIC + struct.pack("<I", CKPT_VERSION))
    blob += _HEADER.pack(
        ckpt.n, ckpt.m, ckpt.d_e, ckpt.d_t, ckpt.d_o, ckpt.layout.node_count,
        int(variant.dual_graph), int(variant.quadruple_loss),
        SELF_EDGE_MODES.index(variant.self_edges), 0,
        variant.ssl_weight, variant.omega, variant.layers,
        ckpt.epoch, ckpt.best_metric,
        fp is not None, *fp_fields,
        *(len(rows) for rows in matches),
    )
    for arr in (ckpt.embeddings, ckpt.projection, ckpt.z):
        blob += np.ascontiguousarray(arr, dtype="<f8").tobytes(order="C")
    for arr in (*matches, ckpt.train_counts):
        blob += np.ascontiguousarray(arr, dtype="<i8").tobytes(order="C")
    blob += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)
    write_atomic(path, blob)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read and check a checkpoint; its tensors are writable views of one read buffer."""
    path = Path(path)
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        # Start the buffer so that the 8-byte elements after the header are aligned.
        buf = np.empty(size + 8, dtype=np.uint8)
        start = -(buf.ctypes.data + _PAYLOAD_AT) % 8
        raw = buf[start : start + fh.readinto(buf[start : start + size])]
    blob = memoryview(raw)
    if len(blob) < len(CKPT_MAGIC) + 4:
        raise CheckpointError(f"{path}: truncated checkpoint")
    if blob[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    stored_crc = struct.unpack_from("<I", blob, len(blob) - 4)[0]
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"{path}: checksum mismatch, checkpoint is corrupt")
    offset = len(CKPT_MAGIC)
    (version,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    if version != CKPT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version} (this jobfit reads version "
            f"{CKPT_VERSION}); retrain it with jobfit train"
        )
    if len(blob) < _PAYLOAD_AT + 4:
        raise CheckpointError(f"{path}: truncated checkpoint")
    head = _HEADER.unpack_from(blob, offset)
    offset += _HEADER.size
    n, m, d_e, d_t, d_o, node_count, dual, quad, self_idx, _pad = head[:10]
    ssl_weight, omega, layers, epoch, best_metric, has_fingerprint = head[10:16]
    fingerprint, match_counts = head[16:21], head[21:]
    if not 0 <= self_idx < len(SELF_EDGE_MODES):
        raise CheckpointError(f"{path}: invalid self-edge mode index {self_idx}")
    variant = VariantConfig(
        dual_graph=bool(dual),
        quadruple_loss=bool(quad),
        ssl_weight=ssl_weight,
        omega=omega,
        layers=layers,
        self_edges=SELF_EDGE_MODES[self_idx],
    )
    expected_nodes = 2 * (n + m) if variant.dual_graph else n + m
    if node_count != expected_nodes:
        raise CheckpointError(
            f"{path}: node count {node_count} inconsistent with n={n}, m={m}, "
            f"dual={variant.dual_graph}"
        )

    # Every stored element is 8 bytes: float64 tensors, then int64 rows and counts.
    shapes = [("<f8", (node_count, d_e)), ("<f8", (d_t, d_o)), ("<f8", (node_count, d_e + d_t))]
    shapes += [("<i8", (rows, 2)) for rows in match_counts] + [("<i8", (n + m,))]
    if len(blob) - offset - 4 != sum(8 * math.prod(shape) for _, shape in shapes):
        raise CheckpointError(f"{path}: truncated checkpoint payload")
    arrays = []
    for dtype, shape in shapes:
        size = 8 * math.prod(shape)
        arrays.append(raw[offset : offset + size].view(dtype).reshape(shape))
        offset += size
    emb, proj, z, *matches, train_counts = arrays
    return Checkpoint(
        n=int(n),
        m=int(m),
        d_e=int(d_e),
        d_t=int(d_t),
        d_o=int(d_o),
        variant=variant,
        embeddings=emb,
        projection=proj,
        epoch=int(epoch),
        best_metric=float(best_metric),
        z=z,
        matches=dict(zip(MATCH_SPLITS, matches)),
        train_counts=train_counts,
        fingerprint=InputFingerprint(*fingerprint) if has_fingerprint else None,
    )


@dataclass(frozen=True)
class HistoryRow:
    epoch: int
    loss_main: float
    loss_ssl: float
    val_mrr_cand: float
    val_mrr_job: float


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    history: list[HistoryRow] = field(default_factory=list)


def train(
    dataset: SplitDataset,
    cand_docs: np.ndarray,
    job_docs: np.ndarray,
    config: TrainConfig,
    variant: VariantConfig,
) -> TrainResult:
    """Mini-batch training with early stopping on mean validation MRR.

    The graph is built from the training split only. Every epoch shuffles the
    training matches; each mini-batch samples one negative job and one
    negative candidate per positive and takes one Adam step on the joint
    objective. ``z`` is propagated before the first step and after each step,
    and feeds the next step, validation and the checkpoint. The checkpoint with
    the best mean of the two directions' validation MRR is returned (with
    ``max_epochs == 0``, the initial parameters at epoch 0 with a NaN metric).
    """
    config.validate()
    variant.validate()
    n, m = dataset.n, dataset.m
    if variant.ssl_weight > 0 and config.ssl_negatives >= min(n, m) > 0:
        raise ConfigError(
            f"ssl_negatives must be below min(n, m) with the contrastive term on, "
            f"got {config.ssl_negatives} for n={n} candidates and m={m} jobs"
        )
    train_matches = dataset.train.matches
    if len(train_matches) == 0:
        raise TrainingError("training split has no matches")
    if len(dataset.valid.matches) == 0:
        raise TrainingError("validation split has no matches, early stopping is undefined")

    # What reads of the checkpoint need besides z.
    matches = {name: getattr(dataset, name).matches for name in MATCH_SPLITS}
    train_counts = np.concatenate(interaction_counts(dataset.train, n, m))
    graph = build_variant_graph(dataset.train, n, m, variant)
    layout = graph.layout
    params = init_params(layout, config.d_e, config.d_t, cand_docs, job_docs, config.seed)
    adam = AdamState.zeros(params)
    by_cand, by_job = partner_maps(dataset.all_matches)
    val_instances = build_eval_instances(
        dataset.valid.matches, by_cand, by_job, n, m, config.eval_seed, config.eval_negatives
    )

    rng = np.random.default_rng(config.seed)
    z = propagate(params, graph, variant).z
    best = checkpoint_from(params, variant, 0, float("nan"), z, matches, train_counts)
    epochs_since_best = 0
    history: list[HistoryRow] = []

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_matches))
        main_total = 0.0
        ssl_total = 0.0
        batches = 0
        for start in range(0, len(train_matches), config.batch_size):
            pairs = train_matches[order[start : start + config.batch_size]]
            cands, jobs = pairs[:, 0], pairs[:, 1]
            neg_jobs, neg_cands = sample_quadruples(
                cands, jobs, by_cand, by_job, n, m, rng
            )
            cand_users = sorted_unique(cands)
            job_users = sorted_unique(jobs)
            ssl_dens = None
            if variant.ssl_weight > 0 and config.ssl_negatives > 0:
                ssl_dens = (
                    sample_ssl_denominators(cand_users, n, config.ssl_negatives, rng),
                    sample_ssl_denominators(job_users, m, config.ssl_negatives, rng),
                )
            result = batch_gradients(
                params,
                graph,
                variant,
                (cands, jobs, neg_cands, neg_jobs),
                cand_users,
                job_users,
                config.tau,
                ssl_dens,
                z,
            )
            adam_step(params, result.d_embeddings, result.d_projection, adam, config.learning_rate)
            z = propagate(params, graph, variant).z
            main_total += result.loss_main
            ssl_total += result.loss_ssl
            batches += 1

        report = evaluate(z, layout, val_instances, k=config.k)
        metric = 0.5 * (report.for_candidates.mrr + report.for_jobs.mrr)
        history.append(
            HistoryRow(
                epoch=epoch,
                loss_main=main_total / batches,
                loss_ssl=ssl_total / batches,
                val_mrr_cand=report.for_candidates.mrr,
                val_mrr_job=report.for_jobs.mrr,
            )
        )
        if best.epoch == 0 or metric > best.best_metric:
            epochs_since_best = 0
            best = checkpoint_from(params, variant, epoch, metric, z, matches, train_counts)
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break
    return TrainResult(checkpoint=best, history=history)
