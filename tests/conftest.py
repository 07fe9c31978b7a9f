"""Shared fixtures and independent reference implementations.

The oracles here deliberately avoid the library's own code paths: dense
matrices built from neighbor sets with python loops, naive metric formulas,
and explicit per-coordinate updates. Tests compare the fast implementations
against these.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

import jobfit
from jobfit.corpus import KIND_TOKENS, InteractionSplit
from jobfit.errors import SamplingError
from jobfit.evaluation import Direction, partner_maps
from jobfit.model import pair_scores
from jobfit.optim import _main_loss_and_weights


@pytest.fixture(autouse=True, scope="session")
def subprocesses_import_this_jobfit():
    """Put the tested package on subprocesses' path (criterion 8 starts some).

    Without an install, pytest's ``pythonpath`` setting reaches only this
    process, not the environment that child processes inherit.
    """
    package_root = str(Path(jobfit.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", package_root, prepend=os.pathsep)
        yield


def make_split(applies=(), reachouts=(), matches=()) -> InteractionSplit:
    return InteractionSplit(applies=applies, reachouts=reachouts, matches=matches)


def naive_write_events(path, log, comments=()) -> None:
    """Reference for write_events: one f-string per header, comment and event."""
    lines = [f"#n={log.n}\tm={log.m}\n"] + [f"# {comment}\n" for comment in comments]
    for kind, cand, job, day in zip(
        log.kinds.tolist(), log.candidates.tolist(), log.jobs.tolist(), log.days.tolist()
    ):
        lines.append(f"{KIND_TOKENS[kind]}\t{cand}\t{job}\t{day}\n")
    Path(path).write_bytes("".join(lines).encode("utf-8"))


def naive_temporal_split(rows, t_valid_start: int, t_test_start: int):
    """Set-based reference for temporal_split over (kind, cand, job, day) rows.

    Kinds are codes 0 apply, 1 reach-out, 2 match. Returns one
    {"applies", "reachouts", "matches"} -> set of (cand, job) dict per window.
    Within a window a match removes the pair's directed events, and a pair
    matched in an earlier window disappears from later windows.
    """
    names = ("applies", "reachouts", "matches")
    windows = ([], [], [])
    for kind, cand, job, day in rows:
        index = 0 if day < t_valid_start else 1 if day < t_test_start else 2
        windows[index].append((names[kind], int(cand), int(job)))
    out = []
    matched_earlier: set[tuple[int, int]] = set()
    for window in windows:
        sets = {name: set() for name in names}
        for name, cand, job in window:
            sets[name].add((cand, job))
        sets["applies"] -= sets["matches"]
        sets["reachouts"] -= sets["matches"]
        sets = {name: pairs - matched_earlier for name, pairs in sets.items()}
        matched_earlier |= sets["matches"]
        out.append(sets)
    return out


def dual_ids(n: int, m: int):
    """Flat node ids for the dual layout, rederived from first principles."""
    return (
        lambda i: i,              # candidate active
        lambda i: n + i,          # candidate passive
        lambda k: 2 * n + k,      # job active
        lambda k: 2 * n + m + k,  # job passive
    )


def dense_operator(
    split: InteractionSplit,
    n: int,
    m: int,
    self_mode: str = "as_match",
    omega: float = 1.0,
    dual: bool = True,
) -> np.ndarray:
    """Naive dense combined propagation operator built from edge sets."""
    if dual:
        total = 2 * (n + m)
        ca, cp, ja, jp = dual_ids(n, m)
    else:
        total = n + m

    match_edges: set[frozenset[int]] = set()
    uni_edges: set[frozenset[int]] = set()
    for c, j in split.matches:
        if dual:
            match_edges.add(frozenset((ca(c), jp(j))))
            match_edges.add(frozenset((ja(j), cp(c))))
        else:
            match_edges.add(frozenset((c, n + j)))
    for c, j in split.applies:
        uni_edges.add(frozenset((ca(c), jp(j))) if dual else frozenset((c, n + j)))
    for c, j in split.reachouts:
        uni_edges.add(frozenset((ja(j), cp(c))) if dual else frozenset((c, n + j)))
    uni_edges -= match_edges

    self_edges: set[frozenset[int]] = set()
    if dual and self_mode != "off":
        for i in range(n):
            self_edges.add(frozenset((ca(i), cp(i))))
        for k in range(m):
            self_edges.add(frozenset((ja(k), jp(k))))

    degree = [0] * total
    for edge in match_edges | uni_edges | self_edges:
        a, b = tuple(edge)
        degree[a] += 1
        degree[b] += 1

    def add(acc: np.ndarray, edges: set[frozenset[int]], weight: float) -> None:
        for edge in edges:
            a, b = tuple(edge)
            coeff = weight / math.sqrt(degree[a] * degree[b])
            acc[a, b] += coeff
            acc[b, a] += coeff

    operator = np.zeros((total, total))
    add(operator, match_edges, 1.0)
    add(operator, uni_edges, omega)
    if self_mode == "as_match":
        add(operator, self_edges, 1.0)
    elif self_mode == "as_uni":
        add(operator, self_edges, omega)
    return operator


def dense_propagate(operator: np.ndarray, z0: np.ndarray, layers: int) -> np.ndarray:
    outputs = [z0]
    for _ in range(layers):
        outputs.append(operator @ outputs[-1])
    return sum(outputs) / (layers + 1)


def naive_rank_metrics(scores, positive_index: int, k: int):
    """Slow reference: explicit loop, positive loses every tie."""
    positive = scores[positive_index]
    rank = 1
    for idx, value in enumerate(scores):
        if idx != positive_index and value >= positive:
            rank += 1
    recall = 1.0 if rank <= k else 0.0
    precision = recall / k
    ndcg = 1.0 / math.log2(rank + 1) if rank <= k else 0.0
    return recall, precision, ndcg, 1.0 / rank


# scatter_add_rows as it was before it became one segment-sum product: one
# reduceat over the id-sorted rows, which sums each segment in its own order.
def scatter_add_rows_oracle(out: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """out[ids] += rows with repeated ids accumulated, deterministic order."""
    ids = np.asarray(ids)
    if ids.size == 0:
        return
    order = np.argsort(ids, kind="stable")
    ids_sorted = ids[order]
    rows_sorted = rows[order]
    starts = np.flatnonzero(np.r_[True, ids_sorted[1:] != ids_sorted[:-1]])
    out[ids_sorted[starts]] += np.add.reduceat(rows_sorted, starts, axis=0)


def main_score_grads_oracle(
    z, layout, quads, quadruple: bool, grad_out: np.ndarray, magnitude_out: np.ndarray
) -> float:
    """The main loss and its score gradients as three pair_scores calls and 12 scatters.

    Each of the positive, negative-job and negative-candidate pair sets is
    scored alone, and each role of each set is scattered into ``grad_out``
    with ``scatter_add_rows_oracle``. ``magnitude_out`` gets the same sums
    over absolute values, the scale of their rounding. Returns the main loss.
    """
    cands, jobs, neg_cands, neg_jobs = quads
    _, _, y_pos = pair_scores(z, layout, cands, jobs)
    _, _, y_nj = pair_scores(z, layout, cands, neg_jobs)
    _, _, y_nc = pair_scores(z, layout, neg_cands, jobs)
    loss_main, (w_pos, w_nj, w_nc) = _main_loss_and_weights(y_pos, y_nj, y_nc, quadruple)
    for cand_idx, job_idx, w in (
        (cands, jobs, w_pos),
        (cands, neg_jobs, w_nj),
        (neg_cands, jobs, w_nc),
    ):
        ca = layout.cand_active(cand_idx)
        cp = layout.cand_passive(cand_idx)
        ja = layout.job_active(job_idx)
        jp = layout.job_passive(job_idx)
        half = 0.5 * w[:, None]
        for ids, others in ((ca, jp), (jp, ca), (ja, cp), (cp, ja)):
            scatter_add_rows_oracle(grad_out, ids, half * z[others])
            scatter_add_rows_oracle(magnitude_out, ids, np.abs(half * z[others]))
    return loss_main


# The contrastive kernels as they were before one kernel served both forms:
# in-batch scores from one (batch, batch) product, sampled scores from
# (batch, S + 1, d) gathers, and every gradient row scattered with
# scatter_add_rows_oracle. The in-batch form is the bit-exact reference.


def side_contrastive_oracle(
    z: np.ndarray,
    active_ids: np.ndarray,
    passive_ids: np.ndarray,
    tau: float,
    grad_out: np.ndarray | None = None,
    weight: float = 1.0,
) -> float:
    """One side's contrastive loss with in-batch denominators.

    For anchor i the denominator sums, over every batch member i' including
    i itself, both exp(a_i . p_i' / tau) and exp(a_i' . p_i / tau); the
    numerator is the anchor's own active/passive agreement. Log-sum-exp keeps
    everything finite. Returns the sum (not mean) over anchors.
    """
    batch = len(active_ids)
    if batch == 0:
        return 0.0
    a = z[active_ids]
    p = z[passive_ids]
    s1 = (a @ p.T) / tau
    s2 = s1.T.copy()                      # s2[i, j] = a_j . p_i / tau
    pos = np.diagonal(s1)
    logden = np.logaddexp(logsumexp(s1, axis=1), logsumexp(s2, axis=1))
    loss = float(np.sum(logden - pos))
    if grad_out is not None:
        w1 = np.exp(s1 - logden[:, None])
        w2 = np.exp(s2 - logden[:, None])
        g1 = w1
        g1[np.arange(batch), np.arange(batch)] -= 1.0
        da = (g1 @ p + w2.T @ p) / tau
        dp = (g1.T @ a + w2 @ a) / tau
        scatter_add_rows_oracle(grad_out, active_ids, weight * da)
        scatter_add_rows_oracle(grad_out, passive_ids, weight * dp)
    return loss


def sampled_side_contrastive_oracle(
    z: np.ndarray,
    active_ids: np.ndarray,
    passive_ids: np.ndarray,
    den_active_ids: np.ndarray,
    den_passive_ids: np.ndarray,
    tau: float,
    grad_out: np.ndarray | None = None,
    weight: float = 1.0,
) -> float:
    """Contrastive loss with per-anchor sampled denominators.

    ``den_*_ids`` have shape (batch, S + 1) with the anchor itself in column
    zero, preserving the convention that the anchor appears in its own
    denominator.
    """
    batch = len(active_ids)
    if batch == 0:
        return 0.0
    a = z[active_ids]
    p = z[passive_ids]
    pg = z[den_passive_ids]               # (batch, S + 1, d)
    ag = z[den_active_ids]
    s1 = np.einsum("bd,bsd->bs", a, pg) / tau
    s2 = np.einsum("bd,bsd->bs", p, ag) / tau
    pos = np.sum(a * p, axis=1) / tau
    logden = np.logaddexp(logsumexp(s1, axis=1), logsumexp(s2, axis=1))
    loss = float(np.sum(logden - pos))
    if grad_out is not None:
        w1 = np.exp(s1 - logden[:, None])
        w2 = np.exp(s2 - logden[:, None])
        da = (np.einsum("bs,bsd->bd", w1, pg) - p) / tau
        dp = (np.einsum("bs,bsd->bd", w2, ag) - a) / tau
        dpg = w1[:, :, None] * a[:, None, :] / tau
        dag = w2[:, :, None] * p[:, None, :] / tau
        dim = z.shape[1]
        scatter_add_rows_oracle(grad_out, active_ids, weight * da)
        scatter_add_rows_oracle(grad_out, passive_ids, weight * dp)
        scatter_add_rows_oracle(grad_out, den_passive_ids.ravel(), weight * dpg.reshape(-1, dim))
        scatter_add_rows_oracle(grad_out, den_active_ids.ravel(), weight * dag.reshape(-1, dim))
    return loss


# adam_step as it was before it wrote its terms into scratch arrays: the
# bit-exact reference for the update's operation order.
def adam_step_oracle(params, d_embeddings, d_projection, state, lr,
                     beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    """One bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    for value, grad, m, v in (
        (params.embeddings, d_embeddings, state.m_embeddings, state.v_embeddings),
        (params.projection, d_projection, state.m_projection, state.v_projection),
    ):
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * np.square(grad)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        value -= lr * m_hat / (np.sqrt(v_hat) + eps)


def naive_partner_maps(pairs) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
    """Matched partners per candidate and per job, as dicts of sets."""
    by_cand: dict[int, set[int]] = {}
    by_job: dict[int, set[int]] = {}
    for cand, job in pairs:
        by_cand.setdefault(int(cand), set()).add(int(job))
        by_job.setdefault(int(job), set()).add(int(cand))
    return by_cand, by_job


def naive_eval_instances(matches, by_cand, by_job, n: int, m: int, seed: int, num_negatives: int):
    """Set-difference reference for build_eval_instances over dict-of-sets maps.

    Returns (direction, anchor, positive, negatives) tuples, the candidate
    instance of each sorted match before its job instance. Each instance
    draws from the array of ids not in its anchor's set, so a positive
    missing from the maps can come back as its own negative.
    """
    rng = np.random.default_rng(seed)

    def sample(universe, exclude, label):
        eligible = np.setdiff1d(np.arange(universe), np.array(sorted(exclude), dtype=np.int64))
        if eligible.size < num_negatives:
            raise SamplingError(
                f"{label}: only {eligible.size} eligible negatives, need {num_negatives}"
            )
        return tuple(int(x) for x in rng.choice(eligible, size=num_negatives, replace=False))

    out = []
    for cand, job in sorted({(int(c), int(j)) for c, j in matches}):
        negatives = sample(m, by_cand.get(cand, set()), f"candidate {cand}")
        out.append((Direction.FOR_CANDIDATES, cand, job, negatives))
        negatives = sample(n, by_job.get(job, set()), f"job {job}")
        out.append((Direction.FOR_JOBS, job, cand, negatives))
    return out


def naive_sample_quadruples(cands, jobs, by_cand, by_job, n: int, m: int, rng):
    """sample_quadruples row by row with dict-of-sets exclusion maps.

    Each row lists the ids outside its anchor's set in ascending order and
    takes the one that a uniform ``rng.integers`` draw names: first a job for
    the candidate, then a candidate for the job. Scalar draws in that order
    consume the stream of one call over every row's two counts.
    """
    neg_jobs = np.empty(len(cands), dtype=np.int64)
    neg_cands = np.empty(len(cands), dtype=np.int64)
    for idx in range(len(cands)):
        cand, job = int(cands[idx]), int(jobs[idx])
        eligible = sorted(set(range(m)) - by_cand.get(cand, set()))
        if not eligible:
            raise SamplingError(f"no eligible negative job found for candidate {cand}")
        neg_jobs[idx] = eligible[rng.integers(0, len(eligible))]
        eligible = sorted(set(range(n)) - by_job.get(job, set()))
        if not eligible:
            raise SamplingError(f"no eligible negative candidate found for job {job}")
        neg_cands[idx] = eligible[rng.integers(0, len(eligible))]
    return neg_jobs, neg_cands


def ssl_denominators_oracle(anchors, universe: int, count: int, rng):
    """sample_ssl_denominators' per-anchor ``rng.choice`` loop."""
    if count >= universe:
        raise SamplingError(
            f"cannot sample {count} distinct contrastive negatives from {universe} users"
        )
    out = np.empty((len(anchors), count + 1), dtype=np.int64)
    out[:, 0] = anchors
    for row, anchor in enumerate(anchors):
        draws = rng.choice(universe - 1, size=count, replace=False)
        out[row, 1:] = draws + (draws >= anchor)
    return out


def instance_rows(instances):
    """(direction, anchor, positive, negatives) per instance, one direction after the other."""
    return [
        (direction, anchor, items[0], tuple(items[1:]))
        for direction, inst in instances.items()
        for anchor, items in zip(inst.anchors.tolist(), inst.items.tolist())
    ]


def partner_lists(mapping):
    """PartnerLists from a {user: partners} dict, for hand-written exclusions."""
    return partner_maps([(user, other) for user, others in mapping.items() for other in others])[0]


def random_split(
    rng: np.random.Generator, n: int, m: int, matches: int, applies: int, reachouts: int
) -> InteractionSplit:
    """Random disjoint pair sets; match pairs never reappear as unidirectional."""
    pairs = [(c, j) for c in range(n) for j in range(m)]
    chosen = rng.choice(len(pairs), size=min(matches + applies + reachouts, len(pairs)), replace=False)
    chosen = [pairs[i] for i in chosen]
    return make_split(
        matches=chosen[:matches],
        applies=chosen[matches : matches + applies],
        reachouts=chosen[matches + applies :],
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
