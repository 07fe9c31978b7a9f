"""Ranked evaluation with sampled negatives, plus sparsity-group breakdowns.

Every matched pair yields two ranking instances, one per direction: rank the
job among sampled negative jobs for the candidate, and the candidate among
negative candidates for the job. Negatives are users never matched with the
anchor in any split; unidirectional partners stay eligible. Ties are broken
pessimistically, placing the positive last among equal scores.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataFormatError, NumericsError, SamplingError
from .corpus import InteractionSplit, pair_rows
from .graph import NodeLayout
from .model import pair_scores


class Direction(enum.Enum):
    FOR_CANDIDATES = "candidates"   # rank jobs for a candidate anchor
    FOR_JOBS = "jobs"               # rank candidates for a job anchor


@dataclass(frozen=True)
class EvalInstance:
    direction: Direction
    anchor: int
    positive: int
    negatives: tuple[int, ...]


@dataclass(frozen=True)
class DirectionReport:
    count: int
    recall: float
    precision: float
    ndcg: float
    mrr: float


@dataclass(frozen=True)
class RankingReport:
    k: int
    for_candidates: DirectionReport
    for_jobs: DirectionReport


def partner_maps(
    pairs: Iterable[tuple[int, int]],
) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
    """Matched partners per candidate and per job."""
    by_cand: dict[int, set[int]] = {}
    by_job: dict[int, set[int]] = {}
    for cand, job in pair_rows(pairs).tolist():
        by_cand.setdefault(cand, set()).add(job)
        by_job.setdefault(job, set()).add(cand)
    return by_cand, by_job


def _sample_negatives(
    rng: np.random.Generator, universe: int, exclude: set[int], count: int, label: str
) -> np.ndarray:
    eligible = np.setdiff1d(np.arange(universe), np.fromiter(exclude, dtype=np.int64, count=len(exclude)))
    if eligible.size < count:
        raise SamplingError(
            f"{label}: only {eligible.size} eligible negatives, need {count}"
        )
    return rng.choice(eligible, size=count, replace=False)


def build_eval_instances(
    matches: Iterable[tuple[int, int]],
    by_cand: Mapping[int, set[int]],
    by_job: Mapping[int, set[int]],
    n: int,
    m: int,
    seed: int,
    num_negatives: int = 20,
) -> list[EvalInstance]:
    """Two frozen instances per matched pair, negatives fixed by the seed.

    ``by_cand``/``by_job`` must map users to their matched partners across
    all splits so no negative is a true match anywhere.
    """
    rng = np.random.default_rng(seed)
    instances: list[EvalInstance] = []
    for cand, job in pair_rows(matches).tolist():
        neg_jobs = _sample_negatives(
            rng, m, by_cand.get(cand, set()), num_negatives, f"candidate {cand}"
        )
        instances.append(
            EvalInstance(Direction.FOR_CANDIDATES, cand, job, tuple(int(x) for x in neg_jobs))
        )
        neg_cands = _sample_negatives(
            rng, n, by_job.get(job, set()), num_negatives, f"job {job}"
        )
        instances.append(
            EvalInstance(Direction.FOR_JOBS, job, cand, tuple(int(x) for x in neg_cands))
        )
    return instances


def rank_metrics(
    scores: Sequence[float], positive_index: int, k: int = 5
) -> tuple[float, float, float, float]:
    """(recall@k, precision@k, ndcg@k, mrr) for a list with one positive.

    The rank counts every other item whose score is >= the positive's score,
    so equal scores push the positive down (pessimistic ties).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise NumericsError("ranking scores contain non-finite values")
    positive = scores[positive_index]
    others = np.delete(scores, positive_index)
    rank = 1 + int(np.sum(others >= positive))
    hit = 1.0 if rank <= k else 0.0
    ndcg = 1.0 / np.log2(rank + 1) if rank <= k else 0.0
    return hit, hit / k, float(ndcg), 1.0 / rank


def _direction_arrays(
    z: np.ndarray, layout: NodeLayout, instances: list[EvalInstance], direction: Direction, k: int
) -> dict[str, np.ndarray]:
    subset = [inst for inst in instances if inst.direction is direction]
    if not subset:
        return {"anchor": np.empty(0, dtype=np.int64)}
    anchors = np.array([inst.anchor for inst in subset], dtype=np.int64)
    items = np.array(
        [(inst.positive,) + inst.negatives for inst in subset], dtype=np.int64
    )
    width = items.shape[1]
    anchor_grid = np.repeat(anchors[:, None], width, axis=1)
    if direction is Direction.FOR_CANDIDATES:
        _, _, y = pair_scores(z, layout, anchor_grid.ravel(), items.ravel())
    else:
        _, _, y = pair_scores(z, layout, items.ravel(), anchor_grid.ravel())
    y = y.reshape(len(subset), width)
    if not np.all(np.isfinite(y)):
        raise NumericsError("evaluation scores contain non-finite values")
    rank = 1 + np.sum(y[:, 1:] >= y[:, :1], axis=1)
    hit = (rank <= k).astype(np.float64)
    return {
        "anchor": anchors,
        "rank": rank,
        "recall": hit,
        "precision": hit / k,
        "ndcg": np.where(rank <= k, 1.0 / np.log2(rank + 1), 0.0),
        "mrr": 1.0 / rank,
    }


def _report_from(table: dict[str, np.ndarray], mask: np.ndarray | None = None) -> DirectionReport:
    anchors = table["anchor"]
    if mask is None:
        mask = np.ones(anchors.shape[0], dtype=bool)
    count = int(np.sum(mask))
    if count == 0:
        nan = float("nan")
        return DirectionReport(0, nan, nan, nan, nan)
    return DirectionReport(
        count=count,
        recall=float(np.mean(table["recall"][mask])),
        precision=float(np.mean(table["precision"][mask])),
        ndcg=float(np.mean(table["ndcg"][mask])),
        mrr=float(np.mean(table["mrr"][mask])),
    )


def evaluate(
    z: np.ndarray, layout: NodeLayout, instances: list[EvalInstance], k: int = 5
) -> RankingReport:
    """Score every instance against propagated representations and average."""
    cand_table = _direction_arrays(z, layout, instances, Direction.FOR_CANDIDATES, k)
    job_table = _direction_arrays(z, layout, instances, Direction.FOR_JOBS, k)
    return RankingReport(
        k=k,
        for_candidates=_report_from(cand_table),
        for_jobs=_report_from(job_table),
    )


def interaction_counts(split: InteractionSplit, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-user interaction counts in one split, all event kinds together."""
    rows = np.concatenate([split.applies, split.reachouts, split.matches])
    return np.bincount(rows[:, 0], minlength=n), np.bincount(rows[:, 1], minlength=m)


def partition_by_mass(counts: np.ndarray, groups: int = 5) -> list[np.ndarray]:
    """Split users into contiguous groups of near-equal total interaction mass.

    Users are ordered by ascending count (ties by id). Each group greedily
    absorbs the next user while that keeps its mass at least as close to the
    remaining-mass-per-group target, subject to leaving one user for every
    later group. The first group is the sparsest.
    """
    counts = np.asarray(counts)
    if int(np.count_nonzero(counts)) < groups:
        raise DataFormatError(
            f"need at least {groups} users with interactions, have {int(np.count_nonzero(counts))}"
        )
    order = np.argsort(counts, kind="stable")
    ordered = counts[order].astype(np.float64)
    total_users = len(ordered)
    sizes: list[int] = []
    start = 0
    remaining = float(ordered.sum())
    for g in range(groups):
        left = groups - g
        if left == 1:
            sizes.append(total_users - start)
            break
        target = remaining / left
        mass = float(ordered[start])
        end = start + 1
        while end <= total_users - left:
            extended = mass + float(ordered[end])
            if abs(extended - target) <= abs(mass - target):
                mass = extended
                end += 1
            else:
                break
        sizes.append(end - start)
        remaining -= mass
        start = end
    return list(np.split(order, np.cumsum(sizes)[:-1]))


def sparsity_breakdown(
    z: np.ndarray,
    layout: NodeLayout,
    instances: list[EvalInstance],
    cand_counts: np.ndarray,
    job_counts: np.ndarray,
    k: int = 5,
    groups: int = 5,
) -> dict[Direction, list[DirectionReport]]:
    """Recompute each direction's metrics within sparsity groups of anchors.

    Group 1 holds the users with the fewest training interactions; counts
    come from the training split so the breakdown reflects cold-start users.
    """
    group_of_cand = np.empty(len(cand_counts), dtype=np.int64)
    for gi, members in enumerate(partition_by_mass(cand_counts, groups)):
        group_of_cand[members] = gi
    group_of_job = np.empty(len(job_counts), dtype=np.int64)
    for gi, members in enumerate(partition_by_mass(job_counts, groups)):
        group_of_job[members] = gi

    out: dict[Direction, list[DirectionReport]] = {}
    for direction, group_of in (
        (Direction.FOR_CANDIDATES, group_of_cand),
        (Direction.FOR_JOBS, group_of_job),
    ):
        table = _direction_arrays(z, layout, instances, direction, k)
        anchors = table["anchor"]
        reports = []
        for gi in range(groups):
            mask = group_of[anchors] == gi if anchors.size else np.empty(0, dtype=bool)
            reports.append(_report_from(table, mask))
        out[direction] = reports
    return out
