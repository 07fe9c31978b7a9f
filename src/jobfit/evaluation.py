"""Ranked evaluation with sampled negatives, plus sparsity-group breakdowns.

Every matched pair yields two ranking instances, one per direction: rank the
job among sampled negative jobs for the candidate, and the candidate among
negative candidates for the job. Negatives are users never matched with the
anchor in any split; unidirectional partners stay eligible. Ties are broken
pessimistically, placing the positive last among equal scores.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataFormatError, SamplingError
from .corpus import InteractionSplit, pair_rows
from .graph import NodeLayout
from .model import check_finite, pair_scores


# Pairs per pair_scores call in evaluate, so that each chunk's gathers stay in cache.
SCORE_CHUNK = 1024


class Direction(enum.Enum):
    FOR_CANDIDATES = "candidates"   # rank jobs for a candidate anchor
    FOR_JOBS = "jobs"               # rank candidates for a job anchor


@dataclass(frozen=True)
class DirectionReport:
    count: int
    recall: float
    precision: float
    ndcg: float
    mrr: float


@dataclass(frozen=True)
class RankingReport:
    """Mean metrics per direction; ``ranks`` holds each direction's per-instance ranks."""

    k: int
    for_candidates: DirectionReport
    for_jobs: DirectionReport
    ranks: Mapping[Direction, np.ndarray] = field(compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class PartnerLists:
    """Every user's matched partners in CSR form, ascending within each user.

    User ``u``'s partners are ``ids[indptr[u]:indptr[u + 1]]``; users at or
    past ``len(indptr) - 1`` have none.
    """

    indptr: np.ndarray
    ids: np.ndarray

    @classmethod
    def from_sorted(cls, users: np.ndarray, partners: np.ndarray) -> "PartnerLists":
        """Lists from pairs already sorted by user, then by partner."""
        return cls(np.concatenate(([0], np.cumsum(np.bincount(users)))), partners)

    def __getitem__(self, user: int) -> np.ndarray:
        if user + 1 >= len(self.indptr):
            return self.ids[:0]
        return self.ids[self.indptr[user] : self.indptr[user + 1]]

    def _owners(self) -> np.ndarray:
        """The user each stored partner belongs to."""
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))

    @cached_property
    def pair_keys(self) -> tuple[int, frozenset[int]]:
        """``(width, {user · width + partner})``, ``width`` one past the largest partner id.

        Built on first use, for membership tests one draw at a time.
        """
        width = int(self.ids.max(initial=-1)) + 1
        return width, frozenset((self._owners() * width + self.ids).tolist())

    def contains(self, users: np.ndarray, partners: np.ndarray) -> np.ndarray:
        """Whether ``partners[i]`` is among ``users[i]``'s partners."""
        width = int(max(self.ids.max(initial=-1), partners.max(initial=-1))) + 1
        return np.isin(users * width + partners, self._owners() * width + self.ids)

    def skip_partners(self, users: np.ndarray, ranks: np.ndarray, universe: int) -> np.ndarray:
        """The ``ranks[i, j]``-th id in ``[0, universe)`` that is not a partner of ``users[i]``.

        A partner minus its rank within its user's list counts the
        non-partners below it, so a rank moves up by one for every partner
        whose count is at most the rank. One ``searchsorted`` over
        ``user · universe + count`` keys does this for all users at once.
        Every user must have a list, and every partner id must be below
        ``universe``.
        """
        owners = self._owners()
        below = self.ids - (np.arange(self.ids.size) - self.indptr[owners])
        keys = owners * universe + below
        passed = np.searchsorted(keys, users[:, None] * universe + ranks, side="right")
        return ranks + passed - self.indptr[users][:, None]


@dataclass(frozen=True, eq=False)
class InstanceArrays:
    """One direction's ranking instances: row ``i`` ranks ``items[i]`` for ``anchors[i]``.

    ``anchors`` is (k,) and ``items`` (k, 1 + negatives) int64. Column 0 of
    ``items`` is the positive; the rest are the sampled negatives in draw order.
    """

    anchors: np.ndarray
    items: np.ndarray


def partner_maps(
    pairs: Iterable[tuple[int, int]] | np.ndarray,
) -> tuple[PartnerLists, PartnerLists]:
    """Matched partners per candidate and per job."""
    rows = pair_rows(pairs)
    by_job = np.lexsort((rows[:, 0], rows[:, 1]))
    return (
        PartnerLists.from_sorted(rows[:, 0], rows[:, 1]),
        PartnerLists.from_sorted(rows[by_job, 1], rows[by_job, 0]),
    )


def build_eval_instances(
    matches: Iterable[tuple[int, int]] | np.ndarray,
    by_cand: PartnerLists,
    by_job: PartnerLists,
    n: int,
    m: int,
    seed: int,
    num_negatives: int = 20,
) -> dict[Direction, InstanceArrays]:
    """Two frozen instances per matched pair, negatives fixed by the seed.

    ``by_cand``/``by_job`` must list users' matched partners across all
    splits so no negative is a true match anywhere; a match missing from
    them raises ``DataFormatError``. Matches are taken in sorted order, and
    each draws its candidate instance's negatives, then its job instance's.
    """
    rows = pair_rows(matches)
    cands, jobs = rows[:, 0], rows[:, 1]
    sides = (
        (Direction.FOR_CANDIDATES, by_cand, cands, jobs, m),
        (Direction.FOR_JOBS, by_job, jobs, cands, n),
    )
    missing = np.zeros(len(rows), dtype=bool)
    for _, partners, anchors, positives, universe in sides:
        if partners.ids.max(initial=-1) >= universe:
            raise DataFormatError(f"partner ids must be below {universe}, got {partners.ids.max()}")
        missing |= ~partners.contains(anchors, positives)
    if missing.any():
        cand, job = rows[np.argmax(missing)].tolist()
        raise DataFormatError(f"match ({cand}, {job}) is missing from the partner lists")

    # Drawing from a population size consumes the same stream as drawing
    # from an array that long, and returns ranks among the eligible ids.
    pops = [(universe - np.diff(p.indptr)[anchors]).tolist() for _, p, anchors, _, universe in sides]
    ranks = np.empty((2, len(rows), num_negatives), dtype=np.int64)
    rng = np.random.default_rng(seed)
    for i, pair in enumerate(rows.tolist()):
        for side, label in enumerate(("candidate", "job")):
            pop = pops[side][i]
            if pop < num_negatives:
                raise SamplingError(
                    f"{label} {pair[side]}: only {pop} eligible negatives, need {num_negatives}"
                )
            ranks[side, i] = rng.choice(pop, num_negatives, replace=False)
    return {
        direction: InstanceArrays(
            anchors,
            np.concatenate(
                [positives[:, None], partners.skip_partners(anchors, ranks[side], universe)],
                axis=1,
            ),
        )
        for side, (direction, partners, anchors, positives, universe) in enumerate(sides)
    }


def _ranks(y: np.ndarray, what: str) -> np.ndarray:
    """Rank of column 0 in each row of scores ``y``, counting every other item scored >= it."""
    check_finite(y, what)
    return 1 + np.sum(y[:, 1:] >= y[:, :1], axis=1)


def _direction_report(rank: np.ndarray, k: int, mask: np.ndarray | None = None) -> DirectionReport:
    """Count and mean recall@k, precision@k, ndcg@k and MRR over ``rank[mask]``; NaN if empty."""
    if mask is not None:
        rank = rank[mask]
    if rank.size == 0:
        nan = float("nan")
        return DirectionReport(0, nan, nan, nan, nan)
    hit = (rank <= k).astype(np.float64)
    return DirectionReport(
        count=rank.size,
        recall=float(np.mean(hit)),
        precision=float(np.mean(hit / k)),
        ndcg=float(np.mean(np.where(rank <= k, 1.0 / np.log2(rank + 1), 0.0))),
        mrr=float(np.mean(1.0 / rank)),
    )


def rank_metrics(
    scores: Sequence[float], positive_index: int, k: int = 5
) -> tuple[float, float, float, float]:
    """(recall@k, precision@k, ndcg@k, mrr) for a list with one positive.

    The rank counts every other item whose score is >= the positive's score,
    so equal scores push the positive down (pessimistic ties).
    """
    scores = np.asarray(scores, dtype=np.float64)
    row = np.concatenate(([scores[positive_index]], np.delete(scores, positive_index)))
    report = _direction_report(_ranks(row[None, :], "ranking scores"), k)
    return report.recall, report.precision, report.ndcg, report.mrr


def evaluate(
    z: np.ndarray, layout: NodeLayout, instances: Mapping[Direction, InstanceArrays], k: int = 5
) -> RankingReport:
    """Score and rank every instance once against propagated representations, and average.

    Rows go to ``pair_scores`` about ``SCORE_CHUNK`` pairs at a time, anchors broadcast.
    """
    ranks = {}
    for direction in Direction:
        anchors, items = instances[direction].anchors, instances[direction].items
        y = np.empty(items.shape)
        step = max(1, SCORE_CHUNK // items.shape[1])
        for lo in range(0, len(items), step):
            pairs = anchors[lo : lo + step, None], items[lo : lo + step]
            cands, jobs = pairs if direction is Direction.FOR_CANDIDATES else pairs[::-1]
            y[lo : lo + step] = pair_scores(z, layout, cands, jobs)[2]
        ranks[direction] = _ranks(y, f"evaluation scores for {direction.value}")
    return RankingReport(k, *(_direction_report(ranks[d], k) for d in Direction), ranks)


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
    report: RankingReport,
    instances: Mapping[Direction, InstanceArrays],
    cand_counts: np.ndarray,
    job_counts: np.ndarray,
    groups: int = 5,
) -> dict[Direction, list[DirectionReport]]:
    """Each direction's metrics within sparsity groups of anchors, from ``report``'s ranks.

    ``report`` must come from ``evaluate`` over ``instances``. Group 1 holds
    the users with the fewest training interactions; counts come from the
    training split so the breakdown reflects cold-start users.
    """
    out: dict[Direction, list[DirectionReport]] = {}
    for direction, counts in zip(Direction, (cand_counts, job_counts)):
        group_of = np.empty(len(counts), dtype=np.int64)
        for gi, members in enumerate(partition_by_mass(counts, groups)):
            group_of[members] = gi
        group = group_of[instances[direction].anchors]
        rank = report.ranks[direction]
        out[direction] = [_direction_report(rank, report.k, group == gi) for gi in range(groups)]
    return out
