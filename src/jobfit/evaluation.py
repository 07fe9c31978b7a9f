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

    @cached_property
    def _owners(self) -> np.ndarray:
        """The user each stored partner belongs to."""
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))

    @cached_property
    def _keys(self) -> tuple[int, np.ndarray]:
        """``(width, user · width + partner)``, ``width`` one past the largest partner id.

        The keys ascend, since partners ascend within each user.
        """
        width = int(self.ids.max(initial=-1)) + 1
        return width, self._owners * width + self.ids

    @cached_property
    def pair_keys(self) -> tuple[int, frozenset[int]]:
        """``_keys`` as a set, for membership tests one draw at a time."""
        width, keys = self._keys
        return width, frozenset(keys.tolist())

    @cached_property
    def _below(self) -> np.ndarray:
        """Each partner minus its rank in its user's list: the non-partners below it."""
        return self.ids - (np.arange(self.ids.size) - self.indptr[self._owners])

    def contains(self, users: np.ndarray, partners: np.ndarray) -> np.ndarray:
        """Whether ``partners[i]`` is among ``users[i]``'s partners."""
        width, keys = self._keys
        if not keys.size:
            return np.zeros(np.shape(partners), dtype=bool)
        query = users * width + partners
        at = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        return (partners < width) & (keys[at] == query)

    def skip_partners(self, users: np.ndarray, ranks: np.ndarray, universe: int) -> np.ndarray:
        """The ``ranks[i, j]``-th id in ``[0, universe)`` that is not a partner of ``users[i]``.

        A rank moves up by one for every partner whose count of non-partners
        below it is at most the rank. One ``searchsorted`` over
        ``user · universe + count`` keys does this for all users at once.
        Every user must have a list, and every partner id must be below
        ``universe``.
        """
        keys = self._owners * universe + self._below
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


def distinct_draws(rng: np.random.Generator, pops: np.ndarray, k: int) -> np.ndarray:
    """Rows equal to ``[rng.choice(p, k, replace=False) for p in pops]``, from one draw.

    NumPy 2's ``Generator.choice`` without replacement is a fixed sequence of
    bounded draws per row. Mostly it is Floyd's algorithm, bounds ``p - k``
    to ``p - 1``, then a shuffle of the picks, bounds ``k - 1`` down to 1.
    When ``p > 10000`` and ``k > p // 50`` it is instead a Fisher–Yates
    shuffle of the tail of ``arange(p)``, bounds ``p - 1`` down to ``p - k``.
    Each bound is one element of ``rng.integers(0, bound, endpoint=True)``
    and a bound of 0 draws nothing, so one call over every row's bounds
    consumes the loop's stream and leaves ``rng`` in the loop's final state.
    """
    pops = np.asarray(pops, dtype=np.int64)
    if np.any(pops < k):
        raise ValueError(f"cannot draw {k} distinct values from a population of {pops.min()}")
    tail = (pops > 10000) & (k > pops // 50)
    steps = np.arange(k)[:, None]
    # Column i holds row i's bounds in draw order, so the C-ordered transpose
    # lists every bound in the loop's order. Floyd rows end in a bound of 0
    # and tail rows in k of them, which draw nothing.
    bounds = np.zeros((2 * k, len(pops)), dtype=np.int64)
    bounds[:k] = np.where(tail, pops - 1 - steps, pops - k + steps)
    bounds[k:, ~tail] = steps[::-1]
    draws = rng.integers(0, np.ascontiguousarray(bounds.T), endpoint=True).T
    # compress keeps the selected columns C-contiguous, so each step reads a contiguous row.
    out = np.empty((k, len(pops)), dtype=np.int64)
    out[:, ~tail] = _floyd(draws.compress(~tail, 1), bounds[:k].compress(~tail, 1))
    if tail.any():
        out[:, tail] = _tail_shuffle(draws[:k].compress(tail, 1), bounds[:k].compress(tail, 1))
    return np.ascontiguousarray(out.T)


def _floyd(draws: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Floyd's picks from the first ``k`` draws of each column, shuffled by the rest.

    Step ``s`` keeps its draw unless an earlier step picked it, and then
    takes its bound, which no earlier step could pick. Shuffle step ``i``
    swaps pick ``i`` with the pick its draw names.
    """
    k = len(bounds)
    picks = np.empty_like(bounds)
    for s in range(k):
        taken = (picks[:s] == draws[s]).any(axis=0)
        picks[s] = np.where(taken, bounds[s], draws[s])
    cols = np.arange(bounds.shape[1])
    for i, j in zip(range(k - 1, 0, -1), draws[k:]):
        row = picks[i].copy()
        picks[i] = picks[j, cols]
        picks[j, cols] = row
    return picks


def _tail_shuffle(draws: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The last ``k`` entries of each column's ``arange(p)`` after ``k`` Fisher–Yates swaps.

    Step ``t`` swaps positions ``bounds[t]`` and ``draws[t]`` and settles the
    first, so only the values moved into draw positions need storing. Only
    rows with ``p > 10000`` and ``k > 200`` come here, and a loop over their
    swaps is linear in ``k``, where a vectorised search would be quadratic.
    """
    settled = np.empty_like(draws)
    for col, (positions, picks) in enumerate(zip(bounds.T.tolist(), draws.T.tolist())):
        moved: dict[int, int] = {}
        for t, (i, j) in enumerate(zip(positions, picks)):
            settled[t, col], moved[j] = moved.get(j, j), moved.get(i, i)
    return settled[::-1]


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
    # Rows go match by match, the candidate instance before the job instance.
    pops = np.stack(
        [universe - np.diff(p.indptr)[anchors] for _, p, anchors, _, universe in sides], axis=1
    )
    short = pops < num_negatives
    if short.any():
        i, side = np.unravel_index(np.argmax(short), short.shape)
        raise SamplingError(
            f"{('candidate', 'job')[side]} {rows[i, side]}: "
            f"only {pops[i, side]} eligible negatives, need {num_negatives}"
        )
    ranks = distinct_draws(np.random.default_rng(seed), pops.ravel(), num_negatives)
    ranks = ranks.reshape(len(rows), 2, num_negatives)
    return {
        direction: InstanceArrays(
            anchors,
            np.concatenate(
                [positives[:, None], partners.skip_partners(anchors, ranks[:, side], universe)],
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
