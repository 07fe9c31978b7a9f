"""Shared fixtures and independent reference implementations.

The oracles here deliberately avoid the library's own code paths: dense
matrices built from neighbor sets with python loops, naive metric formulas,
and explicit per-coordinate updates. Tests compare the fast implementations
against these.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from jobfit.corpus import InteractionSplit
from jobfit.errors import SamplingError
from jobfit.evaluation import Direction, partner_maps


def make_split(applies=(), reachouts=(), matches=()) -> InteractionSplit:
    return InteractionSplit(applies=applies, reachouts=reachouts, matches=matches)


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


def naive_sample_quadruples(cands, jobs, by_cand, by_job, n: int, m: int, rng, max_tries=1000):
    """sample_quadruples' rejection loop with dict-of-sets exclusion maps."""
    neg_jobs = np.empty(len(cands), dtype=np.int64)
    neg_cands = np.empty(len(cands), dtype=np.int64)
    for idx in range(len(cands)):
        cand, job = int(cands[idx]), int(jobs[idx])
        for _ in range(max_tries):
            draw = int(rng.integers(0, m))
            if draw not in by_cand.get(cand, set()):
                neg_jobs[idx] = draw
                break
        else:
            raise SamplingError(f"no eligible negative job found for candidate {cand}")
        for _ in range(max_tries):
            draw = int(rng.integers(0, n))
            if draw not in by_job.get(job, set()):
                neg_cands[idx] = draw
                break
        else:
            raise SamplingError(f"no eligible negative candidate found for job {job}")
    return neg_jobs, neg_cands


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
