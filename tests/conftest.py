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
