"""Ranked evaluation, tie handling, sparsity partitioning."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jobfit import evaluation
from jobfit.errors import DataFormatError, NumericsError, SamplingError
from jobfit.evaluation import (
    Direction,
    InstanceArrays,
    build_eval_instances,
    distinct_draws,
    evaluate,
    interaction_counts,
    partition_by_mass,
    partner_maps,
    rank_metrics,
    sparsity_breakdown,
)
from jobfit.graph import NodeLayout
from jobfit.model import pair_scores

from conftest import (
    instance_rows,
    make_split,
    naive_eval_instances,
    naive_partner_maps,
    naive_rank_metrics,
)


def as_sets(partners):
    return {u: set(partners[u].tolist()) for u in range(len(partners.indptr) - 1) if partners[u].size}


class TestPartnerMaps:
    def test_bidirectional_index(self):
        by_cand, by_job = partner_maps([(0, 1), (0, 2), (3, 1)])
        assert as_sets(by_cand) == {0: {1, 2}, 3: {1}}
        assert as_sets(by_job) == {1: {0, 3}, 2: {0}}
        assert by_cand.indptr.tolist() == [0, 2, 2, 2, 3] and by_cand.ids.tolist() == [1, 2, 1]
        assert by_job.indptr.tolist() == [0, 0, 2, 3] and by_job.ids.tolist() == [0, 3, 0]

    def test_empty(self):
        assert tuple(as_sets(p) for p in partner_maps([])) == ({}, {})

    @given(
        pairs=st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=20),
        queries=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_contains_equals_set_membership(self, pairs, queries):
        by_cand, by_job = partner_maps(pairs)
        users, partners = np.array(queries, dtype=np.int64).reshape(-1, 2).T
        got = by_cand.contains(users, partners)
        assert got.tolist() == [(u, p) in pairs for u, p in queries]
        got = by_job.contains(partners, users)
        assert got.tolist() == [(u, p) in pairs for u, p in queries]


class TestBuildInstances:
    def build(self, seed=5, num_negatives=4):
        matches = {(0, 1), (2, 3), (0, 4)}
        by_cand, by_job = partner_maps(matches | {(0, 0), (5, 3)})  # extra excluded pairs
        return build_eval_instances(matches, by_cand, by_job, n=10, m=12, seed=seed,
                                    num_negatives=num_negatives)

    def test_two_instances_per_match_in_sorted_order(self):
        instances = instance_rows(self.build())
        assert len(instances) == 6
        assert [direction for direction, *_ in instances] == (
            [Direction.FOR_CANDIDATES] * 3 + [Direction.FOR_JOBS] * 3
        )
        # sorted matches: (0,1), (0,4), (2,3)
        assert [(anchor, positive) for _, anchor, positive, _ in instances] == [
            (0, 1), (0, 4), (2, 3), (1, 0), (4, 0), (3, 2),
        ]

    def test_negatives_exclude_all_matched_partners(self):
        for direction, anchor, positive, negatives in instance_rows(self.build()):
            negs = set(negatives)
            assert len(negs) == 4  # sampled without replacement
            assert positive not in negs
            if direction is Direction.FOR_CANDIDATES and anchor == 0:
                # candidate 0 matched jobs 0, 1, 4 across splits
                assert not negs & {0, 1, 4}
            if direction is Direction.FOR_JOBS and anchor == 3:
                assert not negs & {2, 5}

    def test_deterministic_per_seed(self):
        assert instance_rows(self.build(seed=5)) == instance_rows(self.build(seed=5))
        a = instance_rows(self.build(seed=5))
        b = instance_rows(self.build(seed=6))
        assert any(x[3] != y[3] for x, y in zip(a, b))

    def test_insufficient_negatives(self):
        matches = {(0, j) for j in range(5)}
        by_cand, by_job = partner_maps(matches)
        with pytest.raises(SamplingError, match="only 1 eligible negatives, need 2"):
            build_eval_instances(matches, by_cand, by_job, n=6, m=6, seed=0, num_negatives=2)

    def test_match_missing_from_partner_lists_raises(self):
        # The set-difference version returned candidate 0's negatives (0, 1),
        # with 1 its own positive.
        with pytest.raises(DataFormatError, match=r"match \(0, 1\) is missing from the partner lists"):
            build_eval_instances([(0, 1)], *partner_maps([]), n=3, m=3, seed=1, num_negatives=2)
        with pytest.raises(DataFormatError, match=r"match \(2, 0\)"):
            build_eval_instances([(0, 1), (2, 0)], *partner_maps([(0, 1), (2, 1)]), n=3, m=3,
                                 seed=1, num_negatives=1)

    def test_partner_ids_outside_the_universe_raise(self):
        with pytest.raises(DataFormatError, match="partner ids must be below 3, got 4"):
            build_eval_instances([(0, 1)], *partner_maps([(0, 1), (0, 4)]), n=3, m=3, seed=1,
                                 num_negatives=1)

    def check_against_oracle(self, n, m, all_matches, matches, seed, num_negatives):
        by_cand, by_job = naive_partner_maps(all_matches)
        try:
            want = naive_eval_instances(matches, by_cand, by_job, n, m, seed, num_negatives)
        except SamplingError as exc:
            with pytest.raises(SamplingError) as raised:
                build_eval_instances(matches, *partner_maps(all_matches), n, m, seed, num_negatives)
            assert str(raised.value) == str(exc)
            return
        got = build_eval_instances(matches, *partner_maps(all_matches), n, m, seed, num_negatives)
        assert instance_rows(got) == [row for d in Direction for row in want if row[0] is d]
        for inst in got.values():
            assert inst.anchors.dtype == inst.items.dtype == np.int64
            assert inst.items.shape == (len(set(matches)), 1 + num_negatives)

    @given(
        n=st.integers(min_value=1, max_value=7),
        m=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_set_difference_oracle(self, n, m, seed, data):
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
        all_matches = data.draw(st.sets(cells, max_size=n * m), label="all_matches")
        matches = data.draw(
            st.sets(st.sampled_from(sorted(all_matches))) if all_matches else st.just(set()),
            label="matches",
        )
        num_negatives = data.draw(st.integers(1, max(n, m) + 1), label="num_negatives")
        self.check_against_oracle(n, m, all_matches, matches, seed, num_negatives)

    def test_first_short_instance_in_draw_order_is_named(self):
        # Job 1 of match (0, 1) has one eligible candidate and candidate 2 of
        # match (2, 3) four eligible jobs; the job instance of the first match
        # comes before the candidate instance of the second.
        by_cand, by_job = partner_maps({(0, 1), (1, 1), (2, 3), (2, 4), (2, 5)})
        with pytest.raises(SamplingError) as raised:
            build_eval_instances({(0, 1), (2, 3)}, by_cand, by_job, n=3, m=7, seed=0,
                                 num_negatives=5)
        assert str(raised.value) == "job 1: only 1 eligible negatives, need 5"

    @pytest.mark.parametrize("num_negatives", [3, 4])
    def test_eligible_equal_to_count_and_one_short(self, num_negatives):
        # Candidate 0 has 5 - 2 = 3 eligible jobs; candidates 3 and 4 and
        # job 4 have no partners at all.
        all_matches = {(0, 0), (0, 1), (1, 0), (2, 3)}
        matches = {(0, 1), (2, 3)}
        self.check_against_oracle(5, 5, all_matches, matches, 11, num_negatives)


def check_distinct_draws(pops, k, seed):
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = [want_rng.choice(pop, k, replace=False) for pop in pops]
    got = distinct_draws(got_rng, np.array(pops, dtype=np.int64), k)
    assert got.shape == (len(pops), k) and got.dtype == np.int64
    for row, choice in zip(got, want):
        np.testing.assert_array_equal(row, choice)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestDistinctDraws:
    """One batched draw equals a loop of ``rng.choice(pop, k, replace=False)``."""

    @given(
        k=st.integers(0, 32),
        extra=st.lists(st.integers(0, 60), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=0, extra=[], seed=0)
    @example(k=1, extra=[0, 5], seed=1)
    @example(k=20, extra=[0, 0, 0], seed=2)
    @settings(max_examples=200, deadline=None)
    def test_floyd_rows_equal_choice(self, k, extra, seed):
        check_distinct_draws([k + e for e in extra], k, seed)

    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_tail_shuffle_rows_equal_choice(self, data, seed):
        # Above 10000 and with k > pop // 50, choice shuffles the tail of arange(pop).
        k = data.draw(st.integers(201, 320), label="k")
        tail = st.integers(10001, 50 * (k + 1) - 1)
        floyd = st.integers(k, 10000) | st.integers(50 * (k + 1), 60000)
        pops = data.draw(st.lists(tail | floyd, min_size=1, max_size=4), label="pops")
        check_distinct_draws(pops, k, seed)

    def test_population_equal_to_count_in_both_branches(self):
        check_distinct_draws([5, 5], 5, 3)
        check_distinct_draws([241, 10001, 12000], 241, 4)
        check_distinct_draws([10001], 10001, 5)

    def test_population_below_count_raises(self):
        with pytest.raises(ValueError, match="cannot draw 3 distinct values from a population of 2"):
            distinct_draws(np.random.default_rng(0), np.array([4, 2]), 3)


class TestRankMetrics:
    def test_positive_on_top(self):
        scores = [5.0, 1.0, 2.0, 3.0]
        assert rank_metrics(scores, 0, k=2) == (1.0, 0.5, 1.0, 1.0)

    def test_rank_three_inside_k(self):
        scores = [2.0, 3.0, 4.0, 1.0]
        recall, precision, ndcg, mrr = rank_metrics(scores, 0, k=3)
        assert (recall, precision) == (1.0, 1.0 / 3.0)
        assert ndcg == pytest.approx(0.5)  # 1 / log2(4)
        assert mrr == pytest.approx(1.0 / 3.0)

    def test_rank_below_k_zeroes_topk_metrics(self):
        scores = [0.0, 1.0, 2.0, 3.0]
        recall, precision, ndcg, mrr = rank_metrics(scores, 0, k=2)
        assert (recall, precision, ndcg) == (0.0, 0.0, 0.0)
        assert mrr == pytest.approx(0.25)

    def test_ties_push_positive_down(self):
        assert rank_metrics([1.0, 1.0], 0, k=1) == (0.0, 0.0, 0.0, 0.5)
        assert rank_metrics([1.0, 1.0, 1.0], 1, k=5)[3] == pytest.approx(1.0 / 3.0)

    def test_all_equal_scores_rank_last(self):
        width = 21
        _, _, _, mrr = rank_metrics([2.0] * width, 7, k=5)
        assert mrr == pytest.approx(1.0 / width)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericsError):
            rank_metrics([1.0, float("nan")], 0, k=2)
        with pytest.raises(NumericsError):
            rank_metrics([float("inf"), 1.0], 1, k=2)

    @given(
        scores=st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=30),
        k=st.integers(min_value=1, max_value=10),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_reference(self, scores, k, data):
        pos = data.draw(st.integers(min_value=0, max_value=len(scores) - 1))
        floats = [float(s) for s in scores]
        got = rank_metrics(floats, pos, k=k)
        want = naive_rank_metrics(floats, pos, k=k)
        assert got == pytest.approx(want)

    @given(
        scores=st.lists(st.integers(min_value=-20, max_value=20), min_size=2, max_size=15),
        shift=st.integers(min_value=-100, max_value=100),
        scale=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=80, deadline=None)
    def test_invariant_under_monotone_transforms(self, scores, shift, scale):
        floats = [float(s) for s in scores]
        transformed = [scale * s + shift for s in floats]
        assert rank_metrics(floats, 0, k=3) == pytest.approx(
            rank_metrics(transformed, 0, k=3)
        )

    def test_random_scoring_mrr_near_uniform_expectation(self):
        # With 20 negatives and continuous random scores every rank in
        # 1..21 is equally likely, so E[MRR] = H(21)/21.
        rng = np.random.default_rng(77)
        trials = 4000
        total = 0.0
        for _ in range(trials):
            total += rank_metrics(rng.standard_normal(21), 0, k=5)[3]
        expected = sum(1.0 / r for r in range(1, 22)) / 21
        assert total / trials == pytest.approx(expected, abs=0.01)


class TestEvaluate:
    def naive_evaluate(self, z, layout, instances, k):
        per_direction = {Direction.FOR_CANDIDATES: [], Direction.FOR_JOBS: []}
        for direction, anchor, positive, negatives in instance_rows(instances):
            items = (positive,) + negatives
            scores = []
            for item in items:
                if direction is Direction.FOR_CANDIDATES:
                    c, j = anchor, item
                else:
                    c, j = item, anchor
                r = z[layout.cand_active(c)] @ z[layout.job_passive(j)]
                s = z[layout.job_active(j)] @ z[layout.cand_passive(c)]
                scores.append(0.5 * (r + s))
            per_direction[direction].append(naive_rank_metrics(scores, 0, k))
        return {
            d: tuple(np.mean([row[i] for row in rows]) for i in range(4))
            for d, rows in per_direction.items()
        }

    def test_matches_naive_oracle(self, rng):
        n, m = 14, 13
        layout = NodeLayout(n, m)
        z = rng.standard_normal((layout.node_count, 6))
        matches = {(int(rng.integers(0, n)), int(rng.integers(0, m))) for _ in range(25)}
        by_cand, by_job = partner_maps(matches)
        instances = build_eval_instances(matches, by_cand, by_job, n, m, seed=3,
                                         num_negatives=6)
        report = evaluate(z, layout, instances, k=3)
        want = self.naive_evaluate(z, layout, instances, k=3)
        wc = want[Direction.FOR_CANDIDATES]
        wj = want[Direction.FOR_JOBS]
        got_c = report.for_candidates
        got_j = report.for_jobs
        assert (got_c.recall, got_c.precision, got_c.ndcg, got_c.mrr) == pytest.approx(wc)
        assert (got_j.recall, got_j.precision, got_j.ndcg, got_j.mrr) == pytest.approx(wj)
        assert got_c.count == got_j.count == len(matches)
        assert report.k == 3

    def test_single_layout(self, rng):
        layout = NodeLayout(8, 8, dual=False)
        z = rng.standard_normal((layout.node_count, 5))
        matches = {(0, 1), (2, 3), (4, 4)}
        by_cand, by_job = partner_maps(matches)
        instances = build_eval_instances(matches, by_cand, by_job, 8, 8, seed=1,
                                         num_negatives=4)
        report = evaluate(z, layout, instances, k=2)
        want = self.naive_evaluate(z, layout, instances, k=2)[Direction.FOR_CANDIDATES]
        got = report.for_candidates
        assert (got.recall, got.precision, got.ndcg, got.mrr) == pytest.approx(want)

    def test_perfect_model_scores_everything_first(self):
        # Hand-built z: candidate 0 and job 0 share a dedicated direction.
        layout = NodeLayout(3, 3)
        z = np.zeros((layout.node_count, 4))
        z[layout.cand_active(0), 0] = 1.0
        z[layout.job_passive(0), 0] = 1.0
        z[layout.job_active(0), 1] = 1.0
        z[layout.cand_passive(0), 1] = 1.0
        instances = {
            Direction.FOR_CANDIDATES: InstanceArrays(np.array([0]), np.array([[0, 1, 2]])),
            Direction.FOR_JOBS: InstanceArrays(np.array([0]), np.array([[0, 1, 2]])),
        }
        report = evaluate(z, layout, instances, k=1)
        for side in (report.for_candidates, report.for_jobs):
            assert side.count == 1
            assert (side.recall, side.precision, side.ndcg, side.mrr) == (1.0, 1.0, 1.0, 1.0)

    def test_empty_direction_reports_nan(self, rng):
        layout = NodeLayout(3, 3)
        z = rng.standard_normal((layout.node_count, 4))
        instances = {
            Direction.FOR_CANDIDATES: InstanceArrays(np.array([0]), np.array([[0, 1, 2]])),
            Direction.FOR_JOBS: InstanceArrays(
                np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.int64)
            ),
        }
        report = evaluate(z, layout, instances, k=1)
        assert report.for_jobs.count == 0
        assert math.isnan(report.for_jobs.mrr)
        assert report.for_candidates.count == 1

    def test_report_keeps_ranks_outside_equality(self, rng):
        layout = NodeLayout(4, 4)
        z = rng.standard_normal((layout.node_count, 3))
        instances = {
            d: InstanceArrays(np.array([0, 2]), np.array([[1, 0, 3], [2, 1, 0]])) for d in Direction
        }
        report = evaluate(z, layout, instances, k=2)
        for direction, side in zip(Direction, (report.for_candidates, report.for_jobs)):
            rank = report.ranks[direction]
            assert rank.shape == (2,) and 1 <= rank.min() <= rank.max() <= 3
            assert side.mrr == np.mean(1.0 / rank)
        assert "ranks" not in repr(report)
        assert report == replace(report, ranks={})

    @pytest.mark.parametrize(
        "node, user, direction, rows",
        [("cand_active", 3, "candidates", "[1, 3]"), ("job_active", 2, "jobs", "[1, 2]")],
    )
    def test_non_finite_scores_name_direction_and_rows(self, rng, node, user, direction, rows):
        layout = NodeLayout(5, 5)
        z = rng.standard_normal((layout.node_count, 3))
        z[getattr(layout, node)(user)] = np.nan
        # Job 2 is no item of the candidate rows, candidate 3 none of the job rows.
        instances = {
            Direction.FOR_CANDIDATES: InstanceArrays(
                np.array([0, 3, 1, 3]), np.array([[0, 1], [1, 0], [0, 1], [4, 1]])
            ),
            Direction.FOR_JOBS: InstanceArrays(
                np.array([1, 2, 2]), np.array([[0, 1], [0, 1], [1, 0]])
            ),
        }
        message = f"non-finite values in evaluation scores for {direction}, first rows {rows}"
        with pytest.raises(NumericsError, match=re.escape(message)):
            evaluate(z, layout, instances, k=1)


class TestChunkedEvaluate:
    """``evaluate`` scores in chunks of rows; the scores are those of one call per direction."""

    n, m, matches = 30, 28, 40

    def case(self, dual):
        rng = np.random.default_rng(17)
        layout = NodeLayout(self.n, self.m, dual)
        z = rng.standard_normal((layout.node_count, 64))
        flat = rng.choice(self.n * self.m, self.matches, replace=False)
        matches = np.stack([flat // self.m, flat % self.m], axis=1)
        by_cand, by_job = partner_maps(matches)
        instances = build_eval_instances(matches, by_cand, by_job, self.n, self.m, seed=5)
        return z, layout, instances

    @staticmethod
    def whole_grid_scores(z, layout, instances):
        """One ``pair_scores`` call per direction over its repeated anchors and flat items."""
        out = {}
        for direction, inst in instances.items():
            pairs = np.repeat(inst.anchors, inst.items.shape[1]), inst.items.ravel()
            cands, jobs = pairs if direction is Direction.FOR_CANDIDATES else pairs[::-1]
            out[direction] = pair_scores(z, layout, cands, jobs)[2].reshape(inst.items.shape)
        return out

    @pytest.mark.parametrize("dual", [True, False], ids=["dual", "no-dpg"])
    # 3 · 21 pairs is 3 rows, which leaves 40 rows a short last chunk.
    @pytest.mark.parametrize("chunk", [1, 21, 22, 3 * 21, 10**6])
    def test_equal_to_one_call_per_direction(self, monkeypatch, dual, chunk):
        z, layout, instances = self.case(dual)
        assert all(inst.items.shape == (self.matches, 21) for inst in instances.values())
        want = self.whole_grid_scores(z, layout, instances)
        scored = {d: [] for d in Direction}

        def recording_pair_scores(z, layout, cands, jobs):
            out = real_pair_scores(z, layout, cands, jobs)
            anchor_is_cand = cands.shape[1] == 1
            scored[Direction.FOR_CANDIDATES if anchor_is_cand else Direction.FOR_JOBS].append(out[2])
            return out

        real_pair_scores = evaluation.pair_scores
        monkeypatch.setattr(evaluation, "pair_scores", recording_pair_scores)
        monkeypatch.setattr(evaluation, "SCORE_CHUNK", chunk)
        report = evaluate(z, layout, instances, k=5)
        monkeypatch.undo()
        rows = max(1, chunk // 21)
        for direction in Direction:
            y = want[direction]
            assert len(scored[direction]) == -(-self.matches // rows)
            assert np.concatenate(scored[direction]).tobytes() == y.tobytes()
            ranks = 1 + np.sum(y[:, 1:] >= y[:, :1], axis=1)
            assert np.array_equal(report.ranks[direction], ranks)
        assert report == evaluate(z, layout, instances, k=5)

    def test_every_instance_scored_once_across_chunks(self, monkeypatch):
        z, layout, instances = self.case(True)
        calls = []

        def counting_pair_scores(z, layout, cands, jobs):
            calls.append(np.broadcast_arrays(cands, jobs))
            return real_pair_scores(z, layout, cands, jobs)

        real_pair_scores = evaluation.pair_scores
        monkeypatch.setattr(evaluation, "pair_scores", counting_pair_scores)
        monkeypatch.setattr(evaluation, "SCORE_CHUNK", 4 * 21)
        evaluate(z, layout, instances, k=5)
        per_direction = -(-self.matches // 4)
        assert len(calls) == 2 * per_direction
        for direction, batch in zip(Direction, (calls[:per_direction], calls[per_direction:])):
            cands, jobs = (np.concatenate(side) for side in zip(*batch))
            if direction is Direction.FOR_JOBS:
                cands, jobs = jobs, cands
            inst = instances[direction]
            anchor_grid = np.broadcast_to(inst.anchors[:, None], inst.items.shape)
            np.testing.assert_array_equal(cands, anchor_grid)
            np.testing.assert_array_equal(jobs, inst.items)

    @pytest.mark.parametrize(
        "node, user, direction, rows",
        [("job_passive", 4, "candidates", "[3, 5]"), ("cand_passive", 4, "jobs", "[3, 5]")],
    )
    def test_non_finite_rows_in_a_later_chunk_are_named_globally(
        self, rng, monkeypatch, node, user, direction, rows
    ):
        layout = NodeLayout(6, 6)
        z = rng.standard_normal((layout.node_count, 3))
        z[getattr(layout, node)(user)] = np.nan
        # User 4 is an item of rows 3 and 5 only, in the second and third chunks, and no anchor.
        items = np.array([[0, 1], [1, 2], [2, 3], [4, 0], [3, 5], [5, 4]])
        instances = {d: InstanceArrays(np.array([0, 1, 2, 3, 5, 0]), items) for d in Direction}
        monkeypatch.setattr(evaluation, "SCORE_CHUNK", 2 * 2)  # two rows per chunk
        message = f"non-finite values in evaluation scores for {direction}, first rows {rows}"
        with pytest.raises(NumericsError, match=re.escape(message)):
            evaluate(z, layout, instances, k=1)


class TestInteractionCounts:
    def test_counts_all_kinds(self):
        split = make_split(
            applies=[(0, 1), (0, 2)], reachouts=[(1, 1)], matches=[(0, 0), (2, 1)]
        )
        cand, job = interaction_counts(split, 4, 3)
        np.testing.assert_array_equal(cand, [3, 1, 1, 0])
        np.testing.assert_array_equal(job, [1, 3, 1])


class TestPartitionByMass:
    def test_frozen_cases(self):
        cases = {
            (1, 1, 1, 1, 4, 4): [[0, 1], [2], [3], [4], [5]],
            tuple([2] * 10): [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]],
            tuple([2] * 11): [[0, 1], [2, 3], [4, 5], [6, 7, 8], [9, 10]],
            (1, 1, 2, 3, 5, 8, 13): [[0, 1, 2], [3], [4], [5], [6]],
            tuple(range(1, 11)): [[0, 1, 2, 3], [4, 5], [6, 7], [8], [9]],
        }
        for counts, want in cases.items():
            got = [g.tolist() for g in partition_by_mass(np.array(counts), 5)]
            assert got == want, counts

    def test_rejects_too_few_active_users(self):
        with pytest.raises(DataFormatError, match="at least 5"):
            partition_by_mass(np.array([3, 0, 0, 1, 2, 1]), 5)

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=40), min_size=8, max_size=60),
        groups=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_structural_properties(self, counts, groups):
        arr = np.array(counts)
        if int(np.count_nonzero(arr)) < groups:
            with pytest.raises(DataFormatError):
                partition_by_mass(arr, groups)
            return
        parts = partition_by_mass(arr, groups)
        assert len(parts) == groups
        # disjoint cover of all users
        joined = np.concatenate(parts)
        assert sorted(joined.tolist()) == list(range(len(arr)))
        # contiguous ascending-count blocks: every count in group g is <= every
        # count in group g+1, and no group is empty
        for left, right in zip(parts, parts[1:]):
            assert left.size > 0 and right.size > 0
            assert arr[left].max() <= arr[right].min()

    def test_first_group_is_sparsest(self):
        counts = np.array([9, 1, 7, 1, 5, 2, 8, 3])
        parts = partition_by_mass(counts, 5)
        assert counts[parts[0]].max() <= min(counts[g].min() for g in parts[1:])


class TestSparsityBreakdown:
    def test_groups_cover_direction_and_average_back(self, rng):
        n, m = 15, 15
        layout = NodeLayout(n, m)
        z = rng.standard_normal((layout.node_count, 5))
        matches = {(i, (i * 3) % m) for i in range(n)}
        by_cand, by_job = partner_maps(matches)
        instances = build_eval_instances(matches, by_cand, by_job, n, m, seed=9,
                                         num_negatives=5)
        cand_counts = rng.integers(1, 9, size=n)
        job_counts = rng.integers(1, 9, size=m)
        overall = evaluate(z, layout, instances, k=3)
        breakdown = sparsity_breakdown(overall, instances, cand_counts, job_counts, groups=5)
        for direction, total_report in (
            (Direction.FOR_CANDIDATES, overall.for_candidates),
            (Direction.FOR_JOBS, overall.for_jobs),
        ):
            reports = breakdown[direction]
            assert len(reports) == 5
            assert sum(r.count for r in reports) == total_report.count
            weighted = sum(r.count * r.mrr for r in reports if r.count)
            assert weighted / total_report.count == pytest.approx(total_report.mrr)

    def test_group_membership_respects_counts(self, rng):
        n, m = 10, 10
        layout = NodeLayout(n, m)
        z = rng.standard_normal((layout.node_count, 4))
        # candidate 0 uniquely sparse, candidate 9 uniquely dense
        cand_counts = np.array([1, 5, 5, 5, 5, 5, 5, 5, 5, 40])
        job_counts = np.full(m, 4)
        matches = {(0, 0), (9, 9), (4, 4), (5, 5), (6, 6)}
        by_cand, by_job = partner_maps(matches)
        instances = build_eval_instances(matches, by_cand, by_job, n, m, seed=2,
                                         num_negatives=3)
        report = evaluate(z, layout, instances, k=2)
        breakdown = sparsity_breakdown(report, instances, cand_counts, job_counts, groups=5)
        cand_reports = breakdown[Direction.FOR_CANDIDATES]
        # candidate 0 (count 1) sits alone in the sparsest bucket's anchors
        assert cand_reports[0].count == 1
        # candidate 9 (count 40) is the densest bucket alone
        assert cand_reports[-1].count == 1

    def test_each_group_equals_evaluate_over_its_instances(self, rng):
        n, m = 12, 12
        layout = NodeLayout(n, m)
        z = rng.standard_normal((layout.node_count, 4))
        cand_counts = rng.integers(1, 9, size=n)
        job_counts = rng.integers(1, 9, size=m)
        # The sparsest candidates have no match, so their group has no instances.
        sparsest = set(partition_by_mass(cand_counts, 5)[0].tolist())
        matches = {(c, j) for c in range(n) for j in (c * 5 % m, (c + 1) % m) if c not in sparsest}
        by_cand, by_job = partner_maps(matches)
        instances = build_eval_instances(matches, by_cand, by_job, n, m, seed=4,
                                         num_negatives=4)
        report = evaluate(z, layout, instances, k=2)
        breakdown = sparsity_breakdown(report, instances, cand_counts, job_counts, groups=5)
        empty = 0
        for direction, counts in zip(Direction, (cand_counts, job_counts)):
            for members, got in zip(partition_by_mass(counts, 5), breakdown[direction]):
                keep = np.isin(instances[direction].anchors, members)
                if not keep.any():
                    empty += 1
                    assert got.count == 0
                    assert all(math.isnan(x) for x in (got.recall, got.precision, got.ndcg, got.mrr))
                    continue
                subset = dict(instances)
                subset[direction] = InstanceArrays(
                    instances[direction].anchors[keep], instances[direction].items[keep]
                )
                alone = evaluate(z, layout, subset, k=2)
                want = alone.for_candidates if direction is Direction.FOR_CANDIDATES else alone.for_jobs
                assert got == want
        assert empty >= 1
