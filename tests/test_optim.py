"""Losses, manual gradients vs finite differences, Adam, checkpoints, training."""

import copy
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp

from jobfit.corpus import InteractionSplit, SplitDataset
from jobfit.errors import CheckpointError, ConfigError, SamplingError, TrainingError
from jobfit.evaluation import interaction_counts, partner_maps
from jobfit.graph import NodeLayout
from jobfit.model import (
    VariantConfig,
    apply_mean_powers,
    build_variant_graph,
    init_params,
    node_init,
    propagate,
)
from jobfit.optim import (
    CKPT_MAGIC,
    CKPT_VERSION,
    AdamState,
    InputFingerprint,
    TrainConfig,
    adam_step,
    batch_gradients,
    batch_loss,
    checkpoint_from,
    load_checkpoint,
    logsumexp_rows,
    main_loss,
    params_from_checkpoint,
    pairwise_bpr_loss,
    quadruple_loss,
    sample_quadruples,
    sample_ssl_denominators,
    save_checkpoint,
    scatter_add_rows,
    softplus,
    ssl_loss,
    train,
    _side_contrastive,
)

import jobfit.model
import jobfit.optim
from conftest import (
    adam_step_oracle,
    main_score_grads_oracle,
    make_split,
    naive_partner_maps,
    naive_sample_quadruples,
    partner_lists,
    random_split,
    sampled_side_contrastive_oracle,
    scatter_add_rows_oracle,
    side_contrastive_oracle,
    ssl_denominators_oracle,
)

LN2 = math.log(2.0)
# Magic, version, shapes and variant, epoch and best metric, input fingerprint,
# match row counts.
CKPT_HEADER_BYTES = 8 + 4 + 48 + 12 + 113 + 24


def tiny_dataset(seed=0, n=12, m=12, train_matches=12, valid_matches=4, test_matches=3):
    rng = np.random.default_rng(seed)
    flat = rng.permutation(n * m)
    pairs = [(int(p // m), int(p % m)) for p in flat]
    cut1 = train_matches
    cut2 = cut1 + valid_matches
    cut3 = cut2 + test_matches
    train_split = InteractionSplit(
        applies=frozenset(pairs[cut3 : cut3 + 6]),
        reachouts=frozenset(pairs[cut3 + 6 : cut3 + 12]),
        matches=frozenset(pairs[:cut1]),
    )
    valid_split = InteractionSplit(frozenset(), frozenset(), frozenset(pairs[cut1:cut2]))
    test_split = InteractionSplit(frozenset(), frozenset(), frozenset(pairs[cut2:cut3]))
    return SplitDataset(n, m, train_split, valid_split, test_split, 70, 88)


def tiny_docs(n, m, d_o=4, seed=7):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d_o)), rng.standard_normal((m, d_o))


def small_config(**overrides):
    base = dict(
        d_e=6, d_t=4, learning_rate=0.05, batch_size=4, max_epochs=4,
        patience=2, tau=0.2, seed=3, eval_seed=5, eval_negatives=3, k=2,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig().validate()

    @pytest.mark.parametrize(
        "bad",
        [
            dict(d_e=0),
            dict(d_t=-1),
            dict(learning_rate=0.0),
            dict(batch_size=0),
            dict(max_epochs=-1),
            dict(patience=0),
            dict(tau=0.0),
            dict(ssl_negatives=-1),
            dict(eval_negatives=0),
            dict(k=0),
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad).validate()


class TestSoftplus:
    def test_frozen_values(self):
        assert softplus(0.0) == pytest.approx(LN2, abs=1e-15)
        assert softplus(-2.0) == pytest.approx(0.12692801104297263, abs=1e-15)

    def test_extremes_do_not_overflow(self):
        assert softplus(1000.0) == pytest.approx(1000.0)
        assert softplus(-1000.0) == 0.0
        assert np.isfinite(softplus(np.array([-1e4, 0.0, 1e4]))).all()

    def test_matches_naive_on_moderate_inputs(self, rng):
        x = rng.uniform(-20, 20, size=64)
        np.testing.assert_allclose(softplus(x), np.log1p(np.exp(x)), rtol=1e-12)


class TestScatterAddRows:
    def test_matches_loop(self, rng):
        out = rng.standard_normal((7, 3))
        expected = out.copy()
        ids = rng.integers(0, 7, size=25)
        rows = rng.standard_normal((25, 3))
        for i, row in zip(ids, rows):
            expected[i] += row
        scatter_add_rows(out, ids, rows)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_repeated_ids_accumulate(self):
        out = np.zeros((3, 2))
        scatter_add_rows(out, np.array([1, 1, 1]), np.ones((3, 2)))
        np.testing.assert_array_equal(out[1], [3.0, 3.0])
        assert not out[0].any() and not out[2].any()

    def test_empty_noop(self):
        out = np.ones((2, 2))
        scatter_add_rows(out, np.empty(0, dtype=np.int64), np.empty((0, 2)))
        np.testing.assert_array_equal(out, np.ones((2, 2)))

    @given(
        size=st.integers(min_value=1, max_value=12),
        dim=st.integers(min_value=1, max_value=6),
        distinct=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_previous_scatter(self, size, dim, distinct, seed, data):
        """Exact without repeated ids; otherwise within 1e-12 of the summed magnitudes.

        Repeated ids are summed in input order here and by reduceat's order
        in the oracle, so only their rounding may differ.
        """
        ids = data.draw(
            st.lists(st.integers(0, size - 1), max_size=size if distinct else 40, unique=distinct)
        )
        ids = np.array(ids, dtype=np.int64)
        rng = np.random.default_rng(seed)
        start = rng.standard_normal((size, dim))
        scales = rng.choice([1e-3, 1.0, 1e3], size=(len(ids), 1))
        rows = rng.standard_normal((len(ids), dim)) * scales
        want, got = start.copy(), start.copy()
        scatter_add_rows_oracle(want, ids, rows)
        scatter_add_rows(got, ids, rows)
        if len(np.unique(ids)) == len(ids):
            np.testing.assert_array_equal(got, want)
        else:
            magnitude = np.abs(start)
            scatter_add_rows_oracle(magnitude, ids, np.abs(rows))
            assert np.all(np.abs(got - want) <= 1e-12 * magnitude)


class TestLogsumexpRows:
    @given(
        a=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 40)),
            elements=st.one_of(
                st.sampled_from((-2.0, 0.0, 0.5, 3.0)),  # ties within a row
                st.floats(-50.0, 50.0),
                st.floats(-1e300, 1e300),
            ),
        )
    )
    @example(a=np.full((3, 5), 7.25))
    @example(a=np.array([[1e300], [-1e300], [0.0]]))
    @example(a=np.array([[1e300, -1e300, 1e300, 2.0]]))
    @settings(max_examples=300, deadline=None)
    def test_equals_scipy(self, a):
        assert np.array_equal(logsumexp_rows(a), logsumexp(a, axis=1))


class TestQuadrupleSampling:
    def test_never_draws_excluded_partner(self, rng):
        by_cand = partner_lists({0: {0, 1, 2}})
        by_job = partner_lists({5: {0, 1}})
        cands = np.zeros(500, dtype=np.int64)
        jobs = np.full(500, 5, dtype=np.int64)
        neg_jobs, neg_cands = sample_quadruples(cands, jobs, by_cand, by_job, 4, 8, rng)
        assert not set(neg_jobs.tolist()) & {0, 1, 2}
        assert not set(neg_cands.tolist()) & {0, 1}

    def test_uniform_over_eligible(self, rng):
        by_cand = partner_lists({0: {0, 1, 2}})
        draws = 20000
        cands = np.zeros(draws, dtype=np.int64)
        jobs = np.zeros(draws, dtype=np.int64)
        neg_jobs, neg_cands = sample_quadruples(cands, jobs, by_cand, partner_lists({}), 5, 8, rng)
        counts = np.bincount(neg_jobs, minlength=8)
        assert counts[:3].sum() == 0
        np.testing.assert_allclose(counts[3:] / draws, 0.2, atol=0.015)
        np.testing.assert_allclose(np.bincount(neg_cands, minlength=5) / draws, 0.2, atol=0.015)

    def test_no_eligible_negative_raises(self, rng):
        by_cand = partner_lists({3: set(range(6))})
        with pytest.raises(SamplingError, match="candidate 3"):
            sample_quadruples(
                np.array([3]), np.array([0]), by_cand, partner_lists({}), 4, 6, rng
            )
        by_job = partner_lists({2: set(range(4))})
        with pytest.raises(SamplingError, match="job 2"):
            sample_quadruples(
                np.array([0]), np.array([2]), partner_lists({}), by_job, 4, 6, rng
            )

    @pytest.mark.parametrize("seed", range(20))
    def test_one_free_job_among_thousands_is_always_drawn(self, seed):
        # A rejection sampler capped at 1,000 tries per draw mostly fails here.
        m, free = 5000, 2718
        by_cand = partner_lists({0: set(range(m)) - {free}})
        cands = np.zeros(4, dtype=np.int64)
        neg_jobs, neg_cands = sample_quadruples(
            cands, cands, by_cand, partner_lists({}), 3, m, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(neg_jobs, free)
        assert set(neg_cands.tolist()) <= {0, 1, 2}

    @given(
        n=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_csr_rows_draw_as_the_sets_did(self, n, m, seed, data):
        # Batch users may have no partners, and some have every id as one.
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
        pairs = data.draw(st.sets(cells, max_size=n * m), label="pairs")
        batch = np.array(data.draw(st.lists(cells, min_size=1, max_size=12), label="batch"))
        args = (batch[:, 0], batch[:, 1])
        try:
            want = naive_sample_quadruples(*args, *naive_partner_maps(pairs), n, m,
                                           np.random.default_rng(seed))
        except SamplingError as exc:
            with pytest.raises(SamplingError) as raised:
                sample_quadruples(*args, *partner_maps(pairs), n, m, np.random.default_rng(seed))
            assert str(raised.value) == str(exc)
            return
        got = sample_quadruples(*args, *partner_maps(pairs), n, m, np.random.default_rng(seed))
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


class TestRankingLosses:
    def test_equal_scores_give_ln2(self):
        y = np.array([0.3, -1.2, 4.0])
        assert quadruple_loss(y, y, y) == pytest.approx(LN2, abs=1e-12)
        assert pairwise_bpr_loss(y, y, y) == pytest.approx(LN2, abs=1e-12)

    def test_frozen_margin_value(self):
        # y_pos=2, both negatives 0: joint margin 2 -> softplus(-2)
        assert quadruple_loss([2.0], [0.0], [0.0]) == pytest.approx(
            0.12692801104297263, abs=1e-12
        )
        # pairwise form averages the same margin twice
        assert pairwise_bpr_loss([2.0], [0.0], [0.0]) == pytest.approx(
            0.12692801104297263, abs=1e-12
        )

    def test_batch_mean(self):
        got = quadruple_loss([0.0, 2.0], [0.0, 0.0], [0.0, 0.0])
        assert got == pytest.approx(0.5 * (LN2 + 0.12692801104297263), abs=1e-12)

    def test_quadruple_uses_joint_margin(self):
        # negatives averaging to the positive keep the quadruple loss at ln 2
        # but leave one pairwise term sharp, so the forms disagree
        q = quadruple_loss([1.0], [2.0], [0.0])
        p = pairwise_bpr_loss([1.0], [2.0], [0.0])
        assert q == pytest.approx(LN2, abs=1e-12)
        assert p == pytest.approx(0.5 * (softplus(1.0) + softplus(-1.0)), abs=1e-12)

    def test_main_loss_dispatch(self):
        args = ([1.0], [2.0], [0.0])
        assert main_loss(*args, quadruple=True) == quadruple_loss(*args)
        assert main_loss(*args, quadruple=False) == pairwise_bpr_loss(*args)

    def test_monotone_in_margin(self, rng):
        margins = np.linspace(-4, 4, 33)
        losses = [quadruple_loss([x], [0.0], [0.0]) for x in margins]
        assert all(a > b for a, b in zip(losses, losses[1:]))


class TestContrastive:
    def test_single_user_per_side_is_ln2_each(self, rng):
        layout = NodeLayout(3, 3)
        z = rng.standard_normal((layout.node_count, 4))
        assert ssl_loss(z, layout, [1], [2], tau=0.2) == pytest.approx(2 * LN2, rel=1e-12)

    def test_lower_bound_ln2_per_anchor(self, rng):
        layout = NodeLayout(6, 5)
        z = rng.standard_normal((layout.node_count, 4))
        cand_users = np.arange(6)
        job_users = np.arange(5)
        assert ssl_loss(z, layout, cand_users, job_users, tau=0.3) >= 11 * LN2 - 1e-9

    def test_matches_naive_reference(self, rng):
        layout = NodeLayout(5, 4)
        z = rng.standard_normal((layout.node_count, 3))
        cand_users = np.array([0, 2, 3, 4])
        job_users = np.array([1, 2, 3])
        tau = 0.4

        def side(active, passive):
            total = 0.0
            for i in range(len(active)):
                num = math.exp(z[active[i]] @ z[passive[i]] / tau)
                den = 0.0
                for i2 in range(len(active)):
                    den += math.exp(z[active[i]] @ z[passive[i2]] / tau)
                    den += math.exp(z[active[i2]] @ z[passive[i]] / tau)
                total += -math.log(num / den)
            return total

        want = side(layout.cand_active(cand_users), layout.cand_passive(cand_users))
        want += side(layout.job_active(job_users), layout.job_passive(job_users))
        got = ssl_loss(z, layout, cand_users, job_users, tau)
        assert got == pytest.approx(want, rel=1e-10)

    def test_empty_sides(self, rng):
        layout = NodeLayout(3, 3)
        z = rng.standard_normal((layout.node_count, 4))
        empty = np.empty(0, dtype=np.int64)
        assert ssl_loss(z, layout, empty, empty, tau=0.2) == 0.0
        partial = ssl_loss(z, layout, np.array([0]), empty, tau=0.2)
        assert partial == pytest.approx(LN2, rel=1e-12)

    def test_tau_must_be_positive(self, rng):
        layout = NodeLayout(2, 2)
        z = rng.standard_normal((layout.node_count, 3))
        with pytest.raises(ConfigError):
            ssl_loss(z, layout, [0], [0], tau=0.0)

    def test_denominator_sampling_layout(self, rng):
        anchors = np.array([0, 3, 7])
        dens = sample_ssl_denominators(anchors, universe=8, count=4, rng=rng)
        assert dens.shape == (3, 5)
        np.testing.assert_array_equal(dens[:, 0], anchors)
        for row in dens:
            assert len(set(row.tolist())) == 5
            assert all(0 <= v < 8 for v in row)

    def test_denominator_sampling_needs_enough_users(self, rng):
        with pytest.raises(SamplingError):
            sample_ssl_denominators(np.array([0]), universe=4, count=4, rng=rng)

    @given(
        universe=st.integers(1, 80),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_denominator_sampling_equals_oracle(self, universe, seed, data):
        users = st.lists(st.integers(0, universe - 1), max_size=12)
        anchors = np.array(data.draw(users, label="anchors"), dtype=np.int64)
        count = data.draw(st.integers(0, universe - 1), label="count")
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = ssl_denominators_oracle(anchors, universe, count, want_rng)
        got = sample_ssl_denominators(anchors, universe, count, got_rng)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @given(
        n=st.integers(min_value=1, max_value=9),
        m=st.integers(min_value=1, max_value=9),
        dual=st.booleans(),
        dim=st.integers(min_value=1, max_value=8),
        tau=st.floats(min_value=0.1, max_value=5.0),
        scale=st.sampled_from((0.05, 1.0, 3.0)),
        weight=st.floats(min_value=1e-3, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_kernel_matches_previous_kernels(
        self, n, m, dual, dim, tau, scale, weight, seed, data
    ):
        """In-batch is bit-exact; sampled changes the summation order only."""
        layout = NodeLayout(n, m, dual)
        rng = np.random.default_rng(seed)
        z = scale * rng.standard_normal((layout.node_count, dim))
        grad_bound = 1e-12 * weight * np.abs(z).max() / tau
        for universe, active, passive in (
            (n, layout.cand_active, layout.cand_passive),
            (m, layout.job_active, layout.job_passive),
        ):
            chosen = data.draw(st.sets(st.integers(0, universe - 1)))
            users = rng.permutation(np.array(sorted(chosen), dtype=np.int64))
            want_grad, got_grad = np.zeros_like(z), np.zeros_like(z)
            want = side_contrastive_oracle(
                z, active(users), passive(users), tau, want_grad, weight
            )
            got = _side_contrastive(z, active, passive, users, tau, None, got_grad, weight)
            assert got == want
            np.testing.assert_array_equal(got_grad, want_grad)

            count = data.draw(st.integers(0, universe - 1))
            dens = sample_ssl_denominators(users, universe, count, rng)
            want_grad, got_grad = np.zeros_like(z), np.zeros_like(z)
            want = sampled_side_contrastive_oracle(
                z, active(users), passive(users), active(dens), passive(dens),
                tau, want_grad, weight,
            )
            got = _side_contrastive(z, active, passive, users, tau, dens, got_grad, weight)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            assert np.abs(got_grad - want_grad).max() <= grad_bound

    def test_sampled_full_batch_equals_in_batch(self, rng):
        n = m = 5
        split = random_split(rng, n, m, matches=4, applies=4, reachouts=4)
        variant = VariantConfig(ssl_weight=0.1, layers=2)
        graph = build_variant_graph(split, n, m, variant)
        docs = tiny_docs(n, m)
        params = init_params(graph.layout, 4, 3, *docs, seed=11)
        pairs = split.matches
        quads = (pairs[:, 0], pairs[:, 1], (pairs[:, 0] + 1) % n, (pairs[:, 1] + 1) % m)
        cand_users = np.arange(n)
        job_users = np.arange(m)
        full_dens = np.array([[i] + [u for u in range(n) if u != i] for i in range(n)])
        args = (params, graph, variant, quads, cand_users, job_users, 0.25)
        loss_in_batch = batch_loss(*args)
        loss_sampled = batch_loss(*args, ssl_dens=(full_dens, full_dens))
        assert loss_sampled == pytest.approx(loss_in_batch, rel=1e-12)
        res_a = batch_gradients(*args)
        res_b = batch_gradients(*args, ssl_dens=(full_dens, full_dens))
        np.testing.assert_allclose(res_a.d_embeddings, res_b.d_embeddings, atol=1e-12)
        np.testing.assert_allclose(res_a.d_projection, res_b.d_projection, atol=1e-12)


class TestGradients:
    """Central finite differences against the closed-form backward pass."""

    def check(self, variant, ssl_negatives=0, seed=21, h=1e-4, tol=1e-4):
        rng = np.random.default_rng(seed)
        n, m = 6, 5
        split = random_split(rng, n, m, matches=4, applies=5, reachouts=5)
        graph = build_variant_graph(split, n, m, variant)
        docs = tiny_docs(n, m)
        params = init_params(graph.layout, 4, 3, *docs, seed=11)
        pairs = split.matches
        cands, jobs = pairs[:, 0], pairs[:, 1]
        quads = (cands, jobs, (cands + 2) % n, (jobs + 2) % m)
        cand_users = np.unique(cands)
        job_users = np.unique(jobs)
        ssl_dens = None
        if ssl_negatives:
            ssl_dens = (
                sample_ssl_denominators(cand_users, n, ssl_negatives, rng),
                sample_ssl_denominators(job_users, m, ssl_negatives, rng),
            )
        args = (graph, variant, quads, cand_users, job_users, 0.25, ssl_dens)
        result = batch_gradients(params, *args)
        analytic = {"embeddings": result.d_embeddings, "projection": result.d_projection}
        for name in ("embeddings", "projection"):
            tensor = getattr(params, name)
            flat_coords = rng.choice(tensor.size, size=5, replace=False)
            for flat in flat_coords:
                idx = np.unravel_index(flat, tensor.shape)
                orig = tensor[idx]
                tensor[idx] = orig + h
                up = batch_loss(params, *args)
                tensor[idx] = orig - h
                down = batch_loss(params, *args)
                tensor[idx] = orig
                fd = (up - down) / (2 * h)
                ga = analytic[name][idx]
                rel = abs(ga - fd) / max(abs(ga), abs(fd), 1e-6)
                assert rel < tol, f"{name}{idx}: analytic {ga} vs fd {fd}"

    def test_full_variant(self):
        self.check(VariantConfig(ssl_weight=0.1, layers=2, self_edges="as_match"))

    def test_single_layout(self):
        self.check(VariantConfig(dual_graph=False, ssl_weight=0.1, layers=1, self_edges="off"))

    def test_pairwise_loss(self):
        self.check(VariantConfig(quadruple_loss=False, ssl_weight=0.0, layers=1))

    def test_sampled_contrastive(self):
        self.check(VariantConfig(ssl_weight=0.1, layers=2), ssl_negatives=2)

    def test_zero_layers(self):
        self.check(VariantConfig(ssl_weight=0.05, layers=0))

    @pytest.mark.parametrize("ssl_negatives", [0, 2])
    def test_given_forward_pass_equals_own(self, ssl_negatives):
        rng = np.random.default_rng(5)
        n, m = 6, 5
        variant = VariantConfig(ssl_weight=0.1, layers=2)
        split = random_split(rng, n, m, matches=4, applies=5, reachouts=5)
        graph = build_variant_graph(split, n, m, variant)
        params = init_params(graph.layout, 4, 3, *tiny_docs(n, m), seed=11)
        cands, jobs = split.matches[:, 0], split.matches[:, 1]
        cand_users, job_users = np.unique(cands), np.unique(jobs)
        ssl_dens = None
        if ssl_negatives:
            ssl_dens = (
                sample_ssl_denominators(cand_users, n, ssl_negatives, rng),
                sample_ssl_denominators(job_users, m, ssl_negatives, rng),
            )
        args = (params, graph, variant, (cands, jobs, (cands + 2) % n, (jobs + 2) % m),
                cand_users, job_users, 0.25, ssl_dens)
        own = batch_gradients(*args)
        given_z = batch_gradients(*args, z=propagate(params, graph, variant).z)
        assert (given_z.loss_main, given_z.loss_ssl) == (own.loss_main, own.loss_ssl)
        assert np.array_equal(given_z.d_embeddings, own.d_embeddings)
        assert np.array_equal(given_z.d_projection, own.d_projection)


class TestMainLossGradients:
    """batch_gradients against three pair_scores calls and 12 per-block scatters."""

    @given(
        n=st.integers(min_value=1, max_value=9),
        m=st.integers(min_value=1, max_value=9),
        dual=st.booleans(),
        quadruple=st.booleans(),
        ssl_weight=st.sampled_from((0.0, 0.1)),
        layers=st.integers(min_value=0, max_value=2),
        batch=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_block_scatters(
        self, n, m, dual, quadruple, ssl_weight, layers, batch, seed
    ):
        """Losses are exact; gradients within 1e-12 of the sums over absolute values.

        Only the order of the scatter sums differs, so each entry's error is
        bounded through the same propagation and projection of 1e-12 times
        the summed term magnitudes plus the reference gradient.
        """
        rng = np.random.default_rng(seed)
        split = random_split(rng, n, m, matches=3, applies=3, reachouts=3)
        variant = VariantConfig(
            dual_graph=dual, quadruple_loss=quadruple, ssl_weight=ssl_weight, layers=layers,
            self_edges="as_match" if dual else "off",
        )
        graph = build_variant_graph(split, n, m, variant)
        params = init_params(graph.layout, 4, 3, *tiny_docs(n, m), seed=seed % 1000)
        layout = graph.layout
        cands, jobs = rng.integers(0, n, batch), rng.integers(0, m, batch)
        quads = (cands, jobs, rng.integers(0, n, batch), rng.integers(0, m, batch))
        cand_users, job_users = np.unique(cands), np.unique(jobs)
        tau = 0.5

        z = propagate(params, graph, variant).z
        grad_z, magnitude = np.zeros_like(z), np.zeros_like(z)
        want_main = main_score_grads_oracle(z, layout, quads, quadruple, grad_z, magnitude)
        want_ssl = 0.0
        if ssl_weight > 0:
            for users, active, passive in (
                (cand_users, layout.cand_active, layout.cand_passive),
                (job_users, layout.job_active, layout.job_passive),
            ):
                want_ssl += side_contrastive_oracle(
                    z, active(users), passive(users), tau, grad_z, ssl_weight
                )
        grad_z0 = apply_mean_powers(graph, variant, grad_z)
        want_emb = grad_z0[:, : params.d_e]
        want_proj = grad_z0[:, params.d_e :].T @ params.doc_table

        got = batch_gradients(params, graph, variant, quads, cand_users, job_users, tau)
        assert got.loss_main == want_main
        assert got.loss_ssl == want_ssl
        bound_z0 = apply_mean_powers(graph, variant, 1e-12 * (magnitude + np.abs(grad_z)))
        bound_emb = bound_z0[:, : params.d_e]
        bound_proj = bound_z0[:, params.d_e :].T @ np.abs(params.doc_table)
        assert np.all(np.abs(got.d_embeddings - want_emb) <= bound_emb)
        assert np.all(np.abs(got.d_projection - want_proj) <= bound_proj)


class TestAdam:
    def test_matches_elementwise_reference(self, rng):
        layout = NodeLayout(2, 2)
        docs = tiny_docs(2, 2)
        params = init_params(layout, 3, 2, *docs, seed=1)
        state = AdamState.zeros(params)
        ref_emb = params.embeddings.copy()
        ref_proj = params.projection.copy()
        m = {k: 0.0 for k in ("e", "p")}
        ms = {"e": np.zeros_like(ref_emb), "p": np.zeros_like(ref_proj)}
        vs = {"e": np.zeros_like(ref_emb), "p": np.zeros_like(ref_proj)}
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        for t in range(1, 6):
            ge = rng.standard_normal(ref_emb.shape)
            gp = rng.standard_normal(ref_proj.shape)
            adam_step(params, ge, gp, state, lr)
            for key, ref, grad in (("e", ref_emb, ge), ("p", ref_proj, gp)):
                ms[key] = b1 * ms[key] + (1 - b1) * grad
                vs[key] = b2 * vs[key] + (1 - b2) * grad**2
                m_hat = ms[key] / (1 - b1**t)
                v_hat = vs[key] / (1 - b2**t)
                ref -= lr * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_allclose(params.embeddings, ref_emb, atol=1e-14)
        np.testing.assert_allclose(params.projection, ref_proj, atol=1e-14)
        assert state.step == 5

    @pytest.mark.parametrize("grad_scale", [1e-6, 1.0, 1e4])
    def test_equals_previous_formula(self, rng, grad_scale):
        params = init_params(NodeLayout(3, 4), 5, 2, *tiny_docs(3, 4), seed=2)
        want_params, state = copy.deepcopy(params), AdamState.zeros(params)
        want_state = copy.deepcopy(state)
        for _ in range(6):
            ge = grad_scale * rng.standard_normal(params.embeddings.shape)
            gp = grad_scale * rng.standard_normal(params.projection.shape)
            gp[0] = 0.0  # a row whose second moment stays 0: the step divides by eps
            adam_step(params, ge, gp, state, 0.05)
            adam_step_oracle(want_params, ge, gp, want_state, 0.05)
            for got, want in (
                (params.embeddings, want_params.embeddings),
                (params.projection, want_params.projection),
                (state.m_embeddings, want_state.m_embeddings),
                (state.v_embeddings, want_state.v_embeddings),
                (state.m_projection, want_state.m_projection),
                (state.v_projection, want_state.v_projection),
            ):
                assert np.array_equal(got, want)

    def test_zero_gradient_fresh_state_is_noop(self, rng):
        layout = NodeLayout(2, 2)
        params = init_params(layout, 3, 2, *tiny_docs(2, 2), seed=1)
        before = params.embeddings.copy()
        adam_step(params, np.zeros_like(params.embeddings),
                  np.zeros_like(params.projection), AdamState.zeros(params), lr=0.1)
        np.testing.assert_array_equal(params.embeddings, before)

    def test_step_size_bounded_by_lr(self, rng):
        # bias-corrected first step moves each coordinate by at most ~lr
        layout = NodeLayout(2, 2)
        params = init_params(layout, 3, 2, *tiny_docs(2, 2), seed=1)
        before = params.embeddings.copy()
        grad = rng.standard_normal(params.embeddings.shape) * 100
        adam_step(params, grad, np.zeros_like(params.projection),
                  AdamState.zeros(params), lr=0.01)
        assert np.abs(params.embeddings - before).max() <= 0.01 + 1e-9


class TestCheckpointIO:
    def roundtrip(self, tmp_path, variant, fingerprint=None):
        layout = NodeLayout(3, 2, variant.dual_graph)
        docs = tiny_docs(3, 2)
        params = init_params(layout, 4, 3, *docs, seed=2)
        z = np.random.default_rng(3).standard_normal((layout.node_count, 7))
        matches = {
            "train": np.array([[0, 0], [0, 1], [2, 1]]),
            "valid": np.array([[1, 0]]),
            "test": np.empty((0, 2), dtype=np.int64),
        }
        train_counts = np.array([4, 0, 2, 3, 1])
        ckpt = checkpoint_from(params, variant, 9, 0.375, z, matches, train_counts)
        ckpt.fingerprint = fingerprint
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        elements = ckpt.embeddings.size + ckpt.projection.size + ckpt.z.size
        elements += sum(rows.size for rows in matches.values()) + train_counts.size
        assert path.stat().st_size == CKPT_HEADER_BYTES + 8 * elements + 4
        return ckpt, load_checkpoint(path), path

    def test_roundtrip_exact(self, tmp_path):
        variant = VariantConfig(ssl_weight=0.07, omega=0.5, layers=2, self_edges="as_uni")
        ckpt, loaded, _ = self.roundtrip(tmp_path, variant)
        assert loaded.variant == variant
        assert (loaded.n, loaded.m, loaded.d_e, loaded.d_t, loaded.d_o) == (3, 2, 4, 3, 4)
        assert (loaded.epoch, loaded.best_metric) == (9, 0.375)
        np.testing.assert_array_equal(loaded.embeddings, ckpt.embeddings)
        np.testing.assert_array_equal(loaded.projection, ckpt.projection)
        assert loaded.z.tobytes() == ckpt.z.tobytes()
        assert list(loaded.matches) == ["train", "valid", "test"]
        for name, rows in ckpt.matches.items():
            assert loaded.matches[name].dtype == np.int64
            assert loaded.matches[name].shape == (len(rows), 2)
            np.testing.assert_array_equal(loaded.matches[name], rows)
        assert loaded.train_counts.dtype == np.int64
        np.testing.assert_array_equal(loaded.train_counts, ckpt.train_counts)
        assert loaded.fingerprint is None

    def test_fingerprint_roundtrip(self, tmp_path):
        fingerprint = InputFingerprint(bytes(range(32)), 70, 88, bytes(32), b"\xab" * 32)
        _, loaded, _ = self.roundtrip(tmp_path, VariantConfig(), fingerprint)
        assert loaded.fingerprint == fingerprint

    def test_single_layout_roundtrip(self, tmp_path):
        variant = VariantConfig(dual_graph=False, self_edges="off")
        _, loaded, _ = self.roundtrip(tmp_path, variant)
        assert loaded.layout.node_count == 5

    def test_save_is_byte_deterministic(self, tmp_path):
        variant = VariantConfig()
        _, _, path = self.roundtrip(tmp_path, variant)
        first = path.read_bytes()
        ckpt = load_checkpoint(path)
        save_checkpoint(ckpt, path)
        assert path.read_bytes() == first

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        ckpt, _, path = self.roundtrip(tmp_path, VariantConfig())
        before = path.read_bytes()

        def write_half_then_fail(self, data):
            with self.open("wb") as fh:
                fh.write(data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
        ckpt.epoch += 1
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(ckpt, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_checkpoint(path).epoch == 9
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTRIGHT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "tiny.ckpt"
        path.write_bytes(b"DPF")
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_header_cut_short_is_truncated(self, tmp_path):
        import zlib

        body = CKPT_MAGIC + struct.pack("<I", CKPT_VERSION)
        for cut in (0, 100, CKPT_HEADER_BYTES - len(body) - 1):
            path = tmp_path / f"short{cut}.ckpt"
            blob = body + bytes(cut)
            path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
            with pytest.raises(CheckpointError, match=f"{path.name}: truncated checkpoint$"):
                load_checkpoint(path)

    @pytest.mark.parametrize("dual", [True, False])
    def test_loaded_tensors_are_aligned_writable_views(self, tmp_path, dual):
        variant = VariantConfig(dual_graph=dual, self_edges="off")
        ckpt, _, path = self.roundtrip(tmp_path, variant)
        saved = [ckpt.embeddings, ckpt.projection, ckpt.z, *ckpt.matches.values(),
                 ckpt.train_counts]
        # Each load allocates a new buffer, usually at another address.
        for _ in range(8):
            loaded = load_checkpoint(path)
            tensors = [loaded.embeddings, loaded.projection, loaded.z, *loaded.matches.values(),
                       loaded.train_counts]
            for got, want in zip(tensors, saved, strict=True):
                assert got.flags.aligned and got.flags.writeable and not got.flags.owndata
                assert got.dtype.itemsize == 8 and got.shape == want.shape
                np.testing.assert_array_equal(got, want)

    def test_writing_a_loaded_z_leaves_the_next_load_alone(self, tmp_path):
        ckpt, loaded, path = self.roundtrip(tmp_path, VariantConfig())
        loaded.z[:] = 0.0
        loaded.embeddings[0, 0] += 1.0
        again = load_checkpoint(path)
        assert again.z.tobytes() == ckpt.z.tobytes()
        np.testing.assert_array_equal(again.embeddings, ckpt.embeddings)

    def test_flipped_byte_fails_checksum(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path, VariantConfig())
        blob = bytearray(path.read_bytes())
        blob[60] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_payload_fails_checksum_first(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path, VariantConfig())
        blob = path.read_bytes()
        path.write_bytes(blob[:-40])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        import zlib

        _, _, path = self.roundtrip(tmp_path, VariantConfig())
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 8, 99)
        body = bytes(blob[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(path)

    def test_altered_match_count_is_refused(self, tmp_path):
        import zlib

        _, _, path = self.roundtrip(tmp_path, VariantConfig())
        blob = bytearray(path.read_bytes())
        counts_at = CKPT_HEADER_BYTES - 24
        assert struct.unpack_from("<3Q", blob, counts_at) == (3, 1, 0)
        struct.pack_into("<3Q", blob, counts_at, 3, 1, 1)
        body = bytes(blob[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(CheckpointError, match="truncated checkpoint payload"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_version_asks_for_retraining(self, tmp_path, version):
        import zlib

        _, _, path = self.roundtrip(tmp_path, VariantConfig())
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 8, version)
        body = bytes(blob[:-4])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(CheckpointError, match=f"version {version} .*retrain"):
            load_checkpoint(path)

    def test_params_from_checkpoint_checks_doc_dim(self, tmp_path, rng):
        _, loaded, _ = self.roundtrip(tmp_path, VariantConfig())
        good_c, good_j = tiny_docs(3, 2)
        params = params_from_checkpoint(loaded, good_c, good_j)
        np.testing.assert_array_equal(params.embeddings, loaded.embeddings)
        with pytest.raises(CheckpointError, match="dimension"):
            params_from_checkpoint(loaded, rng.standard_normal((3, 9)), rng.standard_normal((2, 9)))


class TestTrainLoop:
    def test_history_and_best_checkpoint(self):
        ds = tiny_dataset()
        docs = tiny_docs(ds.n, ds.m)
        result = train(ds, *docs, small_config(), VariantConfig(layers=2))
        assert 1 <= len(result.history) <= 4
        means = [0.5 * (r.val_mrr_cand + r.val_mrr_job) for r in result.history]
        best_idx = int(np.argmax(means))
        assert result.checkpoint.epoch == result.history[best_idx].epoch
        assert result.checkpoint.best_metric == pytest.approx(means[best_idx])
        for row in result.history:
            assert np.isfinite(row.loss_main)
            assert np.isfinite(row.loss_ssl)
            assert row.loss_ssl >= 0.0

    def test_deterministic(self):
        ds = tiny_dataset()
        docs = tiny_docs(ds.n, ds.m)
        a = train(ds, *docs, small_config(), VariantConfig(layers=1))
        b = train(ds, *docs, small_config(), VariantConfig(layers=1))
        assert a.history == b.history
        np.testing.assert_array_equal(a.checkpoint.embeddings, b.checkpoint.embeddings)
        np.testing.assert_array_equal(a.checkpoint.projection, b.checkpoint.projection)

    def test_seed_changes_trajectory(self):
        ds = tiny_dataset()
        docs = tiny_docs(ds.n, ds.m)
        a = train(ds, *docs, small_config(seed=3), VariantConfig(layers=1))
        b = train(ds, *docs, small_config(seed=4), VariantConfig(layers=1))
        assert a.history != b.history

    def test_early_stopping_gap_is_patience(self):
        ds = tiny_dataset()
        docs = tiny_docs(ds.n, ds.m)
        config = small_config(max_epochs=60, patience=2, learning_rate=0.2)
        result = train(ds, *docs, config, VariantConfig(layers=1))
        if len(result.history) < 60:
            assert result.history[-1].epoch - result.checkpoint.epoch == 2
        else:
            assert result.checkpoint.epoch >= 58

    def test_max_epochs_zero_returns_init(self):
        ds = tiny_dataset()
        docs = tiny_docs(ds.n, ds.m)
        config = small_config(max_epochs=0)
        result = train(ds, *docs, config, VariantConfig(layers=1))
        assert result.history == []
        assert result.checkpoint.epoch == 0
        assert math.isnan(result.checkpoint.best_metric)
        layout = NodeLayout(ds.n, ds.m, dual=True)
        fresh = init_params(layout, config.d_e, config.d_t, *docs, seed=config.seed)
        np.testing.assert_array_equal(result.checkpoint.embeddings, fresh.embeddings)

    @pytest.mark.parametrize("max_epochs", [0, 3])
    def test_one_forward_pass_per_parameter_state(self, monkeypatch, max_epochs):
        calls = {"propagate": 0, "apply_mean_powers": 0, "adam_step": 0}

        def spy(module, name):
            inner = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        spy(jobfit.optim, "propagate")
        spy(jobfit.optim, "adam_step")
        spy(jobfit.optim, "apply_mean_powers")  # the backward pass's lookup
        # propagate's forward pass looks apply_mean_powers up in jobfit.model.
        monkeypatch.setattr(jobfit.model, "apply_mean_powers", jobfit.optim.apply_mean_powers)
        ds = tiny_dataset()
        config = small_config(max_epochs=max_epochs, patience=10)
        result = train(ds, *tiny_docs(ds.n, ds.m), config, VariantConfig(layers=1))
        steps = calls["adam_step"]
        assert steps == max_epochs * math.ceil(len(ds.train.matches) / config.batch_size)
        assert len(result.history) == max_epochs
        assert calls["propagate"] == steps + 1
        assert calls["apply_mean_powers"] == 2 * steps + 1

    def test_sampled_ssl_path_runs(self):
        ds = tiny_dataset()
        docs = tiny_docs(ds.n, ds.m)
        result = train(
            ds, *docs, small_config(max_epochs=2, ssl_negatives=3),
            VariantConfig(layers=1),
        )
        assert len(result.history) == 2

    def test_single_layout_training(self):
        ds = tiny_dataset()
        docs = tiny_docs(ds.n, ds.m)
        variant = VariantConfig(dual_graph=False, self_edges="off", layers=2)
        result = train(ds, *docs, small_config(max_epochs=2), variant)
        assert result.checkpoint.layout.node_count == ds.n + ds.m

    def test_requires_train_and_valid_matches(self):
        ds = tiny_dataset()
        docs = tiny_docs(ds.n, ds.m)
        no_train = SplitDataset(
            ds.n, ds.m,
            InteractionSplit(ds.train.applies, ds.train.reachouts, frozenset()),
            ds.valid, ds.test, ds.t_valid_start, ds.t_test_start,
        )
        with pytest.raises(TrainingError, match="training split"):
            train(no_train, *docs, small_config(), VariantConfig())
        no_valid = SplitDataset(
            ds.n, ds.m, ds.train,
            InteractionSplit(frozenset(), frozenset(), frozenset()),
            ds.test, ds.t_valid_start, ds.t_test_start,
        )
        with pytest.raises(TrainingError, match="validation split"):
            train(no_valid, *docs, small_config(), VariantConfig())

    @pytest.mark.parametrize(
        "variant, max_epochs",
        [
            (VariantConfig(), 3),
            (VariantConfig(dual_graph=False, self_edges="off", layers=2), 3),
            (VariantConfig(layers=0), 3),
            (VariantConfig(layers=2), 0),
        ],
        ids=["full", "no-dpg", "layers=0", "max_epochs=0"],
    )
    def test_stored_z_is_propagate_of_stored_params(self, tmp_path, variant, max_epochs):
        ds = tiny_dataset()
        docs = tiny_docs(ds.n, ds.m)
        result = train(ds, *docs, small_config(max_epochs=max_epochs), variant)
        path = tmp_path / "trained.ckpt"
        save_checkpoint(result.checkpoint, path)
        ckpt = load_checkpoint(path)
        assert ckpt.epoch == result.checkpoint.epoch
        graph = build_variant_graph(ds.train, ds.n, ds.m, ckpt.variant)
        z = propagate(params_from_checkpoint(ckpt, *docs), graph, ckpt.variant).z
        assert ckpt.z.dtype == np.float64
        assert ckpt.z.tobytes() == z.tobytes()
        assert result.checkpoint.z.tobytes() == z.tobytes()

    def test_checkpoint_stores_the_split_it_was_trained_on(self, tmp_path):
        ds = tiny_dataset()
        result = train(ds, *tiny_docs(ds.n, ds.m), small_config(max_epochs=1), VariantConfig())
        path = tmp_path / "trained.ckpt"
        save_checkpoint(result.checkpoint, path)
        loaded = load_checkpoint(path)
        for name in ("train", "valid", "test"):
            np.testing.assert_array_equal(loaded.matches[name], getattr(ds, name).matches)
        cand_counts, job_counts = interaction_counts(ds.train, ds.n, ds.m)
        np.testing.assert_array_equal(loaded.train_counts, np.concatenate([cand_counts, job_counts]))

    def test_checkpoint_roundtrips_after_training(self, tmp_path):
        ds = tiny_dataset()
        docs = tiny_docs(ds.n, ds.m)
        result = train(ds, *docs, small_config(max_epochs=2), VariantConfig(layers=1))
        path = tmp_path / "trained.ckpt"
        save_checkpoint(result.checkpoint, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.embeddings, result.checkpoint.embeddings)
        assert loaded.variant == result.checkpoint.variant
        params = params_from_checkpoint(loaded, *docs)
        graph = build_variant_graph(ds.train, ds.n, ds.m, loaded.variant)
        state = propagate(params, graph, loaded.variant)
        assert np.isfinite(state.z).all()
