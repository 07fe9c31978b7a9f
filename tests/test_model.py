"""Initialization, hybrid propagation, two-way scoring."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jobfit.errors import ConfigError, NumericsError
from jobfit.graph import NodeLayout, build_graph
from jobfit.model import (
    VariantConfig,
    apply_mean_powers,
    build_variant_graph,
    check_finite,
    init_params,
    node_doc_table,
    node_init,
    pair_scores,
    propagate,
    score_pair,
    variant_config,
)

from conftest import dense_operator, dense_propagate, make_split, random_split


def tiny_params(rng, n=4, m=3, d_e=5, d_t=3, d_o=4, dual=True, seed=13):
    layout = NodeLayout(n=n, m=m, dual=dual)
    cand_docs = rng.standard_normal((n, d_o))
    job_docs = rng.standard_normal((m, d_o))
    return init_params(layout, d_e, d_t, cand_docs, job_docs, seed=seed)


class TestVariantPresets:
    def test_full_defaults(self):
        cfg = variant_config("full")
        assert cfg == VariantConfig(
            dual_graph=True, quadruple_loss=True, ssl_weight=0.05,
            omega=1.0, layers=3, self_edges="as_match",
        )

    def test_presets_flip_one_axis(self):
        assert variant_config("no-dpg").dual_graph is False
        assert variant_config("no-ql").quadruple_loss is False
        assert variant_config("no-ssl").ssl_weight == 0.0

    def test_overrides_survive_preset(self):
        cfg = variant_config("no-dpg", layers=1, omega=0.5)
        assert (cfg.layers, cfg.omega, cfg.dual_graph) == (1, 0.5, False)

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="variant"):
            variant_config("bigger")

    def test_validation(self):
        for bad in (
            dict(layers=-1),
            dict(ssl_weight=-0.1),
            dict(omega=-1.0),
            dict(self_edges="no"),
        ):
            with pytest.raises(ConfigError):
                VariantConfig(**bad).validate()


class TestInit:
    def test_deterministic_per_seed(self, rng):
        docs = rng.standard_normal((4, 4)), rng.standard_normal((3, 4))
        layout = NodeLayout(4, 3)
        a = init_params(layout, 5, 3, *docs, seed=9)
        b = init_params(layout, 5, 3, *docs, seed=9)
        c = init_params(layout, 5, 3, *docs, seed=10)
        np.testing.assert_array_equal(a.embeddings, b.embeddings)
        np.testing.assert_array_equal(a.projection, b.projection)
        assert not np.array_equal(a.embeddings, c.embeddings)

    def test_shapes_and_dims(self, rng):
        params = tiny_params(rng, n=4, m=3, d_e=5, d_t=3, d_o=4)
        assert params.embeddings.shape == (14, 5)
        assert params.projection.shape == (3, 4)
        assert params.doc_table.shape == (14, 4)
        assert (params.d_e, params.d_t, params.d_o, params.dim) == (5, 3, 4, 8)

    def test_xavier_bounds(self, rng):
        params = tiny_params(rng, n=50, m=40, d_e=6, d_t=4, d_o=10)
        bound_e = np.sqrt(6.0 / 12)
        bound_w = np.sqrt(6.0 / 14)
        assert np.abs(params.embeddings).max() <= bound_e
        assert np.abs(params.projection).max() <= bound_w
        # uniform draws should come close to the bound
        assert np.abs(params.embeddings).max() > 0.99 * bound_e

    def test_doc_rows_shared_between_roles(self, rng):
        cand = rng.standard_normal((4, 4))
        job = rng.standard_normal((3, 4))
        dual = node_doc_table(NodeLayout(4, 3, dual=True), cand, job)
        np.testing.assert_array_equal(dual[:4], cand)
        np.testing.assert_array_equal(dual[4:8], cand)
        np.testing.assert_array_equal(dual[8:11], job)
        np.testing.assert_array_equal(dual[11:14], job)
        single = node_doc_table(NodeLayout(4, 3, dual=False), cand, job)
        np.testing.assert_array_equal(single, np.vstack([cand, job]))

    def test_doc_table_shape_errors(self, rng):
        layout = NodeLayout(4, 3)
        with pytest.raises(ConfigError, match="rows"):
            node_doc_table(layout, rng.standard_normal((5, 4)), rng.standard_normal((3, 4)))
        with pytest.raises(ConfigError, match="dimension"):
            node_doc_table(layout, rng.standard_normal((4, 4)), rng.standard_normal((3, 5)))

    def test_bad_dims(self, rng):
        layout = NodeLayout(2, 2)
        docs = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        with pytest.raises(ConfigError):
            init_params(layout, 0, 3, *docs, seed=0)
        with pytest.raises(ConfigError):
            init_params(layout, 4, -1, *docs, seed=0)

    def test_node_init_concatenation(self, rng):
        params = tiny_params(rng)
        z0 = node_init(params)
        assert z0.shape == (params.layout.node_count, params.dim)
        for node in range(params.layout.node_count):
            np.testing.assert_allclose(z0[node, : params.d_e], params.embeddings[node])
            np.testing.assert_allclose(
                z0[node, params.d_e :], params.projection @ params.doc_table[node]
            )


class TestPropagation:
    def test_matches_dense_reference(self, rng):
        n, m = 6, 5
        split = random_split(rng, n, m, matches=4, applies=5, reachouts=5)
        for dual in (True, False):
            for layers in (0, 1, 3):
                variant = VariantConfig(dual_graph=dual, layers=layers, omega=0.7,
                                        self_edges="as_uni" if dual else "off")
                graph = build_variant_graph(split, n, m, variant)
                params = tiny_params(rng, n=n, m=m, dual=dual, seed=3)
                state = propagate(params, graph, variant)
                op = dense_operator(split, n, m, self_mode=variant.self_edges,
                                    omega=0.7, dual=dual)
                want = dense_propagate(op, node_init(params), layers)
                np.testing.assert_allclose(state.z, want, atol=1e-12)

    def test_zero_layers_is_identity(self, rng):
        params = tiny_params(rng)
        variant = VariantConfig(layers=0)
        graph = build_variant_graph(make_split(matches=[(0, 0)]), 4, 3, variant)
        state = propagate(params, graph, variant)
        np.testing.assert_array_equal(state.z, node_init(params))

    def test_omega_zero_equals_match_only_graph(self, rng):
        n, m = 6, 5
        split = random_split(rng, n, m, matches=4, applies=6, reachouts=6)
        params = tiny_params(rng, n=n, m=m)
        with_uni = VariantConfig(layers=2, omega=0.0, self_edges="off")
        matches_only = VariantConfig(layers=2, omega=1.0, self_edges="off")
        ga = build_variant_graph(split, n, m, with_uni)
        gb = build_variant_graph(make_split(matches=split.matches), n, m, matches_only)
        za = propagate(params, ga, with_uni).z
        zb = propagate(params, gb, matches_only).z
        # same arcs at omega=0 but degrees still count the uni edges
        assert not np.allclose(za, zb)
        uni_free = make_split(matches=split.matches)
        gc = build_variant_graph(uni_free, n, m, with_uni)
        zc = propagate(params, gc, with_uni).z
        zd = propagate(params, gc, matches_only).z
        np.testing.assert_allclose(zc, zd, atol=1e-15)

    def test_non_finite_detected(self, rng):
        params = tiny_params(rng)
        params.embeddings[0, 0] = np.inf
        variant = VariantConfig(layers=2)
        graph = build_variant_graph(make_split(matches=[(0, 0)]), 4, 3, variant)
        with pytest.raises(NumericsError, match="layer 1") as info:
            propagate(params, graph, variant)
        named = [int(row) for row in re.findall(r"\d+", str(info.value).split("rows")[-1])]
        layer_one = graph.operator(variant.omega) @ node_init(params)
        assert named and not np.isfinite(layer_one[named]).all(axis=1).any()

    def test_check_finite_names_tensor_and_first_bad_rows(self):
        scores = np.arange(10.0)
        scores[[7, 3]] = np.nan
        with pytest.raises(NumericsError, match=re.escape("in the scores, first rows [3, 7]")):
            check_finite(scores, "the scores")
        grad = np.ones((9, 4))
        grad[1, 2], grad[4, 0], grad[[5, 6, 7, 8], 3] = np.nan, -np.inf, np.inf
        with pytest.raises(
            NumericsError, match=re.escape("in the gradient, first rows [1, 4, 5, 6, 7]")
        ):
            check_finite(grad, "the gradient")
        check_finite(np.ones((3, 2)), "a finite tensor")

    def test_mean_powers_matches_forward(self, rng):
        n, m = 6, 5
        split = random_split(rng, n, m, matches=4, applies=5, reachouts=5)
        variant = VariantConfig(layers=3, omega=0.5)
        graph = build_variant_graph(split, n, m, variant)
        params = tiny_params(rng, n=n, m=m, seed=8)
        state = propagate(params, graph, variant)
        np.testing.assert_allclose(
            apply_mean_powers(graph, variant, node_init(params)), state.z, atol=1e-12
        )

    def test_mean_powers_is_self_adjoint(self, rng):
        n, m = 5, 4
        split = random_split(rng, n, m, matches=3, applies=4, reachouts=4)
        variant = VariantConfig(layers=2, omega=0.8)
        graph = build_variant_graph(split, n, m, variant)
        x = rng.standard_normal((graph.node_count, 3))
        y = rng.standard_normal((graph.node_count, 3))
        lhs = np.sum(apply_mean_powers(graph, variant, x) * y)
        rhs = np.sum(x * apply_mean_powers(graph, variant, y))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(layers=st.integers(min_value=0, max_value=4))
    @settings(max_examples=8, deadline=None)
    def test_linearity(self, layers):
        rng = np.random.default_rng(layers + 100)
        n = m = 5
        split = random_split(rng, n, m, matches=3, applies=4, reachouts=4)
        variant = VariantConfig(layers=layers)
        graph = build_variant_graph(split, n, m, variant)
        x = rng.standard_normal((graph.node_count, 2))
        y = rng.standard_normal((graph.node_count, 2))
        combo = apply_mean_powers(graph, variant, 2.0 * x - 3.0 * y)
        parts = 2.0 * apply_mean_powers(graph, variant, x) - 3.0 * apply_mean_powers(graph, variant, y)
        np.testing.assert_allclose(combo, parts, atol=1e-10)


class TestScoring:
    def test_combined_is_mean_of_directions(self, rng):
        layout = NodeLayout(4, 3)
        z = rng.standard_normal((layout.node_count, 6))
        cands = np.array([0, 1, 3])
        jobs = np.array([2, 0, 1])
        r, s, y = pair_scores(z, layout, cands, jobs)
        np.testing.assert_allclose(y, 0.5 * (r + s))
        for idx, (c, j) in enumerate(zip(cands, jobs)):
            assert r[idx] == pytest.approx(z[c] @ z[2 * 4 + 3 + j])
            assert s[idx] == pytest.approx(z[2 * 4 + j] @ z[4 + c])

    def test_single_layout_directions_coincide(self, rng):
        layout = NodeLayout(4, 3, dual=False)
        z = rng.standard_normal((layout.node_count, 6))
        r, s, y = pair_scores(z, layout, [0, 2], [1, 2])
        np.testing.assert_array_equal(r, s)
        np.testing.assert_array_equal(r, y)
        assert r[0] == pytest.approx(z[0] @ z[4 + 1])

    def test_score_pair_scalar(self, rng):
        layout = NodeLayout(3, 3)
        z = rng.standard_normal((layout.node_count, 4))
        r, s, y = score_pair(z, layout, 1, 2)
        rv, sv, yv = pair_scores(z, layout, [1], [2])
        assert (r, s, y) == (pytest.approx(rv[0]), pytest.approx(sv[0]), pytest.approx(yv[0]))
