"""Release gate: ten end-to-end checks, one test per criterion.

Each test is self-contained, prints a single PASS line with the measured
numbers, and enforces its own runtime budget where one applies. The slow
items (trend study, determinism subprocesses) keep their workloads as small
as the claim allows.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from jobfit.cli import RunConfig, main
from jobfit.corpus import (
    InteractionSplit,
    Side,
    SyntheticSpec,
    generate_synthetic,
    load_doc_embeddings,
    load_events,
    temporal_split,
)
from jobfit.evaluation import (
    Direction,
    build_eval_instances,
    evaluate,
    partner_maps,
    rank_metrics,
)
from jobfit.model import (
    VariantConfig,
    apply_mean_powers,
    build_variant_graph,
    init_params,
    pair_scores,
    propagate,
    variant_config,
)
from jobfit.optim import (
    AdamState,
    TrainConfig,
    adam_step,
    batch_gradients,
    batch_loss,
    load_checkpoint,
    main_loss,
    params_from_checkpoint,
    quadruple_loss,
    sample_quadruples,
    save_checkpoint,
    ssl_loss,
    train,
)

from conftest import dense_operator, dense_propagate, make_split, random_split

LN2 = math.log(2.0)


def _random_graph_case(rng: np.random.Generator, trial: int):
    """One randomized graph plus the matching variant and dense oracle inputs."""
    n = int(rng.integers(2, 50))
    m = int(rng.integers(2, 50))
    total_pairs = n * m
    split = random_split(
        rng,
        n,
        m,
        matches=int(rng.integers(0, total_pairs // 4 + 1)),
        applies=int(rng.integers(0, total_pairs // 4 + 1)),
        reachouts=int(rng.integers(0, total_pairs // 4 + 1)),
    )
    dual = trial % 4 != 3
    omega = (0.0, 0.5, 1.0)[trial % 3]
    layers = trial % 5
    self_mode = ("off", "as_match", "as_uni")[(trial // 3) % 3]
    name = "full" if dual else "no-dpg"
    variant = variant_config(name, layers=layers, omega=omega, self_edges=self_mode)
    return split, n, m, variant, self_mode, dual


def test_criterion_01_propagation_matches_dense_oracle():
    """Sparse propagation equals a dense loop oracle on 20 random graphs."""
    rng = np.random.default_rng(614)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        split, n, m, variant, self_mode, dual = _random_graph_case(rng, trial)
        graph = build_variant_graph(split, n, m, variant)
        assert graph.node_count <= 200
        z0 = rng.standard_normal((graph.node_count, int(rng.integers(2, 6))))
        fast = apply_mean_powers(graph, variant, z0)
        operator = dense_operator(
            split, n, m, self_mode=self_mode, omega=variant.omega, dual=dual
        )
        slow = dense_propagate(operator, z0, variant.layers)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    elapsed = time.perf_counter() - started
    assert worst < 1e-9
    assert elapsed < 5.0
    print(f"PASS criterion 1: 20 graphs, max abs error {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_operator_is_self_adjoint():
    """<apply(X), Y> == <X, apply(Y)> for the operator and its mean powers."""
    rng = np.random.default_rng(1509)
    worst = 0.0
    for trial in range(50):
        split, n, m, variant, _, _ = _random_graph_case(rng, trial)
        graph = build_variant_graph(split, n, m, variant)
        d = int(rng.integers(1, 5))
        x = rng.standard_normal((graph.node_count, d))
        y = rng.standard_normal((graph.node_count, d))
        op = graph.operator(variant.omega)
        gap_one = abs(float(np.sum((op @ x) * y) - np.sum(x * (op @ y))))
        gap_mean = abs(
            float(
                np.sum(apply_mean_powers(graph, variant, x) * y)
                - np.sum(x * apply_mean_powers(graph, variant, y))
            )
        )
        worst = max(worst, gap_one, gap_mean)
    assert worst < 1e-9
    print(f"PASS criterion 2: 50 instances, max adjoint gap {worst:.3e}")


def test_criterion_03_gradients_match_finite_differences():
    """Closed-form gradients agree with central differences on every coordinate.

    Relative error uses a 1e-3 floor in the denominator, which makes the
    1e-5 bound equivalent to an absolute tolerance of 1e-8 wherever the
    gradient itself vanishes; central differences at h=1e-4 carry O(h^2)
    truncation noise around 1e-9, so exact zeros still pass cleanly.
    """
    started = time.perf_counter()
    n, m = 6, 5
    split = random_split(np.random.default_rng(303), n, m, matches=6, applies=5, reachouts=4)
    docs_rng = np.random.default_rng(7)
    cand_docs = docs_rng.standard_normal((n, 4))
    job_docs = docs_rng.standard_normal((m, 4))
    matches = split.matches
    by_cand, by_job = partner_maps(split.matches)
    neg_jobs, neg_cands = sample_quadruples(
        matches[:, 0], matches[:, 1], by_cand, by_job, n, m, np.random.default_rng(17)
    )
    quads = (matches[:, 0], matches[:, 1], neg_cands, neg_jobs)
    cand_users = np.unique(matches[:, 0])
    job_users = np.unique(matches[:, 1])
    tau = 0.2
    h = 1e-4

    worst = 0.0
    checked = 0
    for layers in (0, 1, 3):
        for lam in (0.0, 0.1):
            for self_mode in ("off", "as_match", "as_uni"):
                for name in ("full", "no-dpg", "no-ql"):
                    variant = variant_config(
                        name,
                        layers=layers,
                        ssl_weight=lam,
                        self_edges=self_mode,
                        omega=0.7,
                    )
                    graph = build_variant_graph(split, n, m, variant)
                    params = init_params(graph.layout, 4, 3, cand_docs, job_docs, seed=11)
                    result = batch_gradients(
                        params, graph, variant, quads, cand_users, job_users, tau
                    )

                    def loss_at() -> float:
                        return batch_loss(
                            params, graph, variant, quads, cand_users, job_users, tau
                        )

                    for tensor, grad in (
                        (params.embeddings, result.d_embeddings),
                        (params.projection, result.d_projection),
                    ):
                        flat = tensor.reshape(-1)
                        gflat = grad.reshape(-1)
                        for idx in range(flat.size):
                            keep = flat[idx]
                            flat[idx] = keep + h
                            up = loss_at()
                            flat[idx] = keep - h
                            down = loss_at()
                            flat[idx] = keep
                            numeric = (up - down) / (2.0 * h)
                            denom = max(abs(numeric), abs(gflat[idx]), 1e-3)
                            worst = max(worst, abs(numeric - gflat[idx]) / denom)
                            checked += 1
    elapsed = time.perf_counter() - started
    assert worst < 1e-5
    assert elapsed < 60.0
    print(
        f"PASS criterion 3: {checked} coordinates over 54 configs, "
        f"max relative error {worst:.3e}, {elapsed:.1f}s"
    )


def test_criterion_04_loss_anchors():
    """Closed-form loss values: ln 2 anchors and the -log sigmoid(2) case."""
    # Equal scores zero the quadruple margin exactly, so each term is ln 2.
    y = np.array([0.0, 1.3, -2.7, 40.0])
    quad = quadruple_loss(y, y, y)
    assert abs(quad - LN2) < 1e-12

    rng = np.random.default_rng(4)
    z = rng.standard_normal((8, 3))
    layout = build_variant_graph(make_split(), 2, 2, variant_config("full")).layout
    lone_cand = ssl_loss(z, layout, np.array([1]), np.array([], dtype=np.int64), tau=0.2)
    lone_job = ssl_loss(z, layout, np.array([], dtype=np.int64), np.array([0]), tau=0.5)
    assert abs(lone_cand - LN2) < 1e-12
    assert abs(lone_job - LN2) < 1e-12

    margin_two = quadruple_loss(np.array([2.0]), np.array([0.0]), np.array([0.0]))
    assert abs(margin_two - 0.12692801104297263) < 1e-6
    print(
        "PASS criterion 4: equal-score quadruple and single-user contrastive at ln 2, "
        f"-log sigmoid(2) = {margin_two:.12f}"
    )


def test_criterion_05_metric_oracle_and_random_baseline():
    """rank_metrics/evaluate equal brute force; random MRR sits at its closed form."""
    rng = np.random.default_rng(55)

    def brute(scores: np.ndarray, positive_index: int, k: int):
        positive = scores[positive_index]
        rank = 1
        for idx, value in enumerate(scores):
            if idx != positive_index and value >= positive:
                rank += 1
        hit = 1.0 if rank <= k else 0.0
        ndcg = 1.0 / math.log2(rank + 1) if rank <= k else 0.0
        return hit, hit / k, ndcg, 1.0 / rank

    for trial in range(100):
        scores = rng.standard_normal(21)
        positive_index = int(rng.integers(0, 21))
        if trial % 3 == 0:
            scores[int(rng.integers(0, 21))] = scores[positive_index]
        k = int(rng.integers(1, 8))
        assert rank_metrics(scores, positive_index, k) == brute(scores, positive_index, k)

    # evaluate() against an instance-by-instance recomputation on a random model.
    n, m = 9, 7
    split = random_split(rng, n, m, matches=10, applies=6, reachouts=6)
    variant = variant_config("full", layers=2)
    graph = build_variant_graph(split, n, m, variant)
    z = rng.standard_normal((graph.node_count, 4))
    by_cand, by_job = partner_maps(split.matches)
    instances = build_eval_instances(split.matches, by_cand, by_job, n, m, seed=2, num_negatives=4)
    report = evaluate(z, graph.layout, instances, k=3)
    for direction, side in (
        (Direction.FOR_CANDIDATES, report.for_candidates),
        (Direction.FOR_JOBS, report.for_jobs),
    ):
        rows = []
        for anchor, items in zip(instances[direction].anchors.tolist(),
                                 instances[direction].items.tolist()):
            if direction is Direction.FOR_CANDIDATES:
                _, _, y = pair_scores(z, graph.layout, [anchor] * len(items), items)
            else:
                _, _, y = pair_scores(z, graph.layout, items, [anchor] * len(items))
            rows.append(brute(y, 0, 3))
        table = np.asarray(rows)
        assert side.count == len(rows)
        assert (side.recall, side.precision, side.ndcg, side.mrr) == (
            float(np.mean(table[:, 0])),
            float(np.mean(table[:, 1])),
            float(np.mean(table[:, 2])),
            float(np.mean(table[:, 3])),
        )

    reciprocal = [
        1.0 / (1 + int(np.sum(np.delete(s, 0) >= s[0])))
        for s in rng.standard_normal((10_000, 21))
    ]
    expected = sum(1.0 / r for r in range(1, 22)) / 21.0
    measured = float(np.mean(reciprocal))
    assert abs(measured - expected) < 0.01
    print(
        f"PASS criterion 5: exact metric agreement on 100 instances; "
        f"random MRR {measured:.4f} vs {expected:.4f}"
    )


def test_criterion_06_overfits_a_tiny_dataset():
    """Ten matches over 8x8 users reach rank 1 both ways within 500 epochs.

    Only 8 jobs exist, so instead of 20 sampled negatives each positive must
    beat every eligible negative outright, which subsumes any sample of them.
    """
    started = time.perf_counter()
    matches = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (0, 3), (4, 1)]
    n = m = 8
    split = make_split(matches=matches)
    variant = variant_config("full", layers=1)
    graph = build_variant_graph(split, n, m, variant)
    docs_rng = np.random.default_rng(3)
    cand_docs = docs_rng.standard_normal((n, 2))
    job_docs = docs_rng.standard_normal((m, 2))
    params = init_params(graph.layout, 16, 2, cand_docs, job_docs, seed=5)
    adam = AdamState.zeros(params)
    by_cand, by_job = partner_maps(split.matches)
    pairs = np.array(matches, dtype=np.int64)
    cands, jobs = pairs[:, 0], pairs[:, 1]
    cand_users = np.unique(cands)
    job_users = np.unique(jobs)
    rng = np.random.default_rng(0)
    check_rng = np.random.default_rng(1)

    def solved() -> tuple[bool, float]:
        z = propagate(params, graph, variant).z
        for cand, job in matches:
            _, _, y_pos = pair_scores(z, graph.layout, [cand], [job])
            rival_jobs = [j for j in range(m) if j not in by_cand[cand]]
            _, _, y_jobs = pair_scores(z, graph.layout, [cand] * len(rival_jobs), rival_jobs)
            rival_cands = [c for c in range(n) if c not in by_job[job]]
            _, _, y_cands = pair_scores(z, graph.layout, rival_cands, [job] * len(rival_cands))
            if y_pos[0] <= max(y_jobs.max(), y_cands.max()):
                return False, float("inf")
        neg_j, neg_c = sample_quadruples(cands, jobs, by_cand, by_job, n, m, check_rng)
        _, _, y_pos = pair_scores(z, graph.layout, cands, jobs)
        _, _, y_nj = pair_scores(z, graph.layout, cands, neg_j)
        _, _, y_nc = pair_scores(z, graph.layout, neg_c, jobs)
        loss = main_loss(y_pos, y_nj, y_nc, quadruple=True)
        return loss < 0.05, loss

    met_at = None
    final_loss = float("inf")
    for epoch in range(1, 501):
        neg_jobs, neg_cands = sample_quadruples(cands, jobs, by_cand, by_job, n, m, rng)
        result = batch_gradients(
            params, graph, variant, (cands, jobs, neg_cands, neg_jobs),
            cand_users, job_users, tau=0.2,
        )
        adam_step(params, result.d_embeddings, result.d_projection, adam, lr=0.05)
        if epoch % 10 == 0:
            ok, final_loss = solved()
            if ok:
                met_at = epoch
                break
    elapsed = time.perf_counter() - started
    assert met_at is not None, "did not reach rank 1 everywhere within 500 epochs"
    assert final_loss < 0.05
    assert elapsed < 30.0
    print(
        f"PASS criterion 6: rank 1 both directions at epoch {met_at}, "
        f"quadruple loss {final_loss:.5f}, {elapsed:.2f}s"
    )


def test_criterion_07_synthetic_ablation_trend():
    """Across 5 generator seeds the full model beats no-dpg; no-ssl never beats full.

    Hyper-parameters were chosen on separate seeds (and the direction of both
    gaps re-confirmed on a 10-seed superset); the ssl temperature sits at 5.0
    because propagated representations here have inner products of order one
    to six, which the default 0.2 would turn into a nearly hard max.
    """
    started = time.perf_counter()
    seeds = range(201, 206)
    means: dict[str, list[float]] = {"full": [], "no-dpg": [], "no-ssl": []}
    for seed in seeds:
        log, cand_table, job_table = generate_synthetic(SyntheticSpec(seed=seed))
        dataset = temporal_split(log, 84, 95)
        cand_docs = cand_table.rows.astype(np.float64)
        job_docs = job_table.rows.astype(np.float64)
        config = TrainConfig(
            d_e=48,
            d_t=16,
            learning_rate=0.05,
            batch_size=256,
            max_epochs=40,
            patience=40,
            tau=5.0,
            seed=seed,
            eval_seed=1,
        )
        for name in means:
            overrides = {} if name == "no-ssl" else {"ssl_weight": 1e-3}
            if name == "no-dpg":
                overrides["self_edges"] = "off"
            variant = variant_config(name, **overrides)
            result = train(dataset, cand_docs, job_docs, config, variant)
            means[name].append(result.checkpoint.best_metric)
    elapsed = time.perf_counter() - started

    for name, values in means.items():
        print(f"  {name:7s} " + " ".join(f"{v:.4f}" for v in values)
              + f"  mean={np.mean(values):.4f}")
    full = float(np.mean(means["full"]))
    no_dpg = float(np.mean(means["no-dpg"]))
    no_ssl = float(np.mean(means["no-ssl"]))
    assert full > no_dpg, f"dual-perspective ablation won: {full:.4f} <= {no_dpg:.4f}"
    assert no_ssl <= full, f"contrastive ablation won: {no_ssl:.4f} > {full:.4f}"
    assert elapsed < 600.0
    print(
        f"PASS criterion 7: mean validation MRR full {full:.4f} > no-dpg {no_dpg:.4f}, "
        f"no-ssl {no_ssl:.4f} <= full, {elapsed:.0f}s"
    )


@pytest.fixture(scope="module")
def cli_space(tmp_path_factory):
    """Small synthetic corpus with a ready-to-train config file."""
    root = tmp_path_factory.mktemp("acceptance-cli")
    data = root / "data"
    rc = main(
        ["synth", "--out-dir", str(data), "--seed", "7",
         "--set", "n=40", "--set", "m=30", "--set", "d_latent=4", "--set", "d_o=6",
         "--set", "days=30", "--set", "apply_rate=0.5", "--set", "reachout_rate=0.5",
         "--set", "match_threshold=-0.5", "--set", "asymmetry=0.3"]
    )
    assert rc == 0
    config = root / "run.cfg"
    config.write_text(
        "\n".join(
            [
                f"log = {data / 'events.tsv'}",
                f"cand_embeddings = {data / 'candidates.emb'}",
                f"job_embeddings = {data / 'jobs.emb'}",
                "t_valid_start = 20",
                "t_test_start = 25",
                "d_e = 8",
                "d_t = 4",
                "d_o = 6",
                "max_epochs = 3",
                "batch_size = 32",
                "lr = 0.05",
                "eval_negatives = 3",
                "k = 2",
                "seed = 7",
            ]
        )
        + "\n"
    )
    return root, data, config


def test_criterion_08_determinism_and_checkpoint_persistence(cli_space):
    """Two single-threaded processes produce identical history; checkpoints round-trip."""
    root, data, config = cli_space
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    outs = []
    for run_dir in (root / "det-a", root / "det-b"):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from jobfit.cli import main; raise SystemExit(main(sys.argv[1:]))",
                "train",
                "--config",
                str(config),
                "--variant",
                "full",
                "--out-dir",
                str(run_dir),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(run_dir)
    history_a = (outs[0] / "history.tsv").read_bytes()
    history_b = (outs[1] / "history.tsv").read_bytes()
    assert history_a == history_b
    assert (outs[0] / "checkpoint.bin").read_bytes() == (outs[1] / "checkpoint.bin").read_bytes()

    dataset = temporal_split(load_events(data / "events.tsv"), 20, 25)
    cand_docs = load_doc_embeddings(data / "candidates.emb", Side.CANDIDATE, dataset.n).rows
    job_docs = load_doc_embeddings(data / "jobs.emb", Side.JOB, dataset.m).rows

    def scores_from(path: Path) -> np.ndarray:
        ckpt = load_checkpoint(path)
        params = params_from_checkpoint(ckpt, cand_docs, job_docs)
        graph = build_variant_graph(dataset.train, dataset.n, dataset.m, ckpt.variant)
        z = propagate(params, graph, ckpt.variant).z
        rng = np.random.default_rng(42)
        cands = rng.integers(0, dataset.n, size=100)
        jobs = rng.integers(0, dataset.m, size=100)
        _, _, y = pair_scores(z, ckpt.layout, cands, jobs)
        return y

    original = scores_from(outs[0] / "checkpoint.bin")
    resaved = root / "det-roundtrip.bin"
    save_checkpoint(load_checkpoint(outs[0] / "checkpoint.bin"), resaved)
    assert np.array_equal(original, scores_from(resaved))
    print(
        "PASS criterion 8: bit-identical history across processes, "
        "100 pair scores exact through save/load"
    )


def test_criterion_09_epoch_time_scales_gently_with_edges():
    """Doubling the edge count at fixed d and L keeps epoch time within 2.5x."""
    n = m = 1500
    rng = np.random.default_rng(77)
    flat = rng.choice(n * m, size=21_000, replace=False)
    pairs = [(int(i) // m, int(i) % m) for i in flat]
    matches = pairs[:6_000]
    sparse_split = make_split(matches=matches)
    dense_split = make_split(
        matches=matches, applies=pairs[6_000:13_500], reachouts=pairs[13_500:]
    )
    variant = variant_config("full", layers=3)
    docs = rng.standard_normal((n, 8))
    by_cand, by_job = partner_maps(sparse_split.matches)
    batch = np.array(matches, dtype=np.int64)

    def edge_total(graph) -> int:
        return sum(graph.edge_counts.values())

    def median_epoch(split: InteractionSplit) -> tuple[float, int]:
        graph = build_variant_graph(split, n, m, variant)
        params = init_params(graph.layout, 32, 8, docs, docs, seed=1)
        adam = AdamState.zeros(params)
        sampler = np.random.default_rng(5)

        def one_epoch() -> float:
            t0 = time.perf_counter()
            for start in range(0, len(batch), 1024):
                rows = batch[start : start + 1024]
                cands, jobs = rows[:, 0], rows[:, 1]
                neg_jobs, neg_cands = sample_quadruples(
                    cands, jobs, by_cand, by_job, n, m, sampler
                )
                result = batch_gradients(
                    params, graph, variant, (cands, jobs, neg_cands, neg_jobs),
                    np.unique(cands), np.unique(jobs), tau=0.2,
                )
                adam_step(params, result.d_embeddings, result.d_projection, adam, lr=0.01)
            return time.perf_counter() - t0

        one_epoch()  # warm the operator cache before timing
        return statistics.median(one_epoch() for _ in range(5)), edge_total(graph)

    time_sparse, edges_sparse = median_epoch(sparse_split)
    time_dense, edges_dense = median_epoch(dense_split)
    assert edges_dense == 2 * edges_sparse
    ratio = time_dense / time_sparse
    assert ratio <= 2.5
    print(
        f"PASS criterion 9: {edges_sparse} -> {edges_dense} edges, "
        f"median epoch {time_sparse * 1e3:.1f}ms -> {time_dense * 1e3:.1f}ms, "
        f"ratio {ratio:.2f}"
    )


def test_criterion_10_layer_sweep_plumbing(cli_space):
    """A layers sweep over 0..4 completes, writes 5 rows, and covers the default."""
    root, _, config = cli_space
    out = root / "layers-sweep.tsv"
    rc = main(
        ["sweep", "--config", str(config), "--axis", "layers",
         "--grid", "0,1,2,3,4", "--out", str(out)]
    )
    assert rc == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    header, *rows = lines
    assert header.split("\t")[0] == "layers"
    assert len(rows) == 5
    swept = [row.split("\t")[0] for row in rows]
    assert swept == ["0", "1", "2", "3", "4"]
    assert VariantConfig().layers == 3 and RunConfig().layers == 3
    assert "3" in swept
    print("PASS criterion 10: layers sweep emitted 5 rows including the default depth 3")
