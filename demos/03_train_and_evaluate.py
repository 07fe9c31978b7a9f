"""Train a small model and read the numbers that fall out.

Synthesizes a corpus, splits it by time, trains with early stopping on
validation MRR, then evaluates the held-out test window from both sides
of the market, overall and broken down by how active each user was in
training.
"""

import numpy as np

from jobfit.corpus import SyntheticSpec, generate_synthetic, temporal_split
from jobfit.evaluation import (
    Direction,
    build_eval_instances,
    evaluate,
    interaction_counts,
    partner_maps,
    sparsity_breakdown,
)
from jobfit.model import variant_config
from jobfit.optim import TrainConfig, train

spec = SyntheticSpec(n=300, m=240, days=80, apply_rate=0.12, reachout_rate=0.12, seed=5)
log, cand_docs, job_docs = generate_synthetic(spec)
dataset = temporal_split(log, t_valid_start=64, t_test_start=72)
print(
    f"matches: train={len(dataset.train.matches)} valid={len(dataset.valid.matches)} "
    f"test={len(dataset.test.matches)}"
)

config = TrainConfig(
    d_e=32,
    d_t=8,
    learning_rate=0.05,
    batch_size=128,
    max_epochs=15,
    patience=5,
    eval_negatives=20,
    k=5,
    seed=5,
)
variant = variant_config("full", ssl_weight=1e-3)
result = train(dataset, cand_docs.rows.astype(np.float64), job_docs.rows.astype(np.float64),
               config, variant)

print("\nepoch  main_loss  ssl_loss  val_mrr_cand  val_mrr_job")
for row in result.history:
    print(
        f"{row.epoch:5d}  {row.loss_main:9.4f}  {row.loss_ssl:8.2f}"
        f"  {row.val_mrr_cand:12.4f}  {row.val_mrr_job:11.4f}"
    )
best = result.checkpoint
print(f"best epoch {best.epoch}, mean validation MRR {best.best_metric:.4f}")

# Score the test window with the best epoch's representations, propagated
# over the training graph; the checkpoint keeps them as ``z``.
z = best.z
by_cand, by_job = partner_maps(dataset.all_matches)
instances = build_eval_instances(
    dataset.test.matches, by_cand, by_job, dataset.n, dataset.m,
    seed=config.eval_seed, num_negatives=20,
)
report = evaluate(z, best.layout, instances, k=5)
for label, side in (("candidates", report.for_candidates), ("jobs", report.for_jobs)):
    print(
        f"test, ranking for {label:10s}: recall@5={side.recall:.3f} "
        f"ndcg@5={side.ndcg:.3f} mrr={side.mrr:.3f} ({side.count} cases)"
    )

# Sparse users are the hard part of two-sided matching; group test anchors
# by training interaction volume, sparsest fifth first. The report keeps each
# instance's rank, so the groups are read from it without scoring again.
cand_counts, job_counts = interaction_counts(dataset.train, dataset.n, dataset.m)
groups = sparsity_breakdown(report, instances, cand_counts, job_counts)
print("\ncandidate anchors by training activity (G1 = sparsest):")
for gi, side in enumerate(groups[Direction.FOR_CANDIDATES], start=1):
    if side.count:
        print(f"  G{gi}: mrr={side.mrr:.3f} over {side.count} cases")
