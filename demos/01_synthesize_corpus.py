"""Generate a small synthetic hiring corpus and poke at what comes out.

The generator draws a latent taste vector per user per role (an outgoing
"active" taste and an incoming "passive" one), fires apply and reach-out
events from inner-product probabilities, and labels a pair as matched when
both sides fired and both sides cleared an intent threshold. Document
embeddings are noisy projections of the latents, so text carries signal
but does not give the game away.
"""

import tempfile
from pathlib import Path

import numpy as np

from jobfit.corpus import (
    KIND_TOKENS,
    Side,
    SyntheticSpec,
    generate_synthetic,
    load_doc_embeddings,
    load_events,
    temporal_split,
    write_doc_embeddings,
    write_events,
)

spec = SyntheticSpec(n=120, m=90, days=60, apply_rate=0.2, reachout_rate=0.2, seed=11)
log, cand_docs, job_docs = generate_synthetic(spec)

print(f"universe: {spec.n} candidates x {spec.m} jobs over {spec.days} days")
by_kind = dict(zip(KIND_TOKENS, np.bincount(log.kinds, minlength=len(KIND_TOKENS)).tolist()))
print(f"events:   {dict(sorted(by_kind.items()))}")

# Day histogram, ten buckets wide, to show activity is spread over time.
hist, _ = np.histogram(log.days, bins=10, range=(0, spec.days))
print("per-decile volume:", hist.tolist())

dataset = temporal_split(log, t_valid_start=48, t_test_start=54)
print(
    f"split matches: train={len(dataset.train.matches)} "
    f"valid={len(dataset.valid.matches)} test={len(dataset.test.matches)}"
)

# Round-trip through the on-disk formats: TSV for events, a small binary
# record for embeddings. Reloading must reproduce the exact same data.
with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    write_events(root / "events.tsv", log)
    write_doc_embeddings(root / "candidates.emb", cand_docs)
    reloaded_log = load_events(root / "events.tsv")
    reloaded_docs = load_doc_embeddings(root / "candidates.emb", Side.CANDIDATE, spec.n)
    for column in ("kinds", "candidates", "jobs", "days"):
        assert np.array_equal(getattr(reloaded_log, column), getattr(log, column))
    assert np.array_equal(reloaded_docs.rows, cand_docs.rows)
    print("round trip: events and embeddings reload byte-equal")

print("document table:", cand_docs.rows.shape, cand_docs.rows.dtype)
