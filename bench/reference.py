"""A fixed reference computation that measures how fast the machine runs now.

On a shared virtual machine the same work can take up to twice as long a
minute later: other tenants slow the core and its memory, and the process's
own CPU time slows with it, so neither wall time nor CPU time stays put. The
runner times this reference right before and right after each step and
scales the step's wall time by ``REFERENCE_S / reference time``: a timing
reads as it would on a machine where the reference takes ``REFERENCE_S``. A
change to jobfit moves the step but not the reference, so it still shows in
full.

The reference mixes the two kinds of work jobfit does, in about equal parts:
Python parsing into dicts (like ``load_events`` and ``temporal_split``) and
sparse-times-dense products on a graph of the large workload's size (like
``propagate``), whose working set does not fit in cache, so slowdowns of the
memory show too. Its inputs are fixed, independent of workload and seed.

This module imports NumPy, so import it after the thread counts are pinned.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sparse

# Seconds the reference takes on the 2-vCPU virtual machine the bounds were
# set on, in its faster spells (Python 3.11, NumPy 2.4, SciPy 1.17).
REFERENCE_S = 0.050

NODES, PER_ROW, WIDTH = 14400, 30, 32


class Reference:
    """Fixed inputs, built once; ``time()`` runs the reference and returns its seconds."""

    def __init__(self):
        rng = np.random.default_rng(20220817)
        cands = rng.integers(0, 1000, size=16000)
        jobs = rng.integers(0, 800, size=16000)
        self.lines = [f"{day % 100}\tapply\t{c}\t{j}\t{day * 0.37:.3f}"
                      for day, (c, j) in enumerate(zip(cands.tolist(), jobs.tolist()))]
        nnz = NODES * PER_ROW
        self.matrix = sparse.csr_matrix(
            (rng.random(nnz), rng.integers(0, NODES, size=nnz, dtype=np.int32),
             np.arange(0, nnz + 1, PER_ROW)), shape=(NODES, NODES))
        self.block = rng.standard_normal((NODES, WIDTH))

    def time(self) -> float:
        start = time.perf_counter()
        pairs: dict[tuple[int, int], float] = {}
        for line in self.lines:
            day, _, cand, job, weight = line.split("\t")
            key = (int(cand), int(job))
            pairs[key] = pairs.get(key, 0.0) + float(weight) * int(day)
        x = self.block
        for _ in range(2):
            x = np.tanh(self.matrix @ x) * 0.5
        gram = x.T @ x
        elapsed = time.perf_counter() - start
        if not (len(pairs) and np.isfinite(gram).all()):
            raise RuntimeError("reference computation produced no result")
        return elapsed
