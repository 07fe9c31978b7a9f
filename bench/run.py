#!/usr/bin/env python3
"""The jobfit benchmark: one workload per run, end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run generates its corpus from the seed
with ``jobfit synth`` (in a child process, so its peak memory is its own),
then drives jobfit in this process through ``jobfit.cli.main`` and the public
library functions: split, then rounds of train, eval, score-pair and synth
for S seconds. Every output is checked; a failed check or command fails the
run.

Every timing is taken at reference speed: a fixed reference computation
(bench/reference.py) is timed right before and after each step, and a step's
wall time is scaled by ``REFERENCE_S`` over the median reference time around
it (``speed_factor``). On a shared machine whose speed drifts by up to 2x
within a minute this keeps the figures of one commit steady, while a change
to jobfit still moves them in full. The report keeps the unscaled wall-clock
figures next to them.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes that same
untraced pass, then a traced pass with the minimum repetitions, and prints
per-layer metrics plus the tracing overhead on each end-to-end metric.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The full report (input fingerprint, environment,
samples, layer table, check failures) goes to
``.bench_work/<workload>-seed<N>/report-trace<T>.json``; traced runs also write
``spans-trace1.jsonl`` there. See bench/NOTES.md for why each workload exists.
"""

from __future__ import annotations

import os

# Pinned before NumPy is imported anywhere in this process or its children.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from reference import REFERENCE_S, Reference
from spans import Tracer, children_of, clock, covered, layer_table

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Mean reciprocal rank of a random ranking of 21 items (1 positive, 20 negatives).
RANDOM_MRR_21 = sum(1.0 / k for k in range(1, 22)) / 21


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict             # `jobfit synth --set` keys besides the seed
    config: dict            # run.cfg keys besides the input paths
    per_round: dict         # synth, eval and score-pair runs in each round
    corpus_seed: int | None = None  # synth seed; None takes the run's --seed


SPLIT = {"t_valid_start": 84, "t_test_start": 95}

WORKLOADS = {
    w.name: w
    for w in (
        # The README quick start on the README's corpus (`jobfit synth
        # --seed 7`), then score-pair reads at pairs drawn from --seed. On
        # corpora drawn from --seed, valid_mrr ranged 0.21-0.32 and test
        # matches 56-92 over ten seeds: quality and eval throughput spread
        # past their bounds by seed alone. Patience 40 makes every train run
        # the same 40 epochs.
        Workload(
            name="quickstart-cli",
            synth={},
            config={**SPLIT, "d_e": 48, "d_t": 16, "lr": 0.05, "batch_size": 256,
                    "max_epochs": 40, "patience": 40, "lambda": 0.001, "tau": 5.0},
            per_round={"synth": 2, "eval": 3, "query": 8},
            corpus_seed=7,
        ),
        # SpMM-bound training at the default widths over a large sparse graph.
        # It is not in BENCHMARK.json: on a shared 2-vCPU machine its
        # memory-bound steps spread by about 0.2 of their median from seed to
        # seed even at reference speed, and its small test split (91-139
        # matches over seeds 61-70) moves eval throughput by seed. Run it
        # by name, and compare by seed with bench/compare.py, for changes to
        # propagation. At rates of 0.02 the model's validation MRR stayed at
        # or below random on some seeds (0.167 on seed 11 after three
        # epochs), so the quality guard could not tell learning from no
        # learning; at 0.025 every seed tried beats it, the weakest (seeds 7
        # and 23) by about 0.03 at lr 0.05. Batch 384 gives every seed three
        # batches per epoch (train matches 793-899 over seeds 1-12).
        Workload(
            name="large-sparse",
            synth={"n": 4000, "m": 3200, "apply_rate": 0.025, "reachout_rate": 0.025},
            config={**SPLIT, "d_e": 128, "d_t": 32, "lr": 0.05, "batch_size": 384,
                    "max_epochs": 2, "patience": 2, "lambda": 0.001, "tau": 5.0},
            per_round={"synth": 1, "eval": 2, "query": 2},
        ),
        # Per-pair work dominates: many matches on a small graph, with
        # sampled contrastive denominators.
        Workload(
            name="dense-matches",
            synth={"n": 600, "m": 500, "apply_rate": 0.5, "reachout_rate": 0.5},
            config={**SPLIT, "d_e": 48, "d_t": 16, "lr": 0.05, "batch_size": 512,
                    "max_epochs": 1, "patience": 1, "lambda": 0.001, "tau": 5.0,
                    "ssl_negatives": 32},
            per_round={"synth": 1, "eval": 2, "query": 4},
        ),
    )
}

# Small versions of each workload for the harness self-check (bench/selfcheck.py).
TINY = {
    "quickstart-cli": {"synth": {"n": 300, "m": 240, "apply_rate": 0.2, "reachout_rate": 0.2},
                       "config": {"max_epochs": 10}},
    "large-sparse": {"synth": {"n": 800, "m": 640, "apply_rate": 0.1, "reachout_rate": 0.1},
                     "config": {"d_e": 32, "d_t": 8, "max_epochs": 2, "patience": 2}},
    "dense-matches": {"synth": {"n": 120, "m": 100}, "config": {"max_epochs": 3, "patience": 3}},
}


def tiny(w: Workload) -> Workload:
    over = TINY[w.name]
    return replace(w, synth={**w.synth, **over["synth"]}, config={**w.config, **over["config"]},
                   per_round={"synth": 1, "eval": 1, "query": 2})


def schedule(w: Workload, traced: bool) -> list[str]:
    """One round of steps: train, then queries and evals in turn, then synth.

    Short steps run several times per round (``per_round``): on a busy
    machine a single sub-second step can land in a slow spell by itself.
    Taking turns lets a round cut short by the budget still sample both.
    """
    counts = {step: 1 for step in w.per_round} if traced else w.per_round
    reads = []
    for i in range(max(counts["query"], counts["eval"])):
        reads += ["query"] * (i < counts["query"]) + ["eval"] * (i < counts["eval"])
    return ["train", *reads, *["synth"] * counts["synth"]]


# Functions traced in the traced pass: (module, attribute, span name).
# Run.layer_metrics turns span names into per-layer metrics.
TRACED = (
    ("jobfit.corpus", "load_events", "corpus.load_events"),
    ("jobfit.corpus", "temporal_split", "corpus.temporal_split"),
    ("jobfit.corpus", "load_doc_embeddings", "corpus.load_doc_embeddings"),
    ("jobfit.graph", "build_graph", "graph.build"),
    ("jobfit.graph", "DualGraph.operator", "graph.operator"),
    ("jobfit.model", "build_variant_graph", "model.build_variant_graph"),
    ("jobfit.model", "init_params", "model.init_params"),
    ("jobfit.model", "propagate", "model.propagate"),
    ("jobfit.model", "apply_mean_powers", "model.apply_mean_powers"),
    ("jobfit.model", "score_pair", "model.score_pair"),
    ("jobfit.optim", "train", "optim.train"),
    ("jobfit.optim", "sample_quadruples", "optim.sample_quadruples"),
    ("jobfit.optim", "sample_ssl_denominators", "optim.sample_ssl_denominators"),
    ("jobfit.optim", "batch_gradients", "optim.batch_gradients"),
    ("jobfit.optim", "adam_step", "optim.adam_step"),
    ("jobfit.optim", "checkpoint_from", "optim.checkpoint_from"),
    ("jobfit.optim", "save_checkpoint", "optim.save_checkpoint"),
    ("jobfit.optim", "load_checkpoint", "optim.load_checkpoint"),
    ("jobfit.optim", "params_from_checkpoint", "optim.params_from_checkpoint"),
    ("jobfit.evaluation", "partner_maps", "evaluation.partner_maps"),
    ("jobfit.evaluation", "build_eval_instances", "evaluation.build_eval_instances"),
    ("jobfit.evaluation", "evaluate", "evaluation.evaluate"),
)

# The untraced pass wraps only these call sites, once per command, to find
# where the training loop starts and where eval starts loading the checkpoint.
PROBES = (
    ("jobfit.optim", "train", "optim.train", "jobfit.cli"),
    ("jobfit.evaluation", "build_eval_instances", "evaluation.build_eval_instances", "jobfit.optim"),
    ("jobfit.optim", "load_checkpoint", "optim.load_checkpoint", "jobfit.cli"),
)

E2E_UNITS = {
    "setup_s": "s",
    "synth_s": "s",
    "synth_peak_mb": "MB",
    "train_pairs_per_s": "pairs/s",
    "valid_mrr": "1",
    "eval_instances_per_s": "instances/s",
    "score_pair_ms_p50": "ms",
    "score_pair_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class Checks:
    """Counts attempted operations and failures; failures keep a message."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, q: int):
    """The q-th percentile, inclusive method; one sample is its own percentile."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# Timed samples a pass collects, each kept at reference speed and as wall time.
TIMED = ("synth_s", "setup_s", "train_pairs_per_s", "eval_instances_per_s", "score_pair_ms")


def speed_factor(references: list[tuple[float, float]], start: float, end: float) -> float:
    """``REFERENCE_S`` over the reference's median time around [start, end].

    The median takes the reference timings (clock, seconds) within two step
    lengths of the step, and always the last one before it and the first one
    after it. A long step is thus set against the machine's speed over about
    its own length, not against two short samples at its ends.
    """
    reach = 2 * (end - start)
    near = {r for r in references if start - reach <= r[0] <= end + reach}
    near.add(max(r for r in references if r[0] <= start))
    near.add(min(r for r in references if r[0] >= end))
    return REFERENCE_S / statistics.median(seconds for _, seconds in near)


def samples_from(timings: list[tuple], references: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Timed samples at reference speed and in wall-clock time.

    A timing is (metric, start, end, unit, per): the metric reads the time
    in ``unit`` (1000 for ms), or ``per`` over the time in seconds.
    """
    scaled = {name: [] for name in TIMED}
    wall = {name: [] for name in TIMED}
    for name, start, end, unit, per in timings:
        factor = speed_factor(references, start, end)
        for samples, f in ((scaled, factor), (wall, 1.0)):
            seconds = (end - start) * f
            samples[name].append(per / seconds if per else unit * seconds)
    return scaled, wall


def summarise(samples: dict, synth_peaks: list[float], valid_mrr: float, peak_rss: float) -> dict:
    """The end-to-end metrics: medians over a pass's samples."""
    lat = samples["score_pair_ms"]
    return {
        "setup_s": median(samples["setup_s"]),
        "synth_s": median(samples["synth_s"]),
        "synth_peak_mb": median(synth_peaks),
        "train_pairs_per_s": median(samples["train_pairs_per_s"]),
        "valid_mrr": valid_mrr,
        "eval_instances_per_s": median(samples["eval_instances_per_s"]),
        "score_pair_ms_p50": median(lat),
        "score_pair_ms_p90": percentile(lat, 90),
        "peak_rss_mb": peak_rss,
    }


def environment() -> dict:
    import numpy
    import scipy

    def git(*args):
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30,
                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Run:
    """One workload run: inputs, passes, checks and the report."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        # Loads every jobfit module, so the tracer can find all call sites.
        import jobfit.cli

        self.jf = sys.modules["jobfit"]
        self.w = workload
        self.seed = seed
        self.data = work / "data"
        self.out = work / "run"
        self.cfg = work / "run.cfg"
        self.checks = Checks()
        self.fingerprint: dict | None = None
        self.dataset = None
        self.samples: dict = {}
        self.crashes: list[str] = []
        self.reference = Reference()
        self.reference.time()  # the first run pays for cold caches
        self.last_reference: tuple[float, float] | None = None  # (clock when taken, seconds)
        self.reference_log: list[tuple[float, float]] = []  # every reference timing: (clock, seconds)

    # ---- driving the CLI -------------------------------------------------

    def cli(self, tracer: Tracer, command: str, *args: str):
        """Run ``jobfit <command>`` in-process under a ``cli.<command>`` span."""
        out = io.StringIO()
        code = None
        with tracer.span(f"cli.{command}") as span:
            try:
                with contextlib.redirect_stdout(out):
                    code = self.jf.cli.main([command, *args])
            except Exception:  # a crash is a failed command, not a dead run
                self.crashes.append(traceback.format_exc())
        self.checks.expect(code == 0, f"jobfit {command} {' '.join(args)} exited {code}")
        return code == 0, out.getvalue(), span

    def synth_once(self, tracer: Tracer, trace: bool) -> dict | None:
        """``jobfit synth`` in a child process; its report, or None if it failed."""
        seed = self.seed if self.w.corpus_seed is None else self.w.corpus_seed
        args = ["--out-dir", str(self.data), "--seed", str(seed)]
        for key, value in self.w.synth.items():
            args += ["--set", f"{key}={value}"]
        cmd = [sys.executable, str(BENCH_DIR / "synth_step.py"), str(SRC), str(int(trace)), "--", *args]
        with tracer.span("bench.synth") as span:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        ok = self.checks.expect(done.returncode == 0, f"synth step exited {done.returncode}: {done.stderr[-2000:]}")
        result = json.loads(done.stdout.splitlines()[-1]) if ok else {"exit": None}
        if not self.checks.expect(result["exit"] == 0, f"jobfit synth exited {result['exit']}"):
            return None
        tracer.adopt(result["spans"], span)
        files = {name: sha256(self.data / name) for name in ("events.tsv", "candidates.emb", "jobs.emb")}
        if self.fingerprint is None:
            workload = {"name": self.w.name, "seed": self.seed, **asdict(self.w)}
            digest = hashlib.sha256(json.dumps([files, workload], sort_keys=True).encode()).hexdigest()
            self.fingerprint = {"inputs": files, "workload": workload, "digest": digest}
        else:
            self.checks.expect(files == self.fingerprint["inputs"], "synth output differs between runs of one seed")
        return result

    def write_config(self) -> None:
        lines = [
            f"log = {self.data / 'events.tsv'}",
            f"cand_embeddings = {self.data / 'candidates.emb'}",
            f"job_embeddings = {self.data / 'jobs.emb'}",
        ] + [f"{key} = {value}" for key, value in self.w.config.items()]
        self.cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def load_reference(self) -> None:
        """The data set, document tables and graph counts the checks compare against."""
        jf, cfg = self.jf, self.w.config
        log = jf.corpus.load_events(self.data / "events.tsv")
        self.dataset = jf.corpus.temporal_split(log, cfg["t_valid_start"], cfg["t_test_start"])
        cand = jf.corpus.load_doc_embeddings(self.data / "candidates.emb", jf.corpus.Side.CANDIDATE, self.dataset.n)
        job = jf.corpus.load_doc_embeddings(self.data / "jobs.emb", jf.corpus.Side.JOB, self.dataset.m)
        self.cand_docs, self.job_docs = cand.rows.astype("float64"), job.rows.astype("float64")
        variant = jf.model.variant_config("full", ssl_weight=cfg["lambda"])
        operator = jf.model.build_variant_graph(self.dataset.train, self.dataset.n, self.dataset.m,
                                                variant).operator(variant.omega)
        self.graph_counts = {"graph.nodes": operator.shape[0], "graph.nnz": operator.nnz}

    # ---- one pass --------------------------------------------------------

    def run_pass(self, budget: float, traced: bool) -> tuple[dict, dict, Tracer]:
        """Steps of ``schedule`` in a cycle until ``budget`` runs out.

        Every round of the cycle runs each step, so a slow spell on the
        machine shifts one sample of every metric rather than all samples of
        one. The first round always runs whole; after it, a step starts only
        if it should end less than half its last time past the budget. A
        traced pass makes one round with each step once. Returns the metrics
        at reference speed, the same metrics in wall-clock time, and the
        tracer.
        """
        tracer = Tracer()
        self.timings: list[tuple] = []
        self.synth_peaks: list[float] = []
        self.queries: list[tuple[int, int, str]] = []
        self.histories: list[list[str]] = []
        self.reference_log = []
        rng = random.Random(self.seed)
        run_step = {
            "synth": lambda: self.synth_step(tracer, traced),
            "train": lambda: self.train_step(tracer),
            "eval": lambda: self.eval_step(tracer),
            "query": lambda: self.query_step(tracer, rng),
        }
        steps = schedule(self.w, traced)
        self.install(tracer, traced)
        try:
            if not self.prepare(tracer, traced):
                return {}, {}, tracer
            start, last, done = clock(), {}, 0
            for step in itertools.cycle(steps):
                if done >= len(steps) and clock() - start + last[step] / 2 > budget:
                    break
                t = clock()
                if not run_step[step]():
                    return {}, {}, tracer
                last[step], done = clock() - t, done + 1
        finally:
            tracer.restore()
            gc.unfreeze()
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        valid_mrr = self.check_outputs()
        scaled, wall = samples_from(self.timings, self.reference_log)
        self.samples["traced" if traced else "untraced"] = {
            "steps": done, "at_reference_speed": scaled, "wall": wall, "synth_peak_mb": self.synth_peaks,
            "reference_s": self.reference_log}
        return (summarise(scaled, self.synth_peaks, valid_mrr, peak_rss),
                summarise(wall, self.synth_peaks, valid_mrr, peak_rss), tracer)

    def install(self, tracer: Tracer, traced: bool) -> None:
        if not traced:
            for module, attr, name, site in PROBES:
                tracer.wrap(sys.modules[module], attr, name, sites=site)
            return
        for module, attr, name in TRACED:
            owner = sys.modules[module]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            tracer.wrap(owner, attr, name)
        import scipy.sparse as sparse

        def spmm(args):
            matrix, other = args[0], args[1]
            width = other.shape[1] if getattr(other, "ndim", 0) == 2 else 1
            return {"spmm_calls": 1, "spmm_flops": 2 * matrix.nnz * width}

        for cls in (sparse.csr_matrix, sparse.csr_array):
            tracer.tally(cls, "__matmul__", spmm)

    def reference_time(self) -> float:
        """The reference computation's time now; one taken under 0.1 s ago is reused."""
        recent = self.last_reference
        if recent and clock() - recent[0] < 0.1:
            return recent[1]
        return self.note_reference(self.reference.time())

    def note_reference(self, seconds: float) -> float:
        self.last_reference = (clock(), seconds)
        self.reference_log.append(self.last_reference)
        return seconds

    def between_references(self, step):
        """Run ``step()`` with a timing of the reference right before and right after it."""
        self.reference_time()
        result = step()
        self.note_reference(self.reference.time())
        return result

    def timed(self, name: str, start: float, end: float, unit: float = 1.0, per: float | None = None) -> None:
        self.timings.append((name, start, end, unit, per))

    def synth_step(self, tracer: Tracer, traced: bool) -> bool:
        """One synth; the child times the reference right before and after it."""
        gc.collect()
        result = self.synth_once(tracer, traced)
        if result is None:
            return False
        before, after = (tuple(timing) for timing in result["reference_s"])  # (clock, seconds)
        self.reference_log += [before, after]
        self.last_reference = after
        self.timed("synth_s", *result["span"])
        self.synth_peaks.append(result["maxrss_mb"])
        return True

    def prepare(self, tracer: Tracer, traced: bool) -> bool:
        """Inputs on disk, ``jobfit split`` and the data set the checks compare against."""
        if self.fingerprint is None and not self.synth_step(tracer, traced):
            return False
        self.write_config()
        ok, split_out, _ = self.cli(tracer, "split", "--config", str(self.cfg))
        if self.dataset is None:
            self.load_reference()
        if ok:
            self.check_split(split_out)
        # What the harness keeps for its checks must not add to the
        # collector's work inside the commands it times.
        gc.freeze()
        self.out.mkdir(parents=True, exist_ok=True)
        return True

    def train_step(self, tracer: Tracer) -> bool:
        gc.collect()
        ok, _, span = self.between_references(
            lambda: self.cli(tracer, "train", "--config", str(self.cfg), "--out-dir", str(self.out)))
        if ok:
            epochs = self.check_history()
            loop = self.train_loop(tracer, span)
            if loop is not None:
                self.timed("setup_s", span["start"], loop[0])
                self.timed("train_pairs_per_s", *loop, per=len(self.dataset.train.matches) * epochs)
        return True

    def eval_step(self, tracer: Tracer) -> bool:
        gc.collect()
        ok, text, span = self.between_references(
            lambda: self.cli(tracer, "eval", "--config", str(self.cfg),
                             "--checkpoint", str(self.out / "checkpoint.bin"), "--split", "test"))
        if ok:
            instances = self.check_eval(text)
            start = self.eval_start(tracer, span)
            if start is not None:
                self.timed("eval_instances_per_s", start, span["end"], per=instances)
        return True

    def query_step(self, tracer: Tracer, rng) -> bool:
        cand, job = rng.randrange(self.dataset.n), rng.randrange(self.dataset.m)
        gc.collect()
        ok, text, span = self.between_references(
            lambda: self.cli(tracer, "score-pair", "--config", str(self.cfg), "--checkpoint",
                             str(self.out / "checkpoint.bin"), "--candidate", str(cand), "--job", str(job)))
        self.timed("score_pair_ms", span["start"], span["end"], unit=1000.0)
        if ok:
            self.queries.append((cand, job, text))
        return True

    # ---- measurements taken from probe spans ------------------------------

    def train_loop(self, tracer: Tracer, cli_span: dict) -> tuple[float, float] | None:
        """Start and end of ``train()``'s epoch loop.

        The loop starts when ``train()`` returns from building its validation
        instances, its last set-up call. Everything in the ``train`` command
        before that (parse, split, document tables, graph, instances) is set-up.
        """
        kids = children_of(tracer.spans)
        trains = [s for s in kids.get(cli_span["id"], []) if s["name"] == "optim.train"]
        starts = [s for t in trains for s in kids.get(t["id"], [])
                  if s["name"] == "evaluation.build_eval_instances"]
        if not self.checks.expect(len(trains) == 1 and len(starts) == 1,
                                  "train: could not find the start of the training loop"):
            return None
        return starts[0]["end"], trains[0]["end"]

    def eval_start(self, tracer: Tracer, cli_span: dict) -> float | None:
        """When ``eval`` started loading the checkpoint."""
        loads = [s for s in children_of(tracer.spans).get(cli_span["id"], [])
                 if s["name"] == "optim.load_checkpoint"]
        if not self.checks.expect(len(loads) == 1, "eval: checkpoint load not observed"):
            return None
        return loads[0]["start"]

    # ---- output checks -----------------------------------------------------

    def check_split(self, text: str) -> None:
        for name in ("train", "valid", "test"):
            split = getattr(self.dataset, name)
            want = f"{name}: applies={len(split.applies)} reachouts={len(split.reachouts)} matches={len(split.matches)}"
            self.checks.expect(want in text.splitlines(), f"split: expected line {want!r}")

    def check_history(self) -> int:
        """Epoch count; every loss finite, history identical across runs."""
        lines = [l for l in (self.out / "history.tsv").read_text().splitlines() if l and not l.startswith("#")]
        header = lines[0].split("\t")
        rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
        losses = [float(v) for row in rows for k, v in row.items() if k.startswith("loss")]
        self.checks.expect(bool(rows) and all(math.isfinite(x) for x in losses),
                           "train: history is empty or has a non-finite loss")
        self.histories.append(lines)
        self.checks.expect(lines == self.histories[0], "train: history differs between identical runs")
        return len(rows)

    def check_eval(self, text: str) -> int:
        """Instance count; one instance per test match per direction, metrics in [0, 1]."""
        rows = [line.split("\t") for line in text.splitlines() if line.count("\t") == 2]
        counts = {r[0]: int(r[2]) for r in rows if r[1] == "count"}
        values = [float(r[2]) for r in rows if r[1] not in ("count", "metric")]
        test = len(self.dataset.test.matches)
        self.checks.expect(counts == {"candidates": test, "jobs": test},
                           f"eval: instance counts {counts}, expected {test} per direction")
        self.checks.expect(bool(values) and all(0.0 <= v <= 1.0 for v in values),
                           "eval: a metric lies outside [0, 1]")
        return sum(counts.values())

    def check_outputs(self) -> float:
        """Quality guard and score-pair checks against a library recomputation."""
        jf = self.jf
        path = self.out / "checkpoint.bin"
        if not self.checks.expect(path.is_file(), "train: no checkpoint written"):
            return float("nan")
        ckpt = jf.optim.load_checkpoint(path)
        valid_mrr = ckpt.best_metric
        self.checks.expect(valid_mrr > RANDOM_MRR_21,
                           f"train: validation mrr {valid_mrr:.4f} does not beat random {RANDOM_MRR_21:.4f}")
        params = jf.optim.params_from_checkpoint(ckpt, self.cand_docs, self.job_docs)
        graph = jf.model.build_variant_graph(self.dataset.train, self.dataset.n, self.dataset.m, ckpt.variant)
        z = jf.model.propagate(params, graph, ckpt.variant).z
        for cand, job, text in self.queries:
            printed = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
            try:
                r, s, y = (float(printed[k]) for k in ("candidate_to_job", "job_to_candidate", "combined"))
            except (KeyError, ValueError):
                self.checks.expect(False, f"score-pair {cand} {job}: unreadable output {text!r}")
                continue
            # Each printed value is rounded to 6 decimals, so it is within 5e-7.
            self.checks.expect(abs(y - (r + s) / 2) <= 1.0001e-6,
                               f"score-pair {cand} {job}: combined {y} != (r + s)/2")
            want = jf.model.score_pair(z, ckpt.layout, cand, job)
            self.checks.expect(all(abs(a - b) <= 5.0001e-7 for a, b in zip((r, s, y), want)),
                               f"score-pair {cand} {job}: printed {(r, s, y)} != library {want}")
        return valid_mrr

    # ---- per-layer metrics -------------------------------------------------

    def layer_metrics(self, tracer: Tracer) -> tuple[dict, dict]:
        spans = tracer.spans
        table = layer_table(spans)

        def busy(name):
            return table.get(name, {}).get("busy_s", 0.0)

        def calls(name):
            return table.get(name, {}).get("calls", 0)

        kids = children_of(spans)
        loop_wall = loop_covered = 0.0
        for train in (s for s in spans if s["name"] == "optim.train"):
            starts = [c["end"] for c in kids.get(train["id"], []) if c["name"] == "evaluation.build_eval_instances"]
            if starts:
                loop_wall += train["end"] - starts[0]
                loop_covered += covered(
                    [(c["start"], c["end"]) for c in kids.get(train["id"], [])], starts[0], train["end"])
        ckpt = self.out / "checkpoint.bin"
        evals = [s for s in spans if s["name"] == "cli.eval"]
        metrics = {
            "corpus.generate_synthetic_s": busy("corpus.generate_synthetic"),
            "corpus.write_events_s": busy("corpus.write_events"),
            "corpus.load_events_s": busy("corpus.load_events"),
            "corpus.temporal_split_s": busy("corpus.temporal_split"),
            "corpus.load_doc_embeddings_s": busy("corpus.load_doc_embeddings"),
            "corpus.events": self.event_count,
            "graph.build_s": busy("graph.build"),
            "graph.operator_s": busy("graph.operator"),
            **self.graph_counts,
            "model.propagate_s": busy("model.propagate"),
            "model.propagate_calls": calls("model.propagate"),
            "model.apply_mean_powers_s": busy("model.apply_mean_powers"),
            "model.apply_mean_powers_calls": calls("model.apply_mean_powers"),
            "model.spmm_calls": tracer.counts.get("spmm_calls", 0),
            "model.spmm_flops": tracer.counts.get("spmm_flops", 0),
            "optim.batch_gradients_self_s": table.get("optim.batch_gradients", {}).get("self_s", 0.0),
            "optim.sample_quadruples_s": busy("optim.sample_quadruples"),
            "optim.sample_ssl_denominators_s": busy("optim.sample_ssl_denominators"),
            "optim.adam_step_s": busy("optim.adam_step"),
            "optim.steps": calls("optim.adam_step"),
            "optim.save_checkpoint_s": busy("optim.save_checkpoint"),
            "optim.load_checkpoint_s": busy("optim.load_checkpoint"),
            "optim.checkpoint_bytes": ckpt.stat().st_size if ckpt.is_file() else 0,
            "optim.train_loop_s": loop_wall,
            "optim.train_loop_covered": loop_covered / loop_wall if loop_wall else 0.0,
            "evaluation.partner_maps_s": busy("evaluation.partner_maps"),
            "evaluation.build_eval_instances_s": busy("evaluation.build_eval_instances"),
            "evaluation.evaluate_s": busy("evaluation.evaluate"),
            "evaluation.instances": 2 * len(self.dataset.test.matches) * len(evals),
            "cli.self_s": sum(row["self_s"] for name, row in table.items() if name.startswith("cli.")),
            "trace.spans": len(spans),
        }
        for command in ("synth", "split", "train", "eval", "score-pair"):
            metrics[f"cli.{command}_s"] = busy(f"cli.{command}")
        return metrics, table

    @property
    def event_count(self) -> int:
        with (self.data / "events.tsv").open(encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip() and not line.startswith("#"))


LAYER_UNITS = {
    "corpus.events": "count", "graph.nodes": "count", "graph.nnz": "count",
    "model.propagate_calls": "count", "model.apply_mean_powers_calls": "count",
    "model.spmm_calls": "count", "model.spmm_flops": "flop", "optim.steps": "count",
    "optim.checkpoint_bytes": "bytes", "optim.train_loop_covered": "ratio",
    "evaluation.instances": "count", "trace.spans": "count",
}


def layer_unit(name: str) -> str:
    if name.startswith("overhead."):
        return E2E_UNITS[name.removeprefix("overhead.")]
    return LAYER_UNITS.get(name, "s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for bench/selfcheck.py")
    args = parser.parse_args(argv)

    if not (SRC / "jobfit" / "__init__.py").is_file():
        print(f"error: no jobfit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jobfit

    if not Path(jobfit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported jobfit from {jobfit.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    work = WORK / f"{workload.name}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    run = Run(workload, args.seed, work)
    e2e, e2e_wall, _ = run.run_pass(args.seconds, traced=False)
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "fingerprint": run.fingerprint, "environment": environment(),
        "reference_s": REFERENCE_S, "end_to_end": e2e, "end_to_end_wall": e2e_wall,
    }
    if args.trace and e2e:
        traced_e2e, traced_wall, tracer = run.run_pass(0.0, traced=True)
        layers, table = run.layer_metrics(tracer)
        layers.update({f"overhead.{k}": traced_e2e[k] - e2e[k] for k in E2E_UNITS})
        report.update(traced_end_to_end=traced_e2e, traced_end_to_end_wall=traced_wall,
                      per_layer=layers, layer_table=table)
        with (work / "spans-trace1.jsonl").open("w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}

    failed = len(run.checks.failures)
    attempted = max(run.checks.attempted, 1)
    numeric_ok = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]) for m in metrics.values())
    correct = failed == 0 and bool(e2e) and numeric_ok
    report.update(samples=run.samples, attempted=attempted, failed=failed,
                  error_rate=failed / attempted, failures=run.checks.failures, crashes=run.crashes)
    (work / f"report-trace{args.trace}.json").write_text(json.dumps(report, indent=2, default=str))
    shutil.rmtree(run.data, ignore_errors=True)
    shutil.rmtree(run.out, ignore_errors=True)

    if run.fingerprint:
        print(f"fingerprint {run.fingerprint['digest']}")
    for name, metric in metrics.items():
        wall = f" (wall clock {e2e_wall[name]:.6g})" if name in e2e_wall and not args.trace else ""
        print(f"{name} {metric['value']:.6g} {metric['unit']}{wall}")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for label, pass_samples in run.samples.items():
        counts = {k: len(v) for k, v in pass_samples["wall"].items()}
        print(f"samples {label} steps={pass_samples['steps']} {json.dumps(counts)}")
    for failure in run.checks.failures[:20]:
        print(f"FAILED {failure}")
    print(f"report {work.relative_to(ROOT) / f'report-trace{args.trace}.json'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
