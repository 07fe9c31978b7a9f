"""Command-line interface: synth, split, train, eval, sweep, score-pair, inspect-graph.

Configuration comes from an optional ``key = value`` file (``#`` comments
allowed), overridable with repeated ``--set key=value`` flags and a few
dedicated flags. Exit codes: 0 success, 1 runtime or numeric failure,
2 usage, config, or input-file errors.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .corpus import (
    Kind,
    Side,
    SplitDataset,
    SyntheticSpec,
    generate_synthetic,
    load_doc_embeddings,
    load_events,
    split_to_log,
    temporal_split,
    write_atomic,
    write_doc_embeddings,
    write_events,
    zero_doc_table,
)
from .errors import CheckpointError, ConfigError, DataFormatError, JobfitError
from .evaluation import (
    Direction,
    DirectionReport,
    build_eval_instances,
    evaluate,
    partner_maps,
    sparsity_breakdown,
)
from .graph import EdgeClass, edge_table
from .model import VARIANTS, VariantConfig, build_variant_graph, score_pair, variant_config
from .optim import (
    ZERO_TABLE,
    Checkpoint,
    InputFingerprint,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)

logger = logging.getLogger(__name__)

SWEEP_AXES = ("layers", "tau", "lambda", "omega")
DEFAULT_GRIDS = {
    "layers": "0,1,2,3,4",
    "tau": "0.5,0.1,0.05,0.01,0.005,0.001",
    "lambda": "0.5,0.3,0.2,0.1,0.07,0.05,0.03,0.01",
    "omega": "0.0,0.25,0.5,1.0,2.0",
}

# Config keys whose names differ from the RunConfig field.
KEY_ALIASES = {"lambda": "ssl_weight", "lr": "learning_rate"}


@dataclass(frozen=True)
class RunConfig(TrainConfig, SyntheticSpec):
    """Union of every knob the commands understand.

    Training and generator settings are inherited. Both bases declare
    ``seed``; the MRO puts ``TrainConfig`` first, so its default of 0 is the
    run seed and the corpus seed of ``synth`` without ``--seed``.
    """

    # input files
    log: str = ""
    cand_embeddings: str = ""
    job_embeddings: str = ""
    # temporal split boundaries (day offsets)
    t_valid_start: int = 84
    t_test_start: int = 95
    # variant preset and the axes it may override
    variant: str = "full"
    layers: int = VariantConfig.layers
    omega: float = VariantConfig.omega
    ssl_weight: float = VariantConfig.ssl_weight
    self_edges: str = VariantConfig.self_edges
    # sweep
    sweep_axis: str = "layers"
    sweep_grid: str = ""

    def validate(self) -> None:
        # Numeric constraints are checked here so bad values fail before any
        # file is touched; the model and trainer validate again defensively.
        TrainConfig.validate(self)
        SyntheticSpec.validate(self)
        variant_for(self)
        if self.ssl_weight < 0:
            raise ConfigError(f"lambda must be >= 0, got {self.ssl_weight}")
        if not 0 < self.t_valid_start < self.t_test_start:
            raise ConfigError(
                f"need 0 < t_valid_start < t_test_start, got "
                f"{self.t_valid_start}, {self.t_test_start}"
            )
        if self.sweep_axis not in SWEEP_AXES:
            raise ConfigError(f"sweep_axis must be one of {SWEEP_AXES}, got {self.sweep_axis!r}")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[KEY_ALIASES.get(key, key)]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind}") from exc


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read ``key = value`` lines; later keys override earlier ones."""
    values: dict[str, str] = {}
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def make_run_config(pairs: dict[str, str]) -> RunConfig:
    kwargs = {}
    for key, raw in pairs.items():
        field_name = KEY_ALIASES.get(key, key)
        if field_name not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[field_name] = _coerce(key, raw)
    cfg = RunConfig(**kwargs)
    cfg.validate()
    return cfg


def variant_for(cfg: RunConfig) -> VariantConfig:
    return variant_config(
        cfg.variant,
        ssl_weight=cfg.ssl_weight,
        omega=cfg.omega,
        layers=cfg.layers,
        self_edges=cfg.self_edges,
    )


def config_hash(cfg: RunConfig) -> str:
    canonical = "\n".join(
        f"{f.name}={getattr(cfg, f.name)!r}" for f in sorted(fields(cfg), key=lambda f: f.name)
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def provenance_lines(cfg: RunConfig, seed: int | None = None) -> list[str]:
    return [
        f"tool=jobfit {__version__}",
        f"config={config_hash(cfg)}",
        f"seed={cfg.seed if seed is None else seed}",
    ]


def _load_config(args: argparse.Namespace) -> RunConfig:
    pairs: dict[str, str] = {}
    if args.config:
        pairs.update(parse_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        pairs[key.strip()] = value.strip()
    # Dedicated flags take precedence over the file and --set.
    for key in ("log", "variant", "seed", "k"):
        value = getattr(args, key, None)
        if value is not None:
            pairs[key] = str(value)
    return make_run_config(pairs)


def _log_path(cfg: RunConfig) -> str:
    if not cfg.log:
        raise ConfigError("no event log configured; pass --log or set log= in the config")
    return cfg.log


def _load_dataset(cfg: RunConfig) -> SplitDataset:
    return temporal_split(load_events(_log_path(cfg)), cfg.t_valid_start, cfg.t_test_start)


def _sha256(path: str) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.digest()


def _input_fingerprint(cfg: RunConfig) -> InputFingerprint:
    """Digests of the configured event log and document files, and the split boundaries."""
    return InputFingerprint(
        log_sha256=_sha256(_log_path(cfg)),
        t_valid_start=cfg.t_valid_start,
        t_test_start=cfg.t_test_start,
        cand_docs_sha256=_sha256(cfg.cand_embeddings) if cfg.cand_embeddings else ZERO_TABLE,
        job_docs_sha256=_sha256(cfg.job_embeddings) if cfg.job_embeddings else ZERO_TABLE,
    )


def _check_inputs(cfg: RunConfig, ckpt: Checkpoint, path: str) -> None:
    """Refuse a checkpoint that was trained from other inputs than the configured ones.

    Its stored ``z`` holds only for the log, split and document tables it
    was trained on.
    """
    trained = ckpt.fingerprint
    if trained is None:
        raise CheckpointError(f"{path}: records no training inputs; retrain it with jobfit train")
    configured = _input_fingerprint(cfg)
    for what, name in (
        (f"event log {cfg.log}", "log_sha256"),
        (f"t_valid_start={cfg.t_valid_start}", "t_valid_start"),
        (f"t_test_start={cfg.t_test_start}", "t_test_start"),
        (f"candidate documents {cfg.cand_embeddings or '(zero table)'}", "cand_docs_sha256"),
        (f"job documents {cfg.job_embeddings or '(zero table)'}", "job_docs_sha256"),
    ):
        if getattr(configured, name) != getattr(trained, name):
            raise CheckpointError(f"{path}: {what} differs from the input it was trained on")
    zero_docs = ZERO_TABLE in (configured.cand_docs_sha256, configured.job_docs_sha256)
    if zero_docs and cfg.d_o != ckpt.d_o:
        raise CheckpointError(
            f"{path}: zero document tables of d_o={cfg.d_o} differ from the d_o={ckpt.d_o} "
            "it was trained on"
        )


def _load_docs(cfg: RunConfig, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    if cfg.cand_embeddings:
        cand = load_doc_embeddings(cfg.cand_embeddings, Side.CANDIDATE, n).rows
    else:
        cand = zero_doc_table(Side.CANDIDATE, n, cfg.d_o).rows
    if cfg.job_embeddings:
        job = load_doc_embeddings(cfg.job_embeddings, Side.JOB, m).rows
    else:
        job = zero_doc_table(Side.JOB, m, cfg.d_o).rows
    if cand.shape[1] != job.shape[1]:
        raise DataFormatError(
            f"document dimensions differ: candidates {cand.shape[1]}, jobs {job.shape[1]}"
        )
    return cand.astype(np.float64), job.astype(np.float64)


def _write_lines(path: Path, comment_lines: list[str], lines: list[str]) -> None:
    lines = [f"# {line}" for line in comment_lines] + lines
    write_atomic(path, "".join(line + "\n" for line in lines).encode("utf-8"))


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _report_rows(direction: Direction, report: DirectionReport, k: int, group: str | None) -> list[str]:
    prefix = direction.value + ("\t" + group if group is not None else "")
    return [
        f"{prefix}\tcount\t{report.count}",
        f"{prefix}\trecall_at_{k}\t{_fmt(report.recall)}",
        f"{prefix}\tprecision_at_{k}\t{_fmt(report.precision)}",
        f"{prefix}\tndcg_at_{k}\t{_fmt(report.ndcg)}",
        f"{prefix}\tmrr\t{_fmt(report.mrr)}",
    ]


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    log, cand_table, job_table = generate_synthetic(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_events(out_dir / "events.tsv", log, comments=provenance_lines(cfg))
    write_doc_embeddings(out_dir / "candidates.emb", cand_table)
    write_doc_embeddings(out_dir / "jobs.emb", job_table)
    manifest = out_dir / "manifest.cfg"
    settings = [f"{key} = {value}" for key, value in cfg.as_dict().items()]
    _write_lines(manifest, provenance_lines(cfg), settings)
    counts = np.bincount(log.kinds, minlength=len(Kind))
    print(f"wrote {out_dir}/events.tsv with {len(log.kinds)} events "
          f"(apply={counts[Kind.APPLY]} reachout={counts[Kind.REACHOUT]} "
          f"match={counts[Kind.MATCH]})")
    print(f"wrote {out_dir}/candidates.emb ({cand_table.count} x {cand_table.dim})")
    print(f"wrote {out_dir}/jobs.emb ({job_table.count} x {job_table.dim})")
    print(f"wrote {manifest}")
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    dataset = _load_dataset(cfg)
    print(f"n={dataset.n} m={dataset.m} "
          f"boundaries: valid>={dataset.t_valid_start} test>={dataset.t_test_start}")
    for name, split in (("train", dataset.train), ("valid", dataset.valid), ("test", dataset.test)):
        print(f"{name}: applies={len(split.applies)} reachouts={len(split.reachouts)} "
              f"matches={len(split.matches)}")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, split, day in (
            ("train", dataset.train, 0),
            ("valid", dataset.valid, dataset.t_valid_start),
            ("test", dataset.test, dataset.t_test_start),
        ):
            write_events(
                out_dir / f"{name}.tsv",
                split_to_log(dataset, split, day),
                comments=provenance_lines(cfg),
            )
        print(f"wrote {out_dir}/train.tsv, valid.tsv, test.tsv")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    dataset = _load_dataset(cfg)
    cand_docs, job_docs = _load_docs(cfg, dataset.n, dataset.m)
    fingerprint = _input_fingerprint(cfg)
    result = train(dataset, cand_docs, job_docs, cfg, variant_for(cfg))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "checkpoint.bin"
    save_checkpoint(replace(result.checkpoint, fingerprint=fingerprint), ckpt_path)
    rows = [
        f"{h.epoch}\t{h.loss_main:.17g}\t{h.loss_ssl:.17g}"
        f"\t{h.val_mrr_cand:.17g}\t{h.val_mrr_job:.17g}"
        for h in result.history
    ]
    _write_lines(
        out_dir / "history.tsv",
        provenance_lines(cfg),
        ["epoch\tloss_main\tloss_ssl\tval_mrr_cand\tval_mrr_job"] + rows,
    )
    best = result.checkpoint
    print(f"trained {len(result.history)} epochs, best epoch {best.epoch} "
          f"(mean validation mrr {best.best_metric:.6f})")
    print(f"wrote {ckpt_path} and {out_dir}/history.tsv")
    return 0


def _evaluate_checkpoint(cfg: RunConfig, ckpt: Checkpoint, split: str):
    """Ranking instances for the stored ``split`` matches and their report on the stored ``z``.

    Negatives exclude the matches of every split the checkpoint stores.
    """
    matches = ckpt.matches[split]
    if len(matches) == 0:
        raise DataFormatError(f"{split} split has no matches to evaluate")
    by_cand, by_job = partner_maps(np.concatenate(list(ckpt.matches.values())))
    instances = build_eval_instances(
        matches, by_cand, by_job, ckpt.n, ckpt.m, cfg.eval_seed, cfg.eval_negatives
    )
    return instances, evaluate(ckpt.z, ckpt.layout, instances, k=cfg.k)


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    ckpt = load_checkpoint(args.checkpoint)
    _check_inputs(cfg, ckpt, args.checkpoint)
    variant = variant_for(cfg)
    if variant != ckpt.variant:
        raise CheckpointError(
            f"checkpoint variant {ckpt.variant} does not match configured variant {variant}"
        )
    instances, report = _evaluate_checkpoint(cfg, ckpt, args.split)

    comments = provenance_lines(cfg, seed=cfg.eval_seed) + [f"k={cfg.k}", f"split={args.split}"]
    groups = {}
    header = "direction\tmetric\tvalue"
    if args.sparsity_groups:
        groups = sparsity_breakdown(report, instances, *np.split(ckpt.train_counts, [ckpt.n]))
        header = "direction\tgroup\tmetric\tvalue"
    rows = []
    for direction, rep in (
        (Direction.FOR_CANDIDATES, report.for_candidates),
        (Direction.FOR_JOBS, report.for_jobs),
    ):
        rows.extend(_report_rows(direction, rep, cfg.k, "all" if args.sparsity_groups else None))
        for gi, group_report in enumerate(groups.get(direction, []), start=1):
            rows.extend(_report_rows(direction, group_report, cfg.k, f"g{gi}"))

    for line in [header] + rows:
        print(line)
    if args.report:
        _write_lines(Path(args.report), comments, [header] + rows)
        print(f"wrote {args.report}")
    return 0


def _parse_grid(axis: str, text: str) -> list[float] | list[int]:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ConfigError(f"sweep grid for axis {axis!r} is empty")
    values = [_coerce(axis, t) for t in tokens]
    deduped = []
    for v in values:
        if v in deduped:
            logger.warning("duplicate grid value %s dropped", v)
        else:
            deduped.append(v)
    return deduped


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    axis = args.axis or cfg.sweep_axis
    grid_text = args.grid or cfg.sweep_grid or DEFAULT_GRIDS[axis]
    grid = _parse_grid(axis, grid_text)
    points = [replace(cfg, **{KEY_ALIASES.get(axis, axis): value}) for value in grid]
    # replace() runs no checks: refuse a bad grid value before any point trains.
    for point in points:
        point.validate()
    # tau and lambda act only through the contrastive term.
    if axis in ("tau", "lambda") and all(variant_for(p).ssl_weight == 0 for p in points):
        raise ConfigError(f"variant {cfg.variant!r} has no contrastive term for {axis} to act on")
    dataset = _load_dataset(cfg)
    cand_docs, job_docs = _load_docs(cfg, dataset.n, dataset.m)

    rows = []
    for value, point_cfg in zip(grid, points):
        result = train(dataset, cand_docs, job_docs, point_cfg, variant_for(point_cfg))
        _, report = _evaluate_checkpoint(point_cfg, result.checkpoint, "valid")
        fc, fj = report.for_candidates, report.for_jobs
        rows.append(
            f"{value}\t" + "\t".join(
                _fmt(x)
                for x in (
                    fc.recall, fc.precision, fc.ndcg, fc.mrr,
                    fj.recall, fj.precision, fj.ndcg, fj.mrr,
                )
            )
        )
        print(f"{axis}={value}: candidates mrr={fc.mrr:.4f}, jobs mrr={fj.mrr:.4f}")
    header = (
        f"{axis}\tcand_recall_at_{cfg.k}\tcand_precision_at_{cfg.k}\tcand_ndcg_at_{cfg.k}"
        f"\tcand_mrr\tjob_recall_at_{cfg.k}\tjob_precision_at_{cfg.k}"
        f"\tjob_ndcg_at_{cfg.k}\tjob_mrr"
    )
    _write_lines(Path(args.out), provenance_lines(cfg), [header] + rows)
    print(f"wrote {args.out}")
    return 0


def cmd_score_pair(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    ckpt = load_checkpoint(args.checkpoint)
    _check_inputs(cfg, ckpt, args.checkpoint)
    if not 0 <= args.candidate < ckpt.n:
        raise ConfigError(f"candidate id {args.candidate} out of range [0, {ckpt.n})")
    if not 0 <= args.job < ckpt.m:
        raise ConfigError(f"job id {args.job} out of range [0, {ckpt.m})")
    r, s, y = score_pair(ckpt.z, ckpt.layout, args.candidate, args.job)
    print(f"candidate_to_job={r:.6f}")
    print(f"job_to_candidate={s:.6f}")
    print(f"combined={y:.6f}")
    return 0


def cmd_inspect_graph(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    dataset = _load_dataset(cfg)
    graph = build_variant_graph(dataset.train, dataset.n, dataset.m, variant_for(cfg))
    degrees = graph.degrees
    print(f"layout={'dual' if graph.layout.dual else 'single'} nodes={graph.node_count} "
          f"candidates={dataset.n} jobs={dataset.m}")
    print(f"edges: match={graph.edge_counts[EdgeClass.MATCH]} "
          f"uni={graph.edge_counts[EdgeClass.UNI]} "
          f"self={graph.edge_counts[EdgeClass.SELF]}")
    print(f"degrees: min={int(degrees.min())} max={int(degrees.max())} "
          f"mean={float(degrees.mean()):.3f} isolated={int(np.sum(degrees == 0))}")
    if args.dump_edges:
        rows = [
            f"{src}\t{dst}\t{cls}\t{coeff:.10g}" for src, dst, cls, coeff in edge_table(graph)
        ]
        header = "src\tdst\tclass\tcoeff"
        _write_lines(Path(args.dump_edges), provenance_lines(cfg), [header] + rows)
        print(f"wrote {args.dump_edges} ({len(rows)} edges)")
    return 0


def _add_common(parser: argparse.ArgumentParser, log: bool = True) -> None:
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a single config key (repeatable)",
    )
    parser.add_argument("--seed", type=int, help="override the run seed")
    if log:
        parser.add_argument("--log", help="event log TSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jobfit",
        description="Two-way person-job matching on dual-perspective interaction graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p, log=False)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="report (and optionally write) the temporal split")
    _add_common(p)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a model and save the best checkpoint")
    _add_common(p)
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint with ranked metrics")
    _add_common(p)
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--report", help="write the metric table to this TSV")
    p.add_argument("--split", choices=("valid", "test"), default="test")
    p.add_argument("--k", type=int, help="cutoff for recall/precision/ndcg")
    p.add_argument("--sparsity-groups", action="store_true",
                   help="add per-sparsity-group metric rows")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="train/evaluate across a hyper-parameter grid")
    _add_common(p)
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--axis", choices=SWEEP_AXES)
    p.add_argument("--grid", help="comma-separated grid values")
    p.add_argument("--out", required=True, help="output TSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("score-pair", help="score one candidate/job pair with a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--candidate", type=int, required=True)
    p.add_argument("--job", type=int, required=True)
    p.set_defaults(func=cmd_score_pair)

    p = sub.add_parser("inspect-graph", help="summarize the training interaction graph")
    _add_common(p)
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--dump-edges", help="write src/dst/class/coeff TSV")
    p.set_defaults(func=cmd_inspect_graph)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Output files get their directory first, so a long run can write its result.
        for out in (getattr(args, dest, None) for dest in ("out", "report", "dump_edges")):
            if out:
                Path(out).parent.mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except (ConfigError, DataFormatError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JobfitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
