"""End-to-end command tests driving main() in process."""

import hashlib
import logging
import os
import shutil
import stat
import struct
import subprocess
import sys
import zlib
from dataclasses import fields, replace
from importlib.metadata import entry_points
from pathlib import Path

import numpy as np
import pytest

import jobfit
from jobfit import evaluation
from jobfit.cli import (
    DEFAULT_GRIDS,
    KEY_ALIASES,
    RunConfig,
    config_hash,
    main,
    make_run_config,
    parse_config_file,
    variant_for,
    _coerce,
    _parse_grid,
    _sha256,
)
from jobfit.corpus import SyntheticSpec, load_events
from jobfit.errors import ConfigError
from jobfit.model import VariantConfig
from jobfit.optim import CKPT_MAGIC, CKPT_VERSION, TrainConfig, load_checkpoint, save_checkpoint

SYNTH_ARGS = [
    "--set", "n=40", "--set", "m=30", "--set", "d_latent=4", "--set", "d_o=6",
    "--set", "days=30", "--set", "apply_rate=0.5", "--set", "reachout_rate=0.5",
    "--set", "match_threshold=-0.5", "--set", "asymmetry=0.3", "--seed", "7",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic corpus plus a config file and one trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--out-dir", str(data)] + SYNTH_ARGS) == 0
    config = root / "run.cfg"
    config.write_text(
        "\n".join(
            [
                "# small end-to-end run",
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
    run = root / "run"
    assert main(["train", "--config", str(config), "--out-dir", str(run)]) == 0
    return {"root": root, "data": data, "config": config, "run": run}


class TestSynth:
    def test_outputs_and_summary(self, workdir, capsys):
        out = workdir["root"] / "synth2"
        assert main(["synth", "--out-dir", str(out)] + SYNTH_ARGS) == 0
        stdout = capsys.readouterr().out
        assert "events.tsv with" in stdout
        assert "(40 x 6)" in stdout
        for name in ("events.tsv", "candidates.emb", "jobs.emb", "manifest.cfg"):
            assert (out / name).exists()
        log = load_events(out / "events.tsv")
        assert (log.n, log.m) == (40, 30)

    def test_byte_deterministic(self, workdir):
        a = workdir["data"]
        b = workdir["root"] / "synth2"
        for name in ("events.tsv", "candidates.emb", "jobs.emb", "manifest.cfg"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_events_carry_provenance_comments(self, workdir):
        text = (workdir["data"] / "events.tsv").read_text().splitlines()
        assert text[0].startswith("#n=40\tm=30")
        assert text[1] == "# tool=jobfit 0.1.0"
        assert text[2].startswith("# config=")
        assert text[3] == "# seed=7"

    def test_manifest_reproduces_dataset(self, workdir):
        # the manifest is itself a config file; re-running synth from it
        # must regenerate identical bytes
        out = workdir["root"] / "from_manifest"
        rc = main(
            ["synth", "--config", str(workdir["data"] / "manifest.cfg"), "--out-dir", str(out)]
        )
        assert rc == 0
        assert (out / "events.tsv").read_bytes() == (workdir["data"] / "events.tsv").read_bytes()

    def test_manifest_lists_generator_settings_only(self, workdir):
        lines = (workdir["data"] / "manifest.cfg").read_text().splitlines()
        keys = [line.partition(" = ")[0] for line in lines if not line.startswith("#")]
        assert keys == [
            "n", "m", "d_latent", "d_o", "days", "apply_rate", "reachout_rate",
            "match_threshold", "asymmetry", "seed",
        ]


class TestSplit:
    def test_summary_lines(self, workdir, capsys):
        assert main(["split", "--config", str(workdir["config"])]) == 0
        out = capsys.readouterr().out
        assert "n=40 m=30 boundaries: valid>=20 test>=25" in out
        assert "train: applies=" in out
        assert "matches=14" in out  # valid split

    def test_written_splits_partition_days(self, workdir):
        out = workdir["root"] / "splits"
        assert main(["split", "--config", str(workdir["config"]), "--out-dir", str(out)]) == 0
        train = load_events(out / "train.tsv")
        valid = load_events(out / "valid.tsv")
        test = load_events(out / "test.tsv")
        full = load_events(workdir["data"] / "events.tsv")
        assert all(day == 0 for day in train.days)
        assert all(day == 20 for day in valid.days)
        assert all(day == 25 for day in test.days)
        total = len(train.days) + len(valid.days) + len(test.days)
        # reconciliation only ever removes events
        assert 0 < total <= len(full.days)


class TestTrain:
    def test_artifacts(self, workdir, capsys):
        run = workdir["run"]
        ckpt = load_checkpoint(run / "checkpoint.bin")
        assert (ckpt.n, ckpt.m) == (40, 30)
        assert ckpt.d_e == 8
        lines = (run / "history.tsv").read_text().splitlines()
        assert lines[0] == "# tool=jobfit 0.1.0"
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "epoch\tloss_main\tloss_ssl\tval_mrr_cand\tval_mrr_job"
        rows = lines[header_idx + 1 :]
        assert len(rows) == 3
        for row in rows:
            cells = row.split("\t")
            assert len(cells) == 5
            assert all(np.isfinite(float(c)) for c in cells[1:])

    def test_deterministic_artifacts(self, workdir):
        again = workdir["root"] / "run_again"
        assert main(["train", "--config", str(workdir["config"]), "--out-dir", str(again)]) == 0
        for name in ("checkpoint.bin", "history.tsv"):
            assert (again / name).read_bytes() == (workdir["run"] / name).read_bytes(), name

    def test_checkpoint_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """Importing jobfit pins BLAS to one thread, whatever the environment asks.

        The README corpus is large enough for multi-threaded BLAS to split
        its dense products and sum them in another order.
        """
        data = tmp_path / "data"
        assert main(["synth", "--out-dir", str(data), "--seed", "7"]) == 0
        config = tmp_path / "run.cfg"
        config.write_text(
            f"log = {data / 'events.tsv'}\n"
            f"cand_embeddings = {data / 'candidates.emb'}\n"
            f"job_embeddings = {data / 'jobs.emb'}\n"
            "t_valid_start = 84\nt_test_start = 95\nd_e = 48\nd_t = 16\nlr = 0.05\n"
            "batch_size = 256\nmax_epochs = 2\nlambda = 0.001\ntau = 5.0\n"
        )
        package_root = str(Path(jobfit.__file__).resolve().parents[1])
        checkpoints = []
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (package_root, env.get("PYTHONPATH")) if p
            )
            out = tmp_path / f"threads-{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "jobfit.cli", "train", "--config", str(config),
                 "--out-dir", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            checkpoints.append((out / "checkpoint.bin").read_bytes())
        assert checkpoints[0] == checkpoints[1]

    @pytest.mark.parametrize("count", [30, 5000])
    def test_oversized_ssl_negatives_exit_2_before_setup(
        self, workdir, tmp_path, capsys, monkeypatch, count
    ):
        """30 is min(n, m) for the 40 x 30 corpus: no job can have 30 distinct negatives."""

        def no_graph(*args):
            raise AssertionError("built the training graph")

        monkeypatch.setattr(jobfit.optim, "build_variant_graph", no_graph)
        out = tmp_path / "run"
        rc = main(
            ["train", "--config", str(workdir["config"]), "--set", f"ssl_negatives={count}",
             "--out-dir", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "ssl_negatives must be below min(n, m)" in err
        assert f"got {count} for n=40 candidates and m=30 jobs" in err
        assert not out.exists()

    def test_oversized_ssl_negatives_train_without_contrastive_term(self, workdir, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["train", "--config", str(workdir["config"]), "--variant", "no-ssl",
             "--set", "ssl_negatives=5000", "--out-dir", str(out)]
        )
        assert rc == 0
        assert (out / "checkpoint.bin").exists()

    def test_variant_flag_changes_checkpoint(self, workdir):
        out = workdir["root"] / "run_nodpg"
        rc = main(
            ["train", "--config", str(workdir["config"]), "--variant", "no-dpg",
             "--set", "self_edges=off", "--out-dir", str(out)]
        )
        assert rc == 0
        ckpt = load_checkpoint(out / "checkpoint.bin")
        assert not ckpt.variant.dual_graph
        assert ckpt.layout.node_count == 70


class TestEval:
    def test_stdout_table(self, workdir, capsys):
        rc = main(
            ["eval", "--config", str(workdir["config"]),
             "--checkpoint", str(workdir["run"] / "checkpoint.bin"), "--split", "valid"]
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "direction\tmetric\tvalue"
        assert any(line.startswith("candidates\tmrr\t") for line in out)
        assert any(line.startswith("jobs\tcount\t14") for line in out)
        metrics = {tuple(l.split("\t")[:2]) for l in out[1:]}
        assert ("candidates", "recall_at_2") in metrics
        assert ("jobs", "ndcg_at_2") in metrics

    def test_report_file_deterministic(self, workdir):
        report_a = workdir["root"] / "a.tsv"
        report_b = workdir["root"] / "b.tsv"
        for path in (report_a, report_b):
            rc = main(
                ["eval", "--config", str(workdir["config"]),
                 "--checkpoint", str(workdir["run"] / "checkpoint.bin"),
                 "--split", "test", "--report", str(path)]
            )
            assert rc == 0
        assert report_a.read_bytes() == report_b.read_bytes()
        lines = report_a.read_text().splitlines()
        assert "# k=2" in lines
        assert "# split=test" in lines
        assert "# seed=1" in lines  # eval seed, not the train seed

    def test_sparsity_groups_add_group_column(self, workdir, capsys):
        rc = main(
            ["eval", "--config", str(workdir["config"]),
             "--checkpoint", str(workdir["run"] / "checkpoint.bin"),
             "--split", "valid", "--sparsity-groups"]
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "direction\tgroup\tmetric\tvalue"
        groups = {line.split("\t")[1] for line in out[1:] if "\t" in line}
        assert {"all", "g1", "g2", "g3", "g4", "g5"} <= groups
        counts = [
            int(line.split("\t")[3])
            for line in out[1:]
            if line.startswith("candidates\tg") and "\tcount\t" in line
        ]
        all_count = next(
            int(line.split("\t")[3]) for line in out[1:]
            if line.startswith("candidates\tall\tcount")
        )
        assert sum(counts) == all_count

    def test_sparsity_groups_score_each_instance_once(self, workdir, monkeypatch):
        calls = []

        def counting_pair_scores(*args):
            calls.append(args)
            return real_pair_scores(*args)

        real_pair_scores = evaluation.pair_scores
        monkeypatch.setattr(evaluation, "pair_scores", counting_pair_scores)
        rc = main(
            ["eval", "--config", str(workdir["config"]),
             "--checkpoint", str(workdir["run"] / "checkpoint.bin"),
             "--split", "valid", "--sparsity-groups"]
        )
        assert rc == 0
        assert len(calls) == 2  # one grid per direction

    def test_report_directory_is_made(self, workdir, tmp_path):
        report = tmp_path / "nodir" / "sub" / "report.tsv"
        rc = main(
            ["eval", "--config", str(workdir["config"]),
             "--checkpoint", str(workdir["run"] / "checkpoint.bin"), "--report", str(report)]
        )
        assert rc == 0
        assert report.read_text().startswith("# tool=jobfit")

    def test_variant_mismatch_exits_2(self, workdir, capsys):
        rc = main(
            ["eval", "--config", str(workdir["config"]), "--variant", "no-ssl",
             "--checkpoint", str(workdir["run"] / "checkpoint.bin"), "--split", "valid"]
        )
        assert rc == 2
        assert "variant" in capsys.readouterr().err

    def test_k_flag_overrides_config(self, workdir, capsys):
        rc = main(
            ["eval", "--config", str(workdir["config"]), "--k", "1",
             "--checkpoint", str(workdir["run"] / "checkpoint.bin"), "--split", "valid"]
        )
        assert rc == 0
        assert "recall_at_1" in capsys.readouterr().out

    def test_missing_checkpoint_exits_2(self, workdir, capsys):
        rc = main(
            ["eval", "--config", str(workdir["config"]),
             "--checkpoint", str(workdir["root"] / "nope.bin"), "--split", "valid"]
        )
        assert rc == 2
        assert "missing file" in capsys.readouterr().err


class TestSweep:
    def test_grid_rows(self, workdir, capsys):
        out = workdir["root"] / "sweep.tsv"
        rc = main(
            ["sweep", "--config", str(workdir["config"]), "--set", "max_epochs=1",
             "--axis", "layers", "--grid", "0,1", "--out", str(out)]
        )
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("layers\tcand_recall_at_2")
        assert len(lines) == 3
        assert lines[1].split("\t")[0] == "0"
        assert lines[2].split("\t")[0] == "1"
        stdout = capsys.readouterr().out
        assert "layers=0:" in stdout and "layers=1:" in stdout

    def test_out_directory_is_made_before_training(self, workdir, tmp_path, monkeypatch):
        out = tmp_path / "nodir" / "sub" / "s.tsv"
        real_train = jobfit.cli.train

        def train_after_mkdir(*args):
            assert out.parent.is_dir()
            return real_train(*args)

        monkeypatch.setattr(jobfit.cli, "train", train_after_mkdir)
        rc = main(
            ["sweep", "--config", str(workdir["config"]), "--set", "max_epochs=1",
             "--axis", "layers", "--grid", "0", "--out", str(out)]
        )
        assert rc == 0
        assert out.read_text().splitlines()[-1].startswith("0\t")

    @pytest.mark.parametrize(
        "variant, axis, grid",
        [("no-ssl", "tau", "0.5,5"), ("no-ssl", "lambda", "0.1,0.2"), ("full", "lambda", "0"),
         ("full", "layers", "1,-1")],
    )
    def test_axis_without_contrastive_term_exits_2_before_training(
        self, workdir, tmp_path, capsys, monkeypatch, variant, axis, grid
    ):
        def no_training(*args):
            raise AssertionError("trained a grid point")

        monkeypatch.setattr(jobfit.cli, "train", no_training)
        out = tmp_path / "s.tsv"
        rc = main(
            ["sweep", "--config", str(workdir["config"]), "--variant", variant,
             "--axis", axis, "--grid", grid, "--out", str(out)]
        )
        assert rc == 2
        # A grid value that fails validation is refused before any point trains.
        expected = {"layers": "layers must be >= 0, got -1"}.get(
            axis, f"variant {variant!r} has no contrastive term for {axis}"
        )
        assert expected in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_grid_values_warn_and_collapse(self, caplog):
        with caplog.at_level(logging.WARNING, logger="jobfit.cli"):
            values = _parse_grid("tau", "0.1,0.1,0.2")
        assert values == [0.1, 0.2]
        assert "duplicate grid value" in caplog.text

    def test_empty_grid_exits_2(self, workdir, capsys):
        rc = main(
            ["sweep", "--config", str(workdir["config"]), "--axis", "tau",
             "--grid", " , ,", "--out", str(workdir["root"] / "x.tsv")]
        )
        assert rc == 2
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "axis, grid, token", [("tau", "0.1,abc", "abc"), ("layers", "1.5", "1.5")]
    )
    def test_unparsable_grid_value_exits_2(self, workdir, capsys, axis, grid, token):
        rc = main(
            ["sweep", "--config", str(workdir["config"]), "--axis", axis,
             "--grid", grid, "--out", str(workdir["root"] / "x.tsv")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"key {axis!r}: cannot parse {token!r}" in err

    def test_default_grids_cover_all_axes(self):
        assert set(DEFAULT_GRIDS) == {"layers", "tau", "lambda", "omega"}
        for axis, text in DEFAULT_GRIDS.items():
            assert _parse_grid(axis, text)

    def test_lambda_axis_maps_to_ssl_weight(self, workdir):
        out = workdir["root"] / "sweep_lambda.tsv"
        rc = main(
            ["sweep", "--config", str(workdir["config"]), "--set", "max_epochs=1",
             "--axis", "lambda", "--grid", "0.0,0.1", "--out", str(out)]
        )
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("lambda\t")
        assert len(lines) == 3


class TestScorePair:
    def test_prints_both_directions(self, workdir, capsys):
        rc = main(
            ["score-pair", "--config", str(workdir["config"]),
             "--checkpoint", str(workdir["run"] / "checkpoint.bin"),
             "--candidate", "3", "--job", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        values = dict(line.split("=") for line in out)
        assert set(values) == {"candidate_to_job", "job_to_candidate", "combined"}
        r, s, y = (float(values[key]) for key in ("candidate_to_job", "job_to_candidate", "combined"))
        assert y == pytest.approx(0.5 * (r + s), abs=1e-5)

    def test_out_of_range_ids_exit_2(self, workdir, capsys):
        rc = main(
            ["score-pair", "--config", str(workdir["config"]),
             "--checkpoint", str(workdir["run"] / "checkpoint.bin"),
             "--candidate", "40", "--job", "0"]
        )
        assert rc == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["score-pair", "--candidate", "7", "--job", "2"],
            ["eval", "--split", "test"],
            ["eval", "--split", "valid", "--sparsity-groups"],
        ],
        ids=["score-pair", "eval-test", "eval-valid-sparsity"],
    )
    def test_reads_the_stored_z_without_graph_work(self, workdir, capsys, monkeypatch, command):
        args = [*command, "--config", str(workdir["config"]),
                "--checkpoint", str(workdir["run"] / "checkpoint.bin")]
        assert main(args) == 0
        expected = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError(f"{command[0]} rebuilt state from the input files")

        for name, module in list(sys.modules.items()):
            if name.startswith("jobfit."):
                for attr in ("load_events", "temporal_split", "load_doc_embeddings",
                             "build_graph", "propagate"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, refuse)
        assert main(args) == 0
        assert capsys.readouterr().out == expected


def _changed_log(workdir, tmp_path):
    """events.tsv with one event moved to another day; n and m unchanged."""
    lines = (workdir["data"] / "events.tsv").read_text().splitlines()
    idx = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    kind, cand, job, day = lines[idx].split("\t")
    lines[idx] = "\t".join([kind, cand, job, str((int(day) + 1) % 30)])
    path = tmp_path / "events.tsv"
    path.write_text("\n".join(lines) + "\n")
    return ["--set", f"log={path}"], str(path)


def _changed_docs(workdir, tmp_path):
    blob = bytearray((workdir["data"] / "candidates.emb").read_bytes())
    blob[-1] ^= 0x01
    path = tmp_path / "candidates.emb"
    path.write_bytes(bytes(blob))
    return ["--set", f"cand_embeddings={path}"], str(path)


def _shifted_boundary(workdir, tmp_path):
    return ["--set", "t_valid_start=21"], "t_valid_start=21"


def _zero_job_docs(workdir, tmp_path):
    return ["--set", "job_embeddings="], "job documents (zero table)"


class TestTrainingInputs:
    """A checkpoint answers only for the inputs it was trained on."""

    @pytest.mark.parametrize("command", ["score-pair", "eval"])
    @pytest.mark.parametrize(
        "change", [_changed_log, _changed_docs, _shifted_boundary, _zero_job_docs],
        ids=["log-line", "emb-bytes", "boundary", "zero-table"],
    )
    def test_changed_input_exits_2_naming_it(self, workdir, tmp_path, capsys, command, change):
        extra, named = change(workdir, tmp_path)
        ckpt = str(workdir["run"] / "checkpoint.bin")
        if command == "score-pair":
            tail = ["--candidate", "1", "--job", "1"]
        else:
            tail = ["--split", "valid"]
        rc = main([command, "--config", str(workdir["config"]), *extra,
                   "--checkpoint", ckpt, *tail])
        assert rc == 2
        err = capsys.readouterr().err
        assert ckpt in err and named in err and "differs" in err

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_version_file_exits_2_with_retrain_hint(self, workdir, tmp_path, capsys, version):
        blob = bytearray((workdir["run"] / "checkpoint.bin").read_bytes())
        struct.pack_into("<I", blob, 8, version)
        body = bytes(blob[:-4])
        path = tmp_path / f"v{version}.bin"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        rc = main(["score-pair", "--config", str(workdir["config"]), "--checkpoint", str(path),
                   "--candidate", "1", "--job", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"version {version}" in err and "retrain" in err

    def test_header_cut_short_exits_2_as_truncated(self, workdir, tmp_path, capsys):
        body = CKPT_MAGIC + struct.pack("<I", CKPT_VERSION)
        path = tmp_path / "short.bin"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        rc = main(["score-pair", "--config", str(workdir["config"]), "--checkpoint", str(path),
                   "--candidate", "1", "--job", "1"])
        assert rc == 2
        assert f"{path}: truncated checkpoint" in capsys.readouterr().err

    def test_zero_tables_of_another_width_exit_2(self, workdir, tmp_path, capsys):
        no_docs = ["--config", str(workdir["config"]), "--set", "cand_embeddings=",
                   "--set", "job_embeddings=", "--set", "max_epochs=1"]
        assert main(["train", *no_docs, "--out-dir", str(tmp_path)]) == 0
        query = ["--checkpoint", str(tmp_path / "checkpoint.bin"), "--candidate", "1", "--job", "1"]
        assert main(["score-pair", *no_docs, *query]) == 0
        capsys.readouterr()
        assert main(["score-pair", *no_docs, "--set", "d_o=5", *query]) == 2
        assert "zero document tables of d_o=5" in capsys.readouterr().err

    @pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, 5 << 19])
    def test_streamed_input_digest_equals_whole_file_digest(self, tmp_path, size):
        data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
        path = tmp_path / "input.bin"
        path.write_bytes(data)
        assert _sha256(str(path)) == hashlib.sha256(data).digest()

    def test_checkpoint_without_fingerprint_exits_2(self, workdir, tmp_path, capsys):
        path = tmp_path / "bare.bin"
        ckpt = load_checkpoint(workdir["run"] / "checkpoint.bin")
        save_checkpoint(replace(ckpt, fingerprint=None), path)
        rc = main(["score-pair", "--config", str(workdir["config"]), "--checkpoint", str(path),
                   "--candidate", "1", "--job", "1"])
        assert rc == 2
        assert "retrain" in capsys.readouterr().err


class TestInspectGraph:
    def test_summary(self, workdir, capsys):
        assert main(["inspect-graph", "--config", str(workdir["config"])]) == 0
        out = capsys.readouterr().out
        assert "layout=dual nodes=140 candidates=40 jobs=30" in out
        assert "edges: match=" in out
        assert "self=70" in out
        assert "degrees: min=" in out

    def test_single_layout_variant(self, workdir, capsys):
        rc = main(
            ["inspect-graph", "--config", str(workdir["config"]), "--variant", "no-dpg"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "layout=single nodes=70" in out
        assert "self=0" in out

    def test_edge_dump(self, workdir, capsys):
        dump = workdir["root"] / "edges.tsv"
        rc = main(
            ["inspect-graph", "--config", str(workdir["config"]), "--dump-edges", str(dump)]
        )
        assert rc == 0
        summary = capsys.readouterr().out
        edge_total = sum(
            int(part.split("=")[1])
            for part in summary.splitlines()[1].replace("edges: ", "").split()
        )
        lines = [l for l in dump.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "src\tdst\tclass\tcoeff"
        assert len(lines) - 1 == edge_total
        src, dst, cls, coeff = lines[1].split("\t")
        assert int(src) < int(dst)
        assert cls in {"match", "uni", "self"}
        assert float(coeff) > 0


class TestConfigHandling:
    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nn = 5\n\nm=7\nn = 6\n")
        assert parse_config_file(path) == {"n": "6", "m": "7"}

    def test_parse_config_file_rejects_bare_words(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("verbose\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(path)

    def test_aliases(self):
        cfg = make_run_config({"lambda": "0.25", "lr": "0.02"})
        assert cfg.ssl_weight == 0.25
        assert cfg.learning_rate == 0.02
        assert KEY_ALIASES == {"lambda": "ssl_weight", "lr": "learning_rate"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'depth'"):
            make_run_config({"depth": "3"})

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            make_run_config({"layers": "three"})

    def test_bad_boundaries_rejected(self):
        with pytest.raises(ConfigError, match="t_valid_start"):
            make_run_config({"t_valid_start": "9", "t_test_start": "9"})

    def test_derived_configs_read_every_shared_field(self):
        inherited = {f.name for f in fields(TrainConfig)} | {f.name for f in fields(SyntheticSpec)}
        assert inherited <= {f.name for f in fields(RunConfig)}
        assert inherited.isdisjoint(RunConfig.__annotations__)
        axes = ("ssl_weight", "omega", "layers", "self_edges")
        assert all(getattr(RunConfig(), a) == getattr(VariantConfig(), a) for a in axes)
        cfg = make_run_config(
            {"ssl_negatives": "7", "asymmetry": "0.25", "k": "9", "omega": "0.5",
             "layers": "2", "lambda": "0.3", "self_edges": "off"}
        )
        assert (cfg.ssl_negatives, cfg.asymmetry, cfg.k) == (7, 0.25, 9)
        variant = variant_for(cfg)
        assert [getattr(variant, a) for a in axes] == [0.3, 0.5, 2, "off"]

    @pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
    def test_every_key_parses_back(self, field):
        value = getattr(make_run_config({field.name: str(field.default)}), field.name)
        assert value == field.default
        assert type(value) is type(field.default)

    def test_readme_config_block_matches_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Configuration", 1)[1].split("```")[1]
        entries = [line.split("#")[0] for line in block.splitlines()[1:]]
        pairs = [[part.strip() for part in e.split("=")] for e in entries if e.strip()]
        assert "seed" in dict(pairs)
        for key, value in pairs:
            assert _coerce(key, value) == getattr(RunConfig(), KEY_ALIASES.get(key, key)), key

    def test_config_hash_pinned(self):
        assert config_hash(RunConfig()) == "dd7495331874"
        assert config_hash(replace(RunConfig(), seed=3, n=5)) == "6fa6dac13445"

    def test_generator_settings_checked_for_every_command(self, capsys):
        assert main(["split", "--set", "apply_rate=2"]) == 2
        assert "apply_rate must lie in [0, 1], got 2.0" in capsys.readouterr().err

    def test_config_hash_stable_and_sensitive(self):
        a = RunConfig()
        b = RunConfig()
        c = RunConfig(seed=1)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)
        assert len(config_hash(a)) == 12

    def test_unknown_set_key_exits_2(self, workdir, capsys):
        rc = main(["split", "--config", str(workdir["config"]), "--set", "nope=1"])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_set_exits_2(self, workdir, capsys):
        rc = main(["split", "--config", str(workdir["config"]), "--set", "seed"])
        assert rc == 2
        assert "key=value" in capsys.readouterr().err

    def test_seed_flag_beats_file_and_set(self, workdir, tmp_path, capsys):
        out = tmp_path / "seeded"
        rc = main(
            ["synth", "--set", "n=10", "--set", "m=10", "--set", "d_latent=2",
             "--set", "d_o=2", "--set", "days=5", "--set", "seed=1", "--seed", "9",
             "--out-dir", str(out)]
        )
        assert rc == 0
        manifest = (out / "manifest.cfg").read_text()
        assert "seed = 9" in manifest

    def test_missing_log_exits_2(self, capsys):
        rc = main(["split", "--set", "n=4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown config key" in err or "event log" in err

    def test_no_log_configured_exits_2(self, capsys):
        rc = main(["split"])
        assert rc == 2
        assert "no event log configured" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "case",
        ["missing", "non-utf8-log", "non-utf8-config", "directory-log", "k=0",
         "sweep_axis=bogus"],
    )
    def test_unreadable_log_path_exits_2(self, case, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"#n=2\tm=2\napply\t0\t0\t\xff\n")
        args, message = {
            "missing": (["--log", "/nonexistent/events.tsv"], "missing file"),
            "non-utf8-log": (["--log", str(bad)], f"{bad}: not UTF-8"),
            "non-utf8-config": (["--config", str(bad)], f"{bad}: not UTF-8"),
            "directory-log": (["--log", str(tmp_path)], str(tmp_path)),
            "k=0": (["--set", "k=0"], "k must be positive, got 0"),
            "sweep_axis=bogus": (
                ["--set", "sweep_axis=bogus"],
                "sweep_axis must be one of ('layers', 'tau', 'lambda', 'omega'), got 'bogus'",
            ),
        }[case]
        rc = main(["split", *args])
        assert rc == 2
        assert message in capsys.readouterr().err


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_console_script() -> str:
    """The `module:attr` that pyproject.toml declares for the jobfit script."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["jobfit"]


class TestConsoleScript:
    def test_entry_point_installed(self, tmp_path):
        """The declared console script, launched as pip would, runs the CLI.

        Writes the launcher an install generates for `[project.scripts]` and
        runs it from PATH, so no installed package is needed.
        """
        module, attr = declared_console_script().split(":")
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        launcher = bin_dir / "jobfit"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({attr}())\n"
        )
        launcher.chmod(launcher.stat().st_mode | stat.S_IXUSR)

        package_root = str(Path(jobfit.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        exe = shutil.which("jobfit", path=env["PATH"])
        assert exe == str(launcher)
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "score-pair" in proc.stdout

    @pytest.mark.skipif(
        shutil.which("jobfit") is None, reason="jobfit console script not installed"
    )
    def test_installed_script_matches_declaration(self):
        proc = subprocess.run(
            [shutil.which("jobfit"), "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "score-pair" in proc.stdout
        (ep,) = entry_points(group="console_scripts", name="jobfit")
        assert ep.value == declared_console_script()
