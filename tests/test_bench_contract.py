"""The library names, chain and call order the benchmark relies on.

bench/spans.py skips a traced name that does not exist, so a rename in
jobfit would only show up as a zeroed layer metric or a failed probe when
the benchmark runs; a broken check or probe turns a whole run into a
failure. The tables are read from bench/run.py's source, not imported,
because importing it pins the BLAS thread variables.
"""

import ast
import importlib
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def bench_table(name: str) -> tuple:
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN_PY} defines no {name}")


def resolve(module: str, dotted: str):
    owner = importlib.import_module(module)
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


TRACED = bench_table("TRACED")
PROBES = bench_table("PROBES")


@pytest.mark.parametrize("module, attr, span", TRACED, ids=[row[2] for row in TRACED])
def test_traced_name_resolves(module, attr, span):
    assert callable(resolve(module, attr)), f"{module}.{attr}"


@pytest.mark.parametrize("module, attr, span, site", PROBES, ids=[row[2] for row in PROBES])
def test_probe_site_binds_the_function(module, attr, span, site):
    assert resolve(site, attr) is resolve(module, attr), f"{site}.{attr} is not {module}.{attr}"


# ---- the library chain and call order bench/run.py relies on -------------

SYNTH = ["--set", "n=40", "--set", "m=30", "--set", "d_latent=4", "--set", "d_o=6",
         "--set", "days=30", "--set", "apply_rate=0.5", "--set", "reachout_rate=0.5",
         "--set", "match_threshold=-0.5", "--seed", "7"]


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    """A tiny corpus, its config and one checkpoint, all made through the CLI."""
    from jobfit.cli import main

    root = tmp_path_factory.mktemp("bench-contract")
    data = root / "data"
    assert main(["synth", "--out-dir", str(data), *SYNTH]) == 0
    config = root / "run.cfg"
    config.write_text(
        f"log = {data / 'events.tsv'}\ncand_embeddings = {data / 'candidates.emb'}\n"
        f"job_embeddings = {data / 'jobs.emb'}\nt_valid_start = 20\nt_test_start = 25\n"
        "d_e = 8\nd_t = 4\nmax_epochs = 2\nbatch_size = 32\nlr = 0.05\neval_negatives = 3\n"
    )
    out = root / "run"
    assert main(["train", "--config", str(config), "--out-dir", str(out)]) == 0
    return {"data": data, "config": config, "checkpoint": out / "checkpoint.bin"}


def test_check_outputs_chain_agrees_with_cli_score_pair(bench_run, capsys):
    """Replays Run.check_outputs: the library recomputation of a CLI score-pair."""
    import jobfit.cli
    from jobfit import corpus, model, optim

    ckpt = optim.load_checkpoint(bench_run["checkpoint"])
    assert isinstance(ckpt.best_metric, float) and ckpt.best_metric == ckpt.best_metric
    assert isinstance(ckpt.variant, model.VariantConfig)
    dataset = corpus.temporal_split(corpus.load_events(bench_run["data"] / "events.tsv"), 20, 25)
    assert ckpt.layout.node_count == 2 * (dataset.n + dataset.m)
    data = bench_run["data"]
    cand = corpus.load_doc_embeddings(data / "candidates.emb", corpus.Side.CANDIDATE, dataset.n)
    job = corpus.load_doc_embeddings(data / "jobs.emb", corpus.Side.JOB, dataset.m)
    params = optim.params_from_checkpoint(
        ckpt, cand.rows.astype("float64"), job.rows.astype("float64")
    )
    graph = model.build_variant_graph(dataset.train, dataset.n, dataset.m, ckpt.variant)
    z = model.propagate(params, graph, ckpt.variant).z
    capsys.readouterr()
    for cand_id, job_id in ((0, 0), (13, 7), (39, 29)):
        assert jobfit.cli.main(["score-pair", "--config", str(bench_run["config"]),
                                "--checkpoint", str(bench_run["checkpoint"]),
                                "--candidate", str(cand_id), "--job", str(job_id)]) == 0
        printed = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        got = [float(printed[k]) for k in ("candidate_to_job", "job_to_candidate", "combined")]
        want = model.score_pair(z, ckpt.layout, cand_id, job_id)
        assert all(abs(a - b) <= 5.0001e-7 for a, b in zip(got, want)), (got, want)


def spy_on(module, names, monkeypatch) -> list[str]:
    """Record each call of ``names`` as looked up in ``module``, in call order."""
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in names:
        spy(name, getattr(module, name))
    return calls


def test_eval_loads_only_the_checkpoint(bench_run, monkeypatch):
    """Run.eval_start times eval from its single cli.load_checkpoint call.

    Eval reads no event log or document table; the test instances are built
    after the load, inside the timed window.
    """
    import jobfit.cli

    calls = spy_on(jobfit.cli, ("_load_dataset", "_load_docs", "load_checkpoint",
                                "partner_maps", "build_eval_instances"), monkeypatch)
    assert jobfit.cli.main(["eval", "--config", str(bench_run["config"]),
                            "--checkpoint", str(bench_run["checkpoint"]), "--split", "test"]) == 0
    assert calls == ["load_checkpoint", "partner_maps", "build_eval_instances"]


def test_train_builds_eval_instances_once(bench_run, monkeypatch, tmp_path):
    """Run.train_loop starts the epoch loop where train() returns from this call.

    The partner lists are built before it, so they count as set-up.
    """
    import jobfit.cli
    import jobfit.optim

    calls = spy_on(jobfit.optim, ("partner_maps", "build_eval_instances"), monkeypatch)
    assert jobfit.cli.main(["train", "--config", str(bench_run["config"]),
                            "--out-dir", str(tmp_path)]) == 0
    assert calls == ["partner_maps", "build_eval_instances"]
