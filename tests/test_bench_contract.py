"""The library names the benchmark traces and probes must resolve.

bench/spans.py skips a traced name that does not exist, so a rename in
jobfit would only show up as a zeroed layer metric or a failed probe when
the benchmark runs. The tables are read from bench/run.py's source, not
imported, because importing it pins the BLAS thread variables.
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
