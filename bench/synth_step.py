"""Run one ``jobfit synth`` in a process of its own and report its cost.

Usage: python3 bench/synth_step.py SRC_DIR TRACE(0|1) -- <jobfit synth arguments>

Prints one JSON line: exit code, start and end of the command on the clock
the runner shares, peak RSS of this process in MB, the reference
computation's (clock, seconds) right before and right after the command (see
bench/reference.py), the command's stdout, and (with TRACE=1) its spans. The runner starts this with thread counts already pinned
in the environment.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys

from reference import Reference
from spans import Tracer, clock


def peak_rss_mb() -> float:
    """High-water RSS of this process image.

    ``ru_maxrss`` survives exec, so in a child forked from a large parent it
    reports the parent's size; the kernel's VmHWM belongs to the new image.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_timing() -> tuple[float, float]:
    """(clock, seconds) of a warm run of the reference; its inputs are freed on return."""
    reference = Reference()
    reference.time()
    return clock(), reference.time()


def main() -> int:
    src, trace, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import jobfit.cli

    tracer = Tracer()
    if trace == "1":
        import jobfit.corpus as corpus

        for name in ("generate_synthetic", "write_events", "write_doc_embeddings"):
            tracer.wrap(corpus, name, f"corpus.{name}")
    out = io.StringIO()
    before = reference_timing()
    with contextlib.redirect_stdout(out), tracer.span("cli.synth") as span:
        code = jobfit.cli.main(["synth", *cli_args])
    peak = peak_rss_mb()
    after = reference_timing()
    tracer.restore()
    print(json.dumps({
        "exit": code,
        "span": [span["start"], span["end"]],
        "maxrss_mb": peak,
        "reference_s": [before, after],
        "stdout": out.getvalue(),
        "spans": tracer.spans if trace == "1" else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
