"""One benchmark run of one workload, in a fresh interpreter.

Runs the workload's CLI command in-process through `lscert.cli.main`, one op
after another (a closed loop with one client), until the time budget is
spent, and checks every op's output. With --trace 1 the budget is split: the
first half runs untraced, the second half traced, and the ratio of the two
median op times is the tracing overhead. A speed probe (speed.py) runs between
ops, so each op's time is also given at the probe's reference host speed.

Prints one JSON object as the last line of stdout. Started by run.py, which
puts the library's source directory on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import check
import speed
import tracer as tracing
from workloads import WORKLOADS

import lscert.cli
from lscert import sampling

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def run_op(command: str, config_path: str, out_path: Path, tr: tracing.Tracer | None = None):
    """Time one CLI call: (seconds, exit code or None when it raised, console text)."""
    if out_path.exists():
        out_path.unlink()
    argv = [command, "--config", config_path, "--out", str(out_path)]
    console = io.StringIO()
    with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
        start = perf_counter()
        try:
            if tr is None:
                code = lscert.cli.main(argv)
            else:
                code = tr.call_in_span(tracing.ROOT, lscert.cli.main, argv)
        except Exception as exc:  # an op that raises counts as failed, the run goes on
            code = None
            print(f"{type(exc).__name__}: {exc}")
        seconds = perf_counter() - start
    return seconds, code, console.getvalue()


def op_error(command: str, out_path: Path, code, console: str, config: dict,
             reference) -> str | None:
    """Why an op's result is wrong, or None when it passes check.py."""
    if code not in (0, 2):
        return f"exit code {code}: {console.strip()[-300:]}"
    try:
        if command == "trace":
            return check.check_trace(str(out_path), code, config, reference)
        return check.check_certify(command, str(out_path), code, reference)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _phase(workload, config_path, config, reference, out_path, budget, tr=None) -> list[dict]:
    """Ops until `budget` seconds are spent, each between two speed probes."""
    ops = []
    start = perf_counter()
    before = speed.gap_probe(workload.threads)
    while True:
        seconds, code, console = run_op(workload.command, config_path, out_path, tr)
        after = speed.gap_probe(workload.threads, seconds)
        error = op_error(workload.command, out_path, code, console, config, reference)
        ops.append({"seconds": seconds,
                    "ref_seconds": speed.at_reference_speed(seconds, before, after),
                    "traced": tr is not None, "error": error})
        before = after
        if perf_counter() - start >= budget:
            return ops


def _run_record() -> dict:
    thread_count = getattr(sampling, "thread_count", None)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "lscert_thread_count": thread_count() if thread_count is not None else "absent",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]
    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)
    reference = None
    if args.seed == 0:
        with open(REFERENCE_DIR / f"{workload.name}.json", encoding="utf-8") as fh:
            reference = json.load(fh)
    out_path = Path(args.work_dir) / f"{workload.name}.out"

    plain_budget = args.seconds / 2 if args.trace else args.seconds
    ops = _phase(workload, args.config, config, reference, out_path, plain_budget)
    result = {"record": _run_record()}
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
        traced = _phase(workload, args.config, config, reference, out_path,
                        args.seconds - plain_budget, tr)
        tr.uninstall()
        ops += traced
        layers = tracing.layer_metrics(tr, len(traced))
        layers["trace.overhead_ratio"] = (
            statistics.median(o["ref_seconds"] for o in traced)
            / statistics.median(o["ref_seconds"] for o in ops if not o["traced"]))
        result["layers"] = layers
        result["missing"] = tr.missing
        spans_path = Path(args.work_dir) / f"spans-{workload.name}-seed{args.seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tr.dump(), fh)
    result["ops"] = ops
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
