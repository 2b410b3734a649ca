"""Benchmark for lscert: time to a certificate and to a traced branch set.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn

Run from the root of a checkout; the library is imported from its `src/`.
One fresh worker process per run and one process at a time (see worker.py).

--trace 0 reports the end-to-end metrics:
  setup_s      median time of a fresh interpreter that imports lscert, loads
               the workload config and builds the model, as every CLI call
               does (SETUP_REPS runs after one warm-up run, half of them
               before the ops and half after)
  op_s         median time of one op, the CLI command run in-process
  peak_rss_mb  ru_maxrss of the worker process
Both times are wall times rescaled to a reference host speed by the probe in
speed.py, timed right before and after each step; the raw wall medians are
printed above the result.
--trace 1 reports the per-layer metrics of tracer.py plus
trace.overhead_ratio, and writes the spans under .perfbench_work/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. An op fails when it raises, exits with an unexpected code
or its output fails the checks in check.py; fail_frac is printed above it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

THREADS_ENV = "LS_CERTIFY_THREADS"
SETUP_REPS = 8
SETUP_SNIPPET = ("import sys, lscert; "
                 "lscert.build_system(lscert.load_config(sys.argv[1]).model)")
SETUP_TIMEOUT_S = 60
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


class BenchError(Exception):
    pass


def layer_units() -> dict[str, str]:
    """Unit of each per-layer metric, as BENCHMARK.json lists it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_env() -> dict:
    # the benchmark measures the defaults users get, so it never sets the
    # library's thread variable and drops it if the caller's shell has it
    env = os.environ.copy()
    env.pop(THREADS_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def time_setup(config_path: Path, env: dict, reps: int) -> list[tuple[float, float]]:
    """(wall seconds, seconds at reference speed) of each set-up run."""
    times = []
    before = speed.gap_probe(1)
    for _ in range(reps):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(config_path)], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=SETUP_TIMEOUT_S)
        seconds = perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
        after = speed.gap_probe(1, seconds)
        times.append((seconds, speed.at_reference_speed(seconds, before, after)))
        before = after
    return times


def run_worker(name: str, config_path: Path, seed: int, seconds: float, trace: int,
               env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--config", str(config_path), "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", str(WORK_DIR)]
    # the closed loop stops starting ops after `seconds`, so only a hung worker
    # (or an op slower than seconds + 120 s) reaches this timeout
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=2 * seconds + 120)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {name} exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail_percentile(times: list[float]):
    """(p, value) for the highest listed percentile with ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(times) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(times, n=100, method="inclusive")[p - 1]
    return None


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; print its summary and return the result object."""
    workload = WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    config_path = WORK_DIR / f"{name}-seed{seed}.json"
    config_path.write_text(json.dumps(workload.config(seed), indent=1) + "\n")
    env = child_env()
    if trace:
        out = run_worker(name, config_path, seed, seconds, trace, env)
    else:
        # half the set-up runs before the ops and half after, so the median
        # spans the run; the first one only warms the bytecode and file caches
        time_setup(config_path, env, 1)
        setup_times = time_setup(config_path, env, SETUP_REPS // 2)
        out = run_worker(name, config_path, seed, seconds, trace, env)
        setup_times += time_setup(config_path, env, SETUP_REPS - SETUP_REPS // 2)
        setup_s = statistics.median(ref for _, ref in setup_times)

    ops = out["ops"]
    failed = [o for o in ops if o["error"] is not None]
    plain = [o["ref_seconds"] for o in ops if not o["traced"]]
    record = dict(out["record"], git_sha=git_sha(),
                  **{THREADS_ENV: os.environ.get(THREADS_ENV, "unset")})
    print(f"[{name}] seed {seed}: {workload.command}, {len(ops)} op(s) in a closed loop "
          f"with one client; run record {json.dumps(record)}")
    for o in failed:
        print(f"[{name}] FAILED op: {o['error']}")
    print(f"[{name}] op wall times (s, t = traced): " + " ".join(
        f"{o['seconds']:.4f}{'t' if o['traced'] else ''}" for o in ops))
    op_s = statistics.median(plain)
    tail = tail_percentile(plain)
    print(f"[{name}] median untraced op {op_s:.4f} s at reference speed over {len(plain)} "
          f"op(s), {statistics.median(o['seconds'] for o in ops if not o['traced']):.4f} s wall; "
          + (f"p{tail[0]} {tail[1]:.4f} s" if tail
             else "no percentile above the median has ten ops beyond it"))
    if not trace:
        print(f"[{name}] median set-up {setup_s:.4f} s at reference speed over "
              f"{len(setup_times)} runs, {statistics.median(w for w, _ in setup_times):.4f} s wall")
    print(f"[{name}] fail_frac {len(failed) / len(ops):.4f} ({len(failed)} of {len(ops)})")
    if trace:
        units = layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in out["layers"].items()}
        if out["missing"]:
            print(f"[{name}] tracing: targets not found, their metrics dropped: "
                  + ", ".join(out["missing"]))
    else:
        metrics = {
            "op_s": {"value": op_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
    for key, m in metrics.items():
        print(f"[{name}] {key} {m['value']:.6g} {m['unit']}")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)  # BENCHMARK.json's run_seconds
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "lscert" / "__init__.py").is_file():
        print(f"error: no lscert sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    if not args.trace:
        print(f"\n{'workload':18} {'setup_s (s)':>12} {'op_s (s)':>9} {'peak_rss_mb (MB)':>17} "
              f"{'fail_frac':>10}")
        for n, r in results.items():
            m = r["metrics"]
            print(f"{n:18} {m['setup_s']['value']:12.4f} {m['op_s']['value']:9.4f} "
                  f"{m['peak_rss_mb']['value']:17.1f} {r['failed'] / r['attempted']:10.4f}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
