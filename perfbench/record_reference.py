"""Record the seed-0 reference outputs that check.py compares against.

    PYTHONPATH=src python3 perfbench/record_reference.py [WORKLOAD ...]

Run once on a commit whose certificates are trusted; the files in reference/
are then kept fixed. Each output must first pass the seed-independent checks.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import check
from worker import REFERENCE_DIR, op_error, run_op
from workloads import WORKLOADS


def record(name: str, tmp: Path) -> None:
    workload = WORKLOADS[name]
    config = workload.config(0)
    config_path = tmp / f"{name}.json"
    config_path.write_text(json.dumps(config))
    out_path = tmp / f"{name}.out"
    _, code, console = run_op(workload.command, str(config_path), out_path)
    error = op_error(workload.command, out_path, code, console, config, None)
    if error is not None:
        raise SystemExit(f"{name}: output fails the checks, not recorded: {error}")
    if workload.command == "trace":
        data = check.trace_rows(str(out_path))
    else:
        data = check.certify_summary(workload.command, str(out_path))
    (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(data, indent=1) + "\n")
    print(f"recorded {name}")


def main() -> None:
    names = sys.argv[1:] or sorted(WORKLOADS)
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            record(name, Path(tmp))


if __name__ == "__main__":
    main()
