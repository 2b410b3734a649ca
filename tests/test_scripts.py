import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,summary", [
    ("certify_tanh2.py", "analytic rigorous: True; sampled rigorous: False"),
    ("trace_tanh2_branches.py", "3 branch(es); roots at lambda=0.5: 1, at lambda=2: 3"),
])
def test_script_runs_to_its_summary(script, summary):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(REPO / "scripts" / script)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert summary in done.stdout.splitlines()
