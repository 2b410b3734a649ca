import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"


def run_script(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(REPO / "scripts" / script), *args], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("script,summary", [
    ("certify_tanh2.py", "analytic rigorous: True; sampled rigorous: False"),
    ("trace_tanh2_branches.py", "3 branch(es); roots at lambda=0.5: 1, at lambda=2: 3"),
])
def test_script_runs_to_its_summary(script, summary):
    done = run_script(script)
    assert done.returncode == 0, done.stderr
    assert summary in done.stdout.splitlines()


def test_certify_script_report_matches_the_cli_golden(tmp_path):
    # the script's analytic run is ls-certify on configs/tanh2_certify_analytic.json
    # with one more r_par (2.5): the 27 radius pairs the grids share, the
    # frontier and the base-point sections are the golden report's
    out = tmp_path / "report.json"
    done = run_script("certify_tanh2.py", "--out", str(out))
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    golden = json.loads((GOLDEN / "tanh2_analytic_nonmeta.json").read_text(encoding="utf-8"))
    assert doc["meta"]["command"] == "certify_tanh2.py" and doc["meta"]["rigorous"] is True
    assert doc["decomposition"] == golden["decomposition"]
    assert doc["frontier"] == golden["frontier"]
    keys = ("M_par", "M_perp", "L_par_rigorous", "L_perp_rigorous")
    assert [doc["quantities"][k] for k in keys] == [golden["quantities"][k] for k in keys]
    for got, want in ((doc["region"], golden["region"]),
                      (doc["quantities"]["deviation_bounds"],
                       golden["quantities"]["deviation_bounds"])):
        by_pair = {(row["r_par"], row["r_perp"]): row for row in got}
        assert len(got) == 30 and len(want) == 27
        assert [by_pair[row["r_par"], row["r_perp"]] for row in want] == want
