"""What a fresh interpreter loads: the lazy package namespace and the CLI.

In-process tests cannot see a missing import, because earlier tests have
already loaded every module; each test here starts its own interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"
SUBMODULES = sorted(p.stem for p in (SRC / "lscert").glob("*.py") if not p.stem.startswith("__"))

LOADED = "print(sorted(m[7:] for m in sys.modules if m.startswith('lscert.')))"


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], cwd=REPO, env=env, capture_output=True,
                          text=True, timeout=120)


def loaded_after(code: str) -> list[str]:
    proc = run_python("-c", f"import sys\n{code}\n{LOADED}")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.replace("'", '"'))


def test_import_loads_no_submodule():
    assert loaded_after("import lscert") == []


def test_config_and_model_build_load_no_engine_module():
    # an expression model, and a builtin, which is built from DSL source too
    for name in ("ring4_certify_sampled.json", "tanh2_certify_sampled.json"):
        config = CONFIGS / name
        loaded = loaded_after(
            f"import lscert\nlscert.build_system(lscert.load_config({str(config)!r}).model)")
        assert "config" in loaded and "system" in loaded, name
        # a DSL model compiles its interval tree on the first enclosure it is asked for
        assert not {"imft", "ls_bounds", "reduction", "report", "cli", "interval"} & set(loaded), name


def test_every_public_name_and_submodule_resolves():
    # each public name is the object every submodule holds under that name
    code = f"""
import lscert
assert set(lscert.__all__) <= set(dir(lscert)), set(lscert.__all__) - set(dir(lscert))
values = {{name: getattr(lscert, name) for name in lscert.__all__}}
modules = [getattr(lscert, name) for name in {SUBMODULES!r}]
for module, name in zip(modules, {SUBMODULES!r}):
    assert module is sys.modules["lscert." + name] and name in dir(lscert), name
for name, value in values.items():
    holders = [getattr(m, name) for m in modules if hasattr(m, name)]
    assert name == "__version__" or holders, name
    assert all(h is value for h in holders), name
"""
    loaded = loaded_after(code)
    assert loaded == SUBMODULES


def non_meta_text(text: str) -> str:
    doc = json.loads(text)
    return json.dumps({k: v for k, v in doc.items() if k != "meta"}, indent=2) + "\n"


@pytest.mark.parametrize("command,config,golden", (
    ("ls-certify", "ring4_certify_sampled.json", "ring4_sampled_nonmeta.json"),
    ("imft-certify", "parabola_imft.json", "parabola_imft_nonmeta.json"),
    ("reduce", "tanh2_reduce.json", "tanh2_reduce.csv"),
    ("trace", "cubic_trace.json", "cubic_trace.csv"),
))
def test_cli_commands_in_a_fresh_interpreter(tmp_path, command, config, golden):
    out = tmp_path / golden
    proc = run_python("-m", "lscert", command, "--config", str(CONFIGS / config), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    want = (GOLDEN / golden).read_text(encoding="utf-8")
    got = out.read_text(encoding="utf-8")
    assert (non_meta_text(got) if golden.endswith(".json") else got) == want


def test_every_tracer_target_resolves():
    # the traced benchmark run drops the metrics of a target it cannot find,
    # and CI fails on any missing target beyond these two, which ls_bounds no
    # longer imports; a refactor that moves a traced name must keep it where
    # perfbench/tracer.py looks it up
    code = f"""
import runpy
tracer = runpy.run_path({str(REPO / "perfbench" / "tracer.py")!r})
targets = [t[:2] for kind in ("SPAN_TARGETS", "COUNTER_TARGETS", "QUANTITY_TARGETS")
           for t in tracer[kind]]
print(sorted(f"{{m}}.{{a}}" for m, a in targets if tracer["_resolve"](m, a) is None))
"""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    missing = set(json.loads(proc.stdout.replace("'", '"')))
    assert missing <= {"lscert.ls_bounds.ball_points", "lscert.ls_bounds.max_over"}
