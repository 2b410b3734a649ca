import json
import math
from pathlib import Path

import numpy as np
import pytest

from lscert import (SupremumEstimator, build_split_system, build_system, estimate_ls_L,
                    evaluation_point, expr, imft, load_config, norms, system_from_expressions)
from lscert.cli import main, main_imft_certify, main_ls_certify

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

NON_META_KEYS = ("decomposition", "quantities", "region", "frontier")


def non_meta_text(doc: dict) -> str:
    """Canonical serialization of everything a golden comparison may pin."""
    assert set(doc) == {"meta", *NON_META_KEYS}
    return json.dumps({k: doc[k] for k in NON_META_KEYS}, indent=2) + "\n"


def write_config(tmp_path: Path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# --- ls-certify ----------------------------------------------------------------


def test_ls_certify_stdout_report(capsys):
    code = main(["ls-certify", "--config", str(CONFIGS / "tanh2_certify_analytic.json")])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert set(doc) == {"meta", *NON_META_KEYS}
    assert doc["meta"]["command"] == "ls-certify"
    assert doc["meta"]["estimator_mode"] == "analytic"
    assert doc["meta"]["rigorous"] is True
    assert doc["meta"]["base_residual"] == 0.0
    assert doc["quantities"]["M_par"] == 0.0
    assert doc["quantities"]["M_perp"] == pytest.approx(0.5, abs=1e-12)
    for row in doc["region"]:
        assert row["certified"] == (row["r_par"] < 2.0)
    for front in doc["frontier"]:
        # grid pass/fail bracket is (1.75, 2.0); one bisection level lands 1.875
        assert front["r_par_max"] == pytest.approx(1.875)
    assert doc["decomposition"]["q"] == 1
    assert doc["decomposition"]["n"] == 2


def test_ls_certify_summary_line_and_exit(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["ls-certify", "--config", str(CONFIGS / "tanh2_certify_analytic.json"),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "certified 21 of 27 radius pairs" in captured.out
    assert "max certified r_par = 1.875" in captured.out
    assert "rigorous = true" in captured.out
    assert json.loads(out.read_text(encoding="utf-8"))["meta"]["command"] == "ls-certify"


GOLDEN_CASES = (
    ("ls-certify", "tanh2_certify_analytic.json", "tanh2_analytic_nonmeta.json"),
    ("ls-certify", "tanh2_certify_sampled.json", "tanh2_sampled_nonmeta.json"),
    ("imft-certify", "parabola_imft.json", "parabola_imft_nonmeta.json"),
    # 3x2, 3x3 and 4x4 spectral norms of DSL Jacobian deviations over product lattices
    ("ls-certify", "ring4_certify_sampled.json", "ring4_sampled_nonmeta.json"),
    ("imft-certify", "ring4_imft.json", "ring4_imft_nonmeta.json"),
)


def test_reports_are_deterministic_and_match_golden(tmp_path, monkeypatch):
    # sampling runs in the calling thread and reads no environment variable,
    # so a malformed thread-count setting left over from older releases is inert
    monkeypatch.setenv("LS_CERTIFY_THREADS", "abc")
    for command, config, golden in GOLDEN_CASES:
        texts = []
        for i in range(2):
            out = tmp_path / f"{golden}.run{i}.json"
            code = main([command, "--config", str(CONFIGS / config), "--out", str(out)])
            assert code == 0, config
            texts.append(non_meta_text(json.loads(out.read_text(encoding="utf-8"))))
        assert texts[0] == texts[1], config
        assert texts[0] == (GOLDEN / golden).read_text(encoding="utf-8"), config


CSV_GOLDEN_CASES = (
    ("trace", "tanh2_trace.json", "tanh2_trace.csv"),
    ("trace", "cubic_trace.json", "cubic_trace.csv"),
    ("reduce", "tanh2_reduce.json", "tanh2_reduce.csv"),
)


def test_trace_and_reduce_csvs_are_deterministic_and_match_golden(tmp_path, capsys):
    for command, config, golden in CSV_GOLDEN_CASES:
        runs = []
        for i in range(2):
            out = tmp_path / f"{golden}.run{i}"
            assert main([command, "--config", str(CONFIGS / config), "--out", str(out)]) == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1], config
        assert runs[0] == (GOLDEN / golden).read_bytes(), config
    capsys.readouterr()


def test_builtin_and_expression_models_agree_bitwise(tmp_path):
    # the expression evaluator mirrors the builtin arithmetic operation for
    # operation, so even sampled deviation estimates match bit for bit; the
    # r_perp = 400 case drives tanh arguments past where cosh^2 overflows
    cases = (
        (9, {"r_par_grid": [0.5, 1.0, 1.5], "r_perp_grid": [0.5, 2.0]}),
        (5, {"r_par_grid": [1.0], "r_perp_grid": [400.0]}),
    )
    models = {
        "builtin": {"kind": "builtin", "name": "tanh2"},
        "expr": {"kind": "expr", "n": 2, "m": 1,
                 "source": "-x1 + tanh(l1*x2); -x2 + tanh(l1*x1)"},
    }
    for spd, grid in cases:
        texts = {}
        for name, model in models.items():
            cfg = write_config(tmp_path, f"{name}.json", {
                "model": model,
                "base_point": {"x0": [0.0, 0.0], "lambda0": [1.0]},
                "estimator": {"mode": "sampled", "samples_per_dim": spd},
                "certify": grid,
            })
            out = tmp_path / f"{name}_out.json"
            assert main(["ls-certify", "--config", cfg, "--out", str(out)]) == 0, (name, grid)
            texts[name] = non_meta_text(json.loads(out.read_text(encoding="utf-8")))
        assert texts["expr"] == texts["builtin"], grid


def test_nothing_certified_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "fail.json", {
        "model": {"kind": "builtin", "name": "tanh2"},
        "base_point": {"x0": [0.0, 0.0], "lambda0": [1.0]},
        "estimator": {"mode": "analytic", "L_par": "0",
                      "L_perp": "1 - min(0, 1 - rpar)"},
        "certify": {"r_par_grid": [2.0, 2.5], "r_perp_grid": [1.0]},
    })
    code = main(["ls-certify", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 2
    doc = json.loads(captured.out)
    assert all(not row["certified"] for row in doc["region"])
    assert doc["frontier"][0]["r_par_max"] is None


@pytest.mark.parametrize("lambda0, tol, r_par, r_perp", [
    (1e-6, 1e-5, 1e-8, 1e-7), (1e-11, None, 1e-13, 1e-12)],
    ids=["loose-tolerance", "default-tolerance"])
def test_a_base_residual_the_ball_cannot_absorb_is_refused(tmp_path, capsys, lambda0, tol,
                                                           r_par, r_perp):
    # the reduced map solves W^T Phi = 0, whose one solution beta = lambda0 of
    # x2 = l1 lies outside B(0, r_perp); the base point passes as an
    # equilibrium within tol, and both overrides are 0
    payload = {
        "model": {"kind": "expr", "source": "x1^2 - l1; x2 - l1", "n": 2, "m": 1},
        "base_point": {"x0": [0.0, 0.0], "lambda0": [lambda0]},
        "estimator": {"mode": "analytic", "L_par": "0*rpar", "L_perp": "0*rperp"},
        "certify": {"r_par_grid": [r_par], "r_perp_grid": [r_perp]},
    }
    if tol is not None:
        payload["equilibrium_tol"] = tol
    out = tmp_path / "residual.json"
    assert main(["ls-certify", "--config", write_config(tmp_path, "residual_cfg.json", payload),
                 "--out", str(out)]) == 2
    assert "certified 0 of 1 radius pairs; rigorous = true" in capsys.readouterr().out
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["meta"]["rigorous"] is True
    assert doc["meta"]["base_residual"] == lambda0
    # the domain margin as a reader recomputes it from the report
    quantities, (row,), (front,) = doc["quantities"], doc["region"], doc["frontier"]
    (bounds,) = quantities["deviation_bounds"]
    margin = r_perp / quantities["M_perp"] - quantities["M_par"] * r_par \
        - (bounds["L_par"] * r_par + bounds["L_perp"] * r_perp) - doc["meta"]["base_residual"]
    assert row["margin_domain"] == margin < 0.0
    assert not row["certified"] and front["r_par_max"] is None


def test_duplicate_grid_radii_are_certified_once(tmp_path, capsys):
    cfg = write_config(tmp_path, "duplicates.json", {
        "model": {"kind": "builtin", "name": "tanh2"},
        "base_point": {"x0": [0.0, 0.0], "lambda0": [1.0]},
        "estimator": {"mode": "analytic", "L_par": "0", "L_perp": "1 - min(0, 1 - rpar)"},
        "certify": {"r_par_grid": [1.0, 0.5, 1.0], "r_perp_grid": [0.5, 0.5]},
    })
    out = tmp_path / "duplicates_report.json"
    assert main(["ls-certify", "--config", cfg, "--out", str(out)]) == 0
    assert "certified 2 of 2 radius pairs" in capsys.readouterr().out
    doc = json.loads(out.read_text(encoding="utf-8"))
    pairs = [(row["r_par"], row["r_perp"]) for row in doc["region"]]
    assert pairs == [(0.5, 0.5), (1.0, 0.5)]
    assert pairs == [(row["r_par"], row["r_perp"])
                     for row in doc["quantities"]["deviation_bounds"]]
    assert doc["frontier"] == [{"r_perp": 0.5, "r_par_max": 1.0}]


def test_region_csv_export(tmp_path, capsys):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "region.csv"
    code = main(["ls-certify", "--config", str(CONFIGS / "tanh2_certify_analytic.json"),
                 "--out", str(out), "--csv", str(csv_path)])
    capsys.readouterr()
    assert code == 0
    text = csv_path.open(encoding="utf-8", newline="").read()
    lines = text.split("\r\n")
    assert lines[0] == "r_par,r_perp,certified,margin_domain,margin_contraction"
    assert len(lines) == 1 + 27 + 1  # header + rows + trailing CRLF
    first = lines[1].split(",")
    assert first[0] == "0.25" and first[1] == "0.5" and first[2] == "true"
    # CSV cells are the %.17g rendering of exactly the JSON report values
    doc = json.loads(out.read_text(encoding="utf-8"))
    row = doc["region"][0]
    assert row["r_par"] == 0.25 and row["r_perp"] == 0.5
    assert first[3] == format(row["margin_domain"], ".17g")
    assert first[4] == format(row["margin_contraction"], ".17g")


# --- imft-certify ----------------------------------------------------------------


def test_imft_certify_parabola(capsys):
    code = main(["imft-certify", "--config", str(CONFIGS / "parabola_imft.json")])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["decomposition"] is None
    assert doc["quantities"]["M_x"] == 0.0
    assert doc["quantities"]["M_y"] == 1.0
    got = {(row["r_x"], row["r_y"]) for row in doc["region"] if row["certified"]}
    want = {(rx, ry) for rx in (0.1, 0.2, 0.3) for ry in (0.1, 0.3)
            if 2.0 * rx * rx < ry}
    assert got == want
    assert all("r_x_max" in front for front in doc["frontier"])


def test_imft_requires_partition(tmp_path, capsys):
    overlapping = write_config(tmp_path, "overlap.json", {
        "model": {"kind": "expr", "source": "x2 - x1^2", "n": 2, "m": 0},
        "base_point": {"x0": [0.0], "y0": [0.0]},
        "imft": {"x_indices": [0], "y_indices": [0],
                 "r_x_grid": [0.1], "r_y_grid": [0.1]},
    })
    code = main(["imft-certify", "--config", overlapping])
    captured = capsys.readouterr()
    assert code == 1
    assert "also appear in x_indices" in captured.err
    incomplete = write_config(tmp_path, "incomplete.json", {
        "model": {"kind": "expr", "source": "x2 - x1^2", "n": 2, "m": 1},
        "base_point": {"x0": [0.0], "y0": [0.0]},
        "imft": {"x_indices": [0], "y_indices": [1],
                 "r_x_grid": [0.1], "r_y_grid": [0.1]},
    })
    code = main(["imft-certify", "--config", incomplete])
    captured = capsys.readouterr()
    assert code == 1
    assert "partition" in captured.err


# a negative override L enlarges both margins past what any true bound allows:
# tanh2 would certify r_par = 3 and 5 (its true boundary is r_par < 2), the
# parabola y = x^2 would certify r_x = 3 with r_y = 0.1 (where y = 9)
@pytest.mark.parametrize("command, config, estimator, grids", [
    ("ls-certify", "tanh2_certify_analytic.json",
     {"mode": "analytic", "L_par": "0", "L_perp": "0 - 5"},
     {"certify": {"r_par_grid": [3.0, 5.0], "r_perp_grid": [1.0]}}),
    ("imft-certify", "parabola_imft.json",
     {"mode": "analytic", "L_x": "0 - 5", "L_y": "0"},
     {"imft": {"x_indices": [0], "y_indices": [1], "r_x_grid": [3.0], "r_y_grid": [0.1]}}),
], ids=["ls-certify", "imft-certify"])
def test_negative_override_fails_instead_of_certifying(tmp_path, capsys, command, config,
                                                       estimator, grids):
    payload = json.loads((CONFIGS / config).read_text(encoding="utf-8"))
    payload.update(grids, estimator=estimator)
    code = main([command, "--config", write_config(tmp_path, "negative.json", payload)])
    captured = capsys.readouterr()
    assert code == 1
    assert "nonnegative" in captured.err
    assert captured.out == ""


# --- error handling ----------------------------------------------------------------


# a weight of zero or below is refused by the config, before the ball sampler
# can raise on it with a traceback
@pytest.mark.parametrize("command, config, weights, message", [
    ("ls-certify", "tanh2_certify_sampled.json", [0.0, 1.0],
     "config error at parallel_weights[0]: must be > 0.0, got 0.0"),
    ("imft-certify", "parabola_imft.json", [0.0],
     "config error at parallel_weights[0]: must be > 0.0, got 0.0"),
    ("imft-certify", "parabola_imft.json", [-0.5],
     "config error at parallel_weights[0]: must be > 0.0, got -0.5"),
    ("ls-certify", "tanh2_certify_sampled.json", [1.0],
     "config error at parallel_weights: expected q + m = 2 weight(s), got 1"),
    ("imft-certify", "parabola_imft.json", [1.0, 1.0],
     "config error at parallel_weights: expected 1 weight(s), got 2"),
])
def test_weights_must_be_positive_and_one_per_x_coordinate(tmp_path, capsys, command, config,
                                                          weights, message):
    payload = json.loads((CONFIGS / config).read_text(encoding="utf-8"))
    payload["parallel_weights"] = weights
    code = main([command, "--config", write_config(tmp_path, "weights.json", payload)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_imft_builtin_component_count_must_match_y_indices(tmp_path, capsys):
    # the indices partition 0..2, but tanh2 has two residual components
    cfg = write_config(tmp_path, "count.json", {
        "model": {"kind": "builtin", "name": "tanh2"},
        "base_point": {"x0": [0.0, 0.0], "y0": [1.0]},
        "imft": {"x_indices": [0, 1], "y_indices": [2], "r_x_grid": [0.1], "r_y_grid": [0.1]},
    })
    code = main(["imft-certify", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ("error: config error at imft.y_indices: model has 2 component(s); "
                            "y_indices must have that length, got 1\n")


@pytest.mark.parametrize("source, r_x, message", [
    # sampled in batches, exp overflows at x1 = 1.5 before log sees x1 = -1.5;
    # the pair-by-pair order reaches x1 = -1.5 first
    ("x2 - exp(400*x1^3) - log(x1 + 1)", 1.5,
     "error: log of non-positive value -0.5 in 'log(x1 + 1.0)'\n"),
    ("x2 - abs(x1 - 0.1)", 0.1,
     "error: abs argument within 1e-12 of the kink in 'abs(x1 - 0.1)'; "
     "derivative undefined there\n"),
], ids=["log-before-exp", "abs-kink"])
def test_sampling_errors_are_those_of_the_first_failing_pair(tmp_path, capsys, source, r_x,
                                                              message):
    payload = json.loads((CONFIGS / "parabola_imft.json").read_text(encoding="utf-8"))
    payload["model"]["source"] = source
    payload["imft"].update(r_x_grid=[r_x], r_y_grid=[0.1])
    code = main(["imft-certify", "--config", write_config(tmp_path, "err.json", payload)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == message
    assert captured.out == ""


def test_imft_malformed_builtin_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "ragged.json", {
        "model": {"kind": "builtin", "name": "linear",
                  "params": {"A": [[1, 2], [3]], "b": [[1], [2]]}},
        "base_point": {"x0": [0.0], "y0": [0.0, 0.0]},
        "imft": {"x_indices": [2], "y_indices": [0, 1], "r_x_grid": [0.1], "r_y_grid": [0.2]},
    })
    code = main(["imft-certify", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: config error at model: ")


def test_unknown_config_key_is_an_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "unknown.json", {
        "model": {"kind": "builtin", "name": "tanh2"},
        "base_point": {"x0": [0.0, 0.0], "lambda0": [1.0]},
        "certify": {"r_par_grid": [0.5], "r_perp_grid": [0.5]},
        "bogus": 1,
    })
    code = main(["ls-certify", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 1
    assert "bogus" in captured.err


def test_wrong_type_reports_dotted_path(tmp_path, capsys):
    cfg = write_config(tmp_path, "badtype.json", {
        "model": {"kind": "builtin", "name": 7},
        "base_point": {"x0": [0.0, 0.0], "lambda0": [1.0]},
        "certify": {"r_par_grid": [0.5], "r_perp_grid": [0.5]},
    })
    code = main(["ls-certify", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 1
    assert "model.name" in captured.err


def test_missing_section_for_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "nosection.json", {
        "model": {"kind": "builtin", "name": "tanh2"},
        "base_point": {"x0": [0.0, 0.0], "lambda0": [1.0]},
    })
    code = main(["trace", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 1
    assert "trace" in captured.err


def test_missing_config_file(capsys):
    code = main(["ls-certify", "--config", "/nonexistent/nowhere.json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")


def test_non_equilibrium_base_point(tmp_path, capsys):
    cfg = write_config(tmp_path, "noneq.json", {
        "model": {"kind": "builtin", "name": "tanh2"},
        "base_point": {"x0": [0.4, 0.1], "lambda0": [1.0]},
        "certify": {"r_par_grid": [0.5], "r_perp_grid": [0.5]},
    })
    code = main(["ls-certify", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 1
    assert "refine" in captured.err


# --- reduce and trace ----------------------------------------------------------------


def test_reduce_writes_table_and_series(tmp_path, capsys):
    out = tmp_path / "reduce.csv"
    code = main(["reduce", "--config", str(CONFIGS / "tanh2_reduce.json"),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "reduced map series at base point:" in captured.out
    assert "classification: pitchfork_supercritical" in captured.out
    assert "wrote 52 rows" in captured.out
    text = out.open(encoding="utf-8", newline="").read()
    lines = text.split("\r\n")
    assert lines[0] == "alpha_1,lambda_1,g_1,phi_1,warning"
    rows = [l for l in lines[1:] if l]
    assert len(rows) == 13 * 4
    assert all(row.endswith(",") for row in rows)  # all points inside the region


def test_reduce_warns_outside_certified_region(tmp_path, capsys):
    cfg = write_config(tmp_path, "reduce_wide.json", {
        "model": {"kind": "builtin", "name": "tanh2"},
        "base_point": {"x0": [0.0, 0.0], "lambda0": [1.0]},
        "estimator": {"mode": "analytic", "L_par": "0",
                      "L_perp": "1 - min(0, 1 - rpar)"},
        "certify": {"r_par_grid": [0.25, 0.5], "r_perp_grid": [0.5]},
        "reduce": {"alpha_min": -1.5, "alpha_max": 1.5, "alpha_samples": 3,
                   "lambda_values": [1.0]},
    })
    out = tmp_path / "reduce.csv"
    assert main(["reduce", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [l for l in out.open(encoding="utf-8", newline="").read().split("\r\n")[1:] if l]
    # alpha = +-1.5 exceeds the certified frontier, alpha = 0 does not
    warned = ["outside the certified region" in row for row in rows]
    assert warned == [True, False, True]


def test_trace_cli_branches_and_csv(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["trace", "--config", str(CONFIGS / "tanh2_trace.json"),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "traced 3 branch(es) over 31 parameter value(s)" in captured.out
    text = out.open(encoding="utf-8", newline="").read()
    lines = text.split("\r\n")
    assert lines[0] == "branch_id,lambda,alpha,x_1,x_2,residual_full"
    rows = [l for l in lines[1:] if l]
    # trunk on all 31 parameter values, outer pair on the 20 with lambda > 1
    assert len(rows) == 31 + 2 * 20


# --- console entry points --------------------------------------------------------


def test_dedicated_entry_points(tmp_path, capsys):
    assert main_ls_certify(["--config", str(CONFIGS / "tanh2_certify_analytic.json"),
                            "--out", str(tmp_path / "a.json")]) == 0
    assert main_imft_certify(["--config", str(CONFIGS / "parabola_imft.json"),
                              "--out", str(tmp_path / "b.json")]) == 0
    capsys.readouterr()


def test_sin_of_an_overflowed_argument_is_an_error_line(tmp_path, capsys):
    # 1e300 * x1^3 overflows to inf on the x-ball of radius 1e3; sin(inf) has no value
    payload = json.loads((CONFIGS / "parabola_imft.json").read_text(encoding="utf-8"))
    payload["model"]["source"] = "x2 - sin(1e300*x1*x1*x1)"
    payload["imft"].update(r_x_grid=[1e3], r_y_grid=[0.1])
    code = main(["imft-certify", "--config", write_config(tmp_path, "sin.json", payload)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: overflow evaluating 'sin(1e+300*x1*x1*x1)'\n"
    assert captured.out == ""


# the cubic model's range equation has no Newton descent from beta0 at the
# outer alphas for lambda near 0.5
CUBIC = {
    "model": {"kind": "expr", "n": 2, "m": 1,
              "source": "-x1 + tanh(l1*x2); -x2 + tanh(l1*x1) + 0.3*x2^3"},
    "base_point": {"x0": [0.0, 0.0], "lambda0": [1.0]},
}


def test_trace_leaves_failed_newton_solves_as_gaps(tmp_path, capsys):
    cfg = write_config(tmp_path, "gaps.json", {
        **CUBIC,
        "trace": {"lambda_min": 0.5, "lambda_max": 0.6, "lambda_step": 0.05,
                  "alpha_min": -4.0, "alpha_max": 4.0, "alpha_samples": 41},
    })
    out = tmp_path / "trace.csv"
    code = main(["trace", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    notes = captured.err.splitlines()
    assert [note.split(": Newton failed at ")[0] for note in notes] == \
        ["note: lambda=0.5", "note: lambda=0.55", "note: lambda=0.6"]
    assert [int(note.split(" at ")[1].split()[0]) for note in notes] == [14, 14, 14]
    assert notes[0].endswith("first at alpha=-4: range block: no descent after 30 backtracks "
                             "(residual 2.820e+00) at alpha=[-4.], lambda=[0.5]")
    assert out.read_text(encoding="utf-8").startswith("branch_id,lambda,alpha,x_1,x_2,residual_full")


def test_trace_keeps_the_trunk_at_every_lambda(tmp_path, capsys):
    # x = 0 solves the cubic model at every lambda; with every solve seeded at
    # beta0 the trace keeps the root alpha = 0 that the range solve through
    # beta0 gives, however many outer alphas fail
    cfg = write_config(tmp_path, "trunk.json", {
        **CUBIC,
        "trace": {"lambda_min": 0.5, "lambda_max": 0.6, "lambda_step": 0.05,
                  "alpha_min": -4.0, "alpha_max": 4.0, "alpha_samples": 41},
    })
    out = tmp_path / "trace.csv"
    assert main(["trace", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [row.split(",") for row in out.read_text(encoding="utf-8").splitlines()[1:] if row]
    trunk = [float(row[1]) for row in rows if float(row[2]) == 0.0]
    assert trunk == pytest.approx([0.5, 0.55, 0.6], abs=1e-12)


def test_reduce_leaves_failed_newton_rows_empty(tmp_path, capsys):
    cfg = write_config(tmp_path, "gaps.json", {
        **CUBIC,
        "reduce": {"alpha_min": -4.0, "alpha_max": 4.0, "alpha_samples": 41,
                   "lambda_values": [0.5]},
    })
    out = tmp_path / "reduce.csv"
    code = main(["reduce", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == (
        "note: lambda=0.5: Newton failed at 14 alpha value(s), left as gaps; first at "
        "alpha=-4: range block: no descent after 30 backtracks (residual 2.820e+00) at "
        "alpha=[-4.], lambda=[0.5]\n")
    assert "wrote 41 rows" in captured.out
    rows = [l for l in out.open(encoding="utf-8", newline="").read().split("\r\n")[1:] if l]
    assert len(rows) == 41
    failed = [row for row in rows if row.endswith(",0.5,,,")]
    assert len(failed) == 14 and rows[0] == "-4,0.5,,,"


def test_each_ball_is_built_once(tmp_path, monkeypatch):
    built, ball_points = [], imft.ball_points

    def counting(center, radius, *args, **kwargs):
        built.append((center.tobytes(), float(radius)))
        return ball_points(center, radius, *args, **kwargs)

    monkeypatch.setattr(imft, "ball_points", counting)
    config = CONFIGS / "ring4_certify_sampled.json"
    out = tmp_path / "ring4.json"
    assert main(["ls-certify", "--config", str(config), "--out", str(out)]) == 0
    assert non_meta_text(json.loads(out.read_text(encoding="utf-8"))) == \
        (GOLDEN / "ring4_sampled_nonmeta.json").read_text(encoding="utf-8")
    assert built and len(built) == len(set(built))

    # one estimate_L call builds the x-ball once for L_par and L_perp
    built.clear()
    cfg = load_config(config)
    system = build_system(cfg.model)
    ss = build_split_system(system, evaluation_point(system, cfg.base_point.x0,
                                                     cfg.base_point.lambda0))
    estimate_ls_L(ss, 1.0, 0.5, SupremumEstimator(samples_per_dim=5))
    assert [radius for _, radius in built] == [1.0, 0.5]

    # the parabola's x- and y-balls are both centred at [0.0]: r_x 0.1, 0.2,
    # 0.3 and the frontier's 0.25, with r_y 0.1 and 0.3 among them
    built.clear()
    out = tmp_path / "parabola.json"
    assert main(["imft-certify", "--config", str(CONFIGS / "parabola_imft.json"),
                 "--out", str(out)]) == 0
    assert non_meta_text(json.loads(out.read_text(encoding="utf-8"))) == \
        (GOLDEN / "parabola_imft_nonmeta.json").read_text(encoding="utf-8")
    assert sorted(radius for _, radius in built) == [0.1, 0.2, 0.25, 0.3]


def test_dsl_math_runs_once_per_distinct_argument(tmp_path, monkeypatch):
    mapped, call = [], expr.PerElement.__call__

    def counting(self, lst):
        mapped.append(len(lst))
        return call(self, lst)

    monkeypatch.setattr(expr.PerElement, "__call__", counting)
    out = tmp_path / "ring4.json"
    assert main(["imft-certify", "--config", str(CONFIGS / "ring4_imft.json"),
                 "--out", str(out)]) == 0
    assert non_meta_text(json.loads(out.read_text(encoding="utf-8"))) == \
        (GOLDEN / "ring4_imft_nonmeta.json").read_text(encoding="utf-8")
    # the lattice chunks repeat each coordinate: each of the 16 chunk-wide tanh
    # slopes maps 31 or 32 distinct arguments of its 505, and the base-point
    # calls map 32 more (8,168 elements when all were mapped)
    assert sum(mapped) == 536

    # DSL tanh2 on 1,024 points that do not repeat: both tanh slopes map every element
    mapped.clear()
    system = system_from_expressions("-x1 + tanh(l1*x2); -x2 + tanh(l1*x1)", 2, 1)
    rng = np.random.default_rng(0)
    system.jacobians(rng.uniform(-1.0, 1.0, (1024, 2)), rng.uniform(0.5, 1.5, (1024, 1)))
    assert mapped == [1024, 1024]


def test_svds_run_only_where_the_whole_calls_bounds_cannot_rule_a_matrix_out(tmp_path,
                                                                              monkeypatch):
    svd, induced_norms = [], norms.induced_norms

    def counting(a, kind="spectral"):
        if min(a.shape[1:]) >= 2:
            svd.append(len(a))
        return induced_norms(a, kind)

    monkeypatch.setattr(norms, "induced_norms", counting)
    monkeypatch.setattr(imft, "induced_norms", counting)
    for command, config, golden, want in (
            # 384 with per-chunk cheap bounds: the Gram bound and the floor
            # carried across chunks rule out more than half of the rest (155);
            # the refused frontier midpoint r_par = 1.5 stops after its one
            # chunk's bounds and skips its deferred batch of 35
            ("ls-certify", "ring4_certify_sampled.json", "ring4_sampled_nonmeta.json", 120),
            # nearly all of these lie within 1e-8 of their call's maximum; the
            # midpoint r_x = 0.45 is certified, so its L_y is taken in full
            ("imft-certify", "ring4_imft.json", "ring4_imft_nonmeta.json", 362)):
        svd.clear()
        out = tmp_path / golden
        assert main([command, "--config", str(CONFIGS / config), "--out", str(out)]) == 0
        assert non_meta_text(json.loads(out.read_text(encoding="utf-8"))) == \
            (GOLDEN / golden).read_text(encoding="utf-8")
        assert sum(svd) == want, command
