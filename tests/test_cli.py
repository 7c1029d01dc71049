import json
import math
import warnings

import pytest

from toruskam.cli import (EXIT_CONFIG, EXIT_EXCLUDED, EXIT_NUMERIC, EXIT_OK,
                          dispatch, main)
from toruskam.config import (ConfigError, load_config, parse_config,
                             validate)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def write_config(tmp_path, data, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


# ----------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------

def test_minimal_config_fills_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, {"mode": "stability"}))
    assert cfg["mode"] == "stability"
    assert cfg["tau"] == 4.0                   # d + 2 for the default d=2
    assert cfg["caps"]["N_max"] == 16
    assert cfg["stability"]["dt"] == 1e-3


def test_constant_ordering_named_inequality():
    with pytest.raises(ConfigError) as exc:
        load_config({"constants": [2, 3, 6, 4, 5, 14, 11, 16, 12]})
    assert any("C2 > 2 C1 + 10" in v for v in exc.value.violations)


def test_all_violations_reported_at_once():
    with pytest.raises(ConfigError) as exc:
        load_config({"mode": "nope", "d": 0, "eps": -1.0,
                     "bogus": 1, "caps": {"levels": 0, "unknown": True}})
    v = exc.value.violations
    assert any("mode" in s for s in v)
    assert any("d:" in s for s in v)
    assert any("eps" in s for s in v)
    assert any("unknown key: bogus" in s for s in v)
    assert any("unknown key: caps.unknown" in s for s in v)
    assert any("caps.levels" in s for s in v)


def test_config_round_trip(tmp_path):
    cfg = parse_config(write_config(tmp_path, {"seed": 5, "A": 3.0}))
    again = parse_config(write_config(tmp_path, json.loads(cfg.to_json()),
                                      name="round.json"))
    assert again.values == cfg.values


def test_bad_json_reports_location(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{ not json")
    with pytest.raises(ConfigError) as exc:
        parse_config(str(p))
    assert "broken.json:1" in exc.value.violations[0]


def test_validate_accepts_defaults():
    assert validate(load_config({}).values) == []


# ----------------------------------------------------------------------
# dispatch modes
# ----------------------------------------------------------------------

def stability_config(**over):
    base = {"mode": "stability", "omega": [1.0, PHI], "Omega": [1.17],
            "stability": {"T": 2.0, "dt": 1e-2}}
    base.update(over)
    return base


def test_stability_free_flow_exit_ok(tmp_path):
    cfg = load_config(stability_config(
        perturbation={"kind": "zero"},
        caps={"drift_tol": 1e-10}))
    out = tmp_path / "out"
    assert dispatch(cfg, str(out)) == EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    assert rep["exit_code"] == 0
    assert rep["results"]["worst_drift"] <= 1e-10
    assert (out / "trajectory.csv").read_text().startswith("t,")
    assert (out / "summary.txt").read_text().startswith("stability:")


def test_run_mode_exclusion_exit_3(tmp_path):
    cfg = load_config({"mode": "run", "omega": [1.0, PHI],
                       "eps": 1e-4,
                       "perturbation": {"kind": "cosine",
                                        "amplitude": 1e-4},
                       "caps": {"levels": 2, "gamma": 10.0,
                                "exclusion_N": 4}})
    code = dispatch(cfg, str(tmp_path / "out"))
    assert code == EXIT_EXCLUDED
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "excluded" in rep["results"]


def test_greens_mode_sound_cert(tmp_path):
    cfg = load_config({"mode": "greens", "omega": [1.0, PHI],
                       "greens": {"N": 4, "sigma": 0.3,
                                  "coupling_eps": 1e-3}})
    assert dispatch(cfg, str(tmp_path / "out")) == EXIT_OK
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["results"]["sound"] is True
    assert rep["results"]["provenance"] == "direct"


def test_greens_default_config_no_runtime_warning(tmp_path):
    # the soundness check weighs far entries by e^{alpha d} with alpha at
    # ALPHA_CAP, which overflows at this size
    cfg = load_config({"mode": "greens", "greens": {"N": 16}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert dispatch(cfg, str(tmp_path / "out")) == EXIT_OK
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["results"]["sound"] is True
    assert rep["results"]["alpha"] == 50.0


def test_greens_near_singular_exit_4(tmp_path):
    # sigma cancels Omega at k = 0: the divisor vanishes exactly
    cfg = load_config({"mode": "greens", "omega": [1.0, PHI],
                       "Omega": [1.17],
                       "greens": {"N": 3, "sigma": -1.17}})
    code = dispatch(cfg, str(tmp_path / "out"))
    assert code == EXIT_NUMERIC
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "error" in rep["results"]


def test_no_strict_downgrades_numeric(tmp_path):
    cfg = load_config({"mode": "greens", "omega": [1.0, PHI],
                       "Omega": [1.17],
                       "greens": {"N": 3, "sigma": -1.17}})
    assert dispatch(cfg, str(tmp_path / "out"), strict=False) == EXIT_OK


def test_atlas_mode_writes_boxes(tmp_path):
    cfg = load_config({"mode": "atlas", "omega": [1.0, PHI], "A": 4.0,
                       "caps": {"gamma": 1e-3, "exclusion_N": 4},
                       "box": {"half_width": 0.25, "atlas_level": 1}})
    assert dispatch(cfg, str(tmp_path / "out")) == EXIT_OK
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["results"]["boxes"] > 0
    lines = (tmp_path / "out" / "atlas.csv").read_text().strip().split("\n")
    assert lines[0] == "level,xi0,xi1,half_width"
    assert len(lines) == rep["results"]["boxes"] + 1


def test_sigma_scan_mode(tmp_path):
    cfg = load_config({"mode": "sigma-scan", "omega": [1.0, PHI],
                       "greens": {"N": 3},
                       "sigma_scan": {"range": [0.2, 0.6],
                                      "points_per_unit": 100.0,
                                      "refine_iters": 5}})
    assert dispatch(cfg, str(tmp_path / "out")) == EXIT_OK
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["results"]["bad_measure"] >= 0.0
    assert rep["results"]["norm_route"] == "spectral"
    assert rep["results"]["samples"] <= rep["results"]["factored_probes"]
    assert (tmp_path / "out" / "sigma_scan.csv").read_text().splitlines()[0]


def test_verify_replays_report(tmp_path):
    cfg = load_config(stability_config(perturbation={"kind": "zero"}))
    assert dispatch(cfg, str(tmp_path / "a")) == EXIT_OK
    vcfg = load_config({"mode": "verify",
                        "verify": {"report":
                                   str(tmp_path / "a" / "report.json")}})
    assert dispatch(vcfg, str(tmp_path / "b")) == EXIT_OK
    rep = json.loads((tmp_path / "b" / "report.json").read_text())
    assert rep["results"]["match"] is True


def test_verify_detects_tampering(tmp_path):
    cfg = load_config(stability_config(perturbation={"kind": "zero"}))
    dispatch(cfg, str(tmp_path / "a"))
    p = tmp_path / "a" / "report.json"
    doc = json.loads(p.read_text())
    doc["results"]["worst_drift"] = 1.0
    p.write_text(json.dumps(doc))
    vcfg = load_config({"mode": "verify", "verify": {"report": str(p)}})
    assert dispatch(vcfg, str(tmp_path / "b")) == EXIT_NUMERIC


def test_reports_byte_identical(tmp_path):
    data = {"mode": "greens", "seed": 11, "omega": [1.0, PHI],
            "greens": {"N": 4, "sigma": 0.3, "coupling_eps": 1e-3}}
    dispatch(load_config(data), str(tmp_path / "a"))
    dispatch(load_config(data), str(tmp_path / "b"))
    assert (tmp_path / "a" / "report.json").read_bytes() \
        == (tmp_path / "b" / "report.json").read_bytes()


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def test_main_runs_and_overrides(tmp_path):
    path = write_config(tmp_path, stability_config(
        perturbation={"kind": "zero"}))
    out = tmp_path / "cli_out"
    assert main(["--config", path, "--out", str(out),
                 "--seed", "3"]) == EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    assert rep["config"]["seed"] == 3


def test_main_mode_override(tmp_path):
    path = write_config(tmp_path, {"omega": [1.0, PHI],
                                   "greens": {"N": 3, "sigma": 0.3}})
    assert main(["--config", path, "--out", str(tmp_path / "o"),
                 "--mode", "greens"]) == EXIT_OK


def test_main_config_error_exit_2(tmp_path):
    path = write_config(tmp_path, {"mode": "nope"})
    assert main(["--config", path, "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG


def test_main_missing_file_exit_2(tmp_path):
    assert main(["--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_stability_too_short_run_exit_2(tmp_path, capsys):
    # round(T / dt) = 0 steps would make the Lyapunov estimate 0 / 0
    path = write_config(tmp_path, {"mode": "stability",
                                   "stability": {"T": 0.0004, "dt": 0.001}})
    out = tmp_path / "o"
    assert main(["--config", path, "--out", str(out)]) == EXIT_CONFIG
    msg = "stability.T: must span at least 2 steps of dt"
    assert msg in capsys.readouterr().err
    rep = json.loads((out / "report.json").read_text())
    assert rep["exit_code"] == EXIT_CONFIG
    assert msg in rep["results"]["config_errors"]
    # 1.5 steps rounds to 2 and is accepted
    load_config({"stability": {"T": 0.0015, "dt": 0.001}})
