import contextlib
import io
import json
import math
import os
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruskam import cli, greens
from toruskam.cli import (EXIT_CONFIG, EXIT_EXCLUDED, EXIT_NUMERIC, EXIT_OK,
                          _decaying_scalar, dispatch, main)
from toruskam.fourier import FourierSeries
from toruskam.config import (DEFAULTS, MAX_REFINE_ITERS, MODES, ConfigError,
                             load_config, parse_config, validate)
from toruskam.stability import (integrate_linearized, l2_drift,
                                lyapunov_estimate, trajectory_csv)

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


def test_constants_key_is_unknown():
    with pytest.raises(ConfigError) as exc:
        load_config({"constants": [2, 3, 6, 4, 5, 14, 11, 16, 12]})
    assert exc.value.violations == ["unknown key: constants"]


# settings one value served, now constants of the modules that read them
REMOVED_SETTINGS = [("caps", "cond_cap", 1e12), ("caps", "lie_order", 3),
                    ("caps", "stop_threshold", 1e-14),
                    ("perturbation", "decay", 1.0)]


@pytest.mark.parametrize("section, key, value", REMOVED_SETTINGS)
def test_removed_settings_are_unknown_keys(tmp_path, capsys, section, key,
                                           value):
    data = {section: {key: value}}
    with pytest.raises(ConfigError) as exc:
        load_config(data)
    msg = f"unknown key: {section}.{key}"
    assert exc.value.violations == [msg]
    out = tmp_path / "o"
    assert main(["--config", write_config(tmp_path, data),
                 "--out", str(out)]) == EXIT_CONFIG
    assert msg in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["config_errors"] == [msg]


def test_levels_flag_is_gone(tmp_path):
    # caps.levels has one way in, the config
    path = write_config(tmp_path, stability_config())
    with pytest.raises(SystemExit) as exc:
        main(["--config", path, "--out", str(tmp_path / "o"),
              "--levels", "2"])
    assert exc.value.code == 2


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
    text = json.dumps(cfg.values, indent=2, sort_keys=True)
    again = parse_config(write_config(tmp_path, json.loads(text),
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
# malformed configs through main: always exit 2 with a report
# ----------------------------------------------------------------------

SECTIONS = sorted(k for k, v in DEFAULTS.items() if isinstance(v, dict))
LEAVES = {**{k: v for k, v in DEFAULTS.items() if not isinstance(v, dict)},
          **{f"{s}.{k}": v for s in SECTIONS for k, v in DEFAULTS[s].items()}}
# known keys where None is a setting, and the strings a key takes
NULLABLE = {"tau", "caps.gamma", "caps.drift_tol", "greens.threshold",
            "stability.z0_real", "stability.z0_imag", "verify.report"}
STRINGS = {"mode": MODES, "perturbation.kind": ("random-tail", "cosine",
                                                 "zero")}


def _at_most(x):
    return st.floats(max_value=x, allow_nan=False)


def _ints_below(x):
    return st.integers(-10 ** 6, x - 1)


# a value each key refuses for its range, whatever else the config holds
OUT_OF_RANGE = {
    "seed": _ints_below(0), "d": _ints_below(1), "n": _ints_below(1),
    "A": _at_most(1.0), "s0": _at_most(0.0), "r0": _at_most(0.0),
    "eps": _at_most(0.0), "tau": _at_most(0.0), "omega": st.just([]),
    "Omega": st.lists(_at_most(0.0), min_size=1, max_size=3),
    "caps.N_max": _ints_below(1), "caps.levels": _ints_below(1),
    "caps.exclusion_N": _ints_below(1), "caps.gamma": _at_most(0.0),
    "caps.drift_tol": _at_most(0.0), "box.half_width": _at_most(0.0),
    "box.atlas_level": _ints_below(1),
    "perturbation.amplitude": _at_most(-1e-300),
    "perturbation.kmax": _ints_below(1),
    "perturbation.cutoff_cap": _ints_below(1),
    "greens.N": _ints_below(1),
    "greens.threshold": _at_most(-1e-300),
    "greens.coupling_eps": _at_most(-1e-300),
    "greens.coupling_rho": _at_most(0.0),
    "sigma_scan.range": st.floats(-1e3, 1e3).map(lambda x: [x, x]),
    "sigma_scan.alpha_target": _at_most(0.0),
    "sigma_scan.threshold": _at_most(0.0),
    "sigma_scan.norm_target": _at_most(0.0),
    "sigma_scan.points_per_unit": _at_most(0.0),
    "sigma_scan.refine_iters": _ints_below(0)
    | st.integers(MAX_REFINE_ITERS + 1, 10 ** 6),
    "stability.T": _at_most(0.0), "stability.dt": _at_most(0.0),
}


@st.composite
def wrong_type(draw, key):
    """A value of a type `key` never takes."""
    kinds = [st.booleans(),
             st.text(max_size=4).filter(lambda s: s not in STRINGS.get(
                 key, ())),
             st.lists(st.text(max_size=3), min_size=1, max_size=2),
             st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)]
    if key not in NULLABLE:
        kinds.append(st.none())
    if type(LEAVES[key]) is int:
        kinds.append(st.floats(allow_nan=False))
    return draw(st.one_of(kinds))


def _put(data, key, value):
    """Set a dotted key, first making its section a table if it is not."""
    section, _, leaf = key.rpartition(".")
    if section:
        if not isinstance(data.get(section), dict):
            data[section] = {}
        data[section][leaf] = value
    else:
        data[key] = value


ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2), max_leaves=4)
# a JSON key can be any string, a lone surrogate too
KEY_NAMES = st.text(min_size=1, max_size=6) | st.text(
    st.characters(categories=["Cs"]), min_size=1, max_size=2)


@st.composite
def fault(draw):
    """One (key, value) the config must refuse."""
    kind = draw(st.sampled_from(["range", "type", "unknown", "section"]))
    if kind == "range":
        key = draw(st.sampled_from(sorted(OUT_OF_RANGE)))
        return key, draw(OUT_OF_RANGE[key])
    if kind == "type":
        key = draw(st.sampled_from(sorted(LEAVES.keys() - {"verify.report"})))
        return key, draw(wrong_type(key))
    if kind == "unknown":
        section = draw(st.sampled_from([""] + SECTIONS))
        known = DEFAULTS[section] if section else DEFAULTS
        leaf = draw(KEY_NAMES.filter(lambda k: k not in known
                                     and "." not in k))
        return f"{section}.{leaf}" if section else leaf, draw(ANY_JSON)
    return draw(st.sampled_from(SECTIONS)), draw(ANY_JSON.filter(
        lambda v: not isinstance(v, dict)))


@st.composite
def malformed_config(draw):
    if draw(st.integers(0, 4)) == 0:
        # a top level that is not an object
        return draw(ANY_JSON.filter(lambda v: not isinstance(v, dict)))
    data = {"mode": draw(st.sampled_from(MODES))}
    for key, value in draw(st.lists(fault(), min_size=1, max_size=3)):
        _put(data, key, value)
    return data


@settings(max_examples=100, deadline=None, derandomize=True)
@given(malformed_config())
def test_malformed_configs_exit_2_with_a_report(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(err):
            code = main(["--config", path, "--out", out])
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
    assert code == EXIT_CONFIG == report["exit_code"]
    errors = report["results"]["config_errors"]
    assert errors and all(isinstance(e, str) and e for e in errors)
    assert "Traceback" not in err.getvalue()


def _no_constant(name):
    raise ValueError(f"report.json holds {name}")


@st.composite
def greens_config(draw):
    """A small greens config that loads: (2N + 1)^d n <= 2048 sites, a
    coupling that may vanish, any mode vector, 0 included, and a shift
    sigma that may cancel the diagonal at one site and block.  omega and
    Omega are multiples of 1/16, so the cancelled entry is exactly 0 unless
    a mode-0 coupling that is no such multiple sits on the diagonal."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    N = draw(st.integers(1, max(N for N in range(1, 1024)
                                if (2 * N + 1) ** d * n <= 2048)))
    sixteenths = st.integers(-48, 48).map(lambda i: i / 16)
    omega = draw(st.lists(sixteenths, min_size=d, max_size=d))
    Omega = draw(st.lists(st.integers(1, 48).map(lambda i: i / 16),
                          min_size=n, max_size=n))
    mode = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    eps = draw(st.sampled_from([0.0, 0.5, 0.0625])
               | st.floats(1e-8, 2.0, allow_subnormal=False))
    if draw(st.booleans()):
        k = draw(st.lists(st.integers(-N, N), min_size=d, max_size=d))
        # at mode 0 the coupling sits on the diagonal, eps e^0 = eps
        shift = eps if not any(mode) else 0.0
        sigma = -(sum(a * b for a, b in zip(k, omega))
                  + draw(st.sampled_from(Omega)) + shift)
    else:
        sigma = draw(st.floats(-3.0, 3.0, allow_subnormal=False))
    return {"mode": "greens", "d": d, "n": n, "omega": omega,
            "Omega": Omega, "perturbation": {"mode": mode},
            "greens": {"N": N, "sigma": sigma, "coupling_eps": eps,
                       "coupling_rho": draw(st.floats(0.1, 2.0))}}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(greens_config())
def test_greens_configs_that_load_end_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        verify = os.path.join(tmp, "verify.json")
        with open(verify, "w") as fh:
            json.dump({"mode": "verify", "verify": {
                "report": os.path.join(tmp, "out", "report.json")}}, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(err):
            code = main(["--config", path, "--out",
                         os.path.join(tmp, "out")])
            replay = main(["--config", verify, "--out",
                           os.path.join(tmp, "verify")])
        with open(os.path.join(tmp, "out", "report.json")) as fh:
            report = json.loads(fh.read(), parse_constant=_no_constant)
    assert code in (EXIT_OK, EXIT_EXCLUDED, EXIT_NUMERIC), report
    assert report["exit_code"] == code
    # a numeric failure refuses the inversion: a measured certificate
    # always passes its own check
    assert report["results"].get("sound", True), report
    assert "Traceback" not in err.getvalue()
    assert replay == EXIT_OK, err.getvalue()


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


def test_stability_overflow_exit_4_quietly(tmp_path, capsys):
    # overflow in the first chunk ends the run there, t = 0, with no NumPy
    # warning
    path = write_config(tmp_path, {
        "mode": "stability", "perturbation": {
            "kind": "cosine", "amplitude": 1e300, "mode": [1, 0]}})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", path, "--out", str(out)]) == EXIT_NUMERIC
    assert capsys.readouterr().err == ""
    rep = json.loads((out / "report.json").read_text())
    msg = "trajectory contains non-finite amplitudes in the chunk from t = 0"
    assert rep["exit_code"] == EXIT_NUMERIC
    assert rep["results"]["error"] == f"ValueError: {msg}"
    assert (out / "summary.txt").read_text() == f"numeric failure: {msg}\n"
    assert not (out / "trajectory.csv").exists()


TWO_PHASES = {"mode": "stability", "n": 2, "omega": [1.0, PHI],
              "Omega": [1.17, 1.43],
              "perturbation": {"kind": "cosine", "amplitude": 0.05,
                               "mode": [1, 0]},
              "stability": {"T": 25.0, "dt": 1e-3,
                            "phases": [[0.3, 1.2], [2.0, 5.0]],
                            "z0_real": [0.6, -0.1],
                            "z0_imag": [0.8, 0.4]}}


def test_stability_mode_equals_full_trajectory_references(tmp_path):
    # the mode reads each phase as a stream; its drift, Lyapunov triple and
    # trajectory.csv (stride 2 at 25000 steps) equal l2_drift,
    # lyapunov_estimate and trajectory_csv on the full trajectory
    out = tmp_path / "o"
    assert dispatch(load_config(TWO_PHASES), str(out)) == EXIT_OK
    got = json.loads((out / "report.json").read_text())["results"]
    st = TWO_PHASES["stability"]
    cosine = FourierSeries.cosine(2, (1, 0), 0.05)
    data = np.zeros((2, 2) + cosine.data.shape[2:], dtype=complex)
    data[0, 0] = data[1, 1] = cosine.data[0, 0]
    B = FourierSeries(2, (2, 2), cosine.cutoff, data)
    z0 = np.array(st["z0_real"]) + 1j * np.array(st["z0_imag"])
    for i, x0 in enumerate(st["phases"]):
        traj = integrate_linearized([1.0, PHI], [1.17, 1.43], B, z0,
                                    T=st["T"], dt=st["dt"], x0=x0)
        lam, first, second = lyapunov_estimate(traj, return_halves=True)
        assert got["trajectories"][i] == {
            "phase": x0, "l2_drift": l2_drift(traj), "lyapunov": lam,
            "lyapunov_first_half": first, "lyapunov_second_half": second}
        if i == 0:
            assert (out / "trajectory.csv").read_bytes() \
                == trajectory_csv(traj, stride=2).encode()



@pytest.mark.parametrize("T, stride", [(19.999, 1), (20.0, 2)])
def test_stability_csv_stride(tmp_path, T, stride):
    # trajectory.csv keeps every stride-th step, stride = max(1, steps //
    # 10^4): all 20000 rows at 19999 steps, 10001 rows at 20000
    data = {**TWO_PHASES, "stability": {**TWO_PHASES["stability"],
                                        "T": T, "phases": [[0.3, 1.2]]}}
    out = tmp_path / "o"
    assert dispatch(load_config(data), str(out)) == EXIT_OK
    lines = (out / "trajectory.csv").read_text().splitlines()
    nsteps = round(T / 1e-3)
    assert len(lines) == 1 + len(range(0, nsteps + 1, stride))
    assert float(lines[2].split(",")[0]) == 1e-3 * stride


def test_stability_memory_does_not_grow_with_T(tmp_path):
    # a phase is read chunk by chunk and trajectory.csv keeps about 10^4
    # rows at any T, so a run at 4 x 10^5 steps peaks as one at 10^5 does
    def peak(T, name):
        data = {**TWO_PHASES, "stability": {**TWO_PHASES["stability"],
                                            "T": T, "phases": [[0.3, 1.2]]}}
        cfg = load_config(data)
        tracemalloc.start()
        try:
            assert dispatch(cfg, str(tmp_path / name)) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1.0, "warm")           # fills the caches a first run builds
    assert abs(peak(400.0, "long") - peak(100.0, "short")) <= 2 ** 19


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


@pytest.mark.parametrize("caps, amplitude, want", [
    ({"levels": 2, "N_max": 4}, 1e-6, [
        {"event": "cutoff_capped", "level": 2,
         "message": "mode cutoff capped at 4 (nominal 8)"},
        {"event": "cutoff_capped", "level": 3,
         "message": "mode cutoff capped at 4 (nominal 16)"}]),
    ({"levels": 1, "N_max": 8}, 1e-2, [
        {"event": "schedule_target_missed", "level": 2,
         "message": "measured low norm 4.120e-01 misses the schedule "
                    "target 2.916e-01 at level 2"}])])
def test_run_mode_reports_events_not_warnings(tmp_path, caps, amplitude,
                                              want):
    # a capped cutoff and a missed schedule target are events in
    # report.json, in the order met, and no warning
    cfg = load_config({"mode": "run", "seed": 1, "omega": [1.0, PHI],
                       "eps": max(amplitude, 1e-6),
                       "caps": dict(caps, gamma=1e-4),
                       "perturbation": {"kind": "random-tail",
                                        "amplitude": amplitude,
                                        "kmax": 6}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(cfg, str(tmp_path / "out")) == EXIT_OK
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["events"] == want


def test_run_mode_reports_level_certificate(tmp_path):
    cfg = load_config({"mode": "run", "seed": 3, "omega": [1.0, PHI],
                       "caps": {"levels": 1, "N_max": 8, "gamma": 1e-4},
                       "perturbation": {"kmax": 6}})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert dispatch(cfg, str(tmp_path / "out")) == EXIT_OK
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    cert = rep["results"]["level_certificate"]
    assert cert["provenance"] == "combes-thomas"
    assert cert["alpha"] == cert["r"] > 0
    assert cert["q_r"] <= 0.5 and cert["q0"] <= cert["q_r"]
    assert cert["prefactor"] >= cert["norm_bound"] > 0
    assert cert["threshold"] == 2
    # one entry per levels.csv row; the first level has no Lie transform
    levels = rep["results"]["levels"]
    assert [lv["level"] for lv in levels] == [2, 3]
    assert levels[0]["lie_tail"] is None and levels[0]["B_fold_defect"] is None
    assert levels[1]["lie_tail"] >= 0 and levels[1]["B_fold_defect"] >= 0
    assert all(lv["eps_high"] > 0 and lv["reality_err"] == 0.0
               for lv in levels)


def test_greens_mode_sound_cert(tmp_path):
    cfg = load_config({"mode": "greens", "omega": [1.0, PHI],
                       "greens": {"N": 4, "sigma": 0.3,
                                  "coupling_eps": 1e-3}})
    assert dispatch(cfg, str(tmp_path / "out")) == EXIT_OK
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["results"]["sound"] is True
    assert rep["results"]["provenance"] == "direct"


def test_greens_mode_inverts_once(tmp_path, monkeypatch):
    # the soundness check reads the inverse the certificate came from
    real, calls = greens.invert_direct, []

    def counting(T, threshold=0):
        calls.append(threshold)
        return real(T, threshold)

    monkeypatch.setattr(cli, "invert_direct", counting)
    monkeypatch.setattr(greens, "invert_direct", counting)
    cfg = load_config({"mode": "greens", "omega": [1.0, PHI],
                       "greens": {"N": 4, "sigma": 0.3,
                                  "coupling_eps": 1e-3}})
    assert dispatch(cfg, str(tmp_path / "out")) == EXIT_OK
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["results"]["sound"] is True
    assert calls == [2]


def test_greens_mode_memory_stays_in_component_blocks(tmp_path):
    # a coupling along one axis at N = 20: 41 components of 41 sites,
    # m = 1681; the traced peak stays below a quarter of one m x m float64
    # array, so no m x m array is built
    cfg = load_config({"mode": "greens", "omega": [1.0, PHI],
                       "perturbation": {"mode": [1, 0]},
                       "greens": {"N": 20, "coupling_eps": 0.05}})
    m = 41 ** 2
    tracemalloc.start()
    try:
        assert dispatch(cfg, str(tmp_path / "out")) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["results"]["sound"] is True and rep["results"]["sites"] == m
    assert peak < m * m * 2


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
    lines = (tmp_path / "out" / "sigma_scan.csv").read_text().splitlines()
    assert lines[0] == "sigma pass norm alpha"
    # every boundary here is a norm boundary, which its closed-form edge
    # and one confirming probe settle
    rows = [(line.split()[1] == "1", float(line.split()[2]))
            for line in lines[1:]]
    norm_target = rep["config"]["sigma_scan"]["norm_target"]
    boundaries = [(a, b) for a, b in zip(rows, rows[1:]) if a[0] != b[0]]
    assert boundaries and all((b if a[0] else a)[1] > norm_target
                              for a, b in boundaries)
    assert rep["results"]["factored_probes"] \
        == rep["results"]["samples"] + len(boundaries)


def test_sigma_scan_reports_components(tmp_path):
    # mode (1, 0) on [-8, 8]^2 splits the lattice into 17 chains of 17
    cfg = load_config({"mode": "sigma-scan", "omega": [1.0, PHI],
                       "perturbation": {"mode": [1, 0]},
                       "greens": {"N": 8, "coupling_eps": 0.05},
                       "sigma_scan": {"range": [-0.2, -0.1],
                                      "points_per_unit": 100.0,
                                      "refine_iters": 3}})
    assert dispatch(cfg, str(tmp_path / "out")) == EXIT_OK
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["results"]["components"] == [17, 17]


def test_verify_replays_report(tmp_path):
    cfg = load_config(stability_config(perturbation={"kind": "zero"}))
    assert dispatch(cfg, str(tmp_path / "a")) == EXIT_OK
    vcfg = load_config({"mode": "verify",
                        "verify": {"report":
                                   str(tmp_path / "a" / "report.json")}})
    assert dispatch(vcfg, str(tmp_path / "b")) == EXIT_OK
    rep = json.loads((tmp_path / "b" / "report.json").read_text())
    assert rep["results"]["match"] is True
    assert "schema" not in rep["results"]


def test_verify_detects_tampering(tmp_path):
    cfg = load_config(stability_config(perturbation={"kind": "zero"}))
    dispatch(cfg, str(tmp_path / "a"))
    p = tmp_path / "a" / "report.json"
    doc = json.loads(p.read_text())
    doc["results"]["worst_drift"] = 1.0
    p.write_text(json.dumps(doc))
    vcfg = load_config({"mode": "verify", "verify": {"report": str(p)}})
    assert dispatch(vcfg, str(tmp_path / "b")) == EXIT_NUMERIC


def test_verify_names_schema_change(tmp_path):
    cfg = load_config(stability_config(perturbation={"kind": "zero"}))
    dispatch(cfg, str(tmp_path / "a"))
    p = tmp_path / "a" / "report.json"
    doc = json.loads(p.read_text())
    assert doc["schema"] == cli.SCHEMA_VERSION == 9
    doc["schema"] = 1
    p.write_text(json.dumps(doc))
    vcfg = load_config({"mode": "verify", "verify": {"report": str(p)}})
    assert dispatch(vcfg, str(tmp_path / "b")) == EXIT_NUMERIC
    rep = json.loads((tmp_path / "b" / "report.json").read_text())
    assert rep["results"]["schema"] == [1, 9]
    assert rep["results"]["match"] is False
    summary = (tmp_path / "b" / "summary.txt").read_text()
    assert "DIFFERS (report schema 1, current schema 9)" in summary


def test_verify_refuses_schema_4_constants(tmp_path, capsys):
    # a schema-4 report's config echo carries `constants`, which is no
    # config key: the replay is refused as a config error
    cfg = load_config(stability_config(perturbation={"kind": "zero"}))
    dispatch(cfg, str(tmp_path / "a"))
    p = tmp_path / "a" / "report.json"
    doc = json.loads(p.read_text())
    doc["schema"] = 4
    doc["config"]["constants"] = [2, 3, 17, 4, 5, 14, 11, 16, 12]
    p.write_text(json.dumps(doc))
    code, rep, err = run_verify(tmp_path, capsys, p, tmp_path / "b")
    assert code == EXIT_CONFIG and rep["exit_code"] == EXIT_CONFIG
    want = f"verify.report: {p}: config: unknown key: constants"
    assert rep["results"]["config_errors"] == [want]
    assert want in err and "Traceback" not in err


@pytest.mark.parametrize("section, key, value", REMOVED_SETTINGS)
def test_verify_refuses_schema_6_settings(tmp_path, capsys, section, key,
                                          value):
    # a schema-6 report's config echo carries the four settings that are
    # now constants: the replay is refused as a config error naming the key
    cfg = load_config(stability_config(perturbation={"kind": "zero"}))
    dispatch(cfg, str(tmp_path / "a"))
    p = tmp_path / "a" / "report.json"
    doc = json.loads(p.read_text())
    doc["schema"] = 6
    doc["config"][section][key] = value
    p.write_text(json.dumps(doc))
    code, rep, err = run_verify(tmp_path, capsys, p, tmp_path / "b")
    assert code == EXIT_CONFIG and rep["exit_code"] == EXIT_CONFIG
    want = f"verify.report: {p}: config: unknown key: {section}.{key}"
    assert rep["results"]["config_errors"] == [want]
    assert want in err and "Traceback" not in err


# runs that end in exit 2, 3 or 4, with the refusal, exclusion or error in
# `results`: the stability and atlas size caps refuse inside the mode
FAILING_RUNS = {
    "stability-cap-exit-2": ({"mode": "stability",
                              "stability": {"T": 10000.0, "dt": 1e-3}},
                             EXIT_CONFIG),
    "atlas-cap-exit-2": ({"mode": "atlas", "box": {"atlas_level": 2}},
                         EXIT_CONFIG),
    "greens-exit-4": ({"mode": "greens", "greens": {"N": 3, "sigma": -1.17}},
                      EXIT_NUMERIC),
    "run-exit-3": ({"mode": "run", "caps": {"gamma": 50.0, "levels": 1}},
                   EXIT_EXCLUDED),
    "atlas-exit-3": ({"mode": "atlas", "caps": {"gamma": 50.0}},
                     EXIT_EXCLUDED),
}


@pytest.mark.parametrize("name", sorted(FAILING_RUNS))
def test_verify_replays_failing_runs(tmp_path, capsys, name):
    data, want = FAILING_RUNS[name]
    assert main(["--config", write_config(tmp_path, data),
                 "--out", str(tmp_path / "a")]) == want
    saved = tmp_path / "a" / "report.json"
    code, rep, _ = run_verify(tmp_path, capsys, saved, tmp_path / "b")
    assert code == EXIT_OK
    assert rep["results"]["match"] is True
    assert rep["results"]["replay_exit"] == want
    # the exit code is part of the comparison
    doc = json.loads(saved.read_text())
    doc["exit_code"] = EXIT_OK
    saved.write_text(json.dumps(doc))
    code, rep, _ = run_verify(tmp_path, capsys, saved, tmp_path / "c")
    assert code == EXIT_NUMERIC and rep["results"]["match"] is False


# the benchmark's kam-run config with eps and the amplitude at 3e-2: its Lie
# series diverges at order 2 of level 1 (seed 1) or order 3 of level 2
# (seed 3)
DIVERGENT_RUN = {"mode": "run", "d": 2, "n": 1, "omega": [1.0, PHI],
                 "Omega": [1.17], "A": 2.0, "s0": 0.3, "r0": 0.5,
                 "eps": 3e-2, "caps": {"levels": 3, "N_max": 24,
                                       "gamma": 1e-4},
                 "perturbation": {"kind": "random-tail", "amplitude": 3e-2,
                                  "kmax": 26}}


@pytest.mark.parametrize("seed, level, order", [(1, 1, 2), (3, 2, 3)])
def test_lie_divergence_is_typed_and_exits_4(tmp_path, capsys, seed, level,
                                             order):
    # a divergent Lie series ends in exit 4 with its level, order and both
    # term norms, exact, in results.lie_divergence, and verify replays it
    data = {**DIVERGENT_RUN, "seed": seed}
    assert main(["--config", write_config(tmp_path, data),
                 "--out", str(tmp_path / "a")]) == EXIT_NUMERIC
    assert "Traceback" not in capsys.readouterr().err
    saved = tmp_path / "a" / "report.json"
    res = json.loads(saved.read_text())["results"]
    div = res["lie_divergence"]
    assert (div["level"], div["order"]) == (level, order)
    assert div["norm_after"] > div["norm_before"] > 0
    msg = (f"Lie series terms grow at level {level} at order {order}: "
           f"{div['norm_before']!r} -> {div['norm_after']!r}")
    assert res["error"] == f"LieSeriesDivergence: {msg}"
    assert (tmp_path / "a" / "summary.txt").read_text() \
        == f"numeric failure: {msg}\n"
    code, rep, _ = run_verify(tmp_path, capsys, saved, tmp_path / "b")
    assert code == EXIT_OK and rep["results"]["match"] is True
    assert rep["results"]["replay_exit"] == EXIT_NUMERIC


def test_failed_run_keeps_its_finished_levels(tmp_path, capsys):
    # seed 3 diverges at level 2, after level 1 missed its schedule target:
    # the report keeps the records and events of the levels it finished,
    # as the run stopped before the failing level lists them, and verify
    # replays it
    data = {**DIVERGENT_RUN, "seed": 3}
    assert main(["--config", write_config(tmp_path, data),
                 "--out", str(tmp_path / "a")]) == EXIT_NUMERIC
    saved = tmp_path / "a" / "report.json"
    rep = json.loads(saved.read_text())
    assert rep["schema"] == 9
    assert rep["results"]["lie_divergence"]["level"] == 2
    assert [lv["level"] for lv in rep["results"]["levels"]] == [1, 2]
    assert [(e["level"], e["event"]) for e in rep["events"]] \
        == [(2, "schedule_target_missed")]
    short = {**data, "caps": {**data["caps"], "levels": 1}}
    assert main(["--config", write_config(tmp_path, short),
                 "--out", str(tmp_path / "b")]) == EXIT_OK
    done = json.loads((tmp_path / "b" / "report.json").read_text())
    assert rep["results"]["levels"] == done["results"]["levels"]
    assert rep["events"] == done["events"]
    code, ver, _ = run_verify(tmp_path, capsys, saved, tmp_path / "c")
    assert code == EXIT_OK and ver["results"]["match"] is True


def test_verify_replays_a_downgrade(tmp_path, capsys):
    data, _ = FAILING_RUNS["greens-exit-4"]
    assert main(["--config", write_config(tmp_path, data),
                 "--out", str(tmp_path / "a"), "--no-strict"]) == EXIT_OK
    saved = tmp_path / "a" / "report.json"
    assert json.loads(saved.read_text())["results"]["downgraded"] is True
    code, rep, _ = run_verify(tmp_path, capsys, saved, tmp_path / "b")
    assert code == EXIT_OK
    assert rep["results"]["match"] is True
    assert rep["results"]["replay_exit"] == EXIT_OK


def test_empty_atlas_writes_its_header_alone(tmp_path):
    data, want = FAILING_RUNS["atlas-exit-3"]
    assert dispatch(load_config(data), str(tmp_path / "o")) == want
    assert (tmp_path / "o" / "atlas.csv").read_text() \
        == "level,xi0,xi1,half_width\n"


def test_exclusion_message_prints_plain_floats(tmp_path):
    data, _ = FAILING_RUNS["run-exit-3"]
    assert dispatch(load_config(data), str(tmp_path / "o")) == EXIT_EXCLUDED
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    assert "parameter (1.0, 1.618033988749895) excluded at level" \
        in rep["results"]["excluded"]


def run_verify(tmp_path, capsys, report, out):
    """Exit code, parsed report.json and stderr of `main` verifying the
    report at `report` into `out`."""
    path = write_config(tmp_path, {"mode": "verify",
                                   "verify": {"report": str(report)}},
                        name="verify.json")
    code = main(["--config", path, "--out", str(out)])
    return code, json.loads((out / "report.json").read_text()), \
        capsys.readouterr().err


@pytest.mark.parametrize("doc, msg", [
    ([1, 2], "is not a JSON object"),
    ({"mode": "bogus", "config": {}}, "cannot replay mode 'bogus'")])
def test_verify_refuses_foreign_report(tmp_path, capsys, doc, msg):
    p = tmp_path / "saved.json"
    p.write_text(json.dumps(doc))
    code, rep, err = run_verify(tmp_path, capsys, p, tmp_path / "o")
    assert code == EXIT_CONFIG and rep["exit_code"] == EXIT_CONFIG
    assert msg in rep["results"]["config_errors"][0]
    assert msg in err and "Traceback" not in err


@pytest.mark.parametrize("config, msg", [
    ([1], "top level: expected a JSON object"),
    ({"mode": "stability", "d": "x"}, "d: positive integer")])
def test_verify_names_saved_config_errors(tmp_path, capsys, config, msg):
    p = tmp_path / "saved.json"
    p.write_text(json.dumps({"mode": "stability", "config": config}))
    code, rep, err = run_verify(tmp_path, capsys, p, tmp_path / "o")
    assert code == EXIT_CONFIG and rep["exit_code"] == EXIT_CONFIG
    want = f"verify.report: {p}: config: {msg}"
    assert want in rep["results"]["config_errors"]
    assert want in err and "Traceback" not in err


def test_verify_refuses_self_naming_report(tmp_path, capsys):
    # verifying into the report's own directory leaves a verify report
    # that names itself; replaying it would recurse without end
    path = write_config(tmp_path, stability_config(
        perturbation={"kind": "zero"}))
    out = tmp_path / "a"
    assert main(["--config", path, "--out", str(out)]) == EXIT_OK
    code, rep, _ = run_verify(tmp_path, capsys, out / "report.json", out)
    assert code == EXIT_OK and rep["mode"] == "verify"
    assert rep["config"]["verify"]["report"] == str(out / "report.json")
    code, rep, err = run_verify(tmp_path, capsys, out / "report.json",
                                    tmp_path / "b")
    assert code == EXIT_CONFIG and rep["exit_code"] == EXIT_CONFIG
    assert rep["results"]["config_errors"] \
        == ["verify.report: cannot replay mode 'verify'"]
    assert "Traceback" not in err


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


@pytest.mark.parametrize("target", ["afile", "afile/sub"])
def test_main_unusable_out_exit_2_before_the_run(tmp_path, capsys,
                                                 monkeypatch, target):
    # an --out that cannot be made is refused before the mode runs
    def never(cfg, out):
        raise AssertionError("mode ran")

    monkeypatch.setitem(cli.MODE_TABLE, "stability", never)
    (tmp_path / "afile").write_text("")
    out = tmp_path / target
    code = main(["--config", write_config(tmp_path, stability_config()),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert str(out) in err and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_main_missing_file_exit_2(tmp_path):
    assert main(["--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_atlas_huge_paving_refused_exit_2(tmp_path, capsys, monkeypatch):
    # level 2 at A = 2 would pave 4 boxes of 32768^2 children each
    def no_paving(*args):
        raise AssertionError("paved before refusing")
    monkeypatch.setattr(cli, "pave_and_filter", no_paving)
    path = write_config(tmp_path, {"mode": "atlas",
                                   "box": {"atlas_level": 2}})
    out = tmp_path / "o"
    assert main(["--config", path, "--out", str(out)]) == EXIT_CONFIG
    assert "box.atlas_level" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["exit_code"] == EXIT_CONFIG
    assert "2^32.0 boxes" in report["results"]["config_errors"][0]


class _PastCap(Exception):
    """Raised by a stand-in for the capped work: the config got past the
    size check."""


@pytest.mark.parametrize("lo, hi, ppu, refused", [
    (-1.0, 1.0, 1000.0, False),           # the default section, 2001 points
    (0.0, 1.0, 65535.0, False),           # 2^16 points, the largest allowed
    (0.0, 1.0, 65536.0, True),
    (-1.0, 1.0, 1e300, True),
    (0.0, 1.0, math.inf, True),           # refused as a number, below
    (-1e308, 1e308, 1.0, True),           # finite ends, span overflows
])
def test_sigma_scan_grid_cap(tmp_path, capsys, monkeypatch, lo, hi, ppu,
                             refused):
    def stand_in(*args, **kwargs):
        raise _PastCap
    monkeypatch.setattr(cli, "sigma_scan", stand_in)
    path = write_config(tmp_path, {"mode": "sigma-scan",
                                   "sigma_scan": {"range": [lo, hi],
                                                  "points_per_unit": ppu}})
    out = tmp_path / "o"
    if not refused:
        with pytest.raises(_PastCap):
            main(["--config", path, "--out", str(out)])
        return
    assert main(["--config", path, "--out", str(out)]) == EXIT_CONFIG
    msg = (f"more than the {cli.MAX_SIGMA_POINTS} allowed"
           if math.isfinite(ppu) else "sigma_scan.points_per_unit: positive")
    assert msg in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["exit_code"] == EXIT_CONFIG
    assert msg in report["results"]["config_errors"][0]


@pytest.mark.parametrize("mode", ["greens", "sigma-scan"])
@pytest.mark.parametrize("data, refused", [
    ({"greens": {"N": 22}}, False),           # 2025 sites
    ({"greens": {"N": 23}}, True),            # 2209 sites
    ({"greens": {"N": 60}}, True),            # 14641 sites, 3.2 GiB dense
    ({"n": 2, "Omega": [1.17, 1.43], "greens": {"N": 16}}, True),
    ({"d": 3, "omega": [1.0, PHI, 2.0], "perturbation": {"mode": [1, 0, 0]},
      "greens": {"N": 6}}, True),             # 13^3 = 2197 sites
])
def test_greens_site_cap(tmp_path, capsys, monkeypatch, mode, data,
                         refused):
    def stand_in(*args, **kwargs):
        raise _PastCap
    monkeypatch.setattr(cli, "build_T", stand_in)
    assert cli.MAX_GREENS_SITES == 2048
    path = write_config(tmp_path, {"mode": mode, **data})
    out = tmp_path / "o"
    if not refused:
        with pytest.raises(_PastCap):
            main(["--config", path, "--out", str(out)])
        return
    assert main(["--config", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["exit_code"] == EXIT_CONFIG
    msg = report["results"]["config_errors"][0]
    assert msg.startswith(f"greens.N: {data['greens']['N']} at d = ")
    assert "more than the 2048 allowed" in msg
    assert msg in err and "Traceback" not in err


D3_AT = {"mode": "run", "d": 3, "n": 1, "seed": 1,
         "omega": [1.0, PHI, math.sqrt(2.0)], "Omega": [1.17],
         "caps": {"levels": 2, "N_max": 10, "gamma": 1e-4}}


@pytest.mark.parametrize("data, key", [
    ({"perturbation": {"kmax": 6}}, None),       # D3_RUN: 75^3 points
    ({"perturbation": {"kmax": 37}}, None),      # 80^3, the largest at d = 3
    ({"perturbation": {"kmax": 38}}, "perturbation.kmax"),      # 81^3
    ({"perturbation": {"kmax": 2000}}, "perturbation.kmax"),
    ({"perturbation": {"kind": "cosine", "mode": [40, 0, 0]}},
     "perturbation.mode"),
    ({"perturbation": {"cutoff_cap": 48}}, "perturbation.cutoff_cap"),
    ({"d": 2, "omega": [1.0, PHI], "caps": {"N_max": 400}}, "caps.N_max"),
], ids=["d3-run", "largest", "past", "kmax-2000", "cosine", "cap", "N_max"])
def test_run_jet_grid_cap(tmp_path, capsys, monkeypatch, data, key):
    # refused before any array is built: build_perturbation never runs
    def stand_in(*args, **kwargs):
        raise _PastCap
    monkeypatch.setattr(cli, "build_perturbation", stand_in)
    assert cli.MAX_JET_GRID_POINTS == 2 ** 19
    merged = {**D3_AT, **data,
              "caps": {**D3_AT["caps"], **data.get("caps", {})}}
    cfg = load_config(merged)
    out = tmp_path / "o"
    if key is None:
        with pytest.raises(_PastCap):
            dispatch(cfg, str(out))
        return
    assert dispatch(cfg, str(out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["exit_code"] == EXIT_CONFIG
    msg, = report["results"]["config_errors"]
    assert msg.startswith(f"{key}: ")
    assert f"more than the {2 ** 19} allowed" in msg
    assert msg in err and "Traceback" not in err


@pytest.mark.parametrize("iters, refused", [(64, False), (65, True)])
def test_refine_iters_cap(tmp_path, capsys, iters, refused):
    # refused by config validation, before any scan could start
    assert MAX_REFINE_ITERS == 64
    data = {"mode": "sigma-scan", "sigma_scan": {"refine_iters": iters}}
    if not refused:
        assert load_config(data)["sigma_scan"]["refine_iters"] == iters
        return
    with pytest.raises(ConfigError) as exc:
        load_config(data)
    msg = "sigma_scan.refine_iters: integer from 0 to 64"
    assert exc.value.violations == [msg]
    out = tmp_path / "o"
    assert main(["--config", write_config(tmp_path, data),
                 "--out", str(out)]) == EXIT_CONFIG
    assert msg in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["config_errors"] == [msg]


@pytest.mark.parametrize("section, key, msg", [
    (None, "seed", "seed: nonneg integer"),
    (None, "d", "d: positive integer"),
    (None, "n", "n: positive integer"),
    ("caps", "N_max", "caps.N_max: positive integer"),
    ("caps", "levels", "caps.levels: positive integer"),
    ("caps", "exclusion_N", "caps.exclusion_N: positive integer"),
    ("box", "atlas_level", "box.atlas_level: positive integer"),
    ("perturbation", "kmax", "perturbation.kmax: positive integer"),
    ("perturbation", "cutoff_cap", "perturbation.cutoff_cap: positive integer"),
    ("perturbation", "mode", "perturbation.mode: integer list"),
    ("greens", "N", "greens.N: positive integer"),
    ("sigma_scan", "refine_iters",
     "sigma_scan.refine_iters: integer from 0 to 64"),
])
@pytest.mark.parametrize("flag", [True, False])
def test_booleans_are_not_integers(tmp_path, capsys, section, key, msg, flag):
    value = [flag, 0] if key == "mode" else flag
    data = {key: value} if section is None else {section: {key: value}}
    with pytest.raises(ConfigError) as exc:
        load_config(data)
    assert msg in exc.value.violations
    out = tmp_path / "o"
    assert main(["--config", write_config(tmp_path, data),
                 "--out", str(out)]) == EXIT_CONFIG
    assert msg in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert msg in report["results"]["config_errors"]


@pytest.mark.parametrize("text, msg", [
    ('{"mode": "stability", "stability": {"T": Infinity}}',
     "stability.T: positive"),
    ('{"omega": [1.0, NaN]}', "omega: nonempty number list"),
    ('{"A": Infinity}', "A: must exceed 1"),
    ('{"Omega": [-Infinity]}', "Omega: nonempty number list"),
    ('{"caps": {"gamma": Infinity}}', "caps.gamma: positive"),
    ('{"greens": {"sigma": NaN}}', "greens.sigma: number"),
    ('{"mode": "stability", "stability": {"phases": [[0.0, NaN]]}}',
     "stability.phases: list of angle vectors"),
    ('{"mode": "stability", "n": 2, "Omega": [1.17, 1.43],'
     ' "stability": {"z0_imag": [0.0, Infinity]}}',
     "stability.z0_imag: number list"),
    # both finite, but T / dt overflows to an infinite step count
    ('{"mode": "stability", "stability": {"T": 1e300, "dt": 1e-300}}',
     "stability.T / stability.dt: must be finite"),
], ids=["T-inf", "omega-nan", "A-inf", "Omega-neg-inf", "gamma-inf",
        "sigma-nan", "phases-nan", "z0_imag-inf", "T-over-dt-inf"])
def test_non_finite_numbers_refused(tmp_path, capsys, text, msg):
    # Python's json reads NaN and +-Infinity; each is a config error (exit
    # 2 with the violation in report.json), not a run
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "o"
    assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert msg in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["exit_code"] == EXIT_CONFIG
    assert report["results"]["config_errors"] == [msg]


def decaying_scalar_loop(rng, d, eps, kmax, zero_mean=True, real=True):
    """The per-mode form: two scalar draws and one np.exp per mode, at the
    random tail's decay rate 1."""
    entries = {}
    for k in np.ndindex(*(2 * kmax + 1,) * d):
        kk = tuple(int(c) - kmax for c in k)
        if sum(abs(c) for c in kk) > kmax:
            continue
        if zero_mean and not any(kk):
            continue
        amp = eps * np.exp(-1.0 * sum(abs(c) for c in kk))
        entries[kk] = amp * (rng.standard_normal()
                             + 1j * rng.standard_normal())
    f = FourierSeries.from_coeffs(d, entries, cutoff=kmax)
    return 0.5 * (f + f.conj_function()) if real else f


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("zero_mean", [True, False])
@pytest.mark.parametrize("real", [True, False])
def test_decaying_scalar_matches_mode_loop(d, zero_mean, real):
    kmax = {1: 26, 2: 9, 3: 4}[d]
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    got = _decaying_scalar(rng, d, 1e-6, kmax, zero_mean, real)
    ref = decaying_scalar_loop(ref_rng, d, 1e-6, kmax, zero_mean, real)
    assert got.cutoff == ref.cutoff
    assert np.array_equal(got.data, ref.data)
    assert rng.standard_normal() == ref_rng.standard_normal()


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


class _Integrated(Exception):
    """Raised by the stand-in integrator: the config got past the cap."""


@pytest.mark.parametrize("T, phases, refused", [
    (10.0, 1, False),                      # the default section
    (cli.MAX_STABILITY_STEPS * 1e-3, 1, False),
    (cli.MAX_STABILITY_STEPS * 1e-3, 2, True),
    ((cli.MAX_STABILITY_STEPS + 1) * 1e-3, 1, True),
    (1e12, 1, True),
])
def test_stability_step_cap(tmp_path, capsys, monkeypatch, T, phases,
                            refused):
    def stand_in(*args, **kwargs):
        raise _Integrated
    monkeypatch.setattr(cli, "linearized_chunks", stand_in)
    path = write_config(tmp_path, {"mode": "stability",
                                   "stability": {"T": T, "dt": 1e-3,
                                                 "phases": [[0.0, 0.0]]
                                                 * phases}})
    out = tmp_path / "o"
    if not refused:
        with pytest.raises(_Integrated):
            main(["--config", path, "--out", str(out)])
        return
    assert main(["--config", path, "--out", str(out)]) == EXIT_CONFIG
    msg = f"more than the {cli.MAX_STABILITY_STEPS} allowed"
    assert msg in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["exit_code"] == EXIT_CONFIG
    assert msg in report["results"]["config_errors"][0]


def test_zero_initial_condition_refused_before_integration(tmp_path, capsys,
                                                           monkeypatch):
    # z0_imag absent means zeros, so z0_real alone can make z0 zero
    def stand_in(*args, **kwargs):
        raise _Integrated
    monkeypatch.setattr(cli, "linearized_chunks", stand_in)
    msg = ("stability.z0_real, stability.z0_imag: the initial condition "
           "must not be zero")
    for st in ({"z0_real": [0.0], "z0_imag": [0.0]}, {"z0_real": [0.0]}):
        data = {"mode": "stability", "n": 1, "stability": st}
        out = tmp_path / "o"
        assert main(["--config", write_config(tmp_path, data),
                     "--out", str(out)]) == EXIT_CONFIG
        assert msg in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["config_errors"] == [msg]
    # z0_real absent means ones; one nonzero component is enough
    for st in ({"z0_imag": [0.0]}, {"z0_real": [0.0], "z0_imag": [1e-300]}):
        with pytest.raises(_Integrated):
            main(["--config", write_config(tmp_path, {
                "mode": "stability", "n": 1, "stability": st}),
                "--out", str(tmp_path / "o")])


D3_RUN = {"mode": "run", "d": 3, "n": 1,
          "omega": [1.0, PHI, math.sqrt(2.0)], "Omega": [1.17],
          "caps": {"levels": 2, "N_max": 10, "gamma": 1e-4},
          "perturbation": {"kind": "random-tail", "amplitude": 1e-6,
                           "kmax": 6}}


def test_d3_run_smoke(tmp_path):
    # a small d = 3 run end to end through main: every level stays exactly
    # real, so the jet kernel mirrors every bracket
    data = {**D3_RUN, "seed": 1,
            "caps": {**D3_RUN["caps"], "N_max": 3, "exclusion_N": 3},
            "perturbation": {**D3_RUN["perturbation"], "kmax": 3}}
    t0 = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["--config", write_config(tmp_path, data),
                     "--out", str(tmp_path / "o")])
    assert time.monotonic() - t0 <= 3.0
    assert code == EXIT_OK
    res = json.loads((tmp_path / "o" / "report.json").read_text())["results"]
    eps = res["eps_sequence"]
    assert len(eps) == 3 and all(b < a for a, b in zip(eps, eps[1:]))
    assert [lv["reality_err"] for lv in res["levels"]] == [0.0] * 3


def test_d3_run_config_accepted():
    # a random-tail run reads neither perturbation.mode nor
    # stability.phases, so their d = 2 defaults are not checked against d
    assert load_config(D3_RUN)["d"] == 3
    for mode in ("atlas", "run"):
        assert validate(load_config({**D3_RUN, "mode": mode}).values) == []


@pytest.mark.parametrize("data, msg", [
    ({"mode": "sigma-scan", "perturbation": {"mode": [1, 0, 0]}},
     "perturbation.mode: length must equal d"),
    ({"mode": "greens", "d": 3, "omega": [1.0, PHI, 2.0]},
     "perturbation.mode: length must equal d"),
    ({**D3_RUN, "perturbation": {"kind": "cosine"}},
     "perturbation.mode: length must equal d"),
    ({"mode": "stability", "stability": {"phases": [[0.0, 0.0, 0.0]]}},
     "stability.phases: each phase must have length d"),
], ids=["sigma-scan-mode", "greens-mode", "cosine-mode", "stability-phases"])
def test_lengths_checked_where_read(tmp_path, capsys, data, msg):
    with pytest.raises(ConfigError) as exc:
        load_config(data)
    assert exc.value.violations == [msg]
    out = tmp_path / "o"
    assert main(["--config", write_config(tmp_path, data),
                 "--out", str(out)]) == EXIT_CONFIG
    assert msg in capsys.readouterr().err
