"""Run configuration: JSON files, full validation, normalization.

Configs are plain JSON key/value maps (nesting allowed, no binary formats);
the grammar is the DEFAULTS tree below plus the per-key checks in
`parse_config`.  Validation is exhaustive: every violation is collected and
reported at once, and unknown keys anywhere in the tree are rejected.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

MODES = ("run", "atlas", "greens", "sigma-scan", "stability", "verify")

# bisection steps per pass/fail boundary of a sigma scan: past about 52
# halvings of a grid step the midpoint no longer moves in double precision
MAX_REFINE_ITERS = 64

DEFAULTS = {
    "mode": "run",
    "seed": 0,
    "d": 2,
    "n": 1,
    "omega": [1.0, 1.6180339887498949],
    "Omega": [1.17],
    "A": 2.0,
    "s0": 0.3,
    "r0": 0.5,
    "tau": None,                 # None -> d + 2
    "eps": 1e-6,
    "caps": {
        "N_max": 16,
        "levels": 3,
        "gamma": None,           # None -> 0.5 sqrt(eps): eps is the
                                 # measured first-level low norm in run,
                                 # the configured eps in atlas
        "exclusion_N": 6,
        "drift_tol": None,       # stability: exit 4 past this drift
    },
    "box": {
        "half_width": 0.5,
        "atlas_level": 1,
    },
    "perturbation": {
        "kind": "random-tail",   # random-tail | cosine | zero
        "amplitude": 1e-6,
        "kmax": 10,
        "cutoff_cap": 32,
        "mode": [1, 0],          # cosine only
    },
    "greens": {
        "N": 8,
        "sigma": 0.0,
        "threshold": None,       # None -> N // 2
        "coupling_eps": 0.0,
        "coupling_rho": 0.5,
    },
    "sigma_scan": {
        "range": [-1.0, 1.0],
        "alpha_target": 0.1,
        "threshold": 2.0,
        "norm_target": 100.0,
        "points_per_unit": 1000.0,
        "refine_iters": 20,
    },
    "stability": {
        "T": 10.0,
        "dt": 1e-3,
        "phases": [[0.0, 0.0]],
        "z0_real": None,         # None -> all-ones
        "z0_imag": None,
    },
    "verify": {
        "report": None,          # path of the report to replay
    },
}


class ConfigError(Exception):
    """Raised with the complete list of violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  "
                         + "\n  ".join(self.violations))


@dataclass
class RunConfig:
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def normalized(self) -> dict:
        return copy.deepcopy(self.values)


def _merge(defaults, given, path, violations):
    out = copy.deepcopy(defaults)
    for key, val in given.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            violations.append(f"unknown key: {here}")
            continue
        if isinstance(defaults[key], dict):
            if not isinstance(val, dict):
                violations.append(f"{here}: expected a table")
                continue
            out[key] = _merge(defaults[key], val, here, violations)
        else:
            out[key] = val
    return out


def _require(cond, msg, violations):
    if not cond:
        violations.append(msg)
    return cond


def _is_num(x):
    """A finite number: JSON true/false are not, nor NaN and +-Infinity,
    which Python's json parser accepts."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def _is_int(x, low=None):
    """An integer (JSON true/false are not), at least `low` if given."""
    return isinstance(x, int) and not isinstance(x, bool) \
        and (low is None or x >= low)


def _num_list(x):
    return isinstance(x, list) and len(x) > 0 and all(_is_num(v) for v in x)


def validate(values: dict) -> list:
    """All constraint violations for a merged config, as strings."""
    v = []
    c = values
    _require(c["mode"] in MODES, f"mode: must be one of {MODES}", v)
    _require(_is_int(c["seed"], 0), "seed: nonneg integer", v)
    dim_ok = _require(_is_int(c["d"], 1), "d: positive integer", v)
    n_ok = _require(_is_int(c["n"], 1), "n: positive integer", v)
    if _require(_num_list(c["omega"]), "omega: nonempty number list", v) \
            and dim_ok:
        _require(len(c["omega"]) == c["d"], "omega: length must equal d", v)
    if _require(_num_list(c["Omega"]), "Omega: nonempty number list", v):
        _require(all(x > 0 for x in c["Omega"]),
                 "Omega: entries must be positive", v)
        if n_ok:
            _require(len(c["Omega"]) == c["n"],
                     "Omega: length must equal n", v)
    _require(_is_num(c["A"]) and c["A"] > 1, "A: must exceed 1", v)
    for key in ("s0", "r0", "eps"):
        _require(_is_num(c[key]) and c[key] > 0, f"{key}: positive", v)
    if c["tau"] is not None:
        _require(_is_num(c["tau"]) and c["tau"] > 0, "tau: positive", v)

    caps = c["caps"]
    for key in ("N_max", "levels", "exclusion_N"):
        _require(_is_int(caps[key], 1), f"caps.{key}: positive integer", v)
    for key in ("gamma", "drift_tol"):
        if caps[key] is not None:
            _require(_is_num(caps[key]) and caps[key] > 0,
                     f"caps.{key}: positive", v)

    _require(_is_num(c["box"]["half_width"]) and c["box"]["half_width"] > 0,
             "box.half_width: positive", v)
    _require(_is_int(c["box"]["atlas_level"], 1),
             "box.atlas_level: positive integer", v)

    pert = c["perturbation"]
    _require(pert["kind"] in ("random-tail", "cosine", "zero"),
             "perturbation.kind: random-tail | cosine | zero", v)
    _require(_is_num(pert["amplitude"]) and pert["amplitude"] >= 0,
             "perturbation.amplitude: nonnegative", v)
    _require(_is_int(pert["kmax"], 1),
             "perturbation.kmax: positive integer", v)
    _require(_is_int(pert["cutoff_cap"], 1),
             "perturbation.cutoff_cap: positive integer", v)
    # the lengths of perturbation.mode and stability.phases are checked
    # against d only where they are read: the mode by the greens operator
    # (greens, sigma-scan) and the cosine perturbation, the phases by the
    # stability mode
    if dim_ok and _require(isinstance(pert["mode"], list)
                           and all(_is_int(k) for k in pert["mode"]),
                           "perturbation.mode: integer list", v) \
            and (c["mode"] in ("greens", "sigma-scan")
                 or pert["kind"] == "cosine"):
        _require(len(pert["mode"]) == c["d"],
                 "perturbation.mode: length must equal d", v)

    g = c["greens"]
    _require(_is_int(g["N"], 1), "greens.N: positive integer", v)
    _require(_is_num(g["sigma"]), "greens.sigma: number", v)
    if g["threshold"] is not None:
        _require(_is_num(g["threshold"]) and g["threshold"] >= 0,
                 "greens.threshold: nonnegative", v)
    _require(_is_num(g["coupling_eps"]) and g["coupling_eps"] >= 0,
             "greens.coupling_eps: nonnegative", v)
    _require(_is_num(g["coupling_rho"]) and g["coupling_rho"] > 0,
             "greens.coupling_rho: positive", v)

    sc = c["sigma_scan"]
    if _require(_num_list(sc["range"]) and len(sc["range"]) == 2,
                "sigma_scan.range: [lo, hi]", v):
        _require(sc["range"][0] < sc["range"][1],
                 "sigma_scan.range: lo < hi", v)
    for key in ("alpha_target", "threshold", "norm_target",
                "points_per_unit"):
        _require(_is_num(sc[key]) and sc[key] > 0,
                 f"sigma_scan.{key}: positive", v)
    _require(_is_int(sc["refine_iters"], 0)
             and sc["refine_iters"] <= MAX_REFINE_ITERS,
             "sigma_scan.refine_iters: integer from 0 to "
             f"{MAX_REFINE_ITERS}", v)

    st = c["stability"]
    if all([_require(_is_num(st[key]) and st[key] > 0,
                     f"stability.{key}: positive", v)
            for key in ("T", "dt")]):
        # round(T / dt) >= 2, and a finite step count: T / dt overflows to
        # inf for a large T over a tiny dt even when both are finite
        steps = st["T"] / st["dt"]
        _require(steps >= 1.5,
                 "stability.T: must span at least 2 steps of dt", v)
        _require(math.isfinite(steps),
                 "stability.T / stability.dt: must be finite", v)
    if _require(isinstance(st["phases"], list) and len(st["phases"]) > 0
                and all(_num_list(p) for p in st["phases"]),
                "stability.phases: list of angle vectors", v) and dim_ok \
            and c["mode"] == "stability":
        _require(all(len(p) == c["d"] for p in st["phases"]),
                 "stability.phases: each phase must have length d", v)
    for key in ("z0_real", "z0_imag"):
        if st[key] is not None and _require(
                _num_list(st[key]), f"stability.{key}: number list", v) \
                and n_ok:
            _require(len(st[key]) == c["n"],
                     f"stability.{key}: length must equal n", v)
    # z0_real None means all ones and z0_imag None zeros, so z0 is zero
    # only if z0_real is given, and a zero z0 has no Lyapunov estimate
    if _num_list(st["z0_real"]) \
            and (st["z0_imag"] is None or _num_list(st["z0_imag"])):
        _require(any(x != 0 for x in st["z0_real"] + (st["z0_imag"] or [])),
                 "stability.z0_real, stability.z0_imag: the initial "
                 "condition must not be zero", v)

    if c["mode"] == "verify":
        _require(isinstance(c["verify"]["report"], str),
                 "verify.report: path required in verify mode", v)
    return v


def load_config(data: dict) -> RunConfig:
    """Merge over defaults and validate; raises ConfigError listing every
    problem at once."""
    violations = []
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected a JSON object"])
    merged = _merge(DEFAULTS, data, "", violations)
    violations += validate(merged)
    if violations:
        raise ConfigError(violations)
    if merged["tau"] is None:
        merged["tau"] = float(merged["d"] + 2)
    return RunConfig(merged)


def parse_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"])
    return load_config(data)
