"""Batch front end: scenario execution and deterministic reports.

Every mode writes `report.json` (sorted keys, no timestamps — identical
config and seed give byte-identical bytes), CSV sidecars, and a short
human-readable `summary.txt` into the output directory.  Exit codes:
0 success, 2 configuration error, 3 parameter excluded, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .atlas import ParameterAtlas, nonresonance_predicate, pave_and_filter
from .config import ConfigError, RunConfig, load_config, parse_config
from .driver import ParameterExcluded, log_csv, make_schedule, run
from .fourier import FourierSeries
from .greens import CertificateGateError, check_certificate, invert_direct
from .homological import (LatticeMatrix, NearSingularError, SmallDivisorError,
                          build_T)
from .jets import HamiltonianJet, NormalForm
from .multiscale import sigma_scan
from .stability import (integrate_linearized, l2_drift, lyapunov_estimate,
                        symmetry_defect, trajectory_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EXCLUDED = 3
EXIT_NUMERIC = 4

SCHEMA_VERSION = 1


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    return obj


def render_report(report: dict) -> str:
    return json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"


def _decaying_scalar(rng, d, eps, decay, kmax, zero_mean=True, real=True):
    entries = {}
    for k in np.ndindex(*(2 * kmax + 1,) * d):
        kk = tuple(int(c) - kmax for c in k)
        if sum(abs(c) for c in kk) > kmax:
            continue
        if zero_mean and not any(kk):
            continue
        amp = eps * np.exp(-decay * sum(abs(c) for c in kk))
        entries[kk] = amp * (rng.standard_normal()
                             + 1j * rng.standard_normal())
    f = FourierSeries.from_coeffs(d, entries, cutoff=kmax)
    return 0.5 * (f + f.conj_function()) if real else f


def build_perturbation(cfg: RunConfig, rng) -> HamiltonianJet:
    c = cfg.values
    d, n = c["d"], c["n"]
    pert = c["perturbation"]
    s_ref, r_ref = c["s0"], c["r0"]
    if pert["kind"] == "zero" or pert["amplitude"] == 0.0:
        return HamiltonianJet.zero(d, n, s_ref=s_ref, r_ref=r_ref)
    z0 = (0,) * d
    zn = (0,) * n
    if pert["kind"] == "cosine":
        f = FourierSeries.cosine(d, tuple(pert["mode"]), pert["amplitude"])
        return HamiltonianJet(d, n, {(z0, zn, zn): f},
                              max_degree=4, cutoff_cap=pert["cutoff_cap"],
                              s_ref=s_ref, r_ref=r_ref)
    eps, dec, kmax = pert["amplitude"], pert["decay"], pert["kmax"]
    one_y = (1,) + (0,) * (d - 1)
    e1 = (1,) + (0,) * (n - 1)
    terms = {(z0, zn, zn): _decaying_scalar(rng, d, eps, dec, kmax)}
    terms[(one_y, zn, zn)] = _decaying_scalar(rng, d, eps, dec, kmax,
                                              zero_mean=False)
    hz = _decaying_scalar(rng, d, eps, dec, kmax, zero_mean=False,
                          real=False)
    terms[(z0, e1, zn)] = hz
    terms[(z0, zn, e1)] = hz.conj_function()
    mzz = _decaying_scalar(rng, d, eps, dec, kmax, zero_mean=False,
                           real=False)
    two = tuple(2 * a for a in e1)
    terms[(z0, two, zn)] = mzz
    terms[(z0, zn, two)] = mzz.conj_function()
    terms[(z0, e1, e1)] = _decaying_scalar(rng, d, eps, dec, kmax,
                                           zero_mean=False)
    terms[(one_y, e1, e1)] = _decaying_scalar(rng, d, eps, dec,
                                              min(kmax, 6), zero_mean=False)
    return HamiltonianJet(d, n, terms, max_degree=4,
                          cutoff_cap=pert["cutoff_cap"],
                          s_ref=s_ref, r_ref=r_ref)


def _normal_form(cfg: RunConfig) -> NormalForm:
    c = cfg.values
    return NormalForm(np.asarray(c["omega"], dtype=float),
                      np.asarray(c["Omega"], dtype=float),
                      FourierSeries.zero(c["d"], shape=(c["n"], c["n"])))


def _greens_operator(cfg: RunConfig) -> LatticeMatrix:
    """The greens section's lattice operator at sigma = 0: the diagonal plus
    a coupling symbol (zero when coupling_eps is 0)."""
    c = cfg.values
    n = c["n"]
    g = c["greens"]
    B = Z = FourierSeries.zero(c["d"], shape=(n, n))
    if g["coupling_eps"] != 0.0:
        mode = tuple(c["perturbation"]["mode"])
        # geometric envelope at the coupling decay rate, one excited mode
        amp = g["coupling_eps"] * np.exp(
            -g["coupling_rho"] * sum(abs(k) for k in mode))
        eye = 0.5 * amp * np.eye(n)
        neg = tuple(-k for k in mode)
        ent = {mode: eye, neg: eye} if mode != neg else {mode: 2 * eye}
        B = FourierSeries.from_coeffs(c["d"], ent, shape=(n, n))
    return build_T(c["omega"], c["Omega"], B, Z, g["N"])


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------

def _mode_run(cfg: RunConfig, out: dict):
    c = cfg.values
    rng = np.random.default_rng(c["seed"])
    nf = _normal_form(cfg)
    P = build_perturbation(cfg, rng)
    sch = make_schedule(c["A"], c["eps"], c["d"], tau=c["tau"],
                        C=tuple(c["constants"]), s0=c["s0"], r0=c["r0"],
                        N_max=c["caps"]["N_max"])
    res = run(nf, P, sch, max_levels=c["caps"]["levels"],
              stop_threshold=c["caps"]["stop_threshold"],
              lie_order=c["caps"]["lie_order"],
              cond_cap=c["caps"]["cond_cap"], gamma=c["caps"]["gamma"],
              exclusion_N=c["caps"]["exclusion_N"])
    out["results"] = {
        "omega_star": list(res.omega_star),
        "levels": len(res.rows),
        "eps_sequence": [r["eps_meas"] for r in res.rows],
        "contraction_exponent": res.exponent,
        "residual": res.residual,
        "final_low_norm": res.final_low_norm,
        "surviving_boxes": len(res.atlas.boxes),
    }
    out["csv"] = {"levels.csv": log_csv(res.rows)}
    out["summary"] = (
        f"run: {len(res.rows)} levels, final eps "
        f"{res.rows[-1]['eps_meas']:.3e}, exponent {res.exponent}")
    return EXIT_OK


def _mode_atlas(cfg: RunConfig, out: dict):
    c = cfg.values
    atlas = ParameterAtlas.root(c["omega"], c["box"]["half_width"],
                                A=c["A"])
    gamma = c["caps"]["gamma"]
    if gamma is None:
        gamma = 0.5 * float(np.sqrt(c["eps"]))
    pred = nonresonance_predicate(c["Omega"], N=c["caps"]["exclusion_N"],
                                  gamma=gamma, tau=c["tau"])
    removed_total = 0.0
    for level in range(1, c["box"]["atlas_level"] + 1):
        atlas, removed = pave_and_filter(atlas, level, pred)
        removed_total += removed
        if not atlas.boxes:
            break
    rows = atlas.serialize_rows()
    csv = "level," + ",".join(f"xi{i}" for i in range(c["d"])) \
        + ",half_width\n"
    csv += "\n".join(",".join([str(r[0])]
                              + [f"{float(x):.17e}" for x in r[1:]])
                     for r in rows)
    out["results"] = {
        "level": atlas.level,
        "boxes": len(atlas.boxes),
        "removed_measure": removed_total,
        "total_volume": atlas.total_volume(),
        "gamma": gamma,
    }
    out["csv"] = {"atlas.csv": csv + "\n"}
    out["summary"] = (f"atlas: level {atlas.level}, {len(atlas.boxes)} "
                      f"boxes survive, removed measure {removed_total:.3e}")
    if not atlas.boxes:
        out["results"]["excluded"] = "no parameter box survives"
        return EXIT_EXCLUDED
    return EXIT_OK


def _mode_greens(cfg: RunConfig, out: dict):
    c = cfg.values
    g = c["greens"]
    T = _greens_operator(cfg).with_sigma(g["sigma"])
    threshold = g["N"] // 2 if g["threshold"] is None else g["threshold"]
    _, cert = invert_direct(T, threshold=int(threshold),
                            cond_cap=c["caps"]["cond_cap"])
    sound = check_certificate(cert, T)
    out["results"] = {
        "norm_bound": cert.norm_bound,
        "alpha": cert.alpha,
        "threshold": cert.threshold,
        "b_exponent": cert.b_exponent,
        "provenance": cert.provenance,
        "sites": len(cert.region),
        "sound": bool(sound),
    }
    out["summary"] = (f"greens: norm {cert.norm_bound:.3e}, alpha "
                      f"{cert.alpha:.3f}, sound={bool(sound)}")
    return EXIT_OK if sound else EXIT_NUMERIC


def _mode_sigma_scan(cfg: RunConfig, out: dict):
    c = cfg.values
    sc = c["sigma_scan"]
    rep = sigma_scan(_greens_operator(cfg), tuple(sc["range"]),
                     (sc["alpha_target"], sc["threshold"],
                      sc["norm_target"]),
                     points_per_unit=sc["points_per_unit"],
                     refine_iters=sc["refine_iters"],
                     cond_cap=c["caps"]["cond_cap"])
    out["results"] = {
        "bad_intervals": [list(iv) for iv in rep.bad_intervals],
        "bad_measure": rep.bad_measure,
        "bad_fraction": rep.bad_fraction,
        "samples": len(rep.samples),
        "norm_route": rep.norm_route,
        "factored_probes": rep.factored_probes,
    }
    out["csv"] = {"sigma_scan.csv": rep.columnar()}
    out["summary"] = (f"sigma-scan: bad measure {rep.bad_measure:.4e} "
                      f"({rep.bad_fraction:.2%} of the range), "
                      f"{len(rep.bad_intervals)} intervals")
    return EXIT_OK


def _mode_stability(cfg: RunConfig, out: dict):
    c = cfg.values
    st = c["stability"]
    n = c["n"]
    B = None
    if c["perturbation"]["kind"] == "cosine" \
            and c["perturbation"]["amplitude"] > 0:
        scalar = FourierSeries.cosine(c["d"],
                                      tuple(c["perturbation"]["mode"]),
                                      c["perturbation"]["amplitude"])
        data = np.zeros((n, n) + scalar.data.shape[2:], dtype=complex)
        for j in range(n):
            data[j, j] = scalar.data[0, 0]
        B = FourierSeries(c["d"], (n, n), scalar.cutoff, data)
    re = st["z0_real"] if st["z0_real"] is not None else [1.0] * n
    im = st["z0_imag"] if st["z0_imag"] is not None else [0.0] * n
    z0 = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    rows = []
    csvs = {}
    worst_drift = 0.0
    for i, x0 in enumerate(st["phases"]):
        traj = integrate_linearized(c["omega"], c["Omega"], B, z0,
                                    T=st["T"], dt=st["dt"], x0=x0)
        drift = l2_drift(traj)
        lam, first, second = lyapunov_estimate(traj, return_halves=True)
        worst_drift = max(worst_drift, drift)
        rows.append({"phase": list(map(float, x0)), "l2_drift": drift,
                     "lyapunov": lam, "lyapunov_first_half": first,
                     "lyapunov_second_half": second})
        if i == 0:
            stride = max(1, len(traj.times) // 10000)
            csvs["trajectory.csv"] = trajectory_csv(traj, stride=stride)
    out["results"] = {
        "trajectories": rows,
        "symmetry_defect": symmetry_defect(B),
        "worst_drift": worst_drift,
    }
    out["csv"] = csvs
    out["summary"] = (f"stability: {len(rows)} phases, worst drift "
                      f"{worst_drift:.3e}, lyapunov "
                      f"{rows[0]['lyapunov']:.3e}")
    tol = c["caps"]["drift_tol"]
    if tol is not None and worst_drift > tol:
        return EXIT_NUMERIC
    return EXIT_OK


def _mode_verify(cfg: RunConfig, out: dict):
    path = cfg.values["verify"]["report"]
    try:
        with open(path) as fh:
            saved = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError([f"verify.report: cannot load {path}: {exc}"])
    if "config" not in saved or "mode" not in saved:
        raise ConfigError(["verify.report: missing config/mode"])
    replay_cfg = load_config(saved["config"])
    replay = {"schema": SCHEMA_VERSION, "mode": saved["mode"],
              "config": replay_cfg.normalized()}
    code = MODE_TABLE[saved["mode"]](replay_cfg, replay)
    replay.pop("csv", None)
    replay.pop("summary", None)
    pruned = {k: v for k, v in saved.items()
              if k not in ("csv", "summary", "exit_code")}
    match = render_report(replay) == render_report(pruned)
    out["results"] = {"replayed": path, "match": match,
                      "replay_exit": code}
    out["summary"] = f"verify: replay of {path} " \
                     + ("matches" if match else "DIFFERS")
    return EXIT_OK if match and code == EXIT_OK else EXIT_NUMERIC


MODE_TABLE = {
    "run": _mode_run,
    "atlas": _mode_atlas,
    "greens": _mode_greens,
    "sigma-scan": _mode_sigma_scan,
    "stability": _mode_stability,
    "verify": _mode_verify,
}


def dispatch(cfg: RunConfig, out_dir: str, strict: bool = True) -> int:
    """Run the configured mode, write report.json + CSV sidecars +
    summary.txt, and return the exit code."""
    report = {"schema": SCHEMA_VERSION, "mode": cfg.values["mode"],
              "config": cfg.normalized()}
    try:
        code = MODE_TABLE[cfg.values["mode"]](cfg, report)
    except ConfigError:
        raise
    except ParameterExcluded as exc:
        report["results"] = {"excluded": str(exc)}
        report["summary"] = f"parameter excluded: {exc}"
        code = EXIT_EXCLUDED
    except (NearSingularError, SmallDivisorError, CertificateGateError,
            FloatingPointError, np.linalg.LinAlgError, ValueError) as exc:
        report["results"] = {"error": f"{type(exc).__name__}: {exc}"}
        report["summary"] = f"numeric failure: {exc}"
        code = EXIT_NUMERIC
    if not strict and code == EXIT_NUMERIC:
        report["results"]["downgraded"] = True
        code = EXIT_OK
    report["exit_code"] = code
    _write_outputs(report, out_dir)
    return code


def _write_outputs(report: dict, out_dir: str):
    """Write report.json, the report's CSV sidecars and summary.txt."""
    csvs = report.pop("csv", {})
    summary = report.pop("summary", "")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(render_report(report))
    for name, text in csvs.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(summary + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="toruskam",
        description="Invariant-torus engine: batch runs and verification")
    ap.add_argument("--config", required=True, help="JSON config file")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--mode", choices=sorted(MODE_TABLE),
                    help="override the configured mode")
    ap.add_argument("--seed", type=int, help="override the configured seed")
    ap.add_argument("--levels", type=int,
                    help="override caps.levels")
    ap.add_argument("--no-strict", dest="strict", action="store_false",
                    help="downgrade numeric failures to warnings")
    args = ap.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        values = cfg.normalized()
        if args.mode is not None:
            values["mode"] = args.mode
        if args.seed is not None:
            values["seed"] = args.seed
        if args.levels is not None:
            values["caps"]["levels"] = args.levels
        cfg = load_config(values)
        return dispatch(cfg, args.out, strict=args.strict)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        try:
            _write_outputs({"schema": SCHEMA_VERSION,
                            "exit_code": EXIT_CONFIG,
                            "results": {"config_errors": exc.violations},
                            "summary": str(exc)}, args.out)
        except OSError:
            pass                # the message above is the report
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
