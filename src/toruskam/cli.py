"""Batch front end: scenario execution and deterministic reports.

Every mode writes `report.json` (sorted keys, no timestamps — identical
config and seed give byte-identical bytes), CSV sidecars, and a short
human-readable `summary.txt` into the output directory.  Exit codes:
0 success, 2 configuration error, 3 parameter excluded, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
from numpy.random import default_rng

from .atlas import (ParameterAtlas, nonresonance_predicate, pave_and_filter,
                    paving_count)
from .config import ConfigError, RunConfig, load_config, parse_config
from .csvfmt import labelled_rows
from .driver import ParameterExcluded, log_csv, make_schedule, run
from .fourier import FourierSeries, _l1_grid, next_fast_len
from .greens import CertificateGateError, _check_against, invert_direct
from .homological import (LatticeMatrix, NearSingularError, SmallDivisorError,
                          build_T)
from .jets import HamiltonianJet, LieSeriesDivergence, NormalForm
from .multiscale import sigma_scan
from .stability import (LinearTrajectory, linearized_chunks,
                        lyapunov_estimate, sample_stream, symmetry_defect,
                        trajectory_csv_parts)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EXCLUDED = 3
EXIT_NUMERIC = 4

# version 2: sigma-scan results carry norm_route, factored_probes and
# components; version 3: run results carry level_certificate; version 4:
# run results' `levels` lists each level's eps_high, lie_tail, reality_err
# and B_fold_defect (it was the level count); version 5: the `config` echo
# no longer carries `constants`, a key that changed no number; version 6:
# run results' `levels` carry lie_skipped_keys and lie_skipped_bound, the
# keys the Lie series' budget booked in its tail and their summed bound;
# version 7: the `config` echo no longer carries caps.cond_cap, lie_order,
# stop_threshold and perturbation.decay, now constants; version 8: a Lie
# series' whole-key and dropped bounds come from one shell-sum table (their
# values move by rounding only), a divergent series reports
# results.lie_divergence, and a dropped mean of R^x is an rx_mean_dropped
# event; version 9: a run whose KAM step fails keeps the results.levels
# and events of the levels it finished
SCHEMA_VERSION = 9

# boxes an atlas run may pave: the predicate holds about 20 kB per child box
# at exclusion_N = 6, so this bounds one paving near 330 MB
MAX_ATLAS_BOXES = 1 << 14

# grid points a sigma scan may probe: the default section has 2001, and a
# probe at N = 8 takes about a millisecond, so this bounds a scan's grid
# near a minute
MAX_SIGMA_POINTS = 2 ** 16

# lattice sites (2N + 1)^d n of a greens or sigma-scan operator: both read
# G off its component blocks, and one connected block of 2025 sites
# (d = 1, N = 1012) peaked at 204 MB in greens and 329 MB in a sigma scan,
# so this bounds either mode near 400 MB
MAX_GREENS_SITES = 2 ** 11

# points L^d of the largest FFT grid a run's jet kernel may build.  A run's
# brackets pair a term of cutoff at most K = max(input cutoff, cutoff_cap)
# (a bracket keeps at most cutoff_cap, a Lie sum the larger cutoff) with a
# generator term of cutoff at most N_max, and keep at most cutoff_cap of
# the pair's box c <= K + N_max, so `jets._grid_kernel` takes
# L <= next_fast_len(max(2 max(K, N_max) + 1, K + N_max + cutoff_cap + 1)).
# kam-run reaches L = 90 of that bound and the d = 3 run L = 75
# (421875 points, 6.75 MB a grid), which peaked near 460 MB of RSS
MAX_JET_GRID_POINTS = 2 ** 19

# RK4 steps a stability run may take over all its phases: at n = 2, on one
# core of a 2-core x86-64 box, 10^6 steps take about 0.3 s, so this bounds
# a run near 1.5 s.  It bounds time only: a phase is read chunk by chunk,
# and a one-phase run at the cap peaked at 41 MB of RSS, numpy and scipy
# included, as a 10^5-step run does
MAX_STABILITY_STEPS = 2 ** 22


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


def _decaying_scalar(rng, d, eps, kmax, zero_mean=True, real=True):
    """Random series with coefficient eps e^{-|k|_1} (a + i b) at each
    |k|_1 <= kmax (k = 0 left out if `zero_mean`), a and b standard normal,
    drawn pairwise in lexicographic mode order; symmetrized to a real
    function if `real`."""
    l1 = _l1_grid(d, kmax).ravel()
    live = np.flatnonzero((l1 <= kmax) & ((l1 > 0) | (not zero_mean)))
    z = rng.standard_normal((live.size, 2))
    # one scalar np.exp per distinct |k|_1, as the per-mode form computed it
    amp = [eps * np.exp(-v) for v in range(kmax + 1)]
    data = np.zeros(l1.size, dtype=complex)
    data[live] += np.array([amp[v] for v in l1[live].tolist()]) \
        * (z[:, 0] + 1j * z[:, 1])
    f = FourierSeries(d, (1, 1), kmax,
                      data.reshape((1, 1) + (2 * kmax + 1,) * d))
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
    eps, kmax = pert["amplitude"], pert["kmax"]
    one_y = (1,) + (0,) * (d - 1)
    e1 = (1,) + (0,) * (n - 1)
    terms = {(z0, zn, zn): _decaying_scalar(rng, d, eps, kmax)}
    terms[(one_y, zn, zn)] = _decaying_scalar(rng, d, eps, kmax,
                                              zero_mean=False)
    hz = _decaying_scalar(rng, d, eps, kmax, zero_mean=False, real=False)
    terms[(z0, e1, zn)] = hz
    terms[(z0, zn, e1)] = hz.conj_function()
    mzz = _decaying_scalar(rng, d, eps, kmax, zero_mean=False, real=False)
    two = tuple(2 * a for a in e1)
    terms[(z0, two, zn)] = mzz
    terms[(z0, zn, two)] = mzz.conj_function()
    terms[(z0, e1, e1)] = _decaying_scalar(rng, d, eps, kmax,
                                           zero_mean=False)
    terms[(one_y, e1, e1)] = _decaying_scalar(rng, d, eps, min(kmax, 6),
                                              zero_mean=False)
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
    a coupling symbol (zero when coupling_eps is 0).  Refused, before any
    array is built, past MAX_GREENS_SITES sites."""
    c = cfg.values
    n = c["n"]
    g = c["greens"]
    sites = (2 * g["N"] + 1) ** c["d"] * n
    if sites > MAX_GREENS_SITES:
        raise ConfigError([
            f"greens.N: {g['N']} at d = {c['d']}, n = {n} gives {sites} "
            f"lattice sites, more than the {MAX_GREENS_SITES} allowed"])
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

def _certificate_record(cert) -> dict:
    """A certificate's claim and its route's numbers: r and q_r for the
    closed form, the condition number and measured norm for a direct
    inversion."""
    return {"provenance": cert.provenance, "alpha": cert.alpha,
            "prefactor": cert.prefactor, "norm_bound": cert.norm_bound,
            "threshold": cert.threshold, **cert.extra}


def _level_records(rows) -> list:
    """The per-level records of `results.levels`."""
    return [{k: r[k] for k in ("level", "eps_high", "lie_tail",
                               "lie_skipped_keys", "lie_skipped_bound",
                               "reality_err", "B_fold_defect")}
            for r in rows]


def _jet_grid_check(cfg: RunConfig):
    """Refuse a run whose jet kernel could build a grid of more than
    MAX_JET_GRID_POINTS points, before any array is built; the message
    leads with the largest of the three cutoffs."""
    c = cfg.values
    pert, d = c["perturbation"], c["d"]
    cap, N_max = pert["cutoff_cap"], c["caps"]["N_max"]
    if pert["kind"] == "random-tail":
        source = ("perturbation.kmax", pert["kmax"])
    elif pert["kind"] == "cosine":
        source = ("perturbation.mode", max(abs(k) for k in pert["mode"]))
    else:
        source = ("perturbation.kind", 0)
    K = max(source[1], cap)
    need = max(2 * max(K, N_max) + 1, K + N_max + cap + 1)
    L = need if need ** d > MAX_JET_GRID_POINTS else next_fast_len(need)
    if L ** d > MAX_JET_GRID_POINTS:
        key, value = max([source, ("perturbation.cutoff_cap", cap),
                          ("caps.N_max", N_max)], key=lambda kv: kv[1])
        raise ConfigError([
            f"{key}: {value} at d = {d} (input cutoff {source[1]}, "
            f"cutoff_cap {cap}, N_max {N_max}) gives jet grids of at least "
            f"{L}^{d} = {L ** d:.4g} points, more than the "
            f"{MAX_JET_GRID_POINTS} allowed"])


def _mode_run(cfg: RunConfig, out: dict):
    _jet_grid_check(cfg)
    c = cfg.values
    rng = default_rng(c["seed"])
    nf = _normal_form(cfg)
    P = build_perturbation(cfg, rng)
    sch = make_schedule(c["A"], c["eps"], tau=c["tau"], s0=c["s0"],
                        r0=c["r0"], N_max=c["caps"]["N_max"])
    res = run(nf, P, sch, max_levels=c["caps"]["levels"],
              gamma=c["caps"]["gamma"], exclusion_N=c["caps"]["exclusion_N"])
    out["results"] = {
        "omega_star": list(res.omega_star),
        "levels": _level_records(res.rows),
        "eps_sequence": [r["eps_meas"] for r in res.rows],
        "contraction_exponent": res.exponent,
        "residual": res.residual,
        "final_low_norm": res.final_low_norm,
        "surviving_boxes": len(res.atlas.boxes),
        "level_certificate": _certificate_record(res.level_certificate),
    }
    out["events"] = res.events
    out["csv"] = {"levels.csv": log_csv(res.rows)}
    out["summary"] = (
        f"run: {len(res.rows)} levels, final eps "
        f"{res.rows[-1]['eps_meas']:.3e}, exponent {res.exponent}")
    return EXIT_OK


def _mode_atlas(cfg: RunConfig, out: dict):
    c = cfg.values
    atlas = ParameterAtlas.root(c["omega"], c["box"]["half_width"],
                                A=c["A"])
    count = paving_count(atlas, c["box"]["atlas_level"])
    if count > MAX_ATLAS_BOXES:
        raise ConfigError([
            f"box.atlas_level: {c['box']['atlas_level']} levels at A = "
            f"{c['A']} would pave up to 2^{math.log2(count):.1f} boxes, "
            f"more than the {MAX_ATLAS_BOXES} allowed"])
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
    columns = ["level", *(f"xi{i}" for i in range(c["d"])), "half_width"]
    out["results"] = {
        "level": atlas.level,
        "boxes": len(atlas.boxes),
        "removed_measure": removed_total,
        "total_volume": atlas.total_volume(),
        "gamma": gamma,
    }
    out["csv"] = {"atlas.csv": labelled_rows(
        columns, [r[0] for r in rows], [r[1:] for r in rows])}
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
    parts, cert = invert_direct(T, threshold=int(threshold))
    sound = _check_against(cert, parts, T).passed
    out["results"] = {
        "norm_bound": cert.norm_bound,
        "alpha": cert.alpha,
        "threshold": cert.threshold,
        "b_exponent": cert.b_exponent,
        "provenance": cert.provenance,
        "sites": len(cert.region),
        "sound": sound,
    }
    out["summary"] = (f"greens: norm {cert.norm_bound:.3e}, alpha "
                      f"{cert.alpha:.3f}, sound={sound}")
    return EXIT_OK if sound else EXIT_NUMERIC


def _mode_sigma_scan(cfg: RunConfig, out: dict):
    c = cfg.values
    sc = c["sigma_scan"]
    lo, hi = sc["range"]
    span = (hi - lo) * sc["points_per_unit"]
    # the grid has ceil(span) + 1 points; the negated test refuses inf too
    if not span <= MAX_SIGMA_POINTS - 1:
        raise ConfigError([
            f"sigma_scan: range [{lo}, {hi}] at points_per_unit "
            f"{sc['points_per_unit']} would probe {span + 1:.4g} grid "
            f"points, more than the {MAX_SIGMA_POINTS} allowed"])
    rep = sigma_scan(_greens_operator(cfg), tuple(sc["range"]),
                     (sc["alpha_target"], sc["threshold"],
                      sc["norm_target"]),
                     points_per_unit=sc["points_per_unit"],
                     refine_iters=sc["refine_iters"])
    out["results"] = {
        "bad_intervals": [list(iv) for iv in rep.bad_intervals],
        "bad_measure": rep.bad_measure,
        "bad_fraction": rep.bad_fraction,
        "samples": len(rep.samples),
        "norm_route": rep.norm_route,
        "factored_probes": rep.factored_probes,
        "components": list(rep.components),
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
    dt = st["dt"]
    nsteps = round(st["T"] / dt)
    steps = nsteps * len(st["phases"])
    if steps > MAX_STABILITY_STEPS:
        raise ConfigError([
            f"stability: T / dt = {st['T'] / st['dt']:.4g} steps over "
            f"{len(st['phases'])} phases would take {steps:.4g} steps, "
            f"more than the {MAX_STABILITY_STEPS} allowed"])
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
    # each phase is read as a stream, keeping the rows lyapunov_estimate
    # reads (steps 0, m and the last) and, in the first phase, the rows
    # trajectory.csv writes; its text is made as it is written
    ends = np.array([0, (nsteps + 1) // 2, nsteps])
    every = np.arange(0, nsteps + 1, max(1, nsteps // 10000))
    rows = []
    worst_drift = 0.0
    for i, x0 in enumerate(st["phases"]):
        chunks = linearized_chunks(c["omega"], c["Omega"], B, z0,
                                   T=st["T"], dt=dt, x0=x0)
        drift, kept = sample_stream(chunks, z0,
                                    [ends, every] if i == 0 else [ends])
        lam, first, second = lyapunov_estimate(
            LinearTrajectory(times=dt * ends, z=kept[0]), return_halves=True)
        worst_drift = max(worst_drift, drift)
        rows.append({"phase": list(map(float, x0)), "l2_drift": drift,
                     "lyapunov": lam, "lyapunov_first_half": first,
                     "lyapunov_second_half": second})
        if i == 0:
            sampled = LinearTrajectory(times=dt * every, z=kept[1])
    out["results"] = {
        "trajectories": rows,
        "symmetry_defect": symmetry_defect(B),
        "worst_drift": worst_drift,
    }
    out["csv"] = {"trajectory.csv": trajectory_csv_parts(sampled)}
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
    if not isinstance(saved, dict):
        raise ConfigError([f"verify.report: {path} is not a JSON object"])
    if "config" not in saved or "mode" not in saved:
        raise ConfigError(["verify.report: missing config/mode"])
    mode = saved["mode"]
    # a verify report would replay itself, or another verify report
    if not isinstance(mode, str) or mode not in MODE_TABLE or mode == "verify":
        raise ConfigError([f"verify.report: cannot replay mode {mode!r}"])
    try:
        replay_cfg = load_config(saved["config"])
    except ConfigError as exc:
        raise ConfigError([f"verify.report: {path}: config: {v}"
                           for v in exc.violations]) from None
    replay = {"schema": SCHEMA_VERSION, "mode": mode,
              "config": replay_cfg.normalized()}
    # a run that was downgraded (--no-strict) replays downgraded
    results = saved.get("results")
    strict = not (isinstance(results, dict) and results.get("downgraded"))
    code = _run_mode(replay_cfg, replay, strict)
    replay.pop("csv", None)
    replay.pop("summary", None)
    pruned = {k: v for k, v in saved.items() if k not in ("csv", "summary")}
    match = render_report(replay) == render_report(pruned)
    out["results"] = {"replayed": path, "match": match,
                      "replay_exit": code}
    out["summary"] = f"verify: replay of {path} " \
                     + ("matches" if match else "DIFFERS")
    if saved.get("schema") != SCHEMA_VERSION:
        out["results"]["schema"] = [saved.get("schema"), SCHEMA_VERSION]
        out["summary"] += (f" (report schema {saved.get('schema')}, "
                           f"current schema {SCHEMA_VERSION})")
    return EXIT_OK if match else EXIT_NUMERIC


MODE_TABLE = {
    "run": _mode_run,
    "atlas": _mode_atlas,
    "greens": _mode_greens,
    "sigma-scan": _mode_sigma_scan,
    "stability": _mode_stability,
    "verify": _mode_verify,
}


def _run_mode(cfg: RunConfig, report: dict, strict: bool) -> int:
    """Run the report's mode into `report`; its exit code, also in
    `report["exit_code"]`, is 2 on a configuration the mode refuses (a
    size cap, or a report verify cannot replay), 3 on an excluded
    parameter and 4 on a numeric failure (0 with `results.downgraded` set
    unless `strict`)."""
    failure = None
    try:
        code = MODE_TABLE[report["mode"]](cfg, report)
    except ConfigError as exc:
        report["results"] = {"config_errors": exc.violations}
        report["summary"] = str(exc)
        code = EXIT_CONFIG
    except ParameterExcluded as exc:
        report["results"] = {"excluded": str(exc)}
        report["summary"] = f"parameter excluded: {exc}"
        code = EXIT_EXCLUDED
        failure = exc
    except (NearSingularError, SmallDivisorError, CertificateGateError,
            LieSeriesDivergence, FloatingPointError, np.linalg.LinAlgError,
            ValueError) as exc:
        report["results"] = {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(exc, LieSeriesDivergence):
            report["results"]["lie_divergence"] = {
                "level": exc.level, "order": exc.order,
                "norm_before": exc.before, "norm_after": exc.after}
        report["summary"] = f"numeric failure: {exc}"
        code = EXIT_NUMERIC
        failure = exc
    # a failed KAM step keeps the finished levels `driver.run` attached
    if hasattr(failure, "rows"):
        report["results"]["levels"] = _level_records(failure.rows)
        report["events"] = failure.events
    if not strict and code == EXIT_NUMERIC:
        report["results"]["downgraded"] = True
        code = EXIT_OK
    report["exit_code"] = code
    return code


def dispatch(cfg: RunConfig, out_dir: str, strict: bool = True) -> int:
    """Run the configured mode, write report.json + CSV sidecars +
    summary.txt, and return the exit code.  A configuration the mode
    refuses is also printed to stderr, as `main` prints one it cannot
    load; its report keeps the config echo, so `verify` can replay it."""
    report = {"schema": SCHEMA_VERSION, "mode": cfg.values["mode"],
              "config": cfg.normalized()}
    code = _run_mode(cfg, report, strict)
    if code == EXIT_CONFIG:
        print(report["summary"], file=sys.stderr)
    _write_outputs(report, out_dir)
    return code


def _write_outputs(report: dict, out_dir: str):
    """Write report.json, the report's CSV sidecars and summary.txt.  A
    sidecar is its text or an iterable of its parts, written part by
    part."""
    csvs = report.pop("csv", {})
    summary = report.pop("summary", "")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(render_report(report))
    for name, text in csvs.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
    # a refused config's unknown key can hold any JSON string, a lone
    # surrogate too: escaped here, as on stderr
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8",
              errors="backslashreplace") as fh:
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
    ap.add_argument("--no-strict", dest="strict", action="store_false",
                    help="exit 0 on a numeric failure, marking the report's "
                         "results as downgraded")
    args = ap.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        values = cfg.normalized()
        if args.mode is not None:
            values["mode"] = args.mode
        if args.seed is not None:
            values["seed"] = args.seed
        cfg = load_config(values)
        # made before the mode runs, so that an unusable --out costs no run
        os.makedirs(args.out, exist_ok=True)
        return dispatch(cfg, args.out, strict=args.strict)
    except OSError as exc:
        print(f"cannot write outputs to {args.out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
