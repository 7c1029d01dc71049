"""Output checks for each workload, computed without calling toruskam.

Each `check_<workload>(cfg, out_dir)` reads the files a run wrote and
returns a list of problems; an empty list means the output is correct.
Checks use tolerances, not byte equality with a stored report, because
results move in the last digits with the BLAS build and thread count.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np


def _report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_kam_run(cfg, out_dir) -> list:
    res = _report(out_dir)["results"]
    rows = _csv_rows(os.path.join(out_dir, "levels.csv"))
    bad = []
    want = cfg["caps"]["levels"] + 1
    if len(rows) != want:
        bad.append(f"levels.csv has {len(rows)} rows, expected {want}")
    eps = [float(r["eps_meas"]) for r in rows]
    if any(b >= a for a, b in zip(eps, eps[1:])):
        bad.append(f"eps not strictly decreasing: {eps}")
    expo = res.get("contraction_exponent")
    if expo is None or not 1.2 <= expo <= 1.5:
        bad.append(f"contraction exponent {expo} outside [1.2, 1.5]")
    if not res["residual"] <= 10 * res["final_low_norm"]:
        bad.append(f"residual {res['residual']:.3e} > 10 x final low norm "
                   f"{res['final_low_norm']:.3e}")
    sym = max(float(r["B_symmetry_err"]) for r in rows)
    if not sym <= 1e-12:
        bad.append(f"B symmetry error {sym:.3e} > 1e-12")
    return bad


def _lattice_operator(cfg) -> np.ndarray:
    """Dense T(0) = diag(<k, omega> + Omega_j) plus the +-mode coupling."""
    d, n, N = cfg["d"], cfg["n"], cfg["greens"]["N"]
    omega = np.asarray(cfg["omega"], dtype=float)
    Omega = np.asarray(cfg["Omega"], dtype=float)
    mode = np.asarray(cfg["perturbation"]["mode"])
    g = cfg["greens"]
    amp = g["coupling_eps"] * math.exp(-g["coupling_rho"] * np.abs(mode).sum())
    axes = np.meshgrid(*[np.arange(-N, N + 1)] * d, indexing="ij")
    ks = np.stack([a.ravel() for a in axes], axis=-1)
    m = len(ks)
    T = np.zeros((m * n, m * n))
    diag = (ks @ omega)[:, None] + Omega[None, :]
    T[np.diag_indices(m * n)] = diag.ravel()
    diff = ks[:, None, :] - ks[None, :, :]
    for sign in (1, -1):
        hit = np.all(diff == sign * mode, axis=-1)
        for j in range(n):
            T[np.ix_(np.arange(m) * n + j, np.arange(m) * n + j)] += \
                0.5 * amp * hit
    return T


def sigma_oracle(cfg) -> tuple:
    """Bad set of the scan from the spectrum: the union of the windows
    |sigma + lambda| < 1/norm_target over the eigenvalues of T(0),
    clipped to the range, with neighbours merged when no grid point falls
    in the gap between them (the scan cannot see such a gap).  Returns the
    intervals and the endpoint tolerance, one bisection bracket."""
    sc = cfg["sigma_scan"]
    lo, hi = sc["range"]
    delta = 1.0 / sc["norm_target"]
    lam = np.linalg.eigvalsh(_lattice_operator(cfg))
    npts = max(int(np.ceil((hi - lo) * sc["points_per_unit"])) + 1, 2)
    grid = np.linspace(lo, hi, npts)
    windows = sorted((max(-x - delta, lo), min(-x + delta, hi))
                     for x in lam if -x - delta < hi and -x + delta > lo)
    merged = []
    for a, b in windows:
        if merged and (a <= merged[-1][1] or not np.any(
                (grid >= merged[-1][1]) & (grid <= a))):
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    tol = (grid[1] - grid[0]) / 2 ** sc["refine_iters"]
    return [tuple(iv) for iv in merged], tol


def check_sigma_scan(cfg, out_dir) -> list:
    got = [tuple(iv) for iv in _report(out_dir)["results"]["bad_intervals"]]
    want, tol = sigma_oracle(cfg)
    if len(got) != len(want):
        return [f"{len(got)} bad intervals, oracle has {len(want)} "
                f"(a failure with the norm in bounds is a decay-only "
                f"failure): got {got}, want {want}"]
    err = max((max(abs(a - c), abs(b - e))
               for (a, b), (c, e) in zip(got, want)), default=0.0)
    if err > tol:
        return [f"bad-interval endpoint off by {err:.3e} > {tol:.3e}"]
    return []


def check_stability(cfg, out_dir) -> list:
    """Compare with the closed form for B = a cos(k.x) on the diagonal,
    z_j(t) = z_j(0) exp(i (Omega_j t + a (sin k.x(t) - sin k.x0) / k.omega)).
    """
    res = _report(out_dir)["results"]
    st = cfg["stability"]
    pert = cfg["perturbation"]
    omega = np.asarray(cfg["omega"], dtype=float)
    Omega = np.asarray(cfg["Omega"], dtype=float)
    k = np.asarray(pert["mode"], dtype=float)
    a = pert["amplitude"]
    x0 = np.asarray(st["phases"][0], dtype=float)
    z0 = np.asarray(st["z0_real"]) + 1j * np.asarray(st["z0_imag"])
    data = np.loadtxt(os.path.join(out_dir, "trajectory.csv"),
                      delimiter=",", skiprows=1, ndmin=2)
    n = len(Omega)
    t = data[:, 0]
    z = data[:, 1:1 + n] + 1j * data[:, 1 + n:1 + 2 * n]
    kw = k @ omega
    kx0 = k @ x0
    phase = Omega[None, :] * t[:, None] \
        + (a * (np.sin(kw * t + kx0) - np.sin(kx0)) / kw)[:, None]
    exact = z0[None, :] * np.exp(1j * phase)
    bad = []
    nsteps = int(round(st["T"] / st["dt"]))
    want_rows = len(range(0, nsteps + 1, max(1, nsteps // 10000)))
    if len(t) != want_rows:
        bad.append(f"trajectory.csv has {len(t)} rows, expected {want_rows}")
    err = float(np.abs(z - exact).max())
    if not err <= 1e-9:
        bad.append(f"trajectory differs from the closed form by {err:.3e}")
    if not res["worst_drift"] <= 1e-8:
        bad.append(f"worst l2 drift {res['worst_drift']:.3e} > 1e-8")
    lyap = max(abs(r["lyapunov"]) for r in res["trajectories"])
    if not lyap <= 1e-6:
        bad.append(f"|lyapunov| {lyap:.3e} > 1e-6")
    return bad
