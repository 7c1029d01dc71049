"""Acceptance gate: the nine desk-scale properties the package promises.

Each test pins one end-to-end claim at its stated tolerance; the helpers are
shared with the per-module suites so the instances here are the same kind of
randomized inputs, just at acceptance scale.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

from toruskam.atlas import ParameterBox, monte_carlo_excluded, \
    nonresonance_predicate
from toruskam.cli import dispatch
from toruskam.config import load_config
from toruskam.driver import (contraction_exponent, initial_step,
                             invariance_residual, kam_step, log_csv,
                             make_schedule)
from toruskam.fourier import FourierSeries
from toruskam.greens import (CertificateGateError, check_certificate,
                             invert_direct, neumann_transfer,
                             variation_delta)
from toruskam.homological import (build_T, cube_region, residual_hx,
                                  residual_lattice, solve_homological)
from toruskam.multiscale import (DirectClassifier, ElementaryRegion,
                                 ScaleConfig, build_exhaustion,
                                 cl1_couple, cl2_couple, cube_sites,
                                 diagonal_bad_measure,
                                 random_elementary_region, sigma_scan,
                                 sup_dist, two_scale_couple)
from toruskam.stability import (integrate_linearized, l2_drift,
                                lyapunov_estimate, symmetry_defect)

from test_driver import base_nf, tail_jet
from test_greens import diagonal_T, perturbed_T
from test_homological import GOLD, make_instance
from test_multiscale import interval_region, lattice_on, window_certs

PHI = (1.0 + math.sqrt(5.0)) / 2.0


# ----------------------------------------------------------------------
# 1. homological residuals
# ----------------------------------------------------------------------

def test_homological_residuals_50_instances():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    for i in range(50):
        n = 1 if i % 2 == 0 else 2
        N = int(rng.integers(6, 9)) if n == 1 else int(rng.integers(4, 7))
        B, Omega, P, _ = make_instance(rng, n, eps=1e-3, N=N)
        sol = solve_homological(GOLD, Omega, B, P, N)
        info = sol.solve_info
        assert residual_hx(sol.Fx, info["Rx"], GOLD, N) <= 1e-10
        assert residual_lattice(info["T"], sol.Fz, info["E"]) <= 1e-10
        assert residual_hx(sol.Fy, info["Rscript"], GOLD, N) <= 1e-10
        assert residual_lattice(info["boldT"], sol.Fzz, info["S"]) <= 1e-10
    assert time.monotonic() - t0 <= 60.0


# ----------------------------------------------------------------------
# 2/3. end-to-end contraction; reality and symmetry across levels
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def kam_run():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    P = tail_jet(rng, 1e-6, s0=1.0, kmax=26)
    sch = make_schedule(2.0, 1e-6, tau=4.0, s0=0.3, r0=0.5, N_max=24)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state, atlas = initial_step(base_nf(), P, sch, gamma=1e-4,
                                    exclusion_N=6)
        states = [state]
        for _ in range(3):
            state, _ = kam_step(state, sch)
            states.append(state)
    return {"states": states, "schedule": sch,
            "elapsed": time.monotonic() - t0}


def test_kam_contraction_exponent_and_residual(kam_run):
    states, sch = kam_run["states"], kam_run["schedule"]
    eps_seq = [s.eps_meas for s in states]
    assert len(eps_seq) >= 4                       # >= 3 completed levels
    assert all(b < a for a, b in zip(eps_seq, eps_seq[1:]))
    exponent = contraction_exponent(eps_seq)
    assert 1.2 <= exponent <= 1.5
    final = states[-1]
    residual = invariance_residual(final.P, sch.s(final.level),
                                   sch.r(final.level))
    assert residual <= 10 * final.eps_meas
    assert kam_run["elapsed"] <= 300.0


def test_reality_and_symmetry_across_steps(kam_run):
    for state in kam_run["states"][1:]:
        assert state.extra["B_symmetry_err"] <= 1e-12
        assert state.extra["reality_err"] <= 1e-12


# ----------------------------------------------------------------------
# 4. certificate soundness across every coupling route
# ----------------------------------------------------------------------

def _neumann_instances(counts):
    emitted = 0
    for seed in range(60):
        rng = np.random.default_rng(300 + seed)
        d = 1 if seed % 2 == 0 else 2
        N = 8 if d == 1 else 3
        Om = 1.0 + 0.4 * rng.random()
        base = diagonal_T(d, N, Omega=Om)
        _, cert = invert_direct(base, threshold=N)
        eps = 1e-11 * (0.5 + rng.random())
        Tp = perturbed_T(rng, d=d, N=N, rho=0.3, eps=eps, Omega=Om)
        try:
            out = neumann_transfer(cert, variation_delta(base, Tp, s=0.3))
        except CertificateGateError:
            continue
        assert check_certificate(out, Tp).passed, ("neumann", seed)
        emitted += 1
    counts["neumann"] = emitted


def _cl1_instances(counts):
    emitted = 0
    for seed in range(40):
        rng = np.random.default_rng(400 + seed)
        half = int(rng.integers(6, 11))            # sides 13..21
        sites = [(k,) for k in range(-half, half + 1)]
        T = lattice_on(sites, 1, Omega=1.02 + 0.6 * rng.random(),
                       eps=10.0 ** rng.uniform(-5, -3.5), seed=seed)
        try:
            cert = cl1_couple(T, window_certs(T, M_window=4), M=6)
        except CertificateGateError:
            continue
        assert check_certificate(cert, T).passed, ("cl1-1d", seed)
        emitted += 1
    for seed in range(10):
        rng = np.random.default_rng(450 + seed)
        sites = list(itertools.product(range(-4, 5), repeat=2))
        T = lattice_on(sites, 2, Omega=1.02 + 0.6 * rng.random(),
                       omega=[1.2, PHI], eps=1e-4, seed=seed, cutoff=2)
        try:
            cert = cl1_couple(T, window_certs(T, M_window=3), M=4)
        except CertificateGateError:
            continue
        assert check_certificate(cert, T).passed, ("cl1-2d", seed)
        emitted += 1
    counts["cl1"] = emitted


def _two_scale_instances(counts):
    emitted = 0
    for seed in range(55):
        rng = np.random.default_rng(500 + seed)
        sites = [(k,) for k in range(-8, 9)]
        T = lattice_on(sites, 1, Omega=1.02 + 0.6 * rng.random(),
                       eps=10.0 ** rng.uniform(-5, -3.5), seed=seed)
        bulk = sorted(cube_sites((0,), 6) & set(sites))
        _, certK = invert_direct(T.restrict(bulk), threshold=2)
        certs = {x: c for x, c in window_certs(T, M_window=2).items()
                 if abs(x[0]) > 3}
        try:
            out = two_scale_couple(T, certK, certs, K=6, M0=2)
        except CertificateGateError:
            continue
        assert check_certificate(out, T).passed, ("two-scale-1d", seed)
        emitted += 1
    for seed in range(10):
        rng = np.random.default_rng(550 + seed)
        sites = list(itertools.product(range(-5, 6), repeat=2))
        T = lattice_on(sites, 2, Omega=1.02 + 0.6 * rng.random(),
                       omega=[1.2, PHI], eps=1e-4, seed=seed, cutoff=2)
        bulk = sorted(cube_sites((0, 0), 3) & set(sites))
        _, certK = invert_direct(T.restrict(bulk), threshold=2)
        certs = {x: c for x, c in window_certs(T, M_window=2).items()
                 if max(abs(c0) for c0 in x) > 3}
        try:
            out = two_scale_couple(T, certK, certs, K=6, M0=2)
        except CertificateGateError:
            continue
        assert check_certificate(out, T).passed, ("two-scale-2d", seed)
        emitted += 1
    counts["two_scale"] = emitted


def _cl2_instances(counts):
    emitted = 0
    cfg = ScaleConfig()
    for seed in range(40):
        rng = np.random.default_rng(600 + seed)
        hi = int(rng.integers(8, 13))
        sites = [(k,) for k in range(0, hi + 1)]
        T = lattice_on(sites, 1, Omega=1.02 + 0.6 * rng.random(),
                       eps=10.0 ** rng.uniform(-5, -3), seed=seed)
        reg = interval_region(0, hi if hi % 2 == 0 else hi - 1)
        Tr = T.restrict(reg.site_set())
        cls = DirectClassifier(Tr, alpha=0.3, b=cfg.b, theta=cfg.theta)
        try:
            cert = cl2_couple(Tr, cfg, cls, reg, M_prev=2, alpha_prev=0.4)
        except CertificateGateError:
            continue
        assert check_certificate(cert, Tr).passed, ("cl2-1d", seed)
        emitted += 1
    for seed in range(10):
        rng = np.random.default_rng(650 + seed)
        reg = ElementaryRegion(2, (0, 0), (2, 2), shift=(3, 3))
        T = lattice_on(reg.sites(), 2, Omega=1.02 + 0.4 * rng.random(),
                       omega=[1.2, PHI], eps=1e-3, seed=seed, cutoff=2)
        cls = DirectClassifier(T, alpha=0.3, b=cfg.b, theta=cfg.theta)
        try:
            cert = cl2_couple(T, cfg, cls, reg, M_prev=1, alpha_prev=0.4,
                              budget=6)
        except CertificateGateError:
            continue
        assert check_certificate(cert, T).passed, ("cl2-2d", seed)
        emitted += 1
    counts["cl2"] = emitted


def test_certificate_soundness_200_instances():
    t0 = time.monotonic()
    counts = {}
    _neumann_instances(counts)
    _cl1_instances(counts)
    _two_scale_instances(counts)
    _cl2_instances(counts)
    assert all(v > 0 for v in counts.values()), counts
    assert sum(counts.values()) >= 200, counts
    assert time.monotonic() - t0 <= 600.0


# ----------------------------------------------------------------------
# 5. sigma scan vs exact interval union
# ----------------------------------------------------------------------

def test_sigma_scan_exact_and_toeplitz_stability():
    N, delta = 5, 0.05
    region = cube_region(1, N)
    Z = FourierSeries.zero(1)
    omega = np.array([PHI])
    Om = np.array([1.05])

    targets = (0.5, 0, 1.0 / delta)
    rep = sigma_scan(build_T(omega, Om, Z, Z, N), (-1.0, 1.0), targets,
                     points_per_unit=500, refine_iters=25)
    exact = diagonal_bad_measure(omega, Om, region, delta, (-1.0, 1.0))
    assert exact > 0
    grid_resolution = 1.0 / 500
    assert rep.bad_measure == pytest.approx(exact,
                                            abs=3 * grid_resolution)

    # a Toeplitz part below the Neumann-regime size barely moves the measure
    rho, thr = 0.8, 2
    eps = math.exp(-4 * rho * thr)
    rng = np.random.default_rng(77)
    entries = {}
    for k in cube_region(1, N):
        if any(k):
            entries[k] = eps * math.exp(-rho * abs(k[0])) \
                * (1 + 0.2 * rng.standard_normal())
    sym = FourierSeries.from_coeffs(1, entries, cutoff=N)
    sym = 0.5 * (sym + sym.conj_function())

    rep_t = sigma_scan(build_T(omega, Om, sym, Z, N), (-1.0, 1.0), targets,
                       points_per_unit=500, refine_iters=25)
    ratio = rep_t.bad_measure / rep.bad_measure
    assert 0.5 <= ratio <= 2.0


# ----------------------------------------------------------------------
# 6. excluded-measure scaling in sqrt(eps)
# ----------------------------------------------------------------------

def test_excluded_fraction_sqrt_eps_scaling():
    box = ParameterBox((1.5, 1.5), 0.5, 0)
    epss = [1e-4, 1e-5, 1e-6]
    fracs = []
    for i, eps in enumerate(epss):
        pred = nonresonance_predicate((1.17,), N=6,
                                      gamma=3 * math.sqrt(eps), tau=2)
        rng = np.random.default_rng(10 + i)
        frac, _ = monte_carlo_excluded(pred, box, 120_000, rng)
        fracs.append(frac)
    slope = np.polyfit(np.log(epss), np.log(fracs), 1)[0]
    assert 0.5 / 1.8 <= slope <= 0.5 * 1.8
    consts = [f / math.sqrt(e) for f, e in zip(fracs, epss)]
    for c in consts:
        assert consts[0] / 3 <= c <= consts[0] * 3


# ----------------------------------------------------------------------
# 7. linear stability of the produced torus
# ----------------------------------------------------------------------

def test_linear_stability_of_run_output(kam_run):
    final = kam_run["states"][-1]
    omega_star = final.nf.omega
    Omega = final.nf.Omega
    B = final.nf.B
    assert symmetry_defect(B) <= 1e-10
    z0 = np.array([1.0 + 0.0j])
    traj = integrate_linearized(omega_star, Omega, B, z0, T=10.0, dt=1e-3)
    assert l2_drift(traj) <= 1e-8
    long = integrate_linearized(omega_star, Omega, B, z0, T=100.0, dt=1e-3)
    assert abs(lyapunov_estimate(long)) <= 1e-6

    # integrator order by dt-halving against the closed form
    Om = np.array([2.0])

    def err(dt):
        t = integrate_linearized(omega_star, Om, None, z0, T=10.0, dt=dt)
        exact = z0[None, :] * np.exp(1j * t.times[:, None] * Om[None, :])
        return np.abs(t.z - exact).max()

    order = math.log2(err(1e-2) / err(5e-3))
    assert 3.5 <= order <= 4.5

    # a planted non-symmetric coupling must be flagged and break drift
    c = FourierSeries.cosine(2, (1, 0), 0.02)
    data = np.zeros((2, 2) + c.data.shape[2:], dtype=complex)
    data[0, 1] = c.data[0, 0]
    bad = FourierSeries(2, (2, 2), c.cutoff, data)
    assert symmetry_defect(bad) > 0.01
    sick = integrate_linearized(omega_star, np.array([1.0, 2.0]), bad,
                                np.array([1.0, 1.0 + 0.0j]),
                                T=10.0, dt=1e-3,
                                x0=None)
    assert l2_drift(sick) > 1e-4


# ----------------------------------------------------------------------
# 8. exhaustion combinatorics on random elementary regions
# ----------------------------------------------------------------------

def test_exhaustion_partition_100_regions():
    rng = np.random.default_rng(8)
    seen = set()
    for _ in range(100):
        reg = random_elementary_region(rng, 2, min_half=2, max_half=4)
        seen.add(reg.classification())
        sites = list(reg.sites())
        m = sites[rng.integers(len(sites))]
        M = int(rng.integers(1, 3))
        ex = build_exhaustion(reg, m, M)
        union = frozenset().union(*ex.annuli)
        assert union == ex.sets[-1]
        assert sum(len(a) for a in ex.annuli) == len(union)
        assert ex.remainder == ex.region_sites - ex.sets[-1]
        pieces = list(ex.annuli) + ([ex.remainder] if ex.remainder else [])
        for i, j in itertools.combinations(range(len(pieces)), 2):
            if j - i < 2:
                continue
            assert min(sup_dist(p, q) for p in pieces[i]
                       for q in pieces[j]) > 2 * M
            for p in pieces[i]:
                for q in pieces[j]:
                    assert not (cube_sites(p, M) & cube_sites(q, M))
    assert "l-shaped" in seen


# ----------------------------------------------------------------------
# 9. deterministic reports
# ----------------------------------------------------------------------

def test_reports_byte_identical(tmp_path):
    data = {"mode": "greens", "seed": 7, "omega": [1.0, PHI],
            "greens": {"N": 4, "sigma": 0.3, "coupling_eps": 1e-3}}
    dispatch(load_config(data), str(tmp_path / "a"))
    dispatch(load_config(data), str(tmp_path / "b"))
    assert (tmp_path / "a" / "report.json").read_bytes() \
        == (tmp_path / "b" / "report.json").read_bytes()


def test_run_csv_byte_identical(kam_run):
    def csv_of():
        rng = np.random.default_rng(13)
        P = tail_jet(rng, 1e-5, s0=1.0, kmax=8)
        sch = make_schedule(2.0, 1e-5, tau=4.0, s0=0.3, r0=0.5, N_max=16)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state, _ = initial_step(base_nf(), P, sch, gamma=1e-4,
                                    exclusion_N=6)
            rows = [{"level": state.level, "eps_meas": state.eps_meas,
                     "eps_sched": sch.eps(state.level), "omega_shift": 0.0,
                     "B_symmetry_err": state.nf.symmetry_error(),
                     "residual": invariance_residual(
                         state.P, sch.s(state.level), sch.r(state.level))}]
            for _ in range(2):
                state, _ = kam_step(state, sch)
                rows.append({"level": state.level,
                             "eps_meas": state.eps_meas,
                             "eps_sched": sch.eps(state.level),
                             "omega_shift": state.extra["omega_shift"],
                             "B_symmetry_err":
                                 state.extra["B_symmetry_err"],
                             "residual": invariance_residual(
                                 state.P, sch.s(state.level),
                                 sch.r(state.level))})
        return log_csv(rows)

    assert csv_of() == csv_of()
