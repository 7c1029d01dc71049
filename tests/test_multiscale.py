import itertools
import math

import numpy as np
import pytest
import scipy.linalg as sla

from toruskam.fourier import FourierSeries
from toruskam.greens import (CertificateGateError, check_certificate,
                             invert_direct, measure_alpha)
from toruskam.homological import LatticeMatrix, build_T, cube_region
from toruskam.multiscale import (DirectClassifier, ElementaryRegion,
                                 ScaleConfig, build_exhaustion, classify_annuli,
                                 cl1_couple, cl2_couple, cube_sites,
                                 diagonal_bad_measure,
                                 random_elementary_region, sigma_scan,
                                 sup_dist, two_scale_couple, _Prober,
                                 _restrict)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def interval_region(lo, hi):
    c = (lo + hi) // 2
    h = (hi - lo) // 2
    assert lo + 2 * h == hi
    return ElementaryRegion(1, (c,), (h,))


def lattice_on(sites, d, Omega=1.05, omega=None, eps=0.0, rho=0.6, seed=0,
               cutoff=3):
    omega = [PHI] * d if omega is None else list(omega)
    if eps:
        rng = np.random.default_rng(seed)
        entries = {}
        for k in cube_region(d, cutoff):
            if any(k):
                mag = eps * math.exp(-rho * sum(abs(c) for c in k))
                entries[k] = mag * (1 + 0.2 * rng.standard_normal())
        sym = FourierSeries.from_coeffs(d, entries, cutoff=cutoff)
        sym = 0.5 * (sym + sym.conj_function())
    else:
        sym = FourierSeries.zero(d)
    return LatticeMatrix(d=d, nblock=1, region=tuple(sorted(sites)),
                         omega=np.array(omega, dtype=float),
                         diag_block=np.array([Omega]), symbol=sym)


# ----------------------------------------------------------------------
# elementary regions
# ----------------------------------------------------------------------

def test_rectangle_classification():
    reg = ElementaryRegion(2, (0, 0), (3, 2))
    assert reg.classification() == "rectangle"
    assert len(reg.sites()) == 7 * 5
    assert reg.interior_corner() is None


def test_l_shape_and_interior_corner():
    reg = ElementaryRegion(2, (0, 0), (4, 4), shift=(5, 5))
    assert reg.classification() == "l-shaped"
    assert reg.interior_corner() == (1, 1)
    # the cut-out is exactly the overlap square [1,4]^2
    assert len(reg.sites()) == 81 - 16


def test_lower_dimensional_classification():
    reg = ElementaryRegion(2, (0, 0), (3, 3), shift=(0, 1))
    assert reg.classification() == "lower-dimensional"
    assert all(p[1] == -3 for p in reg.sites())


def test_empty_realized_set_rejected():
    with pytest.raises(ValueError):
        ElementaryRegion(2, (0, 0), (3, 3), shift=(0, 0)).sites()


def test_random_regions_fall_in_three_classes():
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(100):
        reg = random_elementary_region(rng, 2)
        cls = reg.classification()
        assert cls in {"rectangle", "l-shaped", "lower-dimensional"}
        assert len(reg.sites()) > 0
        seen.add(cls)
    assert seen == {"rectangle", "l-shaped", "lower-dimensional"}


# ----------------------------------------------------------------------
# exhaustions
# ----------------------------------------------------------------------

def test_exhaustion_frozen_1d_example():
    reg = interval_region(0, 10)
    ex = build_exhaustion(reg, (5,), 1)
    assert ex.sets[0] == frozenset({(4,), (5,), (6,)})
    assert ex.sets[1] == frozenset((k,) for k in range(2, 9))
    assert len(ex.sets) == 2                    # S_2 would be all of Lambda
    assert ex.annuli[0] == ex.sets[0]
    assert ex.annuli[1] == frozenset({(2,), (3,), (7,), (8,)})
    assert ex.remainder == frozenset({(0,), (1,), (9,), (10,)})
    assert ex.exceptional is None


def test_exhaustion_partition_and_cube_disjointness():
    rng = np.random.default_rng(3)
    for _ in range(20):
        reg = random_elementary_region(rng, 2, min_half=2, max_half=4)
        sites = list(reg.sites())
        m = sites[rng.integers(len(sites))]
        M = int(rng.integers(1, 3))
        ex = build_exhaustion(reg, m, M)
        # annuli partition S_l
        union = frozenset().union(*ex.annuli)
        assert union == ex.sets[-1]
        assert sum(len(a) for a in ex.annuli) == len(union)
        for a, b in zip(ex.sets, ex.sets[1:]):
            assert a < b
        assert ex.remainder == ex.region_sites - ex.sets[-1]
        # cubes centered in non-adjacent annuli are disjoint
        pieces = list(ex.annuli) + ([ex.remainder] if ex.remainder else [])
        for i, j in itertools.combinations(range(len(pieces)), 2):
            if j - i < 2:
                continue
            dmin = min(sup_dist(p, q)
                       for p in pieces[i] for q in pieces[j])
            assert dmin > 2 * M
            for p in pieces[i]:
                for q in pieces[j]:
                    assert not (cube_sites(p, M) & cube_sites(q, M))


def test_exceptional_annulus_on_l_shape():
    reg = ElementaryRegion(2, (0, 0), (4, 4), shift=(5, 5))
    ex = build_exhaustion(reg, (-4, -4), 1)
    assert ex.exceptional is not None
    pieces = list(ex.annuli) + ([ex.remainder] if ex.remainder else [])
    corner = reg.interior_corner()
    dists = [min(sup_dist(p, corner) for p in piece) for piece in pieces]
    assert dists[ex.exceptional] == min(dists)


# ----------------------------------------------------------------------
# annulus classification
# ----------------------------------------------------------------------

def test_planted_resonance_marks_annulus_bad():
    sites = [(k,) for k in range(0, 11)]
    # make the diagonal at k=5 nearly resonant
    T = lattice_on(sites, 1, Omega=-5 * PHI + 1e-9)
    reg = interval_region(0, 10)
    ex = build_exhaustion(reg, (0,), 1)
    rep = classify_annuli(T, ex, 1, alpha_target=0.3, b=0.996, theta=0.997)
    pieces = list(ex.annuli) + ([ex.remainder] if ex.remainder else [])
    for j, piece in enumerate(pieces):
        near = min(abs(p[0] - 5) for p in piece)
        if near <= 1:
            assert not rep.flags[j]
        elif near >= 2:
            assert rep.flags[j]
    assert rep.bad_count >= 1


def test_healthy_diagonal_all_annuli_good():
    sites = [(k,) for k in range(0, 13)]
    T = lattice_on(sites, 1, Omega=1.05)
    reg = interval_region(0, 12)
    ex = build_exhaustion(reg, (6,), 1)
    rep = classify_annuli(T, ex, 1, alpha_target=0.3, b=0.996, theta=0.997)
    assert rep.bad_count == 0


# ----------------------------------------------------------------------
# CL1 coupling
# ----------------------------------------------------------------------

def window_certs(T, M_window, threshold=2):
    certs = {}
    for x in T.region:
        U = sorted(cube_sites(x, M_window) & set(T.region))
        _, cert = invert_direct(_restrict(T, U), threshold=threshold)
        certs[x] = cert
    return certs


def test_cl1_sound_against_direct():
    sites = [(k,) for k in range(-8, 9)]
    T = lattice_on(sites, 1, Omega=1.05, eps=1e-4, seed=11)
    certs = window_certs(T, M_window=4)
    cert = cl1_couple(T, certs, M=6)
    assert cert.provenance == "cl1"
    assert check_certificate(cert, T).passed
    G, _ = invert_direct(T)
    assert cert.norm_bound >= np.linalg.norm(G, 2)


def test_cl1_missing_certificate():
    sites = [(k,) for k in range(-3, 4)]
    T = lattice_on(sites, 1)
    certs = window_certs(T, M_window=2)
    del certs[(0,)]
    with pytest.raises(CertificateGateError):
        cl1_couple(T, certs, M=2)


def test_cl1_window_too_close():
    sites = [(k,) for k in range(-5, 6)]
    T = lattice_on(sites, 1)
    certs = window_certs(T, M_window=1)   # complement at distance 2
    with pytest.raises(CertificateGateError):
        cl1_couple(T, certs, M=6)


def test_cl1_contraction_gate():
    sites = [(k,) for k in range(-8, 9)]
    T = lattice_on(sites, 1, Omega=1.05, eps=0.5, rho=0.2, seed=5)
    certs = window_certs(T, M_window=4)
    with pytest.raises(CertificateGateError):
        cl1_couple(T, certs, M=6)


# ----------------------------------------------------------------------
# two-scale coupling
# ----------------------------------------------------------------------

def test_two_scale_degenerate_reduces_to_bulk():
    T = build_T(np.array([PHI]), np.array([1.05]), FourierSeries.zero(1),
                FourierSeries.zero(1), 4)
    _, certK = invert_direct(T, threshold=2)
    cfg = ScaleConfig()
    out = two_scale_couple(T, certK, {}, cfg, K=4, M0=1)
    assert out.provenance == "two_scale"
    assert check_certificate(out, T).passed


def test_two_scale_sound_against_direct():
    sites = [(k,) for k in range(-8, 9)]
    T = lattice_on(sites, 1, Omega=1.05, eps=1e-4, seed=21)
    bulk = sorted(cube_sites((0,), 6) & set(sites))
    _, certK = invert_direct(_restrict(T, bulk), threshold=2)
    certs = {x: c for x, c in window_certs(T, M_window=2).items()
             if abs(x[0]) > 3}
    out = two_scale_couple(T, certK, certs, ScaleConfig(), K=6, M0=2)
    assert check_certificate(out, T).passed


def test_two_scale_missing_boundary_window():
    sites = [(k,) for k in range(-8, 9)]
    T = lattice_on(sites, 1, Omega=1.05)
    bulk = sorted(cube_sites((0,), 6) & set(sites))
    _, certK = invert_direct(_restrict(T, bulk), threshold=2)
    with pytest.raises(CertificateGateError):
        two_scale_couple(T, certK, {}, ScaleConfig(), K=6, M0=2)


# ----------------------------------------------------------------------
# CL2 coupling
# ----------------------------------------------------------------------

def test_cl2_rectangle_all_good():
    sites = [(k,) for k in range(0, 13)]
    T = lattice_on(sites, 1, Omega=1.05, eps=1e-3, seed=31)
    reg = interval_region(0, 12)
    cfg = ScaleConfig()
    cls = DirectClassifier(T, alpha=0.3, b=cfg.b, theta=cfg.theta)
    cert = cl2_couple(T, cfg, cls, reg, M_prev=2, alpha_prev=0.4)
    assert cert.provenance == "cl2"
    assert cert.alpha > 0
    assert check_certificate(cert, _restrict(T, reg.site_set())).passed
    assert cert.extra["alpha_nominal"] == pytest.approx(
        0.4 * (1 - 15 * cfg.kappa))


def test_cl2_refuses_bad_region():
    sites = [(k,) for k in range(0, 11)]
    T = lattice_on(sites, 1, Omega=-5 * PHI + 1e-9)   # resonance at k=5
    reg = interval_region(0, 10)
    cfg = ScaleConfig()
    cls = DirectClassifier(T, alpha=0.3, b=cfg.b, theta=cfg.theta)
    with pytest.raises(CertificateGateError, match="BAD"):
        cl2_couple(T, cfg, cls, reg, M_prev=1, alpha_prev=0.4)


def test_cl2_l_shape_with_budget():
    reg = ElementaryRegion(2, (0, 0), (2, 2), shift=(3, 3))
    T = lattice_on(reg.sites(), 2, Omega=1.05, omega=[1.2, PHI],
                   eps=1e-3, seed=41, cutoff=2)
    cfg = ScaleConfig()
    cls = DirectClassifier(T, alpha=0.3, b=cfg.b, theta=cfg.theta)
    cert = cl2_couple(T, cfg, cls, reg, M_prev=1, alpha_prev=0.4, budget=6)
    assert np.isfinite(cert.extra["phi"])
    assert check_certificate(cert, T).passed


# ----------------------------------------------------------------------
# sigma scan
# ----------------------------------------------------------------------

def test_sigma_scan_matches_diagonal_oracle():
    N, delta = 5, 0.05
    region = cube_region(1, N)
    Z = FourierSeries.zero(1)
    T = build_T(np.array([PHI]), np.array([1.05]), Z, Z, N)
    rep = sigma_scan(T, (-1.0, 1.0), (0.5, 0, 1.0 / delta),
                     points_per_unit=500, refine_iters=25)
    exact = diagonal_bad_measure([PHI], [1.05], region, delta, (-1.0, 1.0))
    assert exact > 0
    assert rep.bad_measure == pytest.approx(exact, abs=5e-3)
    assert rep.bad_fraction == pytest.approx(rep.bad_measure / 2.0)
    assert "sigma pass norm alpha" in rep.columnar()
    assert rep.norm_route == "spectral"


def test_sigma_scan_translation_covariance():
    N, delta = 3, 0.05
    Z = FourierSeries.zero(1)
    omega = np.array([PHI])
    base = build_T(omega, np.array([1.05]), Z, Z, N)
    p = (2,)
    shift = float(np.dot(p, omega))
    targets = (0.5, 0, 1.0 / delta)
    rep_moved = sigma_scan(base.translate(p), (-0.5, 0.5), targets,
                           points_per_unit=400, refine_iters=25)
    rep_base = sigma_scan(base, (-0.5 + shift, 0.5 + shift), targets,
                          points_per_unit=400, refine_iters=25)
    assert rep_moved.bad_measure == pytest.approx(rep_base.bad_measure,
                                                  abs=3e-3)


def _direct_probe_case(hermitian):
    """Operator, builder and targets for the direct-probe parity tests;
    the non-Hermitian coupling excites only the (1, 0) mode."""
    N, omega, Omega = 4, np.array([1.0, PHI]), np.array([1.17])
    amp = 0.5 * 0.05 * math.exp(-0.5)
    coeffs = {(1, 0): amp, (-1, 0): amp} if hermitian else {(1, 0): amp}
    B = FourierSeries.from_coeffs(2, coeffs)
    Z = FourierSeries.zero(2)

    def builder(s):
        return build_T(omega, Omega, B, Z, N, sigma=s)

    return builder, (0.1, 2, 100.0)


def _lu_oracle(T, targets):
    """(passed, ||G||_2, alpha) from a fresh LU inverse, its own SVD norm
    and the l1 decay mask beyond the threshold."""
    alpha_target, threshold, norm_target = targets
    G = sla.lu_solve(sla.lu_factor(T.to_dense()),
                     np.eye(T.size, dtype=complex))
    ks = np.array(T.region)
    dist = np.abs(ks[:, None, :] - ks[None, :, :]).sum(axis=-1)
    gmag = np.abs(G).reshape(T.nsites, T.nblock, T.nsites,
                             T.nblock).max(axis=(1, 3))
    ref_norm = float(np.linalg.norm(G, 2))
    far = dist > threshold
    decay_ok = bool((gmag[far] <= np.exp(-alpha_target * dist[far])).all())
    return (ref_norm <= norm_target and decay_ok, ref_norm,
            measure_alpha(gmag, dist, threshold))


def test_sigma_scan_samples_match_direct_probe():
    # spectral route: pass flags and alpha are exact against the LU oracle,
    # the eigenvalue norm agrees with its SVD norm to rounding
    builder, targets = _direct_probe_case(hermitian=True)
    rep = sigma_scan(builder(0.0), (-1.4037, -0.9037), targets,
                     points_per_unit=100, refine_iters=5)
    assert rep.norm_route == "spectral"
    assert rep.bad_intervals     # the range crosses the k = 0 window
    for s, passed, norm, alpha in rep.samples:
        ref_passed, ref_norm, ref_alpha = _lu_oracle(builder(s), targets)
        assert (passed, alpha) == (ref_passed, ref_alpha)
        assert abs(norm - ref_norm) <= 1e-12 * max(1.0, ref_norm) * ref_norm


def test_sigma_scan_svd_route_matches_direct_probe():
    builder, targets = _direct_probe_case(hermitian=False)
    T = builder(0.0)
    assert not np.array_equal(T.to_dense(), T.to_dense().conj().T)
    rep = sigma_scan(T, (-1.4037, -0.9037), targets,
                     points_per_unit=100, refine_iters=5)
    assert rep.norm_route == "svd"
    assert rep.bad_intervals
    for s, passed, norm, alpha in rep.samples:
        assert (passed, norm, alpha) == _lu_oracle(builder(s), targets)


@pytest.mark.parametrize("hermitian", [True, False])
def test_sigma_scan_flag_only_bisection_matches_full_probes(monkeypatch,
                                                            hermitian):
    builder, targets = _direct_probe_case(hermitian)
    T = builder(0.0)
    args = ((-1.4037, -0.9037), targets)
    kw = {"points_per_unit": 100, "refine_iters": 12}
    fast = sigma_scan(T, *args, **kw)
    # reference: every bisection midpoint factored and fully sampled
    monkeypatch.setattr(_Prober, "passes",
                        lambda self, s: self.sample(s)[0])
    ref = sigma_scan(T, *args, **kw)
    assert fast.bad_intervals and fast.bad_intervals == ref.bad_intervals
    assert fast.samples == ref.samples
    flags = [row[1] for row in ref.samples]
    boundaries = sum(a != b for a, b in zip(flags, flags[1:]))
    assert ref.factored_probes == len(flags) + 12 * boundaries
    if hermitian:
        assert fast.factored_probes < ref.factored_probes
    else:
        assert fast.factored_probes == ref.factored_probes


def test_sigma_scan_exactly_singular_sample():
    # sigma = -Omega makes the k = 0 diagonal entry exactly zero
    Z = FourierSeries.zero(1)
    T = build_T(np.array([PHI]), np.array([1.05]), Z, Z, 3)
    for op in (T, T.translate((0,))):
        rep = sigma_scan(op, (-1.05, -0.95), (0.5, 0, 20.0),
                         points_per_unit=100, refine_iters=5)
        assert rep.samples[0] == (-1.05, False, np.inf, 0.0)
        assert _Prober(op, (0.5, 0, 20.0), 1e12).passes(-1.05) is False


def test_scale_config_invariants():
    ScaleConfig()
    with pytest.raises(ValueError):
        ScaleConfig(b=0.999, theta=0.99)
    with pytest.raises(ValueError):
        ScaleConfig(lam=1.2)
    with pytest.raises(ValueError):
        ScaleConfig(kappa=0.02)
