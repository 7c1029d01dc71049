import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from toruskam import homological, multiscale
from toruskam.fourier import FourierSeries
from toruskam.greens import (CertificateGateError, _site_magnitudes,
                             check_certificate, combes_thomas, invert_direct,
                             measure_alpha, site_distances)
from toruskam.homological import (LatticeMatrix, NearSingularError,
                                  _block_inverse, _component_blocks,
                                  _label_components, build_T, cube_region)
from toruskam.multiscale import (DirectClassifier, ElementaryRegion,
                                 ScaleConfig, build_exhaustion, classify_annuli,
                                 cl1_couple, cl2_couple, cube_sites,
                                 diagonal_bad_measure,
                                 random_elementary_region, sigma_scan,
                                 sup_dist, two_scale_couple, _Prober,
                                 _propagate_bounds)

from lu_oracle import lu_gecon

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
    return LatticeMatrix(region=tuple(sorted(sites)),
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
    rep = classify_annuli(ex, 1, DirectClassifier(T, 0.3, 0.996, 0.997))
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
    rep = classify_annuli(ex, 1, DirectClassifier(T, 0.3, 0.996, 0.997))
    assert rep.bad_count == 0


def test_classify_annuli_with_a_stand_in_classifier():
    # every set containing (7,) is bad: an annulus is bad exactly when one
    # of its sites lies within M = 1 of 7, through Q_1(n) cap Lambda
    reg = interval_region(0, 12)
    ex = build_exhaustion(reg, (0,), 1)
    asked = []

    def classifier(sites):
        asked.append(frozenset(sites))
        return (7,) not in sites

    rep = classify_annuli(ex, 1, classifier)
    pieces = list(ex.annuli) + ([ex.remainder] if ex.remainder else [])
    assert rep.flags == [all(abs(p[0] - 7) > 1 for p in piece)
                         for piece in pieces]
    assert rep.bad_count == rep.flags.count(False) >= 1
    assert rep.exceptional is None
    assert all(sites <= ex.region_sites for sites in asked)


def test_classify_annuli_exceptional_annulus_is_bad():
    reg = ElementaryRegion(2, (0, 0), (2, 2), shift=(3, 3))
    ex = build_exhaustion(reg, (-2, -2), 1)
    assert ex.exceptional is not None
    rep = classify_annuli(ex, 1, lambda sites: True)
    assert rep.bad_count == 1 and not rep.flags[ex.exceptional]


# ----------------------------------------------------------------------
# CL1 coupling
# ----------------------------------------------------------------------

def window_certs(T, M_window, threshold=2):
    certs = {}
    for x in T.region:
        U = sorted(cube_sites(x, M_window) & set(T.region))
        _, cert = invert_direct(T.restrict(U), threshold=threshold)
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


def test_cl1_couples_closed_form_windows():
    # Combes-Thomas windows carry a prefactor C = 1 / (min|D| (1 - q_r)),
    # here from 0.26 to 3.5: the propagated bound reads it, and the
    # coupled certificate is sound
    sites = [(k,) for k in range(-8, 9)]
    T = lattice_on(sites, 1, Omega=1.05, eps=1e-4, seed=11)
    certs = {x: combes_thomas(T.restrict(sorted(
        cube_sites(x, 4) & set(T.region))), threshold=2) for x in T.region}
    assert max(c.prefactor for c in certs.values()) > 1.0
    cert = cl1_couple(T, certs, M=6)
    assert check_certificate(cert, T).passed
    dist1 = site_distances(T.region)
    g = _propagate_bounds(T, certs, dist1)
    doubled = _propagate_bounds(T, {x: replace(c, prefactor=2 * c.prefactor)
                                    for x, c in certs.items()}, dist1)
    far = np.abs(np.subtract.outer(np.arange(17), np.arange(17))) > 2
    assert np.all(doubled >= g) and np.all(doubled[far] > g[far])


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
    out = two_scale_couple(T, certK, {}, K=4, M0=1)
    assert out.provenance == "two_scale"
    assert check_certificate(out, T).passed


def test_two_scale_sound_against_direct():
    sites = [(k,) for k in range(-8, 9)]
    T = lattice_on(sites, 1, Omega=1.05, eps=1e-4, seed=21)
    bulk = sorted(cube_sites((0,), 6) & set(sites))
    _, certK = invert_direct(T.restrict(bulk), threshold=2)
    certs = {x: c for x, c in window_certs(T, M_window=2).items()
             if abs(x[0]) > 3}
    out = two_scale_couple(T, certK, certs, K=6, M0=2)
    assert check_certificate(out, T).passed


def test_two_scale_missing_boundary_window():
    sites = [(k,) for k in range(-8, 9)]
    T = lattice_on(sites, 1, Omega=1.05)
    bulk = sorted(cube_sites((0,), 6) & set(sites))
    _, certK = invert_direct(T.restrict(bulk), threshold=2)
    with pytest.raises(CertificateGateError):
        two_scale_couple(T, certK, {}, K=6, M0=2)


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
    assert check_certificate(cert, T.restrict(reg.site_set())).passed
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


def count_classifier_inversions(monkeypatch):
    """The regions `multiscale` inverts, in call order: each
    `_block_inverse` call is recorded with the region whose
    `_component_blocks` it inverts (the classifier gathers them just
    before; CL2's envelope gathers them without inverting)."""
    inverted, gathered = [], []
    blocks_of, invert = multiscale._component_blocks, multiscale._block_inverse

    def gathering(T):
        gathered.append(T.region)
        return blocks_of(T)

    def counting(blocks):
        inverted.append(gathered[-1])
        return invert(blocks)

    monkeypatch.setattr(multiscale, "_component_blocks", gathering)
    monkeypatch.setattr(multiscale, "_block_inverse", counting)
    return inverted


def cl2_cases():
    """(T, region, M_prev, budget): a 1-D interval and a 2-D L-shape."""
    l_shape = ElementaryRegion(2, (0, 0), (2, 2), shift=(3, 3))
    return [
        (lattice_on([(k,) for k in range(13)], 1, Omega=1.05, eps=1e-3,
                    seed=31), interval_region(0, 12), 2, None),
        (lattice_on(l_shape.sites(), 2, Omega=1.05, omega=[1.2, PHI],
                    eps=1e-3, seed=41, cutoff=2), l_shape, 1, 6)]


def test_cl2_inverts_each_set_once(monkeypatch):
    """A CL2 run's classifier inverts each site set at most once, for its
    verdict, its norm and its prefactors alike."""
    inverted = count_classifier_inversions(monkeypatch)
    cfg = ScaleConfig()
    for T, reg, M, budget in cl2_cases():
        inverted.clear()
        cls = DirectClassifier(T, alpha=0.3, b=cfg.b, theta=cfg.theta)
        cert = cl2_couple(T, cfg, cls, reg, M_prev=M, alpha_prev=0.4,
                          budget=budget)
        assert cert.provenance == "cl2"
        assert inverted and len(inverted) == len(set(inverted))


def test_classifier_keeps_a_near_singular_set(monkeypatch):
    # the diagonal vanishes exactly at k = 5
    T = lattice_on([(k,) for k in range(11)], 1, Omega=-5 * PHI)
    inverted = count_classifier_inversions(monkeypatch)
    cls = DirectClassifier(T, alpha=0.3, b=0.996, theta=0.997)
    sites = {(4,), (5,), (6,)}
    assert not cls(sites) and not cls(frozenset(sites))
    with pytest.raises(NearSingularError):
        cls.norm(sites)
    with pytest.raises(NearSingularError):
        cls.entry_prefactor(sites, 0.3)
    assert cls({(2,), (3,)})
    assert cls.norm({(2,), (3,)}) > 0
    assert inverted == [((4,), (5,), (6,)), ((2,), (3,))]


def test_cl2_builds_no_dense_form(monkeypatch):
    # the classifier and CL2's envelope of T read component blocks only
    calls = []
    to_dense = LatticeMatrix.to_dense

    def counted(self):
        calls.append(self.region)
        return to_dense(self)

    monkeypatch.setattr(LatticeMatrix, "to_dense", counted)
    cfg = ScaleConfig()
    for T, reg, M, budget in cl2_cases():
        cls = DirectClassifier(T, alpha=0.3, b=cfg.b, theta=cfg.theta)
        cert = cl2_couple(T, cfg, cls, reg, M_prev=M, alpha_prev=0.4,
                          budget=budget)
        assert cert.provenance == "cl2"
    assert calls == []


def classifier_oracle(T, sites, alpha, b, theta, rates):
    """(verdict, ||G||_2, entry prefactors at `rates`) of a site set as read
    off `invert_direct`'s full G: the site magnitudes of all of G and the
    set's whole sup-distance matrix."""
    key = frozenset(sites)
    G, cert = invert_direct(T.restrict(key))
    gmag = _site_magnitudes(G, len(key), T.nblock)
    pts = np.array(sorted(key), dtype=int)
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=-1)
    norm = cert.extra["measured_norm"]
    L = max(int(dist.max()), 1)
    far = dist > L ** theta
    good = bool(norm <= np.exp(L ** b)
                and (gmag[far] <= np.exp(-alpha * dist[far])).all())
    return good, norm, [float((gmag * np.exp(r * dist)).max())
                        for r in rates]


def assert_classifier_matches_oracle(cls, sites):
    """The classifier's verdict, norm and prefactors at rates 0, 0.3 and 1
    equal the full-G oracle's exactly; returns the verdict."""
    rates = (0.0, 0.3, 1.0)
    good, norm, prefactors = classifier_oracle(cls.T, sites, cls.alpha,
                                               cls.b, cls.theta, rates)
    assert cls(sites) == good
    assert cls.norm(sites) == norm
    assert [cls.entry_prefactor(sites, r) for r in rates] == prefactors
    return good


# operators whose random subsets split into several components, and two
# with many components on the whole box
CLASSIFIER_CASES = {
    "1d": lambda: lattice_on([(k,) for k in range(-9, 10)], 1, Omega=1.05,
                             eps=3e-2, seed=3),
    "2d": lambda: lattice_on(list(itertools.product(range(-4, 5), repeat=2)),
                             2, Omega=1.05, omega=[1.2, PHI], eps=1e-2,
                             seed=4, cutoff=2),
    "diagonal": lambda: _coupled_T(2, 4, 1, []),
    "single mode": lambda: _coupled_T(2, 4, 2, [(2, 0)], eps=0.2),
}


@pytest.mark.parametrize("case", sorted(CLASSIFIER_CASES))
def test_classifier_reads_blocks_as_the_full_inverse(case):
    T = CLASSIFIER_CASES[case]()
    rng = np.random.default_rng(len(case))
    verdicts = set()
    for alpha, b, theta in [(0.3, 0.996, 0.997), (3.0, 0.05, 0.3)]:
        cls = DirectClassifier(T, alpha=alpha, b=b, theta=theta)
        for size in rng.integers(1, T.nsites // 2, size=20):
            pick = rng.choice(T.nsites, size=int(size), replace=False)
            verdicts.add(assert_classifier_matches_oracle(
                cls, {T.region[i] for i in pick}))
        verdicts.add(assert_classifier_matches_oracle(cls, T.region))
    assert verdicts == {True, False}


def test_classifier_on_an_exactly_singular_set():
    # sites 0 and 1 form the exactly singular block [[1, 1], [1, 1]];
    # every other pair of sites at distance 1 does too
    B = FourierSeries.from_coeffs(1, {(1,): 1.0, (-1,): 1.0})
    Z = FourierSeries.zero(1)
    T = build_T(np.array([0.0]), np.array([1.0]), B, Z, 4)
    cls = DirectClassifier(T, alpha=0.3, b=0.996, theta=0.997)
    singular = {(0,), (1,), (3,)}
    with pytest.raises(NearSingularError):
        invert_direct(T.restrict(singular))
    assert not cls(singular)
    with pytest.raises(NearSingularError):
        cls.norm(singular)
    with pytest.raises(NearSingularError):
        cls.entry_prefactor(singular, 0.3)
    # the same operator on sets of isolated sites
    for sites in ({(1,), (3,)}, {(-4,), (-1,), (1,), (4,)}):
        assert assert_classifier_matches_oracle(cls, sites)


def propagate_oracle(T, windows):
    """The per-site loop `_propagate_bounds` replaced: each window's row of
    a and K filled site by site through the scalar entry bound."""
    region = T.region
    m = len(region)
    idx = {k: i for i, k in enumerate(region)}
    dist1 = site_distances(region)
    tmag = _site_magnitudes(T.to_dense(), m, T.nblock)
    a = np.zeros((m, m))
    K = np.zeros((m, m))
    for x, cert in windows.items():
        i = idx[x]
        inU = np.zeros(m, dtype=bool)
        row_g = np.zeros(m)
        for w in cert.region:
            j = idx.get(tuple(w))
            if j is None:
                raise CertificateGateError(
                    f"window of {x} leaves the region at {tuple(w)}")
            inU[j] = True
            dd = int(dist1[i, j])
            row_g[j] = cert.norm_bound if dd <= cert.threshold \
                else float(cert.prefactor * np.exp(-cert.alpha * dd))
        a[i, inU] = row_g[inU]
        K[i, ~inU] = row_g[inU] @ tmag[inU][:, ~inU]
    rows = K.sum(axis=1)
    if rows.max() >= 0.1:
        raise CertificateGateError(
            f"resolvent contraction factor {rows.max():.3e} >= 0.1")
    return np.maximum(np.linalg.solve(np.eye(m) - K, a), 0.0)


def test_propagate_bounds_matches_per_site_oracle():
    line = lattice_on([(k,) for k in range(-8, 9)], 1, Omega=1.05,
                      eps=1e-4, seed=11)
    square = lattice_on(list(itertools.product(range(-4, 5), repeat=2)), 2,
                        Omega=1.05, omega=[1.2, PHI], eps=1e-4, seed=2,
                        cutoff=2)
    closed = {x: combes_thomas(line.restrict(sorted(
        cube_sites(x, 4) & set(line.region))), threshold=2)
        for x in line.region}
    cases = [(line, window_certs(line, M_window=4)), (line, closed),
             (square, window_certs(square, M_window=3))]
    for T, windows in cases:
        g = _propagate_bounds(T, windows, site_distances(T.region))
        assert np.array_equal(g, propagate_oracle(T, windows))
    # windows of a larger operator leave the region: the same refusal
    inner = line.restrict([(k,) for k in range(-5, 6)])
    windows = {x: c for x, c in window_certs(line, M_window=2).items()
               if x in inner.region}
    with pytest.raises(CertificateGateError) as ref:
        propagate_oracle(inner, windows)
    with pytest.raises(CertificateGateError) as got:
        _propagate_bounds(inner, windows, site_distances(inner.region))
    assert str(got.value) == str(ref.value)
    assert "leaves the region at (-7,)" in str(got.value)


def test_region_realises_its_sites_once():
    reg = ElementaryRegion(2, (0, 0), (2, 3), shift=(3, 4))
    sites = reg.sites()
    for m in sites:
        build_exhaustion(reg, m, 1)
        assert reg.sites() is sites
    assert reg.site_set() == frozenset(sites)
    box = ElementaryRegion(2, (1, -2), (2, 0)).sites()
    assert box == tuple((x, -2) for x in range(-1, 4))
    assert cube_sites((1, -2), (2, 0)) == set(box)
    assert cube_sites((1, -2), 1) == cube_sites((1, -2), (1, 1))


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
    moved = base.restrict([(k + p[0],) for (k,) in base.region])
    rep_moved = sigma_scan(moved, (-0.5, 0.5), targets,
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
        return build_T(omega, Omega, B, Z, N).with_sigma(s)

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
    # spectral route: pass flags are exact against the dense LU oracle;
    # alpha (per-component LU) and the eigenvalue norm agree with it to
    # rounding
    builder, targets = _direct_probe_case(hermitian=True)
    rep = sigma_scan(builder(0.0), (-1.4037, -0.9037), targets,
                     points_per_unit=100, refine_iters=5)
    assert rep.norm_route == "spectral"
    assert rep.bad_intervals     # the range crosses the k = 0 window
    for s, passed, norm, alpha in rep.samples:
        ref_passed, ref_norm, ref_alpha = _lu_oracle(builder(s), targets)
        assert passed == ref_passed
        assert abs(alpha - ref_alpha) <= 1e-12 * ref_alpha
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
        ref_passed, ref_norm, ref_alpha = _lu_oracle(builder(s), targets)
        assert passed == ref_passed
        assert abs(norm - ref_norm) <= 1e-12 * ref_norm
        assert abs(alpha - ref_alpha) <= 1e-12 * ref_alpha


@pytest.mark.parametrize("hermitian", [True, False])
def test_sigma_scan_flag_only_bisection_matches_full_probes(hermitian):
    # every probe of the scan is a full sample.  The spectral route ends
    # each boundary here, whose failing side misses the norm, at its
    # closed-form edge after one confirming probe; the svd route bisects
    # each boundary with 12 factored probes
    builder, targets = _direct_probe_case(hermitian)
    T = builder(0.0)
    args = ((-1.4037, -0.9037), targets, 100, 12)
    rep = sigma_scan(T, *args[:2], points_per_unit=100, refine_iters=12)
    prober = _Prober(T, targets)
    assert rep.samples == [(s, *prober.sample(s)) for s, *_ in rep.samples]
    cells = [(a, b) for a, b in zip(rep.samples, rep.samples[1:])
             if a[1] != b[1]]
    assert rep.bad_intervals and cells
    if hermitian:
        assert all((b if a[1] else a)[2] > targets[2] for a, b in cells)
        edges = [prober.norm_edge(a[0], b[0]) if a[1]
                 else prober.norm_edge(b[0], a[0]) for a, b in cells]
        ends = [x for iv in rep.bad_intervals for x in iv
                if x not in (rep.samples[0][0], rep.samples[-1][0])]
        assert None not in edges and ends == edges
    else:
        assert rep.bad_intervals == _bisection_intervals(T, *args)
    per_boundary = 1 if hermitian else 12
    assert rep.factored_probes == len(rep.samples) + per_boundary * len(cells)


def _bisection_intervals(T, sigma_range, targets, points_per_unit,
                         refine_iters, edge=None):
    """bad_intervals of a scan that bisects every pass/fail boundary on
    fully sampled probes, as the scan did before its closed-form norm
    edges; `edge(prober, a, b)` may first move the failing end b of a grid
    cell (a passes)."""
    prober = _Prober(T, targets)
    lo, hi = sigma_range
    npts = max(int(np.ceil((hi - lo) * points_per_unit)) + 1, 2)
    grid = np.linspace(lo, hi, npts)
    flags = [prober.sample(float(s))[0] for s in grid]

    def bisect(a, b):
        a, b = float(a), float(b)
        if edge is not None:
            b = edge(prober, a, b)
        for _ in range(refine_iters):
            mid = 0.5 * (a + b)
            if prober.sample(mid)[0]:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    out = []
    for ok, run in itertools.groupby(range(npts), key=flags.__getitem__):
        if ok:
            continue
        run = list(run)
        i, j = run[0], run[-1]
        out.append((float(grid[i] if i == 0 else bisect(grid[i - 1], grid[i])),
                    float(grid[j] if j == npts - 1
                          else bisect(grid[j + 1], grid[j]))))
    return out


def test_sigma_scan_norm_edges_closed_form_on_diagonal():
    # a diagonal T passes every decay test, so each interior endpoint is a
    # norm-window edge -lambda -+ delta, confirmed by one probe
    N, delta = 5, 0.05
    Z = FourierSeries.zero(1)
    T = build_T(np.array([PHI]), np.array([1.05]), Z, Z, N)
    rep = sigma_scan(T, (-1.0, 1.0), (0.5, 0, 1.0 / delta),
                     points_per_unit=500, refine_iters=25)
    lam = np.array([k * PHI + 1.05 for k in range(-N, N + 1)])
    ends = 0
    for lo, hi in rep.bad_intervals:
        if lo > -1.0:
            assert np.abs(lo - (-lam - delta)).min() <= 1e-12
            ends += 1
        if hi < 1.0:
            assert np.abs(hi - (-lam + delta)).min() <= 1e-12
            ends += 1
    assert ends >= 2
    assert rep.factored_probes == len(rep.samples) + ends


BLOCK_SPECTRUM_CASES = {
    "direct probe": lambda: _direct_probe_case(hermitian=True)[0](0.0),
    "two blocks per site": lambda: _coupled_T(2, 4, 2, [(1, 0)]),
}


@pytest.mark.parametrize("case", sorted(BLOCK_SPECTRUM_CASES))
def test_prober_block_spectrum_matches_dense(case):
    T = BLOCK_SPECTRUM_CASES[case]()
    prober = _Prober(T, (0.1, 2, 100.0))
    ref = np.linalg.eigvalsh(T.to_dense())
    assert len(prober.lam) == T.size
    assert np.abs(np.sort(prober.lam) - ref).max() <= 1e-13
    # the in-block far pairs and their distances are those of the l1
    # distances of the m x m form, and their bounds e^{-alpha dist}
    dist = site_distances(T.region)
    want = np.concatenate([dist[g[:, :, None], g[:, None, :]].ravel()
                           for g in T.components()])
    assert np.array_equal(prober.far, want > 2)
    assert prober.far_dist.dtype == want.dtype
    assert np.array_equal(prober.far_dist, want[want > 2])
    assert np.array_equal(prober.far_bound, np.exp(-0.1 * want[want > 2]))


def test_sigma_scan_non_hermitian_block_bisects():
    builder, targets = _direct_probe_case(hermitian=False)
    T = builder(0.0)
    assert _Prober(T, targets).lam is None
    assert _Prober(_coupled_T(2, 4, 2, [(1, 0)], hermitian=False),
                   targets).lam is None
    args = ((-1.4037, -0.9037), targets, 100, 12)
    rep = sigma_scan(T, *args[:2], points_per_unit=100, refine_iters=12)
    assert rep.norm_route == "svd"
    assert rep.bad_intervals and rep.bad_intervals \
        == _bisection_intervals(T, *args)


def test_sigma_scan_decay_only_boundaries_bisect():
    # the norm passes at every grid point (target 1e4) while the decay
    # test (alpha 2 beyond distance 1) fails near the resonances
    builder, _ = _direct_probe_case(hermitian=True)
    T, targets = builder(0.0), (2.0, 1, 1e4)
    rep = sigma_scan(T, (-1.4037, -0.9037), targets, points_per_unit=100,
                     refine_iters=12)
    assert rep.norm_route == "spectral"
    assert all(norm <= targets[2] for _, _, norm, _ in rep.samples)
    cells = sum(a[1] != b[1] for a, b in zip(rep.samples, rep.samples[1:]))
    assert cells >= 2
    assert rep.factored_probes == len(rep.samples) + 12 * cells
    assert rep.bad_intervals == _bisection_intervals(
        T, (-1.4037, -0.9037), targets, 100, 12)


@pytest.mark.parametrize("targets, patched", [((0.1, 2, 100.0), True),
                                              ((1.5, 1, 1e3), False)])
def test_sigma_scan_unconfirmed_edge_bisects(monkeypatch, targets, patched):
    # a norm edge whose confirming probe fails the decay test is bisected
    # on [a, e]: forced by a failing `decays` at the default targets, and
    # seen unforced where the decay windows are wider than the norm ones
    builder, _ = _direct_probe_case(hermitian=True)
    T = builder(0.0)
    args = ((-1.4037, -0.9037), targets)
    if patched:
        monkeypatch.setattr(_Prober, "decays", lambda self, s: False)
    rep = sigma_scan(T, *args, points_per_unit=100, refine_iters=12)
    assert rep.bad_intervals == _bisection_intervals(
        T, *args, 100, 12,
        edge=lambda prober, a, b:
        e if (e := prober.norm_edge(a, b)) is not None else b)
    # each norm boundary took its confirming probe (unless patched away)
    # and 12 bisection probes, each decay-only boundary 12
    cells = [(a, b) for a, b in zip(rep.samples, rep.samples[1:])
             if a[1] != b[1]]
    norm_edges = sum((b if a[1] else a)[2] > targets[2] for a, b in cells)
    assert norm_edges >= 2
    assert rep.factored_probes == len(rep.samples) + 12 * len(cells) \
        + (0 if patched else norm_edges)


def test_sigma_scan_exactly_singular_sample():
    # sigma = -Omega makes the k = 0 diagonal entry exactly zero
    Z = FourierSeries.zero(1)
    T = build_T(np.array([PHI]), np.array([1.05]), Z, Z, 3)
    for op in (T, T.restrict(T.region)):
        rep = sigma_scan(op, (-1.05, -0.95), (0.5, 0, 20.0),
                         points_per_unit=100, refine_iters=5)
        assert rep.samples[0] == (-1.05, False, np.inf, 0.0)
        assert _Prober(op, (0.5, 0, 20.0)).sample(-1.05) \
            == (False, np.inf, 0.0)


def _coupled_T(d, N, n, modes, hermitian=True, seed=0, eps=0.05):
    """Operator on [-N, N]^d coupling k to k +- each of `modes` through
    random complex n x n blocks; Hermitian when `hermitian`."""
    rng = np.random.default_rng(seed)

    def draw():
        return eps * (rng.standard_normal((n, n))
                      + 1j * rng.standard_normal((n, n)))

    coeffs = {}
    for mode in modes:
        coeffs[mode] = draw()
        coeffs[tuple(-c for c in mode)] = \
            coeffs[mode].conj().T if hermitian else draw()
    B = FourierSeries.from_coeffs(d, coeffs, shape=(n, n))
    Z = FourierSeries.zero(d, shape=(n, n))
    return build_T(np.array([1.0, PHI, math.sqrt(2.0)][:d]),
                   1.17 + 0.26 * np.arange(n), B, Z, N)


def _benchmark_scan_T(N=8):
    """The sigma-scan benchmark's operator: d = 2, N = 8, mode (1, 0)."""
    from toruskam.cli import _greens_operator
    from toruskam.config import load_config
    return _greens_operator(load_config({
        "mode": "sigma-scan", "omega": [1.0, PHI], "Omega": [1.17],
        "perturbation": {"mode": [1, 0]},
        "greens": {"N": N, "coupling_eps": 0.05, "coupling_rho": 0.5}}))


# (operator, component shapes (count, size) per size, spectral route)
BLOCK_CASES = {
    "benchmark": (_benchmark_scan_T, [(17, 17)], True),
    "diagonal chains": (lambda: _coupled_T(2, 8, 1, [(1, 1)]),
                        [(2, s) for s in range(1, 17)] + [(1, 17)], True),
    "diagonal chains, svd": (
        lambda: _coupled_T(2, 8, 1, [(1, 1)], hermitian=False),
        [(2, s) for s in range(1, 17)] + [(1, 17)], False),
    "two blocks per site": (lambda: _coupled_T(2, 4, 2, [(1, 0)]),
                            [(9, 9)], True),
    "connected": (lambda: _coupled_T(2, 4, 1, [(1, 0), (0, 1)]),
                  [(1, 81)], True),
    "diagonal": (lambda: _coupled_T(2, 8, 1, []), [(289, 1)], True),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_kernel_matches_dense_oracle(case):
    make, shapes, spectral = BLOCK_CASES[case]
    T = make()
    assert [g.shape for g in T.components()] == shapes
    targets = (0.1, 2, 100.0)
    prober = _Prober(T, targets)
    assert (prober.lam is not None) == spectral
    assert prober.components == (sum(c for c, _ in shapes), shapes[-1][1])
    # two shifts just off the spectrum, where the norm target fails
    lam = np.linalg.eigvals(T.to_dense())
    near = [float(-lam[0].real + 1e-3), float(-lam[-1].real - 2e-3)]
    flags = set()
    for s in [-2.3, -1.45, -0.62, 0.05, 0.91] + near:
        Ts = T.with_sigma(s)
        # dense oracle: gated LU of the whole matrix against the identity
        _, lu_piv, _ = lu_gecon(Ts, 1e12)
        ref = sla.lu_solve(lu_piv, np.eye(Ts.size, dtype=complex))
        G, cert = invert_direct(Ts)
        assert np.array_equal(G != 0, ref != 0)
        assert (np.abs(G - ref) <= 1e-12 * np.abs(ref)).all()
        ref_norm = float(np.linalg.norm(ref, 2))
        assert abs(cert.extra["measured_norm"] - ref_norm) \
            <= 1e-12 * ref_norm
        passed, norm, alpha = prober.sample(s)
        ref_passed, ref_norm, ref_alpha = _lu_oracle(Ts, targets)
        assert passed == ref_passed
        assert abs(alpha - ref_alpha) <= 1e-12 * ref_alpha
        scale = max(1.0, ref_norm) if spectral else 1.0
        assert abs(norm - ref_norm) <= 1e-12 * scale * ref_norm
        flags.add(passed)
    assert flags == {True, False}


def test_block_kernel_exactly_singular_block():
    # sites 0 and 1 form the exactly singular block [[1, 1], [1, 1]] at
    # sigma = 0; site 3 is a component of its own
    B = FourierSeries.from_coeffs(1, {(1,): 1.0, (-1,): 1.0})
    Z = FourierSeries.zero(1)
    T = build_T(np.array([0.0]), np.array([1.0]), B, Z, 3).restrict(
        ((0,), (1,), (3,)))
    assert [g.tolist() for g in T.components()] == [[[2]], [[0, 1]]]
    prober = _Prober(T, (0.5, 0, 20.0))
    assert prober.sample(0.0) == (False, np.inf, 0.0)
    for invert in (lambda: lu_gecon(T, 1e12), lambda: invert_direct(T)):
        with pytest.raises(NearSingularError) as exc:
            invert()
        assert exc.value.cond == np.inf
    assert prober.sample(0.5)[1] < np.inf


def _csgraph_groups(coupled):
    """The component grouping of `LatticeMatrix.components` for the site
    coupling pattern `coupled`, computed with scipy's csgraph labelling,
    as the oracle."""
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components
    _, labels = connected_components(sparse.csr_array(coupled),
                                     directed=False)
    sizes = np.bincount(labels)
    groups = []
    for size in np.unique(sizes):
        sites = np.flatnonzero(sizes[labels] == size)
        order = np.argsort(labels[sites], kind="stable")
        groups.append(sites[order].reshape(-1, size))
    return groups


def _site_pattern(T):
    """Sites coupled by a nonzero block entry of T's dense form."""
    m, nb = T.nsites, T.nblock
    return (T.to_dense() != 0).reshape(m, nb, m, nb).any(axis=(1, 3))


def _planted_pattern(m, nb, density, seed, symmetric=True):
    """The site coupling pattern of a random (m nb)-square pattern of the
    given density (symmetric in the sites, or not)."""
    rng = np.random.default_rng(seed)
    pattern = rng.random((m * nb, m * nb)) < density
    if symmetric:
        pattern |= pattern.T
    return pattern.reshape(m, nb, m, nb).any(axis=(1, 3))


def _labelled(coupled):
    """`_label_components` on the symmetrised pattern with its diagonal,
    the edge list `LatticeMatrix.components` hands it."""
    sym = coupled | coupled.T
    np.fill_diagonal(sym, True)
    return _label_components(len(sym), *np.nonzero(sym))


@pytest.mark.parametrize("case", sorted(BLOCK_CASES) + [
    f"random {m} {nb} {density} {sym}"
    for m, nb, density in [(1, 1, 0.5), (40, 1, 0.02), (60, 1, 0.01),
                           (50, 2, 0.005), (120, 1, 0.004), (30, 3, 0.3)]
    for sym in ("sym", "asym")] + ["shuffled chain"])
def test_components_match_csgraph(case):
    if case in BLOCK_CASES:
        T = BLOCK_CASES[case][0]()
        coupled = _site_pattern(T)
        got = T.components()
    elif case == "shuffled chain":
        # one path through 200 sites in random order, the longest labels
        # have to travel; its own diagonal entries are zero
        coupled = _planted_pattern(200, 1, 0.0, seed=0)
        path = np.random.default_rng(0).permutation(200)
        coupled[path[:-1], path[1:]] = True
        got = _labelled(coupled)
        assert [g.shape for g in got] == [(1, 200)]
    else:
        _, m, nb, density, sym = case.split()
        coupled = _planted_pattern(int(m), int(nb), float(density),
                                   seed=int(m) + int(nb),
                                   symmetric=sym == "sym")
        got = _labelled(coupled)
    want = _csgraph_groups(coupled)
    assert [g.shape for g in got] == [g.shape for g in want]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert sorted(np.concatenate([g.ravel() for g in got]).tolist()) \
        == list(range(len(coupled)))


def test_components_memory_on_one_fully_coupled_component():
    # m = 1089 sites, every pair coupled by a symbol wider than the region:
    # the edge list holds m^2 site pairs as int32, once; as int64
    # `np.nonzero` pairs plus their concatenation and a difference array it
    # took 63 MB traced
    N = 16
    rng = np.random.default_rng(8)
    box = (1, 1) + (4 * N + 1,) * 2
    symbol = FourierSeries(2, (1, 1), 2 * N, 0.5 + rng.random(box))
    T = LatticeMatrix(cube_region(2, N), np.array([1.0, PHI]),
                      np.array([1.17]), symbol)
    T._differences
    tracemalloc.start()
    try:
        got = T.components()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = _csgraph_groups(_site_pattern(T))
    assert [g.shape for g in got] == [g.shape for g in want] == [(1, 1089)]
    assert np.array_equal(got[0], want[0])
    assert peak <= 24 * 2 ** 20


def _dense_oracle(T):
    """T's dense form from its symbol by a broadcast over all site pairs
    and their (m, m, d) differences, independent of the gather."""
    m, nb = T.nsites, T.nblock
    ks = np.array(T.region)
    diff = ks[:, None, :] - ks[None, :, :]
    cut = T.symbol.cutoff
    inside = np.all(np.abs(diff) <= cut, axis=-1)
    idx = tuple(np.moveaxis(np.clip(diff + cut, 0, 2 * cut), -1, 0))
    entries = np.where(inside, T.symbol.data[(slice(None), slice(None)) + idx],
                       0.0)
    dense = entries.transpose(2, 0, 3, 1).reshape(m * nb, m * nb)
    np.fill_diagonal(dense, T.dense_diagonal())
    return dense


def _symbol_built_T(d, nb, region, support, kind, seed):
    """An operator built from a random symbol: `kind` "symmetric" (real,
    symbol(-k) = symbol(k)^T), "hermitian" (complex, symbol(-k) =
    symbol(k)^H), "real" or "complex" (no pairing); `support` "sparse" (two
    modes of cutoff 2, and their negatives when paired) or "wide" (most
    modes up to 2 N + 1, past the region's span); every block entry is zero
    with probability 0.3.  `region` "cube" is [-N, N]^d, "restricted" a
    random half of an off-centre box."""
    rng = np.random.default_rng(seed)
    N = {1: 5, 2: 3, 3: 2}[d]
    cutoff = 2 if support == "sparse" else 2 * N + 1
    paired = kind in ("symmetric", "hermitian")

    def draw():
        A = rng.standard_normal((nb, nb)) * (rng.random((nb, nb)) >= 0.3)
        if kind in ("hermitian", "complex"):
            A = A + 1j * rng.standard_normal((nb, nb))
        return 0.3 * A

    modes = [k for k in itertools.product(range(-cutoff, cutoff + 1),
                                          repeat=d) if any(k)]
    if support == "sparse":
        modes = [modes[i] for i in rng.choice(len(modes), 2, replace=False)]
    else:
        modes = [k for k in modes if rng.random() < 0.7]
    coeffs = {(0,) * d: draw()}
    for k in modes:
        coeffs[k] = draw()
        if paired:
            coeffs[tuple(-c for c in k)] = coeffs[k].conj().T
    if paired:
        coeffs[(0,) * d] = coeffs[(0,) * d] + coeffs[(0,) * d].conj().T
    symbol = FourierSeries.from_coeffs(d, coeffs, shape=(nb, nb),
                                       cutoff=cutoff)
    if region == "cube":
        sites = cube_region(d, N)
    else:
        lo = rng.integers(-N - 3, 1, size=d)
        box = itertools.product(*[range(a, a + N + 2) for a in lo])
        sites = [k for k in box if rng.random() < 0.5] or [tuple(lo)]
    return LatticeMatrix(region=sites,
                         omega=np.array([1.0, PHI, math.sqrt(2.0)][:d]),
                         diag_block=1.1 + 0.3 * np.arange(nb), symbol=symbol)


@pytest.mark.parametrize("support", ["sparse", "wide"])
@pytest.mark.parametrize("region", ["cube", "restricted"])
@pytest.mark.parametrize("nb", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_symbol_gather_matches_dense_oracle(d, nb, region, support):
    kinds = ("symmetric", "hermitian", "real", "complex")
    for seed, kind in enumerate(kinds):
        T = _symbol_built_T(d, nb, region, support, kind,
                            seed=100 * d + 10 * nb + seed)
        # a complex diagonal makes the blocks of a real symbol complex
        cases = [(T, kind in ("symmetric", "real"))]
        if kind == "real":
            cases.append((replace(T, diag_block=T.diag_block + 1e-3j), False))
        for op, real in cases:
            parts = _component_blocks(op)
            components = op.components()
            assert op._dense is None
            ref = _dense_oracle(op)
            dense = op.to_dense()
            assert op.is_real == real
            assert dense.dtype == (np.float64 if real else np.complex128)
            assert np.array_equal(dense, ref)
            coupled = (ref != 0).reshape(op.nsites, nb, op.nsites, nb).any(
                axis=(1, 3))
            want = _csgraph_groups(coupled)
            assert [g.shape for g in components] == [g.shape for g in want]
            assert all(np.array_equal(g, w) for g, w in zip(components, want))
            for (sites, rows, B), g in zip(parts, components):
                assert np.array_equal(sites, g)
                assert np.array_equal(rows, (g[:, :, None] * nb + np.arange(
                    nb)).reshape(len(g), -1))
                assert B.dtype == dense.dtype
                assert np.array_equal(B, ref[rows[:, :, None],
                                             rows[:, None, :]])


def test_prober_memory_without_dense_form():
    # greens N = 16: m = 1089 sites on 33 chains of 33.  The probes' blocks,
    # components and far pairs are gathered from the symbol: no m x m
    # array (19 MB complex) and no (m, m, d) site differences
    T = _benchmark_scan_T(16)
    assert T.size == 1089
    tracemalloc.start()
    try:
        prober = _Prober(T, (0.1, 2, 100.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prober.components == (33, 33)
    assert peak < 10e6


@pytest.mark.parametrize("seed", range(8))
def test_block_cond_bounds_gecon_estimate(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    modes = [[(1, 0)], [(1, 1)], [(1, 0), (0, 2)]][seed % 3]
    T = _coupled_T(2, int(rng.integers(2, 5)), int(rng.integers(1, 3)),
                   modes, hermitian=bool(seed % 2), seed=seed,
                   eps=float(rng.uniform(0.05, 0.5))).with_sigma(
        float(rng.uniform(-2.0, 1.0)))
    _, _, est = lu_gecon(T, np.inf)
    monkeypatch.setattr(homological, "COND_CAP", np.inf)
    _, cond = _block_inverse([B for _, _, B in _component_blocks(T)])
    # exact cond_1 >= the gecon lower estimate, up to rounding
    assert cond >= est * (1 - 1e-12)
    cap = 0.5 * est
    with pytest.raises(NearSingularError):
        lu_gecon(T, cap)
    monkeypatch.setattr(homological, "COND_CAP", cap)
    with pytest.raises(NearSingularError):
        invert_direct(T)
    monkeypatch.undo()
    if seed % 2:
        # shifted onto an eigenvalue: both gates refuse at the default cap
        lam = np.linalg.eigvalsh(T.to_dense())
        near = T.with_sigma(T.sigma - lam[len(lam) // 2])
        with pytest.raises(NearSingularError):
            lu_gecon(near, 1e12)
        with pytest.raises(NearSingularError):
            invert_direct(near)


def test_scale_config_invariants():
    ScaleConfig()
    with pytest.raises(ValueError):
        ScaleConfig(b=0.999, theta=0.99)
    with pytest.raises(ValueError):
        ScaleConfig(kappa=0.02)
