import math
import warnings

import numpy as np
import pytest

from toruskam.fourier import FourierSeries
from toruskam.greens import (ALPHA_CAP, CertificateGateError, certify,
                             check_certificate, invert_direct, measure_alpha,
                             neumann_transfer, site_distances,
                             variation_delta)
from toruskam.homological import LatticeMatrix, build_T, cube_region

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def diagonal_T(d, N, Omega=1.1, omega=None, sigma=0.0):
    omega = [PHI] * d if omega is None else omega
    Z = FourierSeries.zero(d)
    return build_T(np.array(omega), np.array([Omega]), Z, Z, N, sigma=sigma)


def decaying_symbol(d, cutoff, rho, eps, rng):
    entries = {}
    for k in cube_region(d, cutoff):
        if any(k):
            mag = eps * math.exp(-rho * sum(abs(c) for c in k))
            entries[k] = mag * (1 + 0.2 * rng.standard_normal())
    sym = FourierSeries.from_coeffs(d, entries, cutoff=cutoff)
    return 0.5 * (sym + sym.conj_function())


def perturbed_T(rng, d=1, N=8, rho=0.8, eps=1e-3, Omega=1.1):
    sym = decaying_symbol(d, N, rho, eps, rng)
    Z = FourierSeries.zero(d)
    return build_T(np.array([PHI] * d), np.array([Omega]), sym, Z, N)


# ----------------------------------------------------------------------
# invert_direct
# ----------------------------------------------------------------------

def test_identity_certificate():
    T = diagonal_T(1, 5, Omega=1.0, omega=[0.0])
    G, cert = invert_direct(T)
    assert cert.norm_bound == pytest.approx(1.0, rel=1e-5)
    assert cert.alpha == ALPHA_CAP
    assert cert.provenance == "direct"


def test_diagonal_norm_is_inverse_min_entry():
    T = diagonal_T(1, 6)          # entries 1.1 + k*phi
    G, cert = invert_direct(T)
    delta = np.abs(T.diag_values()).min()
    assert cert.norm_bound == pytest.approx(1.0 / delta, rel=1e-5)


def test_measured_alpha_tracks_symbol_decay():
    rho, thr = 0.8, 3
    for seed in range(5):
        rng = np.random.default_rng(seed)
        T = perturbed_T(rng, rho=rho, eps=math.exp(-4 * rho * thr))
        _, cert = invert_direct(T, threshold=thr)
        assert cert.alpha >= rho - 0.1


def test_measure_alpha_no_far_pairs():
    dist = np.array([[0, 1], [1, 0]])
    g = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert measure_alpha(g, dist, threshold=5) == ALPHA_CAP


# ----------------------------------------------------------------------
# certify
# ----------------------------------------------------------------------

def test_certify_identity_passes():
    region = cube_region(1, 4)
    G = np.eye(len(region), dtype=complex)
    res = certify(G, region, 1, alpha_target=1.0, threshold=0,
                  norm_target=2.0)
    assert res.passed and not res.offenders


def test_certify_planted_offender():
    region = cube_region(1, 4)
    G = np.eye(len(region), dtype=complex)
    G[0, -1] = 0.9          # far off-diagonal sentinel
    res = certify(G, region, 1, alpha_target=0.5, threshold=1,
                  norm_target=5.0)
    assert not res.passed
    x, y, ratio = res.offenders[0]
    assert {x, y} == {(-4,), (4,)}
    assert ratio > 1.0


def _far_entry_case(magnitude):
    # alpha * |x-y| = 48 * 15 = 720 > log(max float): e^{alpha d} overflows
    # for the pair ((-8,), (7,)) and every pair farther apart
    region = cube_region(1, 8)
    G = np.eye(len(region), dtype=complex)
    G[0, -2] = magnitude
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return certify(G, region, 1, alpha_target=48.0, threshold=1,
                       norm_target=2.0)


def test_certify_far_entry_below_overflowing_weight_passes():
    # |G| e^{alpha d} = 1e-315 e^{720} ~ 5e-3 < 1, though e^{720} = inf
    res = _far_entry_case(1e-315)
    assert res.passed and not res.offenders


def test_certify_far_entry_above_one_is_flagged():
    # 1e-310 e^{720} ~ 490 > 1
    res = _far_entry_case(1e-310)
    assert not res.passed
    x, y, ratio = res.offenders[0]
    assert (x, y) == ((-8,), (7,))
    assert ratio == pytest.approx(1e-310 * math.exp(360) * math.exp(360),
                                  rel=1e-9)


def test_certify_norm_violation():
    region = cube_region(1, 2)
    G = 3.0 * np.eye(len(region), dtype=complex)
    res = certify(G, region, 1, alpha_target=0.5, threshold=0,
                  norm_target=2.0)
    assert not res.passed


# ----------------------------------------------------------------------
# neumann_transfer
# ----------------------------------------------------------------------

def test_neumann_zero_delta_keeps_certificate():
    T = diagonal_T(1, 6)
    _, cert = invert_direct(T, threshold=3)
    out = neumann_transfer(cert, (0.0, 0.5))
    assert out.norm_bound == pytest.approx(2 * cert.norm_bound)
    assert out.alpha <= min(cert.alpha, 0.5)
    assert out.alpha > 0
    assert out.provenance == "neumann"


def test_neumann_gate_violation():
    T = diagonal_T(1, 6)
    _, cert = invert_direct(T, threshold=3)
    with pytest.raises(CertificateGateError):
        neumann_transfer(cert, (0.5, 0.5))


def test_neumann_monotone_in_eps():
    T = diagonal_T(1, 3)
    _, cert = invert_direct(T, threshold=3)
    rho = 0.9
    alphas = [neumann_transfer(cert, (e, rho)).alpha
              for e in (1e-11, 1e-13, 1e-15)]
    assert alphas[0] <= alphas[1] <= alphas[2]


def test_neumann_sound_against_direct():
    rho, thr = 0.3, 8
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        base = diagonal_T(1, 8, Omega=1.0 + 0.4 * rng.random())
        _, cert = invert_direct(base, threshold=thr)
        eps = 1e-11 * (0.5 + rng.random())
        Tp = perturbed_T(rng, rho=rho, eps=eps,
                         Omega=base.diag_block[0])
        delta = variation_delta(base, Tp, s=rho)
        assert delta[0] <= 10 * eps
        try:
            out = neumann_transfer(cert, delta)
        except CertificateGateError:
            continue
        hits += 1
        assert out.alpha > 0
        assert check_certificate(out, Tp).passed
    assert hits >= 15


# ----------------------------------------------------------------------
# variation_delta
# ----------------------------------------------------------------------

def test_variation_identical_states():
    T = diagonal_T(2, 3)
    assert variation_delta(T, T, s=0.7) == (0.0, 0.7)


def test_variation_diagonal_shift_oracle():
    # shifting omega by delta changes only the diagonal, by <k, delta>
    N, dw = 4, 1e-4
    Ta = diagonal_T(1, N)
    Tb = diagonal_T(1, N, omega=[PHI + dw])
    eps, rho = variation_delta(Ta, Tb, s=0.5)
    assert eps == pytest.approx(N * dw, rel=1e-10)
    assert rho == 0.5


def test_variation_region_mismatch():
    Ta = diagonal_T(1, 3)
    Tb = diagonal_T(1, 4)
    with pytest.raises(ValueError):
        variation_delta(Ta, Tb, s=0.5)


# ----------------------------------------------------------------------
# sigma-ladder translation identity
# ----------------------------------------------------------------------

def test_translation_sigma_identity():
    rng = np.random.default_rng(7)
    T = perturbed_T(rng, d=1, N=5, rho=0.9, eps=1e-2)
    p = (4,)
    shifted = T.translate(p)
    ref = T.with_sigma(float(np.dot(p, T.omega)))
    G1, _ = invert_direct(shifted)
    G2, _ = invert_direct(ref)
    assert np.abs(G1 - G2).max() <= 1e-12


def test_site_distances_l1():
    d = site_distances(((0, 0), (1, 2), (-1, 0)))
    assert d[0, 1] == 3 and d[0, 2] == 1 and d[1, 2] == 4
