import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from toruskam.cli import _greens_operator
from toruskam.config import load_config
from toruskam.fourier import FourierSeries
from toruskam.greens import (ALPHA_CAP, CT_Q_MAX, CT_RATES,
                             CertificateGateError, _check_against, certify,
                             combes_thomas, invert_direct, l1_diameter,
                             level_certificate, measure_alpha,
                             neumann_transfer, site_distances,
                             variation_delta, weighted_row_norm_from_cert)
from toruskam.homological import (LatticeMatrix, NearSingularError,
                                  _symbol_norm, build_T, cube_region)

from greens_oracle import check_certificate, dense_certify, dense_inverse

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def diagonal_T(d, N, Omega=1.1, omega=None):
    omega = [PHI] * d if omega is None else omega
    Z = FourierSeries.zero(d)
    return build_T(np.array(omega), np.array([Omega]), Z, Z, N)


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
    _, cert = invert_direct(T)
    assert cert.norm_bound == pytest.approx(1.0, rel=1e-5)
    assert cert.alpha == ALPHA_CAP
    assert cert.provenance == "direct"


def test_diagonal_norm_is_inverse_min_entry():
    T = diagonal_T(1, 6)          # entries 1.1 + k*phi
    _, cert = invert_direct(T)
    delta = np.abs(T.diag_values()).min()
    assert cert.norm_bound == pytest.approx(1.0 / delta, rel=1e-5)


def test_measured_alpha_tracks_symbol_decay():
    rho, thr = 0.8, 3
    for seed in range(5):
        rng = np.random.default_rng(seed)
        T = perturbed_T(rng, rho=rho, eps=math.exp(-4 * rho * thr))
        _, cert = invert_direct(T, threshold=thr)
        assert cert.alpha >= rho - 0.1


def test_direct_certificate_covers_far_entries_above_one():
    # near a resonance, entries beyond the threshold exceed 1: no rate
    # holds under a unit prefactor, so the claim is alpha = 0 with the
    # largest far entry as its prefactor
    cfg = load_config({"mode": "greens", "d": 2, "n": 2,
                       "omega": [1.5625, -1.4375], "Omega": [2.3125, 0.1875],
                       "perturbation": {"mode": [-1, 1]},
                       "greens": {"N": 7, "coupling_eps": 0.0625,
                                  "coupling_rho": 0.26}})
    T = _greens_operator(cfg).with_sigma(5.3125)
    _, cert = invert_direct(T, threshold=3)
    assert cert.alpha == 0.0 and 1.0 < cert.prefactor < cert.norm_bound
    assert check_certificate(cert, T).passed
    assert not check_certificate(replace(cert, prefactor=1.0), T).passed


def test_measure_alpha_no_far_pairs():
    dist = np.array([[0, 1], [1, 0]])
    g = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert measure_alpha(g, dist, threshold=5) == ALPHA_CAP


# ----------------------------------------------------------------------
# certify
# ----------------------------------------------------------------------

def assert_same_result(res, ref):
    """Block and dense `certify` results agree: the verdict, the norm and
    the offenders' site pairs in order, norms and ratios within 1e-12."""
    assert res.passed == ref.passed
    assert res.measured_norm == pytest.approx(ref.measured_norm, rel=1e-12)
    assert [o[:2] for o in res.offenders] == [o[:2] for o in ref.offenders]
    assert [o[2] for o in res.offenders] \
        == pytest.approx([o[2] for o in ref.offenders], rel=1e-12)


def certify_full(G, region, nblock, *targets, **kw):
    """`certify` of a given G over `region`, read as one component block,
    after checking it against the dense oracle."""
    d = len(region[0])
    T = LatticeMatrix(region=region, omega=np.zeros(d),
                      diag_block=np.ones(nblock),
                      symbol=FourierSeries.zero(d, shape=(nblock, nblock)))
    parts = [(np.arange(T.nsites)[None], np.arange(T.size)[None], G[None])]
    res = certify(T, parts, *targets, **kw)
    assert_same_result(res, dense_certify(G, region, nblock, *targets, **kw))
    return res


def test_certify_identity_passes():
    region = cube_region(1, 4)
    G = np.eye(len(region), dtype=complex)
    res = certify_full(G, region, 1, alpha_target=1.0, threshold=0,
                       norm_target=2.0)
    assert res.passed and not res.offenders


def test_certify_planted_offender():
    region = cube_region(1, 4)
    G = np.eye(len(region), dtype=complex)
    G[0, -1] = 0.9          # far off-diagonal sentinel
    res = certify_full(G, region, 1, alpha_target=0.5, threshold=1,
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
        return certify_full(G, region, 1, alpha_target=48.0, threshold=1,
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
    res = certify_full(G, region, 1, alpha_target=0.5, threshold=0,
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
    shifted = T.restrict([(k + p[0],) for (k,) in T.region])
    ref = T.with_sigma(float(np.dot(p, T.omega)))
    G1, _ = dense_inverse(shifted)
    G2, _ = dense_inverse(ref)
    assert np.abs(G1 - G2).max() <= 1e-12


def test_site_distances_l1():
    d = site_distances(((0, 0), (1, 2), (-1, 0)))
    assert d[0, 1] == 3 and d[0, 2] == 1 and d[1, 2] == 4


def test_l1_diameter_matches_distances():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        for _ in range(5):
            sites = [tuple(int(c) for c in k)
                     for k in rng.integers(-6, 7, size=(int(rng.integers(
                         1, 30)), d))]
            assert l1_diameter(sites) == int(site_distances(sites).max())


# ----------------------------------------------------------------------
# prefactor
# ----------------------------------------------------------------------

def test_prefactor_scales_entry_bound_and_row_norm():
    T = diagonal_T(1, 4)
    _, cert = invert_direct(T, threshold=1)
    assert cert.prefactor == 1.0
    unit = replace(cert, alpha=0.5)
    big = replace(unit, prefactor=3.0)
    assert big.entry_bound(1) == unit.entry_bound(1) == cert.norm_bound
    assert unit.entry_bound(5) == pytest.approx(math.exp(-2.5), rel=1e-15)
    assert big.entry_bound(5) == pytest.approx(3.0 * math.exp(-2.5),
                                               rel=1e-15)
    # at rate 0 a row sums its near entries at the norm and its far ones
    # at C e^{-alpha d}
    dist = site_distances(T.region)
    far = np.where(dist > 1, np.exp(-0.5 * dist), 0.0).sum(axis=1)
    near = (dist <= 1).sum(axis=1) * cert.norm_bound
    assert weighted_row_norm_from_cert(big, 0.0) \
        == pytest.approx((near + 3.0 * far).max(), rel=1e-14)


def test_entry_bound_of_an_array_is_the_scalar_bound():
    # the array form against the scalar formula it replaced, bit for bit,
    # on both sides of each threshold: a measured certificate, a
    # closed-form one with its prefactor, and one with an arbitrary rate
    T = perturbed_T(np.random.default_rng(7), N=8, eps=1e-3)
    _, direct = invert_direct(T, threshold=3)
    closed = combes_thomas(T, threshold=2)
    dvals = np.arange(0, 41)
    for cert in (direct, closed, replace(closed, prefactor=3.0, alpha=0.37),
                 replace(direct, alpha=ALPHA_CAP)):
        scalar = np.array([
            cert.norm_bound if dd <= cert.threshold
            else float(cert.prefactor * np.exp(-cert.alpha * dd))
            for dd in map(int, dvals)])
        got = cert.entry_bound(dvals)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), scalar.view(np.uint64))
        assert 0 < (dvals <= cert.threshold).sum() < dvals.size


def test_certify_honours_prefactor():
    region = cube_region(1, 4)
    G = (3.0 * np.exp(-1.0 * site_distances(region))).astype(complex)
    assert not certify_full(G, region, 1, 1.0, 0, 1e6).passed
    assert certify_full(G, region, 1, 1.0, 0, 1e6,
                        prefactor=3.0 * (1 + 1e-12)).passed
    res = certify_full(G, region, 1, 1.0, 0, 1e6, prefactor=1.5)
    assert not res.passed
    assert res.offenders[0][2] == pytest.approx(2.0, rel=1e-12)


# ----------------------------------------------------------------------
# Combes-Thomas certificate
# ----------------------------------------------------------------------

def random_operator(rng, N):
    """d = 2 operator with one or two blocks, a random frequency vector and
    a random, not necessarily Hermitian, exponentially decaying symbol,
    scaled so that q_0 = s_0 / min|D| is log-uniform in [1e-4, 0.9]."""
    n = int(rng.integers(1, 3))
    omega = np.array([1.0, 0.5 + 1.5 * rng.random()])
    Omega = 0.8 + 0.8 * rng.random(n)
    rho = 0.5 + rng.random()
    shape = (n, n) + (2 * N + 1,) * 2
    l1 = np.abs(np.arange(-N, N + 1))
    env = np.exp(-rho * (l1[:, None] + l1[None, :]))
    data = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * env
    Z = FourierSeries.zero(2, shape=(n, n))
    T = build_T(omega, Omega, FourierSeries(2, (n, n), N, data), Z, N)
    q0 = _symbol_norm(T) / np.abs(T.diag_values()).min()
    scale = 10.0 ** rng.uniform(-4, math.log10(0.9)) / q0
    return build_T(omega, Omega, FourierSeries(2, (n, n), N, scale * data),
                   Z, N)


def test_combes_thomas_sound_50_operators():
    decaying = 0
    for seed in range(50):
        rng = np.random.default_rng(900 + seed)
        N = 2 + seed % 3
        T = random_operator(rng, N)
        cert = combes_thomas(T, threshold=2)
        decaying += cert.alpha > 0
        assert cert.provenance == "combes-thomas"
        assert cert.alpha == cert.extra["r"]
        assert cert.extra["q_r"] <= CT_Q_MAX or cert.alpha == 0.0
        assert cert.prefactor >= cert.norm_bound
        for threshold in range(2, N + 1):
            res = check_certificate(replace(cert, threshold=threshold), T)
            assert res.passed, (seed, threshold, res.offenders)
    assert decaying >= 40


def test_combes_thomas_diagonal_is_tight():
    # S = 0: G = D^{-1}, so the norm bound is 1 / min|D| up to the rounding
    # slack, and every rate passes the gate
    T = diagonal_T(2, 4)
    cert = combes_thomas(T, threshold=2)
    exact = 1.0 / np.abs(T.diag_values()).min()
    assert exact <= cert.norm_bound <= exact * (1 + 1e-13)
    assert cert.prefactor == cert.norm_bound
    assert cert.alpha == CT_RATES[-1]
    assert cert.extra["q0"] == cert.extra["q_r"] == 0.0


def test_combes_thomas_rate_is_largest_passing():
    rng = np.random.default_rng(31)
    T = perturbed_T(rng, d=1, N=8, rho=0.8, eps=0.05)
    cert = combes_thomas(T)
    dmin = np.abs(T.diag_values()).min()
    r = cert.alpha
    assert 0 < r < CT_RATES[-1]
    assert _symbol_norm(T, r) / dmin <= CT_Q_MAX
    nxt = CT_RATES[CT_RATES.index(r) + 1]
    assert _symbol_norm(T, nxt) / dmin > CT_Q_MAX * (1 - 1e-12)
    assert cert.extra["q0"] == pytest.approx(_symbol_norm(T) / dmin,
                                             rel=1e-12)


def test_level_certificate_falls_back_to_direct():
    rng = np.random.default_rng(70)
    T = perturbed_T(rng, d=1, N=6, rho=0.2, eps=0.6)
    assert _symbol_norm(T) / np.abs(T.diag_values()).min() >= 1.0
    assert combes_thomas(T) is None
    cert = level_certificate(T, threshold=2)
    _, ref = invert_direct(T, threshold=2)
    assert cert.provenance == "direct" and cert.prefactor == 1.0
    assert (cert.norm_bound, cert.alpha) == (ref.norm_bound, ref.alpha)
    # a vanishing divisor: no closed form, and the direct route refuses it
    Z = FourierSeries.zero(1)
    singular = build_T(np.array([1.0]), np.array([0.0]), Z, Z, 3)
    assert combes_thomas(singular) is None
    with pytest.raises(NearSingularError):
        level_certificate(singular)


def test_neumann_transfer_keeps_prefactor_sound():
    rho, thr = 0.3, 8
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        base = perturbed_T(rng, rho=1.0, eps=1e-4,
                           Omega=1.0 + 0.4 * rng.random())
        cert = combes_thomas(base, threshold=thr)
        assert cert.prefactor > 1.0
        Tp = LatticeMatrix(region=base.region,
                           omega=base.omega, diag_block=base.diag_block,
                           symbol=base.symbol + perturbed_T(
                               rng, rho=rho, eps=1e-11).symbol)
        try:
            out = neumann_transfer(cert, variation_delta(base, Tp, s=rho))
        except CertificateGateError:
            continue
        hits += 1
        assert out.prefactor == cert.prefactor
        assert check_certificate(out, Tp).passed
    assert hits >= 5


# ----------------------------------------------------------------------
# block certify against the dense oracle
# ----------------------------------------------------------------------

def greens_T(N, coupling_eps, n=1):
    """greens mode's operator, at sigma = 0.3."""
    cfg = load_config({"mode": "greens", "n": n, "Omega": [1.17, 1.43][:n],
                       "perturbation": {"mode": [1, 0]},
                       "greens": {"N": N, "coupling_eps": coupling_eps}})
    return _greens_operator(cfg).with_sigma(0.3)


def planted_claims(cert):
    """The certificate, and claims that fail on alpha, on the norm and on
    both."""
    return [cert, replace(cert, alpha=cert.alpha + 1.0),
            replace(cert, norm_bound=0.5 * cert.norm_bound),
            replace(cert, alpha=cert.alpha + 1.0,
                    norm_bound=0.5 * cert.norm_bound)]


def assert_block_certify_is_dense(T, threshold, claims=planted_claims):
    """`_check_against` on `invert_direct`'s blocks gives the dense
    oracle's result for each claim; returns the offender counts."""
    parts, cert = invert_direct(T, threshold)
    counts = []
    for claim in claims(cert):
        res = _check_against(claim, parts, T)
        assert_same_result(res, check_certificate(claim, T))
        counts.append(len(res.offenders))
    return counts


@pytest.mark.parametrize("N", [8, 16, 20])
@pytest.mark.parametrize("coupling_eps", [0.0, 0.05])
def test_block_certify_matches_dense_on_greens_operators(N, coupling_eps):
    # each dense check takes an SVD of the full G, so the large operators
    # take only the certificate and the claim that fails on both
    claims = planted_claims if N == 8 else (
        lambda cert: planted_claims(cert)[::3])
    counts = assert_block_certify_is_dense(greens_T(N, coupling_eps), N // 2,
                                           claims)
    # coupled, alpha fails on 10 pairs; diagonal, only the norm can fail
    assert counts[-1] == (10 if coupling_eps else 1)


def test_block_certify_matches_dense_at_n2():
    assert assert_block_certify_is_dense(greens_T(6, 0.05, n=2), 3) \
        == [0, 10, 1, 10]


def test_block_certify_matches_dense_on_complex_and_connected():
    # connected and real, diagonal, then complex non-Hermitian at n = 1
    # and n = 2
    cases = [perturbed_T(np.random.default_rng(41), rho=0.8, eps=0.05),
             diagonal_T(2, 4)] + [random_operator(np.random.default_rng(s), 3)
                                  for s in (1, 0)]
    assert [T.nblock for T in cases[2:]] == [1, 2]
    assert not any(T.is_real for T in cases[2:])
    for T in cases:
        counts = assert_block_certify_is_dense(T, 2)
        assert counts[0] == 0 and counts[2] == 1
        assert counts[1] == (0 if T is cases[1] else 10)


def test_block_certify_breaks_ties_as_the_full_array():
    # at omega = 0 the even and odd sites of [-4, 5] are two components
    # with equal blocks, so their offenders tie pair for pair; the full G
    # interleaves them in its row-major order
    B = FourierSeries.from_coeffs(1, {(2,): 0.3, (-2,): 0.3})
    Z = FourierSeries.zero(1)
    T = build_T(np.array([0.0]), np.array([1.0]), B, Z, 5).restrict(
        [(k,) for k in range(-4, 6)])
    assert [g.shape for g in T.components()] == [(2, 5)]
    parts, cert = invert_direct(T, 1)
    claim = replace(cert, alpha=cert.alpha + 1.0)
    res = _check_against(claim, parts, T)
    assert_same_result(res, check_certificate(claim, T))
    ratios = [r for _, _, r in res.offenders]
    assert len(set(ratios)) < len(ratios)
    assert {x[0] % 2 for x, _, _ in res.offenders} == {0, 1}
