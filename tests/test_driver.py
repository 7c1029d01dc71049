import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from toruskam import cli, greens, homological
from toruskam.atlas import gamma_floor
from toruskam.config import load_config
from toruskam.driver import (KamState, ParameterExcluded, contraction_exponent,
                             initial_step, invariance_residual, kam_step,
                             log_csv, make_schedule, run)
from toruskam.fourier import FourierSeries
from toruskam.homological import NearSingularError
from toruskam.jets import (HamiltonianJet, NormalForm, check_reality,
                           split_low_high, vf_norm)

PHI = (1.0 + math.sqrt(5.0)) / 2.0
GOLD = np.array([1.0, PHI])
D, NN = 2, 1


def decaying_series(rng, eps, s0, kmax, real=True, zero_mean=True):
    entries = {}
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            if abs(k1) + abs(k2) > kmax:
                continue
            if zero_mean and k1 == k2 == 0:
                continue
            amp = eps * math.exp(-s0 * (abs(k1) + abs(k2)))
            entries[(k1, k2)] = amp * (rng.standard_normal()
                                       + 1j * rng.standard_normal())
    f = FourierSeries.from_coeffs(D, entries, cutoff=kmax)
    if real:
        f = 0.5 * (f + f.conj_function())
    return f


def tail_jet(rng, eps, s0, kmax, s_ref=0.3, r_ref=0.5):
    """Perturbation with a geometric Fourier tail, touching every equation
    class plus one high-order term."""
    z0 = (0,) * D
    terms = {}
    terms[(z0, (0,), (0,))] = decaying_series(rng, eps, s0, kmax)
    terms[((1, 0), (0,), (0,))] = decaying_series(rng, eps, s0, kmax,
                                                  zero_mean=False)
    hz = decaying_series(rng, eps, s0, kmax, real=False, zero_mean=False)
    terms[(z0, (1,), (0,))] = hz
    terms[(z0, (0,), (1,))] = hz.conj_function()
    mzz = decaying_series(rng, eps, s0, kmax, real=False, zero_mean=False)
    terms[(z0, (2,), (0,))] = mzz
    terms[(z0, (0,), (2,))] = mzz.conj_function()
    terms[(z0, (1,), (1,))] = decaying_series(rng, eps, s0, kmax,
                                              zero_mean=False)
    terms[((1, 0), (1,), (1,))] = decaying_series(rng, eps, s0, min(kmax, 6),
                                                  zero_mean=False)
    # cap the mode box of products: keeps exponentially-weighted norms from
    # amplifying convolution roundoff at far modes (overflow goes to `tail`)
    return HamiltonianJet(D, NN, terms, max_degree=4, cutoff_cap=32,
                          s_ref=s_ref, r_ref=r_ref)


def base_nf(Omega=1.17):
    return NormalForm(GOLD.copy(), np.array([Omega]),
                      FourierSeries.zero(D, shape=(NN, NN)))


# ----------------------------------------------------------------------
# schedule
# ----------------------------------------------------------------------

def schedule(A, eps0, s0=1.0, N_max=16):
    """`make_schedule` at d = 2 (tau = d + 2) with r0 = 0.5 and, unless
    given, s0 = 1 and N_max = 16."""
    return make_schedule(A, eps0, tau=4.0, s0=s0, r0=0.5, N_max=N_max)


def test_schedule_eps_example():
    sch = schedule(10.0, 1e-6)
    assert sch.eps(2) == pytest.approx(10 ** -(16.0 / 9.0), rel=1e-12)
    assert sch.eps(2) == pytest.approx(1.667e-2, rel=1e-3)


def test_schedule_e_stays_below_half():
    sch = schedule(10.0, 1e-6)
    for l in (1, 10, 1000, 10 ** 6):
        assert 0 < sch.e(l) < 0.5
    assert sch.s(10 ** 6) > sch.s0 / 2
    assert sch.r(10 ** 6) > sch.r0 / 2


def test_schedule_lstar_and_cutoff_cap():
    sch = schedule(10.0, 1e-6)     # tau = 4
    assert sch.l_star == math.ceil(6 * math.log(10)
                                   / (3 * 4 * math.log(10)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the cap is an event, not a warning
        assert sch.N(5) == sch.N_max
    assert sch.cap_event(5) == {"level": 5, "event": "cutoff_capped",
                                "message": "mode cutoff capped at 16 "
                                           "(nominal 1e+06)"}
    assert sch.N(0) == 10 and sch.cap_event(0) is None


def inter(ladder, l, j):
    """The ladder value a fraction j / 100 of the way from level l to
    l + 1 (`ladder` is a schedule's s or r)."""
    if not 0 <= j <= 100:
        raise ValueError("intermediate index in 0..100")
    return ladder(l) + (ladder(l + 1) - ladder(l)) * j / 100.0


def test_schedule_intermediate_ladder():
    sch = schedule(2.0, 1e-6)
    assert inter(sch.s, 1, 0) == sch.s(1)
    assert inter(sch.s, 1, 100) == pytest.approx(sch.s(2))
    assert inter(sch.r, 3, 50) == pytest.approx(0.5 * (sch.r(3) + sch.r(4)))
    with pytest.raises(ValueError):
        inter(sch.s, 1, 101)


def test_gamma_floor_and_contraction_exponent():
    floor = gamma_floor(0.1, 2.0)
    assert floor(np.array([[2, -1], [0, 0]])) == pytest.approx(
        [0.1 / 9.0, 0.1])
    eps = [2.0 ** -((4.0 / 3.0) ** l) for l in range(2, 6)]
    assert contraction_exponent(eps) == pytest.approx(4.0 / 3.0, rel=1e-9)
    assert contraction_exponent([2.0]) is None


# ----------------------------------------------------------------------
# initial step
# ----------------------------------------------------------------------

def test_initial_step_zero_perturbation():
    nf = base_nf()
    P = HamiltonianJet.zero(D, NN, s_ref=0.3, r_ref=0.5)
    sch = schedule(2.0, 1e-6, s0=0.3, N_max=16)
    state, atlas = initial_step(nf, P, sch, gamma=1e-3, exclusion_N=8)
    assert state.eps_meas == 0.0
    assert np.allclose(state.xi, GOLD)
    assert len(atlas.boxes) > 50
    cert = state.extra["level_certificate"]
    assert cert.provenance == "combes-thomas"
    # S = 0: q_r = 0 at every rate, and G = D^{-1}
    assert cert.extra["q0"] == cert.extra["q_r"] == 0.0
    assert cert.alpha == greens.CT_RATES[-1]
    assert cert.norm_bound == cert.prefactor


def test_initial_step_direct_certificate_gated_on_cond_cap(monkeypatch):
    # when the closed form declines, the direct inversion of the level
    # operator is gated on the lattice solves' one condition cap
    seen = []
    monkeypatch.setattr(greens, "combes_thomas",
                        lambda T, threshold=0: seen.append(T))
    nf = base_nf()
    P = HamiltonianJet.zero(D, NN, s_ref=0.3, r_ref=0.5)
    sch = schedule(2.0, 1e-6, s0=0.3, N_max=16)
    state, _ = initial_step(nf, P, sch, gamma=1e-3, exclusion_N=8)
    cond = greens.invert_direct(seen[0])[1].extra["condition"]
    assert state.extra["level_certificate"].provenance == "direct"
    assert 1.0 < cond < 1e12
    monkeypatch.setattr(homological, "COND_CAP", 0.5 * cond)
    with pytest.raises(NearSingularError):
        initial_step(nf, P, sch, gamma=1e-3, exclusion_N=8)
    monkeypatch.setattr(homological, "COND_CAP", 2.0 * cond)
    state, _ = initial_step(nf, P, sch, gamma=1e-3, exclusion_N=8)
    cert = state.extra["level_certificate"]
    assert cert.provenance == "direct" and cert.extra["condition"] == cond


def test_initial_step_certifies_d3_in_closed_form(monkeypatch):
    # the d = 3 level operator has 4913 sites: its dense form alone is
    # 386 MB, so no dense inverse may be taken
    def refuse(*args, **kwargs):
        raise AssertionError("invert_direct called")
    monkeypatch.setattr(greens, "invert_direct", refuse)
    cfg = load_config({
        "mode": "run", "seed": 1, "d": 3, "n": 1,
        "omega": [1.0, PHI, math.sqrt(2.0)], "Omega": [1.17],
        "A": 2.0, "s0": 0.3, "r0": 0.5, "eps": 1e-6,
        "caps": {"levels": 2, "N_max": 10, "gamma": 1e-4},
        "perturbation": {"kind": "random-tail", "amplitude": 1e-6,
                         "kmax": 6}})
    c = cfg.values
    P = cli.build_perturbation(cfg, np.random.default_rng(1))
    sch = make_schedule(c["A"], c["eps"], c["tau"], s0=c["s0"], r0=c["r0"],
                        N_max=10)
    t0 = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state, _ = initial_step(cli._normal_form(cfg), P, sch, gamma=1e-4,
                                exclusion_N=c["caps"]["exclusion_N"])
    assert time.monotonic() - t0 <= 20.0
    cert = state.extra["level_certificate"]
    assert cert.provenance == "combes-thomas"
    assert len(cert.region) == 17 ** 3
    assert cert.alpha > 1.0 and cert.extra["q_r"] <= greens.CT_Q_MAX
    assert cert.extra["q0"] < 0.01


def test_initial_step_moves_off_resonance():
    a = 1.0123456789          # omega on the diagonal resonance k=(1,-1)
    nf = NormalForm(np.array([a, a]), np.array([1.17]),
                    FourierSeries.zero(D, shape=(NN, NN)))
    P = HamiltonianJet.zero(D, NN, s_ref=0.3, r_ref=0.5)
    sch = schedule(2.0, 1e-6, s0=0.3)
    state, atlas = initial_step(nf, P, sch, gamma=1e-3, exclusion_N=8)
    assert not np.allclose(state.xi, (a, a))
    assert np.allclose(state.nf.omega, state.xi)


def test_initial_step_empty_atlas():
    nf = base_nf()
    P = HamiltonianJet.zero(D, NN, s_ref=0.3, r_ref=0.5)
    sch = schedule(2.0, 1e-6, s0=0.3)
    with pytest.raises(ParameterExcluded):
        initial_step(nf, P, sch, gamma=50.0, exclusion_N=8)


def test_initial_step_rejects_unreal_input():
    bad = HamiltonianJet(D, NN, {((0, 0), (1,), (0,)):
                                 FourierSeries.constant(D, 1.0)},
                         s_ref=0.3, r_ref=0.5)
    sch = schedule(2.0, 1e-6, s0=0.3)
    with pytest.raises(ValueError):
        initial_step(base_nf(), bad, sch, gamma=None, exclusion_N=8)


def test_initial_step_projects_onto_real_subspace():
    rng = np.random.default_rng(5)
    P = tail_jet(rng, 1e-5, s0=1.0, kmax=6)
    sch = schedule(2.0, 1e-5, s0=0.3, N_max=16)
    # an exactly real input passes bit for bit
    state, _ = initial_step(base_nf(), P, sch, gamma=1e-4, exclusion_N=4)
    assert list(state.P.terms) == list(P.terms)
    assert all(np.array_equal(state.P.terms[sig].data, f.data)
               for sig, f in P.terms.items())
    assert state.P.tail == P.tail and state.extra["reality_err"] == 0.0
    # a defect within the 1e-12 acceptance is projected away
    sig = ((0, 0), (1,), (0,))
    near = replace(P, terms={
        **P.terms, sig: P.terms[sig] + FourierSeries.constant(D, 1e-13j)})
    assert 0 < check_reality(near)[1] <= 1e-12
    state, _ = initial_step(base_nf(), near, sch, gamma=1e-4, exclusion_N=4)
    assert check_reality(state.P, tol=0.0) == (True, 0.0)
    assert state.extra["reality_err"] == 0.0
    assert (state.P - near).max_abs_coeff() <= 1e-13


# ----------------------------------------------------------------------
# single step
# ----------------------------------------------------------------------

def test_kam_step_fixed_point_high_only():
    nf = base_nf()
    hi = FourierSeries.cosine(D, (1, 0), 1e-5)
    P = HamiltonianJet(D, NN, {((0, 0), (2,), (1,)): hi},
                       s_ref=0.3, r_ref=0.5)
    sch = schedule(2.0, 1e-6, s0=0.3)
    state = KamState(level=2, nf=nf, P=P, xi=GOLD.copy(), eps_meas=0.0,
                     eps_high=vf_norm(P, 0.3, 0.5), extra={"gamma": 0.0})
    new, sol = kam_step(state, sch)
    assert new.extra["omega_shift"] == 0.0
    assert new.eps_meas <= 1e-16
    assert sol.Fx.max_abs_coeff() == 0.0


def test_kam_step_cosine_contracts():
    nf = base_nf()
    eps = 1e-4
    P = HamiltonianJet(D, NN, {((0, 0), (0,), (0,)):
                               FourierSeries.cosine(D, (1, 0), eps)},
                       s_ref=0.3, r_ref=0.5)
    sch = schedule(2.0, 1e-6, s0=0.3)
    state = KamState(level=2, nf=nf, P=P, xi=GOLD.copy(),
                     eps_meas=vf_norm(P, sch.s(2), sch.r(2)),
                     eps_high=0.0, extra={"gamma": 1e-4})
    new, sol = kam_step(state, sch)
    assert new.eps_meas <= 10 * eps ** (4.0 / 3.0)
    assert new.extra["B_symmetry_err"] <= 1e-12
    assert new.extra["reality_err"] <= 1e-12
    assert new.extra["omega_shift"] <= math.sqrt(state.eps_meas)


def test_kam_step_drops_the_constant_shift_through_the_jet():
    # a constant x-part is all energy shift: the new P holds no all-zero
    # term in its place, as a jet built from those terms would not
    sig0 = ((0, 0), (0,), (0,))
    P = HamiltonianJet(D, NN, {sig0: FourierSeries.constant(D, 1e-6)},
                       s_ref=0.3, r_ref=0.5)
    sch = schedule(2.0, 1e-6, s0=0.3)
    state, _ = initial_step(base_nf(), P, sch, gamma=1e-4,
                            exclusion_N=8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # R^x's mean is the shift
        new, _ = kam_step(state, sch)
    assert all(f.data.any() for f in new.P.terms.values())
    assert sig0 not in new.P.terms


def test_kam_step_reports_a_dropped_mean_as_an_event():
    # R^x's mean is an energy shift: kam_step drops it and records an
    # rx_mean_dropped event with the level and the exact modulus, and no
    # Python warning is raised
    sig0 = ((0, 0), (0,), (0,))
    P = HamiltonianJet(D, NN, {sig0: FourierSeries.constant(D, 1e-6)},
                       s_ref=0.3, r_ref=0.5)
    sch = schedule(2.0, 1e-6, s0=0.3)
    state, _ = initial_step(base_nf(), P, sch, gamma=1e-4, exclusion_N=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new, sol = kam_step(state, sch)
        again, _ = kam_step(new, sch)
    dropped = [e for e in again.extra["events"]
               if e["event"] == "rx_mean_dropped"]
    assert sol.solve_info["rx_mean"] == 1e-6
    assert dropped == [{"level": state.level, "event": "rx_mean_dropped",
                        "message": "R^x mean of modulus 1e-06 dropped (an "
                                   "energy shift only)", "abs_mean": 1e-6}]


def test_kam_step_resonant_parameter_excluded():
    nf = NormalForm(np.array([1.0, 1.5]), np.array([1.17]),
                    FourierSeries.zero(D, shape=(NN, NN)))
    # mode (3, -2) is exactly resonant with omega = (1, 1.5)
    P = HamiltonianJet(D, NN, {((0, 0), (0,), (0,)):
                               FourierSeries.cosine(D, (3, -2), 1e-5)},
                       s_ref=0.3, r_ref=0.5)
    sch = schedule(2.0, 1e-6, s0=0.3)
    state = KamState(level=2, nf=nf, P=P, xi=nf.omega.copy(),
                     eps_meas=1e-5, eps_high=0.0, extra={"gamma": 1e-6})
    with pytest.raises(ParameterExcluded):
        kam_step(state, sch)


# ----------------------------------------------------------------------
# end-to-end
# ----------------------------------------------------------------------

def small_run(seed=7, eps=1e-5, kmax=10, levels=2):
    rng = np.random.default_rng(seed)
    P = tail_jet(rng, eps, s0=1.0, kmax=kmax)
    sch = schedule(2.0, eps, s0=0.3, N_max=16)
    return run(base_nf(), P, sch, max_levels=levels, gamma=1e-4,
               exclusion_N=6)


def test_run_contracts_and_logs():
    res = small_run()
    eps_seq = [r["eps_meas"] for r in res.rows]
    assert len(res.rows) >= 3
    assert eps_seq[1] < eps_seq[0] and eps_seq[2] < eps_seq[1]
    assert res.residual <= 10 * res.final_low_norm
    assert res.exponent is not None and res.exponent > 1.0
    csv = log_csv(res.rows)
    assert csv.startswith("level,eps_meas")
    assert len(csv.strip().split("\n")) == len(res.rows) + 1


def test_run_deterministic_reports():
    a = log_csv(small_run().rows)
    b = log_csv(small_run().rows)
    assert a == b


def test_run_symmetry_reality_across_levels():
    res = small_run(seed=9)
    for row in res.rows:
        assert row["B_symmetry_err"] <= 1e-12


def test_invariance_residual_selects_obstructions():
    # a pure z z-bar term vanishes on the torus; a scalar x-term does not
    quad = HamiltonianJet(D, NN, {((0, 0), (1,), (1,)):
                                  FourierSeries.cosine(D, (1, 0), 0.1)},
                          s_ref=0.3, r_ref=0.5)
    assert invariance_residual(quad, 0.3, 0.5) == 0.0
    lin = HamiltonianJet(D, NN, {((0, 0), (0,), (0,)):
                                 FourierSeries.cosine(D, (1, 0), 0.1)},
                         s_ref=0.3, r_ref=0.5)
    assert invariance_residual(lin, 0.3, 0.5) > 0.0
