import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from toruskam import atlas as atlas_mod
from toruskam.atlas import (ParameterAtlas, ParameterBox, gamma_floor,
                            monte_carlo_excluded, nominal_half_width,
                            nonresonance_predicate, pave_and_filter,
                            paving_count)
from toruskam.fourier import mode_grid

PHI = (1.0 + math.sqrt(5.0)) / 2.0


# ----------------------------------------------------------------------
# non-resonance scans
# ----------------------------------------------------------------------

# the exhaustive scalar scans: the oracles of the vectorized predicate

@dataclass
class ScanReport:
    ok: bool
    worst: tuple | None      # offending (k,) or (j, k) or ((j1, j2), k)
    margin: float            # min over the scan of |divisor| - bound

    def __bool__(self):
        return self.ok


def diophantine_ok(omega, N: int, gamma: float, tau: float) -> ScanReport:
    """|<k, omega>| > gamma |k|_1^{-tau} for all 0 < |k|_inf <= N,
    by exhaustive scan."""
    omega = np.asarray(omega, dtype=float)
    if N < 1:
        raise ValueError("N >= 1 required")
    ks = mode_grid(omega.size, N).reshape(-1, omega.size)
    ks = ks[np.abs(ks).max(axis=1) > 0]
    vals = np.abs(ks @ omega)
    bounds = gamma * np.abs(ks).sum(axis=1) ** -float(tau)
    margins = vals - bounds
    i = int(np.argmin(margins))
    return ScanReport(ok=bool((margins > 0).all()),
                      worst=tuple(int(c) for c in ks[i]),
                      margin=float(margins[i]))


def melnikov1_ok(omega, Omega, N: int, gamma: float, tau: float,
                 doubled: bool = False) -> ScanReport:
    """First Melnikov condition |<k, omega> + Omega_j| > gamma |k|_1^{-tau}
    over |k|_inf <= N (k = 0 included, |k| read as 1 there); with
    doubled=True the divisor uses Omega_{j1} + Omega_{j2} instead."""
    omega = np.asarray(omega, dtype=float)
    Omega = np.asarray(Omega, dtype=float)
    if (Omega <= 0).any():
        raise ValueError("normal frequencies must be positive")
    ks = mode_grid(omega.size, N).reshape(-1, omega.size)
    knorm = np.maximum(np.abs(ks).sum(axis=1), 1)
    bounds = gamma * knorm ** -float(tau)
    kw = ks @ omega
    if doubled:
        labels = [(j1, j2) for j1 in range(Omega.size)
                  for j2 in range(j1, Omega.size)]
        sums = np.array([Omega[a] + Omega[b] for a, b in labels])
    else:
        labels = list(range(Omega.size))
        sums = Omega
    vals = np.abs(kw[:, None] + sums[None, :])        # (nk, nj)
    margins = vals - bounds[:, None]
    i, j = np.unravel_index(int(np.argmin(margins)), margins.shape)
    return ScanReport(ok=bool((margins > 0).all()),
                      worst=(labels[j], tuple(int(c) for c in ks[i])),
                      margin=float(margins[i, j]))


def measure_fraction(atlas_l: ParameterAtlas,
                     atlas_0: ParameterAtlas) -> float:
    v0 = atlas_0.total_volume()
    if v0 <= 0:
        raise ValueError("reference atlas has zero volume")
    return atlas_l.total_volume() / v0



def test_diophantine_resonant_vector():
    rep = diophantine_ok((1.0, 1.0), N=5, gamma=0.01, tau=2)
    assert not rep.ok
    assert tuple(abs(c) for c in rep.worst) == (1, 1)
    assert rep.margin < 0


def test_diophantine_golden_passes():
    rep = diophantine_ok((1.0, PHI), N=20, gamma=0.05, tau=3)
    assert rep.ok and rep.margin > 0


def test_diophantine_rational_ratio():
    rep = diophantine_ok((1.0, 0.5), N=5, gamma=0.01, tau=2)
    assert not rep.ok
    assert tuple(abs(c) for c in rep.worst) == (1, 2)


def test_melnikov_k_zero_divisor():
    rep = melnikov1_ok((1.2, PHI), (1.0,), N=3, gamma=0.01, tau=2)
    assert rep.ok


def test_melnikov_planted_resonance():
    k0 = (-2, -1)
    Om = -(k0[0] * 1.0 + k0[1] * PHI)
    assert Om > 0
    rep = melnikov1_ok((1.0, PHI), (Om,), N=3, gamma=0.01, tau=2)
    assert not rep.ok
    j, k = rep.worst
    assert j == 0 and k == k0


def test_melnikov_doubled_reduces_for_n1():
    a = melnikov1_ok((1.0, PHI), (0.7,), N=4, gamma=0.02, tau=2,
                     doubled=True)
    b = melnikov1_ok((1.0, PHI), (1.4,), N=4, gamma=0.02, tau=2)
    assert a.ok == b.ok
    assert a.margin == pytest.approx(b.margin)


def test_diophantine_scale_propagation():
    # passing at gamma (1 + 2^{1-l}) and moving omega by less than
    # gamma 2^{-l} / max|k|_1^{tau+1} keeps it passing at gamma (1 + 2^{-l})
    gamma, tau, N, l = 0.05, 3.0, 20, 4
    omega = np.array([1.0, PHI])
    assert diophantine_ok(omega, N, gamma * (1 + 2 ** -(l - 1)), tau).ok
    kmax = 2 * N          # max |k|_1 over the scan box
    radius = gamma * 2 ** -l * kmax ** -(tau + 1) / 2
    rng = np.random.default_rng(0)
    for _ in range(20):
        delta = rng.uniform(-radius, radius, size=2)
        rep = diophantine_ok(omega + delta, N, gamma * (1 + 2 ** -l), tau)
        assert rep.ok


def test_predicate_matches_scalar_scans():
    rng = np.random.default_rng(1)
    pts = rng.uniform(1.0, 2.0, size=(10, 2))
    Om = (1.1, 1.4)
    pred = nonresonance_predicate(Om, N=4, gamma=0.01, tau=2)
    got = pred(pts)
    for i, xi in enumerate(pts):
        want = diophantine_ok(xi, 4, 0.01, 2).ok \
            and melnikov1_ok(xi, Om, 4, 0.01, 2).ok \
            and melnikov1_ok(xi, Om, 4, 0.01, 2, doubled=True).ok
        assert bool(got[i]) == want


def test_predicate_floor_is_gamma_floor_d3_tau5():
    # omega = (1.5 + f/2, 1, sqrt 2) puts the one divisor <k, omega> = f
    # exactly, at k = (2, -3, 0) with |k|_1 = 5, and f is the floor that
    # `gamma_floor` (the divisor check's) gives there at tau = 5; every
    # other divisor and the Melnikov ones clear their floors.  The point
    # fails at f, on the strict inequality, and passes one grid step above
    tau = 5.0
    k = np.array([[2, -3, 0]])
    f = (2 ** 29 + 1) * 2.0 ** -51
    gamma = f / 5 ** -tau
    assert gamma_floor(gamma, tau)(k)[0] == f
    pred = nonresonance_predicate(np.array([100.0]), 5, gamma, tau)
    for div, ok in ((f, False), (f + 2.0 ** -51, True)):
        om = np.array([[1.5 + div / 2, 1.0, math.sqrt(2.0)]])
        assert (om @ k.T)[0, 0] == div
        assert pred(om)[0] == ok


def test_predicate_chunks_match_one_pass(monkeypatch):
    rng = np.random.default_rng(2)
    pts = np.array([1.0, PHI, math.sqrt(2.0)]) \
        + rng.uniform(-0.05, 0.05, size=(300, 3))
    pred = nonresonance_predicate((1.17, 1.43), N=4, gamma=1e-3, tau=5.0)
    monkeypatch.setattr(atlas_mod, "_PREDICATE_BYTES", 1 << 40)
    whole = pred(pts)
    assert 0 < whole.sum() < len(pts)
    for size in (1, 8 * 9 ** 3 * 7, 1 << 16):
        monkeypatch.setattr(atlas_mod, "_PREDICATE_BYTES", size)
        assert np.array_equal(pred(pts), whole)


def test_d3_paving_memory_is_flat():
    # the d = 3 run's first paving: 1000 boxes, 9 points each, against
    # 2197 modes.  In one pass the divisors alone took 158 MB and the
    # paving peaked at 475 MB
    root = ParameterAtlas.root((1.0, PHI, math.sqrt(2.0)), 0.5, A=10.0,
                               size_exponent=1)
    pred = nonresonance_predicate((1.17,), N=6, gamma=1e-4, tau=5.0)
    tracemalloc.start()
    try:
        out, _ = pave_and_filter(root, 1, pred)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.boxes) == 1000
    assert peak <= 4 * atlas_mod._PREDICATE_BYTES


# ----------------------------------------------------------------------
# atlases
# ----------------------------------------------------------------------

def test_pave_trivial_predicate_tiles_exactly():
    atlas = ParameterAtlas.root((1.5, 1.5), 0.5, A=10.0, size_exponent=1)
    out, removed = pave_and_filter(atlas, 1,
                                   lambda pts: np.ones(len(pts), bool))
    assert removed == 0.0
    assert len(out.boxes) == 100
    assert out.total_volume() == pytest.approx(atlas.total_volume())
    out.validate()
    rows = out.serialize_rows()
    assert len(rows) == 100 and rows[0][0] == 1


def test_pave_slab_measure_oracle():
    # exclude the slab |xi_1 - xi_2| < delta; exact removed volume in the
    # box is 2 delta * side - delta^2
    delta = 0.02
    atlas = ParameterAtlas.root((1.25, 1.25), 0.25, A=10.0, size_exponent=1)

    def pred(pts):
        return np.abs(pts[:, 0] - pts[:, 1]) >= delta

    out, removed = pave_and_filter(atlas, 3, pred)
    exact = 2 * delta * 0.5 - delta ** 2
    assert removed == pytest.approx(exact, rel=0.2)
    assert out.total_volume() + removed == pytest.approx(
        atlas.total_volume())


def test_nesting_parent_links():
    atlas = ParameterAtlas.root((0.0,), 0.5, A=4.0, size_exponent=1)
    rng = np.random.default_rng(2)
    out, _ = pave_and_filter(atlas, 1,
                             lambda pts: rng.random(len(pts)) < 0.8)
    for box, parent in zip(out.boxes, out.parents):
        assert parent is atlas.boxes[0]
        assert parent.contains(box.center)


def test_measure_fraction_trivial_cases():
    atlas = ParameterAtlas.root((0.0, 0.0), 0.5)
    assert measure_fraction(atlas, atlas) == 1.0
    half = ParameterAtlas(level=1, A=10.0, size_exponent=4,
                          boxes=atlas.boxes[:1], parents=[None])
    half.boxes = [ParameterBox((0.25, 0.0), 0.25, 1),
                  ParameterBox((-0.25, 0.0), 0.25, 1)]
    assert measure_fraction(half, atlas) == pytest.approx(0.5)


def test_validate_detects_overlap():
    bad = ParameterAtlas(level=0, A=10.0, size_exponent=4,
                         boxes=[ParameterBox((0.0,), 0.5, 0),
                                ParameterBox((0.5, ), 0.5, 0)],
                         parents=[None, None])
    with pytest.raises(ValueError):
        bad.validate()


def test_monte_carlo_half_space():
    box = ParameterBox((1.5, 1.5), 0.5, 0)
    rng = np.random.default_rng(3)
    frac, err = monte_carlo_excluded(lambda p: p[:, 0] <= 1.5, box,
                                     200_000, rng)
    assert frac == pytest.approx(0.5, abs=5 * err + 1e-3)


def test_mode_grid_and_nominal_width():
    shared = mode_grid(2, 2).reshape(-1, 2)
    ks = shared[np.abs(shared).max(axis=1) > 0]
    assert len(ks) == 24 and not (np.abs(ks).max(axis=1) == 0).any()
    with pytest.raises(ValueError):
        shared[0, 0] = 7           # the cached mode grid stays read-only
    assert nominal_half_width(10.0, 1, 0) == 0.5
    assert nominal_half_width(10.0, 1, 2) == pytest.approx(0.005)


def test_excluded_fraction_scales_like_sqrt_eps():
    # gamma proportional to sqrt(eps): measured excluded fraction should
    # follow, slope ~ 1/2 on log-log
    box = ParameterBox((1.5, 1.5), 0.5, 0)
    fracs = []
    epss = [1e-4, 1e-5, 1e-6]
    for i, eps in enumerate(epss):
        pred = nonresonance_predicate((1.17,), N=6, gamma=3 * math.sqrt(eps),
                                      tau=2)
        rng = np.random.default_rng(10 + i)
        frac, _ = monte_carlo_excluded(pred, box, 120_000, rng)
        fracs.append(frac)
    slope = np.polyfit(np.log(epss), np.log(fracs), 1)[0]
    assert 0.5 / 1.8 <= slope <= 0.5 * 1.8
    for eps, frac in zip(epss, fracs):
        ratio = frac / math.sqrt(eps)
        assert fracs[0] / math.sqrt(epss[0]) / 3 <= ratio \
            <= fracs[0] / math.sqrt(epss[0]) * 3


def test_paving_count_matches_pave_and_filter():
    def keep_all(pts):
        return np.ones(len(pts), dtype=bool)
    for center, hw, A in (((1.0, PHI), 0.5, 2.0), ((1.0, PHI), 0.25, 4.0),
                          ((1.0, PHI), 0.65, 2.0), ((PHI,), 0.5, 3.0),
                          ((1.0, PHI, 2.0), 0.5, 5.0)):
        root = ParameterAtlas.root(center, hw, A=A)
        level1, _ = pave_and_filter(root, 1, keep_all)
        assert paving_count(root, 1) == len(level1.boxes)
        assert paving_count(level1, 1) == 0
    # A near 1: level 1 keeps the root box whole, level 2 splits it
    root = ParameterAtlas.root((1.0, PHI), 0.5, A=1.05)
    level2, _ = pave_and_filter(pave_and_filter(root, 1, keep_all)[0], 2,
                                keep_all)
    assert paving_count(root, 2) == 1 + len(level2.boxes)


def test_paving_count_of_deep_levels_without_grid():
    root = ParameterAtlas.root((1.0, PHI), 0.5, A=2.0)
    # level 1 halves each axis; level 2 asks for 2^15 children per axis
    assert paving_count(root, 2) == 4 + 4 * 32768 ** 2
    # 0.5 * 2^-(6^4) underflows: the target width is 0
    assert paving_count(root, 6) == math.inf
