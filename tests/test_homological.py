import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from toruskam.fourier import (FourierSeries, dir_derivative, partial_x,
                              product, strip_norm, truncate)
from toruskam import homological
from toruskam.atlas import gamma_floor
from toruskam.homological import (NearSingularError, SmallDivisorError,
                                  _block_inverse, _component_blocks,
                                  _neumann_bound, _site_series, _site_values,
                                  _sweep_cap, bold_symbol, build_boldT,
                                  build_T, cube_region, residual_hx,
                                  residual_lattice, solve_homological,
                                  solve_hx, solve_hy, solve_hz, solve_hzz,
                                  solve_lattice)
from toruskam.jets import (HamiltonianJet, check_reality, component_x,
                           component_y, component_z, conjugate_jet,
                           jet_from_parts, matrix_zz, matrix_zzbar,
                           poisson_bracket, split_low_high, weighted_degree)

from lu_oracle import lu_gecon
from test_fourier import sine

D = 2
ZD = (0, 0)
GOLD = np.array([1.0, (1.0 + math.sqrt(5.0)) / 2.0])
# test ids of the scalar operator T and the pair-index bold T
OPERATOR_IDS = ["build_T", "build_boldT"]


def make_operator(omega, Omega, B, Rzz, N, bold):
    """T, or with `bold` its pair lift bold T."""
    T = build_T(omega, Omega, B, Rzz, N)
    return build_boldT(T) if bold else T


def random_B(rng, n, cutoff=1, scale=0.1):
    box = (n, n) + (2 * cutoff + 1,) * D
    B = FourierSeries(D, (n, n), cutoff,
                      rng.standard_normal(box) + 1j * rng.standard_normal(box))
    B = 0.5 * (B + B.conj_function())   # real for real x
    B = 0.5 * (B + B.transpose())       # symmetric
    return scale * B


def random_real_jet(rng, n, degree=4, cutoff=2, eps=1e-3):
    zn = (0,) * n
    sigs = []
    for a0 in range(3):
        for a1 in range(3):
            for bi in range(3 ** n):
                for ci in range(3 ** n):
                    b = tuple((bi // 3 ** t) % 3 for t in range(n))
                    c = tuple((ci // 3 ** t) % 3 for t in range(n))
                    sig = ((a0, a1), b, c)
                    if 0 < weighted_degree(sig) <= degree:
                        sigs.append(sig)
    terms = {}
    for sig in sigs:
        box = (1, 1) + (2 * cutoff + 1,) * D
        data = rng.standard_normal(box) + 1j * rng.standard_normal(box)
        terms[sig] = FourierSeries(D, (1, 1), cutoff, data)
    # zero-mean scalar part, so solve_hx drops nothing
    sc = (ZD, zn, zn)
    box = (1, 1) + (2 * cutoff + 1,) * D
    data = rng.standard_normal(box) + 1j * rng.standard_normal(box)
    data[0, 0, cutoff, cutoff] = 0.0
    terms[sc] = FourierSeries(D, (1, 1), cutoff, data)
    P = HamiltonianJet(D, n, terms, max_degree=degree)
    P = 0.5 * (P + conjugate_jet(P))
    return eps * P


def symmetrize_zzbar(P: HamiltonianJet) -> HamiltonianJet:
    """Average coeff(z_i zbar_j) with coeff(z_j zbar_i) so the lattice symbol
    is a symmetric matrix at every mode."""
    n = P.n
    terms = dict(P.terms)
    for i in range(n):
        for j in range(i + 1, n):
            ei = tuple(1 if t == i else 0 for t in range(n))
            ej = tuple(1 if t == j else 0 for t in range(n))
            a = P.term((ZD, ei, ej))
            b = P.term((ZD, ej, ei))
            avg = 0.5 * (a + b)
            terms[(ZD, ei, ej)] = avg
            terms[(ZD, ej, ei)] = avg
    return HamiltonianJet(P.d, n, terms, max_degree=P.max_degree)


def make_instance(rng, n, eps=1e-3, N=6):
    B = random_B(rng, n)
    Omega = 1.0 + rng.uniform(0.0, 1.5, n)
    P = symmetrize_zzbar(random_real_jet(rng, n, eps=eps))
    return B, Omega, P, N


def shifted(T, p):
    """T restricted to its region moved by p."""
    return T.restrict([tuple(a + b for a, b in zip(k, p)) for k in T.region])


# ----------------------------------------------------------------------
# operator assembly
# ----------------------------------------------------------------------

def test_cube_region():
    reg = cube_region(2, 1)
    assert len(reg) == 9
    assert reg == tuple(sorted(reg))
    assert (0, 0) in reg and (-1, 1) in reg
    # lexicographic order is part of the contract
    for d in (1, 2, 3):
        for N in (0, 1, 3):
            assert cube_region(d, N) == tuple(
                itertools.product(range(-N, N + 1), repeat=d))
    # cached: the same immutable tuple on every call
    assert cube_region(2, 3) is cube_region(2, 3)


def test_diagonal_T_entries():
    # unperturbed divisors: B = Rzz = 0
    Z = FourierSeries.zero(D, shape=(1, 1))
    T = build_T(GOLD, np.array([1.0]), Z, Z, 1)
    dense = T.to_dense()
    assert np.allclose(dense, np.diag(np.diag(dense)))
    # entry at k=(1,0): Omega + <k, omega> = 1 + 1 = 2
    p = T.region.index((1, 0))
    assert dense[p, p] == pytest.approx(2.0)


def test_toeplitz_symbol_placement():
    sym = FourierSeries.from_coeffs(D, {(1, 0): 0.25}, shape=(1, 1))
    T = build_T(GOLD, np.array([1.0]), sym, FourierSeries.zero(D), 2)
    dense = T.to_dense()
    for p, k in enumerate(T.region):
        for q, kp in enumerate(T.region):
            dk = (k[0] - kp[0], k[1] - kp[1])
            expect = 0.25 if dk == (1, 0) else 0.0
            if p != q:
                assert dense[p, q] == pytest.approx(expect)


def test_translation_covariance():
    rng = np.random.default_rng(30)
    B = random_B(rng, 1)
    T = build_T(GOLD, np.array([1.3]), B, FourierSeries.zero(D), 2)
    p = (3, -2)
    ref = T.with_sigma(float(np.dot(p, GOLD)))
    assert np.allclose(shifted(T, p).to_dense(), ref.to_dense(), atol=1e-12)


def test_site_array_built_once_read_only():
    rng = np.random.default_rng(32)
    T = build_T(GOLD, np.array([1.3]), random_B(rng, 1),
                FourierSeries.zero(D), 3)
    ks = T.site_array
    assert ks is T.site_array
    assert not ks.flags.writeable
    assert np.array_equal(ks, np.array(T.region, dtype=int))
    # the per-probe diagonal is bitwise the one a fresh operator gives
    for s in (0.0, 0.37, -1.2):
        fresh = build_T(GOLD, np.array([1.3]), T.symbol,
                        FourierSeries.zero(D), 3).with_sigma(s)
        assert np.array_equal(T.dense_diagonal(s), fresh.dense_diagonal())
    # a restriction to moved sites has its own sites
    moved = shifted(T, (3, -2))
    assert np.array_equal(moved.site_array,
                          np.array(moved.region, dtype=int))
    assert np.array_equal(moved.site_array, ks + np.array([3, -2]))


@pytest.mark.parametrize("d,N", [(1, 4), (2, 3), (3, 2)])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("bold", [False, True], ids=OPERATOR_IDS)
def test_with_sigma_carries_dense_form(d, N, n, bold):
    # a complex, non-Hermitian symbol with a nonzero centre block
    rng = np.random.default_rng(40 + 10 * d + n)
    box = (n, n) + (3,) * d
    B = FourierSeries(d, (n, n), 1, 0.1 * (rng.standard_normal(box)
                                           + 1j * rng.standard_normal(box)))
    omega = GOLD[0] + np.arange(d) * (GOLD[1] - 1.0)
    Omega = 1.1 + 0.3 * np.arange(n)
    Z = FourierSeries.zero(d, shape=(n, n))
    T = make_operator(omega, Omega, B, Z, N, bold).with_sigma(0.1)
    before = T.to_dense().copy()
    moved = T
    # the shifted operator, and the diagonal shifted in place as the sigma
    # scan does it, equal the dense form built at that shift
    for s in (0.37, -1.2, 0.0):
        moved = moved.with_sigma(s)
        fresh = make_operator(omega, Omega, B, Z, N,
                              bold).with_sigma(s).to_dense()
        assert np.array_equal(moved.to_dense(), fresh)
        assert np.array_equal(T.dense_diagonal(s), np.diagonal(fresh))
    assert np.array_equal(T.to_dense(), before)



@pytest.mark.parametrize("d,N", [(1, 4), (2, 3)])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("bold", [False, True], ids=OPERATOR_IDS)
def test_restrict_matches_dense_oracle(d, N, n, bold):
    # a restriction to a random site subset S is the dense form's rows and
    # columns of S, bit for bit; on S + p the blocks between sites are the
    # same and the diagonal moves by <p, omega>; every copy starts without
    # the dense-form cache
    rng = np.random.default_rng(80 + 10 * d + n)
    box = (n, n) + (3,) * d
    B = FourierSeries(d, (n, n), 1, 0.1 * (rng.standard_normal(box)
                                           + 1j * rng.standard_normal(box)))
    omega = GOLD[0] + np.arange(d) * (GOLD[1] - 1.0)
    Omega = 1.1 + 0.3 * np.arange(n)
    T = make_operator(omega, Omega, B, FourierSeries.zero(d, shape=(n, n)),
                      N, bold).with_sigma(0.1)
    dense = T.to_dense()
    nb = T.nblock
    p = (3, -2)[:d]
    for size in (1, 2, T.nsites // 3, T.nsites):
        keep = np.sort(rng.choice(T.nsites, size, replace=False))
        sites = [T.region[i] for i in rng.permutation(keep)]
        rows = (keep[:, None] * nb + np.arange(nb)).ravel()
        ref = dense[np.ix_(rows, rows)]
        sub = T.restrict(sites)
        assert sub._dense is None
        assert sub.region == tuple(T.region[i] for i in keep)
        assert np.array_equal(sub.to_dense(), ref)
        moved = sub.restrict([tuple(a + b for a, b in zip(k, p))
                              for k in sites])
        assert moved._dense is None
        got = moved.to_dense()
        off = ~np.eye(len(rows), dtype=bool)
        assert np.array_equal(got[off], ref[off])
        assert np.abs(np.diagonal(got) - np.diagonal(ref)
                      - np.dot(p, omega)).max() <= 1e-12
    assert T.with_sigma(0.2)._dense is None


def test_bold_symbol_case_table():
    rng = np.random.default_rng(31)
    A = FourierSeries.constant(D, rng.standard_normal((2, 2)))
    bs = bold_symbol(A)
    a = A.coeff(ZD)
    b = bs.coeff(ZD)

    def e(i, j, i2, j2):
        return b[i * 2 + j, i2 * 2 + j2]

    # row action (j' = j, i' != i): pair (1,1) -> (2,1) in 1-based indexing
    assert e(0, 0, 1, 0) == pytest.approx(a[0, 1])
    # column action (i' = i, j' != j)
    assert e(0, 0, 0, 1) == pytest.approx(a[1, 0])
    # diagonal: A_ii + A_jj
    assert e(0, 1, 0, 1) == pytest.approx(a[0, 0] + a[1, 1])
    # both indices change -> zero
    assert e(0, 0, 1, 1) == pytest.approx(0.0)


def test_boldT_diagonal_n1():
    Z = FourierSeries.zero(D)
    bT = build_boldT(build_T(GOLD, np.array([1.5]), Z, Z, 1))
    dense = bT.to_dense()
    p = bT.region.index((0, 0))
    assert dense[p, p] == pytest.approx(3.0)   # 2 * Omega_1


def test_bold_divisor_floor_positive():
    # |<k, omega>| < min(Omega_i + Omega_j): plus-sign pairs never vanish,
    # so the bold operator's diagonal stays off zero
    Z = FourierSeries.zero(D, shape=(2, 2))
    T = build_boldT(build_T(0.1 * GOLD, np.array([1.0, 2.0]), Z, Z, 5))
    assert np.abs(T.diag_values()).min() > 0.5


# ----------------------------------------------------------------------
# coefficientwise solves
# ----------------------------------------------------------------------

def test_solve_hx_cosine():
    Rx = FourierSeries.cosine(D, (1, 0))
    Fx = solve_hx(Rx, GOLD, 2, 0.0)
    ref = sine(D, (1, 0))
    assert np.allclose(Fx.pad(1).data, ref.data, atol=1e-14)


def test_solve_hx_residual_random():
    rng = np.random.default_rng(32)
    box = (1, 1, 7, 7)
    Rx = FourierSeries(D, (1, 1), 3,
                       rng.standard_normal(box) + 1j * rng.standard_normal(box))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        Fx = solve_hx(Rx, GOLD, 3, 0.0)
    assert residual_hx(Fx, Rx, GOLD, 3) <= 1e-12


def test_solve_hx_drops_the_mean_without_a_warning():
    # the mean is an energy shift: solve_hx drops it silently, and
    # solve_homological records its modulus for the driver's event
    Rx = FourierSeries.constant(D, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_hx(Rx, GOLD, 1, 0.0).max_abs_coeff() == 0.0
        P = HamiltonianJet(D, 1, {(ZD, (0,), (0,)): 0.25 * Rx})
        sol = solve_homological(GOLD, np.array([1.17]), FourierSeries.zero(
            D, shape=(1, 1)), P, 2)
    assert sol.solve_info["rx_mean"] == 0.25


def test_solve_hx_small_divisor():
    # omega = (2, 3): k = (3, -2) kills the divisor exactly
    Rx = FourierSeries.from_coeffs(D, {(3, -2): 1.0})
    with pytest.raises(SmallDivisorError) as exc:
        solve_hx(Rx, (2.0, 3.0), 3, 1e-8)
    assert exc.value.k == (3, -2)


def test_solve_hx_divisor_floor_callable():
    Rx = FourierSeries.from_coeffs(D, {(2, -1): 1.0})
    # <k, omega> = 2 - phi ~ 0.382; a steep floor excludes it
    with pytest.raises(SmallDivisorError):
        solve_hx(Rx, GOLD, 2, lambda ks: np.ones(len(ks)))


def divide_by_divisor_loop(R, omega, N, divisor_floor):
    """The per-mode form: one np.dot and one floor call per nonzero mode;
    a callable floor here takes one mode tuple."""
    def floor_of(k):
        if callable(divisor_floor):
            return float(divisor_floor(k))
        return float(divisor_floor)
    omega = np.asarray(omega, dtype=float)
    R = truncate(R, N)
    out = {}
    for k, v in R.coeffs().items():
        if all(c == 0 for c in k):
            continue
        div = float(np.dot(k, omega))
        if div == 0.0 or abs(div) < floor_of(k):
            raise SmallDivisorError(k, div, floor_of(k))
        out[k] = v / (1j * div)
    return FourierSeries.from_coeffs(R.d, out, shape=R.shape, cutoff=R.cutoff)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_divide_by_divisor_matches_mode_loop(d):
    rng = np.random.default_rng(80 + d)
    omega = rng.standard_normal(d) * 3.0
    cut = {1: 40, 2: 9, 3: 4}[d]
    for rows in (1, d):
        box = (rows, 1) + (2 * cut + 1,) * d
        data = rng.standard_normal(box) + 1j * rng.standard_normal(box)
        data[..., rng.random(box[2:]) < 0.3] = 0.0   # modes left unchecked
        R = FourierSeries(d, (rows, 1), cut, data)
        for N, floor, per_mode in (
                (cut, 0.0, 0.0), (cut - 1, 1e-9, 1e-9),
                (cut, lambda ks: 1e-6 * np.maximum(np.abs(ks).sum(axis=1), 1),
                 lambda k: 1e-6 * max(sum(map(abs, k)), 1)),
                (cut, gamma_floor(1e-3, d + 2.0), gamma_floor_loop(
                    1e-3, d + 2.0))):
            got = solve_hx(R, omega, N, floor)
            ref = divide_by_divisor_loop(R, omega, N, per_mode)
            assert got.cutoff == ref.cutoff
            assert np.array_equal(got.data, ref.data)


def gamma_floor_loop(gamma, tau):
    """The per-mode floor the driver evaluated once per live mode."""
    return lambda k: gamma * max(sum(abs(c) for c in k), 1) ** -tau


@pytest.mark.parametrize("tau", [4.0, 5.0, 2.5, 3.7])
def test_gamma_floor_matches_mode_loop(tau):
    # bit-identical floors: one scalar power per distinct |k|_1
    rng = np.random.default_rng(int(tau * 10))
    for d in (1, 2, 3):
        modes = rng.integers(-30, 31, size=(500, d))
        modes[:3] = 0
        got = gamma_floor(3.7e-5, tau)(modes)
        ref = gamma_floor_loop(3.7e-5, tau)
        assert got.tolist() == [ref(tuple(k)) for k in modes.tolist()]
    assert gamma_floor(1.0, tau)(np.zeros((0, 2), dtype=int)).shape == (0,)


def test_divide_by_divisor_names_first_offending_mode():
    # omega = (2, 3): (3, -2) and (-3, 2) kill the divisor exactly; the
    # callable floor also fails at (-3, 0) and (-1, 1)
    coeffs = {(3, -2): 1.0, (-3, 2): 1.0, (2, 1): 1.0, (-1, 1): 1.0,
              (-3, 0): 1.0, (1, 1): 1.0}
    R = FourierSeries.from_coeffs(D, coeffs, cutoff=3)
    for floor, per_mode, first in (
            (1e-8, 1e-8, (-3, 2)),
            (lambda ks: np.where(ks[:, 0] < 0, 7.0, 0.0),
             lambda k: 7.0 if k[0] < 0 else 0.0, (-3, 0))):
        with pytest.raises(SmallDivisorError) as got:
            solve_hx(R, (2.0, 3.0), 3, floor)
        with pytest.raises(SmallDivisorError) as ref:
            divide_by_divisor_loop(R, (2.0, 3.0), 3, per_mode)
        assert got.value.k == first
        assert (got.value.k, got.value.value, got.value.floor) \
            == (ref.value.k, ref.value.value, ref.value.floor)


def test_solve_hy_constant_is_pure_shift():
    c = np.array([[0.5], [0.25]])
    R = FourierSeries.constant(D, c)
    Fy, shift = solve_hy(R, GOLD, 2, 0.0)
    assert Fy.max_abs_coeff() == 0.0
    assert np.allclose(shift, c[:, 0])


def test_solve_hy_cosine():
    R = FourierSeries.from_coeffs(
        D, {(1, 0): np.array([[0.5], [0.0]]),
            (-1, 0): np.array([[0.5], [0.0]])}, shape=(2, 1))
    Fy, shift = solve_hy(R, GOLD, 2, 0.0)
    assert np.allclose(shift, 0.0)
    ref = sine(D, (1, 0))
    assert np.allclose(Fy.entry(0, 0).data, ref.pad(Fy.cutoff).data, atol=1e-14)
    assert Fy.entry(1, 0).max_abs_coeff() == 0.0


# ----------------------------------------------------------------------
# lattice solves
# ----------------------------------------------------------------------

def test_solve_hz_diagonal_oracle():
    rng = np.random.default_rng(33)
    Omega = np.array([1.05, 1.73])
    Z = FourierSeries.zero(D, shape=(2, 2))
    T = build_T(GOLD, Omega, Z, Z, 2)
    box = (2, 1, 5, 5)
    E = FourierSeries(D, (2, 1), 2,
                      rng.standard_normal(box) + 1j * rng.standard_normal(box))
    Fz, Fzb, info = solve_hz(T, E, 2)
    assert info.residual <= 1e-12
    for k in T.region:
        div = Omega + float(np.dot(k, GOLD))
        expect = -1j * E.coeff(k)[:, 0] / div
        assert np.allclose(Fz.coeff(k)[:, 0], expect, atol=1e-12)
    # conjugate solution is the coefficientwise conjugate-reflect
    assert np.array_equal(Fzb.data, Fz.conj_function().data)


def test_solve_hz_series_level_residual():
    rng = np.random.default_rng(34)
    n, N = 2, 4
    B = random_B(rng, n)
    Omega = np.array([1.1, 2.3])
    Z = FourierSeries.zero(D, shape=(n, n))
    T = build_T(GOLD, Omega, B, Z, N)
    box = (n, 1, 2 * N + 1, 2 * N + 1)
    E = FourierSeries(D, (n, 1), N,
                      rng.standard_normal(box) + 1j * rng.standard_normal(box))
    Fz, Fzb, info = solve_hz(T, E, N)
    assert residual_lattice(T, Fz, E) <= 1e-12
    # independent reconstruction of the equation as series algebra:
    # d_omega F + i Gamma_N[(Omega + symbol) F] - Gamma_N E = 0
    mult = FourierSeries.constant(D, np.diag(Omega)).pad(T.symbol.cutoff) \
        + T.symbol
    lhs = dir_derivative(Fz, GOLD) \
        + 1j * truncate(product(mult, Fz), N).pad(N) - truncate(E, N)
    assert strip_norm(lhs, 0.0) / strip_norm(E, 0.0) <= 1e-12
    # the conjugate pair solves the sign-flipped equation with conj(E)
    lhsb = dir_derivative(Fzb, GOLD) \
        - 1j * truncate(product(mult, Fzb), N).pad(N) \
        - truncate(E.conj_function(), N)
    assert strip_norm(lhsb, 0.0) / strip_norm(E, 0.0) <= 1e-12


def test_solve_hz_near_singular():
    Z = FourierSeries.zero(D)
    T = build_T(GOLD, np.array([0.0]), Z, Z, 1)   # zero diagonal entry at k=0
    E = FourierSeries.from_coeffs(D, {(0, 0): 1.0}, cutoff=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NearSingularError):
            solve_hz(T, E, 1)


def test_solve_hzz_diagonal_oracle():
    rng = np.random.default_rng(35)
    Omega = np.array([1.05, 1.62])
    Z = FourierSeries.zero(D, shape=(2, 2))
    bT = build_boldT(build_T(GOLD, Omega, Z, Z, 2))
    box = (2, 2, 5, 5)
    S = FourierSeries(D, (2, 2), 2,
                      rng.standard_normal(box) + 1j * rng.standard_normal(box))
    S = 0.5 * (S + S.transpose())
    Fzz, Fzbzb, info = solve_hzz(bT, S, 2)
    assert Fzz.shape == (2, 2) and info.residual <= 1e-12
    for k in bT.region:
        kw = float(np.dot(k, GOLD))
        for i in range(2):
            for j in range(2):
                div = Omega[i] + Omega[j] + kw
                expect = -1j * S.coeff(k)[i, j] / div
                assert Fzz.coeff(k)[i, j] == pytest.approx(expect, abs=1e-12)
    assert np.array_equal(Fzz.data, Fzz.transpose().data)
    assert np.array_equal(Fzbzb.data, Fzz.conj_function().data)


def test_solve_hzz_symmetric_symbol_residual():
    rng = np.random.default_rng(36)
    n, N = 2, 3
    B = random_B(rng, n)
    Omega = np.array([1.2, 2.1])
    Z = FourierSeries.zero(D, shape=(n, n))
    bT = build_boldT(build_T(GOLD, Omega, B, Z, N))
    box = (n, n, 2 * N + 1, 2 * N + 1)
    S = FourierSeries(D, (n, n), N,
                      rng.standard_normal(box) + 1j * rng.standard_normal(box))
    S = 0.5 * (S + S.transpose())
    Fzz, info = solve_lattice(bT, S, N)
    # a symmetric S and symbol give a solution symmetric to rounding, at a
    # machine-level residual; solve_hzz symmetrises it within that rounding
    assert (Fzz - Fzz.transpose()).max_abs_coeff() <= 1e-13
    assert residual_lattice(bT, Fzz, S) <= 1e-11
    sym = solve_hzz(bT, S, N)[0]
    assert (sym - Fzz).max_abs_coeff() <= 1e-13


# ----------------------------------------------------------------------
# matrix-free route: dense LU as the oracle
# ----------------------------------------------------------------------

def contraction_q(T):
    """q = sum_k max(row, column sum) |symbol(k)| / min|D|, computed here
    independently of the solver's gate."""
    a = np.abs(T.symbol.data)
    snorm = np.maximum(a.sum(axis=1).max(axis=0),
                       a.sum(axis=0).max(axis=0)).sum()
    return snorm / np.abs(T.diag_values()).min()


def random_column(rng, rows, N, d=D):
    box = (rows, 1) + (2 * N + 1,) * d
    return FourierSeries(d, (rows, 1), N,
                         rng.standard_normal(box) + 1j * rng.standard_normal(box))


def random_hermitian_symbol(rng, n, scale, cutoff=1):
    """symbol(-k) = symbol(k)^H, so T is Hermitian; unlike `random_B` the
    matrices are not symmetric, which keeps the matvec's orientation
    observable."""
    box = (n, n) + (2 * cutoff + 1,) * D
    A = FourierSeries(D, (n, n), cutoff,
                      rng.standard_normal(box) + 1j * rng.standard_normal(box))
    return scale * 0.5 * (A + A.conj_function().transpose())


def lattice_vec(T, F):
    """vec(F_hat(k)) over T's sites, read mode by mode with `coeff`."""
    return np.concatenate([F.coeff(k).ravel() for k in T.region])


def lu_reference(T, rhs):
    """scipy's dense LU solve of T u = -i rhs (rhs at the region's cutoff),
    the oracle of both routes of `solve_lattice`."""
    lu_piv = sla.lu_factor(T.to_dense(), check_finite=False)
    return sla.lu_solve(lu_piv, -1j * lattice_vec(T, rhs), check_finite=False)


def block_cond(T):
    """The exact cond_1 of T's component blocks, with the cap lifted."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homological, "COND_CAP", np.inf)
        return _block_inverse([B for _, _, B in _component_blocks(T)])[1]


def assert_dense_solve(T, u, rhs):
    """u (a lattice vector) within 1e-12 of the LU oracle, with the
    residual |T u + i rhs| / |rhs| <= 1e-14 from the dense form."""
    ref = lu_reference(T, rhs)
    assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)
    b = -1j * lattice_vec(T, rhs)
    assert np.linalg.norm(T.to_dense() @ u - b) <= 1e-14 * np.linalg.norm(b)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("bold, matrix_rhs", [(False, False), (True, True),
                                              (True, False)],
                         ids=OPERATOR_IDS + ["build_boldT_column"])
@pytest.mark.parametrize("sigma", [0.0, 0.37])
def test_neumann_route_matches_dense_oracle(n, bold, matrix_rhs, sigma):
    # the right side of T is a column; that of bold T an n x n matrix or
    # its row-major vec as a column, and the solution takes its shape
    rng = np.random.default_rng(60 + 10 * n + int(100 * sigma))
    N = 3
    omega = 0.1 * GOLD       # |<k, omega>| <= 0.79 < Omega on the box
    Omega = 1.0 + rng.uniform(0.0, 0.5, n)
    T = make_operator(omega, Omega, random_hermitian_symbol(rng, n, 0.005),
                      FourierSeries.zero(D, shape=(n, n)), N,
                      bold).with_sigma(sigma)
    assert 0.05 < contraction_q(T) < 1.0
    rhs = random_column(rng, T.nblock, N)
    if matrix_rhs:
        rhs = FourierSeries(D, (n, n), N, rhs.data.reshape(
            (n, n) + rhs.data.shape[2:]))
    u, info = solve_lattice(T, rhs, N)
    assert u.shape == rhs.shape and u.cutoff == N
    assert info.route == "neumann" and info.iterations > 1
    assert T._dense is None
    assert info.residual <= 1e-14
    dense = T.to_dense()
    assert np.abs(dense - dense.conj().T).max() <= 1e-15   # Hermitian
    ref = lu_reference(T, rhs)
    assert np.linalg.norm(lattice_vec(T, u) - ref) \
        <= 1e-12 * np.linalg.norm(ref)
    _, _, gecon = lu_gecon(T, np.inf)
    assert info.condition >= gecon
    assert info.condition >= np.linalg.cond(dense, 1)


@pytest.mark.parametrize("coupling, route", [(0.01, "neumann"),
                                              (0.5, "dense")])
def test_both_routes_solve_below_the_region_cutoff(coupling, route):
    # a solve cutoff N = 2 below the 3-box's: either route solves
    # T u = -i rhs_N on the whole box and returns u truncated to N
    N = 2
    B = FourierSeries.from_coeffs(D, {(1, 0): coupling, (-1, 0): coupling})
    T = build_T(0.1 * GOLD, np.array([1.3]), B, FourierSeries.zero(D), 3)
    rhs = random_column(np.random.default_rng(75), 1, 3)
    Fz, info = solve_lattice(T, rhs, N)
    assert info.route == route and Fz.cutoff == N
    ref = lu_reference(T, truncate(rhs, N).pad(3))
    ref[np.abs(T.site_array).max(axis=1) > N] = 0.0
    assert np.linalg.norm(lattice_vec(T, Fz) - ref) \
        <= 1e-12 * np.linalg.norm(ref)


def test_dense_fallback_selection(monkeypatch):
    rng = np.random.default_rng(70)
    Z = FourierSeries.zero(D)
    # an exactly vanishing divisor: no gate, and the dense route refuses it
    T = build_T(GOLD, np.array([0.0]), Z, Z, 1)
    assert _neumann_bound(T) is None
    with pytest.raises(NearSingularError) as exc:
        solve_lattice(T, FourierSeries.from_coeffs(D, {ZD: 1.0}, cutoff=1), 1)
    assert exc.value.cond == np.inf

    small = build_T(0.1 * GOLD, np.array([1.3]),
                    random_B(rng, 1, scale=0.01), Z, 2)
    assert contraction_q(small) < 1.0
    moved = shifted(small, (3, -2))      # q < 1, but not the centred box
    assert contraction_q(moved) < 1.0
    strong = build_T(GOLD, np.array([1.17]), random_B(rng, 1, scale=0.3), Z, 3)
    assert contraction_q(strong) >= 1.0
    # q just above 1: the Jacobi iteration is not proven to converge
    edge = build_T(0.1 * GOLD, np.array([1.3]),
                   (1.05 / contraction_q(small)) * small.symbol, Z, 2)
    assert 1.0 <= contraction_q(edge) < 1.1
    assert solve_lattice(small, random_column(rng, 1, 2), 2)[1].route \
        == "neumann"
    bound, _ = _neumann_bound(small)
    cond = block_cond(small)
    assert cond < bound                       # a cap between the two
    cases = [(moved, 1e12), (strong, 1e12), (edge, 1e12),
             (small, 0.5 * (cond + bound))]
    for T, cap in cases:
        Nr = max(max(abs(c) for c in k) for k in T.region)
        rhs = random_column(rng, 1, Nr)
        monkeypatch.setattr(homological, "COND_CAP", cap)
        Fz, info = solve_lattice(T, rhs, Nr)
        assert info.route == "dense" and info.iterations == 0
        assert T._dense is None
        assert_dense_solve(T, lattice_vec(T, Fz), rhs)
        # the exact cond_1, at least the gecon estimate up to rounding
        assert info.condition == block_cond(T)
        assert info.condition >= lu_gecon(T, np.inf)[2] * (1 - 1e-12)


def q99_operator(N=3):
    """A constant symbol at 0.99 min|D|: Jacobi contracts at nearly q = 0.99
    on the site of smallest |D|, so it needs thousands of sweeps."""
    Z = FourierSeries.zero(D)
    omega, Omega = 0.1 * GOLD, np.array([1.3])
    dmin = np.abs(build_T(omega, Omega, Z, Z, N).diag_values()).min()
    return build_T(omega, Omega, FourierSeries.constant(D, [[0.99 * dmin]]),
                   Z, N)


def test_neumann_sweeps_capped_at_q99():
    rng = np.random.default_rng(74)
    T = q99_operator()
    assert contraction_q(T) == pytest.approx(0.99, rel=1e-12)
    _, q = _neumann_bound(T)
    assert q == contraction_q(T)
    cap = _sweep_cap(q)
    assert cap == math.ceil(math.log(2.0 ** -52) / math.log(0.99)) + 16
    rhs = random_column(rng, 1, 3)
    Fz, info = solve_lattice(T, rhs, 3)
    assert info.route == "neumann"
    assert 3000 < info.iterations <= cap
    ref = lu_reference(T, rhs)
    assert np.linalg.norm(lattice_vec(T, Fz) - ref) \
        <= 1e-12 * np.linalg.norm(ref)


def test_neumann_past_sweep_cap_falls_back_to_dense(monkeypatch):
    rng = np.random.default_rng(75)
    T = q99_operator()
    rhs = random_column(rng, 1, 3)
    monkeypatch.setattr(homological, "_sweep_cap", lambda q: 100)
    Fz, info = solve_lattice(T, rhs, 3)
    assert info.route == "dense" and info.iterations == 0
    assert_dense_solve(T, lattice_vec(T, Fz), rhs)


def test_dense_route_on_several_components():
    # 1-d: sites 0 and 1 couple into one block, site 3 is a component of
    # its own; at sigma = 0 the pair block is exactly singular, [[1, 1],
    # [1, 1]] for T and twice that for the bold T with n = 1
    B1 = FourierSeries.from_coeffs(1, {(1,): 1.0, (-1,): 1.0})
    Z1 = FourierSeries.zero(1)
    region = ((0,), (1,), (3,))
    # d = 2: a random symbol on the modes (+-1, 0) and (+-2, 0), which
    # couples sites along the first axis only, on runs of 5, 3 and 1 sites
    rng = np.random.default_rng(76)
    n = 2
    coeffs = {}
    for k in ((1, 0), (2, 0)):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        coeffs[k] = 0.2 * (A + A.T)
        coeffs[(-k[0], 0)] = coeffs[k].conj()
    B2 = FourierSeries.from_coeffs(D, coeffs, shape=(n, n))
    Z2 = FourierSeries.zero(D, shape=(n, n))
    region2 = tuple([(k, 0) for k in range(-2, 3)]
                    + [(k, 2) for k in range(0, 3)] + [(-3, -3)])
    singular = tuple(make_operator(np.array([0.0]), np.array([1.0]), B1,
                                   Z1, 3, bold).restrict(region)
                     for bold in (False, True))
    T2, bold2 = (make_operator(GOLD, np.array([1.1, 1.6]), B2, Z2, 3,
                               bold).restrict(region2)
                 for bold in (False, True))
    cases = [(singular[0].with_sigma(0.5), [(1, 1), (1, 2)], False),
             (T2.with_sigma(0.3), [(1, 1), (1, 3), (1, 5)], False),
             (bold2.with_sigma(0.3), [(1, 1), (1, 3), (1, 5)], True)]
    for T, shapes, bold in cases:
        assert [g.shape for g in T.components()] == shapes
        Nr = max(max(abs(c) for c in k) for k in T.region)
        if bold:
            S = random_column(rng, n * n, Nr, d=T.d).data.reshape(
                (n, n) + (2 * Nr + 1,) * T.d)
            rhs = FourierSeries(T.d, (n, n), Nr, S + np.swapaxes(S, 0, 1))
        else:
            rhs = random_column(rng, T.nblock, Nr, d=T.d)
        F, info = solve_lattice(T, rhs, Nr)
        assert F.shape == rhs.shape
        assert info.route == "dense" and info.iterations == 0
        assert T._dense is None
        assert info.residual <= 1e-14
        assert info.condition == block_cond(T)
        assert_dense_solve(T, lattice_vec(T, F), rhs)
    for T in singular:
        rhs = FourierSeries.from_coeffs(1, {(0,): 1.0}, cutoff=3)
        with pytest.raises(NearSingularError) as exc:
            solve_lattice(T, rhs, 3)
        assert exc.value.cond == np.inf


@pytest.mark.parametrize("region", ["cube", "restricted"])
@pytest.mark.parametrize("bold, matrix_rhs", [(False, False), (True, True),
                                              (True, False)],
                         ids=["T", "boldT", "boldT_column"])
def test_dense_route_matches_lu_oracle(bold, matrix_rhs, region):
    # q >= 1 on the cube, and any restriction, take the dense route; its
    # solution, in the right side's shape, is the LU oracle's, and its
    # exact cond_1 bounds the gecon estimate
    rng = np.random.default_rng(77)
    n, N = 2, 3
    T = make_operator(GOLD, np.array([1.1, 1.6]),
                      random_B(rng, n, scale=0.3),
                      FourierSeries.zero(D, shape=(n, n)), N, bold)
    if region == "restricted":
        keep = rng.choice(T.nsites, T.nsites // 2, replace=False)
        T = T.restrict([T.region[i] for i in keep])
    else:
        assert contraction_q(T) >= 1.0
    rhs = random_column(rng, T.nblock, N)
    if matrix_rhs:
        rhs = FourierSeries(D, (n, n), N, rhs.data.reshape(
            (n, n) + rhs.data.shape[2:]))
    F, info = solve_lattice(T, rhs, N)
    assert F.shape == rhs.shape and F.cutoff == N
    assert info.route == "dense" and T._dense is None
    _, lu_piv, gecon = lu_gecon(T, np.inf)
    ref = sla.lu_solve(lu_piv, -1j * lattice_vec(T, rhs), check_finite=False)
    assert np.linalg.norm(lattice_vec(T, F) - ref) \
        <= 1e-12 * np.linalg.norm(ref)
    assert info.condition >= gecon * (1 - 1e-12)
    # the solution vanishes at every mode outside the region
    outside = [k for k in cube_region(D, N) if k not in set(T.region)]
    assert all(not F.coeff(k).any() for k in outside)


@pytest.mark.parametrize("shape", [(2, 1), (2, 2)], ids=["column", "matrix"])
def test_site_gather_and_scatter_round_trip(shape):
    # a restricted region of the 4-box, with sites beyond the series'
    # cutoff 2: the gather is the per-site `coeff` reading (zero beyond the
    # cutoff), and the scatter puts it back at the region's sites
    rng = np.random.default_rng(78)
    Z = FourierSeries.zero(D, shape=(2, 2))
    T = make_operator(GOLD, np.array([1.1, 1.6]), Z, Z, 4, shape[1] == 2)
    keep = rng.choice(T.nsites, 30, replace=False)
    T = T.restrict([T.region[i] for i in keep] + [(4, -3), (-1, 2)])
    assert np.abs(T.site_array).max() > 2 >= np.abs(T.site_array).min()
    box = shape + (5, 5)
    F = FourierSeries(D, shape, 2, rng.standard_normal(box)
                      + 1j * rng.standard_normal(box))
    values = _site_values(T, F)
    assert np.array_equal(values, lattice_vec(T, F))
    for N in (2, 4):
        back = _site_series(T, values, shape, N)
        assert back.shape == shape and back.cutoff == N
        for k in cube_region(D, N):
            expect = F.coeff(k) if k in T.region else np.zeros(shape)
            assert np.array_equal(back.coeff(k), expect)
    assert np.array_equal(_site_values(T, _site_series(T, values, shape, 4)),
                          values)


def test_kam_size_solve_builds_no_dense():
    # n = 1 at N = 24 (m = 2401), the lattice size of the last run level
    rng = np.random.default_rng(71)
    Omega = np.array([1.17])
    B = random_B(rng, 1, scale=1e-7)
    P = symmetrize_zzbar(random_real_jet(rng, 1, eps=1e-8))
    sol = solve_homological(GOLD, Omega, B, P, 24)
    info = sol.solve_info
    assert info["T"].size == 2401
    for op, key in (("T", "hz"), ("boldT", "hzz")):
        assert info[key].route == "neumann"
        assert info[key].residual <= 1e-14
        assert info[op]._dense is None


def test_neumann_d3_box_without_dense():
    # m = 9261: one dense complex copy would take 1.4 GB, and `to_dense`
    # adds (m, m, 3) int64 temporaries.  q is checked before the solve, so a
    # symbol that leaves the gate fails here instead of allocating that.
    d, N = 3, 10
    rng = np.random.default_rng(72)
    omega = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0)])
    box = (1, 1) + (5,) * d
    B = FourierSeries(d, (1, 1), 2,
                      rng.standard_normal(box) + 1j * rng.standard_normal(box))
    B = 1e-7 * (0.5 * (B + B.conj_function()))
    T = build_T(omega, np.array([1.17]), B, FourierSeries.zero(d), N)
    assert T.size == 9261
    assert contraction_q(T) < 1.0
    E = random_column(rng, 1, N, d=d)
    Fz, info = solve_lattice(T, E, N)
    assert info.route == "neumann"
    assert info.residual <= 1e-10
    assert T._dense is None
    # the equation as series algebra: d_omega F + i(Omega + B) F = E on the box
    mult = FourierSeries.constant(d, [[1.17]]).pad(B.cutoff) + B
    lhs = dir_derivative(Fz, omega) \
        + 1j * truncate(product(mult, Fz), N) - E
    assert strip_norm(lhs, 0.0) / strip_norm(E, 0.0) <= 1e-10


# ----------------------------------------------------------------------
# right-hand sides: explicit-formula oracles
# ----------------------------------------------------------------------

def rhs(pick, P, **parts):
    """pick(R^low) + pick({P^high, F}) for the generator F of `parts`: the
    right side `solve_homological` forms, E with pick = component_z from
    F^x, R (component_y) and S (matrix_zz) from F^x, F^z and F^zbar."""
    sp = split_low_high(P)
    F = jet_from_parts(P.d, P.n, max_degree=P.max_degree, **parts)
    return pick(sp.low) + pick(poisson_bracket(sp.high, F))


def test_assemble_rhs_E_matches_explicit_formula():
    rng = np.random.default_rng(37)
    n = 2
    P = random_real_jet(rng, n, eps=1.0)
    Fx = FourierSeries(D, (1, 1), 2,
                       rng.standard_normal((1, 1, 5, 5))
                       + 1j * rng.standard_normal((1, 1, 5, 5)))
    got = rhs(component_z, P, Fx=Fx)
    # explicit: E_j = R^z_j - sum_i coeff(y_i z_j) dF^x/dx_i
    low = split_low_high(P).low
    Rz = component_z(low)
    zn = (0,) * n
    for j in range(n):
        ej = tuple(1 if t == j else 0 for t in range(n))
        acc = Rz.entry(j, 0).pad(got.cutoff)
        for i in range(D):
            ei = tuple(1 if t == i else 0 for t in range(D))
            cyz = P.term((ei, ej, zn))
            term = product(cyz, partial_x(Fx, i))
            acc = acc - truncate(term, got.cutoff).pad(got.cutoff)
        diff = got.entry(j, 0) - acc
        assert diff.max_abs_coeff() <= 1e-12


def test_assemble_rhs_R_matches_explicit_formula():
    rng = np.random.default_rng(38)
    n = 2
    P = random_real_jet(rng, n, eps=1.0)
    box = (1, 1, 5, 5)

    def rnd():
        return FourierSeries(D, (1, 1), 2, rng.standard_normal(box)
                             + 1j * rng.standard_normal(box))

    Fx = rnd()
    Fzp = [rnd() for _ in range(n)]
    Fz = FourierSeries(D, (n, 1), 2,
                       np.stack([f.data[0, 0] for f in Fzp])[:, None])
    Fzb = Fz.conj_function()
    got = rhs(component_y, P, Fx=Fx, Fz=Fz, Fzbar=Fzb)
    low = split_low_high(P).low
    zn = (0,) * n
    Ry = component_y(low)
    Nc = got.cutoff
    for i in range(D):
        ei = tuple(1 if t == i else 0 for t in range(D))
        acc = Ry.entry(i, 0).pad(Nc)
        for j in range(n):
            ej = tuple(1 if t == j else 0 for t in range(n))
            cyz = P.term((ei, ej, zn))
            cyzb = P.term((ei, zn, ej))
            acc = acc + 1j * truncate(product(cyz, Fzb.entry(j, 0)), Nc).pad(Nc)
            acc = acc - 1j * truncate(product(cyzb, Fz.entry(j, 0)), Nc).pad(Nc)
        for l in range(D):
            al = tuple((1 if t == i else 0) + (1 if t == l else 0)
                       for t in range(D))
            cyy = P.term((al, zn, zn))
            mult = 2.0 if l == i else 1.0
            acc = acc - mult * truncate(product(cyy, partial_x(Fx, l)),
                                        Nc).pad(Nc)
        diff = got.entry(i, 0) - acc
        assert diff.max_abs_coeff() <= 1e-12


def test_assemble_rhs_S_targeted_yzz_term():
    # P^high = c(x) y_1 z_1 z_2, F = F^x only:
    # S must be the zz matrix of -c dF^x/dx_1 z_1 z_2
    rng = np.random.default_rng(39)
    n = 2
    c = FourierSeries.cosine(D, (1, 1), amplitude=0.7)
    sig = ((1, 0), (1, 1), (0, 0))
    P = HamiltonianJet(D, n, {sig: c}, max_degree=4)
    Fx = sine(D, (1, 0), amplitude=0.3)
    Z = FourierSeries.zero(D, shape=(n, 1))
    S = rhs(matrix_zz, P, Fx=Fx, Fz=Z, Fzbar=Z)
    expect = -1.0 * product(c, partial_x(Fx, 0))
    assert (S.entry(0, 1) - expect).max_abs_coeff() <= 1e-13
    assert (S.entry(1, 0) - expect).max_abs_coeff() <= 1e-13
    assert S.entry(0, 0).max_abs_coeff() <= 1e-15


def test_assemble_rhs_S_targeted_zzz_term():
    # P^high = c(x) z_1^2 z_2, F = <F^zbar, zbar>:
    # {P, F} zz part = i c (2 z_1 z_2 Fb_1 + z_1^2 Fb_2)
    n = 2
    c = FourierSeries.cosine(D, (1, 0), amplitude=0.5)
    sig = ((0, 0), (2, 1), (0, 0))
    P = HamiltonianJet(D, n, {sig: c}, max_degree=4)
    f1 = FourierSeries.cosine(D, (0, 1), amplitude=0.2)
    f2 = sine(D, (1, 1), amplitude=0.4)
    Fzb = FourierSeries(D, (n, 1), 1,
                        np.stack([f1.data[0, 0], f2.data[0, 0]])[:, None])
    Z = FourierSeries.zero(D, shape=(n, 1))
    S = rhs(matrix_zz, P, Fx=FourierSeries.zero(D), Fz=Z, Fzbar=Fzb)
    # matrix_zz convention: M_12 = coeff(z1 z2), M_11 = 2 coeff(z1^2)
    m12 = 2j * product(c, f1)
    m11 = 2j * product(c, f2)
    assert (S.entry(0, 1) - m12).max_abs_coeff() <= 1e-13
    assert (S.entry(0, 0) - m11).max_abs_coeff() <= 1e-13
    assert S.entry(1, 1).max_abs_coeff() <= 1e-15


# ----------------------------------------------------------------------
# full pipeline
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_full_pipeline_residuals(n):
    rng = np.random.default_rng(40 + n)
    B, Omega, P, N = make_instance(rng, n)
    sol = solve_homological(GOLD, Omega, B, P, N)
    info = sol.solve_info
    assert residual_hx(sol.Fx, info["Rx"], GOLD, N) <= 1e-10
    assert residual_lattice(info["T"], sol.Fz, info["E"]) <= 1e-10
    assert residual_hx(sol.Fy, info["Rscript"], GOLD, N) <= 1e-10
    assert residual_lattice(info["boldT"], sol.Fzz, info["S"]) <= 1e-10
    assert info["hz"].residual <= 1e-10
    assert info["hzz"].residual <= 1e-10
    # F^zz symmetric, and the zbar parts the conjugates of the z parts
    assert np.array_equal(sol.Fzz.data, sol.Fzz.transpose().data)
    assert np.array_equal(sol.Fzbar.data, sol.Fz.conj_function().data)
    assert np.array_equal(sol.Fzbzb.data, sol.Fzz.conj_function().data)


@pytest.mark.parametrize("n", [1, 2])
def test_full_pipeline_brackets_once_for_R_and_S(monkeypatch, n):
    # E needs {P^high, F^x}; R and S both need {P^high, F^x + F^z + F^zbar}
    rng = np.random.default_rng(45 + n)
    B, Omega, P, N = make_instance(rng, n)
    calls = []
    bracket = homological.poisson_bracket
    monkeypatch.setattr(homological, "poisson_bracket",
                        lambda F, G: calls.append(1) or bracket(F, G))
    sol = solve_homological(GOLD, Omega, B, P, N)
    assert len(calls) == 2
    info = sol.solve_info
    for key, pick in (("Rscript", component_y), ("S", matrix_zz)):
        ref = rhs(pick, P, Fx=sol.Fx, Fz=sol.Fz, Fzbar=sol.Fzbar)
        assert info[key].cutoff == ref.cutoff
        assert np.array_equal(info[key].data, ref.data)


def test_full_pipeline_generator_reality():
    rng = np.random.default_rng(43)
    B, Omega, P, N = make_instance(rng, 2)
    sol = solve_homological(GOLD, Omega, B, P, N)
    F = sol.generator_jet(D, 2)
    ok, worst = check_reality(F, tol=1e-10)
    assert ok, worst


def test_full_pipeline_freq_shift_matches_mean():
    rng = np.random.default_rng(44)
    B, Omega, P, N = make_instance(rng, 1)
    sol = solve_homological(GOLD, Omega, B, P, N)
    mean = sol.solve_info["Rscript"].coeff(ZD)[:, 0]
    assert np.allclose(sol.freq_shift, mean.real, atol=1e-14)
    # the shift of a real right side is real
    assert np.abs(mean.imag).max() <= 1e-12


def test_pipeline_zero_perturbation_is_fixed_point():
    B = FourierSeries.zero(D, shape=(1, 1)).pad(1)
    P = HamiltonianJet.zero(D, 1)
    sol = solve_homological(GOLD, np.array([1.05]), B, P, 4)
    for f in (sol.Fx, sol.Fy, sol.Fz, sol.Fzz):
        assert f.max_abs_coeff() == 0.0
    assert np.allclose(sol.freq_shift, 0.0)
