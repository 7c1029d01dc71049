import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from toruskam.fourier import (FourierSeries, dir_derivative, partial_x,
                              product, strip_norm, truncate)
from toruskam.homological import (HomologicalSolution, NearSingularError,
                                  SmallDivisorError, _factor, _lattice_solve,
                                  _neumann_bound, assemble_rhs,
                                  bold_divisor_floor, bold_symbol, build_T,
                                  build_boldT, cube_region, residual_hx,
                                  residual_lattice, solve_homological,
                                  solve_hx, solve_hy, solve_hz, solve_hzz)
from toruskam.jets import (HamiltonianJet, check_reality, component_x,
                           component_z, conjugate_jet, matrix_zz,
                           matrix_zzbar, split_low_high, weighted_degree)

D = 2
ZD = (0, 0)
GOLD = np.array([1.0, (1.0 + math.sqrt(5.0)) / 2.0])


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
    shifted = T.translate(p)
    ref = T.with_sigma(float(np.dot(p, GOLD)))
    assert np.allclose(shifted.to_dense(), ref.to_dense(), atol=1e-12)


@pytest.mark.parametrize("d,N", [(1, 4), (2, 3), (3, 2)])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("builder", [build_T, build_boldT])
def test_with_sigma_carries_dense_form(d, N, n, builder):
    # a complex, non-Hermitian symbol with a nonzero centre block
    rng = np.random.default_rng(40 + 10 * d + n)
    box = (n, n) + (3,) * d
    B = FourierSeries(d, (n, n), 1, 0.1 * (rng.standard_normal(box)
                                           + 1j * rng.standard_normal(box)))
    omega = GOLD[0] + np.arange(d) * (GOLD[1] - 1.0)
    Omega = 1.1 + 0.3 * np.arange(n)
    Z = FourierSeries.zero(d, shape=(n, n))
    T = builder(omega, Omega, B, Z, N, sigma=0.1)
    before = T.to_dense().copy()
    moved = T
    for s in (0.37, -1.2, 0.0):
        moved = moved.with_sigma(s)
        assert moved._dense is not None
        fresh = builder(omega, Omega, B, Z, N, sigma=s).to_dense()
        assert np.array_equal(moved.to_dense(), fresh)
    assert np.array_equal(T.to_dense(), before)


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
    bT = build_boldT(GOLD, np.array([1.5]), Z, Z, 1)
    dense = bT.to_dense()
    p = bT.region.index((0, 0))
    assert dense[p, p] == pytest.approx(3.0)   # 2 * Omega_1


def test_bold_divisor_floor_positive():
    # |<k, omega>| < min(Omega_i + Omega_j): plus-sign pairs never vanish
    floor = bold_divisor_floor(0.1 * GOLD, np.array([1.0, 2.0]), 5)
    assert floor > 0.5


# ----------------------------------------------------------------------
# coefficientwise solves
# ----------------------------------------------------------------------

def test_solve_hx_cosine():
    Rx = FourierSeries.cosine(D, (1, 0))
    Fx = solve_hx(Rx, GOLD, 2)
    ref = FourierSeries.sine(D, (1, 0))
    assert np.allclose(Fx.pad(1).data, ref.data, atol=1e-14)


def test_solve_hx_residual_random():
    rng = np.random.default_rng(32)
    box = (1, 1, 7, 7)
    Rx = FourierSeries(D, (1, 1), 3,
                       rng.standard_normal(box) + 1j * rng.standard_normal(box))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        Fx = solve_hx(Rx, GOLD, 3)
    assert residual_hx(Fx, Rx, GOLD, 3) <= 1e-12


def test_solve_hx_mean_warning():
    Rx = FourierSeries.constant(D, 1.0)
    with pytest.warns(UserWarning):
        solve_hx(Rx, GOLD, 1)


def test_solve_hx_small_divisor():
    # omega = (2, 3): k = (3, -2) kills the divisor exactly
    Rx = FourierSeries.from_coeffs(D, {(3, -2): 1.0})
    with pytest.raises(SmallDivisorError) as exc:
        solve_hx(Rx, (2.0, 3.0), 3, divisor_floor=1e-8)
    assert exc.value.k == (3, -2)


def test_solve_hx_divisor_floor_callable():
    Rx = FourierSeries.from_coeffs(D, {(2, -1): 1.0})
    # <k, omega> = 2 - phi ~ 0.382; a steep floor excludes it
    with pytest.raises(SmallDivisorError):
        solve_hx(Rx, GOLD, 2, divisor_floor=lambda k: 1.0)


def test_solve_hy_constant_is_pure_shift():
    c = np.array([[0.5], [0.25]])
    R = FourierSeries.constant(D, c)
    Fy, shift = solve_hy(R, GOLD, 2)
    assert Fy.max_abs_coeff() == 0.0
    assert np.allclose(shift, c[:, 0])


def test_solve_hy_cosine():
    R = FourierSeries.from_coeffs(
        D, {(1, 0): np.array([[0.5], [0.0]]),
            (-1, 0): np.array([[0.5], [0.0]])}, shape=(2, 1))
    Fy, shift = solve_hy(R, GOLD, 2)
    assert np.allclose(shift, 0.0)
    ref = FourierSeries.sine(D, (1, 0))
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
    Fz, Fzb, info = solve_hz(T, E)
    assert info.residual <= 1e-12
    for k in T.region:
        div = Omega + float(np.dot(k, GOLD))
        expect = -1j * E.coeff(k)[:, 0] / div
        assert np.allclose(Fz.coeff(k)[:, 0], expect, atol=1e-12)
    # conjugate solution is the coefficientwise conjugate-reflect
    assert np.allclose(Fzb.data, Fz.conj_function().data)


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
    bT = build_boldT(GOLD, Omega, Z, Z, 2)
    box = (2, 2, 5, 5)
    S = FourierSeries(D, (2, 2), 2,
                      rng.standard_normal(box) + 1j * rng.standard_normal(box))
    S = 0.5 * (S + S.transpose())
    Fzz, Fzbzb, info = solve_hzz(bT, S)
    assert info.residual <= 1e-12
    for k in bT.region:
        kw = float(np.dot(k, GOLD))
        for i in range(2):
            for j in range(2):
                div = Omega[i] + Omega[j] + kw
                expect = -1j * S.coeff(k)[i, j] / div
                assert Fzz.coeff(k)[i, j] == pytest.approx(expect, abs=1e-12)
    assert np.allclose(Fzbzb.data, Fzz.conj_function().data)


def test_solve_hzz_symmetric_symbol_residual():
    rng = np.random.default_rng(36)
    n, N = 2, 3
    B = random_B(rng, n)
    Omega = np.array([1.2, 2.1])
    Z = FourierSeries.zero(D, shape=(n, n))
    bT = build_boldT(GOLD, Omega, B, Z, N)
    box = (n, n, 2 * N + 1, 2 * N + 1)
    S = FourierSeries(D, (n, n), N,
                      rng.standard_normal(box) + 1j * rng.standard_normal(box))
    S = 0.5 * (S + S.transpose())
    Fzz, _, info = solve_hzz(bT, S, N)
    # symmetric symbol: symmetrization is exact, residual stays machine-level
    assert (Fzz - Fzz.transpose()).max_abs_coeff() <= 1e-13
    assert residual_lattice(bT, Fzz, S) <= 1e-11


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
    return np.concatenate([F.coeff(k)[:, 0] for k in T.region])


def lu_reference(T, rhs):
    """The dense LU solve of T u = -i rhs (rhs at the region's cutoff), as
    `_lattice_solve` did it before the matrix-free route."""
    lu_piv = sla.lu_factor(T.to_dense(), check_finite=False)
    return sla.lu_solve(lu_piv, -1j * lattice_vec(T, rhs), check_finite=False)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("build", [build_T, build_boldT])
@pytest.mark.parametrize("sigma", [0.0, 0.37])
def test_neumann_route_matches_dense_oracle(n, build, sigma):
    rng = np.random.default_rng(60 + 10 * n + int(100 * sigma))
    N = 3
    omega = 0.1 * GOLD       # |<k, omega>| <= 0.79 < Omega on the box
    Omega = 1.0 + rng.uniform(0.0, 0.5, n)
    T = build(omega, Omega, random_hermitian_symbol(rng, n, 0.005),
              FourierSeries.zero(D, shape=(n, n)), N, sigma=sigma)
    assert 0.05 < contraction_q(T) < 1.0
    rhs = random_column(rng, T.nblock, N)
    u, info = _lattice_solve(T, rhs, N, 1e12)
    assert info.route == "neumann" and info.iterations > 1
    assert T._dense is None
    assert info.residual <= 1e-14
    dense = T.to_dense()
    assert np.abs(dense - dense.conj().T).max() <= 1e-15   # Hermitian
    ref = lu_reference(T, rhs)
    assert np.linalg.norm(lattice_vec(T, u) - ref) \
        <= 1e-12 * np.linalg.norm(ref)
    _, _, gecon = _factor(T, np.inf)
    assert info.condition >= gecon
    assert info.condition >= np.linalg.cond(dense, 1)


def test_dense_fallback_selection():
    rng = np.random.default_rng(70)
    Z = FourierSeries.zero(D)
    # an exactly vanishing divisor: no gate, and dense LU still refuses it
    T = build_T(GOLD, np.array([0.0]), Z, Z, 1)
    assert _neumann_bound(T) is None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NearSingularError):
            solve_hz(T, FourierSeries.from_coeffs(D, {ZD: 1.0}, cutoff=1), 1)

    small = build_T(0.1 * GOLD, np.array([1.3]),
                    random_B(rng, 1, scale=0.01), Z, 2)
    assert contraction_q(small) < 1.0
    shifted = small.translate((3, -2))       # q < 1, but not the centred box
    assert contraction_q(shifted) < 1.0
    strong = build_T(GOLD, np.array([1.17]), random_B(rng, 1, scale=0.3), Z, 3)
    assert contraction_q(strong) >= 1.0
    # q just above 1: the Jacobi iteration is not proven to converge
    edge = build_T(0.1 * GOLD, np.array([1.3]),
                   (1.05 / contraction_q(small)) * small.symbol, Z, 2)
    assert 1.0 <= contraction_q(edge) < 1.1
    assert solve_hz(small, random_column(rng, 1, 2))[2].route == "neumann"
    bound = _neumann_bound(small)
    gecon = _factor(small, np.inf)[2]
    assert gecon < bound                      # a cap between the two
    cases = [(shifted, 1e12), (strong, 1e12), (edge, 1e12),
             (small, 0.5 * (gecon + bound))]
    for T, cap in cases:
        Nr = max(max(abs(c) for c in k) for k in T.region)
        rhs = random_column(rng, 1, Nr)
        Fz, _, info = solve_hz(T, rhs, cond_cap=cap)
        assert info.route == "dense" and info.iterations == 0
        assert np.array_equal(lattice_vec(T, Fz), lu_reference(T, rhs))
        assert info.condition == _factor(T, np.inf)[2]


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
    Fz, _, info = solve_hz(T, E, N)
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

def test_assemble_rhs_E_matches_explicit_formula():
    rng = np.random.default_rng(37)
    n = 2
    P = random_real_jet(rng, n, eps=1.0)
    Fx = FourierSeries(D, (1, 1), 2,
                       rng.standard_normal((1, 1, 5, 5))
                       + 1j * rng.standard_normal((1, 1, 5, 5)))
    sol = HomologicalSolution(Fx=Fx)
    got = assemble_rhs("E", P, sol)
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
    sol = HomologicalSolution(Fx=Fx, Fz=Fz, Fzbar=Fzb)
    got = assemble_rhs("R", P, sol)
    low = split_low_high(P).low
    zn = (0,) * n
    from toruskam.jets import component_y
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
    Fx = FourierSeries.sine(D, (1, 0), amplitude=0.3)
    Z = FourierSeries.zero(D, shape=(n, 1))
    sol = HomologicalSolution(Fx=Fx, Fz=Z, Fzbar=Z)
    S = assemble_rhs("S", P, sol)
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
    f2 = FourierSeries.sine(D, (1, 1), amplitude=0.4)
    Fzb = FourierSeries(D, (n, 1), 1,
                        np.stack([f1.data[0, 0], f2.data[0, 0]])[:, None])
    Z = FourierSeries.zero(D, shape=(n, 1))
    sol = HomologicalSolution(Fx=FourierSeries.zero(D), Fz=Z, Fzbar=Fzb)
    S = assemble_rhs("S", P, sol)
    # matrix_zz convention: M_12 = coeff(z1 z2), M_11 = 2 coeff(z1^2)
    m12 = 2j * product(c, f1)
    m11 = 2j * product(c, f2)
    assert (S.entry(0, 1) - m12).max_abs_coeff() <= 1e-13
    assert (S.entry(0, 0) - m11).max_abs_coeff() <= 1e-13
    assert S.entry(1, 1).max_abs_coeff() <= 1e-15


def test_assemble_rhs_missing_prerequisites():
    P = HamiltonianJet.zero(D, 1)
    with pytest.raises(ValueError):
        assemble_rhs("E", P, HomologicalSolution())
    with pytest.raises(ValueError):
        assemble_rhs("S", P, HomologicalSolution(Fx=FourierSeries.zero(D)))
    with pytest.raises(ValueError):
        assemble_rhs("bogus", P,
                     HomologicalSolution(Fx=FourierSeries.zero(D)))


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
