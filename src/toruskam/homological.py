"""Lattice operators and the homological equations of one iteration step.

The scalar operator acts on vectors indexed by {1..n} x Lambda,
Lambda subset Z^d, as T = D + S with diagonal D(j,k) = Omega_j + <k, omega>
(+ an optional scalar shift sigma) and Toeplitz off-diagonal part
S((j,k),(j',k')) = symbol_{jj'}(k-k').  The "bold" variant doubles the block
index to pairs (i,j), with diagonal Omega_i + Omega_j + <k, omega> and the
symbol acting by row index, column index, or both (zero otherwise).

Vectorization order of the bold index is row-major over (i, j); sites are
enumerated in sorted k order with the block index fastest.  This ordering is
part of the contract so that emitted certificates reproduce bit-for-bit.

Four solvers, two kernels:
  solve_hx    d_omega F^x = Gamma_N R^x                  (_divide_by_divisor)
  solve_hz    T_N F^z = -i E_N                           (_lattice_solve)
  solve_hy    d_omega F^y = Gamma_N Rs - Rs_hat(0)       (_divide_by_divisor)
  solve_hzz   bold T_N vec(F^zz) = -i vec(S_N)           (_lattice_solve)
with F^zbar = conj(F^z) and F^zbzb = conj(F^zz) by the conjugation symmetry
of the system; the bold right side enters as the (n^2, 1) column of
`_as_column`.  `_lattice_solve` has two routes.  On the full centred box,
with q = ||S|| / min|D| < 1 (||S|| bounded by the symbol's mode sum), T is
invertible and is solved matrix-free by the Jacobi iteration
u <- u + D^{-1}(b - T u), whose matvec is the series product truncated to
the box.  Otherwise it factors with `_factor` (dense LU plus a LAPACK
condition estimate, shared with `greens.invert_direct`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla

from .fourier import (FourierSeries, dir_derivative, mode_grid, product,
                      strip_norm, truncate)
from .jets import (HamiltonianJet, component_y, component_z, component_zbar,
                   jet_from_parts, matrix_zbzb, matrix_zz, poisson_bracket,
                   split_low_high)


class SmallDivisorError(Exception):
    """A divisor <k, omega> fell below the exclusion floor."""

    def __init__(self, k, value, floor):
        self.k, self.value, self.floor = tuple(k), float(value), float(floor)
        super().__init__(f"small divisor at k={self.k}: "
                         f"|{self.value:.3e}| < floor {self.floor:.3e}")


class NearSingularError(Exception):
    """A lattice operator's condition estimate exceeded the configured cap."""

    def __init__(self, cond):
        self.cond = float(cond)
        super().__init__(f"condition estimate {self.cond:.3e} beyond cap")


def cube_region(d: int, N: int) -> tuple:
    """[-N, N]^d as a sorted tuple of k-tuples."""
    return tuple(map(tuple, mode_grid(d, N).reshape(-1, d)))


@dataclass
class LatticeMatrix:
    d: int
    nblock: int
    region: tuple                 # sorted tuple of k-tuples
    omega: np.ndarray
    diag_block: np.ndarray        # length nblock: Omega part of the diagonal
    symbol: FourierSeries         # nblock x nblock matrix series
    sigma: float = 0.0
    bold: bool = False
    symbol_truncation_gap: float = 0.0   # norm dropped by pre-truncation
    _dense: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        self.region = tuple(sorted(tuple(k) for k in self.region))
        if self.symbol.shape != (self.nblock, self.nblock):
            raise ValueError("symbol shape inconsistent with block size")

    @property
    def nsites(self) -> int:
        return len(self.region)

    @property
    def size(self) -> int:
        return self.nblock * self.nsites

    def site_array(self) -> np.ndarray:
        return np.array(self.region, dtype=int)

    def diag_values(self) -> np.ndarray:
        """D(j,k) per (site, block), shape (nsites, nblock)."""
        ks = self.site_array()
        kw = ks @ self.omega + self.sigma
        return kw[:, None] + self.diag_block[None, :]

    def to_dense(self) -> np.ndarray:
        """Dense matrix, row index = site*nblock + block."""
        if self._dense is not None:
            return self._dense
        m, nb = self.nsites, self.nblock
        ks = self.site_array()
        diff = ks[:, None, :] - ks[None, :, :]           # (m, m, d)
        cut = self.symbol.cutoff
        inside = np.all(np.abs(diff) <= cut, axis=-1)
        idx = np.clip(diff + cut, 0, 2 * cut)
        gather = self.symbol.data[
            (slice(None), slice(None)) + tuple(idx[..., t] for t in range(self.d))]
        flat = gather * inside[None, None, :, :]
        # (nb, nb, m, m) -> (m, nb, m, nb)
        T = np.transpose(flat, (2, 0, 3, 1)).reshape(m * nb, m * nb).copy()
        T[np.arange(m * nb), np.arange(m * nb)] = self._dense_diagonal()
        self._dense = T
        return T

    def _dense_diagonal(self) -> np.ndarray:
        """Diagonal of the dense form: the symbol's centre block plus D."""
        centre = self.symbol.data[(slice(None), slice(None))
                                  + (self.symbol.cutoff,) * self.d]
        return (np.diagonal(centre)[None, :] + self.diag_values()).ravel()

    def translate(self, p) -> "LatticeMatrix":
        """The same operator restricted to region + p (Toeplitz shift)."""
        p = tuple(int(c) for c in p)
        region = tuple(tuple(k[t] + p[t] for t in range(self.d))
                       for k in self.region)
        return replace(self, region=region, _dense=None)

    def with_sigma(self, sigma: float) -> "LatticeMatrix":
        """The same operator with shift sigma; a cached dense form is
        carried forward with only its diagonal rewritten."""
        out = replace(self, sigma=float(sigma), _dense=None)
        if self._dense is not None:
            dense = self._dense.copy()
            i = np.arange(self.size)
            dense[i, i] = out._dense_diagonal()
            out._dense = dense
        return out


def _lattice_operator(omega, Omega, B: FourierSeries, Rzz: FourierSeries,
                      N: int, sigma: float, region, pretruncate: bool,
                      bold: bool) -> LatticeMatrix:
    """Operator with symbol B + R^{z zbar} on `region` (default [-N, N]^d).

    The symbol is pre-truncated to modes |k|_inf <= N; the strip norm of the
    dropped part is recorded (`symbol_truncation_gap`).  The bold operator
    takes the pair diagonal Omega_i + Omega_j and the lifted symbol.
    """
    omega = np.asarray(omega, dtype=float)
    Omega = np.asarray(Omega, dtype=float)
    full = B + Rzz
    sym = truncate(full, N) if pretruncate else full
    gap = strip_norm(full - sym.pad(full.cutoff), 0.0) if pretruncate else 0.0
    if region is None:
        region = cube_region(len(omega), N)
    if bold:
        Omega = (Omega[:, None] + Omega[None, :]).ravel()
        sym = bold_symbol(sym)
    return LatticeMatrix(d=len(omega), nblock=len(Omega), region=region,
                         omega=omega, diag_block=Omega, symbol=sym,
                         sigma=sigma, bold=bold, symbol_truncation_gap=gap)


def build_T(omega, Omega, B: FourierSeries, Rzz: FourierSeries, N: int,
            sigma: float = 0.0, region=None,
            pretruncate: bool = True) -> LatticeMatrix:
    """Scalar operator with diag Omega_j + <k, omega> and symbol
    B + R^{z zbar}, pre-truncated to |k|_inf <= N."""
    return _lattice_operator(omega, Omega, B, Rzz, N, sigma, region,
                             pretruncate, bold=False)


def bold_symbol(A: FourierSeries) -> FourierSeries:
    """Lift the n x n symbol A to the n^2 x n^2 pair-index symbol.

    Row-major pairs: ((i,j),(i',j)) -> A_{ii'}, ((i,j),(i,j')) -> A_{j'j},
    diagonal pairs get A_{ii} + A_{jj}, all other entries zero.
    """
    n = A.shape[0]
    box = A.data.shape[2:]
    out = np.zeros((n * n, n * n) + box, dtype=complex)
    for i in range(n):
        for j in range(n):
            r = i * n + j
            for i2 in range(n):
                out[r, i2 * n + j] += A.data[i, i2]
            for j2 in range(n):
                out[r, i * n + j2] += A.data[j2, j]
    return FourierSeries(A.d, (n * n, n * n), A.cutoff, out)


def build_boldT(omega, Omega, B: FourierSeries, Rzz: FourierSeries, N: int,
                sigma: float = 0.0, region=None,
                pretruncate: bool = True) -> LatticeMatrix:
    """Pair-index operator with diag Omega_i + Omega_j + <k, omega>."""
    return _lattice_operator(omega, Omega, B, Rzz, N, sigma, region,
                             pretruncate, bold=True)


# ----------------------------------------------------------------------
# coefficientwise solves (homo 1 / homo 3)
# ----------------------------------------------------------------------

def _floor_of(divisor_floor, k) -> float:
    if callable(divisor_floor):
        return float(divisor_floor(k))
    return float(divisor_floor)


def _divide_by_divisor(R: FourierSeries, omega, N: int,
                       divisor_floor) -> FourierSeries:
    omega = np.asarray(omega, dtype=float)
    R = truncate(R, N)
    out = {}
    for k, v in R.coeffs().items():
        if all(c == 0 for c in k):
            continue
        div = float(np.dot(k, omega))
        if div == 0.0 or abs(div) < _floor_of(divisor_floor, k):
            raise SmallDivisorError(k, div, _floor_of(divisor_floor, k))
        out[k] = v / (1j * div)
    return FourierSeries.from_coeffs(R.d, out, shape=R.shape, cutoff=R.cutoff)


def solve_hx(Rx: FourierSeries, omega, N: int,
             divisor_floor=0.0) -> FourierSeries:
    """d_omega F^x = Gamma_N R^x; the mean of R^x is dropped (with a warning
    if nonzero), F^x has zero mean."""
    mean = Rx.coeff(tuple([0] * Rx.d))
    if np.abs(mean).max() > 1e-15:
        warnings.warn("R^x has nonzero mean; dropped (energy shift only)",
                      stacklevel=2)
    return _divide_by_divisor(Rx, omega, N, divisor_floor)


def solve_hy(Rscript: FourierSeries, omega, N: int, divisor_floor=0.0):
    """d_omega F^y = Gamma_N Rs - Rs_hat(0); returns (F^y, frequency shift).

    The zero mode is the tangent-frequency shift omega_+ - omega; its
    imaginary part (a reality defect) is discarded after measurement.
    """
    shift_c = Rscript.coeff(tuple([0] * Rscript.d))[:, 0]
    shift = shift_c.real.copy()
    Fy = _divide_by_divisor(Rscript, omega, N, divisor_floor)
    return Fy, shift


# ----------------------------------------------------------------------
# lattice solves (homo 2 / homo 4)
# ----------------------------------------------------------------------

def _factor(T: LatticeMatrix, cond_cap: float):
    """Dense LU of T with its 1-norm condition estimate (LAPACK gecon);
    returns (dense, lu_piv, cond) or raises NearSingularError past the cap."""
    dense = T.to_dense()
    anorm = np.abs(dense).sum(axis=0).max()
    with warnings.catch_warnings():
        # an exactly zero pivot warns here; gecon then gives rcond = 0 and
        # the cap check below raises NearSingularError(inf)
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu_piv = sla.lu_factor(dense, check_finite=False)
    gecon = sla.get_lapack_funcs(("gecon",), (lu_piv[0],))[0]
    rcond, _ = gecon(lu_piv[0], anorm, norm="1")
    cond = np.inf if rcond == 0 else 1.0 / rcond
    if cond > cond_cap:
        raise NearSingularError(cond)
    return dense, lu_piv, cond


def _series_to_vec(T: LatticeMatrix, F: FourierSeries) -> np.ndarray:
    """Stack hat(F)_block(k) over (site, block), block fastest."""
    return np.concatenate([F.coeff(k)[:, 0] for k in T.region])


def _vec_to_series(T: LatticeMatrix, vec: np.ndarray,
                   cutoff: int) -> FourierSeries:
    blocks = vec.reshape(T.nsites, T.nblock, 1)
    return FourierSeries.from_coeffs(T.d, dict(zip(T.region, blocks)),
                                     shape=(T.nblock, 1), cutoff=cutoff)


@dataclass
class LatticeSolveInfo:
    """Diagnostics of one lattice solve.

    `route` is "neumann" (matrix-free iteration) or "dense" (LU);
    `iterations` counts the Jacobi sweeps (0 on the dense route).
    `condition` is the proven 1-norm bound
    (max|D| + ||S||) / (min|D| (1 - q)) on the Neumann route and the LAPACK
    gecon estimate on the dense route.  `residual` is |T u - b| / |b|.
    """
    residual: float
    condition: float
    route: str
    iterations: int


def _at_cutoff(F: FourierSeries, N: int) -> FourierSeries:
    """F on exactly the modes |k|_inf <= N (truncated or zero-padded)."""
    return F.pad(N) if F.cutoff < N else truncate(F, N)


def _as_column(F: FourierSeries) -> FourierSeries:
    """Row-major vec of a matrix series as an (rows*cols, 1) series:
    component (i, j) of an n x n series lands at block index i*n + j."""
    rows = F.shape[0] * F.shape[1]
    return FourierSeries(F.d, (rows, 1), F.cutoff,
                         F.data.reshape((rows, 1) + F.data.shape[2:]))


def _neumann_bound(T: LatticeMatrix) -> float | None:
    """Gate of the matrix-free route.  ||S|| <= sum_k max(row sum, column
    sum) of |symbol(k)| bounds the 1-, 2- and inf-norms of the Toeplitz part
    on any region; with q = ||S|| / min|D| < 1 this returns the 1-norm
    condition bound (max|D| + ||S||) / (min|D| (1 - q)), else None."""
    absD = np.abs(T.diag_values())
    dmin = float(absD.min())
    if dmin == 0.0:
        return None
    a = np.abs(T.symbol.data)
    snorm = float(np.maximum(a.sum(axis=1).max(axis=0),
                             a.sum(axis=0).max(axis=0)).sum())
    q = snorm / dmin
    if q >= 1.0:
        return None
    return (float(absD.max()) + snorm) / (dmin * (1.0 - q))


def _neumann_solve(T: LatticeMatrix, b: np.ndarray, N: int):
    """Jacobi iteration u <- u + D^{-1}(b - T u) on the box layout of a
    (nblock, 1) series at cutoff N, run until the relative residual stops
    decreasing; returns (u, residual, sweeps)."""
    D = T.diag_values().T.reshape(b.shape)

    def residual_of(u):
        Su = truncate(product(T.symbol, FourierSeries(T.d, b.shape[:2], N, u)),
                      N)
        return b - D * u - Su.data

    scale = np.linalg.norm(b)
    if scale == 0:
        return b, 0.0, 0
    u = b / D
    r = residual_of(u)
    res, sweeps = np.linalg.norm(r) / scale, 1
    while res > 0:
        u_next = u + r / D
        r_next = residual_of(u_next)
        res_next = np.linalg.norm(r_next) / scale
        if not res_next < res:
            break
        u, r, res, sweeps = u_next, r_next, res_next, sweeps + 1
    return u, float(res), sweeps


def _lattice_solve(T: LatticeMatrix, rhs: FourierSeries, N: int | None,
                   cond_cap: float):
    """Solve T u = -i rhs_N; returns (u as an (nblock, 1) series at cutoff
    N, info).  With q = ||S|| / min|D| < 1, T = D (I + D^{-1} S) is
    invertible, Jacobi converges at rate q and cond_1(T) is at most
    (max|D| + ||S||) / (min|D| (1 - q)), which bounds gecon's estimate from
    above.  That route is taken on the full centred box when the bound is
    within `cond_cap`; otherwise dense LU decides, as the oracle."""
    Nr = max(max(abs(c) for c in k) for k in T.region)
    if N is None:
        N = Nr
    bound = _neumann_bound(T) if T.region == cube_region(T.d, Nr) else None
    if bound is not None and bound <= cond_cap:
        b = -1j * _at_cutoff(_at_cutoff(rhs, N), Nr).data
        u, res, sweeps = _neumann_solve(T, b, Nr)
        sol = _at_cutoff(FourierSeries(T.d, b.shape[:2], Nr, u), N)
        return sol, LatticeSolveInfo(residual=res, condition=bound,
                                     route="neumann", iterations=sweeps)
    dense, lu_piv, cond = _factor(T, cond_cap)
    b = -1j * _series_to_vec(T, _at_cutoff(rhs, N))
    sol = sla.lu_solve(lu_piv, b, check_finite=False)
    scale = np.linalg.norm(b)
    res = np.linalg.norm(dense @ sol - b) / scale if scale > 0 else 0.0
    return _vec_to_series(T, sol, N), LatticeSolveInfo(
        residual=float(res), condition=cond, route="dense", iterations=0)


def solve_hz(T: LatticeMatrix, Ehat: FourierSeries, N: int | None = None,
             cond_cap: float = 1e12):
    """Solve T_N F = -i E_N; returns (F^z, F^zbar, info).

    F^zbar is conj(F^z) (the conjugate equation has right side conj(E)).
    """
    Fz, info = _lattice_solve(T, Ehat, N, cond_cap)
    return Fz, Fz.conj_function(), info


def solve_hzz(boldT: LatticeMatrix, Shat: FourierSeries,
              N: int | None = None, cond_cap: float = 1e12):
    """Solve bold T_N vec(F^zz) = -i vec(S_N); returns (F^zz, F^zbzb, info).

    The solution is symmetrized (F^zz is symmetric for symmetric S) and
    F^zbzb = conj(F^zz).
    """
    n = int(round(np.sqrt(boldT.nblock)))
    Fvec, info = _lattice_solve(boldT, _as_column(Shat), N, cond_cap)
    Fzz = FourierSeries(boldT.d, (n, n), Fvec.cutoff,
                        Fvec.data.reshape((n, n) + Fvec.data.shape[2:]))
    Fzz = 0.5 * (Fzz + Fzz.transpose())
    return Fzz, Fzz.conj_function(), info


# ----------------------------------------------------------------------
# right-hand-side assembly
# ----------------------------------------------------------------------

@dataclass
class HomologicalSolution:
    Fx: FourierSeries | None = None
    Fy: FourierSeries | None = None
    Fz: FourierSeries | None = None
    Fzbar: FourierSeries | None = None
    Fzz: FourierSeries | None = None
    Fzbzb: FourierSeries | None = None
    freq_shift: np.ndarray | None = None
    truncation_gap: float = 0.0
    solve_info: dict = field(default_factory=dict)

    def generator_jet(self, d: int, n: int, stages=("x", "z", "y", "zz"),
                      **jet_kw) -> HamiltonianJet:
        kw = {}
        if "x" in stages and self.Fx is not None:
            kw["Fx"] = self.Fx
        if "y" in stages and self.Fy is not None:
            kw["Fy"] = self.Fy
        if "z" in stages and self.Fz is not None:
            kw["Fz"], kw["Fzbar"] = self.Fz, self.Fzbar
        if "zz" in stages and self.Fzz is not None:
            kw["Fzz"], kw["Fzbzb"] = self.Fzz, self.Fzbzb
        return jet_from_parts(d, n, **kw, **jet_kw)


def assemble_rhs(stage: str, P: HamiltonianJet,
                 partialF: HomologicalSolution) -> FourierSeries:
    """Right-hand sides of the four equation classes.

    stage in {"E", "Ebar", "R", "S", "Sbar"}.  Each right side is the matching
    component of R^low plus the low-order part of {P^high, F_partial}, where
    F_partial contains only the already-solved generator components
    (F^x for E; F^x, F^z, F^zbar for R, S, Sbar).
    """
    sp = split_low_high(P)
    low, high = sp.low, sp.high
    d, n = P.d, P.n
    if stage in ("E", "Ebar"):
        if partialF.Fx is None:
            raise ValueError("stage E needs F^x")
        Fpart = partialF.generator_jet(d, n, stages=("x",),
                                       max_degree=P.max_degree)
    elif stage in ("R", "S", "Sbar"):
        missing = [nm for nm, v in (("F^x", partialF.Fx), ("F^z", partialF.Fz),
                                    ("F^zbar", partialF.Fzbar)) if v is None]
        if missing:
            raise ValueError(f"stage {stage} needs {', '.join(missing)}")
        Fpart = partialF.generator_jet(d, n, stages=("x", "z"),
                                       max_degree=P.max_degree)
    else:
        raise ValueError(f"unknown stage {stage!r}")
    br = poisson_bracket(high, Fpart)
    if stage == "E":
        return component_z(low) + component_z(br)
    if stage == "Ebar":
        return component_zbar(low) + component_zbar(br)
    if stage == "R":
        return component_y(low) + component_y(br)
    if stage == "S":
        return matrix_zz(low) + matrix_zz(br)
    return matrix_zbzb(low) + matrix_zbzb(br)


def solve_homological(omega, Omega, B: FourierSeries, P: HamiltonianJet,
                      N: int, divisor_floor=0.0,
                      cond_cap: float = 1e12) -> HomologicalSolution:
    """Run the four equation classes in dependency order.

    Order: F^x first, then the pair (F^z, F^zbar), then F^y together with the
    frequency shift, then (F^zz, F^zbzb).  Operators, right-hand sides and
    per-solve diagnostics are kept in `solve_info` so residuals can be
    re-verified independently.
    """
    from .jets import component_x, matrix_zzbar
    sp = split_low_high(P)
    sol = HomologicalSolution()
    Rx = component_x(sp.low)
    sol.Fx = solve_hx(Rx, omega, N, divisor_floor)

    Rzzbar = matrix_zzbar(sp.low)
    T = build_T(omega, Omega, B, Rzzbar, N)
    E = assemble_rhs("E", P, sol)
    sol.Fz, sol.Fzbar, info_z = solve_hz(T, E, N, cond_cap)

    Rscript = assemble_rhs("R", P, sol)
    sol.Fy, sol.freq_shift = solve_hy(Rscript, omega, N, divisor_floor)

    S = assemble_rhs("S", P, sol)
    boldT = build_boldT(omega, Omega, B, Rzzbar, N)
    sol.Fzz, sol.Fzbzb, info_zz = solve_hzz(boldT, S, N, cond_cap)

    sol.truncation_gap = T.symbol_truncation_gap + boldT.symbol_truncation_gap
    sol.solve_info = {"hz": info_z, "hzz": info_zz, "T": T, "boldT": boldT,
                      "Rx": Rx, "E": E, "Rscript": Rscript, "S": S}
    return sol


# ----------------------------------------------------------------------
# residual checks (independent reconstruction, used by tests and reports)
# ----------------------------------------------------------------------

def residual_hx(Fx: FourierSeries, Rx: FourierSeries, omega, N: int) -> float:
    """|d_omega F^x - (Gamma_N R^x - mean)| relative to |Gamma_N R^x|."""
    R = truncate(Rx, N)
    mean = FourierSeries.constant(R.d, R.coeff((0,) * R.d))
    target = R - mean.pad(R.cutoff)
    lhs = dir_derivative(Fx, omega)
    Nc = max(lhs.cutoff, target.cutoff)
    num = strip_norm(lhs.pad(Nc) - target.pad(Nc), 0.0)
    den = strip_norm(target, 0.0)
    return num / den if den > 0 else num


def residual_lattice(T: LatticeMatrix, F: FourierSeries,
                     rhs: FourierSeries, factor: complex = -1j) -> float:
    """|T F - factor * rhs| / |rhs| in the lattice vector norm."""
    N = max(max(abs(c) for c in k) for k in T.region)
    if T.bold:
        F, rhs = _as_column(F), _as_column(rhs)
    Fv = _series_to_vec(T, _at_cutoff(F, N))
    rv = _series_to_vec(T, _at_cutoff(rhs, N))
    num = np.linalg.norm(T.to_dense() @ Fv - factor * rv)
    den = np.linalg.norm(rv)
    return float(num / den) if den > 0 else float(num)


def bold_divisor_floor(omega, Omega, N: int) -> float:
    """min over j-pairs and |k|_inf <= N of |Omega_i + Omega_j + <k, omega>|.

    In the regime |<k, omega>| < min(Omega_i + Omega_j) this is positive:
    the plus-sign pair condition needs no exclusion.
    """
    omega = np.asarray(omega, dtype=float)
    Omega = np.asarray(Omega, dtype=float)
    ks = mode_grid(len(omega), N).reshape(-1, len(omega))
    kw = ks @ omega
    pair = (Omega[:, None] + Omega[None, :]).ravel()
    return float(np.abs(kw[:, None] + pair[None, :]).min())
