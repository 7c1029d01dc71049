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

The four equations, one function per job:
  homo 1  d_omega F^x = Gamma_N R^x                  solve_hx
  homo 2  T_N F^z = -i E_N                           solve_hz
  homo 3  d_omega F^y = Gamma_N Rs - Rs_hat(0)       solve_hy (solve_hx)
  homo 4  bold T_N vec(F^zz) = -i vec(S_N)           solve_hzz
with T from `build_T` and bold T its pair lift (`build_boldT`).  solve_hz
and solve_hzz add F^zbar = conj(F^z) and F^zbzb = conj(F^zz), by the
conjugation symmetry of the system, to the one lattice solve,
`solve_lattice`, which returns F in its right side's shape and has two
routes.  On the full centred box, with q = ||S|| / min|D| < 1 (||S|| bounded
by the symbol's mode sum), T is invertible and is solved matrix-free by the
Jacobi iteration u <- u + D^{-1}(b - T u), whose matvec is the series
product truncated to the box.  Otherwise it inverts T block by block on its
connected components (`_block_inverse`, the package's one LU kernel, which
`greens` and the sigma-scan probes share) and gates on the exact cond_1; the
right side and the solution move between series and T's site order by one
gather (`_site_values`) and one scatter (`_site_series`).

Neither route builds the dense form.  The components and their blocks are
gathered from the symbol scattered once over the box of site differences
(`LatticeMatrix._gather`); `to_dense` is the same gather over all site
pairs, kept as the oracle.  When the symbol and the diagonal are exactly
real the blocks are float64, and the LU, the norms and the site magnitudes
run in real arithmetic on the same code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .fourier import (FourierSeries, _l1_grid, dir_derivative, mode_grid,
                      product, strip_norm, truncate)
from .jets import (HamiltonianJet, component_x, component_y, component_z,
                   jet_from_parts, matrix_zz, matrix_zzbar, poisson_bracket,
                   split_low_high)

# the one condition gate on lattice operators: a cond_1 beyond it counts
# as singular (NearSingularError), for `_block_inverse` and for the Neumann
# route's proven bound in `solve_lattice`
COND_CAP = 1e12


class SmallDivisorError(Exception):
    """A divisor <k, omega> fell below the exclusion floor."""

    def __init__(self, k, value, floor):
        self.k, self.value, self.floor = tuple(k), float(value), float(floor)
        super().__init__(f"small divisor at k={self.k}: "
                         f"|{self.value:.3e}| < floor {self.floor:.3e}")


class NearSingularError(Exception):
    """A lattice operator's condition number exceeded the configured cap."""

    def __init__(self, cond):
        self.cond = float(cond)
        super().__init__(f"condition number {self.cond:.3e} beyond cap")


# index bytes of one row chunk of `LatticeMatrix.components`
_GATHER_BYTES = 2 ** 20


@lru_cache(maxsize=64)
def cube_region(d: int, N: int) -> tuple:
    """[-N, N]^d as a sorted tuple of k-tuples, cached (the tuple is
    immutable and shared)."""
    return tuple(map(tuple, mode_grid(d, N).reshape(-1, d)))


@dataclass
class LatticeMatrix:
    region: tuple                 # sorted tuple of k-tuples
    omega: np.ndarray             # length d
    diag_block: np.ndarray        # length nblock: Omega part of the diagonal
    symbol: FourierSeries         # nblock x nblock matrix series
    sigma: float = 0.0
    symbol_truncation_gap: float = 0.0   # norm dropped by pre-truncation
    # `to_dense`'s cache; `replace` starts every copy without it
    _dense: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        self.region = tuple(sorted(tuple(k) for k in self.region))
        if self.symbol.shape != (self.nblock, self.nblock):
            raise ValueError("symbol shape inconsistent with block size")

    @property
    def d(self) -> int:
        return len(self.omega)

    @property
    def nblock(self) -> int:
        return len(self.diag_block)

    @property
    def nsites(self) -> int:
        return len(self.region)

    @property
    def size(self) -> int:
        return self.nblock * self.nsites

    @cached_property
    def site_array(self) -> np.ndarray:
        """The region as an (nsites, d) int array, built once per operator
        and read-only (`restrict` and `with_sigma` make new operators)."""
        ks = np.array(self.region, dtype=int)
        ks.flags.writeable = False
        return ks

    def diag_values(self, sigma: float | None = None) -> np.ndarray:
        """D(j,k) per (site, block), shape (nsites, nblock), at the shift
        `sigma` (default: the operator's own)."""
        ks = self.site_array
        kw = ks @ self.omega + (self.sigma if sigma is None else sigma)
        return kw[:, None] + self.diag_block[None, :]

    @cached_property
    def is_real(self) -> bool:
        """Whether every symbol coefficient and the diagonal are exactly
        real: the dense form and the component blocks are then float64, and
        everything computed from them runs in real arithmetic."""
        return not (np.imag(self.symbol.data).any()
                    or np.imag(self.diag_block).any())

    @cached_property
    def _differences(self) -> tuple:
        """(P, X, off), built once per operator: the symbol scattered over
        the box of site differences of the region, zero outside its cutoff,
        as an (nboxes, nblock, nblock) array P, and each site's flat index X
        in that box, so that symbol(k_x - k_y) = P[X[x] - X[y] + off].  The
        box spans k_x - k_y in [-span, span] per axis, so reversing P's
        flat order maps each difference to its negative."""
        ks = self.site_array
        lo = ks.min(axis=0)
        span = ks.max(axis=0) - lo
        width = 2 * span + 1
        strides = np.append(np.cumprod(width[:0:-1])[::-1], 1)
        nb, cut = self.nblock, self.symbol.cutoff
        keep = np.minimum(span, cut)
        data = self.symbol.data.real if self.is_real else self.symbol.data
        P = np.zeros(tuple(width) + (nb, nb), dtype=data.dtype)
        P[tuple(slice(s - c, s + c + 1) for s, c in zip(span, keep))] = \
            np.moveaxis(data[(slice(None), slice(None)) + tuple(
                slice(cut - c, cut + c + 1) for c in keep)], (0, 1), (-2, -1))
        return P.reshape(-1, nb, nb), (ks - lo) @ strides, int(span @ strides)

    def _gather(self, sites: np.ndarray) -> tuple:
        """(rows, blocks) of the dense form restricted to each row of the
        (c, s) site indices `sites`: the (c, s nblock) dense-form rows and
        the (c, s nblock, s nblock) blocks, the diagonal at the operator's
        own shift."""
        P, X, off = self._differences
        nb = self.nblock
        x = X[sites]
        blocks = P[(x + off)[:, :, None] - x[:, None, :]]  # (c, s, s, nb, nb)
        c, s = sites.shape
        blocks = blocks.swapaxes(2, 3).reshape(c, s * nb, s * nb)
        rows = (sites[:, :, None] * nb + np.arange(nb)).reshape(c, s * nb)
        i = np.arange(s * nb)
        blocks[:, i, i] = self.dense_diagonal()[rows]
        return rows, blocks

    def to_dense(self) -> np.ndarray:
        """Dense matrix, row index = site*nblock + block: the gather of
        `_gather` over all site pairs, float64 when `is_real`."""
        if self._dense is None:
            self._dense = self._gather(np.arange(self.nsites)[None])[1][0]
        return self._dense

    def dense_diagonal(self, sigma: float | None = None) -> np.ndarray:
        """Diagonal of the dense form at the shift `sigma` (default: the
        operator's own): the symbol's centre block plus D."""
        centre = self.symbol.data[(slice(None), slice(None))
                                  + (self.symbol.cutoff,) * self.d]
        if self.is_real:
            centre = centre.real
        return (np.diagonal(centre)[None, :]
                + self.diag_values(sigma)).ravel()

    def components(self) -> list:
        """Site indices of the connected components of the off-diagonal
        pattern, two sites coupled when any block entry between them is
        nonzero; one (count, size) array per component size, sizes
        ascending, sites ascending within a component and components in
        order of their smallest site.  sigma moves only the diagonal, so
        the components hold for every sigma.  The symmetrised pattern is
        read per site difference and gathered in row chunks of
        `_GATHER_BYTES` of indices; the edge list keeps int32 site indices,
        half the bytes of `np.nonzero`'s."""
        P, X, off = self._differences
        coupled = (P != 0).any(axis=(1, 2))
        coupled = coupled | coupled[::-1]
        coupled[off] = True
        m = self.nsites
        step = max(1, _GATHER_BYTES // (8 * m))
        rows, cols = [], []
        for start in range(0, m, step):
            r, c = np.nonzero(coupled[(X[start:start + step, None] + off)
                                      - X[None, :]])
            rows.append((r + start).astype(np.int32))
            cols.append(c.astype(np.int32))
        # the chunks are freed here, before the labelling's temporaries
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        return _label_components(m, rows, cols)

    def restrict(self, sites) -> "LatticeMatrix":
        """The same operator on the site set `sites` (any iterable of
        k-tuples): the symbol, diagonal and shift are kept, so the blocks
        between sites are unchanged and a shifted set S + p moves the
        diagonal by <p, omega>."""
        return replace(self, region=sites)

    def with_sigma(self, sigma: float) -> "LatticeMatrix":
        """The same operator with shift sigma."""
        return replace(self, sigma=float(sigma))


def _label_components(m: int, rows: np.ndarray, cols: np.ndarray) -> list:
    """Connected components of the graph on m sites whose edges are
    (rows, cols): the nonzero positions, in row-major order, of a symmetric
    pattern that holds its diagonal.  Grouped as in
    `LatticeMatrix.components`."""
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    # min-label propagation: each site takes the smallest label among
    # its neighbours, then follows labels to their fixed points (pointer
    # jumping); at the fixed point every site carries the smallest site
    # of its component
    labels = np.arange(m, dtype=cols.dtype)
    while True:
        new = np.minimum.reduceat(labels[cols], starts)
        jumped = new[new]
        while not np.array_equal(jumped, new):
            new, jumped = jumped, jumped[jumped]
        if np.array_equal(new, labels):
            break
        labels = new
    roots = labels == np.arange(m)
    labels = (np.cumsum(roots) - 1)[labels]
    sizes = np.bincount(labels)
    groups = []
    for size in np.flatnonzero(np.bincount(sizes)):
        sites = np.flatnonzero(sizes[labels] == size)
        order = np.argsort(labels[sites], kind="stable")
        groups.append(sites[order].reshape(-1, size))
    return groups


def _component_blocks(T: LatticeMatrix) -> list:
    """(sites, rows, blocks) per component size of T: the (c, s) site
    indices of its c components of s sites, their (c, s nblock) dense-form
    rows and the (c, s nblock, s nblock) diagonal blocks of the dense form,
    gathered from the symbol without the dense form."""
    return [(sites, *T._gather(sites)) for sites in T.components()]


def _block_inverse(blocks: list):
    """(inverses, cond_1) of a block-diagonal operator given by its
    diagonal blocks, one (c, k, k) stack per block size.

    Each stack takes one batched LU with partial pivoting against the
    identity (`np.linalg.inv`).  The gate is the exact
    cond_1 = max_b ||T_b||_1 max_b ||G_b||_1; an exactly singular block
    raises NearSingularError(inf), a cond_1 beyond `COND_CAP` (or NaN)
    NearSingularError(cond_1)."""
    try:
        inverses = [np.linalg.inv(B) for B in blocks]
    except np.linalg.LinAlgError:
        raise NearSingularError(np.inf) from None
    anorm = max(float(np.abs(B).sum(axis=-2).max()) for B in blocks)
    gnorm = max(float(np.abs(G).sum(axis=-2).max()) for G in inverses)
    cond = anorm * gnorm
    if not cond <= COND_CAP:
        raise NearSingularError(cond)
    return inverses, cond


def build_T(omega, Omega, B: FourierSeries, Rzz: FourierSeries,
            N: int) -> LatticeMatrix:
    """T on [-N, N]^d at shift 0, with the diagonal Omega_j + <k, omega>.

    The symbol is B + R^{z zbar}, pre-truncated to modes |k|_inf <= N; the
    strip norm of the dropped part is recorded (`symbol_truncation_gap`).
    `restrict` and `with_sigma` give it another site set or shift.
    """
    full = B + Rzz
    sym = truncate(full, N)
    return LatticeMatrix(region=cube_region(len(omega), N), omega=omega,
                         diag_block=np.asarray(Omega, dtype=float),
                         symbol=sym, symbol_truncation_gap=strip_norm(
                             full - sym.pad(full.cutoff), 0.0))


def build_boldT(T: LatticeMatrix) -> LatticeMatrix:
    """The pair-index bold T of T, on T's sites and shift: the diagonal
    Omega_i + Omega_j + <k, omega> and the symbol lifted by `bold_symbol`."""
    Omega = T.diag_block
    return replace(T, diag_block=(Omega[:, None] + Omega[None, :]).ravel(),
                   symbol=bold_symbol(T.symbol))


def bold_symbol(A: FourierSeries) -> FourierSeries:
    """Lift the n x n symbol A to the n^2 x n^2 pair-index symbol.

    Row-major pairs: ((i,j),(i',j)) -> A_{ii'}, ((i,j),(i,j')) -> A_{j'j},
    diagonal pairs get A_{ii} + A_{jj}, all other entries zero.
    """
    n = A.shape[0]
    out = np.zeros((n, n, n, n) + A.data.shape[2:], dtype=complex)
    for j in range(n):
        out[:, j, :, j] += A.data
    for i in range(n):
        out[i, :, i, :] += A.data.swapaxes(0, 1)
    return FourierSeries(A.d, (n * n, n * n), A.cutoff,
                         out.reshape((n * n, n * n) + A.data.shape[2:]))


# ----------------------------------------------------------------------
# coefficientwise solves (homo 1 / homo 3)
# ----------------------------------------------------------------------

def solve_hx(R: FourierSeries, omega, N: int,
             divisor_floor) -> FourierSeries:
    """d_omega F = Gamma_N R - R_hat(0): F_hat(k) = R_hat(k) / (i <k, omega>)
    for 0 < |k|_inf <= N, and F has zero mean.  For R^x the dropped mean is
    an energy shift only (`solve_homological` records its modulus).  The
    floor (a number, or a callable mapping an (m, d) array of modes to
    their m floors) is checked at every mode with a nonzero coefficient;
    the first failure in lexicographic order raises SmallDivisorError."""
    omega = np.asarray(omega, dtype=float)
    R = truncate(R, N)
    modes = mode_grid(R.d, R.cutoff).reshape(-1, R.d)
    coef = R.data.reshape(R.shape + (-1,))
    live = np.flatnonzero((np.abs(coef).max(axis=(0, 1)) > 0)
                          & np.any(modes != 0, axis=1))
    # a stack of 1 x d rows runs np.dot's kernel once per mode, so every
    # divisor is bit-identical to np.dot(k, omega); a single (m, d) @ (d,)
    # product goes through gemv and can differ in the last place
    div = np.matmul(modes[live, None, :], omega)[:, 0]
    if callable(divisor_floor):
        floor = np.asarray(divisor_floor(modes[live]), dtype=float)
    else:
        floor = np.full(live.size, float(divisor_floor))
    bad = np.flatnonzero((div == 0.0) | (np.abs(div) < floor))
    if bad.size:
        i = bad[0]
        raise SmallDivisorError(modes[live[i]].tolist(), div[i], floor[i])
    out = np.zeros_like(coef)
    out[..., live] += coef[..., live] / (1j * div)
    return FourierSeries(R.d, R.shape, R.cutoff, out.reshape(R.data.shape))


def solve_hy(Rscript: FourierSeries, omega, N: int, divisor_floor):
    """d_omega F^y = Gamma_N Rs - Rs_hat(0); returns (F^y, frequency shift).

    The zero mode is the tangent-frequency shift omega_+ - omega; its
    imaginary part (a reality defect) is discarded after measurement.
    """
    shift = Rscript.coeff((0,) * Rscript.d)[:, 0].real.copy()
    return solve_hx(Rscript, omega, N, divisor_floor), shift


# ----------------------------------------------------------------------
# lattice solves (homo 2 / homo 4)
# ----------------------------------------------------------------------

def _site_values(T: LatticeMatrix, F: FourierSeries) -> np.ndarray:
    """vec(F_hat(k)) at T's sites in T's row order (site, then the
    row-major entry of F, fastest), zero at sites beyond F's cutoff: one
    gather through `site_array`."""
    ks, c = T.site_array, F.cutoff
    live = (np.abs(ks) <= c).all(axis=1)
    flat = F.data.reshape((-1,) + F.data.shape[2:])
    out = np.zeros((len(ks), len(flat)), dtype=complex)
    out[live] = flat[(slice(None),) + tuple((ks[live] + c).T)].T
    return out.ravel()


def _site_series(T: LatticeMatrix, values: np.ndarray, shape: tuple,
                 N: int) -> FourierSeries:
    """The series of `shape` at cutoff N whose `_site_values` at T's sites
    within |k|_inf <= N are `values`, zero at every other mode: one
    scatter through `site_array`."""
    ks = T.site_array
    live = (np.abs(ks) <= N).all(axis=1)
    rows = shape[0] * shape[1]
    data = np.zeros((rows,) + (2 * N + 1,) * T.d, dtype=complex)
    # added into the zeros, so that a -0.0 lands as +0.0, bit for bit what
    # `FourierSeries.from_coeffs` makes of it
    data[(slice(None),) + tuple((ks[live] + N).T)] += \
        values.reshape(len(ks), rows)[live].T
    return FourierSeries(T.d, shape, N, data.reshape(shape + data.shape[1:]))


@dataclass
class LatticeSolveInfo:
    """Diagnostics of one lattice solve.

    `route` is "neumann" (matrix-free iteration) or "dense" (component
    block inverse); `iterations` counts the Jacobi sweeps (0 on the dense
    route).
    `condition` is the proven 1-norm bound
    (max|D| + ||S||) / (min|D| (1 - q)) on the Neumann route and the exact
    cond_1 of the component blocks on the dense route.  `residual` is
    |T u - b| / |b|.
    """
    residual: float
    condition: float
    route: str
    iterations: int


def _at_cutoff(F: FourierSeries, N: int) -> FourierSeries:
    """F on exactly the modes |k|_inf <= N (truncated or zero-padded)."""
    return F.pad(N) if F.cutoff < N else truncate(F, N)


def _symbol_norm(T: LatticeMatrix, r: float = 0.0) -> float:
    """s_r = sum_k max(row sum, column sum) of |symbol(k)| e^{r |k|_1}: a
    bound for the 1-, 2- and inf-norms of the Toeplitz part S on any region
    (r = 0), and of e^{r phi} S e^{-r phi} for every weight phi with
    |phi(x) - phi(y)| <= |x - y|_1 (the Combes-Thomas conjugation)."""
    a = np.abs(T.symbol.data)
    per_mode = np.maximum(a.sum(axis=1).max(axis=0), a.sum(axis=0).max(axis=0))
    if r:
        per_mode = per_mode * np.exp(r * _l1_grid(T.d, T.symbol.cutoff))
    return float(per_mode.sum())


def _neumann_bound(T: LatticeMatrix):
    """Gate of the matrix-free route.  With q = ||S|| / min|D| < 1 this
    returns the 1-norm condition bound (max|D| + ||S||) / (min|D| (1 - q))
    and q, else None."""
    absD = np.abs(T.diag_values())
    dmin = float(absD.min())
    if dmin == 0.0:
        return None
    snorm = _symbol_norm(T)
    q = snorm / dmin
    if q >= 1.0:
        return None
    return (float(absD.max()) + snorm) / (dmin * (1.0 - q)), q


# sweeps allowed past the proven count, for the rounding of each sweep
_SWEEP_SLACK = 16


def _sweep_cap(q: float) -> int:
    """Sweep limit of `_neumann_solve` at the proven rate q < 1.  Each sweep
    maps the residual r to -S D^{-1} r, so after j sweeps |r| / |b| <= q^j;
    past ceil(log 2^-52 / log q) sweeps that bound is below the rounding of
    b."""
    if q == 0.0:
        return 1 + _SWEEP_SLACK
    return math.ceil(-52.0 * math.log(2.0) / math.log(q)) + _SWEEP_SLACK


def _neumann_solve(T: LatticeMatrix, b: np.ndarray, N: int, q: float):
    """Jacobi iteration u <- u + D^{-1}(b - T u) on the box layout of a
    (nblock, 1) series at cutoff N, run until the relative residual stops
    decreasing; returns (u, residual, sweeps), or None when it still
    decreases at `_sweep_cap(q)`, which the proven rate q rules out."""
    D = T.diag_values().T.reshape(b.shape)

    def residual_of(u):
        Su = truncate(product(T.symbol, FourierSeries(T.d, b.shape[:2], N, u)),
                      N)
        return b - D * u - Su.data

    scale = np.linalg.norm(b)
    if scale == 0:
        return b, 0.0, 0
    cap = _sweep_cap(q)
    u = b / D
    r = residual_of(u)
    res, sweeps = np.linalg.norm(r) / scale, 1
    while res > 0:
        if sweeps >= cap:
            return None
        u_next = u + r / D
        r_next = residual_of(u_next)
        res_next = np.linalg.norm(r_next) / scale
        if not res_next < res:
            break
        u, r, res, sweeps = u_next, r_next, res_next, sweeps + 1
    return u, float(res), sweeps


def solve_lattice(T: LatticeMatrix, rhs: FourierSeries, N: int):
    """Solve T u = -i vec(rhs_N); returns (F, info), F the solution in
    rhs's shape at cutoff N: u for a column right side, and for the n x n
    right side of a pair operator the n x n series whose row-major vec is
    u.  With q = ||S|| / min|D| < 1, T = D (I + D^{-1} S) is
    invertible, Jacobi converges at rate q and cond_1(T) is at most
    (max|D| + ||S||) / (min|D| (1 - q)).  That route is taken on the full
    centred box when the bound is within `COND_CAP` and the iteration
    settles within its sweep cap.  Otherwise T is inverted on its
    components (`_block_inverse`), gated on the exact cond_1 within
    `COND_CAP`, and u = G_b b_b block by block.  Either route solves on
    T's whole region and then truncates or pads u to cutoff N."""
    Nr = int(np.abs(T.site_array).max())
    gate = _neumann_bound(T) if T.region == cube_region(T.d, Nr) else None
    if gate is not None and gate[0] <= COND_CAP:
        bound, q = gate
        box = _at_cutoff(_at_cutoff(rhs, N), Nr).data
        b = -1j * box.reshape((T.nblock, 1) + box.shape[2:])
        solved = _neumann_solve(T, b, Nr, q)
        if solved is not None:
            u, res, sweeps = solved
            F = FourierSeries(T.d, rhs.shape, Nr, u.reshape(box.shape))
            return _at_cutoff(F, N), LatticeSolveInfo(
                residual=res, condition=bound, route="neumann",
                iterations=sweeps)
    parts = _component_blocks(T)
    inverses, cond = _block_inverse([B for _, _, B in parts])
    b = -1j * _site_values(T, _at_cutoff(rhs, N))
    sol, Tsol = np.empty_like(b), np.empty_like(b)
    # T's entries between components are structural zeros, so the block
    # products make up T sol
    for (_, rows, B), G in zip(parts, inverses):
        sol[rows] = (G @ b[rows][..., None])[..., 0]
        Tsol[rows] = (B @ sol[rows][..., None])[..., 0]
    scale = np.linalg.norm(b)
    res = np.linalg.norm(Tsol - b) / scale if scale > 0 else 0.0
    return _site_series(T, sol, rhs.shape, N), LatticeSolveInfo(
        residual=float(res), condition=cond, route="dense", iterations=0)


def solve_hz(T: LatticeMatrix, E: FourierSeries, N: int):
    """homo 2, T_N F^z = -i E_N; returns (F^z, F^zbar = conj(F^z), info)."""
    Fz, info = solve_lattice(T, E, N)
    return Fz, Fz.conj_function(), info


def solve_hzz(boldT: LatticeMatrix, S: FourierSeries, N: int):
    """homo 4, bold T_N vec(F^zz) = -i vec(S_N); returns (F^zz, F^zbzb =
    conj(F^zz), info); F^zz is symmetrised, as it is for symmetric S."""
    F, info = solve_lattice(boldT, S, N)
    Fzz = 0.5 * (F + F.transpose())
    return Fzz, Fzz.conj_function(), info


# ----------------------------------------------------------------------
# the four equations in dependency order
# ----------------------------------------------------------------------

@dataclass
class HomologicalSolution:
    Fx: FourierSeries
    Fy: FourierSeries
    Fz: FourierSeries
    Fzbar: FourierSeries
    Fzz: FourierSeries
    Fzbzb: FourierSeries
    freq_shift: np.ndarray
    truncation_gap: float
    solve_info: dict

    def generator_jet(self, d: int, n: int, **jet_kw) -> HamiltonianJet:
        """The generator F^x + <F^y, y> + <F^z, z> + <F^zbar, zbar>
        + (1/2)<F^zz z, z> + (1/2)<F^zbzb zbar, zbar> as a jet."""
        return jet_from_parts(d, n, Fx=self.Fx, Fy=self.Fy, Fz=self.Fz,
                              Fzbar=self.Fzbar, Fzz=self.Fzz,
                              Fzbzb=self.Fzbzb, **jet_kw)


def solve_homological(omega, Omega, B: FourierSeries, P: HamiltonianJet,
                      N: int, divisor_floor=0.0) -> HomologicalSolution:
    """Run the four equation classes in dependency order.

    Order: F^x first, then the pair (F^z, F^zbar), then F^y together with the
    frequency shift, then (F^zz, F^zbzb).  Each right side is the matching
    component of R^low plus that of {P^high, F_partial}, where F_partial
    holds the generator parts already solved: F^x for E, and F^x, F^z,
    F^zbar for R and S, which share that one bracket.  Operators,
    right-hand sides and per-solve diagnostics are kept in `solve_info` so
    residuals can be re-verified independently.
    """
    sp = split_low_high(P)
    d, n, deg = P.d, P.n, P.max_degree
    Rx = component_x(sp.low)
    Fx = solve_hx(Rx, omega, N, divisor_floor)

    Rzzbar = matrix_zzbar(sp.low)
    T = build_T(omega, Omega, B, Rzzbar, N)
    br = poisson_bracket(sp.high, jet_from_parts(d, n, Fx=Fx, max_degree=deg))
    E = component_z(sp.low) + component_z(br)
    Fz, Fzbar, info_z = solve_hz(T, E, N)

    # F_partial leaves out F^y, solved between R and S
    br = poisson_bracket(sp.high, jet_from_parts(d, n, Fx=Fx, Fz=Fz,
                                                 Fzbar=Fzbar, max_degree=deg))
    Rscript = component_y(sp.low) + component_y(br)
    Fy, freq_shift = solve_hy(Rscript, omega, N, divisor_floor)

    S = matrix_zz(sp.low) + matrix_zz(br)
    boldT = build_boldT(T)
    Fzz, Fzbzb, info_zz = solve_hzz(boldT, S, N)

    return HomologicalSolution(
        Fx=Fx, Fy=Fy, Fz=Fz, Fzbar=Fzbar, Fzz=Fzz, Fzbzb=Fzbzb,
        freq_shift=freq_shift,
        truncation_gap=T.symbol_truncation_gap + boldT.symbol_truncation_gap,
        solve_info={"hz": info_z, "hzz": info_zz, "T": T, "boldT": boldT,
                    "Rx": Rx, "E": E, "Rscript": Rscript, "S": S,
                    "rx_mean": float(np.abs(Rx.coeff((0,) * d)).max())})


# ----------------------------------------------------------------------
# residual checks (independent reconstruction, the tests' oracle)
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
                     rhs: FourierSeries) -> float:
    """|T vec(F) + i vec(rhs)| / |vec(rhs)| in the lattice vector norm, for
    column series or, with a pair operator, n x n ones."""
    rv = _site_values(T, rhs)
    num = np.linalg.norm(T.to_dense() @ _site_values(T, F) + 1j * rv)
    den = np.linalg.norm(rv)
    return float(num / den) if den > 0 else float(num)

