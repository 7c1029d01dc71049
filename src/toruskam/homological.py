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
the box.  Otherwise it inverts T block by block on its connected
components (`_block_inverse`, the package's one LU kernel, which `greens`
and the sigma-scan probes share) and gates on the exact cond_1.

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
# route's proven bound in `_lattice_solve`
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
    d: int
    nblock: int
    region: tuple                 # sorted tuple of k-tuples
    omega: np.ndarray
    diag_block: np.ndarray        # length nblock: Omega part of the diagonal
    symbol: FourierSeries         # nblock x nblock matrix series
    sigma: float = 0.0
    bold: bool = False
    symbol_truncation_gap: float = 0.0   # norm dropped by pre-truncation
    # `to_dense`'s cache; `replace` starts every copy without it
    _dense: np.ndarray | None = field(default=None, init=False, repr=False)

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


def _lattice_operator(omega, Omega, B: FourierSeries, Rzz: FourierSeries,
                      N: int, bold: bool) -> LatticeMatrix:
    """Operator with symbol B + R^{z zbar} on [-N, N]^d, at shift 0.

    The symbol is pre-truncated to modes |k|_inf <= N; the strip norm of the
    dropped part is recorded (`symbol_truncation_gap`).  The bold operator
    takes the pair diagonal Omega_i + Omega_j and the lifted symbol.
    """
    omega = np.asarray(omega, dtype=float)
    Omega = np.asarray(Omega, dtype=float)
    full = B + Rzz
    sym = truncate(full, N)
    gap = strip_norm(full - sym.pad(full.cutoff), 0.0)
    if bold:
        Omega = (Omega[:, None] + Omega[None, :]).ravel()
        sym = bold_symbol(sym)
    return LatticeMatrix(d=len(omega), nblock=len(Omega),
                         region=cube_region(len(omega), N), omega=omega,
                         diag_block=Omega, symbol=sym, bold=bold,
                         symbol_truncation_gap=gap)


def build_T(omega, Omega, B: FourierSeries, Rzz: FourierSeries,
            N: int) -> LatticeMatrix:
    """Scalar operator on [-N, N]^d with diag Omega_j + <k, omega> and
    symbol B + R^{z zbar}, pre-truncated to |k|_inf <= N.  `restrict` and
    `with_sigma` give it another site set or shift."""
    return _lattice_operator(omega, Omega, B, Rzz, N, bold=False)


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


def build_boldT(omega, Omega, B: FourierSeries, Rzz: FourierSeries,
                N: int) -> LatticeMatrix:
    """Pair-index operator on [-N, N]^d with diag
    Omega_i + Omega_j + <k, omega>."""
    return _lattice_operator(omega, Omega, B, Rzz, N, bold=True)


# ----------------------------------------------------------------------
# coefficientwise solves (homo 1 / homo 3)
# ----------------------------------------------------------------------

def _divide_by_divisor(R: FourierSeries, omega, N: int,
                       divisor_floor) -> FourierSeries:
    """F_hat(k) = R_hat(k) / (i <k, omega>) for 0 < |k|_inf <= N.  The floor
    (a number, or a callable mapping an (m, d) array of modes to their m
    floors) is checked at every mode with a nonzero coefficient; the first
    failure in lexicographic order raises SmallDivisorError."""
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


def solve_hx(Rx: FourierSeries, omega, N: int,
             divisor_floor=0.0) -> FourierSeries:
    """d_omega F^x = Gamma_N R^x; the mean of R^x is dropped (an energy
    shift only; `solve_homological` records its modulus), F^x has zero
    mean."""
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


def _as_column(F: FourierSeries) -> FourierSeries:
    """Row-major vec of a matrix series as an (rows*cols, 1) series:
    component (i, j) of an n x n series lands at block index i*n + j."""
    rows = F.shape[0] * F.shape[1]
    return FourierSeries(F.d, (rows, 1), F.cutoff,
                         F.data.reshape((rows, 1) + F.data.shape[2:]))


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


def _lattice_solve(T: LatticeMatrix, rhs: FourierSeries, N: int | None):
    """Solve T u = -i rhs_N; returns (u as an (nblock, 1) series at cutoff
    N, info).  With q = ||S|| / min|D| < 1, T = D (I + D^{-1} S) is
    invertible, Jacobi converges at rate q and cond_1(T) is at most
    (max|D| + ||S||) / (min|D| (1 - q)).  That route is taken on the full
    centred box when the bound is within `COND_CAP` and the iteration
    settles within its sweep cap.  Otherwise T is inverted on its
    components (`_block_inverse`), gated on the exact cond_1 within
    `COND_CAP`, and u = G_b b_b block by block.  Either route solves on
    T's whole region and then truncates or pads u to cutoff N."""
    Nr = int(np.abs(T.site_array).max())
    if N is None:
        N = Nr
    gate = _neumann_bound(T) if T.region == cube_region(T.d, Nr) else None
    if gate is not None and gate[0] <= COND_CAP:
        bound, q = gate
        b = -1j * _at_cutoff(_at_cutoff(rhs, N), Nr).data
        solved = _neumann_solve(T, b, Nr, q)
        if solved is not None:
            u, res, sweeps = solved
            sol = _at_cutoff(FourierSeries(T.d, b.shape[:2], Nr, u), N)
            return sol, LatticeSolveInfo(residual=res, condition=bound,
                                         route="neumann", iterations=sweeps)
    parts = _component_blocks(T)
    inverses, cond = _block_inverse([B for _, _, B in parts])
    b = -1j * _series_to_vec(T, _at_cutoff(rhs, N))
    sol, Tsol = np.empty_like(b), np.empty_like(b)
    # T's entries between components are structural zeros, so the block
    # products make up T sol
    for (_, rows, B), G in zip(parts, inverses):
        sol[rows] = (G @ b[rows][..., None])[..., 0]
        Tsol[rows] = (B @ sol[rows][..., None])[..., 0]
    scale = np.linalg.norm(b)
    res = np.linalg.norm(Tsol - b) / scale if scale > 0 else 0.0
    return _at_cutoff(_vec_to_series(T, sol, Nr), N), LatticeSolveInfo(
        residual=float(res), condition=cond, route="dense", iterations=0)


def solve_hz(T: LatticeMatrix, Ehat: FourierSeries, N: int | None = None):
    """Solve T_N F = -i E_N; returns (F^z, F^zbar, info).

    F^zbar is conj(F^z) (the conjugate equation has right side conj(E)).
    """
    Fz, info = _lattice_solve(T, Ehat, N)
    return Fz, Fz.conj_function(), info


def solve_hzz(boldT: LatticeMatrix, Shat: FourierSeries,
              N: int | None = None):
    """Solve bold T_N vec(F^zz) = -i vec(S_N); returns (F^zz, F^zbzb, info).

    The solution is symmetrized (F^zz is symmetric for symmetric S) and
    F^zbzb = conj(F^zz).
    """
    n = int(round(np.sqrt(boldT.nblock)))
    Fvec, info = _lattice_solve(boldT, _as_column(Shat), N)
    Fzz = FourierSeries(boldT.d, (n, n), Fvec.cutoff,
                        Fvec.data.reshape((n, n) + Fvec.data.shape[2:]))
    Fzz = 0.5 * (Fzz + Fzz.transpose())
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
    boldT = build_boldT(omega, Omega, B, Rzzbar, N)
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
    """|T F + i rhs| / |rhs| in the lattice vector norm."""
    N = int(np.abs(T.site_array).max())
    if T.bold:
        F, rhs = _as_column(F), _as_column(rhs)
    Fv = _series_to_vec(T, _at_cutoff(F, N))
    rv = _series_to_vec(T, _at_cutoff(rhs, N))
    num = np.linalg.norm(T.to_dense() @ Fv + 1j * rv)
    den = np.linalg.norm(rv)
    return float(num / den) if den > 0 else float(num)

