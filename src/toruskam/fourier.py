"""Arithmetic of truncated Fourier series on the d-torus.

A series is a table of complex coefficients f_hat(k), k in Z^d with
|k|_inf <= cutoff, optionally matrix-valued.  The analyticity-strip norm
sum_k |f_hat(k)| e^{s|k|} is the computable upper bound used everywhere in
place of sup-norms on complex strips; it is submultiplicative, which is what
every estimate downstream relies on.

Conventions: the cutoff box and all cube geometry use |k|_inf; the
exponential weights e^{s|k|} and lattice distances in decay statements use
|k|_1 (the triangle inequality makes the weighted norm a Banach algebra).

Coefficients are stored densely over the cutoff box (index k maps to
k + cutoff per axis); the sparse map interface is `coeffs`/`from_coeffs`.
All operations return new objects; instances are treated as immutable.  A
series copies the array it is built from, except where an operation hands
over an array it has just allocated (`_adopt`).

Every FFT convolution in the package, `product` here and the jet brackets
in `jets`, runs on one embedding: `_wrapped_transform` puts mode k at index
k mod L of each axis, and `_kept_inverse` inverts a stack of grids keeping
only the modes |k|_inf <= M, in centred order.  A product with modes up to
|k|_inf = c keeps its modes |k|_inf <= M alias-free when L >= c + M + 1,
which for the whole product of cutoff N is L >= 2N + 1.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.fft import fft, ifft


@lru_cache(maxsize=256)
def next_fast_len(n: int) -> int:
    """The smallest 11-smooth integer >= n (n >= 1), the transform length
    pocketfft runs fastest; equal to `scipy.fft.next_fast_len(n)`."""
    m = n
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


@lru_cache(maxsize=256)
def mode_grid(d: int, cutoff: int) -> np.ndarray:
    """Integer modes over the box [-cutoff, cutoff]^d, shape
    (2*cutoff+1,)*d + (d,), in lexicographic order once flattened to
    (-1, d).  The array is cached and shared, so it is read-only."""
    axes = np.meshgrid(*[np.arange(-cutoff, cutoff + 1)] * d, indexing="ij")
    grid = np.stack(axes, axis=-1)
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=256)
def _l1_grid(d: int, cutoff: int) -> np.ndarray:
    """|k|_1 over the box [-cutoff, cutoff]^d, shape (2*cutoff+1,)*d."""
    return np.abs(mode_grid(d, cutoff)).sum(axis=-1)


@lru_cache(maxsize=256)
def _ik(d: int, cutoff: int, axis: int) -> np.ndarray:
    """i k_axis for k_axis in [-cutoff, cutoff], shaped to broadcast along
    `axis` of the box [-cutoff, cutoff]^d: the factor of d/dx_axis, with
    the values `dir_derivative` forms for a unit omega.  Cached and
    shared, so it is read-only."""
    shape = [1] * d
    shape[axis] = 2 * cutoff + 1
    factor = 1j * np.arange(-cutoff, cutoff + 1, dtype=float).reshape(shape)
    factor.flags.writeable = False
    return factor


class FourierSeries:
    __slots__ = ("d", "shape", "cutoff", "data")

    def __init__(self, d: int, shape: tuple[int, int], cutoff: int,
                 data: np.ndarray | None = None):
        if d < 1:
            raise ValueError("d must be >= 1")
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        self.d = d
        self.shape = (int(shape[0]), int(shape[1]))
        self.cutoff = int(cutoff)
        box = (2 * self.cutoff + 1,) * d
        if data is None:
            data = np.zeros(self.shape + box, dtype=complex)
        else:
            data = np.asarray(data, dtype=complex)
            if data.shape != self.shape + box:
                raise ValueError(
                    f"data shape {data.shape} != {self.shape + box}")
            data = data.copy()
        data.flags.writeable = False
        self.data = data

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def _adopt(cls, d: int, shape: tuple[int, int], cutoff: int,
               data: np.ndarray) -> "FourierSeries":
        """A series on `data`, a complex array of shape shape + box that
        the caller has just allocated and hands over: no copy, no checks."""
        self = cls.__new__(cls)
        self.d, self.shape, self.cutoff = d, shape, cutoff
        data.flags.writeable = False
        self.data = data
        return self

    @classmethod
    def zero(cls, d: int, shape: tuple[int, int] = (1, 1),
             cutoff: int = 0) -> "FourierSeries":
        return cls(d, shape, cutoff)

    @classmethod
    def constant(cls, d: int, value) -> "FourierSeries":
        value = np.atleast_2d(np.asarray(value, dtype=complex))
        return cls(d, value.shape, 0, value.reshape(value.shape + (1,) * d))

    @classmethod
    def from_coeffs(cls, d: int, entries: dict, shape: tuple[int, int] = (1, 1),
                    cutoff: int | None = None) -> "FourierSeries":
        """Build from a sparse map k-tuple -> complex (or (rows, cols) array)."""
        if cutoff is None:
            cutoff = max((max(abs(c) for c in k) for k in entries), default=0)
        box = (2 * cutoff + 1,) * d
        data = np.zeros(shape + box, dtype=complex)
        for k, v in entries.items():
            if len(k) != d:
                raise ValueError(f"index {k} has wrong dimension")
            if max(abs(c) for c in k) > cutoff:
                raise ValueError(f"index {k} beyond cutoff {cutoff}")
            idx = tuple(c + cutoff for c in k)
            data[(slice(None), slice(None)) + idx] += np.asarray(v, dtype=complex)
        return cls(d, shape, cutoff, data)

    @classmethod
    def mode(cls, d: int, k: tuple) -> "FourierSeries":
        """Single-mode series e^{i<k,x>}."""
        return cls.from_coeffs(d, {tuple(k): 1.0})

    @classmethod
    def cosine(cls, d: int, k: tuple, amplitude=1.0) -> "FourierSeries":
        k = tuple(k)
        mk = tuple(-c for c in k)
        a = complex(amplitude) / 2.0
        return cls.from_coeffs(d, {k: a, mk: a} if k != mk else {k: 2 * a})

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def coeff(self, k: tuple) -> np.ndarray:
        """Coefficient matrix at mode k (zero beyond the cutoff)."""
        if max((abs(c) for c in k), default=0) > self.cutoff:
            return np.zeros(self.shape, dtype=complex)
        idx = tuple(c + self.cutoff for c in k)
        return np.array(self.data[(slice(None), slice(None)) + idx])

    def coeffs(self, tol: float = 0.0) -> dict:
        """Sparse map of modes with some entry of magnitude > tol."""
        mags = np.abs(self.data).max(axis=(0, 1))
        out = {}
        for idx in np.argwhere(mags > tol):
            k = tuple(int(c) - self.cutoff for c in idx)
            out[k] = self.coeff(k)
        return out

    @property
    def is_scalar(self) -> bool:
        return self.shape == (1, 1)

    def entry(self, i: int, j: int) -> "FourierSeries":
        return FourierSeries(self.d, (1, 1), self.cutoff,
                             self.data[i:i + 1, j:j + 1])

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def _aligned(self, other: "FourierSeries"):
        N = max(self.cutoff, other.cutoff)
        return self.pad(N), other.pad(N)

    def pad(self, cutoff: int) -> "FourierSeries":
        """Embed into a larger cutoff box (identity if already that size)."""
        if cutoff < self.cutoff:
            raise ValueError("pad target smaller than cutoff; use truncate")
        if cutoff == self.cutoff:
            return self
        return FourierSeries._adopt(self.d, self.shape, cutoff,
                                    _padded(self.data, cutoff))

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        if not isinstance(other, FourierSeries):
            return NotImplemented
        if self.d != other.d or self.shape != other.shape:
            raise ValueError("shape mismatch in add")
        a, b = self._aligned(other)
        return FourierSeries._adopt(self.d, self.shape, a.cutoff,
                                    a.data + b.data)

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "FourierSeries":
        if isinstance(scalar, FourierSeries):
            return NotImplemented
        return FourierSeries._adopt(self.d, self.shape, self.cutoff,
                                    self.data * complex(scalar))

    __rmul__ = __mul__

    def transpose(self) -> "FourierSeries":
        return FourierSeries(self.d, (self.shape[1], self.shape[0]),
                             self.cutoff, np.swapaxes(self.data, 0, 1))

    def conj_function(self) -> "FourierSeries":
        """Series of the entrywise complex conjugate function.

        (conj f)_hat(k) = conj(f_hat(-k)).
        """
        flipped = np.flip(self.data, axis=tuple(range(2, 2 + self.d)))
        return FourierSeries._adopt(self.d, self.shape, self.cutoff,
                                    np.conj(flipped))

    def reflect(self) -> "FourierSeries":
        """Series with coefficients f_hat(-k)."""
        flipped = np.flip(self.data, axis=tuple(range(2, 2 + self.d)))
        return FourierSeries(self.d, self.shape, self.cutoff, flipped)

    def reality_error(self) -> float:
        """Max |conj(f_hat(k)) - f_hat(-k)| over modes and entries."""
        return float(np.abs(np.conj(self.data)
                            - self.reflect().data).max(initial=0.0))

    def max_abs_coeff(self) -> float:
        return float(np.abs(self.data).max(initial=0.0))

    def evaluate(self, x) -> np.ndarray:
        """Pointwise value sum_k f_hat(k) e^{i<k,x>}: shape (rows, cols)
        for one point x of shape (d,), (P, rows, cols) for points of shape
        (P, d).  The factors e^{i k_j x_j} are built per axis and the
        coefficient box is contracted one axis at a time, the first
        contraction (over the last axis) as one matrix product."""
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        if x.ndim > 2 or pts.shape[1] != self.d:
            raise ValueError(f"points must have shape (d,) or (P, {self.d})")
        k = np.arange(-self.cutoff, self.cutoff + 1)
        acc = self.data.reshape(-1, k.size) \
            @ np.exp(1j * np.outer(k, pts[:, -1]))
        for j in range(self.d - 2, -1, -1):
            acc = np.einsum("mkp,kp->mp", acc.reshape(-1, k.size, len(pts)),
                            np.exp(1j * np.outer(k, pts[:, j])))
        vals = np.moveaxis(acc.reshape(self.shape + (len(pts),)), -1, 0)
        return vals[0] if x.ndim == 1 else vals


def _padded(data: np.ndarray, cutoff: int) -> np.ndarray:
    """A coefficient block of shape (rows, cols) + (2 c + 1,) * d embedded
    into the box of `cutoff` >= c: the block itself when c = cutoff, else
    a new array, zero outside the block."""
    w = cutoff - data.shape[-1] // 2
    if w == 0:
        return data
    out = np.zeros(data.shape[:2] + (2 * cutoff + 1,) * (data.ndim - 2),
                   dtype=complex)
    out[(slice(None),) * 2 + (slice(w, -w),) * (data.ndim - 2)] = data
    return out


# ----------------------------------------------------------------------
# the FFT embedding: mode k at index k mod L
# ----------------------------------------------------------------------

def _wrapped_transform(x: np.ndarray, L: int) -> np.ndarray:
    """Forward transforms of every entry of a coefficient block x of shape
    (rows, cols) + (2 cutoff + 1,) * d, a series' `data` or a multiple of
    it, on L >= 2 cutoff + 1 points per axis, mode k at index k mod L:
    shape (rows, cols) + (L,) * d.  In this wrapped, centred embedding the
    transform of conj_function(f) is the conjugate of f's."""
    n = (x.shape[-1] - 1) // 2
    for ax in range(2, x.ndim):
        pre = (slice(None),) * ax
        y = np.zeros(x.shape[:ax] + (L,) + x.shape[ax + 1:], dtype=complex)
        y[pre + (slice(0, n + 1),)] = x[pre + (slice(n, None),)]
        y[pre + (slice(L - n, L),)] = x[pre + (slice(0, n),)]
        x = fft(y, axis=ax, out=y)
    return x


def _kept_inverse(x: np.ndarray, M: int) -> np.ndarray:
    """Inverse transform of a stack of wrapped grids over axes 1..d, the
    first pass in place in x, keeping the modes |k|_inf <= M in centred
    order: after the pass over an axis only its kept rows go on, the
    slices L - M..L - 1 and 0..M."""
    L = x.shape[1]
    for ax in range(1, x.ndim):
        ifft(x, axis=ax, norm="forward", out=x)
        pre = (slice(None),) * ax
        x = np.concatenate((x[pre + (slice(L - M, L),)],
                            x[pre + (slice(0, M + 1),)]), axis=ax)
    x *= 1.0 / L ** (x.ndim - 1)
    return x


# ----------------------------------------------------------------------
# contract operations
# ----------------------------------------------------------------------

def truncate(f: FourierSeries, N: int) -> FourierSeries:
    """Keep exactly the modes with |k|_inf <= N (linear, idempotent)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    if N >= f.cutoff:
        return f
    w = f.cutoff - N
    sl = (slice(None), slice(None)) + (slice(w, -w),) * f.d
    return FourierSeries(f.d, f.shape, N, f.data[sl])


def tail(f: FourierSeries, N: int) -> FourierSeries:
    """The complement (1 - Gamma_N) f = f - truncate(f, N)."""
    return f - truncate(f, N).pad(f.cutoff)


def strip_norm(f: FourierSeries, s: float) -> float:
    """sum_k max_entries |f_hat(k)| e^{s|k|_1}; monotone in s."""
    if s < 0:
        raise ValueError("s must be >= 0")
    mags = np.abs(f.data).max(axis=(0, 1)) if f.data.size else 0.0
    w = np.exp(s * _l1_grid(f.d, f.cutoff))
    return float(np.sum(mags * w))


def product(f: FourierSeries, g: FourierSeries) -> FourierSeries:
    """Matrix product with coefficient convolution; cutoff adds.

    Scalar (1x1) factors multiply entrywise against any shape.  Each factor
    is transformed once (`_wrapped_transform`) on L = next_fast_len(2N + 1)
    points per axis, where circular convolution is linear convolution; the
    pair products are inverse-transformed as one stack that keeps the modes
    |k|_inf <= N (`_kept_inverse`), and the pairs of an entry are summed in
    order.  A factor with cutoff 0 multiplies by broadcasting instead.
    """
    if f.d != g.d:
        raise ValueError("dimension mismatch in product")
    scalar_f, scalar_g = f.is_scalar, g.is_scalar
    if not (scalar_f or scalar_g) and f.shape[1] != g.shape[0]:
        raise ValueError(f"shapes {f.shape} x {g.shape} do not compose")
    if scalar_f != scalar_g:
        # each matrix entry against the scalar, matrix entry first
        lhs, rhs = (g, f) if scalar_f else (f, g)
        (rows, cols), inner = lhs.shape, 1
        pairs = [((i, j), (0, 0)) for i in range(rows) for j in range(cols)]
    else:
        lhs, rhs = f, g
        rows, inner, cols = f.shape[0], f.shape[1], g.shape[1]
        pairs = [((i, m), (m, j)) for i in range(rows)
                 for m in range(inner) for j in range(cols)]
    d, N = f.d, f.cutoff + g.cutoff
    box = (2 * N + 1,) * d
    if lhs.cutoff == 0 or rhs.cutoff == 0:
        terms = np.stack([lhs.data[p] * rhs.data[q] for p, q in pairs])
    else:
        L = next_fast_len(2 * N + 1)
        A, B = _wrapped_transform(lhs.data, L), _wrapped_transform(rhs.data, L)
        terms = np.empty((len(pairs),) + (L,) * d, dtype=complex)
        for t, (p, q) in enumerate(pairs):
            np.multiply(A[p], B[q], out=terms[t])
        terms = _kept_inverse(terms, N)
    terms = terms.reshape((rows, inner, cols) + box)
    if scalar_f != scalar_g:
        out = terms[:, 0]
    else:
        out = np.zeros((rows, cols) + box, dtype=complex)
        for m in range(inner):
            out += terms[:, m]
    return FourierSeries._adopt(d, (rows, cols), N, out)


def dir_derivative(f: FourierSeries, omega) -> FourierSeries:
    """Directional derivative sum_j omega_j dF/dx_j: multiply by i<k,omega>."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (f.d,):
        raise ValueError("omega must have length d")
    modes = mode_grid(f.d, f.cutoff)
    factor = 1j * (modes @ omega)
    return FourierSeries._adopt(f.d, f.shape, f.cutoff, f.data * factor)


def partial_x(f: FourierSeries, axis: int) -> FourierSeries:
    """d/dx_axis: multiply coefficient at k by i*k_axis."""
    return FourierSeries._adopt(f.d, f.shape, f.cutoff,
                                f.data * _ik(f.d, f.cutoff, axis))
