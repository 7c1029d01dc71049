"""Taylor-Fourier jets of Hamiltonians on D(s, r).

A jet is a polynomial in (y, z, zbar) whose coefficients are scalar Fourier
series in x: terms map a monomial signature (a, b, c) -- a in N^d for y,
b, c in N^n for z, zbar -- to a FourierSeries.  The weighted degree of a
signature is 2|a| + |b| + |c| (y counts twice); "low" means weighted degree
<= 2 excluding the z zbar block handled by the normal form.

Products and brackets that overflow the degree cap or the Fourier cutoff cap
are not silently dropped: their vector-field norm on the reference domain
(s_ref, r_ref) accumulates in the scalar `tail`, which every vf_norm result
includes.  That keeps all reported norms upper bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import fft as sfft

from .fourier import FourierSeries, _grid_transforms, _l1_grid, partial_x

Signature = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def weighted_degree(sig: Signature) -> int:
    a, b, c = sig
    return 2 * sum(a) + sum(b) + sum(c)


@lru_cache(maxsize=256)
def _vf_weights(d: int, cutoff: int, s: float, keep: int = -1):
    """Weights e^{s|k|_1} and |k|_1 e^{s|k|_1} over the box of `cutoff`,
    zero on the modes |k|_inf <= keep.  Cached and shared: read-only."""
    l1 = _l1_grid(d, cutoff)
    w = np.exp(s * l1)
    if keep >= 0:
        w[(slice(cutoff - keep, cutoff + keep + 1),) * d] = 0.0
    wl1 = w * l1
    w.flags.writeable = wl1.flags.writeable = False
    return w, wl1


def _vf_sums(mags: np.ndarray, s: float, keep: int = -1):
    """For coefficient magnitudes m over a centred box, the strip norm
    sum_k m(k) e^{s|k|_1} and the sum of the strip norms of the d partials,
    sum_k |k|_1 m(k) e^{s|k|_1}; modes |k|_inf <= keep are left out."""
    if s < 0:
        raise ValueError("s must be >= 0")
    w, wl1 = _vf_weights(mags.ndim, (mags.shape[0] - 1) // 2, float(s), keep)
    return float(np.sum(mags * w)), float(np.sum(mags * wl1))


def _vf_of(sig: Signature, sigma: float, sx: float, r: float) -> float:
    """Upper bound for the weighted vector-field norm of one monomial term
    q(x) y^a z^b zbar^c, from the strip norm `sigma` of q and the summed
    strip norms `sx` of its partials dq/dx_i.

    The Hamiltonian vector field has components
    (dq/dy, -dq/dx, i dq/dzbar, -i dq/dz) with weights
    (1, r^-2, r^-1, r^-1) and monomial suprema |y| <= r^2, |z|,|zbar| <= r.
    """
    a, b, c = sig
    g = weighted_degree(sig)
    out = 0.0
    if sum(a):  # dq/dy_i drops y_i: degree g-2
        out += sum(a) * sigma * r ** (g - 2)
    if sx:
        out += (1.0 / r ** 2) * sx * r ** g
    nz = sum(b) + sum(c)
    if nz:
        out += (1.0 / r) * nz * sigma * r ** (g - 1)
    return out


def _term_vf_bound(sig: Signature, series: FourierSeries,
                   s: float, r: float) -> float:
    """Upper bound for the weighted vector-field norm of one jet term."""
    return _vf_of(sig, *_vf_sums(np.abs(series.data).max(axis=(0, 1)), s),
                  r)


# working set of one batch of pair products in `_grid_products`
_BATCH_BYTES = 1 << 21


def _grid_products(P: "HamiltonianJet", Q: "HamiltonianJet"):
    """Every pair product of the terms of P and Q on one FFT grid; returns
    (terms, tail) as the term-by-term loop books them.

    Each factor is padded to its largest cutoff N1, N2, on a grid of
    L >= 2(N1 + N2) + 1 points per axis, where circular convolution is
    linear convolution.  Q is transformed once and kept stacked; each term
    of P is transformed once and multiplied pointwise against that stack,
    and the pair products are inverse-transformed in batches of at most
    _BATCH_BYTES.  Pair (f1, f2) keeps the modes of its own box
    c = f1.cutoff + f2.cutoff and no others: an over-degree pair goes whole
    into the tail bound, a pair past the cutoff cap puts its modes beyond
    the cap there.  P's terms run outer, as in the term-by-term loop, so
    each signature sums its pairs in the loop's order and cancels exactly
    where the loop does (an exactly zero sum drops the term, and with it
    its cutoff).  In a KAM step P is nearly always the larger factor: the
    jet being transformed, against parts of the generator.
    """
    d = P.d
    t1, t2 = list(P.terms.items()), list(Q.terms.items())
    cap = P.cutoff_cap
    booked = {}         # (i, j) -> (sig, box cutoff, kept cutoff or None)
    width = {}          # output cutoff per kept signature, in loop order
    for i, (s1, f1) in enumerate(t1):
        for j, (s2, f2) in enumerate(t2):
            sig = tuple(tuple(x + y for x, y in zip(u, v))
                        for u, v in zip(s1, s2))
            c = f1.cutoff + f2.cutoff
            kept = None
            if weighted_degree(sig) <= P.max_degree:
                kept = c if cap is None else min(c, cap)
                width[sig] = max(width.get(sig, 0), kept)
            booked[i, j] = (sig, c, kept)
    acc = {sig: np.zeros((2 * K + 1,) * d, dtype=complex)
           for sig, K in width.items()}
    tail = 0.0

    N1 = max(f.cutoff for _, f in t1)
    N2 = max(f.cutoff for _, f in t2)
    N = N1 + N2
    L = sfft.next_fast_len(2 * N + 1)
    B = _grid_transforms([f for _, f in t2], N2, L)[:, 0, 0]
    per = max(1, min(len(t2), _BATCH_BYTES // B[0].nbytes))
    buf = np.empty((per,) + B.shape[1:], dtype=complex)
    for i, (_, f) in enumerate(t1):
        a = _grid_transforms([f], N1, L)[0, 0, 0]
        for start in range(0, len(t2), per):
            stop = min(start + per, len(t2))
            prod = np.multiply(a, B[start:stop], out=buf[:stop - start])
            prod = sfft.ifftn(prod, axes=tuple(range(1, d + 1)),
                              overwrite_x=True)
            for j in range(start, stop):
                sig, c, kept = booked[i, j]
                fp = prod[j - start][(slice(N - c, N + c + 1),) * d]
                if kept is None or kept < c:
                    sums = _vf_sums(np.abs(fp), P.s_ref,
                                    -1 if kept is None else kept)
                    tail += _vf_of(sig, *sums, P.r_ref)
                    if kept is None:
                        continue
                    fp = fp[(slice(c - kept, c + kept + 1),) * d]
                K = width[sig]
                acc[sig][(slice(K - kept, K + kept + 1),) * d] += fp
    terms = {sig: FourierSeries(d, (1, 1), width[sig], v[None, None])
             for sig, v in acc.items()}
    return terms, tail


@dataclass
class HamiltonianJet:
    d: int
    n: int
    terms: dict[Signature, FourierSeries] = field(default_factory=dict)
    max_degree: int = 4
    cutoff_cap: int | None = None
    tail: float = 0.0
    s_ref: float = 1.0
    r_ref: float = 0.5

    def __post_init__(self):
        clean = {}
        for sig, f in self.terms.items():
            sig = (tuple(sig[0]), tuple(sig[1]), tuple(sig[2]))
            if len(sig[0]) != self.d or len(sig[1]) != self.n \
                    or len(sig[2]) != self.n:
                raise ValueError(f"signature {sig} inconsistent with (d, n)")
            if weighted_degree(sig) > self.max_degree:
                raise ValueError(f"signature {sig} beyond max_degree")
            if f.shape != (1, 1):
                raise ValueError("jet coefficients must be scalar series")
            if f.data.any():    # exact zeros only: a NaN term stays
                clean[sig] = f if sig not in clean else clean[sig] + f
        self.terms = clean

    # ------------------------------------------------------------------
    def _like(self, terms, tail=None, extra_tail=0.0) -> "HamiltonianJet":
        return HamiltonianJet(
            self.d, self.n, terms, max_degree=self.max_degree,
            cutoff_cap=self.cutoff_cap,
            tail=(self.tail if tail is None else tail) + extra_tail,
            s_ref=self.s_ref, r_ref=self.r_ref)

    @classmethod
    def zero(cls, d: int, n: int, **kw) -> "HamiltonianJet":
        return cls(d, n, {}, **kw)

    def term(self, sig: Signature) -> FourierSeries:
        sig = (tuple(sig[0]), tuple(sig[1]), tuple(sig[2]))
        return self.terms.get(sig, FourierSeries.zero(self.d))

    def __add__(self, other: "HamiltonianJet") -> "HamiltonianJet":
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError("dimension mismatch")
        terms = dict(self.terms)
        for sig, f in other.terms.items():
            terms[sig] = terms[sig] + f if sig in terms else f
        out = self._like(terms, tail=self.tail + other.tail)
        out.max_degree = max(self.max_degree, other.max_degree)
        return out

    def __sub__(self, other: "HamiltonianJet") -> "HamiltonianJet":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "HamiltonianJet":
        return self._like({sig: f * scalar for sig, f in self.terms.items()},
                          tail=self.tail * abs(scalar))

    __rmul__ = __mul__

    def max_abs_coeff(self) -> float:
        return max((f.max_abs_coeff() for f in self.terms.values()),
                   default=0.0)

    # ------------------------------------------------------------------
    # calculus on monomials
    # ------------------------------------------------------------------
    def d_x(self, i: int) -> "HamiltonianJet":
        return self._like({sig: partial_x(f, i)
                           for sig, f in self.terms.items()}, tail=0.0)

    def d_y(self, i: int) -> "HamiltonianJet":
        out = {}
        for (a, b, c), f in self.terms.items():
            if a[i] == 0:
                continue
            a2 = a[:i] + (a[i] - 1,) + a[i + 1:]
            out[(a2, b, c)] = f * a[i]
        return self._like(out, tail=0.0)

    def d_z(self, j: int) -> "HamiltonianJet":
        out = {}
        for (a, b, c), f in self.terms.items():
            if b[j] == 0:
                continue
            b2 = b[:j] + (b[j] - 1,) + b[j + 1:]
            out[(a, b2, c)] = f * b[j]
        return self._like(out, tail=0.0)

    def d_zbar(self, j: int) -> "HamiltonianJet":
        out = {}
        for (a, b, c), f in self.terms.items():
            if c[j] == 0:
                continue
            c2 = c[:j] + (c[j] - 1,) + c[j + 1:]
            out[(a, b, c2)] = f * c[j]
        return self._like(out, tail=0.0)

    def jet_product(self, other: "HamiltonianJet") -> "HamiltonianJet":
        """Polynomial product; degree/cutoff overflow goes to `tail`.
        The pair products run on one FFT grid (`_grid_products`)."""
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError("dimension mismatch")
        out, extra_tail = {}, 0.0
        if self.terms and other.terms:
            out, extra_tail = _grid_products(self, other)
        # bilinear coupling of the unrepresented parts (measured bookkeeping)
        cross = 0.0
        if self.tail:
            cross += self.tail * (other._ref_norm() + other.tail)
        if other.tail:
            cross += other.tail * self._ref_norm()
        return self._like(out, tail=0.0, extra_tail=extra_tail + cross)

    def _ref_norm(self) -> float:
        return vf_norm(self, self.s_ref, self.r_ref)


# ----------------------------------------------------------------------
# contract operations
# ----------------------------------------------------------------------

def poisson_bracket(F: HamiltonianJet, G: HamiltonianJet) -> HamiltonianJet:
    """{F,G} = <F_x,G_y> - <F_y,G_x> + i<F_z,G_zbar> - i<F_zbar,G_z>."""
    if (F.d, F.n) != (G.d, G.n):
        raise ValueError("dimension mismatch")
    out = HamiltonianJet.zero(F.d, F.n, max_degree=max(F.max_degree,
                                                       G.max_degree),
                              cutoff_cap=F.cutoff_cap,
                              s_ref=F.s_ref, r_ref=F.r_ref)
    for i in range(F.d):
        out = out + F.d_x(i).jet_product(G.d_y(i))
        out = out - F.d_y(i).jet_product(G.d_x(i))
    for j in range(F.n):
        out = out + 1j * F.d_z(j).jet_product(G.d_zbar(j))
        out = out - 1j * F.d_zbar(j).jet_product(G.d_z(j))
    # unrepresented-part coupling (the d_* jets carry no tail themselves)
    cross = 0.0
    if F.tail:
        cross += F.tail * vf_norm(G, G.s_ref, G.r_ref)
    if G.tail:
        cross += G.tail * vf_norm(F, F.s_ref, F.r_ref)
    if cross:
        out = out._like(out.terms, extra_tail=cross)
    return out


def vf_norm(P: HamiltonianJet, s: float, r: float) -> float:
    """Computable upper bound for the weighted phase norm of X_P on D(s,r)."""
    if r <= 0:
        raise ValueError("r must be positive")
    return sum(_term_vf_bound(sig, f, s, r)
               for sig, f in P.terms.items()) + P.tail


@dataclass
class JetSplit:
    low: HamiltonianJet
    high: HamiltonianJet


def split_low_high(P: HamiltonianJet) -> JetSplit:
    """Low = weighted degree <= 2; high = the rest (carries the tail)."""
    low = {s: f for s, f in P.terms.items() if weighted_degree(s) <= 2}
    high = {s: f for s, f in P.terms.items() if weighted_degree(s) > 2}
    return JetSplit(low=P._like(low, tail=0.0),
                    high=P._like(high, tail=P.tail))


def check_reality(P: HamiltonianJet, tol: float = 1e-12):
    """Verify conj(coeff(a,b,c)(k)) == coeff(a,c,b)(-k).

    Returns (ok, worst_violation).
    """
    worst = 0.0
    seen = set(P.terms)
    for (a, b, c), f in P.terms.items():
        seen.add((a, c, b))
    for sig in seen:
        a, b, c = sig
        f = P.term(sig)
        g = P.term((a, c, b))
        N = max(f.cutoff, g.cutoff)
        diff = f.conj_function().pad(N) - g.pad(N)
        worst = max(worst, diff.max_abs_coeff())
    return worst <= tol, worst


def conjugate_jet(P: HamiltonianJet) -> HamiltonianJet:
    """Jet of conj(P): coefficient (a,b,c) becomes conj over x of (a,c,b)."""
    out = {}
    for (a, b, c), f in P.terms.items():
        sig = (a, c, b)
        g = f.conj_function()
        out[sig] = out[sig] + g if sig in out else g
    return P._like(out)


@dataclass
class LieResult:
    jet: HamiltonianJet
    tail_bound: float
    term_norms: list[float]


def lie_transform(H: HamiltonianJet, F: HamiltonianJet,
                  order: int = 3) -> LieResult:
    """H composed with the time-1 flow of X_F: sum_j ad_F^j H / j!.

    The reported tail bound is the vf_norm (on the reference domain) of the
    first omitted term.  Raises if the term norms grow, which signals a
    divergent expansion.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    out = H
    term = H
    norms = [vf_norm(term, H.s_ref, H.r_ref)]
    fact = 1.0
    for j in range(1, order + 2):
        term = poisson_bracket(term, F)
        fact *= j
        norm_j = vf_norm(term, H.s_ref, H.r_ref) / fact
        norms.append(norm_j)
        if j >= 2 and norm_j > norms[-2] and norm_j > 1e-13:
            raise ValueError(
                f"Lie series terms grow at order {j}: "
                f"{norms[-2]:.3e} -> {norm_j:.3e}")
        if j <= order:
            out = out + (1.0 / fact) * term
    tail_bound = norms[order + 1]
    jet = out._like(out.terms, tail=out.tail + tail_bound)
    return LieResult(jet=jet, tail_bound=tail_bound, term_norms=norms)


# ----------------------------------------------------------------------
# normal forms and component extraction
# ----------------------------------------------------------------------

@dataclass
class NormalForm:
    omega: np.ndarray        # tangent frequencies, length d
    Omega: np.ndarray        # normal frequencies, length n, positive
    B: FourierSeries         # n x n matrix series, real symmetric for real x

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        self.Omega = np.asarray(self.Omega, dtype=float)
        if np.any(self.Omega <= 0):
            raise ValueError("normal frequencies must be positive")
        if self.B.shape != (len(self.Omega), len(self.Omega)):
            raise ValueError("B shape inconsistent with Omega")

    @property
    def d(self) -> int:
        return len(self.omega)

    @property
    def n(self) -> int:
        return len(self.Omega)

    def symmetry_error(self) -> float:
        """max |B - B^T| over coefficients plus the reality defect."""
        asym = (self.B - self.B.transpose()).max_abs_coeff()
        return max(asym, self.B.reality_error())

    def to_jet(self, **jet_kw) -> HamiltonianJet:
        """<omega,y> + <Omega z, zbar> + <B(x) z, zbar> as a jet."""
        d, n = self.d, self.n
        terms: dict[Signature, FourierSeries] = {}
        for i in range(d):
            a = tuple(1 if t == i else 0 for t in range(d))
            terms[(a, (0,) * n, (0,) * n)] = FourierSeries.constant(
                d, self.omega[i])
        for i in range(n):
            for j in range(n):
                b = tuple(1 if t == i else 0 for t in range(n))
                c = tuple(1 if t == j else 0 for t in range(n))
                coef = self.B.entry(j, i)
                if i == j:
                    coef = coef + FourierSeries.constant(d, self.Omega[i])
                if coef.data.any():
                    terms[((0,) * d, b, c)] = coef
        return HamiltonianJet(d, n, terms, **jet_kw)


def _unit(n: int, j: int) -> tuple[int, ...]:
    return tuple(1 if t == j else 0 for t in range(n))


def component_x(P: HamiltonianJet) -> FourierSeries:
    """The scalar part R^x(x)."""
    return P.term(((0,) * P.d, (0,) * P.n, (0,) * P.n))


def component_y(P: HamiltonianJet) -> FourierSeries:
    """R^y as a d x 1 vector series (coefficient of y_i)."""
    parts = [P.term((_unit(P.d, i), (0,) * P.n, (0,) * P.n))
             for i in range(P.d)]
    return _stack(parts, P.d)


def component_z(P: HamiltonianJet) -> FourierSeries:
    parts = [P.term(((0,) * P.d, _unit(P.n, j), (0,) * P.n))
             for j in range(P.n)]
    return _stack(parts, P.d)


def component_zbar(P: HamiltonianJet) -> FourierSeries:
    parts = [P.term(((0,) * P.d, (0,) * P.n, _unit(P.n, j)))
             for j in range(P.n)]
    return _stack(parts, P.d)


def _stack(parts: list[FourierSeries], d: int) -> FourierSeries:
    N = max((p.cutoff for p in parts), default=0)
    data = np.stack([p.pad(N).data[0, 0] for p in parts])[:, None]
    return FourierSeries(d, (len(parts), 1), N, data)


def matrix_zz(P: HamiltonianJet) -> FourierSeries:
    """Symmetric M with the z z block equal to (1/2) <M z, z>.

    M_ij = coeff(z_i z_j) for i != j, M_ii = 2 coeff(z_i^2).
    """
    return _quad_matrix(P, which="zz")


def matrix_zbzb(P: HamiltonianJet) -> FourierSeries:
    return _quad_matrix(P, which="zbzb")


def matrix_zzbar(P: HamiltonianJet) -> FourierSeries:
    """M with the z zbar block equal to <M z, zbar>: M_ji = coeff(z_i zbar_j)."""
    d, n = P.d, P.n
    N = 0
    entries = {}
    for i in range(n):
        for j in range(n):
            f = P.term(((0,) * d, _unit(n, i), _unit(n, j)))
            entries[(j, i)] = f
            N = max(N, f.cutoff)
    data = np.zeros((n, n) + (2 * N + 1,) * d, dtype=complex)
    for (j, i), f in entries.items():
        data[j, i] = f.pad(N).data[0, 0]
    return FourierSeries(d, (n, n), N, data)


def _quad_matrix(P: HamiltonianJet, which: str) -> FourierSeries:
    d, n = P.d, P.n
    zero = (0,) * n
    entries = {}
    N = 0
    for i in range(n):
        for j in range(i, n):
            e = tuple((1 if t == i else 0) + (1 if t == j else 0)
                      for t in range(n))
            sig = ((0,) * d, e, zero) if which == "zz" else ((0,) * d, zero, e)
            f = P.term(sig)
            if i == j:
                f = 2.0 * f
            entries[(i, j)] = f
            N = max(N, f.cutoff)
    data = np.zeros((n, n) + (2 * N + 1,) * d, dtype=complex)
    for (i, j), f in entries.items():
        data[i, j] = f.pad(N).data[0, 0]
        data[j, i] = f.pad(N).data[0, 0]
    return FourierSeries(d, (n, n), N, data)


def jet_from_parts(d: int, n: int,
                   Fx: FourierSeries | None = None,
                   Fy: FourierSeries | None = None,
                   Fz: FourierSeries | None = None,
                   Fzbar: FourierSeries | None = None,
                   Fzz: FourierSeries | None = None,
                   Fzbzb: FourierSeries | None = None,
                   Mzzbar: FourierSeries | None = None,
                   **jet_kw) -> HamiltonianJet:
    """Assemble F^x + <F^y,y> + <F^z,z> + <F^zbar,zbar>
    + (1/2)<F^zz z,z> + (1/2)<F^zbzb zbar,zbar> + <M z,zbar> as a jet."""
    terms: dict[Signature, FourierSeries] = {}
    zn = (0,) * n
    zd = (0,) * d

    def put(sig, f):
        if f.data.any():
            terms[sig] = terms[sig] + f if sig in terms else f

    if Fx is not None:
        put((zd, zn, zn), Fx)
    if Fy is not None:
        for i in range(d):
            put((_unit(d, i), zn, zn), Fy.entry(i, 0))
    if Fz is not None:
        for j in range(n):
            put((zd, _unit(n, j), zn), Fz.entry(j, 0))
    if Fzbar is not None:
        for j in range(n):
            put((zd, zn, _unit(n, j)), Fzbar.entry(j, 0))
    for M, which in ((Fzz, "zz"), (Fzbzb, "zbzb")):
        if M is None:
            continue
        for i in range(n):
            for j in range(i, n):
                e = tuple((1 if t == i else 0) + (1 if t == j else 0)
                          for t in range(n))
                sig = (zd, e, zn) if which == "zz" else (zd, zn, e)
                coef = M.entry(i, j) if i != j else 0.5 * M.entry(i, i)
                if i != j:
                    coef = 0.5 * (M.entry(i, j) + M.entry(j, i))
                put(sig, coef)
    if Mzzbar is not None:
        for i in range(n):
            for j in range(n):
                put((zd, _unit(n, i), _unit(n, j)), Mzzbar.entry(j, i))
    return HamiltonianJet(d, n, terms, **jet_kw)
