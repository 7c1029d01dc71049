"""Taylor-Fourier jets of Hamiltonians on D(s, r).

A jet is a polynomial in (y, z, zbar) whose coefficients are scalar Fourier
series in x: terms map a monomial signature (a, b, c) -- a in N^d for y,
b, c in N^n for z, zbar -- to a FourierSeries.  The weighted degree of a
signature is 2|a| + |b| + |c| (y counts twice); "low" means weighted degree
<= 2 excluding the z zbar block handled by the normal form.

Brackets that overflow the degree cap or the Fourier cutoff cap are not
silently dropped: a bound for the vector-field norm of the dropped modes on
the reference domain (s_ref, r_ref) accumulates in the scalar `tail`, which
every vf_norm result includes.  The bound comes from shell sums of the
factors' coefficient magnitudes, rounded outward, never from FFT values, so
FFT rounding cannot enter it.  It bounds what one bracket drops of its
factors' terms.  A factor's own tail enters a bracket only as that tail
times the other factor's vf norm (`poisson_bracket`), which is not a bound
of the bracket of the part the tail stands for: that bracket also carries
the part's x-derivatives.  So a norm is an upper bound only as long as no
tail has been bracketed again.
A bracket runs on the wrapped FFT embedding of `fourier`
(`_wrapped_transform`, `_kept_inverse`), the one `fourier.product` uses, on
a grid that is alias-free for the kept modes only.  When both factors are
exactly real only half of the bracket is computed: the rest is its
conjugate mirror, so the result is exactly real too.

A Lie series is summed to the rounding of its first-order term {H, F}, a
sum of FFT products that carries absolute rounding of about u |{H, F}|:
from its second bracket on, a key whose whole contribution to the series
is bounded below that level is booked in the tail, untransformed, like an
over-degree key (`_whole_bounds`, `_ROUNDING`).  Both bounds, of what a
key drops and of the whole key, come from one shell-pair kernel
(`_dropped_bounds`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .fourier import (FourierSeries, _ik, _kept_inverse, _l1_grid,
                      _wrapped_transform, mode_grid, next_fast_len)

Signature = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def weighted_degree(sig: Signature) -> int:
    a, b, c = sig
    return 2 * sum(a) + sum(b) + sum(c)


@lru_cache(maxsize=256)
def _vf_weights(d: int, cutoff: int, s: float):
    """Weights e^{s|k|_1} and |k|_1 e^{s|k|_1} over the box of `cutoff`.
    Cached and shared: read-only."""
    l1 = _l1_grid(d, cutoff)
    w = np.exp(s * l1)
    wl1 = w * l1
    w.flags.writeable = wl1.flags.writeable = False
    return w, wl1


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
    """Upper bound for the weighted vector-field norm of one jet term, from
    its strip norm sum_k m(k) e^{s|k|_1} and the summed strip norms of its
    partials, sum_k |k|_1 m(k) e^{s|k|_1}, m the coefficient magnitudes."""
    if s < 0:
        raise ValueError("s must be >= 0")
    mags = np.abs(series.data[0, 0])
    w, wl1 = _vf_weights(series.d, series.cutoff, float(s))
    return _vf_of(sig, float(np.sum(mags * w)), float(np.sum(mags * wl1)), r)


# working set of one batch of key sums in `_grid_kernel`
_BATCH_BYTES = 1 << 21

# unit roundoff u of the series budget: from bracket j = 2 on, a key whose
# whole contribution to the series, its bound over j!, is at most u times
# the vf norm of {H, F} is booked in the tail instead of transformed; the
# first-order term is a sum of FFT products and already carries rounding of
# that size.  0 sums every key.
_ROUNDING = 2.0 ** -53


def _moves(f: FourierSeries) -> tuple[bool, ...]:
    """Per axis, whether some coefficient off the plane k_axis = 0 is
    nonzero."""
    total = np.count_nonzero(f.data)
    return tuple(total > np.count_nonzero(
        f.data[(0, 0) + (slice(None),) * ax + (f.cutoff,)])
        for ax in range(f.d))


class _Side:
    """One factor of `_grid_kernel`: a jet's terms, in order, and what the
    kernel derives from them, each at most once: the mirror table
    (`_mirrors`), the motion flags (`_moves`), the shell sums of its parts
    (`_shells`) and its `vf_norm`.  None of it is a grid.  The channel
    table of a pair of sides depends on their signatures and motion flags
    alone, and is shared by every bracket that repeats them
    (`_bracket_channels`).  `lie_transform` builds its generator's side
    once for the whole series and hands it to every bracket; every other
    side lives for one bracket.

    A generator's side also carries the series budget: `limit`, the per-key
    budget of the bracket being computed (0, as on every new side: none),
    and the keys it skipped, `skipped`, with the sum of their booked
    bounds, `booked`, over every bracket of the side."""

    def __init__(self, J: "HamiltonianJet"):
        self.jet = J
        self.sigs, self.series = tuple(J.terms), list(J.terms.values())
        self._shells = {}
        self.limit, self.skipped, self.booked = 0.0, 0, 0.0

    @cached_property
    def mirror(self) -> list | None:
        return _mirrors(self.jet)

    @cached_property
    def moves(self) -> tuple:
        return tuple(_moves(f) for f in self.series)

    @cached_property
    def vf(self) -> float:
        return vf_norm(self.jet, self.jet.s_ref, self.jet.r_ref)

    def shells(self, t: int, p: int, s: float, width: int) -> np.ndarray:
        if (t, p, s, width) not in self._shells:
            self._shells[t, p, s, width] = _shells(self.series[t], p, s,
                                                   width)
        return self._shells[t, p, s, width]


def _lower(e: tuple[int, ...], t: int) -> tuple[int, ...]:
    return e[:t] + (e[t] - 1,) + e[t + 1:]


@lru_cache(maxsize=64)
def _bracket_channels(f_sigs: tuple, f_moves: tuple, g_sigs: tuple,
                      g_moves: tuple) -> tuple:
    """The channel products of {F, G} = <F_x, G_y> - <F_y, G_x>
    + i<F_z, G_zbar> - i<F_zbar, G_z>, per pair of terms f y^a1 z^b1 zbar^c1
    and g y^a2 z^b2 zbar^c2: a2_i f_{x_i} g and -a1_i f g_{x_i} on the
    signature with y_i lowered, and i(b1_t c2_t - c1_t b2_t) f g with z_t
    and zbar_t lowered.  Identically zero x-partials are left out.  The
    table is a function of the factors' signatures and motion flags
    (`_moves`) alone, cached and shared by every bracket that repeats
    them: read-only."""
    d, n = len(f_sigs[0][0]), len(f_sigs[0][1])
    table = []
    for i, (a1, b1, c1) in enumerate(f_sigs):
        for j, (a2, b2, c2) in enumerate(g_sigs):
            a, b, c = (tuple(x + y for x, y in zip(u, v))
                       for u, v in ((a1, a2), (b1, b2), (c1, c2)))
            for ax in range(d):
                sig = (_lower(a, ax), b, c)
                if a2[ax] and f_moves[i][ax]:
                    table.append((i, 1 + ax, j, 0, sig, a2[ax]))
                if a1[ax] and g_moves[j][ax]:
                    table.append((i, 0, j, 1 + ax, sig, -a1[ax]))
            for t in range(n):
                w = b1[t] * c2[t] - c1[t] * b2[t]
                if w:
                    table.append((i, 0, j, 0, (a, _lower(b, t), _lower(c, t)),
                                  1j * w))
    return tuple(table)


def _mirrors(J: "HamiltonianJet") -> list | None:
    """Index of each term's mirror (a, c, b) when J is exactly real,
    coeff(a, c, b) == conj_function(coeff(a, b, c)) bit for bit; else None."""
    index = {sig: t for t, sig in enumerate(J.terms)}
    out = [index.get((a, c, b)) for a, b, c in J.terms]
    if None in out or not all(
            np.array_equal(J.terms[a, c, b].data, f.conj_function().data)
            for (a, b, c), f in J.terms.items() if b <= c):
        return None
    return out


@lru_cache(maxsize=256)
def _shell_index(d: int, cutoff: int) -> np.ndarray:
    """|k|_inf over the box of `cutoff`, flattened."""
    return np.abs(mode_grid(d, cutoff)).max(axis=-1).ravel()


def _shells(f: FourierSeries, p: int, s: float, width: int) -> np.ndarray:
    """Shell sums of part p of f (f for p = 0, else its x_{p-1}-partial):
    for j < width, the sums over |k|_inf = j of |h(k)| e^{s|k|_1} and of
    |k|_1 |h(k)| e^{s|k|_1}, shape (2, width)."""
    d, n = f.d, f.cutoff
    mags = np.abs(f.data[0, 0])
    if p:
        mags = mags * np.abs(_ik(d, n, p - 1).imag)
    return np.array([np.bincount(_shell_index(d, n), (mags * w).ravel(),
                                 width) for w in _vf_weights(d, n, s)])


def _dropped_bounds(F: _Side, G: _Side, keys, kept, s: float,
                    r: float) -> tuple:
    """Per key of `keys`, kept up to its cutoff m (`kept`; -1 for a key not
    in it, past max_degree), a bound for the vector-field norm of the modes
    |k|_inf > m of its products, from the shell sums a, a' of their factors
    (`_shells`), never from grid values; and the length of the longest
    rounding chain behind them.

    As |k1 + k2|_inf <= |k1|_inf + |k2|_inf and e^{s|k1 + k2|_1} <=
    e^{s|k1|_1} e^{s|k2|_1}, the modes |k|_inf > m of f g have strip norm
    at most sum_{i+j>m} a_f(i) a_g(j), and their partials summed strip norms
    at most sum_{i+j>m} a'_f(i) a_g(j) + a_f(i) a'_g(j).  A key sums these
    over its products with |w| into `_vf_of`.  Every term is nonnegative,
    so a float sum over them is within gamma_n of the exact one for a chain
    of n roundings (`_raised`)."""
    rows = [(t, i, p, j, q, abs(w), kept.get(key, -1))
            for t, (key, prods) in enumerate(keys.items())
            if kept.get(key, -1) < key[1] for i, p, j, q, w in prods]
    if not rows:
        return [0.0] * len(keys), 0
    N1, N2 = (max(f.cutoff for f in side.series) for side in (F, G))
    A = np.array([F.shells(i, p, s, N1 + 1) for _, i, p, *_ in rows])
    S = np.array([G.shells(j, q, s, N2 + 2) for _, _, _, j, q, *_ in rows])
    S = np.cumsum(S[..., ::-1], axis=-1)[..., ::-1]    # sum over j' >= j
    key_of, aw, m = (np.array([row[k] for row in rows]) for k in (0, 5, 6))
    # shell i of the F factor pairs with the G shells j >= m + 1 - i
    lo = np.clip(m[:, None] + 1 - np.arange(N1 + 1), 0, N2 + 1)
    g = np.take_along_axis(S, lo[:, None, :], axis=2)
    sig = np.bincount(key_of, aw * (A[:, 0] * g[:, 0]).sum(axis=1), len(keys))
    sx = np.bincount(key_of, aw * (A[:, 1] * g[:, 0]
                                   + A[:, 0] * g[:, 1]).sum(axis=1), len(keys))
    # roundings in a chain: a shell sum, the exp of the rounded s|k|_1, the
    # suffix sum, the dot, the sums over products and keys, and _vf_of
    d, N = F.jet.d, max(N1, N2)
    return ([_vf_of(key[0], float(sig[t]), float(sx[t]), r)
             if sig[t] or sx[t] else 0.0 for t, key in enumerate(keys)],
            (2 * N + 1) ** d + 2 * N + len(rows) + len(keys)
            + math.ceil(s * d * N) + 32)


def _raised(total: float, chain: int) -> float:
    """A float sum of nonnegative terms, at most `chain` roundings from
    their exact values, raised by 2 gamma_chain: an upper bound for the
    exact sum."""
    nu = chain * 2.0 ** -53
    return total * (1.0 + 2.0 * nu / (1.0 - nu))


def _whole_bounds(F: _Side, G: _Side, keys, cand, s: float,
                  r: float) -> list:
    """Per key of `cand`, a bound for the vector-field norm of its whole
    contribution: what `_dropped_bounds` gives a key that keeps nothing
    (m = -1, every shell pair), each raised for its own rounding chain and
    for that of a sum over the keys."""
    bounds, chain = _dropped_bounds(F, G, {key: keys[key] for key in cand},
                                    {}, s, r)
    return [_raised(bound, chain) for bound in bounds]


def _grid_kernel(F: "HamiltonianJet", gs: _Side, channels):
    """Sum of the channel products on one FFT grid, f the side (`_Side`)
    of F and g = `gs` the side of G its caller hands in; returns (terms,
    tail).  The products are `channels(f.sigs, f.moves, g.sigs, g.moves)`.
    In a Lie series `gs` is the generator's side for the whole series, so
    what it derives from G is derived once per series; nothing that holds
    a grid outlives the call.

    A channel product (i, p, j, q, sig, w) is w times the product of part p
    of F's i-th term and part q of G's j-th term, part 0 being the term and
    part 1 + a its x_a-partial, which is multiplied into the coefficient
    block `_wrapped_transform` takes.  Products are summed by key (sig, c),
    c the box f.cutoff + g.cutoff of the pair, in F-term order.  A key
    keeps the modes |k|_inf <= m = min(c, cap) of its own box, none past
    max_degree; `_dropped_bounds` books the rest in `tail`, and an
    over-degree key never touches the grid.  Neither does a key whose
    whole contribution is bounded by `gs.limit`, which `lie_transform`
    sets from a series' second bracket on: before any transform, each live
    key's bound is read off the same shell sums at m = -1
    (`_whole_bounds`), and a key within the limit is booked in `tail`
    whole, as an over-degree key is, and counted in `gs.skipped` and
    `gs.booked`.  Parts sit wrapped (mode k at index k mod L) on
    L >= c + m + 1 points per axis over the kept keys, and
    L >= 2 cutoff + 1 per part: a kept mode's aliases lie at
    |k|_inf >= L - m > c, outside its key's box.  Every part is
    transformed once, while it is in use; keys run in order of their first
    product, summed in the rows of a slab of at most _BATCH_BYTES that is
    inverse-transformed once full.  The output series take over the arrays
    summed here (`_adopt`), uncopied.

    When F and G are exactly real (`_mirrors`), only keys (a, b, c) with
    b <= c are computed: a b = c output is projected onto the real
    subspace, 0.5 (t + conj_function(t)), and a b > c output is the
    conj_function of its mirror (a, c, b); a b < c key the budget skips
    takes its mirror with it.  A mirror part first used
    while its partner's grid is live is that grid's conjugate, taken at
    each use into the product's own grid: it is never stored, and the
    partner stays live until the mirror's last use.
    """
    d = F.d
    fs = _Side(F)
    tf, tg = fs.series, gs.series
    keys = {}           # (sig, box) -> its products (i, p, j, q, w)
    for i, p, j, q, sig, w in channels(fs.sigs, fs.moves, gs.sigs,
                                       gs.moves):
        keys.setdefault((sig, tf[i].cutoff + tg[j].cutoff), []).append(
            (i, p, j, q, w))
    cap = F.cutoff_cap
    kept = {key: key[1] if cap is None else min(key[1], cap)
            for key in keys if weighted_degree(key[0]) <= F.max_degree}
    mirror = {"F": fs.mirror, "G": gs.mirror}
    real = None not in mirror.values()
    live = [key for key in kept if not (real and key[0][1] > key[0][2])]
    skipped, booked = set(), 0.0
    if gs.limit > 0:
        # a real mirror's parts have its partner's magnitudes and |w|, so
        # its exact bound is the partner's
        for key, bound in zip(live, _whole_bounds(fs, gs, keys, live,
                                                  F.s_ref, F.r_ref)):
            if bound <= gs.limit:
                (a, b, c), box = key
                pair = (key, ((a, c, b), box)) if real and b < c else (key,)
                skipped.update(pair)
                booked += len(pair) * bound
        for key in skipped:
            del kept[key]
        live = [key for key in live if key in kept]
        gs.skipped += len(skipped)
        gs.booked += booked
    width = {}              # output cutoff per sig
    for (sig, _), m in kept.items():
        width[sig] = max(width.get(sig, 0), m)
    rest = {key: prods for key, prods in keys.items() if key not in skipped}
    bounds, chain = _dropped_bounds(fs, gs, rest, kept, F.s_ref, F.r_ref)
    tail = _raised(sum(bounds), chain) + booked
    if not live:
        return {}, tail
    first, last = {}, {}    # first and last use of each part
    for pos, (i, p, j, q, _) in enumerate(
            prod for key in live for prod in keys[key]):
        for x in (("F", i, p), ("G", j, q)):
            first.setdefault(x, pos)
            last[x] = pos
    # a part first used while its mirror partner's grid is live is that
    # grid's conjugate: it is read off the partner at each use, which then
    # stays live until the part's last use, and is never stored
    partner = {}
    for x in first if real else ():
        y = (x[0], mirror[x[0]][x[1]], x[2])
        if y in first and first[y] < first[x] < last[y]:
            partner[x] = y
    for x, y in partner.items():
        last[y] = max(last[y], last[x])
    N = max((tf if side == "F" else tg)[t].cutoff for side, t, _ in last)
    L = next_fast_len(max([2 * N + 1] + [c + kept[sig, c] + 1
                                         for sig, c in live]))
    tmp = np.empty((L,) * d, dtype=complex)
    slab = np.empty((min(len(live), max(1, _BATCH_BYTES // tmp.nbytes)),)
                    + tmp.shape, dtype=complex)
    grids, pending, acc = {}, [], {}

    def part(x, out):
        """The grid of part x; a mirror read off its partner goes to out,
        or to a new array when out is None."""
        if x in partner:
            return np.conj(grids[partner[x]], out=out)
        if x not in grids:
            side, t, p = x
            f = (tf if side == "F" else tg)[t]
            grids[x] = _wrapped_transform(f.data * _ik(d, f.cutoff, p - 1)
                                          if p else f.data, L)[0, 0]
        return grids[x]

    def flush():
        M = max(kept[key] for key in pending)
        out = _kept_inverse(slab[:len(pending)], M)
        for key, grid in zip(pending, out):
            sig, m, K = key[0], kept[key], width[key[0]]
            if sig not in acc:
                acc[sig] = np.zeros((2 * K + 1,) * d, dtype=complex)
            acc[sig][(slice(K - m, K + m + 1),) * d] += \
                grid[(slice(M - m, M + m + 1),) * d]
        pending.clear()

    pos = 0
    for key in live:
        buf = slab[len(pending)]
        for t, (i, p, j, q, w) in enumerate(keys[key]):
            x, y = ("F", i, p), ("G", j, q)
            out = tmp if t else buf
            px = part(x, out)
            out = np.multiply(px, part(y, None if px is out else out),
                              out=out)
            if w != 1:
                out *= w
            if t:
                buf += out
            for z in (partner.get(x, x), partner.get(y, y)):
                if last[z] == pos:
                    del grids[z]
            pos += 1
        pending.append(key)
        if len(pending) == len(slab):
            flush()
    if pending:
        flush()
    for (a, b, c), v in acc.items():
        if real and b == c:
            v = 0.5 * (v + np.conj(np.flip(v)))
        acc[a, b, c] = FourierSeries._adopt(d, (1, 1), width[a, b, c],
                                            v[None, None])
    return {(a, b, c): acc[a, b, c] if (a, b, c) in acc
            else acc[a, c, b].conj_function() for a, b, c in width}, tail


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
        return replace(self, terms=terms, tail=self.tail + other.tail,
                       max_degree=max(self.max_degree, other.max_degree))

    def __sub__(self, other: "HamiltonianJet") -> "HamiltonianJet":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "HamiltonianJet":
        terms = {sig: f * scalar for sig, f in self.terms.items()}
        return replace(self, terms=terms, tail=self.tail * abs(scalar))

    __rmul__ = __mul__

    def max_abs_coeff(self) -> float:
        return max((f.max_abs_coeff() for f in self.terms.values()),
                   default=0.0)


# ----------------------------------------------------------------------
# contract operations
# ----------------------------------------------------------------------

def poisson_bracket(F: HamiltonianJet, G: HamiltonianJet,
                    side: _Side | None = None) -> HamiltonianJet:
    """{F,G} = <F_x,G_y> - <F_y,G_x> + i<F_z,G_zbar> - i<F_zbar,G_z>.

    All channels run in one `_grid_kernel` call: each term and x-partial is
    transformed once and each (signature, box) inverse-transformed once.
    `side` is G's `_Side`: `lie_transform` hands in its generator's, with
    the series budget; by default a new one, without a budget."""
    if (F.d, F.n) != (G.d, G.n):
        raise ValueError("dimension mismatch")
    if side is None:
        side = _Side(G)
    terms, tail = {}, 0.0
    if F.terms and G.terms:
        terms, tail = _grid_kernel(F, side, _bracket_channels)
    # the unrepresented parts enter as tail times the other factor's vf
    # norm: an estimate, not a bound of their bracket, which also carries
    # their x-derivatives
    cross = 0.0
    if F.tail:
        cross += F.tail * side.vf
    if G.tail:
        cross += G.tail * vf_norm(F, F.s_ref, F.r_ref)
    return replace(F, terms=terms, tail=tail + cross,
                   max_degree=max(F.max_degree, G.max_degree))


def vf_norm(P: HamiltonianJet, s: float, r: float) -> float:
    """The weighted phase norm of X_P on D(s, r) as each term's bound plus
    P's tail.  An upper bound while no tail has been bracketed again: a
    tail that entered a bracket as tail times a vf norm does not bound the
    bracket of the part it stands for (see the module docstring)."""
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
    return JetSplit(low=replace(P, terms=low, tail=0.0),
                    high=replace(P, terms=high))


def check_reality(P: HamiltonianJet, tol: float = 1e-12):
    """Verify conj(coeff(a,b,c)(k)) == coeff(a,c,b)(-k).

    Returns (ok, worst_violation).
    """
    worst = 0.0
    for a, b, c in set(P.terms) | {(a, c, b) for a, b, c in P.terms}:
        f, g = P.term((a, b, c)), P.term((a, c, b))
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
    return replace(P, terms=out)


class LieSeriesDivergence(ArithmeticError):
    """The term norms of a Lie series grew from one order to the next: the
    order, the norms before and after (exact, as `repr` prints them) and
    the level, which `driver.kam_step` adds."""

    def __init__(self, order: int, before: float, after: float):
        super().__init__(order, before, after)
        self.order, self.before, self.after = order, before, after
        self.level = None

    def __str__(self):
        at = "" if self.level is None else f" at level {self.level}"
        return (f"Lie series terms grow{at} at order {self.order}: "
                f"{self.before!r} -> {self.after!r}")


@dataclass
class LieResult:
    jet: HamiltonianJet
    tail_bound: float
    term_norms: list[float]
    skipped_keys: int       # keys the series budget booked in the tail
    skipped_bound: float    # the sum of their booked bounds


def lie_transform(H: HamiltonianJet, F: HamiltonianJet,
                  order: int = 3) -> LieResult:
    """H composed with the time-1 flow of X_F: sum_j ad_F^j H / j!.

    The reported tail bound is the vf_norm (on the reference domain) of the
    first omitted term.  Raises `LieSeriesDivergence` if the term norms
    grow, which signals a divergent expansion.

    The series is summed to the rounding of its first-order term: bracket
    j >= 2 books in its tail, untransformed, each key whose bound over j!
    is at most u |{H, F}| (u = `_ROUNDING`, |.| the vf norm).  Every
    bracket takes F's one `_Side`, which holds that budget in `limit` and
    counts the keys and sums their booked bounds for the result.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    out = H
    term = H
    norms = [vf_norm(term, H.s_ref, H.r_ref)]
    fact = 1.0
    side = _Side(F)
    for j in range(1, order + 2):
        fact *= j
        if j >= 2:
            side.limit = _ROUNDING * norms[1] * fact
        term = poisson_bracket(term, F, side)
        norm_j = vf_norm(term, H.s_ref, H.r_ref) / fact
        norms.append(norm_j)
        if j >= 2 and norm_j > norms[-2] and norm_j > 1e-13:
            raise LieSeriesDivergence(j, norms[-2], norm_j)
        if j <= order:
            out = out + (1.0 / fact) * term
    tail_bound = norms[order + 1]
    jet = replace(out, tail=out.tail + tail_bound)
    return LieResult(jet=jet, tail_bound=tail_bound, term_norms=norms,
                     skipped_keys=side.skipped, skipped_bound=side.booked)


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
            terms[(_unit(d, i), (0,) * n, (0,) * n)] = \
                FourierSeries.constant(d, self.omega[i])
        for i in range(n):
            for j in range(n):
                coef = self.B.entry(j, i)
                if i == j:
                    coef = coef + FourierSeries.constant(d, self.Omega[i])
                if coef.data.any():
                    terms[((0,) * d, _unit(n, i), _unit(n, j))] = coef
        return HamiltonianJet(d, n, terms, **jet_kw)


def _unit(n: int, *js: int) -> tuple[int, ...]:
    """Exponents of the monomial prod_j v_j in n variables."""
    return tuple(sum(t == j for j in js) for t in range(n))


def _table(d: int, rows: int, cols: int, entry) -> FourierSeries:
    """The (rows, cols) matrix series with scalar entries entry(i, j)."""
    parts = [[entry(i, j) for j in range(cols)] for i in range(rows)]
    N = max(f.cutoff for row in parts for f in row)
    return FourierSeries(d, (rows, cols), N, np.array(
        [[f.pad(N).data[0, 0] for f in row] for row in parts]))


def component_x(P: HamiltonianJet) -> FourierSeries:
    """The scalar part R^x(x)."""
    return P.term(((0,) * P.d, (0,) * P.n, (0,) * P.n))


def component_y(P: HamiltonianJet) -> FourierSeries:
    """R^y as a d x 1 vector series (coefficient of y_i)."""
    zn = (0,) * P.n
    return _table(P.d, P.d, 1, lambda i, _: P.term((_unit(P.d, i), zn, zn)))


def component_z(P: HamiltonianJet) -> FourierSeries:
    zd, zn = (0,) * P.d, (0,) * P.n
    return _table(P.d, P.n, 1, lambda j, _: P.term((zd, _unit(P.n, j), zn)))


def matrix_zz(P: HamiltonianJet) -> FourierSeries:
    """Symmetric M with the z z block equal to (1/2) <M z, z>.

    M_ij = coeff(z_i z_j) for i != j, M_ii = 2 coeff(z_i^2).
    """
    zd, zn = (0,) * P.d, (0,) * P.n
    return _table(P.d, P.n, P.n, lambda i, j: (1.0 + (i == j)) * P.term(
        (zd, _unit(P.n, i, j), zn)))


def matrix_zzbar(P: HamiltonianJet) -> FourierSeries:
    """M with the z zbar block equal to <M z, zbar>: M_ji = coeff(z_i zbar_j)."""
    zd = (0,) * P.d
    return _table(P.d, P.n, P.n, lambda j, i: P.term(
        (zd, _unit(P.n, i), _unit(P.n, j))))


def jet_from_parts(d: int, n: int,
                   Fx: FourierSeries | None = None,
                   Fy: FourierSeries | None = None,
                   Fz: FourierSeries | None = None,
                   Fzbar: FourierSeries | None = None,
                   Fzz: FourierSeries | None = None,
                   Fzbzb: FourierSeries | None = None,
                   **jet_kw) -> HamiltonianJet:
    """Assemble F^x + <F^y,y> + <F^z,z> + <F^zbar,zbar>
    + (1/2)<F^zz z,z> + (1/2)<F^zbzb zbar,zbar> as a jet."""
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
    for M, zz in ((Fzz, True), (Fzbzb, False)):
        for i in range(n if M is not None else 0):
            for j in range(i, n):
                e = _unit(n, i, j)
                put((zd, e, zn) if zz else (zd, zn, e),
                    0.5 * (M.entry(i, i) if i == j
                           else M.entry(i, j) + M.entry(j, i)))
    return HamiltonianJet(d, n, terms, **jet_kw)
