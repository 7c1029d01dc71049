"""Region combinatorics and multiscale coupling of Green's-function bounds.

Geometry follows the sup metric on Z^d: cubes Q_M(m) are sup-balls, an
elementary region is a block minus a translated copy of itself (a rectangle,
an L-shaped region, or a lower-dimensional rectangle), and exhaustions grow
a center by width-2M cube unions.

The coupling lemmas are implemented as bound-propagation algorithms on
scalars: every multiplier is computed from measured matrix entries and exact
site geometry, never from asymptotic absorption, so that each emitted
certificate is falsifiable against direct inversion.  Emitted certificates
use the |.|_1 distance convention of the greens module; a sup-metric decay
rate alpha converts to the (weaker but sound) rate alpha/d.

`classify_annuli(ex, M, classifier)` asks the caller's classifier;
`DirectClassifier` inverts each site set once, block by block on its
components, and keeps the in-block magnitudes of G for its verdict, `norm`
and `entry_prefactor` alike; CL2 reads T's envelope off the same blocks.
Neither forms a full G or a dense T.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .greens import (CertificateGateError, DecayCertificate, _block_norm,
                     _in_block_distances, _in_block_magnitudes,
                     _site_magnitudes, decay_certificate, far_rate,
                     measure_alpha, site_distances)
from .homological import (LatticeMatrix, NearSingularError, _block_inverse,
                          _component_blocks)


def sup_dist(a, b) -> int:
    return max(abs(x - y) for x, y in zip(a, b))


def cube_sites(center, M) -> set:
    """Q_M(center): the box of radius M, or of radius M[i] along axis i."""
    rng = [range(c - r, c + r + 1) for c, r in
           zip(center, M if isinstance(M, tuple) else itertools.repeat(M))]
    return set(itertools.product(*rng))


def diameter(sites) -> int:
    pts = np.array(sorted(sites), dtype=int)
    return int((pts.max(axis=0) - pts.min(axis=0)).max())


# decay rate assumed for the operator's off-diagonal entries, and the decay
# rate a CL2 coupling starts from when no previous scale supplies one
RHO = 0.5
ALPHA0 = 0.4


@dataclass(frozen=True)
class ScaleConfig:
    b: float = 0.996
    theta: float = 0.997
    kappa: float = 0.005

    def __post_init__(self):
        if not (0 < self.b < self.theta < 1):
            raise ValueError("need 0 < b < theta < 1")
        if not self.kappa < 1e-2:
            raise ValueError("need kappa < 1e-2")


# ----------------------------------------------------------------------
# elementary regions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ElementaryRegion:
    d: int
    block_center: tuple
    half_widths: tuple
    shift: tuple | None = None

    @cached_property
    def _sites(self) -> tuple:
        out = cube_sites(self.block_center, tuple(self.half_widths))
        if self.shift is not None:
            out -= {tuple(x + s for x, s in zip(p, self.shift)) for p in out}
        if not out:
            raise ValueError("realized set is empty")
        return tuple(sorted(out))

    def sites(self) -> tuple:
        """The realised sites, sorted, built once per region."""
        return self._sites

    def site_set(self) -> frozenset:
        return frozenset(self.sites())

    @property
    def diam(self) -> int:
        return diameter(self.sites())

    def bounding_box(self) -> tuple:
        pts = np.array(self.sites(), dtype=int)
        return tuple(pts.min(axis=0)), tuple(pts.max(axis=0))

    def classification(self) -> str:
        lo, hi = self.bounding_box()
        nbox = int(np.prod([h - l + 1 for l, h in zip(lo, hi)]))
        if len(self.sites()) == nbox:
            if self.d > 1 and any(h == l for l, h in zip(lo, hi)):
                return "lower-dimensional"
            return "rectangle"
        return "l-shaped"

    def interior_corner(self) -> tuple | None:
        """The corner of the cut-out lying inside the hull (L-shaped only)."""
        if self.classification() != "l-shaped":
            return None
        # the cut-out is the box where the hull meets the shifted block
        lo, hi = self.bounding_box()
        centre = np.add(self.block_center, self.shift)
        clo = tuple(map(int, np.maximum(lo, centre - self.half_widths)))
        chi = tuple(map(int, np.minimum(hi, centre + self.half_widths)))
        # the corner strictly interior in the most axes, the first in
        # the (sorted) product order on a tie
        return max(itertools.product(*zip(clo, chi)),
                   key=lambda c: sum(lo[i] < c[i] < hi[i]
                                     for i in range(self.d)))


def random_elementary_region(rng, d: int, min_half: int = 2,
                             max_half: int = 6) -> ElementaryRegion:
    while True:
        center = tuple(int(c) for c in rng.integers(-3, 4, size=d))
        half = tuple(int(h) for h in rng.integers(min_half, max_half + 1,
                                                  size=d))
        u = rng.random()
        if u < 0.3:
            shift = None
        elif u < 0.5 and d > 1:
            # axis-aligned unit shift: leaves a lower-dimensional slab
            axis = int(rng.integers(d))
            shift = tuple(int(rng.choice([-1, 1])) if i == axis else 0
                          for i in range(d))
        else:
            shift = tuple(int(s) for s in
                          (rng.integers(1, 2 * h + 2) * rng.choice([-1, 1])
                           for h in half))
        try:
            reg = ElementaryRegion(d, center, half, shift)
            reg.sites()
            return reg
        except ValueError:
            continue


# ----------------------------------------------------------------------
# exhaustions and annuli
# ----------------------------------------------------------------------

@dataclass
class Exhaustion:
    region_sites: frozenset
    sets: list            # S_0 .. S_l, each a frozenset, S_l != region
    annuli: list          # A_j = S_j \ S_{j-1}
    remainder: frozenset  # region \ S_l (nonempty unless S_0 == region)
    exceptional: int | None   # annulus index nearest the interior corner


def build_exhaustion(region: ElementaryRegion, m, M: int) -> Exhaustion:
    sites = region.site_set()
    m = tuple(m)
    if m not in sites:
        raise ValueError("center not in region")
    if M < 1:
        raise ValueError("M >= 1 required")
    S = frozenset(cube_sites(m, M) & sites)
    sets, annuli = [S], [S]
    while True:
        nxt = set()
        for n in sets[-1]:
            nxt |= cube_sites(n, 2 * M)
        nxt = frozenset(nxt & sites)
        if nxt == sites or nxt == sets[-1]:
            break
        annuli.append(nxt - sets[-1])
        sets.append(nxt)
    remainder = sites - sets[-1]
    exceptional = None
    corner = region.interior_corner()
    if corner is not None:
        pieces = annuli + ([remainder] if remainder else [])
        dists = [min(sup_dist(p, corner) for p in piece) for piece in pieces]
        exceptional = int(np.argmin(dists))
    return Exhaustion(region_sites=sites, sets=sets, annuli=annuli,
                      remainder=remainder, exceptional=exceptional)


def _decays(gfar: np.ndarray, bound: np.ndarray) -> bool:
    """|G(x,y)| <= e^{-alpha dist(x,y)} on every far site pair, from G's
    site magnitudes `gfar` and bounds `bound` there; true with no pair."""
    return bool((gfar <= bound).all())


class DirectClassifier:
    """Good/bad classification of site sets by direct inversion.

    A set of sup diameter L is good when the restricted inverse exists with
    ||G|| <= e^{L^b} and |G(x,y)| <= e^{-alpha |x-y|_sup} for
    |x-y|_sup > L^theta.  Each set is inverted once, block by block on
    its components as `_Prober` inverts: its record holds the verdict, the
    in-block site magnitudes of G and their sup distances (G is zero
    between components) and ||G||_2, or the NearSingularError the
    inversion raised, which `norm` and `entry_prefactor` raise again.
    """

    def __init__(self, T: LatticeMatrix, alpha: float, b: float, theta: float):
        self.T, self.alpha, self.b, self.theta = T, alpha, b, theta
        self._records: dict = {}

    def _record(self, sites):
        key = frozenset(sites)
        if key not in self._records:
            T = self.T.restrict(key)
            parts = _component_blocks(T)
            try:
                inverses, _ = _block_inverse([B for _, _, B in parts])
            except NearSingularError as exc:
                self._records[key] = exc
                return exc
            gmag = _in_block_magnitudes(inverses, T.nblock)
            dist = _in_block_distances(T, parts, np.maximum)
            norm = _block_norm(inverses)
            L = max(diameter(key), 1)
            far = dist > L ** self.theta
            good = bool(norm <= np.exp(L ** self.b) and _decays(
                gmag[far], np.exp(-self.alpha * dist[far])))
            self._records[key] = (good, gmag, dist, norm)
        return self._records[key]

    def _measured(self, sites) -> tuple:
        record = self._record(sites)
        if isinstance(record, NearSingularError):
            raise record
        return record

    def __call__(self, sites) -> bool:
        record = self._record(sites)
        return not isinstance(record, NearSingularError) and record[0]

    def norm(self, sites) -> float:
        return self._measured(sites)[3]

    def entry_prefactor(self, sites, rate: float) -> float:
        """max over pairs of |G(x,y)| e^{rate |x-y|_sup} for the restriction."""
        _, gmag, dist, _ = self._measured(sites)
        return float((gmag * np.exp(rate * dist)).max())


@dataclass
class AnnulusReport:
    flags: list          # True = good, per annulus (remainder included last)
    bad_count: int
    exceptional: int | None


def classify_annuli(ex: Exhaustion, M: int, classifier) -> AnnulusReport:
    """Per-annulus goodness under `classifier` (site set -> good?): an
    annulus is good iff every n in it has both Q_M(n) cap A_j and
    Q_M(n) cap Lambda good; the exceptional annulus is always bad."""
    pieces = list(ex.annuli) + ([ex.remainder] if ex.remainder else [])
    flags = [j != ex.exceptional and all(
        classifier(q & piece) and classifier(q & ex.region_sites)
        for q in (cube_sites(n, M) for n in sorted(piece)))
        for j, piece in enumerate(pieces)]
    return AnnulusReport(flags=flags, bad_count=flags.count(False),
                         exceptional=ex.exceptional)


# ----------------------------------------------------------------------
# resolvent bound propagation (CL1 and the two-scale coupling)
# ----------------------------------------------------------------------

def _propagate_bounds(T: LatticeMatrix, windows: dict,
                      dist1: np.ndarray) -> np.ndarray:
    """Entrywise bound on |G_Lambda| from window certificates, given the
    l1 distances `dist1` of T's region.

    For each site x the resolvent identity on its window U(x) gives
    g(x, y) <= a(x, y) + sum_v K(x, v) g(v, y); with row sums of K below the
    contraction gate 0.1, the solution of (I - K) g = a dominates |G|
    entrywise.
    """
    region = T.region
    m = len(region)
    idx = {k: i for i, k in enumerate(region)}
    tmag = _site_magnitudes(T.to_dense(), m, T.nblock)
    a = np.zeros((m, m))
    K = np.zeros((m, m))
    for x, cert in windows.items():
        i = idx[x]
        U = frozenset(map(tuple, cert.region))
        if not U.issubset(idx):
            raise CertificateGateError(f"window of {x} leaves the region "
                                       f"at {min(U.difference(idx))}")
        inU = np.fromiter(map(U.__contains__, region), bool, m)
        a[i, inU] = cert.entry_bound(dist1[i, inU])
        K[i, ~inU] = a[i, inU] @ tmag[inU][:, ~inU]
    rows = K.sum(axis=1)
    if rows.max() >= 0.1:
        raise CertificateGateError(
            f"resolvent contraction factor {rows.max():.3e} >= 0.1")
    g = np.linalg.solve(np.eye(m) - K, a)
    return np.maximum(g, 0.0)


def _emit(T: LatticeMatrix, windows: dict, provenance: str,
          extra: dict) -> DecayCertificate:
    """Certificate for T's region from the propagated window bounds, with
    the largest window threshold."""
    dist1 = site_distances(T.region)
    g = _propagate_bounds(T, windows, dist1)
    threshold = max(c.threshold for c in windows.values())
    norm = float(np.linalg.norm(g, 2)) * (1 + 1e-6)
    alpha = measure_alpha(g, dist1, threshold)
    return decay_certificate(norm, alpha, threshold, T.region, provenance,
                             extra)


def cl1_couple(T: LatticeMatrix, site_certs: dict, M: int
               ) -> DecayCertificate:
    """Couple per-site window certificates into one for the whole region.

    Each site m must come with a certificate for a window U(m) (the
    certificate's own region) containing m with dist(m, region \\ U(m))
    > M/2.  The certified bound is produced by the resolvent propagation
    above; the nominal conclusion (norm <= 2 |region|^d max site norm,
    alpha >= min alpha - (log |region|)^-50) is reported alongside.
    """
    region = T.region
    sites = frozenset(region)
    site_certs = {tuple(k): v for k, v in site_certs.items()}
    for x in region:
        cert = site_certs.get(tuple(x))
        if cert is None:
            raise CertificateGateError(f"site {tuple(x)} lacks a certificate")
        U = {tuple(w) for w in cert.region}
        if tuple(x) not in U:
            raise CertificateGateError(f"window of {tuple(x)} misses the site")
        outside = sites - U
        if outside and min(sup_dist(x, v) for v in outside) <= M / 2:
            raise CertificateGateError(
                f"window of {tuple(x)} too close to its complement")
    N = max(diameter(region), 2)
    alphas = [c.alpha for c in site_certs.values()]
    nominal = {
        "norm_nominal": 2.0 * N ** T.d
        * max(c.norm_bound for c in site_certs.values()),
        "alpha_nominal": min(alphas) - np.log(N) ** -50,
    }
    return _emit(T, site_certs, "cl1", nominal)


def two_scale_couple(T: LatticeMatrix, certK: DecayCertificate,
                     certsM0: dict, K: int, M0: int) -> DecayCertificate:
    """Couple one bulk window certificate (side K) with boundary windows of
    side M0 into a certificate for the full cube [-N, N]^d.

    Sites with |x|_sup <= K/2 use the bulk window; every other site must
    have a window certificate centered at it in `certsM0`.
    """
    region = T.region
    N = max(abs(c) for k in region for c in k)
    if not (2 * M0 < K <= N):
        raise CertificateGateError("need 2 M0 < K <= N")
    bulk_covers_all = frozenset(map(tuple, region)) \
        <= frozenset(map(tuple, certK.region))
    windows = {}
    for x in region:
        if bulk_covers_all or max(abs(c) for c in x) <= K / 2:
            windows[tuple(x)] = certK
        else:
            cert = certsM0.get(tuple(x))
            if cert is None:
                raise CertificateGateError(
                    f"missing window certificate at {tuple(x)}")
            windows[tuple(x)] = cert
    logN = np.log(max(2 * N + 1, 3))
    rates = [certK.alpha] + [c.alpha for c in certsM0.values()]
    nominal = {"gamma_nominal": min(min(rates), RHO) - logN ** -8}
    return _emit(T, windows, "two_scale", nominal)


# ----------------------------------------------------------------------
# CL2: the alternating-exhaustion multiplier recursion
# ----------------------------------------------------------------------

def _runs(flags):
    """Group consecutive indices by their flag: (flag, indices) runs."""
    return [(flag, list(grp)) for flag, grp in
            itertools.groupby(range(len(flags)), key=lambda j: flags[j])]


def cl2_couple(T: LatticeMatrix, config: ScaleConfig,
               scale_certs: DirectClassifier, region: ElementaryRegion,
               M_prev: int, alpha_prev: float | None = None,
               budget: float | None = None) -> DecayCertificate:
    """Large-scale decay from a good/bad classification at the previous
    scale, via the alternating-exhaustion multiplier recursion.

    `scale_certs` is the previous-scale classifier (site set -> good?),
    which doubles as the norm/prefactor oracle for the measured
    multipliers.  The region is GOOD when every center's exhaustion has at
    most kappa * diam^theta / M_prev bad annuli; otherwise the call refuses,
    listing the offending center and annuli.

    The recursion tracks, for each center m, a prefactor phi with
    |G(m, y)| <= phi e^{-beta |m-y|_sup}: crossing a run of bad annuli
    multiplies phi by 1 + (pair count) * ||G|| * e^{beta backtrack}, and a
    run of good annuli by the measured good-union prefactor; all factors are
    computed from exact site geometry and measured norms (the paper-level
    nominal result beta (1 - 15 kappa) is reported alongside).
    """
    beta = min(alpha_prev if alpha_prev is not None else ALPHA0, RHO)
    sites = region.site_set()
    diam = max(region.diam, 2)
    if budget is None:
        budget = config.kappa * diam ** config.theta / M_prev
    # |T(x,y)| <= t_pref e^{-rho |x-y|}, measured on T's component blocks
    full = T.restrict(sites)
    parts = _component_blocks(full)
    tmag = _in_block_magnitudes([B for _, _, B in parts], full.nblock)
    dsup = _in_block_distances(full, parts, np.maximum)
    off = dsup > 0
    t_pref = float((tmag[off] * np.exp(RHO * dsup[off])).max()) \
        if off.any() else 0.0
    phi_worst = 1.0
    for m in region.sites():
        ex = build_exhaustion(region, m, M_prev)
        rep = classify_annuli(ex, M_prev, scale_certs)
        if rep.bad_count > budget:
            bad = [j for j, f in enumerate(rep.flags) if not f]
            raise CertificateGateError(
                f"region is BAD: center {m} has {rep.bad_count} bad annuli "
                f"{bad} > budget {budget:.3f}")
        pieces = list(ex.annuli) + ([ex.remainder] if ex.remainder else [])
        phi = scale_certs.entry_prefactor(pieces[0], beta)
        J = set(pieces[0])
        for good, run in _runs(rep.flags[1:]):
            run_pieces = set().union(*[pieces[j + 1] for j in run])
            Jnext = J | run_pieces
            n_pairs = len(J) * len(run_pieces)
            W = scale_certs.norm(Jnext)
            dmin_run = min(sup_dist(m, z) for z in run_pieces)
            dmax_old = max(sup_dist(m, y) for y in J)
            dmax_next = max(dmax_old,
                            max(sup_dist(m, y) for y in run_pieces))
            if good:
                # columns in J first (backtrack within J only), then the
                # good-union columns through its measured prefactor
                back = max(0, dmax_old - dmin_run)
                phi_a = phi * (1.0 + n_pairs * t_pref * W
                               * np.exp(beta * back))
                cU = scale_certs.entry_prefactor(run_pieces, beta)
                phi = max(phi_a, phi_a * n_pairs * t_pref * cU)
            else:
                back = max(0, dmax_next - dmin_run)
                phi = phi * (1.0 + n_pairs * t_pref * W
                             * np.exp(beta * back))
            J = Jnext
        phi_worst = max(phi_worst, phi)
    threshold = max(int(np.ceil(diam ** config.theta)), 1)
    # |G(m,n)| <= phi e^{-beta |m-n|_sup} and |.|_sup >= |.|_1 / d:
    # certified l1 rate beyond the threshold
    alpha_out = max(beta / region.d - np.log(phi_worst) / threshold, 0.0)
    norm = scale_certs.norm(sites) * (1 + 1e-6)
    region1 = tuple(sorted(sites))
    nominal = beta * (1 - 15 * config.kappa)
    return decay_certificate(
        norm, alpha_out, threshold, region1, "cl2",
        {"alpha_nominal": nominal, "phi": float(phi_worst), "beta": beta})


# ----------------------------------------------------------------------
# empirical sigma scan
# ----------------------------------------------------------------------

@dataclass
class SigmaScanReport:
    samples: list             # (sigma, passed, norm, alpha) rows
    bad_intervals: list       # (lo, hi) failing windows
    bad_measure: float
    bad_fraction: float
    norm_route: str           # "spectral" (Hermitian T) or "svd"
    factored_probes: int      # probes that ran an LU factorization
    components: tuple         # (count, largest size) of T's components

    def columnar(self) -> str:
        lines = ["sigma pass norm alpha"]
        for s, ok, nrm, al in self.samples:
            lines.append(f"{s:.8f} {int(ok)} {nrm:.6e} {al:.6f}")
        return "\n".join(lines)


class _Prober:
    """Probes of T + sigma in the block basis of T's connected components,
    with the work shared by a whole scan done once: the components, the
    diagonal blocks of the dense form at sigma = 0 (gathered from the
    symbol, float64 when T is real), their eigenvalues when every block is
    Hermitian, and the in-block far-pair mask, the far distances and their
    decay bounds e^{-alpha_target dist}.

    A probe rewrites only the block diagonals.  Site pairs in different
    components are structural zeros of G: they pass the decay test and
    carry no rate, so the test and alpha run on the in-block pairs alone.
    The components come from the symmetrised coupling pattern, so T is
    Hermitian exactly when each of its diagonal blocks is, and its spectrum
    is the union of theirs."""

    def __init__(self, T: LatticeMatrix, targets):
        self.alpha_target, self.threshold, self.norm_target = targets
        self.T0 = T.with_sigma(0.0)
        parts = _component_blocks(self.T0)
        self.blocks0 = [(rows, B) for _, rows, B in parts]
        hermitian = all(np.array_equal(B, B.conj().swapaxes(-2, -1))
                        for _, _, B in parts)
        self.lam = np.concatenate([np.linalg.eigvalsh(B).ravel()
                                   for _, _, B in parts]) \
            if hermitian else None
        dist = _in_block_distances(self.T0, parts, np.add)
        self.far = dist > self.threshold
        self.far_dist = dist[self.far]
        self.far_bound = np.exp(-self.alpha_target * self.far_dist)
        self.components = (sum(len(sites) for sites, _, _ in parts),
                           parts[-1][0].shape[1])
        self.factored = 0

    def _norm(self, sigma: float, inverses) -> float:
        """||G||_2: 1 / min |lambda + sigma| on the spectral route (G is
        not read), max_b ||G_b||_2 otherwise."""
        if self.lam is None:
            return _block_norm(inverses)
        gap = float(np.abs(self.lam + sigma).min())
        return np.inf if gap == 0.0 else 1.0 / gap

    def _factor(self, sigma: float):
        """(block inverses, site magnitudes of G on the far in-block pairs)
        of T + sigma; None when it fails the condition gate."""
        self.factored += 1
        diag = self.T0.dense_diagonal(float(sigma))
        blocks = []
        for rows, B0 in self.blocks0:
            B = B0.copy()
            i = np.arange(rows.shape[1])
            B[:, i, i] = diag[rows]
            blocks.append(B)
        try:
            inverses, _ = _block_inverse(blocks)
        except NearSingularError:
            return None
        return inverses, _in_block_magnitudes(inverses,
                                              self.T0.nblock)[self.far]

    def sample(self, sigma: float) -> tuple:
        """(passed, ||G||_2, measured alpha); (False, inf, 0.0) when T + sigma
        fails the condition gate."""
        probe = self._factor(sigma)
        if probe is None:
            return False, np.inf, 0.0
        inverses, gfar = probe
        norm = self._norm(sigma, inverses)
        decay_ok = _decays(gfar, self.far_bound)
        return (bool(norm <= self.norm_target and decay_ok), norm,
                far_rate(gfar, self.far_dist))

    def decays(self, sigma: float) -> bool:
        """Whether T + sigma passes the condition gate and the decay test;
        the norm is not compared."""
        probe = self._factor(sigma)
        return probe is not None and _decays(probe[1], self.far_bound)

    def norm_edge(self, a: float, b: float) -> float | None:
        """On the spectral route, when b misses the norm target: the edge
        of the windows |lambda + sigma| < 1/norm_target nearest the passing
        point a on the way to b, min {-lambda - delta in [a, b)} for a < b
        and max {-lambda + delta in (b, a]} for b < a.  None otherwise, or
        when rounding leaves no edge in that range."""
        if self.lam is None or not self._norm(b, None) > self.norm_target:
            return None
        delta = 1.0 / self.norm_target
        if a < b:
            edges = -self.lam - delta
            edges = edges[(edges >= a) & (edges < b)]
            return float(edges.min()) if edges.size else None
        edges = -self.lam + delta
        edges = edges[(edges > b) & (edges <= a)]
        return float(edges.max()) if edges.size else None


def sigma_scan(T: LatticeMatrix, sigma_range, targets,
               points_per_unit: float, refine_iters: int) -> SigmaScanReport:
    """Scan the shift family T + sigma (T's own sigma is replaced), marking
    sigma values whose inverse violates the targets (alpha_target,
    threshold, norm_target); failing windows are localized at the pass/fail
    boundaries of the grid.

    Every probe factors T + sigma on T's connected components, one batched
    LU per component size, gated on the exact cond_1 of the blocks, and
    takes the decay test and alpha from the in-block entries of G.  When
    every component block is exactly Hermitian, ||G||_2 = 1 / min |lambda +
    sigma| over their eigenvalues, one batched eigvalsh per block size and
    scan ("spectral" route); otherwise it is the largest block norm
    max_b ||G_b||_2 ("svd" route).

    On the spectral route the norm fails exactly on the windows
    |lambda + sigma| < 1/norm_target, so a boundary whose failing grid point
    misses the norm target ends at the nearest window edge e (`norm_edge`).
    One factored probe at e confirms it with the condition gate and the
    decay test alone; if that fails, or rounding leaves no edge, the
    boundary is bisected on [a, e] (or the grid cell).  Boundaries where
    only the decay test fails, and every svd-route boundary, are bisected
    for `refine_iters` steps, each step one factored probe."""
    lo, hi = float(sigma_range[0]), float(sigma_range[1])
    npts = max(int(np.ceil((hi - lo) * points_per_unit)) + 1, 2)
    grid = np.linspace(lo, hi, npts)
    prober = _Prober(T, targets)
    samples = []
    passed = np.zeros(npts, dtype=bool)
    for i, s in enumerate(grid):
        ok, nrm, al = prober.sample(float(s))
        passed[i] = ok
        samples.append((float(s), ok, nrm, al))

    def bisect(a, b):
        # boundary between the passing a and the failing b
        for _ in range(refine_iters):
            mid = 0.5 * (a + b)
            if prober.sample(mid)[0]:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    def boundary(a, b):
        # end of the failing run at the grid point b, next to the passing a
        e = prober.norm_edge(a, b)
        if e is None:
            return bisect(a, b)
        return e if prober.decays(e) else bisect(a, e)

    intervals = []
    for i, j in ((run[0], run[-1]) for ok, run in _runs(passed) if not ok):
        left = grid[i] if i == 0 else boundary(grid[i - 1], grid[i])
        right = grid[j] if j == npts - 1 else boundary(grid[j + 1], grid[j])
        intervals.append((float(left), float(right)))
    measure = float(sum(b - a for a, b in intervals))
    return SigmaScanReport(samples=samples, bad_intervals=intervals,
                           bad_measure=measure,
                           bad_fraction=measure / (hi - lo) if hi > lo
                           else 0.0,
                           norm_route="svd" if prober.lam is None
                           else "spectral",
                           factored_probes=prober.factored,
                           components=prober.components)


def diagonal_bad_measure(omega, Omega, region, delta, sigma_range) -> float:
    """Exact bad-set measure for a pure diagonal operator: the union of the
    windows |sigma + <k, omega> + Omega_j| < delta, clipped to the range."""
    omega = np.asarray(omega, dtype=float)
    Omega = np.asarray(Omega, dtype=float)
    lo, hi = sigma_range
    ivs = []
    for k in region:
        kw = float(np.dot(k, omega))
        for Om in Omega:
            c = -(kw + Om)
            a, b = max(c - delta, lo), min(c + delta, hi)
            if b > a:
                ivs.append((a, b))
    ivs.sort()
    total, cur = 0.0, None
    for a, b in ivs:
        if cur is None or a > cur[1]:
            if cur is not None:
                total += cur[1] - cur[0]
            cur = [a, b]
        else:
            cur[1] = max(cur[1], b)
    if cur is not None:
        total += cur[1] - cur[0]
    return total
