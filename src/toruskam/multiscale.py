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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace as _dc_replace

import numpy as np
import scipy.linalg as sla

from .greens import (CertificateGateError, DecayCertificate, _lu_inverse,
                     _site_magnitudes, decay_certificate, invert_direct,
                     measure_alpha, site_distances)
from .homological import LatticeMatrix, NearSingularError


def sup_dist(a, b) -> int:
    return max(abs(x - y) for x, y in zip(a, b))


def cube_sites(center, M) -> set:
    rng = [range(c - M, c + M + 1) for c in center]
    return set(itertools.product(*rng))


def diameter(sites) -> int:
    pts = np.array(sorted(sites), dtype=int)
    return int((pts.max(axis=0) - pts.min(axis=0)).max())


@dataclass(frozen=True)
class ScaleConfig:
    beta: float = 0.05
    b: float = 0.996
    theta: float = 0.997
    lam: float = 1.002
    kappa: float = 0.005
    tau: float = 0.5
    rho: float = 0.5
    alpha0: float = 0.4

    def __post_init__(self):
        if not (0 < self.b < self.theta < 1):
            raise ValueError("need 0 < b < theta < 1")
        if not (1 < self.lam < 2 - self.theta):
            raise ValueError("need 1 < lambda < 2 - theta")
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
    ambient: tuple | None = None     # optional (center, half_widths) clip box

    def block_sites(self) -> set:
        rng = [range(c - h, c + h + 1)
               for c, h in zip(self.block_center, self.half_widths)]
        return set(itertools.product(*rng))

    def sites(self) -> tuple:
        R = self.block_sites()
        out = R
        if self.shift is not None:
            moved = {tuple(x + s for x, s in zip(p, self.shift)) for p in R}
            out = R - moved
        if self.ambient is not None:
            c, h = self.ambient
            out = {p for p in out
                   if all(abs(x - cc) <= hh for x, cc, hh in zip(p, c, h))}
        if not out:
            raise ValueError("realized set is empty")
        return tuple(sorted(out))

    def site_set(self) -> frozenset:
        return frozenset(self.sites())

    @property
    def diam(self) -> int:
        return diameter(self.sites())

    def bounding_box(self) -> tuple:
        pts = np.array(self.sites(), dtype=int)
        return tuple(pts.min(axis=0)), tuple(pts.max(axis=0))

    def classification(self) -> str:
        sites = self.site_set()
        lo, hi = self.bounding_box()
        nbox = int(np.prod([h - l + 1 for l, h in zip(lo, hi)]))
        if len(sites) == nbox:
            if self.d > 1 and any(h == l for l, h in zip(lo, hi)):
                return "lower-dimensional"
            return "rectangle"
        return "l-shaped"

    def interior_corner(self) -> tuple | None:
        """The corner of the cut-out lying inside the hull (L-shaped only)."""
        if self.classification() != "l-shaped":
            return None
        sites = self.site_set()
        lo, hi = self.bounding_box()
        cut = {p for p in itertools.product(
            *[range(l, h + 1) for l, h in zip(lo, hi)]) if p not in sites}
        clo = tuple(min(p[i] for p in cut) for i in range(self.d))
        chi = tuple(max(p[i] for p in cut) for i in range(self.d))
        for corner in itertools.product(*zip(clo, chi)):
            if all(lo[i] < corner[i] < hi[i] for i in range(self.d)):
                return corner
        # corner touching the hull boundary in some axis: pick the one
        # strictly interior in the most axes (deterministic tie-break)
        corners = sorted(itertools.product(*zip(clo, chi)))
        best = max(corners,
                   key=lambda c: sum(lo[i] < c[i] < hi[i]
                                     for i in range(self.d)))
        return best


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
    center: tuple
    M: int
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
    return Exhaustion(center=m, M=M, region_sites=sites, sets=sets,
                      annuli=annuli, remainder=remainder,
                      exceptional=exceptional)


def _restrict(T: LatticeMatrix, sites) -> LatticeMatrix:
    return _dc_replace(T, region=tuple(sorted(sites)), _dense=None)


def _sup_dist_matrix(sites) -> np.ndarray:
    pts = np.array(sorted(sites), dtype=int)
    return np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=-1)


def _decays(gmag: np.ndarray, dist: np.ndarray, far: np.ndarray,
            alpha: float) -> bool:
    """|G(x,y)| <= e^{-alpha dist(x,y)} on every far site pair, from the
    site magnitudes `gmag` of G; true when no pair is far."""
    if not far.any():
        return True
    return bool((gmag[far] <= np.exp(-alpha * dist[far])).all())


class DirectClassifier:
    """Good/bad classification of site sets by direct inversion.

    A set of diameter L is good when the restricted inverse exists with
    ||G|| <= e^{L^b} and |G(x,y)| <= e^{-alpha |x-y|_sup} for
    |x-y|_sup > L^theta.
    """

    def __init__(self, T: LatticeMatrix, alpha: float, b: float, theta: float,
                 cond_cap: float = 1e12):
        self.T, self.alpha, self.b, self.theta = T, alpha, b, theta
        self.cond_cap = cond_cap
        self._cache: dict = {}

    def _invert(self, sites):
        sub = _restrict(self.T, frozenset(sites))
        G, cert = invert_direct(sub, cond_cap=self.cond_cap)
        return sub, G, cert

    def __call__(self, sites) -> bool:
        key = frozenset(sites)
        if key in self._cache:
            return self._cache[key]
        try:
            sub, G, cert = self._invert(key)
        except NearSingularError:
            self._cache[key] = False
            return False
        L = max(diameter(key), 1)
        norm_ok = cert.extra["measured_norm"] <= np.exp(L ** self.b)
        dist = _sup_dist_matrix(key)
        far = dist > L ** self.theta
        good = bool(norm_ok and _decays(
            _site_magnitudes(G, sub.nsites, sub.nblock), dist, far,
            self.alpha))
        self._cache[key] = good
        return good

    def norm(self, sites) -> float:
        _, _, cert = self._invert(sites)
        return cert.extra["measured_norm"]

    def entry_prefactor(self, sites, rate: float) -> float:
        """max over pairs of |G(x,y)| e^{rate |x-y|_sup} for the restriction."""
        sub, G, _ = self._invert(sites)
        dist = _sup_dist_matrix(sites)
        gmag = _site_magnitudes(G, sub.nsites, sub.nblock)
        return float((gmag * np.exp(rate * dist)).max())


@dataclass
class AnnulusReport:
    flags: list          # True = good, per annulus (remainder included last)
    bad_count: int
    exceptional: int | None


def classify_annuli(T: LatticeMatrix, ex: Exhaustion, M: int,
                    alpha_target: float, b: float, theta: float,
                    classifier=None) -> AnnulusReport:
    """Per-annulus goodness: an annulus is good iff every n in it has both
    Q_M(n) cap A_j and Q_M(n) cap Lambda good; the exceptional annulus is
    always bad."""
    if classifier is None:
        classifier = DirectClassifier(T, alpha_target, b, theta)
    pieces = list(ex.annuli) + ([ex.remainder] if ex.remainder else [])
    flags = []
    for j, piece in enumerate(pieces):
        if j == ex.exceptional:
            flags.append(False)
            continue
        good = True
        for n in sorted(piece):
            q = cube_sites(n, M)
            if not classifier(frozenset(q & piece)) \
                    or not classifier(frozenset(q & ex.region_sites)):
                good = False
                break
        flags.append(good)
    return AnnulusReport(flags=flags, bad_count=flags.count(False),
                         exceptional=ex.exceptional)


# ----------------------------------------------------------------------
# resolvent bound propagation (CL1 and the two-scale coupling)
# ----------------------------------------------------------------------

def _propagate_bounds(T: LatticeMatrix, windows: dict,
                      gate: float = 0.1) -> np.ndarray:
    """Entrywise bound on |G_Lambda| from window certificates.

    For each site x the resolvent identity on its window U(x) gives
    g(x, y) <= a(x, y) + sum_v K(x, v) g(v, y); with row sums of K below the
    contraction gate, the solution of (I - K) g = a dominates |G| entrywise.
    """
    region = T.region
    m = len(region)
    idx = {k: i for i, k in enumerate(region)}
    dist1 = site_distances(region)
    tmag = _site_magnitudes(T.to_dense(), m, T.nblock)
    a = np.zeros((m, m))
    K = np.zeros((m, m))
    for x, cert in windows.items():
        i = idx[x]
        inU = np.zeros(m, dtype=bool)
        row_g = np.zeros(m)
        for w in cert.region:
            j = idx.get(tuple(w))
            if j is None:
                raise CertificateGateError(
                    f"window of {x} leaves the region at {tuple(w)}")
            inU[j] = True
            row_g[j] = cert.entry_bound(int(dist1[i, j]))
        a[i, inU] = row_g[inU]
        coupling = row_g[inU] @ tmag[inU][:, ~inU]
        K[i, ~inU] = coupling
    rows = K.sum(axis=1)
    if rows.max() >= gate:
        raise CertificateGateError(
            f"resolvent contraction factor {rows.max():.3e} >= {gate}")
    g = sla.solve(np.eye(m) - K, a)
    return np.maximum(g, 0.0)


def _emit(T: LatticeMatrix, windows: dict, threshold: int | None,
          gate: float, provenance: str, extra: dict) -> DecayCertificate:
    """Certificate for T's region from the propagated window bounds; the
    threshold defaults to the largest window threshold."""
    g = _propagate_bounds(T, windows, gate=gate)
    if threshold is None:
        threshold = max(c.threshold for c in windows.values())
    dist1 = site_distances(T.region)
    norm = float(np.linalg.norm(g, 2)) * (1 + 1e-6)
    alpha = measure_alpha(g, dist1, threshold)
    return decay_certificate(norm, alpha, threshold, dist1, T.region,
                             provenance, extra)


def cl1_couple(T: LatticeMatrix, site_certs: dict, M: int,
               rho: float | None = None, threshold: int | None = None,
               gate: float = 0.1) -> DecayCertificate:
    """Couple per-site window certificates into one for the whole region.

    Each site m must come with a certificate for a window U(m) (the
    certificate's own region) containing m with dist(m, region \\ U(m))
    > M/2.  The certified bound is produced by the resolvent propagation
    above; the nominal conclusion (norm <= 2 |region|^d max site norm,
    alpha >= min(alpha, rho) - (log |region|)^-50) is reported alongside.
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
        "alpha_nominal": min(min(alphas), rho if rho is not None
                             else min(alphas)) - np.log(N) ** -50,
    }
    return _emit(T, site_certs, threshold, gate, "cl1", nominal)


def two_scale_couple(T: LatticeMatrix, certK: DecayCertificate,
                     certsM0: dict, config: ScaleConfig, K: int, M0: int,
                     threshold: int | None = None,
                     gate: float = 0.1) -> DecayCertificate:
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
    nominal = {"gamma_nominal": min(min(rates), config.rho) - logN ** -8}
    return _emit(T, windows, threshold, gate, "two_scale", nominal)


# ----------------------------------------------------------------------
# CL2: the alternating-exhaustion multiplier recursion
# ----------------------------------------------------------------------

def _runs(flags):
    """Group consecutive annulus indices by their flag."""
    out = []
    for good, grp in itertools.groupby(range(len(flags)),
                                       key=lambda j: flags[j]):
        out.append((good, list(grp)))
    return out


def cl2_couple(T: LatticeMatrix, config: ScaleConfig, scale_certs,
               region: ElementaryRegion, M_prev: int,
               alpha_prev: float | None = None,
               threshold: int | None = None,
               budget: float | None = None) -> DecayCertificate:
    """Large-scale decay from a good/bad classification at the previous
    scale, via the alternating-exhaustion multiplier recursion.

    `scale_certs` is the previous-scale classifier (site set -> good?); a
    DirectClassifier doubles as the norm/prefactor oracle for the measured
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
    beta = min(alpha_prev if alpha_prev is not None else config.alpha0,
               config.rho)
    oracle = scale_certs if isinstance(scale_certs, DirectClassifier) \
        else DirectClassifier(T, beta, config.b, config.theta)
    is_good = scale_certs
    sites = region.site_set()
    diam = max(region.diam, 2)
    if budget is None:
        budget = config.kappa * diam ** config.theta / M_prev
    # measured off-diagonal envelope of T: |T(x,y)| <= t_pref e^{-rho |x-y|}
    full = _restrict(T, sites)
    tmag = _site_magnitudes(full.to_dense(), len(sites), full.nblock)
    dsup = _sup_dist_matrix(sites)
    off = dsup > 0
    t_pref = float((tmag[off] * np.exp(config.rho * dsup[off])).max()) \
        if off.any() else 0.0
    phi_worst = 1.0
    for m in region.sites():
        ex = build_exhaustion(region, m, M_prev)
        rep = classify_annuli(T, ex, M_prev, beta, config.b, config.theta,
                              classifier=is_good if callable(is_good)
                              else None)
        if rep.bad_count > budget:
            bad = [j for j, f in enumerate(rep.flags) if not f]
            raise CertificateGateError(
                f"region is BAD: center {m} has {rep.bad_count} bad annuli "
                f"{bad} > budget {budget:.3f}")
        pieces = list(ex.annuli) + ([ex.remainder] if ex.remainder else [])
        phi = oracle.entry_prefactor(pieces[0], beta)
        J = set(pieces[0])
        for good, run in _runs(rep.flags[1:]):
            run_pieces = set().union(*[pieces[j + 1] for j in run])
            Jnext = J | run_pieces
            n_pairs = len(J) * len(run_pieces)
            W = oracle.norm(Jnext)
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
                cU = oracle.entry_prefactor(run_pieces, beta)
                phi = max(phi_a, phi_a * n_pairs * t_pref * cU)
            else:
                back = max(0, dmax_next - dmin_run)
                phi = phi * (1.0 + n_pairs * t_pref * W
                             * np.exp(beta * back))
            J = Jnext
        phi_worst = max(phi_worst, phi)
    if threshold is None:
        threshold = max(int(np.ceil(diam ** config.theta)), 1)
    # |G(m,n)| <= phi e^{-beta |m-n|_sup} and |.|_sup >= |.|_1 / d:
    # certified l1 rate beyond the threshold
    alpha_out = max(beta / region.d - np.log(phi_worst) / threshold, 0.0)
    norm = oracle.norm(sites) * (1 + 1e-6)
    region1 = tuple(sorted(sites))
    nominal = beta * (1 - 15 * config.kappa)
    return decay_certificate(
        norm, alpha_out, threshold, site_distances(region1), region1, "cl2",
        {"alpha_nominal": nominal, "phi": float(phi_worst), "beta": beta})


# ----------------------------------------------------------------------
# empirical sigma scan
# ----------------------------------------------------------------------

@dataclass
class SigmaScanReport:
    sigma_range: tuple
    targets: tuple            # (alpha_target, threshold, norm_target)
    samples: list             # (sigma, passed, norm, alpha) rows
    bad_intervals: list       # (lo, hi) failing windows
    bad_measure: float
    bad_fraction: float
    norm_route: str           # "spectral" (Hermitian T) or "svd"
    factored_probes: int      # probes that ran an LU factorization

    def columnar(self) -> str:
        lines = ["sigma pass norm alpha"]
        for s, ok, nrm, al in self.samples:
            lines.append(f"{s:.8f} {int(ok)} {nrm:.6e} {al:.6f}")
        return "\n".join(lines)


class _Prober:
    """Probes of T + sigma with the work shared by a whole scan done once:
    the dense form at sigma = 0, its eigenvalues when it is Hermitian,
    the site distances, the far-pair mask and the identity right side."""

    def __init__(self, T: LatticeMatrix, targets, cond_cap: float):
        self.alpha_target, self.threshold, self.norm_target = targets
        self.cond_cap = cond_cap
        self.T0 = T.with_sigma(0.0)
        D = self.T0.to_dense()
        self.lam = np.linalg.eigvalsh(D) \
            if np.array_equal(D, D.conj().T) else None
        self.dist = site_distances(T.region)
        self.far = self.dist > self.threshold
        self.eye = np.eye(T.size, dtype=complex)
        self.factored = 0

    def _norm(self, sigma: float, G) -> float:
        """||G||_2: 1 / min |lambda + sigma| on the spectral route (G is
        not read), the SVD of G otherwise."""
        if self.lam is None:
            return float(np.linalg.norm(G, 2))
        gap = float(np.abs(self.lam + sigma).min())
        return np.inf if gap == 0.0 else 1.0 / gap

    def sample(self, sigma: float) -> tuple:
        """(passed, ||G||_2, measured alpha); (False, inf, 0.0) when T + sigma
        fails the condition gate."""
        self.factored += 1
        try:
            G, gmag, _ = _lu_inverse(self.T0.with_sigma(sigma),
                                     self.cond_cap, self.eye)
        except NearSingularError:
            return False, np.inf, 0.0
        norm = self._norm(sigma, G)
        decay_ok = _decays(gmag, self.dist, self.far, self.alpha_target)
        return (bool(norm <= self.norm_target and decay_ok), norm,
                measure_alpha(gmag, self.dist, self.threshold))

    def passes(self, sigma: float) -> bool:
        """The pass flag of `sample(sigma)`; a spectral-route probe whose
        norm misses the target is not factored."""
        if self.lam is not None \
                and self._norm(sigma, None) > self.norm_target:
            return False
        return self.sample(sigma)[0]


def sigma_scan(T: LatticeMatrix, sigma_range, targets,
               points_per_unit: float = 1e4, refine_iters: int = 20,
               cond_cap: float = 1e12) -> SigmaScanReport:
    """Scan the shift family T + sigma (T's own sigma is replaced), marking
    sigma values whose inverse violates the targets (alpha_target,
    threshold, norm_target); failing windows are localized by bisection
    refinement at the pass/fail boundaries.

    Every probe factors T + sigma with the condition gate and takes the
    decay test and alpha from the LU inverse.  When T is exactly Hermitian,
    ||G||_2 = 1 / min |lambda + sigma| from one eigvalsh per scan ("spectral"
    route); otherwise each probe takes an SVD of G ("svd" route).  The
    bisection needs only the pass flag, so a Hermitian bisection probe whose
    norm already misses the target is not factored."""
    lo, hi = float(sigma_range[0]), float(sigma_range[1])
    npts = max(int(np.ceil((hi - lo) * points_per_unit)) + 1, 2)
    grid = np.linspace(lo, hi, npts)
    prober = _Prober(T, targets, cond_cap)
    samples = []
    passed = np.zeros(npts, dtype=bool)
    for i, s in enumerate(grid):
        ok, nrm, al = prober.sample(float(s))
        passed[i] = ok
        samples.append((float(s), ok, nrm, al))

    def bisect(a, b, ok_a):
        # boundary between a (pass state ok_a) and b
        for _ in range(refine_iters):
            mid = 0.5 * (a + b)
            if prober.passes(mid) == ok_a:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    intervals = []
    i = 0
    while i < npts:
        if not passed[i]:
            j = i
            while j + 1 < npts and not passed[j + 1]:
                j += 1
            left = grid[i] if i == 0 else bisect(grid[i - 1], grid[i], True)
            right = grid[j] if j == npts - 1 \
                else bisect(grid[j + 1], grid[j], True)
            intervals.append((float(left), float(right)))
            i = j + 1
        else:
            i += 1
    measure = float(sum(b - a for a, b in intervals))
    return SigmaScanReport(sigma_range=(lo, hi), targets=tuple(targets),
                           samples=samples, bad_intervals=intervals,
                           bad_measure=measure,
                           bad_fraction=measure / (hi - lo) if hi > lo
                           else 0.0,
                           norm_route="svd" if prober.lam is None
                           else "spectral",
                           factored_probes=prober.factored)


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
