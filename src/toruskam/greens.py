"""Green's functions of finite lattice operators with decay certificates.

A DecayCertificate is a falsifiable statement about the inverse G of a
lattice operator restricted to a finite region: the operator norm is at most
`norm_bound`, and entries decay like |G(x,y)| <= e^{-alpha |x-y|_1} once the
site distance exceeds `threshold`.  Certificates come from direct inversion
(measured) or are transferred from existing ones through perturbation bounds;
transferred certificates are produced by explicit numeric contraction
arguments, never by asymptotic constants, so that direct inversion can always
be used as a soundness oracle.

One certificate kernel: `invert_direct` factors with `homological._factor`
and keeps the measured ||G||_2 in `extra["measured_norm"]` for its callers;
`_site_magnitudes` is the per-site-pair block maximum and
`decay_certificate` the b-exponent for every emitted certificate.  `certify`
keeps its own SVD, as the independent soundness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla

from .homological import LatticeMatrix, _factor

ALPHA_CAP = 50.0   # stored decay rate for exactly-banded/diagonal inverses


class CertificateGateError(Exception):
    """A transfer lemma's smallness gate failed; re-derive directly."""


@dataclass(frozen=True)
class DecayCertificate:
    norm_bound: float
    alpha: float
    threshold: int
    b_exponent: float
    region: tuple
    provenance: str
    extra: dict = field(default_factory=dict, compare=False)

    @property
    def diameter(self) -> int:
        return int(site_distances(self.region).max())

    def entry_bound(self, dist: int) -> float:
        if dist <= self.threshold:
            return self.norm_bound
        return float(np.exp(-self.alpha * dist))


def site_distances(region) -> np.ndarray:
    ks = np.array(region, dtype=int)
    return np.abs(ks[:, None, :] - ks[None, :, :]).sum(axis=-1)


def _site_magnitudes(G: np.ndarray, nsites: int, nblock: int) -> np.ndarray:
    """max block magnitude per site pair, shape (nsites, nsites)."""
    R = np.abs(G).reshape(nsites, nblock, nsites, nblock)
    return R.max(axis=(1, 3))


def measure_alpha(gmag: np.ndarray, dist: np.ndarray, threshold: int,
                  guard: float = 1e-9) -> float:
    """Largest rate valid beyond the threshold: inf over pairs of
    -log|G|/|x-y|, minus a guard."""
    mask = dist > threshold
    if not mask.any():
        return ALPHA_CAP
    g = gmag[mask]
    d = dist[mask]
    nz = g > 0
    if not nz.any():
        return ALPHA_CAP
    rate = (-np.log(g[nz]) / d[nz]).min()
    return float(min(max(rate - guard, 0.0), ALPHA_CAP))


def decay_certificate(norm: float, alpha: float, threshold: int,
                      dist: np.ndarray, region, provenance: str,
                      extra: dict) -> DecayCertificate:
    """Certificate with b-exponent log(log norm) / log diam, where diam is
    the largest |x-y|_1 in `dist`, the site distances of `region`."""
    diam = int(dist.max()) if len(region) > 1 else 1
    b_exp = float(np.log(np.log(norm)) / np.log(diam)) \
        if norm > 1.0 and diam > 1 else 0.0
    return DecayCertificate(norm_bound=norm, alpha=alpha, threshold=threshold,
                            b_exponent=b_exp, region=region,
                            provenance=provenance, extra=extra)


def invert_direct(T: LatticeMatrix, threshold: int = 0,
                  cond_cap: float = 1e12):
    """Dense inverse plus a certificate with fields measured from it; `extra`
    holds the condition estimate and ||G||_2 before the 1e-6 inflation."""
    _, lu_piv, cond = _factor(T, cond_cap)
    G = sla.lu_solve(lu_piv, np.eye(T.size, dtype=complex), check_finite=False)
    dist = site_distances(T.region)
    gmag = _site_magnitudes(G, T.nsites, T.nblock)
    measured = float(np.linalg.norm(G, 2))
    alpha = measure_alpha(gmag, dist, threshold)
    cert = decay_certificate(measured * (1 + 1e-6), alpha, threshold, dist,
                             T.region, "direct",
                             {"condition": float(cond),
                              "measured_norm": measured})
    return G, cert


@dataclass
class CertifyResult:
    passed: bool
    offenders: list
    measured_norm: float

    def __bool__(self):
        return self.passed


def certify(G: np.ndarray, region, nblock: int, alpha_target: float,
            threshold: int, norm_target: float) -> CertifyResult:
    """Check |G(x,y)| <= e^{-alpha |x-y|} beyond the threshold and
    ||G|| <= norm_target; report the 10 worst offenders."""
    nsites = len(region)
    dist = site_distances(region)
    gmag = _site_magnitudes(G, nsites, nblock)
    norm = float(np.linalg.norm(G, 2))
    ratio = gmag * np.exp(alpha_target * dist)
    mask = dist > threshold
    bad = np.argwhere(mask & (ratio > 1.0))
    order = np.argsort(-ratio[tuple(bad.T)]) if len(bad) else []
    offenders = [(tuple(region[i]), tuple(region[j]), float(ratio[i, j]))
                 for i, j in bad[order][:10]]
    passed = len(bad) == 0 and norm <= norm_target
    if norm > norm_target and len(offenders) < 10:
        offenders.append(("norm", "norm", norm))
    return CertifyResult(passed=passed, offenders=offenders,
                         measured_norm=norm)


# ----------------------------------------------------------------------
# weighted-norm machinery for sound transfer
# ----------------------------------------------------------------------

def weighted_row_norm_from_cert(cert: DecayCertificate, rate: float) -> float:
    """Upper bound for max_x sum_y |G(x,y)| e^{rate |x-y|} from the
    certificate alone."""
    dist = site_distances(cert.region)
    near = dist <= cert.threshold
    bound = np.where(near, cert.norm_bound * np.exp(rate * dist),
                     np.exp(-(cert.alpha - rate) * dist))
    return float(bound.sum(axis=1).max())


def weighted_delta_norm(region, bound_eps: float, rho: float,
                        rate: float) -> float:
    """Upper bound for the weighted row norm of a perturbation with
    |Delta(x,y)| <= bound_eps e^{-rho |x-y|}."""
    dist = site_distances(region)
    return float(bound_eps * np.exp(-(rho - rate) * dist).sum(axis=1).max())


def neumann_transfer(cert: DecayCertificate, delta: tuple,
                     theta: float = 0.997) -> DecayCertificate:
    """Transfer a certificate through a small perturbation.

    `delta = (bound_eps, rho)` bounds the entries of T' - T by
    bound_eps * e^{-rho |x-y|}.  Gates: the smallness condition
    bound_eps < e^{-4 rho diam^theta}, plus an explicit contraction check in
    a weighted row norm (the asymptotic largeness assumptions are replaced by
    this check at desk scale).  The nominal output is the norm doubled and
    alpha' = min(alpha, rho) - 2 ln2 / threshold; the emitted alpha is the
    smaller of that and the rate the contraction argument actually proves.
    """
    bound_eps, rho = float(delta[0]), float(delta[1])
    diam = max(cert.diameter, 1)
    gate = float(np.exp(-4.0 * rho * diam ** theta))
    if bound_eps >= gate:
        raise CertificateGateError(
            f"perturbation {bound_eps:.3e} >= gate e^(-4 rho diam^theta) "
            f"= {gate:.3e}")
    thr = max(cert.threshold, 1)
    alpha_nom = min(cert.alpha, rho) - 2.0 * np.log(2.0) / thr
    # contraction in the weighted norm at an intermediate rate
    rate = max(min(cert.alpha, rho) - np.log(2.0) / thr, 0.0)
    gw = weighted_row_norm_from_cert(cert, rate)
    dw = weighted_delta_norm(cert.region, bound_eps, rho, rate)
    q = gw * dw
    if q > 0.5:
        raise CertificateGateError(
            f"weighted contraction factor {q:.3e} > 1/2")
    # entrywise: |G'(x,y)| <= |G(x,y)| + C e^{-rate |x-y|} with
    # C bounding the weighted norm of G' - G = -G Delta G'
    corr = gw * dw * (gw / (1.0 - q))
    dvals = np.arange(thr + 1, max(diam, thr + 1) + 1)
    bound = np.array([cert.entry_bound(int(dd)) for dd in dvals]) \
        + corr * np.exp(-rate * dvals)
    alpha_rig = float((-np.log(np.maximum(bound, 1e-300)) / dvals).min())
    alpha_out = max(min(alpha_nom, alpha_rig), 0.0)
    return replace(cert, norm_bound=2.0 * cert.norm_bound,
                   alpha=alpha_out, provenance="neumann",
                   extra={"parent": cert.provenance, "q": q,
                          "alpha_nominal": alpha_nom,
                          "alpha_rigorous": alpha_rig})


def variation_delta(Ta: LatticeMatrix, Tb: LatticeMatrix, s: float):
    """Measured perturbation envelope between two lattice operators on the
    same region: (max |(Tb-Ta)(x,y)| e^{s |x-y|}, s)."""
    if Ta.region != Tb.region:
        raise ValueError("operators live on different regions")
    diff = Tb.to_dense() - Ta.to_dense()
    dist = site_distances(Ta.region)
    mags = _site_magnitudes(diff, Ta.nsites, Ta.nblock)
    bound_eps = float((mags * np.exp(s * dist)).max())
    return bound_eps, s


def check_certificate(cert: DecayCertificate, T: LatticeMatrix,
                      tol: float = 1e-12) -> CertifyResult:
    """Soundness oracle: invert directly and certify against the claim."""
    G, _ = invert_direct(T, threshold=cert.threshold)
    return certify(G, T.region, T.nblock, cert.alpha - tol, cert.threshold,
                   cert.norm_bound * (1 + tol))
