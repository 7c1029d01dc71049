"""Green's functions of finite lattice operators with decay certificates.

A DecayCertificate is a falsifiable statement about the inverse G of a
lattice operator restricted to a finite region: the operator norm is at most
`norm_bound`, and entries decay like |G(x,y)| <= C e^{-alpha |x-y|_1} once
the site distance exceeds `threshold`, with the prefactor C = `prefactor`
(1 unless a route proves a larger one).  Certificates come from direct
inversion (measured), from the closed-form Combes-Thomas bound
(`combes_thomas`, verified including rounding), or are transferred from
existing ones through perturbation bounds; transferred certificates are
produced by explicit numeric contraction arguments, never by asymptotic
constants, so that direct inversion can always be used as a soundness
oracle.

The Combes-Thomas bound reads T = D + S off its symbol alone: with
s_r = sum_k max(row sum, column sum) of |S(k)| e^{r |k|_1} and
q_r = s_r / min|D| < 1, conjugating T by e^{r |x - y|_1} keeps it a small
perturbation of D, so |G(x,y)| <= e^{-r |x-y|_1} / (min|D| (1 - q_r)) and
||G|| <= 1 / (min|D| (1 - q_0)).  It costs O(symbol size) at any d and
needs no dense form; `level_certificate` falls back to direct inversion
when q_0 >= 1.

One certificate kernel: an operator's inverse is block diagonal on the
connected components of its off-diagonal pattern
(`LatticeMatrix.components`), so `homological._block_inverse`, beside the
operator, inverts the diagonal blocks, one batched LU with partial
pivoting per component size, and gates on the exact condition number
cond_1 = max_b ||T_b||_1 max_b ||G_b||_1 (at least the LAPACK gecon
estimate of the dense form, up to rounding, which the tests keep as the
oracle).  It is shared by `invert_direct`, the sigma-scan probes, the
multiscale classifier and the dense route of the lattice solves.  The
blocks are gathered from the symbol (`homological._component_blocks`),
with no dense form of the operator, and are float64 when the operator is
real, so the LU, the norms and the site magnitudes then run in real
arithmetic.  `_in_block_distances` (l1 or sup), `_in_block_magnitudes` and
`_block_norm` read the component blocks for all of them; G is zero between
components and is never formed in full.  `invert_direct` returns the
component inverses and a certificate with the measured
||G||_2 = max_b ||G_b||_2 (`extra["measured_norm"]`) and the rate of the
in-block pairs (`far_rate`, the one rate formula).  `decay_certificate`
takes the b-exponent for every emitted certificate.  `certify` tests a
claim on the same blocks, where the in-block pairs are the only ones that
can offend, and `_check_against` relaxes a claim by 1e-12 first; the tests
keep the dense G and its SVD as the independent soundness oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .homological import (LatticeMatrix, _block_inverse, _component_blocks,
                          _symbol_norm)

ALPHA_CAP = 50.0   # stored decay rate for exactly-banded/diagonal inverses

# Combes-Thomas rates tried, in ascending order: binary fractions, so that
# r |k|_1 is exact and e^{r |k|_1} carries only the rounding of exp
CT_RATES = tuple(j / 32 for j in range(1, 129))
CT_Q_MAX = 0.5     # the scan keeps the largest rate with q_r <= CT_Q_MAX


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
    prefactor: float = 1.0
    extra: dict = field(default_factory=dict, compare=False)

    def entry_bound(self, dist: np.ndarray) -> np.ndarray:
        """The bound on |G(x,y)| at each of the int distances `dist`: the
        norm up to the threshold, C e^{-alpha dist} beyond it."""
        return np.where(dist <= self.threshold, self.norm_bound,
                        self.prefactor * np.exp(-self.alpha * dist))


def site_distances(region) -> np.ndarray:
    return _block_distances(np.array(region, dtype=int)[None], np.add)[0]


def l1_diameter(region) -> int:
    """max |x - y|_1 over pairs of sites, without the m x m distances:
    |x - y|_1 = max over sign vectors e of <e, x - y>, so it is the largest
    spread of <e, x> over the 2^(d-1) sign vectors with e_1 = +1."""
    ks = np.asarray(region, dtype=int)
    signs = np.array([(1,) + e for e in
                      itertools.product((1, -1), repeat=ks.shape[1] - 1)])
    proj = ks @ signs.T
    return int((proj.max(axis=0) - proj.min(axis=0)).max())


def _site_magnitudes(G: np.ndarray, nsites: int, nblock: int) -> np.ndarray:
    """max block magnitude per site pair, shape (..., nsites, nsites) for a
    stack of matrices G of shape (..., nsites nblock, nsites nblock)."""
    R = np.abs(G).reshape(G.shape[:-2] + (nsites, nblock, nsites, nblock))
    return R.max(axis=(-3, -1))


def _block_distances(ks: np.ndarray, combine) -> np.ndarray:
    """|x - y|_1 (`combine` np.add) or |x - y|_sup (np.maximum) between the
    sites of each component, shape (c, s, s), from (c, s, d) coordinates."""
    dist = np.zeros(ks.shape[:2] + ks.shape[1:2], dtype=ks.dtype)
    for t in range(ks.shape[2]):
        combine(dist, np.abs(ks[:, :, None, t] - ks[:, None, :, t]), out=dist)
    return dist


def _in_block_distances(T: LatticeMatrix, parts, combine) -> np.ndarray:
    """`_block_distances` of the in-block pairs of `_component_blocks`."""
    return np.concatenate([
        _block_distances(T.site_array[sites], combine).ravel()
        for sites, _, _ in parts])


def _in_block_magnitudes(blocks: list, nblock: int) -> np.ndarray:
    """`_site_magnitudes` of the in-block site pairs of block stacks (the
    inverses, or the operator's own blocks)."""
    return np.concatenate([
        _site_magnitudes(B, B.shape[-1] // nblock, nblock).ravel()
        for B in blocks])


def _block_norm(inverses: list) -> float:
    """||G||_2 of a block-diagonal G: the largest ||G_b||_2."""
    return max(float(np.linalg.norm(G, 2, axis=(-2, -1)).max())
               for G in inverses)


def measure_alpha(gmag: np.ndarray, dist: np.ndarray, threshold: int) -> float:
    """Largest rate valid beyond the threshold: inf over pairs of
    -log|G|/|x-y|, minus a guard of 1e-9."""
    mask = dist > threshold
    return far_rate(gmag[mask], dist[mask])


def far_rate(g: np.ndarray, d: np.ndarray) -> float:
    """`measure_alpha` on the site magnitudes g and distances d of the
    pairs beyond the threshold alone."""
    if not g.size:
        return ALPHA_CAP
    nz = g > 0
    if not nz.any():
        return ALPHA_CAP
    rate = (-np.log(g[nz]) / d[nz]).min()
    return float(min(max(rate - 1e-9, 0.0), ALPHA_CAP))


def decay_certificate(norm: float, alpha: float, threshold: int, region,
                      provenance: str, extra: dict,
                      prefactor: float = 1.0) -> DecayCertificate:
    """Certificate with b-exponent log(log norm) / log diam, where diam is
    the largest |x-y|_1 over `region`."""
    diam = l1_diameter(region) if len(region) > 1 else 1
    b_exp = float(np.log(np.log(norm)) / np.log(diam)) \
        if norm > 1.0 and diam > 1 else 0.0
    return DecayCertificate(norm_bound=norm, alpha=alpha, threshold=threshold,
                            b_exponent=b_exp, region=region,
                            provenance=provenance, prefactor=prefactor,
                            extra=extra)


def invert_direct(T: LatticeMatrix, threshold: int = 0):
    """T's inverse as (sites, rows, inverses) per component size, as in
    `_component_blocks` (float64 when T is real), and a certificate measured
    from them; `extra` holds the exact cond_1 and ||G||_2 before the 1e-6
    inflation.  A far entry above 1 has no rate: alpha is then 0 and the
    prefactor that entry, inflated by 1e-6.  Raises NearSingularError past
    `_block_inverse`'s condition cap."""
    parts = _component_blocks(T)
    inverses, cond = _block_inverse([B for _, _, B in parts])
    parts = [(s, r, Gb) for (s, r, _), Gb in zip(parts, inverses)]
    # pairs in different components are structural zeros of G, which
    # carry no rate: alpha is read off the in-block pairs
    measured = _block_norm(inverses)
    gmag = _in_block_magnitudes(inverses, T.nblock)
    dist = _in_block_distances(T, parts, np.add)
    far = float(gmag[dist > threshold].max(initial=0.0))
    return parts, decay_certificate(
        measured * (1 + 1e-6), measure_alpha(gmag, dist, threshold),
        threshold, T.region, "direct",
        {"condition": float(cond), "measured_norm": measured},
        prefactor=max(1.0, far * (1 + 1e-6)))


@dataclass
class CertifyResult:
    passed: bool
    offenders: list
    measured_norm: float


def certify(T: LatticeMatrix, parts: list, alpha_target: float,
            threshold: int, norm_target: float,
            prefactor: float = 1.0) -> CertifyResult:
    """Check T's inverse G, given as `invert_direct`'s component blocks
    `parts`, for |G(x,y)| <= C e^{-alpha |x-y|} beyond the threshold, with
    C = `prefactor`, and ||G|| <= norm_target; report the 10 worst
    offenders with their ratio |G(x,y)| e^{alpha |x-y|} / C.

    The comparison is log|G(x,y)| + alpha |x-y| - log C > 0, so that
    neither e^{alpha |x-y|} overflowing nor a zero entry can produce a
    NaN.  G is zero between components, so only in-block pairs can
    offend; they are put in the row-major (x, y) order of the full G before
    the sort, so that ties fall as they would there."""
    inverses = [Gb for _, _, Gb in parts]
    dist = _in_block_distances(T, parts, np.add)
    norm = _block_norm(inverses)
    with np.errstate(divide="ignore"):
        log_ratio = (np.log(_in_block_magnitudes(inverses, T.nblock))
                     + alpha_target * dist - np.log(prefactor))
    bad = np.flatnonzero((dist > threshold) & (log_ratio > 0.0))
    # each in-block pair's place x m + y in the full G, its row-major order
    m = T.nsites
    place = np.concatenate([(sites[:, :, None] * m + sites[:, None, :]).ravel()
                            for sites, _, _ in parts])
    bad = bad[np.argsort(place[bad])]
    with np.errstate(over="ignore"):
        offenders = [(T.region[place[k] // m], T.region[place[k] % m],
                      float(np.exp(log_ratio[k])))
                     for k in bad[np.argsort(-log_ratio[bad])[:10]]]
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
                     cert.prefactor * np.exp(-(cert.alpha - rate) * dist))
    return float(bound.sum(axis=1).max())


def weighted_delta_norm(region, bound_eps: float, rho: float,
                        rate: float) -> float:
    """Upper bound for the weighted row norm of a perturbation with
    |Delta(x,y)| <= bound_eps e^{-rho |x-y|}."""
    dist = site_distances(region)
    return float(bound_eps * np.exp(-(rho - rate) * dist).sum(axis=1).max())


def neumann_transfer(cert: DecayCertificate, delta: tuple) -> DecayCertificate:
    """Transfer a certificate through a small perturbation.

    `delta = (bound_eps, rho)` bounds the entries of T' - T by
    bound_eps * e^{-rho |x-y|}.  Gates: the smallness condition
    bound_eps < e^{-4 rho diam^theta} with theta = 0.997, plus an explicit
    contraction check in a weighted row norm (the asymptotic largeness
    assumptions are replaced by this check at desk scale).  The nominal
    output is the norm doubled and alpha' = min(alpha, rho) - 2 ln2 /
    threshold; the emitted alpha is the smaller of that and the rate the
    contraction argument actually proves under the parent's prefactor,
    which the output keeps.
    """
    bound_eps, rho = float(delta[0]), float(delta[1])
    diam = max(l1_diameter(cert.region), 1)
    gate = float(np.exp(-4.0 * rho * diam ** 0.997))
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
    bound = cert.entry_bound(dvals) + corr * np.exp(-rate * dvals)
    alpha_rig = float((-np.log(np.maximum(bound, 1e-300) / cert.prefactor)
                       / dvals).min())
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


def _check_against(cert: DecayCertificate, parts: list, T: LatticeMatrix
                   ) -> CertifyResult:
    """`certify` T's inverse, given as `invert_direct`'s component blocks,
    against the claim, relaxed by 1e-12."""
    tol = 1e-12
    return certify(T, parts, cert.alpha - tol, cert.threshold,
                   cert.norm_bound * (1 + tol), cert.prefactor * (1 + tol))


# ----------------------------------------------------------------------
# closed-form certificate (Combes-Thomas)
# ----------------------------------------------------------------------

def _up(x: float, n: int) -> float:
    """x times 1 + (n + 1) 2^-52, an exact float above 1 + gamma_n with
    gamma_n = n u / (1 - n u) and u = 2^-53: a value computed with n
    roundings of relative size u, rounded up past them and past this
    product's own rounding (Higham, Accuracy and Stability of Numerical
    Algorithms, section 3.1)."""
    return x * (1.0 + (n + 1) * 2.0 ** -52)


def _down(x: float, n: int) -> float:
    """x rounded down past n roundings, as `_up` rounds up."""
    return x * (1.0 - (n + 1) * 2.0 ** -52)


def _diagonal_floor(T: LatticeMatrix) -> float:
    """A lower bound for min |D| of the exact diagonal
    D(j,k) = <k, omega> + sigma + Omega_j of T's float data.  The computed
    D takes d + 2 roundings, so it is off by at most
    gamma_{d+2} (|k| . |omega| + |sigma| + |Omega_j|); the slack below is
    four times that, which also covers the rounding of the slack itself."""
    ks = np.abs(T.site_array)
    scale = (ks @ np.abs(T.omega) + abs(T.sigma))[:, None] \
        + np.abs(T.diag_block)[None, :]
    slack = scale * ((4 * T.d + 16) * 2.0 ** -53)
    return _down(float((np.abs(T.diag_values()) - slack).min()), 1)


def combes_thomas(T: LatticeMatrix, threshold: int = 0):
    """Closed-form certificate of T = D + S from its symbol, or None when
    q_0 = s_0 / min|D| >= 1 (then only a direct inversion decides).

    For a weight e^{r |x - y|_1} around any column y, the conjugated
    operator is D + S_r with ||S_r|| <= s_r (`_symbol_norm`), so with
    q_r = s_r / min|D| < 1 its inverse has norm at most
    C_r = 1 / (min|D| (1 - q_r)), and every entry satisfies
    |G(x,y)| <= C_r e^{-r |x-y|_1}; r = 0 bounds ||G||.  The rate is the
    largest of `CT_RATES` with q_r <= CT_Q_MAX, which keeps C_r within
    1 / (min|D| (1 - CT_Q_MAX)); when none passes, r = 0 and C is the norm
    bound.  s_r is rounded up and min|D| down past the rounding of their
    evaluation, so the bound holds for the exact operator.  The claim holds
    at every distance; `threshold` only sets where the certificate's
    entry bound switches from the norm to the decay."""
    dmin = _diagonal_floor(T)
    if not dmin > 0.0:
        return None
    # |symbol| (2 roundings), a row sum over nblock terms, exp (4), one
    # product and a sum over the symbol's modes
    rounds = T.nblock + T.symbol.data[0, 0].size + 8

    def q_of(r):
        # e^{r |k|_1} may overflow on a huge box: s_r is then inf or NaN,
        # and the rate is not taken
        with np.errstate(over="ignore", invalid="ignore"):
            return _up(_up(_symbol_norm(T, r), rounds) / dmin, 1)

    q0 = q_of(0.0)
    if not q0 < 1.0:
        return None
    # s_r grows with r, so the scan stops at the first rate past the gate
    r, q = 0.0, q0
    for rate in CT_RATES:
        q_rate = q_of(rate)
        if not q_rate <= CT_Q_MAX:
            break
        r, q = rate, q_rate
    norm = _up(1.0 / (dmin * (1.0 - q0)), 3)
    prefactor = _up(1.0 / (dmin * (1.0 - q)), 3)
    return decay_certificate(norm, r, threshold, T.region, "combes-thomas",
                             {"r": r, "q_r": q, "q0": q0},
                             prefactor=prefactor)


def level_certificate(T: LatticeMatrix, threshold: int = 0
                      ) -> DecayCertificate:
    """The closed-form certificate of T when q_0 < 1, else the measured one
    of `invert_direct` (which raises NearSingularError past its cond_1 cap)."""
    cert = combes_thomas(T, threshold)
    if cert is None:
        _, cert = invert_direct(T, threshold=threshold)
    return cert
