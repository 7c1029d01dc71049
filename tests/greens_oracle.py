"""The dense reference of the block readers in `toruskam.greens`: the
component inverses of `invert_direct` scattered into one m x m G, and the
soundness check over every pair of G with its full SVD norm, kept as the
oracle of `greens.certify` and of the certificate routes."""

import numpy as np

from toruskam.greens import (CertifyResult, _site_magnitudes, invert_direct,
                             site_distances)


def scatter(T, parts) -> np.ndarray:
    """The m x m G of `invert_direct`'s component blocks, zero between
    components."""
    G = np.zeros((T.size, T.size), dtype=np.result_type(
        *[Gb for _, _, Gb in parts]))
    for _, rows, Gb in parts:
        G[rows[:, :, None], rows[:, None, :]] = Gb
    return G


def dense_inverse(T, threshold=0):
    """(G, certificate) of `invert_direct`, with G scattered."""
    parts, cert = invert_direct(T, threshold)
    return scatter(T, parts), cert


def dense_certify(G, region, nblock, alpha_target, threshold, norm_target,
                  prefactor=1.0) -> CertifyResult:
    """`greens.certify` over every site pair of the full G, with its norm
    from the SVD of G: log|G(x,y)| + alpha |x-y| - log C > 0 beyond the
    threshold offends, and the 10 worst offenders are reported."""
    dist = site_distances(region)
    gmag = _site_magnitudes(G, len(region), nblock)
    norm = float(np.linalg.norm(G, 2))
    with np.errstate(divide="ignore"):
        log_ratio = np.log(gmag) + alpha_target * dist - np.log(prefactor)
    bad = np.argwhere((dist > threshold) & (log_ratio > 0.0))
    order = np.argsort(-log_ratio[tuple(bad.T)]) if len(bad) else []
    with np.errstate(over="ignore"):
        offenders = [(tuple(region[i]), tuple(region[j]),
                      float(np.exp(log_ratio[i, j])))
                     for i, j in bad[order][:10]]
    passed = len(bad) == 0 and norm <= norm_target
    if norm > norm_target and len(offenders) < 10:
        offenders.append(("norm", "norm", norm))
    return CertifyResult(passed=passed, offenders=offenders,
                         measured_norm=norm)


def check_certificate(cert, T) -> CertifyResult:
    """Soundness oracle: `dense_certify` a direct inverse of T against the
    claim, relaxed by 1e-12."""
    tol = 1e-12
    G, _ = dense_inverse(T, cert.threshold)
    return dense_certify(G, T.region, T.nblock, cert.alpha - tol,
                         cert.threshold, cert.norm_bound * (1 + tol),
                         cert.prefactor * (1 + tol))
