"""The whole-key bound of the Lie-series budget from the totals of the parts'
shell sums, kept as the oracle of `jets._whole_bounds`, which reads the
shell sums themselves (`jets._dropped_bounds` at m = -1)."""

import math

import numpy as np

from toruskam.fourier import mode_grid
from toruskam.jets import _raised, _vf_of, _vf_weights


def part_factors(d, cutoff):
    """1 and |k_a| for each axis a over the box of `cutoff`, flattened,
    shape (d + 1, box): the factors of the parts of a series on the box."""
    k = np.abs(mode_grid(d, cutoff)).reshape(-1, d).T
    return np.vstack([np.ones(k.shape[1]), k])


def totals(f, s):
    """The totals of the shell sums of every part of f, shape (d + 1, 2):
    row p holds part p's strip norm and the summed strip norms of its
    partials."""
    mags = np.abs(f.data[0, 0]).ravel()
    w, wl1 = _vf_weights(f.d, f.cutoff, s)
    return part_factors(f.d, f.cutoff) @ np.stack(
        [mags * w.ravel(), mags * wl1.ravel()], axis=1)


def whole_bounds(F, G, keys, cand, s, r):
    """Per key of `cand`: over its products with |w|, the strip norm of f g
    is at most sigma_f sigma_g and the summed strip norms of its partials
    at most sigma'_f sigma_g + sigma_f sigma'_g, passed through `_vf_of`,
    each bound raised for its own roundings and those of a sum over the
    keys.  F and G are the factors' `jets._Side`s."""
    rows = [(t, i, p, j, q, abs(w)) for t, key in enumerate(cand)
            for i, p, j, q, w in keys[key]]
    if not rows:
        return []
    a = np.array([totals(F.series[i], s)[p] for _, i, p, *_ in rows])
    b = np.array([totals(G.series[j], s)[q] for _, _, _, j, q, _ in rows])
    key_of, aw = (np.array([row[k] for row in rows]) for k in (0, 5))
    sig = np.bincount(key_of, aw * a[:, 0] * b[:, 0], len(cand))
    sx = np.bincount(key_of, aw * (a[:, 1] * b[:, 0] + a[:, 0] * b[:, 1]),
                     len(cand))
    d = F.jet.d
    N = max(f.cutoff for side in (F, G) for f in side.series)
    chain = (2 * N + 1) ** d + len(rows) + len(cand) \
        + math.ceil(s * d * N) + 32
    return [_raised(_vf_of(key[0], float(sig[t]), float(sx[t]), r), chain)
            for t, key in enumerate(cand)]
