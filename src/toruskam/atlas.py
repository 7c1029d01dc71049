"""Parameter-space bookkeeping: non-resonance filters and box atlases.

Parameters live in nested collections of axis-aligned boxes; each refinement
level paves the surviving boxes with children of a prescribed size and drops
those failing a non-resonance predicate sampled at the center and the 2^d
corners.  Frequency maps are vectorized: a predicate takes an (m, d) array of
parameter points and returns a boolean mask, so exhaustive k-scans run as
single matrix products.

Norm conventions: the scan range is |k|_inf <= N while the lower bounds use
gamma |k|_1^{-tau} (with |k| replaced by 1 at k = 0 for the Melnikov
divisors).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .fourier import mode_grid


def nominal_half_width(A: float, size_exponent: int, level: int) -> float:
    return 0.5 * A ** -(level ** size_exponent)


# ----------------------------------------------------------------------
# non-resonance scans
# ----------------------------------------------------------------------

# bytes of divisors the predicate holds at once: points run in chunks
_PREDICATE_BYTES = 1 << 23


def gamma_floor(gamma: float, tau: float):
    """The Diophantine floor gamma |k|_1^{-tau} of the predicate below and
    of the driver's divisor checks, as a callable of an (m, d) array of
    modes returning their m floors.  Each distinct |k|_1 takes one scalar
    gamma * max(|k|_1, 1) ** -tau, the per-mode expression, bit for bit."""
    def floor(modes):
        l1 = np.abs(modes).sum(axis=1)
        table = [gamma * max(v, 1) ** -tau
                 for v in range(int(l1.max(initial=0)) + 1)]
        return np.array(table)[l1]
    return floor


def nonresonance_predicate(Omega, N: int, gamma: float, tau: float):
    """Vectorized predicate: a point, an (m, d) array of frequency vectors,
    passes when it meets the Diophantine condition and the plain and
    doubled Melnikov conditions.  Points run in chunks of _PREDICATE_BYTES
    of divisors <k, omega>, so memory stays flat in the number of points."""
    Omega = np.asarray(Omega, dtype=float)
    pairs = np.array([Omega[a] + Omega[b] for a in range(Omega.size)
                      for b in range(a, Omega.size)])
    shifts = np.concatenate([Omega, pairs])

    def predicate(om: np.ndarray) -> np.ndarray:
        d = om.shape[1]
        ks = mode_grid(d, N).reshape(-1, d)
        knz = np.abs(ks).max(axis=1) > 0
        bounds = gamma_floor(gamma, tau)(ks)
        ok = np.empty(len(om), dtype=bool)
        step = max(1, _PREDICATE_BYTES // (8 * len(ks)))
        for lo in range(0, len(om), step):
            kw = om[lo:lo + step] @ ks.T                # (chunk, nk)
            part = (np.abs(kw[:, knz]) > bounds[knz][None, :]).all(axis=1)
            for s in shifts:
                part &= (np.abs(kw + s) > bounds[None, :]).all(axis=1)
            ok[lo:lo + step] = part
        return ok

    return predicate


# ----------------------------------------------------------------------
# boxes and atlases
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ParameterBox:
    center: tuple
    half_width: float
    level: int

    @property
    def d(self) -> int:
        return len(self.center)

    @property
    def volume(self) -> float:
        return (2.0 * self.half_width) ** self.d

    def contains(self, point, tol: float = 1e-12) -> bool:
        return bool(np.all(np.abs(np.asarray(point)
                                  - np.asarray(self.center))
                           <= self.half_width + tol))


@dataclass
class ParameterAtlas:
    level: int
    A: float
    size_exponent: int
    boxes: list
    parents: list = field(default_factory=list)   # parallel; None at root

    @classmethod
    def root(cls, center, half_width: float = 0.5, A: float = 10.0,
             size_exponent: int = 4) -> "ParameterAtlas":
        box = ParameterBox(tuple(float(c) for c in center),
                           float(half_width), 0)
        return cls(level=0, A=A, size_exponent=size_exponent,
                   boxes=[box], parents=[None])

    def total_volume(self) -> float:
        return float(sum(b.volume for b in self.boxes))

    def validate(self, tol: float = 1e-12):
        for i, a in enumerate(self.boxes):
            for b in self.boxes[i + 1:]:
                gap = np.abs(np.asarray(a.center) - np.asarray(b.center))
                if np.all(gap < a.half_width + b.half_width - tol):
                    raise ValueError(f"boxes overlap: {a} / {b}")
        if self.level > 0:
            for box, parent in zip(self.boxes, self.parents):
                if parent is None or not parent.contains(
                        box.center, tol=parent.half_width * 1e-9):
                    raise ValueError(f"box {box} lacks a containing parent")

    def serialize_rows(self) -> list:
        rows = [(b.level, *b.center, b.half_width)
                for b in sorted(self.boxes, key=lambda b: b.center)]
        return rows


def paving_count(atlas: ParameterAtlas, levels: int) -> int | float:
    """Boxes that `pave_and_filter` would create from `atlas` up to level
    `levels` if no box were filtered out, found without building a grid:
    per level, each box of half width h becomes per_axis^d children with
    per_axis = max(1, round(h / target)), as `pave_and_filter` rounds it
    (the boxes of one level share their half width).  Returns inf once the
    target width underflows."""
    d = atlas.boxes[0].d
    hw = atlas.boxes[0].half_width
    boxes, total = len(atlas.boxes), 0
    for level in range(atlas.level + 1, levels + 1):
        target = nominal_half_width(atlas.A, atlas.size_exponent, level)
        if target == 0.0 or hw / target == math.inf:
            return math.inf
        per_axis = max(1, round(hw / target))
        hw /= per_axis
        boxes *= per_axis ** d
        total += boxes
    return total


def pave_and_filter(atlas: ParameterAtlas, next_level: int, predicate
                    ) -> tuple:
    """Tile each surviving box with children of the next-level size, keep a
    child iff the predicate passes at its center and all corners, and return
    the refined atlas together with the removed-measure estimate."""
    if next_level <= atlas.level:
        raise ValueError("next_level must exceed the current level")
    target = nominal_half_width(atlas.A, atlas.size_exponent, next_level)
    children, parents = [], []
    removed = 0.0
    for box in atlas.boxes:
        d = box.d
        per_axis = max(1, round(box.half_width / target))
        h = box.half_width / per_axis
        axis = (2 * np.arange(per_axis) + 1) * h - box.half_width
        grids = np.meshgrid(*[axis] * d, indexing="ij")
        centers = np.asarray(box.center) \
            + np.stack([g.ravel() for g in grids], axis=-1)
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
        offs = np.vstack([np.zeros((1, d)), h * signs])
        pts = centers[:, None, :] + offs[None, :, :]
        ok = predicate(pts.reshape(-1, d)).reshape(len(centers),
                                                   offs.shape[0]).all(axis=1)
        removed += float((~ok).sum()) * (2.0 * h) ** d
        for c in centers[ok]:
            children.append(ParameterBox(tuple(float(v) for v in c),
                                         float(h), next_level))
            parents.append(box)
    out = ParameterAtlas(level=next_level, A=atlas.A,
                         size_exponent=atlas.size_exponent,
                         boxes=children, parents=parents)
    return out, removed


# points a Monte-Carlo estimate draws and tests at once
_MC_CHUNK = 65536


def monte_carlo_excluded(predicate, box: ParameterBox, n: int, rng) -> tuple:
    """Monte-Carlo estimate of the excluded fraction of a box, with the
    binomial standard error as the resolution bar."""
    bad = 0
    left = n
    c = np.asarray(box.center)
    while left > 0:
        m = min(_MC_CHUNK, left)
        pts = c + box.half_width * (2 * rng.random((m, box.d)) - 1)
        bad += int((~predicate(pts)).sum())
        left -= m
    frac = bad / n
    err = float(np.sqrt(max(frac * (1 - frac), 1.0 / n) / n))
    return frac, err
