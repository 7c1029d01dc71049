"""Spans around calls into toruskam's public functions, recorded from outside.

`install()` replaces each listed function with a wrapper in every
`toruskam.*` module namespace that binds the same object (a
`from .x import f` copies the binding, so patching the defining module
alone would miss those callers), and patches `LatticeMatrix.to_dense` on
its class.  A span stack gives each span its parent, so self time is the
span's duration minus the time its child spans cover.  Spans stay in memory
and are written once, by `Recorder.dump`, when the traced run ends.

`summarize()` turns a span list into the per-layer metrics; it runs in the
benchmark process, which never imports toruskam.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

# (defining module, attribute) for every traced function.
TRACED = [
    ("config", "load_config"),
    ("cli", "build_perturbation"),
    ("cli", "dispatch"),
    ("homological", "build_T"),
    ("homological", "build_boldT"),
    ("homological", "solve_hz"),
    ("homological", "solve_hzz"),
    ("homological", "solve_homological"),
    ("jets", "poisson_bracket"),
    ("jets", "lie_transform"),
    ("jets", "vf_norm"),
    ("fourier", "product"),
    ("greens", "invert_direct"),
    ("greens", "site_distances"),
    ("greens", "neumann_transfer"),
    ("multiscale", "sigma_scan"),
    ("atlas", "pave_and_filter"),
    ("driver", "initial_step"),
    ("driver", "kam_step"),
    ("driver", "invariance_residual"),
    ("stability", "integrate_linearized"),
    ("stability", "lyapunov_estimate"),
    ("stability", "trajectory_csv"),
]


class Recorder:
    """In-memory span list plus the stack of open spans."""

    def __init__(self):
        self.spans = []     # [name, parent index, start, end, attrs]
        self.stack = []

    def wrap(self, name, fn, before=None, after=None):
        """Wrap `fn` in a span called `name`.

        `before(args)` returns attributes known at entry; `after(result)`
        returns attributes read from the return value.  A raised exception
        is recorded by type name and re-raised.
        """
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(args) if before else {}
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1,
                          time.perf_counter(), None, attrs])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["raised"] = type(exc).__name__
                raise
            finally:
                spans[idx][3] = time.perf_counter()
                stack.pop()
            if after:
                attrs.update(after(result))
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _to_dense_before(args):
    T = args[0]
    if T._dense is not None:
        return {"built": 0}
    return {"built": 1, "bytes": 16 * T.size ** 2, "size": T.size}


def _lattice_solve_after(result):
    return {"residual": result[2].residual}


def _lattice_solve_before(args):
    return {"size": args[0].size}


def _pave_after(result):
    atlas, removed = result
    kept = atlas.total_volume()
    return {"kept_volume": kept, "removed_volume": removed}


def _integrate_after(result):
    return {"steps": len(result.times) - 1}


HOOKS = {
    "homological.solve_hz": (_lattice_solve_before, _lattice_solve_after),
    "homological.solve_hzz": (_lattice_solve_before, _lattice_solve_after),
    "atlas.pave_and_filter": (None, _pave_after),
    "stability.integrate_linearized": (None, _integrate_after),
}


def install(rec: Recorder):
    """Patch every traced function in every toruskam namespace."""
    mods = {short: importlib.import_module(f"toruskam.{short}")
            for short in {m for m, _ in TRACED}}
    namespaces = [m for name, m in sys.modules.items()
                  if name.startswith("toruskam.") and m is not None]
    for short, attr in TRACED:
        name = f"{short}.{attr}"
        orig = getattr(mods[short], attr)
        wrapped = rec.wrap(name, orig, *HOOKS.get(name, (None, None)))
        for ns in namespaces:
            if getattr(ns, attr, None) is orig:
                setattr(ns, attr, wrapped)
    cls = mods["homological"].LatticeMatrix
    cls.to_dense = rec.wrap("homological.to_dense", cls.to_dense,
                            before=_to_dense_before)


# ----------------------------------------------------------------------
# aggregation (benchmark side)
# ----------------------------------------------------------------------

def _self_and_total(spans):
    """Per-span self time and per-name inclusive time of outermost calls."""
    n = len(spans)
    child = [0.0] * n
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    selfs = [s[3] - s[2] - child[i] for i, s in enumerate(spans)]
    total = {}
    for i, (name, parent, t0, t1, _) in enumerate(spans):
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:       # not nested inside another call of itself
            total[name] = total.get(name, 0.0) + (t1 - t0)
    return selfs, total


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def summarize(spans) -> dict:
    """Per-layer metrics (without `trace.overhead_s`) from one traced run."""
    selfs, total = _self_and_total(spans)
    calls, self_s, durations, attrs = {}, {}, {}, {}
    for i, (name, _, t0, t1, a) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        durations.setdefault(name, []).append(t1 - t0)
        attrs.setdefault(name, []).append(a)

    def attr_values(name, key):
        return [a[key] for a in attrs.get(name, []) if key in a]

    def raised(name, exc):
        return sum(1 for a in attrs.get(name, []) if a.get("raised") == exc)

    m = {}
    for short, attr in TRACED + [("homological", "to_dense")]:
        name = f"{short}.{attr}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
        m[f"{name}.total_s"] = total.get(name, 0.0)

    m["homological.to_dense.builds"] = sum(
        attr_values("homological.to_dense", "built"))
    m["homological.to_dense.bytes"] = sum(
        attr_values("homological.to_dense", "bytes"))
    sizes = (attr_values("homological.to_dense", "size")
             + attr_values("homological.solve_hz", "size")
             + attr_values("homological.solve_hzz", "size"))
    m["homological.lattice_size_max"] = max(sizes, default=0)
    m["homological.solve_residual_max"] = max(
        attr_values("homological.solve_hz", "residual")
        + attr_values("homological.solve_hzz", "residual"), default=0.0)

    inv = sorted(durations.get("greens.invert_direct", []))
    m["greens.invert_direct.p50_s"] = _quantile(inv, 5)
    m["greens.invert_direct.p90_s"] = _quantile(inv, 9)
    m["greens.invert_direct.near_singular"] = raised(
        "greens.invert_direct", "NearSingularError")
    m["greens.neumann_transfer.gate_failures"] = raised(
        "greens.neumann_transfer", "CertificateGateError")

    kept = sum(attr_values("atlas.pave_and_filter", "kept_volume"))
    removed = sum(attr_values("atlas.pave_and_filter", "removed_volume"))
    m["atlas.boxes_kept_ratio"] = kept / (kept + removed) \
        if kept + removed > 0 else 0.0

    steps = sum(attr_values("stability.integrate_linearized", "steps"))
    busy = self_s.get("stability.integrate_linearized", 0.0)
    m["stability.steps"] = steps
    m["stability.steps_per_s"] = steps / busy if busy > 0 else 0.0
    return m
