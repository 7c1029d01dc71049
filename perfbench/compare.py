"""Compare two result sets of the benchmark, one row per (workload, metric).

    python3 perfbench/compare.py BASE_DIR NEW_DIR [--spec BENCHMARK.json]

Each directory holds the records `run.py --results DIR` writes (untraced
runs only are read).  For each end-to-end metric the row gives each side's
median and quartiles (`statistics.quantiles(values, n=4)`), each side's
spread (interquartile distance over the median) and a verdict under the
metric's bound from BENCHMARK.json:

- worse: NEW's median is worse than BASE's by more than the bound;
- unresolved: either side's spread is wider than the bound, unless every
  NEW run is better than every BASE run;
- better: NEW wins at least 9 of 10 runs paired by seed (ties count for
  neither) and the medians differ by more than BASE's interquartile range;
- unchanged: none of the above.

`failed_fraction` (failed over attempted runs) is listed without a bound.
Run on two result sets of the same code, the last line says whether they
agree: no failed run, every spread except that of setup_s within its
bound, and no verdict "worse".
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory) -> dict:
    """{workload: {seed: record}} for the untraced records in a directory."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0:
            out.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: dict, new: dict, bound: float, lower_is_better: bool):
    """base/new map seed -> value.  Returns (verdict, base/new spreads)."""
    sign = 1.0 if lower_is_better else -1.0
    b, n = list(base.values()), list(new.values())
    bq1, bmed, bq3 = quartiles(b)
    nq1, nmed, nq3 = quartiles(n)
    bspread = (bq3 - bq1) / abs(bmed) if bmed else 0.0
    nspread = (nq3 - nq1) / abs(nmed) if nmed else 0.0
    all_better = max(sign * x for x in n) < min(sign * x for x in b)
    paired = [s for s in base if s in new]
    wins = sum(sign * new[s] < sign * base[s] for s in paired)
    if sign * (nmed - bmed) > bound * abs(bmed):
        out = "worse"
    elif max(bspread, nspread) > bound and not all_better:
        out = "unresolved"
    elif all_better or (paired and wins >= 0.9 * len(paired)
                        and abs(nmed - bmed) > bq3 - bq1):
        out = "better"
    else:
        out = "unchanged"
    return out, bspread, nspread


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--spec", default="BENCHMARK.json")
    args = ap.parse_args(argv)
    with open(args.spec) as fh:
        spec = json.load(fh)
    base, new = load(args.base), load(args.new)
    agree = True
    print(f"{'workload':<11} {'metric':<16} {'base median [q1, q3]':<30} "
          f"{'new median [q1, q3]':<30} {'spread b/n':<13} {'bound':<6} "
          f"verdict")
    for wl in sorted(set(base) | set(new)):
        if wl not in base or wl not in new:
            print(f"{wl:<11} only in {'base' if wl in base else 'new'}")
            agree = False
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = {s: r["end_to_end"][name] for s, r in base[wl].items()}
            nv = {s: r["end_to_end"][name] for s, r in new[wl].items()}
            v, bs, ns = verdict(bv, nv, m["bound"], m["better"] == "lower")
            if v == "worse" or (name != "setup_s"
                                and max(bs, ns) > m["bound"]):
                agree = False
            cells = []
            for vals in (bv, nv):
                q1, med, q3 = quartiles(list(vals.values()))
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {m['unit']}")
            print(f"{wl:<11} {name:<16} {cells[0]:<30} {cells[1]:<30} "
                  f"{bs:.3f}/{ns:.3f}  {m['bound']:<6} {v}")
        fails = []
        for side in (base[wl], new[wl]):
            att = sum(r["attempted"] for r in side.values())
            bad = sum(r["failed"] for r in side.values())
            agree = agree and bad == 0
            fails.append(f"{bad}/{att}")
        print(f"{wl:<11} {'failed_fraction':<16} {fails[0]:<30} "
              f"{fails[1]:<30}")
    print("same-code agreement: " + ("yes" if agree else "no"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
