"""toruskam benchmark: batch workloads through `toruskam.cli.dispatch`.

    python3 perfbench/run.py --workload kam-run --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the program is imported from
`src/`).  Each sample is a fresh child process (`child.py`) that loads the
generated config and calls `dispatch`; samples run one after another, a
closed loop with one client, until `--seconds` have passed.  Every sample's
output is checked by `check.py`.  The last line of standard output is one
JSON object: with `--trace 0` the end-to-end metrics of BENCHMARK.json
(medians over the samples), with `--trace 1` its per-layer metrics, read
from one extra traced sample.  `--workload all` runs every workload in
turn and prefixes each metric with its workload.  A full record, with the
environment, goes to `--results` (default `.perfbench/results`) for
`compare.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import spans  # noqa: E402

ROOT = os.getcwd()
GOLDEN = 1.6180339887498949
SETUP_ONLY_SAMPLES = 2      # extra set-up samples, so setup_s is a median
DEADLINE_S = 170.0          # the whole run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ----------------------------------------------------------------------
# workloads: config from seed (see NOTES.md for why each was chosen)
# ----------------------------------------------------------------------

def kam_run(seed: int) -> dict:
    return {"mode": "run", "seed": seed, "d": 2, "n": 1,
            "omega": [1.0, GOLDEN], "Omega": [1.17],
            "A": 2.0, "s0": 0.3, "r0": 0.5, "eps": 1e-6,
            "caps": {"levels": 3, "N_max": 24, "gamma": 1e-4},
            "perturbation": {"kind": "random-tail", "amplitude": 1e-6,
                             "kmax": 26}}


def sigma_scan(seed: int) -> dict:
    lo = float(np.random.default_rng(seed).uniform(-1.0, 0.0))
    return {"mode": "sigma-scan", "seed": seed, "d": 2, "n": 1,
            "omega": [1.0, GOLDEN], "Omega": [1.17],
            "perturbation": {"mode": [1, 0]},
            "greens": {"N": 8, "coupling_eps": 0.05, "coupling_rho": 0.5},
            "sigma_scan": {"range": [lo, lo + 1.0], "norm_target": 100.0,
                           "alpha_target": 0.1, "threshold": 2.0,
                           "points_per_unit": 100.0, "refine_iters": 10}}


def stability(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.0, 2 * np.pi, size=2)
    theta = rng.uniform(0.0, 2 * np.pi, size=2)
    return {"mode": "stability", "seed": seed, "d": 2, "n": 2,
            "omega": [1.0, GOLDEN], "Omega": [1.17, 1.43],
            "perturbation": {"kind": "cosine", "amplitude": 0.01,
                             "mode": [1, 0]},
            "stability": {"T": 100.0, "dt": 1e-3, "phases": [list(x0)],
                          "z0_real": list(np.cos(theta)),
                          "z0_imag": list(np.sin(theta))}}


WORKLOADS = {
    "kam-run": (kam_run, check.check_kam_run),
    "sigma-scan": (sigma_scan, check.check_sigma_scan),
    "stability": (stability, check.check_stability),
}


# ----------------------------------------------------------------------
# samples
# ----------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_sample(cfg_path, out, timeout, trace=None, setup_only=False):
    """Run one child; returns (sample dict or None, exit code, log tail)."""
    os.makedirs(out, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--config", cfg_path, "--out", out]
    if trace:
        cmd += ["--trace", trace]
    if setup_only:
        cmd.append("--setup-only")
    log = os.path.join(out, "child.log")
    with open(log, "w") as fh:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)],
                                stdout=fh, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=ROOT)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    sample = None
    path = os.path.join(out, "sample.json")
    if os.path.exists(path):
        with open(path) as fh:
            sample = json.load(fh)
    with open(log) as fh:
        tail = fh.read()[-2000:]
    return sample, code, tail


def _problems(check_output, cfg, out, sample, code) -> list:
    """Why a sample failed, or [] if it exited 0 and its output checks."""
    if code != 0:
        return [f"exit code {code}"]
    if sample is None or "solve_s" not in sample:
        return ["no sample written"]
    try:
        return check_output(cfg, out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]


def _output_bytes(out) -> int:
    return sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
               if f not in ("sample.json", "child.log"))


def _git_sha():
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """One run of a workload; returns its record, or None if no sample
    succeeded."""
    make_cfg, check_output = WORKLOADS[workload]
    cfg = make_cfg(seed)
    start = time.monotonic()
    work = os.path.join(ROOT, ".perfbench", "work",
                        f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)

    def left():
        return DEADLINE_S - (time.monotonic() - start)

    setups, samples, failures, env = [], [], [], None
    for i in range(SETUP_ONLY_SAMPLES):
        out = os.path.join(work, f"setup{i}")
        s, code, tail = run_sample(cfg_path, out, left(), setup_only=True)
        if s is None or code != 0:
            print(f"set-up sample failed (exit {code}):\n{tail}",
                  file=sys.stderr)
            shutil.rmtree(work, ignore_errors=True)
            return None
        setups.append(s["setup_s"])
        env = s["env"]
        shutil.rmtree(out)

    # untraced samples; a traced run spends half its time on them
    budget = seconds / 2 if trace else seconds
    attempted = 0
    while True:
        out = os.path.join(work, f"run{attempted}")
        attempted += 1
        s, code, tail = run_sample(cfg_path, out, left())
        if s is not None and "solve_s" in s:
            setups.append(s["setup_s"])
            samples.append(s)
        problems = _problems(check_output, cfg, out, s, code)
        if problems:
            failures.append(problems)
            print(f"sample {attempted} failed: {problems}\n{tail}",
                  file=sys.stderr)
        shutil.rmtree(out)
        elapsed = time.monotonic() - start
        if elapsed >= budget or left() < 2 * elapsed / attempted:
            break

    layer = None
    if trace and samples:
        out = os.path.join(work, "traced")
        span_file = os.path.join(work, "spans.json")
        attempted += 1
        s, code, tail = run_sample(cfg_path, out, left(), trace=span_file)
        problems = _problems(check_output, cfg, out, s, code)
        if problems:
            failures.append(problems)
            print(f"traced sample failed: {problems}\n{tail}",
                  file=sys.stderr)
        if os.path.exists(span_file):
            with open(span_file) as fh:
                layer = spans.summarize(json.load(fh))
            layer["cli.output_bytes"] = _output_bytes(out)
            layer["trace.solve_s"] = s["solve_s"]
            layer["trace.overhead_s"] = s["solve_s"] - statistics.median(
                [x["solve_s"] for x in samples])
            layer["trace.uncovered_share"] = \
                layer["cli.dispatch.self_s"] / s["solve_s"]

    shutil.rmtree(work, ignore_errors=True)
    if not samples or (trace and layer is None):
        print(f"{workload}: no successful sample", file=sys.stderr)
        return None
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "seconds": seconds, "config": cfg,
        "env": dict(env, git_sha=_git_sha(), nproc=os.cpu_count(),
                    affinity=len(os.sched_getaffinity(0))),
        "attempted": attempted, "failed": len(failures),
        "failures": failures,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median([x["solve_s"] for x in samples]),
            "cpu_s": statistics.median([x["cpu_s"] for x in samples]),
            "peak_rss_mb": statistics.median(
                [x["peak_rss_mb"] for x in samples]),
        },
        "per_layer": layer,
        "elapsed_s": time.monotonic() - start,
        "samples": samples, "setups": setups}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=os.path.join(".perfbench",
                                                      "results"))
    args = ap.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "toruskam", "cli.py")):
        print("src/toruskam not found: run from the root of a toruskam "
              "source checkout", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    section = "per_layer" if args.trace else "end_to_end"
    attempted = failed = 0
    metrics = {}
    os.makedirs(args.results, exist_ok=True)
    for wl in names:
        rec = measure(wl, args.seed, args.seconds, bool(args.trace))
        if rec is None:
            return 1
        with open(os.path.join(args.results, f"{wl}-s{args.seed}-t"
                               f"{args.trace}-{time.time_ns()}.json"),
                  "w") as fh:
            json.dump(rec, fh, indent=1)
        attempted += rec["attempted"]
        failed += rec["failed"]
        print(f"env: {json.dumps(rec['env'], sort_keys=True)}")
        print(f"{wl} seed {args.seed}: {len(rec['samples'])} samples, "
              f"{len(rec['setups'])} set-ups, {rec['elapsed_s']:.1f} s")
        for m in spec["end_to_end"]:
            print(f"  {m['name']:<16} {rec['end_to_end'][m['name']]:.6g} "
                  f"{m['unit']}")
        print(f"  {'failed_fraction':<16} "
              f"{rec['failed'] / rec['attempted']:.6g} "
              f"({rec['failed']}/{rec['attempted']} runs)")
        values = rec["per_layer"] if args.trace else rec["end_to_end"]
        prefix = f"{wl}." if len(names) > 1 else ""
        metrics.update({prefix + m["name"]: {"value": values[m["name"]],
                                             "unit": m["unit"]}
                        for m in spec[section]})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
