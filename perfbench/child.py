"""One benchmark sample: load a config and call `toruskam.cli.dispatch`.

Started by `run.py` in a fresh interpreter, with the BLAS thread settings
and `PYTHONPATH` in this process's own environment:

    python3 perfbench/child.py --config CFG --out DIR --spawned T
        [--trace SPANS.json] [--setup-only]

`--spawned` is the CLOCK_MONOTONIC reading the parent took just before it
started this process, so set-up time (interpreter start, imports, config
load) runs up to the call into `dispatch`.  The timings go to
`DIR/sample.json`; the exit code is dispatch's.
"""

import argparse
import json
import os
import resource
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy as np
    import scipy
    from toruskam import cli, config

    rec = None
    if args.trace:
        import spans
        rec = spans.Recorder()
        spans.install(rec)

    cfg = config.parse_config(args.config)
    ready = time.monotonic()
    sample = {"setup_s": ready - args.spawned}
    code = 0
    if not args.setup_only:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        code = cli.dispatch(cfg, args.out)
        done = time.monotonic()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        sample.update(
            solve_s=done - ready,
            cpu_s=(ru1.ru_utime - ru0.ru_utime)
            + (ru1.ru_stime - ru0.ru_stime),
            peak_rss_mb=ru1.ru_maxrss / 1024.0)
        if rec is not None:
            rec.dump(args.trace)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sample["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "sample.json"), "w") as fh:
        json.dump(sample, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
