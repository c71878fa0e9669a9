"""One repetition of one workload, in a fresh interpreter.

Run by run.py, from the root of the source tree, with `src` on PYTHONPATH.
It imports cmzv, prepares the workload in its private directory, runs the
timed calls, checks the outputs and prints one JSON object as its last line.

    python3 perfbench/worker.py --workload sym --seed 0 --work DIR --spawn-ns T
        [--size tiny] [--trace SPANS.jsonl] [--setup-only] [--shared DIR]

`--spawn-ns` is the CLOCK_MONOTONIC reading, in nanoseconds, taken by the
parent just before it started this process; `setup_s` runs from there to
the end of the workload's preparation.

`cal_s` is the median time of a fixed pure-Python loop, run three times
after the preparation and three times after the timed calls.  It measures
how fast the machine runs at the moment; run.py scales times by it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time

from workloads import EXACT_TOL, WORKLOADS

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def environment(cmzv) -> dict:
    import mpmath
    import numpy as np

    try:
        import gmpy2  # noqa: F401

        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "gmpy2": has_gmpy2,
        "longdouble_mantissa_bits": int(np.finfo(np.longdouble).nmant),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _calibrate() -> float:
    t = time.monotonic_ns()
    x = 1
    for i in range(150_000):
        x = (x * 48271 + i) % 2147483647
    return (time.monotonic_ns() - t) * 1e-9


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f)) for root, _, files in os.walk(path) for f in files
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--shared", default=None)
    ap.add_argument("--trace", default=None, help="record spans and write them here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.monotonic_ns()
    import cmzv

    import_s = (time.monotonic_ns() - t0) * 1e-9
    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed, args.size)
    state = wl.prepare(cmzv, inputs, args.work, args.shared)
    setup_s = (time.monotonic_ns() - args.spawn_ns) * 1e-9
    result = {"setup_s": setup_s, "import_s": import_s}
    cal = [_calibrate() for _ in range(3)]
    if args.setup_only:
        result["cal_s"] = statistics.median(cal)
        print(json.dumps(result))
        return 0

    recorder = None
    run = wl.run
    counter = contextlib.nullcontext()
    if args.trace:
        from spans import Recorder

        recorder = Recorder(f"{args.workload}-{args.seed}-{os.getpid()}")
        recorder.install()
        run = recorder.wrap("workload", run)
        counter = cmzv.field_op_counter()
    with counter as ops_counter:
        t1 = time.monotonic_ns()
        outputs = run(cmzv, inputs, state)
        t2 = time.monotonic_ns()
    if recorder is not None:
        recorder.uninstall()
    result["wall_s"] = (t2 - t1) * 1e-9
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["cal_s"] = statistics.median(cal + [_calibrate() for _ in range(3)])

    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    ops, tols = wl.check(cmzv, inputs, outputs, ref)
    result["attempted"] = len(ops)
    result["failed"] = sum(not op.ok for op in ops)
    result["unknown_failures"] = sum(not op.ok and not op.known for op in ops)
    result["max_tol"] = max(tols, default=EXACT_TOL)
    result["inputs"] = inputs
    result["env"] = environment(cmzv)

    if recorder is not None:
        from spans import summarize

        recorder.write(args.trace)
        layers = summarize(recorder.spans, 0)
        layers["qsums.field_ops"] = ops_counter.count
        layers["cmzv.import_s"] = import_s
        layers["finite.cache_bytes"] = _dir_bytes(args.work)
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
