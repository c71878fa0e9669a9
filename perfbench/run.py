"""The cmzv benchmark: one workload, timed repetitions, one JSON result line.

    python3 perfbench/run.py --workload dim-cold --seed 0 --seconds 28 --trace 0

Run it from the root of a cmzv source tree; the package is imported from
`src`, nothing is installed.  Each repetition runs in a fresh interpreter
(perfbench/worker.py), one after the other: a closed loop with one client
and `jobs=1`.  Repetitions start while the next one is expected to end
within `--seconds`, give or take half a repetition; at least one always
runs.  Before them, a few set-up-only interpreters are started so that
`setup_s` is a median of several samples.

With `--trace 0` the result holds the end-to-end metrics, medians over the
repetitions.  With `--trace 1` untraced and traced repetitions alternate;
the result holds the per-layer metrics, medians over the traced ones, and
`trace.overhead_frac` compares the two medians of `wall_s`.

Every file the benchmark writes lives under `.perfbench/` in the source
tree: private residue caches (removed at exit) and the spans of the last
traced repetition (`.perfbench/traces/<workload>.jsonl`).  The last line of
standard output is the result; the line before it records the seed, the
inputs, the environment and every sample.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150
# setup_s, and wall_s where the workload's scale_wall is set, are scaled to a
# machine on which worker.py's calibration loop takes this long:
# value = measured * REFERENCE_LOOP_S / cal_s.  On a shared host the speed of
# a vCPU changes by up to 1.5x for minutes at a time; the loop, run in the
# same process just before and after the timed calls, follows those changes,
# and the scaled times stay steady where the raw ones do not (README.md).
# 0.025 s is the loop's time on the 2-vCPU machine the benchmark was defined
# on, in its fast periods.
REFERENCE_LOOP_S = 0.025


def _units() -> dict:
    """Metric name -> unit, from BENCHMARK.json beside this directory."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


class WorkerError(RuntimeError):
    pass


def _worker(root, env, args, work, extra=()):
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--work", work,
        *extra,
    ]
    spawn = time.monotonic_ns()
    proc = subprocess.run(
        cmd + ["--spawn-ns", str(spawn)],
        cwd=root, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    elapsed = (time.monotonic_ns() - spawn) * 1e-9
    if proc.returncode != 0:
        raise WorkerError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs each workload on small inputs (self-test)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cmzv", "__init__.py")):
        print("perfbench: run from the root of a cmzv source tree (no src/cmzv here)",
              file=sys.stderr)
        return 2

    # on SIGTERM, unwind: subprocess.run kills the running worker, and the
    # private directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=base)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["CMZV_CACHE_DIR"] = os.path.join(scratch, "cmzv-cache")  # never the user's
    try:
        return _measure(root, env, args, base, scratch)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(root, env, args, base, scratch) -> int:
    counter = itertools.count()

    def fresh():
        return tempfile.mkdtemp(prefix=f"{next(counter)}-", dir=scratch)

    # untimed: compile bytecode once, and build the shared cache dim-warm copies
    subprocess.run([sys.executable, "-c", "import cmzv"], cwd=root, env=env, check=True,
                   timeout=WORKER_TIMEOUT_S)
    shared = None
    if args.workload == "dim-warm":
        shared = os.path.join(scratch, "shared")
        os.makedirs(shared)
        build = argparse.Namespace(**{**vars(args), "workload": "dim-cold"})
        _worker(root, env, build, shared)
    extra = ["--shared", os.path.join(shared, "cache")] if shared else []

    start = time.monotonic()
    setups = []
    for _ in range(SETUP_PROBES):
        res, _ = _worker(root, env, args, fresh(), extra + ["--setup-only"])
        setups.append(res)

    traces = os.path.join(base, "traces")
    os.makedirs(traces, exist_ok=True)
    plain, traced = [], []
    while True:
        res, took = _worker(root, env, args, fresh(), extra)
        plain.append(res)
        if args.trace:
            spans_file = os.path.join(traces, f"{args.workload}.jsonl")
            res, more = _worker(root, env, args, fresh(), extra + ["--trace", spans_file])
            traced.append(res)
            took += more
        # start another only if it is expected to end by half a repetition
        # past the budget, so that a run lasts about `--seconds` on average
        if time.monotonic() - start + took / 2 > args.seconds:
            break

    units = _units()
    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["unknown_failures"] == 0 for r in runs)
    med = statistics.median

    def scaled(name, results):
        if name == "wall_s" and not WORKLOADS[args.workload].scale_wall:
            return [r[name] for r in results]
        return [r[name] * REFERENCE_LOOP_S / r["cal_s"] for r in results]

    if args.trace:
        metrics = {}
        for name, first in traced[0]["layers"].items():
            values = [r["layers"][name] for r in traced]
            # counts stay whole numbers
            metrics[name] = (statistics.median_low if isinstance(first, int) else med)(values)
        metrics["trace.overhead_frac"] = (
            med(scaled("wall_s", traced)) / med(scaled("wall_s", plain)) - 1.0
        )
    else:
        metrics = {
            "wall_s": med(scaled("wall_s", plain)),
            "setup_s": med(scaled("setup_s", setups + plain)),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
            "pass_frac": (attempted - failed) / attempted,
            "max_tol": max(r["max_tol"] for r in plain),
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "inputs": plain[0]["inputs"],
        "env": plain[0]["env"],
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "reference_loop_s": REFERENCE_LOOP_S,
        "wall_scaled": WORKLOADS[args.workload].scale_wall,
        "raw_samples": {
            "setup_s": [r["setup_s"] for r in setups + plain],
            "setup_cal_s": [r["cal_s"] for r in setups + plain],
            "wall_s": [r["wall_s"] for r in plain],
            "cal_s": [r["cal_s"] for r in plain],
            "traced_wall_s": [r["wall_s"] for r in traced],
            "traced_cal_s": [r["cal_s"] for r in traced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        },
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
