"""Self-test of the benchmark: every workload on tiny inputs, traced.

    python3 perfbench/selftest.py

Run from the root of the source tree.  For each workload it checks that the
run is correct, that the metric names match BENCHMARK.json, and that the
layer spans cover at least 90% of the traced wall time.  It also checks that
the benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAX_UNATTRIBUTED = 0.10


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, wl, trace)
            if proc.returncode != 0:
                problems.append(f"{wl} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = res["metrics"]
            if not res["correct"]:
                problems.append(f"{wl} trace={trace}: outputs not correct")
            if set(metrics) != {m["name"] for m in spec[key]}:
                problems.append(f"{wl} trace={trace}: metric names differ from BENCHMARK.json")
            if trace:
                gap = metrics["trace.unattributed_frac"]["value"]
                print(f"{wl}: unattributed {gap:.4f} of traced wall time")
                if gap > MAX_UNATTRIBUTED:
                    problems.append(f"{wl}: layer spans cover only {1 - gap:.1%}")

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("benchmark ran without a source tree")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
