"""The benchmark's workloads: inputs from a seed, the timed calls, the checks.

Each workload drives cmzv's public API the way a researcher's script or a
`cmzv` invocation does: one caller, one call after another, `jobs=1`.

A workload has four steps:

* `inputs(seed, size)` makes a JSON-able description of the inputs.  The
  seed picks among inputs of the same size; seed 0 gives the defaults.
* `prepare(cmzv, inputs, work, shared)` does the workload's own set-up in
  the private directory `work` (counted in `setup_s`).
* `run(cmzv, inputs, state)` is the timed part; it returns the outputs.
* `check(cmzv, inputs, outputs, ref)` returns one `Op` per operation and the
  error bounds of the numeric outputs.  It runs after timing.

An operation fails when its output is wrong.  A failure is `known` when the
reference file records it as a defect of the program at the commit that
defined the benchmark; `correct` in the result is false only for failures
that are not known.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass

# the error bound reported for exact outputs: the smallest positive double,
# because a reported metric may not be 0
EXACT_TOL = math.ulp(0.0)

DIM_ALPHAS = (1, 2)  # the class alpha of the N=3 table
DIM_FLOORS = (50, 53, 56, 59)  # prime floor; 50 is DimConfig's default here
SYM_ALPHAS = (1, 2)
EVAL_FLOORS = (10000, 10030, 10060, 10090)  # four primes = 2 (mod 3) above it
EVAL_COLORS = {
    3: ((1, 2, 1), (2, 1, 2), (1, 1, 2), (2, 2, 1)),
    4: ((1, 3, 1), (3, 1, 3), (1, 1, 3), (3, 3, 1)),
    5: ((1, 2, 3), (2, 3, 4), (1, 4, 2), (3, 1, 4)),
}
EVAL_KS = (2, 1, 1)
PROBE_INDEX = "k=2,1;e=1,2"  # level 3, class 1, as in `cmzv qsum`


@dataclass
class Op:
    ok: bool
    known: bool = False


def _pick(seed: int, stride: int, choices):
    return choices[(seed // stride) % len(choices)]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _primes_above(floor: int, modulus: int, residue: int, count: int) -> list[int]:
    out, n = [], floor + 1
    while len(out) < count:
        if n % modulus == residue and _is_prime(n):
            out.append(n)
        n += 1
    return out


def _close(a: complex, b: complex, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---- dim-cold / dim-warm --------------------------------------------------


def dim_inputs(seed: int, size: str) -> dict:
    wmax = {"full": (4, 5), "tiny": (2, 2)}[size]
    return {
        "tables": [[3, _pick(seed, 1, DIM_ALPHAS), wmax[0]], [2, 1, wmax[1]]],
        "prime_floor": _pick(seed, 2, DIM_FLOORS),
    }


def _dim_config(cmzv, inputs, cache_dir):
    return cmzv.DimConfig(prime_floor=inputs["prime_floor"], cache_dir=cache_dir, jobs=1)


def dim_cold_prepare(cmzv, inputs, work, shared):
    cache = os.path.join(work, "cache")
    os.makedirs(cache)
    return cache


def dim_warm_prepare(cmzv, inputs, work, shared):
    cache = os.path.join(work, "cache")
    shutil.copytree(shared, cache)
    return cache


def dim_run(cmzv, inputs, cache):
    cfg = _dim_config(cmzv, inputs, cache)
    reports = []
    for N, alpha, wmax in inputs["tables"]:
        reports.extend(cmzv.dimension_table(N, alpha, wmax, cfg))
    return reports


def dim_check(cmzv, inputs, reports, ref):
    known = {tuple(d) for d in ref["dim_known_defects"]}
    ops = []
    for r in reports:
        ok = r.dim_estimate == r.mt_dim or r.under_determined
        key = (r.N, r.alpha, inputs["prime_floor"], r.weight, r.dim_estimate)
        ops.append(Op(ok, not ok and key in known))
    return ops, []


# ---- sym --------------------------------------------------------------------


def sym_inputs(seed: int, size: str) -> dict:
    return {"alpha": _pick(seed, 1, SYM_ALPHAS), "N": 3, "wmax": {"full": 3, "tiny": 2}[size]}


def _sym_indices(cmzv, inputs):
    N = inputs["N"]
    return [
        ix
        for w in range(1, inputs["wmax"] + 1)
        for ix in cmzv.indices_of_weight(N, w, admissible_only=False)
    ]


def sym_prepare(cmzv, inputs, work, shared):
    return _sym_indices(cmzv, inputs), cmzv.MzvEvalConfig(precision=53)


def sym_run(cmzv, inputs, state):
    indices, cfg = state
    alpha = inputs["alpha"]
    return [(ix, cmzv.symmetric_cmzv(alpha, ix, cfg)) for ix in indices]


def sym_check(cmzv, inputs, outputs, ref):
    table = ref["sym"][str(inputs["alpha"])]
    ops, tols = [], []
    for ix, val in outputs:
        re, im, rtol = table[cmzv.format_index(ix)]
        near = abs(val.value - complex(re, im)) <= val.tol + rtol
        ops.append(Op(val.t_independent and near))
        tols.append(val.tol)
    return ops, tols


# ---- evals --------------------------------------------------------------------


def evals_inputs(seed: int, size: str) -> dict:
    full = size == "full"
    color = _pick(seed, 1, range(len(EVAL_COLORS[3])))
    floor = _pick(seed, 4, EVAL_FLOORS)
    return {
        "color": color,
        "floor": floor,
        "exact_m": {3: [60, 120, 180, 240], 4: [40, 80, 120]} if full else {3: [12], 4: [8]},
        "primes": _primes_above(floor, 3, 2, 4 if full else 1),
        "probe_m": [10**3, 10**4, 10**5] if full else [10**3],
        "numeric_m": [10**4, 10**5] if full else [10**4],
        "trunc_m": 60 if full else 20,
    }


def _eval_index(cmzv, inputs, N):
    return cmzv.Index(EVAL_KS, EVAL_COLORS[N][inputs["color"]], N)


def evals_prepare(cmzv, inputs, work, shared):
    return {
        "exact": [(_eval_index(cmzv, inputs, int(N)), ms) for N, ms in inputs["exact_m"].items()],
        "finite": _eval_index(cmzv, inputs, 3),
        "probe": cmzv.parse_index(PROBE_INDEX, 3),
        "trunc": _eval_index(cmzv, inputs, 5),
    }


def evals_run(cmzv, inputs, st):
    out = {"exact": [], "finite": [], "numeric": []}
    for ix, ms in st["exact"]:
        for m in ms:
            out["exact"].append((ix, m, cmzv.qsum_exact(m, ix)))
    for p in inputs["primes"]:
        ctx = cmzv.make_fq_context(p, 3)
        out["finite"].append((p, cmzv.finite_residue(st["finite"], p, ctx)))
    out["probe"] = cmzv.asymptotic_probe(st["probe"], 1, inputs["probe_m"], 53)
    for m in inputs["numeric_m"]:
        out["numeric"].append((m, cmzv.qsum_numeric(m, st["finite"])))
    out["trunc"] = cmzv.truncated_cmzv_exact(inputs["trunc_m"], st["trunc"])
    return out


# relative agreement required between two evaluations of one value; the
# largest gap seen when the benchmark was defined is 4.2e-14 (README.md)
EVAL_REL_TOL = 1e-11


def _embed(cmzv, exact) -> complex:
    # 113 bits: the coefficients of exact q-sums reach 1e7, and a 53-bit
    # Horner evaluation of them loses up to 1e-8
    return complex(cmzv.embed_complex(exact, 113))


def evals_check(cmzv, inputs, out, ref):
    ops, tols = [], []
    for ix, m, exact in out["exact"]:
        ops.append(Op(_close(_embed(cmzv, exact), cmzv.qsum_numeric(m, ix), EVAL_REL_TOL)))
    table = ref["finite"][str(inputs["color"])]
    for p, val in out["finite"]:
        ops.append(Op(list(val.coeffs) == table.get(str(p))))
    probe_ref = {row[0]: row[1:] for row in ref["probe"]}
    for row in out["probe"]:
        v_re, v_im, p_re, p_im, p_tol = probe_ref[row["m"]]
        ok = _close(row["value"], complex(v_re, v_im), EVAL_REL_TOL)
        ok = ok and abs(row["predicted"] - complex(p_re, p_im)) <= row["tol"] + p_tol
        ops.append(Op(ok))
        tols.append(row["tol"])
    numeric_ref = ref["numeric"][str(inputs["color"])]
    for m, val in out["numeric"]:
        re, im = numeric_ref[str(m)]
        ops.append(Op(_close(val, complex(re, im), EVAL_REL_TOL)))
    m, ix = inputs["trunc_m"], _eval_index(cmzv, inputs, 5)
    numeric = cmzv.truncated_cmzv_numeric(m, ix)
    ops.append(Op(_close(_embed(cmzv, out["trunc"]), numeric, EVAL_REL_TOL)))
    return ops, tols


@dataclass(frozen=True)
class Workload:
    inputs: object
    prepare: object
    run: object
    check: object
    # whether run.py scales wall_s by the calibration loop (README.md): true
    # where the timed calls are mostly Python bytecode, whose speed the loop
    # tracks; false for sym, whose time is mostly numpy over 1e6-term arrays
    # and moved independently of the loop when measured
    scale_wall: bool


WORKLOADS = {
    "dim-cold": Workload(dim_inputs, dim_cold_prepare, dim_run, dim_check, True),
    "dim-warm": Workload(dim_inputs, dim_warm_prepare, dim_run, dim_check, True),
    "sym": Workload(sym_inputs, sym_prepare, sym_run, sym_check, False),
    "evals": Workload(evals_inputs, evals_prepare, evals_run, evals_check, True),
}
