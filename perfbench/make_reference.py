"""Write reference.json: the stored outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py

It evaluates every input any seed can pick, with the program as it stands,
and records the values, their error bounds, and the dimension-table rows
that miss the motivic count (the known defects; see README.md).  Run it
again only when a change is meant to alter outputs, and say why.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import cmzv

import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(os.path.dirname(HERE), ".perfbench")


def dim_defects() -> list:
    out = []
    for alpha_seed in range(len(W.DIM_ALPHAS)):
        for floor_seed in range(len(W.DIM_FLOORS)):
            inputs = W.dim_inputs(alpha_seed + 2 * floor_seed, "full")
            os.makedirs(WORK, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=WORK) as work:
                reports = W.dim_run(cmzv, inputs, W.dim_cold_prepare(cmzv, inputs, work, None))
            for r in reports:
                row = [r.N, r.alpha, inputs["prime_floor"], r.weight, r.dim_estimate]
                if r.dim_estimate != r.mt_dim and not r.under_determined and row not in out:
                    out.append(row)
    return out


def sym_values() -> dict:
    out = {}
    for seed in range(len(W.SYM_ALPHAS)):
        inputs = W.sym_inputs(seed, "full")
        outputs = W.sym_run(cmzv, inputs, W.sym_prepare(cmzv, inputs, None, None))
        out[str(inputs["alpha"])] = {
            cmzv.format_index(ix): [v.value.real, v.value.imag, v.tol] for ix, v in outputs
        }
    return out


def eval_values() -> dict:
    finite, numeric = {}, {}
    for color in range(len(W.EVAL_COLORS[3])):
        ix = cmzv.Index(W.EVAL_KS, W.EVAL_COLORS[3][color], 3)
        residues = {}
        for floor in W.EVAL_FLOORS:
            for p in W._primes_above(floor, 3, 2, 4):
                if str(p) not in residues:
                    val = cmzv.finite_residue(ix, p, cmzv.make_fq_context(p, 3))
                    residues[str(p)] = list(val.coeffs)
        finite[str(color)] = residues
        inputs = W.evals_inputs(color, "full")
        numeric[str(color)] = {
            str(m): [v.real, v.imag] for m in inputs["numeric_m"] for v in [cmzv.qsum_numeric(m, ix)]
        }
    inputs = W.evals_inputs(0, "full")
    probe = cmzv.asymptotic_probe(cmzv.parse_index(W.PROBE_INDEX, 3), 1, inputs["probe_m"], 53)
    rows = [
        [r["m"], r["value"].real, r["value"].imag, r["predicted"].real, r["predicted"].imag, r["tol"]]
        for r in probe
    ]
    return {"finite": finite, "numeric": numeric, "probe": rows}


def main() -> int:
    ref = {"dim_known_defects": dim_defects(), "sym": sym_values()}
    ref.update(eval_values())
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("known dimension defects:", ref["dim_known_defects"], file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
