#!/usr/bin/env python3
"""Sweep dimension tables across levels and compare with the motivic counts.

Exits 1 when a weight disagrees with the motivic count without being flagged
under-determined.  b_cert is the height up to which no further relation
exists (- when every combination is a relation).

Example:
    python scripts/run_dimension_tables.py --levels 1,2,3,4 --wmax 4 --jobs 4
"""

import argparse
import math
import sys
import time

from cmzv.relations import DimConfig, dimension_table


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", default="1,2,3", help="comma-separated N values")
    ap.add_argument("--alpha", type=int, default=1)
    ap.add_argument("--wmax", type=int, default=4)
    ap.add_argument("--primes", type=int, default=24)
    ap.add_argument("--verify-primes", type=int, default=12)
    ap.add_argument("--height-bound", type=int, default=1000)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--no-cache", action="store_true")
    args = ap.parse_args()
    try:
        levels = [int(tok) for tok in args.levels.split(",")]
    except ValueError:
        print(f"error: --levels must be comma-separated integers, got {args.levels!r}", file=sys.stderr)
        return 2
    if args.wmax < 1:
        print("error: --wmax must be at least 1", file=sys.stderr)
        return 2
    for N in levels:  # every level before the first table, which can take minutes
        if N < 1 or math.gcd(args.alpha, N) != 1:
            why = "it is not positive" if N < 1 else f"--alpha {args.alpha} is not a unit modulo it"
            print(f"error: level {N}: {why}", file=sys.stderr)
            return 2

    print(f"{'N':>3} {'w':>3} {'gens':>6} {'exact':>6} {'lll':>5} {'dim':>4} {'mt':>4} "
          f"{'b_cert':>8}  agree")
    mismatches = unflagged = 0
    for N in levels:
        alpha = args.alpha if N > 1 else 0
        cfg = DimConfig(
            train_primes=args.primes,
            verify_primes=args.verify_primes,
            height_bound=args.height_bound,
            jobs=args.jobs,
            use_cache=not args.no_cache,
        )
        start = time.time()
        for rep in dimension_table(N, alpha % N if N > 1 else 0, args.wmax, cfg):
            agree = rep.dim_estimate == rep.mt_dim
            mismatches += not agree
            unflagged += not agree and not rep.under_determined
            b_cert = "-" if rep.b_cert is None else rep.b_cert
            print(
                f"{rep.N:>3} {rep.weight:>3} {rep.generator_count:>6} "
                f"{rep.exact_relation_rank:>6} {rep.lll_extra_relations:>5} "
                f"{rep.dim_estimate:>4} {rep.mt_dim:>4} {b_cert:>8}  "
                f"{'yes' if agree else 'NO'}{' (under-determined)' if rep.under_determined else ''}"
            )
        print(f"  level {N}: {time.time() - start:.1f}s")
    if mismatches:
        print(f"{mismatches} weight(s) disagree with the motivic count, {unflagged} of them "
              "not flagged under-determined", file=sys.stderr)
    return 1 if unflagged else 0


if __name__ == "__main__":
    sys.exit(main())
