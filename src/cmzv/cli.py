"""Command-line surface: evaluations, tables, property checks, cache admin.

Outputs are deterministic for a fixed configuration (CSV rows and JSON
documents are emitted with stable ordering and formatting); the run manifest
carries the tool version, the resolved configuration (seed included), and
the wall time, so any numeric artifact can be regenerated from it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from operator import itemgetter

try:
    from importlib.metadata import version as _pkg_version

    VERSION = _pkg_version("cmzv")
except Exception:  # pragma: no cover - not installed
    VERSION = "0.1.0"


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; recorded verbatim in the manifest."""

    command: str
    N: int = 1
    alpha: int = 1
    precision: int = 53
    train_primes: int = 24
    verify_primes: int = 12
    cache_dir: str | None = None
    fmt: str = "csv"
    jobs: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.N < 1 or self.precision < 1 or self.jobs < 1:
            raise ValueError("bounds must be positive")
        if self.train_primes < 1 or self.verify_primes < 0:
            raise ValueError("prime counts must be positive")


def _manifest(config: RunConfig, wall: float, extra=None):
    doc = {
        "tool": "cmzv",
        "version": VERSION,
        "config": asdict(config),
        "wall_time_s": round(wall, 3),
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class _Out:
    """Primary output to stdout or a file; manifest beside it or on stderr."""

    def __init__(self, path: str | None):
        self.path = path

    def write(self, text: str):
        if self.path:
            with open(self.path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)

    def write_manifest(self, text: str):
        if self.path:
            with open(self.path + ".manifest.json", "w") as fh:
                fh.write(text + "\n")
        else:
            print(text, file=sys.stderr)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _parse_any_index(text: str, level: int):
    from .finite import parse_congruence_index
    from .words import parse_index

    if ";f=" in text or text.startswith("f="):
        return parse_congruence_index(text, level)
    return parse_index(text, level)


# ---- subcommands -------------------------------------------------------------


def _qsum_grid(args, config: RunConfig) -> list[int]:
    """The --m grid of a qsum run; ValueError for one the probe cannot take."""
    from .qsums import probe_grid

    try:
        grid = [int(tok) for tok in args.m.split(",")]
    except ValueError:
        raise ValueError(f"--m must be comma-separated integers, got {args.m!r}") from None
    return probe_grid(grid, args.N, config.alpha)


def _cmd_qsum(args, config: RunConfig, out: _Out) -> int:
    from .qsums import asymptotic_probe
    from .words import parse_index

    ix = parse_index(args.index, args.N)
    rows = asymptotic_probe(ix, config.alpha, _qsum_grid(args, config), precision=config.precision)
    table = [
        (
            r["m"],
            repr(r["value"].real),
            repr(r["value"].imag),
            repr(r["predicted"].real),
            repr(r["predicted"].imag),
            repr(r["residual"]),
        )
        for r in rows
    ]
    header = ("m", "re", "im", "predicted_re", "predicted_im", "residual_abs")
    if config.fmt == "json":
        doc = [dict(zip(header, row)) | {"tol": rows[i]["tol"]} for i, row in enumerate(table)]
        out.write(_json_text(doc))
    else:
        out.write(_csv_text(header, table))
    return 0


def _cmd_finite(args, config: RunConfig, out: _Out) -> int:
    from .finite import build_residue_table, primes_in_class

    ix = _parse_any_index(args.index, args.N)
    pclass = primes_in_class(args.N, config.alpha, args.primes, weight=ix.weight)
    table = build_residue_table([ix], pclass, use_cache=False)
    rows = [(p, ";".join(map(str, table.residue(ix, p).coeffs)), table.contexts[p].d)
            for p in table.primes]
    if config.fmt == "json":
        doc = [{"p": p, "residue": res, "field_degree": d} for p, res, d in rows]
        out.write(_json_text(doc))
    else:
        out.write(_csv_text(("p", "residue", "field_degree"), rows))
    return 0


def _cmd_sym(args, config: RunConfig, out: _Out) -> int:
    from .symmetric import MzvEvalConfig, symmetric_cmzv
    from .words import parse_index

    ix = parse_index(args.index, args.N)
    cfg = MzvEvalConfig(precision=config.precision)
    val = symmetric_cmzv(config.alpha, ix, cfg)
    doc = {
        "index": args.index,
        "alpha": config.alpha,
        "N": args.N,
        "value_re": val.value.real,
        "value_im": val.value.imag,
        "tol": val.tol,
        "t_poly_coeffs": [[c.real, c.imag] for c in val.poly.coeffs],
        "t_independence_ok": val.t_independent,
    }
    out.write(_json_text(doc))
    return 0


def _dim_config(args, config: RunConfig):
    """The DimConfig of a dim run; ValueError for options it cannot take."""
    from .relations import DimConfig

    if math.gcd(args.twist, args.N) != 1:
        raise ValueError("--twist must be coprime to --N")
    return DimConfig(
        train_primes=config.train_primes,
        verify_primes=config.verify_primes,
        height_bound=args.height_bound,
        twist=args.twist,
        use_cache=not args.no_cache,
        cache_dir=config.cache_dir,
        jobs=config.jobs,
    )


def _cmd_dim(args, config: RunConfig, out: _Out) -> int:
    from .relations import dimension_table
    from .finite import format_congruence_index

    reports = dimension_table(args.N, config.alpha, args.wmax, _dim_config(args, config))
    header = ("weight", "generators", "exact_relation_rank", "lll_extra_relations", "dim",
              "mt_dim", "under_determined")
    rows = [(r.weight, r.generator_count, r.exact_relation_rank, r.lll_extra_relations,
             r.dim_estimate, r.mt_dim, r.under_determined) for r in reports]
    if config.fmt == "json":
        doc = [
            dict(zip(header, row), N=r.N, alpha=r.alpha, b_cert=r.b_cert, relations=[
                {
                    "source": cand.source,
                    "verified_primes": cand.verified_primes,
                    "coefficients": {
                        format_congruence_index(g): str(c)
                        for g, c in sorted(
                            cand.coefficients.items(), key=lambda kv: (kv[0].ks, kv[0].fs)
                        )
                    },
                }
                for cand in r.relations
            ])
            for r, row in zip(reports, rows)
        ]
        out.write(_json_text(doc))
    else:
        out.write(_csv_text(header, [row[:-1] + (int(row[-1]),) for row in rows]))
    return 0


def _cmd_mtdim(args, config: RunConfig, out: _Out) -> int:
    from .relations import mt_dimension

    rows = [(w, mt_dimension(args.N, w)) for w in range(1, args.wmax + 1)]
    if config.fmt == "json":
        out.write(_json_text([{"weight": w, "mt_dim": d} for w, d in rows]))
    else:
        out.write(_csv_text(("weight", "mt_dim"), rows))
    return 0


def _cmd_check(args, config: RunConfig, out: _Out) -> int:
    from .finite import primes_in_class
    from .relations import check_linear_shuffle_finite, check_reversal_finite
    from .words import E_ZERO, Index, Word, format_index

    rng = random.Random(config.seed)
    failures = []
    ran = 0
    for _ in range(args.count):
        N = rng.choice([1, 2, 3, 4])
        units = [a for a in range(N) if math.gcd(a, N) == 1]
        alpha = rng.choice(units)
        pclass = primes_in_class(N, alpha, args.primes, weight=args.wmax)
        r = rng.randint(1, max(1, args.wmax // 2))
        budget = args.wmax - r
        ks = tuple(1 + rng.randint(0, budget // r) for _ in range(r))
        es = tuple(rng.randrange(N) for _ in range(r))
        ix = Index(ks, es, N)
        ran += 1
        for p, ok in check_reversal_finite(ix, pclass).items():
            if not ok:
                failures.append({"kind": "reversal", "N": N, "alpha": alpha, "p": p,
                                 "index": format_index(ix)})
        alphabet = [E_ZERO] + list(range(N))
        a = rng.randint(1, max(1, args.wmax - 1))
        b = args.wmax - 1 - a
        u = Word(tuple(rng.choice(alphabet) for _ in range(a - 1)) + (rng.randrange(N),), N)
        v = Word(tuple(rng.choice(alphabet) for _ in range(max(0, b))), N)
        ran += 1
        for p, ok in check_linear_shuffle_finite(u, v, pclass).items():
            if not ok:
                failures.append({"kind": "linear_shuffle", "N": N, "alpha": alpha, "p": p,
                                 "u": list(u.letters), "v": list(v.letters)})
    doc = {"instances": ran, "failures": failures, "passed": not failures}
    out.write(_json_text(doc))
    return 0 if not failures else 1


# ---- cache administration ---------------------------------------------------------


def _cache_files(root: str, prefixes=("residues_",)):
    if not os.path.isdir(root):
        return []
    return sorted(
        os.path.join(root, name)
        for name in os.listdir(root)
        if name.startswith(prefixes) and name.endswith(".jsonl")
    )


def _cmd_cache(args, config: RunConfig, out: _Out) -> int:
    from . import finite

    root = config.cache_dir or finite._default_cache_dir()
    files = _cache_files(root)
    stored = (rec for path in files for rec in finite._records(finite._read_cache(path)[0]))
    if args.action == "stat":
        counts = Counter((rec["N"], rec["alpha"], rec["p"]) for rec in stored)
        rows = [(n, a, p, c) for (n, a, p), c in sorted(counts.items())]
        if config.fmt == "json":
            doc = [{"N": n, "alpha": a, "p": p, "entries": c} for n, a, p, c in rows]
            out.write(_json_text({"total": sum(c for *_, c in rows), "classes": doc}))
        else:
            out.write(_csv_text(("N", "alpha", "p", "entries"), rows))
        return 0
    if args.action == "clear":
        files = _cache_files(root, ("residues_", "relations_"))
        for path in files:
            os.remove(path)
        out.write(_json_text({"removed_files": len(files)}))
        return 0
    if args.action == "export":
        key = itemgetter("N", "alpha", "p", "index")
        out.write("".join(map(finite._dump, sorted(stored, key=key))))
        return 0
    # import: merge a JSON-lines bundle back into per-class files, read as
    # cache files are read
    not_json, other, columns = [], [], {}
    with open(args.file, encoding="utf-8", errors="replace") as fh:
        imported, _ = finite._merge(finite._json_lines(fh, not_json), columns, other)
    if not_json or other:
        print(f"warning: {args.file}: skipped {len(not_json) + len(other)} line(s) that hold "
              f"no record ({len(not_json)} non-JSON), the first at line "
              f"{min(not_json[:1] + other[:1])}", file=sys.stderr)
    finite._store_columns(columns, root)
    out.write(_json_text({"imported": imported}))
    return 0


# ---- dispatcher ---------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--alpha", type=int, default=1)
    sp.add_argument("--primes", type=int, default=24,
                    help="training prime count (or prime count for finite/check)")
    sp.add_argument("--verify-primes", type=int, default=12)
    sp.add_argument("--prec", type=int, default=53)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--cache-dir", default=None)
    sp.add_argument("--out", default=None, help="write output here (manifest beside it)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmzv",
        description="Colored multiple zeta values: q-sums, finite/symmetric evaluation, dimension tables.",
    )
    parser.add_argument("--version", action="version", version=f"cmzv {VERSION}")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("qsum", help="evaluate harmonic q-sums on an m-grid against the predicted asymptotic")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--index", required=True, help='index as "k=2,1;e=0,1"')
    sp.add_argument("--m", required=True, help="comma-separated list of m values")
    _add_common(sp)

    sp = subs.add_parser("finite", help="residues of the truncated sum below each prime")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--index", required=True, help='"k=..;e=.." or congruence "k=..;f=.."')
    _add_common(sp)

    sp = subs.add_parser("sym", help="symmetric value with its T-polynomial diagnostics")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--index", required=True)
    _add_common(sp)

    sp = subs.add_parser("dim", help="dimension table with verified relation ledger")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--wmax", type=int, required=True)
    sp.add_argument("--height-bound", type=int, default=1000)
    sp.add_argument("--twist", type=int, default=1)
    sp.add_argument("--no-cache", action="store_true")
    _add_common(sp)

    sp = subs.add_parser("mtdim", help="motivic dimension by weight")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--wmax", type=int, required=True)
    _add_common(sp)

    sp = subs.add_parser("check", help="randomized per-prime identity suite (reversal, linear shuffle)")
    sp.add_argument("--count", type=int, default=20)
    sp.add_argument("--wmax", type=int, default=4)
    _add_common(sp)

    sp = subs.add_parser(
        "cache", help="cache administration",
        description="clear removes the residue files and the relation-lattice records; "
                    "stat, export and import read and write residues only, since relation "
                    "records are derived from them and rebuilt on demand.",
    )
    sp.add_argument("action", choices=("stat", "clear", "export", "import"))
    sp.add_argument("--file", default=None, help="bundle path for import")
    _add_common(sp)
    return parser


_HANDLERS = {
    "qsum": _cmd_qsum,
    "finite": _cmd_finite,
    "sym": _cmd_sym,
    "dim": _cmd_dim,
    "mtdim": _cmd_mtdim,
    "check": _cmd_check,
    "cache": _cmd_cache,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        if args.command == "cache" and args.action == "import" and args.file is None:
            raise ValueError("cache import needs --file")
        config = RunConfig(
            command=args.command,
            N=getattr(args, "N", 1),
            alpha=args.alpha,
            precision=args.prec,
            train_primes=args.primes,
            verify_primes=args.verify_primes,
            cache_dir=args.cache_dir,
            fmt=args.format,
            jobs=args.jobs,
            seed=args.seed,
        )
        # options only the subcommand can judge are usage errors too
        if args.command in ("finite", "sym", "dim") and math.gcd(args.alpha, args.N) != 1:
            raise ValueError("--alpha must be a unit modulo --N")
        if args.command == "dim":
            _dim_config(args, config)
        if args.command == "qsum":
            _qsum_grid(args, config)
        if args.command in ("dim", "mtdim", "check") and args.wmax < 1:
            raise ValueError("--wmax must be at least 1")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _Out(args.out)
    start = time.time()
    try:
        code = _HANDLERS[args.command](args, config, out)
    except (ValueError, OSError, ArithmeticError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    invocation = {k: v for k, v in vars(args).items() if k != "out"}
    out.write_manifest(
        _manifest(config, time.time() - start, {"invocation": invocation})
    )
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
