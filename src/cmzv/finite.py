"""Finite colored MZVs: per-prime residues, the congruence model, and tables.

Each value is the truncated sum below a prime, reduced into the residue
field picked by make_fq_context.  Residue tables over a class of primes are
the raw material for relation discovery, so they cache to disk.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import os
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .fq import BadPrimeError, Fq, FqContext, inverse_table, is_prime, make_fq_context
from .words import Index, _parse_fields, format_index, nested_sum


@dataclass(frozen=True)
class PrimeClass:
    """An ordered batch of primes congruent to alpha modulo the level."""

    level: int
    alpha: int
    primes: tuple[int, ...]

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be positive")
        if math.gcd(self.alpha, self.level) != 1:
            raise ValueError("alpha must be a unit modulo the level")
        object.__setattr__(self, "alpha", self.alpha % self.level if self.level > 1 else 0)
        object.__setattr__(self, "primes", tuple(self.primes))
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if p % self.level != self.alpha % self.level:
                raise ValueError(f"{p} is not {self.alpha} mod {self.level}")
            if self.level % p == 0:
                raise ValueError(f"{p} divides the level")


def primes_in_class(N, alpha, count, floor=None, weight=None) -> PrimeClass:
    """The first `count` primes congruent to alpha mod N above a floor.

    With a `weight` given the floor defaults to weight + 2, dropping the
    degenerate truncations; an explicit floor wins.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if math.gcd(alpha, N) != 1:
        raise ValueError("alpha must be a unit modulo N")
    if floor is None:
        floor = weight + 2 if weight is not None else 1
    found = []
    n = max(floor, 1) + 1
    while len(found) < count:
        if n % N == alpha % N and N % n != 0 and is_prime(n):
            found.append(n)
        n += 1
    return PrimeClass(N, alpha % N, tuple(found))


@dataclass(frozen=True)
class CongruenceIndex:
    """Exponents plus residue-class constraints m_a = f_a (mod level)."""

    ks: tuple[int, ...]
    fs: tuple[int, ...]
    level: int

    def __post_init__(self):
        object.__setattr__(self, "ks", tuple(self.ks))
        if self.level < 1:
            raise ValueError("level must be positive")
        if len(self.ks) != len(self.fs):
            raise ValueError("ks and fs must have equal length")
        if any(k < 1 for k in self.ks):
            raise ValueError("exponents must be positive")
        object.__setattr__(self, "fs", tuple(f % self.level for f in self.fs))

    @property
    def weight(self) -> int:
        return sum(self.ks)

    @property
    def depth(self) -> int:
        return len(self.ks)

    def reversed_class(self, alpha: int) -> "CongruenceIndex":
        """The image under m_a -> p - m_(r+1-a), p = alpha mod level."""
        return CongruenceIndex(
            self.ks[::-1], tuple((alpha - f) % self.level for f in self.fs[::-1]), self.level
        )


def format_congruence_index(cix: CongruenceIndex) -> str:
    return f"k={','.join(map(str, cix.ks))};f={','.join(map(str, cix.fs))}"


def parse_congruence_index(text: str, level: int) -> CongruenceIndex:
    """Parse 'k=2,1;f=0,2' into a CongruenceIndex at the given level."""
    return CongruenceIndex(*_parse_fields(text, "kf"), level)


# ---- per-prime residues ---------------------------------------------------------


def _inverse_powers(p: int, kmax: int) -> np.ndarray:
    """Row k - 1 holds n^-k mod p for n = 1..p-1 as int64, for k = 1..kmax.

    Products of two residues fit in int64 only for p < 2^31, the bound of
    nested_sum; it is checked here, before the inverse table is built.
    """
    if p >= 2**31:
        raise ValueError(f"int64 residues need p < 2^31, got {p}")
    powers = np.empty((kmax, p - 1), dtype=np.int64)
    powers[0] = inverse_table(p)[1:]
    for k in range(1, kmax):
        np.remainder(powers[k - 1] * powers[0], p, out=powers[k])
    return powers


def _residues(gens, p: int, ctx: FqContext | None = None) -> list:
    """The sums below p of generators of one level, batched.

    Without ctx (congruence generators only) the sums are ints mod p; with
    it they are elements of its field.  Slot j of a generator contributes
    row[c_j] * n^-k_j for n = 1..p-1: the class mask n = f_j (mod N) of a
    CongruenceIndex, or the phase zeta^(e_j n) of a colored Index.  The n^-k
    rows are built once.  Where the phases lie in F_p, generators of one
    depth share one int64 pass of nested_sum over (G, p-1) columns; colored
    generators in a proper extension sum Fq columns, one at a time.
    """
    out = [0 if g.depth else 1 % p for g in gens]  # depth >= p leaves no term
    by_depth, extension = {}, []
    for i, g in enumerate(gens):
        if not 0 < g.depth < p:
            continue
        if isinstance(g, CongruenceIndex):
            by_depth.setdefault(g.depth, []).append((i, g.ks, g.fs))
        elif ctx.d == 1:
            by_depth.setdefault(g.depth, []).append((i, g.ks, tuple(g.level + e for e in g.es)))
        else:
            extension.append(i)
    if by_depth or extension:
        N = gens[0].level
        powers = _inverse_powers(p, max(max(g.ks) for g in gens if g.ks))
    if by_depth:
        n = np.arange(1, p)
        classes = np.arange(N)[:, None]
        rows = (n % N == classes).astype(np.int64)  # row f: the mask n = f (mod N)
        if ctx is not None and ctx.d == 1:
            zp = np.array([ctx.zeta_power(t).coeffs[0] for t in range(N)], dtype=np.int64)
            rows = np.concatenate([rows, zp[classes * n % N]])  # row N + e: zeta^(e n)
    for r, batch in by_depth.items():
        at, ks, cs = zip(*batch)
        ks, cs = np.array(ks) - 1, np.array(cs)  # (G, r) each
        sums = nested_sum(r, lambda j: rows[cs[:, j]] * powers[ks[:, j]], p)
        for i, v in zip(at, sums.tolist()):
            out[i] = v
    if ctx is None:
        return out
    out = [ctx.scalar(v) for v in out]
    zeta = [ctx.zeta_power(t) for t in range(ctx.N)]
    for i in extension:
        ix = gens[i]

        def fq_column(j):
            e = ix.es[j]
            row = powers[ix.ks[j] - 1].tolist()
            return np.array([zeta[e * n % N] * c for n, c in enumerate(row, 1)], dtype=object)

        out[i] = nested_sum(ix.depth, fq_column)
    return out


def finite_residue(ix: Index, p: int, ctx: FqContext | None = None) -> Fq:
    """The truncated colored sum below p in the residue field of ctx."""
    if ctx is None:
        ctx = make_fq_context(p, ix.level)
    if ctx.p != p or ctx.N != ix.level:
        raise ValueError("context does not match the prime and level")
    return _residues([ix], p, ctx)[0]


def congruence_residue_int(cix: CongruenceIndex, p: int) -> int:
    """The congruence-model sum below p as a plain integer mod p."""
    return _residues([cix], p)[0]


def congruence_residue(cix: CongruenceIndex, p: int, ctx: FqContext | None = None) -> Fq:
    """Congruence-model value in the prime subfield."""
    if ctx is None:
        ctx = make_fq_context(p, cix.level)
    return ctx.scalar(congruence_residue_int(cix, p))


def congruence_from_colored(cix: CongruenceIndex, p: int, ctx: FqContext | None = None) -> Fq:
    """The N^r-term average of colored residues; cross-checks the direct sum."""
    if ctx is None:
        ctx = make_fq_context(p, cix.level)
    N, r = cix.level, cix.depth
    if r == 0:
        return ctx.one()
    total = ctx.zero()
    for es in itertools.product(range(N), repeat=r):
        phase = ctx.zeta_power(-sum(e * f for e, f in zip(es, cix.fs)) % N)
        total = total + phase * finite_residue(Index(cix.ks, es, N), p, ctx)
    scale = pow(pow(N, r, p), p - 2, p)
    return total * scale


# ---- residue tables with a disk cache ---------------------------------------------


def _generator_key(gen) -> str:
    if isinstance(gen, CongruenceIndex):
        return format_congruence_index(gen)
    return format_index(gen)


@dataclass
class ResidueTable:
    pclass: PrimeClass
    generators: tuple
    entries: dict = field(default_factory=dict)  # (generator, p) -> Fq
    contexts: dict = field(default_factory=dict)  # p -> FqContext

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p in self.pclass.primes if p in self.contexts)

    def residue(self, gen, p) -> Fq:
        return self.entries[(gen, p)]

    def int_column(self, gen) -> list[int]:
        """Prime-field entries as plain ints, ordered by prime (congruence rows)."""
        out = []
        for p in self.primes:
            v = self.entries[(gen, p)]
            if not v.in_prime_field:
                raise ValueError("column has entries outside the prime field")
            out.append(v.coeffs[0])
        return out


def _default_cache_dir() -> str:
    env = os.environ.get("CMZV_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "cmzv")


def _cache_path(cache_dir: str, N: int, alpha: int) -> str:
    return os.path.join(cache_dir, f"residues_N{N}_a{alpha}.jsonl")


# a cache record's fields and their JSON types, besides "v": 1
_RECORD_FIELDS = {
    "N": int,
    "alpha": int,
    "p": int,
    "index": str,
    "modulus": list,
    "zeta_image": list,
    "residue": list,
}


def _valid_record(rec) -> bool:
    return (
        isinstance(rec, dict)
        and rec.get("v") == 1
        and all(isinstance(rec.get(k), t) for k, t in _RECORD_FIELDS.items())
    )


def _record_key(rec: dict) -> tuple:
    """Records with equal keys hold the same residue; only the first is kept."""
    return (rec["p"], rec["index"], tuple(rec["modulus"]), tuple(rec["zeta_image"]))


def _load_cache(path: str):
    """The well-formed records of one cache file, read line by line; anything
    else is skipped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if _valid_record(rec):
                    yield rec
    except FileNotFoundError:
        pass
    except OSError as exc:
        warnings.warn(f"residue cache unreadable ({exc}); recomputing")


def _table_records(table: "ResidueTable"):
    """A cache record per entry of the table, sorted by (p, index), made lazily."""
    gens = table.generators
    keyed = sorted((_generator_key(g), i) for i, g in enumerate(gens))
    for p, ctx in sorted(table.contexts.items()):
        head = {"v": 1, "N": table.pclass.level, "alpha": table.pclass.alpha, "p": p,
                "modulus": list(ctx.modulus), "zeta_image": list(ctx.zeta_coeffs)}
        for key, i in keyed:
            if (gens[i], p) in table.entries:
                residue = [c % p for c in table.entries[(gens[i], p)].coeffs]
                yield dict(head, index=key, residue=residue)


def _store_cache(path: str, records: list[dict], table=None, after=()) -> None:
    """Write records, a record per entry of table, then after, sorted by (p, index).

    Records with equal (p, index) keep that order.
    """
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        order = lambda r: (r["p"], r["index"])  # noqa: E731
        ordered = sorted(records, key=order)
        if table is not None:
            ordered = heapq.merge(
                ordered, _table_records(table), sorted(after, key=order), key=order
            )
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for rec in ordered:
                fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        warnings.warn(f"residue cache not written ({exc})")


def store_records(records: list[dict], cache_dir: str | None = None) -> None:
    """Merge externally supplied cache records into the per-class files.

    Records are grouped by (N, alpha); duplicates of entries already on disk
    (same prime, index, modulus, and root image) are dropped.
    """
    root = cache_dir or _default_cache_dir()
    by_class: dict[tuple[int, int], list[dict]] = {}
    for rec in records:
        if not _valid_record(rec):
            continue
        by_class.setdefault((rec["N"], rec["alpha"]), []).append(rec)
    for (N, alpha), recs in by_class.items():
        path = _cache_path(root, N, alpha)
        merged = {}
        for rec in itertools.chain(_load_cache(path), recs):
            merged.setdefault(_record_key(rec), rec)
        _store_cache(path, list(merged.values()))


def _compute_column(args):
    """The residues of gens at one prime, in order (worker-process entry point)."""
    N, alpha, p, twist, gens = args
    ctx = make_fq_context(p, N, twist)
    return p, [list(v.coeffs) for v in _residues(gens, p, ctx)]


def build_residue_table(
    generators,
    pclass: PrimeClass,
    use_cache: bool = True,
    cache_dir: str | None = None,
    jobs: int = 1,
    twist: int = 1,
) -> ResidueTable:
    """Fill (generator, prime) -> residue, reading and extending the disk cache.

    Primes rejected by the residue-field construction are skipped with a
    warning; cache records are trusted only when their context (modulus and
    root image) matches the one built here.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    generators = tuple(generators)
    N, alpha = pclass.level, pclass.alpha
    table = ResidueTable(pclass, generators)

    contexts = {}
    for p in pclass.primes:
        try:
            contexts[p] = make_fq_context(p, N, twist)
        except BadPrimeError as exc:
            warnings.warn(f"skipping prime {p}: {exc}")
    table.contexts = contexts

    by_key = {_generator_key(g): g for g in generators}
    cache_file = _cache_path(cache_dir or _default_cache_dir(), N, alpha)
    # The records this table does not consume are written back as read: those
    # after a consumed one of equal (p, index) after its entry, the rest before.
    kept = ([], [])
    last = None  # (p, index) of the last record consumed
    for rec in _load_cache(cache_file) if use_cache else ():
        p, gen = rec["p"], by_key.get(rec["index"])
        ctx = contexts.get(p)
        if gen is None or ctx is None or (gen, p) in table.entries or (
            (tuple(rec["modulus"]), tuple(rec["zeta_image"])) != (ctx.modulus, ctx.zeta_coeffs)
        ):
            kept[(p, rec["index"]) == last].append(rec)
        else:
            table.entries[(gen, p)] = Fq(ctx, rec["residue"])
            last = (p, rec["index"])

    todo = {}  # p -> generators with no cached residue at p
    for gen in generators:
        for p in contexts:
            if (gen, p) not in table.entries:
                todo.setdefault(p, []).append(gen)

    work = [(N, alpha, p, twist, gens) for p, gens in sorted(todo.items())]
    workers = min(jobs, len(work), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_compute_column, work))
    else:
        results = map(_compute_column, work)  # one prime's column alive at a time

    for p, col in results:
        ctx = contexts[p]
        for gen, coeffs in zip(todo[p], col):
            table.entries[(gen, p)] = Fq(ctx, coeffs)

    if use_cache and todo:
        _store_cache(cache_file, kept[0], table, kept[1])
    return table
