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
import re
import tempfile
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .fq import BadPrimeError, Fq, FqContext, is_prime, make_fq_context
from .fq import inverse_row as inverse_table  # the int64 row, with no list round trip
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
    nested_sum; inverse_table raises above it, before any array is made.
    """
    inverse = inverse_table(p)
    powers = np.empty((kmax, p - 1), dtype=np.int64)
    powers[0] = inverse
    for k in range(1, kmax):
        np.remainder(powers[k - 1] * powers[0], p, out=powers[k])
    return powers


class _Trie:
    """The suffix trie of nonempty generators of one model, level by level.

    keys[i] holds the slot codes of generator rows[i], innermost slot first.
    Level d (0-based) has one node per distinct suffix of depth d + 1 of a
    generator, the generator itself included; a suffix that is no generator
    is an internal node, summed but never output.  Row i of nodes[d] is
    (slot, up) for node i: the code of its outer slot and the node of its
    suffix in level d - 1.  Generators and nodes are in the order of the
    keys, so a suffix's generators are adjacent: the run a..b-1 of
    generators uses exactly the nodes lo[d, a]..hi[d, b - 1] of level d (lo
    the first node of a generator at or after a, hi the last at or before
    b - 1), a sub-trie.  Generator at[i] is node node[i] of the levels laid
    end to end.
    """

    def __init__(self, rows, keys):
        ranked = sorted(zip(keys, rows))
        keys, self.at = [key for key, _ in ranked], np.array([row for _, row in ranked])
        depth = max(map(len, keys))
        nodes = [[] for _ in range(depth)]  # level d: slot, up, slot, up, ...
        self.hi = np.empty((depth, len(keys)), dtype=np.int64)
        shared, prev = [], ()  # shared[g]: the levels generator g shares with g - 1
        for g, key in enumerate(keys):
            same = 0
            while same < min(len(key), len(prev)) and key[same] == prev[same]:
                same += 1
            for d in range(same, len(key)):  # new nodes, each over the last one of level d - 1
                up = len(nodes[d - 1]) // 2 - 1 if d else 0
                nodes[d] += key[d], up
            self.hi[:, g] = [len(level) // 2 - 1 for level in nodes]
            shared.append(same)
            prev = key
        self.nodes = [np.array(level, dtype=np.int64).reshape(-1, 2) for level in nodes]
        self.widths = [len(level) for level in self.nodes]
        self.offsets = [0, *itertools.accumulate(self.widths)]
        last = np.array([len(key) - 1 for key in keys])
        self.node = np.array(self.offsets)[last] + self.hi[last, np.arange(len(keys))]
        self.lo = np.zeros_like(self.hi)
        self.lo[:, 1:] = self.hi[:, :-1] + (np.arange(depth)[:, None] >= shared[1:])

    def parts(self, width: int):
        """Runs of generators whose sub-tries have at most `width` nodes a
        level, each as the slices of its nodes, innermost level first."""
        if max(self.widths) <= width:
            return [[slice(0, w) for w in self.widths]]
        out, a = [], 0
        while a < len(self.at):
            b = min(int(np.searchsorted(hi, lo[a] + width)) for lo, hi in zip(self.lo, self.hi))
            spans = (slice(lo[a], hi[b - 1] + 1) for lo, hi in zip(self.lo, self.hi))
            out.append(list(itertools.takewhile(lambda s: s.start < s.stop, spans)))
            a = b
        return out


class _Slots:
    """gens as the suffix tries of their congruence and colored members.

    A colored slot's code is e*kmax + k-1.  A congruence slot's is its
    position in `used`, the sorted codes f*kmax + k-1 of the (class,
    exponent) pairs that occur.  They depend on no prime, so a table builds
    them once for all its primes."""

    def __init__(self, gens):
        self.size, self.level = len(gens), gens[0].level if gens else 1
        self.kmax = K = max((max(g.ks) for g in gens if g.ks), default=1)
        pairs = {(f, k) for g in gens if isinstance(g, CongruenceIndex) for f, k in zip(g.fs, g.ks)}
        self.used = np.array(sorted(f * K + k - 1 for f, k in pairs), dtype=np.int64)
        position = {c: j for j, c in enumerate(self.used.tolist())}
        self.empty = [i for i, g in enumerate(gens) if not g.ks]
        self.tries = {}  # colored -> _Trie
        for colored in (False, True):
            at = [i for i, g in enumerate(gens) if g.ks and isinstance(g, Index) == colored]
            if not at:
                continue
            keys = []
            for g in map(gens.__getitem__, at):
                codes = [c * K + k - 1 for c, k in zip(g.es if colored else g.fs, g.ks)][::-1]
                keys.append(tuple(codes if colored else map(position.__getitem__, codes)))
            self.tries[colored] = _Trie(at, keys)


_CELLS = 1 << 20  # int64 entries in one array of a trie level's pass


def _residues(gens, p: int, ctx: FqContext | None = None) -> np.ndarray:
    """The sums below p of generators of one level (or their _Slots), batched.

    Row i of the (G, d) int64 result holds generator i in the field of ctx;
    without ctx (congruence generators only) d = 1.  The n^-k rows are built
    once.  Each trie takes one int64 pass of nested_sum per level, one row
    per node: its outer slot's terms times its suffix's row, prefix-summed,
    so the last entry is the node's sum.  A congruence slot's terms are the
    mask n = f (mod N) times n^-k, each such product built once.  Colored
    rows live in F_p[Z/N], (W, N, p-1) arrays with coordinate t the
    coefficient of zeta^t, and the suffix's row is first moved by
    zeta^(e n); a generator's N sums map into F_(p^d) through the powers of
    zeta in ctx, whatever d is.  Levels of more than _CELLS entries run as
    sub-tries of runs of generators.
    """
    slots = gens if isinstance(gens, _Slots) else _Slots(gens)
    out = np.zeros((slots.size, 1 if ctx is None else ctx.d), dtype=np.int64)
    out[slots.empty, 0] = 1 % p  # the empty sum is 1
    if not slots.tries:
        return out
    N, kmax = slots.level, slots.kmax
    powers, n = _inverse_powers(p, kmax), np.arange(1, p)
    masks = (n % N == np.arange(N)[:, None]).astype(np.int64)  # row f: the mask n = f (mod N)
    terms = masks[slots.used // kmax] * powers[slots.used % kmax]
    phase = np.arange(N)[:, None] * n % N  # row e: e n mod N
    for colored, trie in slots.tries.items():
        sums = np.zeros((trie.offsets[-1], N) if colored else trie.offsets[-1], dtype=np.int64)
        for part in trie.parts(max(1, _CELLS // ((N if colored else 1) * p))):
            part = part[: p - 1]  # a node of depth >= p has no term

            def column(j):
                d = len(part) - 1 - j
                slot, up = trie.nodes[d][part[d]].T
                rows = up - part[d - 1].start if d else None
                if not colored:
                    return (terms[slot], None, rows) if d else terms[slot]
                gather = (np.arange(N)[:, None] - phase[slot // kmax, None]) % N  # t takes t - e n
                w = powers[slot % kmax, None]
                return (w, gather, rows) if d else w * (gather == 0)

            for d, level in enumerate(nested_sum(len(part), column, p, levels=True)):
                sums[trie.offsets[d] + part[d].start : trie.offsets[d] + part[d].stop] = level
        if not colored:
            out[trie.at, 0] = sums[trie.node]
            continue
        zeta = np.array([ctx.zeta_power(t).coeffs for t in range(N)], dtype=np.int64)
        out[trie.at] = (sums[trie.node, :, None] * zeta % p).sum(axis=1) % p
    return out


def _fq_residues(gens, p: int, ctx: FqContext) -> list[Fq]:
    """The residues of gens (or their _Slots) at p as Fq, from one _residues call."""
    return [Fq(ctx, v) for v in _residues(gens, p, ctx).tolist()]


def _context(ctx: FqContext | None, p: int, N: int) -> FqContext:
    ctx = make_fq_context(p, N) if ctx is None else ctx
    if (ctx.p, ctx.N) != (p, N):
        raise ValueError("context does not match the prime and level")
    return ctx


def finite_residue(ix: Index, p: int, ctx: FqContext | None = None) -> Fq:
    """The truncated colored sum below p in the residue field of ctx."""
    return _fq_residues([ix], p, _context(ctx, p, ix.level))[0]


def congruence_residue_int(cix: CongruenceIndex, p: int) -> int:
    """The congruence-model sum below p as a plain integer mod p."""
    return int(_residues([cix], p)[0, 0])


def congruence_residue(cix: CongruenceIndex, p: int, ctx: FqContext | None = None) -> Fq:
    """Congruence-model value in the prime subfield."""
    return _context(ctx, p, cix.level).scalar(congruence_residue_int(cix, p))


def congruence_from_colored(cix: CongruenceIndex, p: int, ctx: FqContext | None = None) -> Fq:
    """The N^r-term average of colored residues; cross-checks the direct sum."""
    ctx = _context(ctx, p, cix.level)
    N, r = cix.level, cix.depth
    if r == 0:
        return ctx.one()
    colors = list(itertools.product(range(N), repeat=r))
    total = ctx.zero()
    for es, value in zip(colors, _fq_residues([Index(cix.ks, es, N) for es in colors], p, ctx)):
        total = total + ctx.zeta_power(-sum(e * f for e, f in zip(es, cix.fs)) % N) * value
    scale = pow(pow(N, r, p), p - 2, p)
    return total * scale


# ---- residue tables with a disk cache ---------------------------------------------


def _generator_key(gen) -> str:
    if isinstance(gen, CongruenceIndex):
        return format_congruence_index(gen)
    return format_index(gen)


class _Entries(Mapping):
    """A read-only (generator, p) -> Fq view of the known residues of a table."""

    def __init__(self, table: "ResidueTable"):
        self._table = table

    def __getitem__(self, key) -> Fq:
        return self._table.residue(*key)

    def __iter__(self):
        t = self._table
        return ((t.generators[i], t.primes[j]) for i, j in zip(*np.nonzero(t.values[..., 0] >= 0)))

    def __len__(self) -> int:
        return int(np.count_nonzero(self._table.values[..., 0] >= 0))


class ResidueTable:
    """The residues of generators at the usable primes of a class.

    values[i, j] holds the d coefficients mod p of generators[i] at primes[j]
    as int64, -1 where none is known (d, the field degree, is the same at
    every prime of a class).  `entries` reads it as a (generator, p) -> Fq
    mapping, and ResidueTable(pclass, generators, entries, contexts) fills it.
    """

    def __init__(self, pclass: PrimeClass, generators, entries=None, contexts=None):
        self.pclass, self.generators = pclass, tuple(generators)
        self.contexts = dict(contexts or {})  # p -> FqContext
        self.primes = tuple(p for p in pclass.primes if p in self.contexts)
        self.row_of = {g: i for i, g in enumerate(self.generators)}
        self.col_of = {p: j for j, p in enumerate(self.primes)}
        d = max((ctx.d for ctx in self.contexts.values()), default=1)
        self.values = np.full((len(self.generators), len(self.primes), d), -1, dtype=np.int64)
        for (gen, p), v in (entries or {}).items():
            self.values[self.row_of[gen], self.col_of[p]] = v.coeffs
        self.entries = _Entries(self)

    def residue(self, gen, p) -> Fq:
        coeffs = self.values[self.row_of[gen], self.col_of[p]]
        if coeffs[0] < 0:
            raise KeyError((gen, p))
        return Fq(self.contexts[p], coeffs.tolist())

    def int_matrix(self) -> np.ndarray:
        """The (G, P) prime-field residues, rows by generator, columns by prime,
        as a view of `values`.

        ValueError where one is unknown or lies outside the prime field.
        """
        if (self.values[..., 0] < 0).any() or self.values[..., 1:].any():
            raise ValueError("column has entries missing or outside the prime field")
        return self.values[..., 0]

    def int_column(self, gen) -> list[int]:
        """Prime-field entries as plain ints, ordered by prime (congruence rows)."""
        return self.subtable([gen]).int_matrix()[0].tolist()

    def subtable(self, gens) -> "ResidueTable":
        """The rows of gens, as a table of their own."""
        sub = ResidueTable(self.pclass, gens, contexts=self.contexts)
        sub.values[:] = self.values[[self.row_of[g] for g in gens]]
        return sub


def _default_cache_dir() -> str:
    env = os.environ.get("CMZV_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "cmzv")


def _cache_path(cache_dir: str, N: int, alpha: int) -> str:
    return os.path.join(cache_dir, f"residues_N{N}_a{alpha}.jsonl")


# a cache record's fields and their JSON types, besides "v": 1
_RECORD_FIELDS = ("N", "alpha", "p", "index", "modulus", "zeta_image", "residue")
_RECORD_TYPES = (int, int, int, str, list, list, list)


def _valid_record(rec) -> bool:
    """Every field of its type, and as residue d ints in [0, p), d the degree
    of the modulus."""
    return (
        type(rec) is dict
        and rec.get("v") == 1
        and tuple(map(type, map(rec.get, _RECORD_FIELDS))) == _RECORD_TYPES
        and len(rec["residue"]) == len(rec["modulus"]) - 1
        and all(type(c) is int and 0 <= c < rec["p"] for c in rec["residue"])
    )


def _record_key(rec: dict) -> tuple:
    """Records with equal keys hold the same residue; only the first is kept."""
    return (rec["p"], rec["index"], tuple(rec["modulus"]), tuple(rec["zeta_image"]))


_CHUNK = 512  # lines decoded by one json.loads in _read_records


def _read_records(fh, bad: list | None = None):
    """The well-formed records of an open JSON-lines file; the rest is skipped.

    _CHUNK non-blank lines decode as one JSON array (no string runs across a
    newline).  A chunk that fails, or gives another number of values than it
    has lines, is decoded line by line; the numbers of the lines that are not
    JSON go to `bad` when it is given.
    """
    lines = ((n, text) for n, line in enumerate(fh, 1) if (text := line.strip()))
    while chunk := list(itertools.islice(lines, _CHUNK)):
        try:
            values = json.loads("[" + ",\n".join(text for _, text in chunk) + "]")
        except json.JSONDecodeError:
            values = None
        if values is None or len(values) != len(chunk):
            values = []
            for n, text in chunk:
                try:
                    values.append(json.loads(text))
                except json.JSONDecodeError:
                    if bad is not None:
                        bad.append(n)
        yield from filter(_valid_record, values)


def _load_cache(path: str):
    """The lines of one cache file, streamed; none where it is missing, and a
    warning where it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from fh
    except FileNotFoundError:
        pass
    except OSError as exc:
        warnings.warn(f"residue cache unreadable ({exc}); recomputing")


def _dump(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"


def _line_template(N: int, alpha: int, p: int, ctx: FqContext) -> tuple[str, str, str]:
    """start, middle and end of the line _dump writes for a record of the
    class (N, alpha) at p in ctx: the line is start, the quoted index, middle,
    the residue list and end.  start is the same at every prime."""
    head = _dump({"v": 1, "N": N, "alpha": alpha, "p": p, "modulus": list(ctx.modulus),
                  "zeta_image": list(ctx.zeta_coeffs), "index": "@", "residue": "#"})
    start, rest = head.split('"@"')
    middle, end = rest.split('"#"')
    return start, middle, end


def _table_lines(table: ResidueTable):
    """((p, index), line) per entry of a full table, sorted, each line as
    _dump writes the record, from its prime's _line_template."""
    keyed = sorted((_generator_key(g), i) for i, g in enumerate(table.generators))
    quoted, order = [json.dumps(key) for key, _ in keyed], [i for _, i in keyed]
    for p in sorted(table.primes):
        start, middle, end = _line_template(table.pclass.level, table.pclass.alpha, p,
                                            table.contexts[p])
        residues = table.values[order, table.col_of[p]].tolist()
        for (key, _), q, res in zip(keyed, quoted, residues):
            yield (p, key), f"{start}{q}{middle}[{','.join(map(str, res))}]{end}"


def _shape(text: str) -> str:
    """A regex matching text with each run of digits replaced by any digits."""
    return re.sub("[0-9]+", "[0-9]+", re.escape(text))


def _read_cache(lines, table: ResidueTable) -> tuple[list, list]:
    """Fill the table's cells from cache lines; the records it does not consume.

    A cell takes the residue of its first record whose context (modulus and
    root image) is the table's.  Every other record is returned as read: in
    the second list those after a consumed record of equal (p, index), to be
    written back after its entry, in the first the rest.  A line exactly as
    _table_lines writes a cell of the table fills it with no JSON decode;
    each run of other lines goes through _read_records.
    """
    N, alpha, col_of = table.pclass.level, table.pclass.alpha, table.col_of
    by_key = {_generator_key(g): i for i, g in enumerate(table.generators)}
    by_quoted = {json.dumps(key): i for key, i in by_key.items()}
    heads = {p: (list(ctx.modulus), list(ctx.zeta_coeffs)) for p, ctx in table.contexts.items()}
    cells = [[None] * len(table.generators) for _ in table.primes]  # column -> row -> residue
    columns = {}  # (middle, end) of a prime's template -> (p, column, cells of the column)
    for p, j in col_of.items():
        start, middle, end = _line_template(N, alpha, p, table.contexts[p])
        columns[middle, end] = (p, j, cells[j])
    if not columns:  # no usable prime, so no cell to fill
        return list(_read_records(lines)), []
    # the templates' shape, with d residues: middles and ends differ only in their digits
    ints = "(?:0|[1-9][0-9]*)"  # as JSON writes them
    d = table.values.shape[2]
    residue = rf"{ints}(?:,{ints}){{{d - 1}}}"
    shape = rf'{re.escape(start)}("[^"\\]*")({_shape(middle)})\[({residue})\]({_shape(end)})\Z'
    match = re.compile(shape).match
    kept, last, other = ([], []), None, []  # last: (column, row) of the last cell filled

    def decode():  # the run of other lines, through _read_records
        nonlocal last
        for rec in _read_records(other):
            i, j = by_key.get(rec["index"]), col_of.get(rec["p"])
            if i is None or j is None or cells[j][i] is not None \
                    or (rec["modulus"], rec["zeta_image"]) != heads[rec["p"]]:
                kept[(j, i) == last].append(rec)
            else:
                cells[j][i] = rec["residue"]
                last = (j, i)
        other.clear()

    for line in lines:
        m = match(line)
        if m is not None:
            quoted, middle, digits, end = m.groups()
            i, at = by_quoted.get(quoted), columns.get((middle, end))
            if i is not None and at is not None:
                p, j, column = at
                residue = [int(digits)] if d == 1 else [*map(int, digits.split(","))]
                if max(residue) < p:
                    if other:  # earlier lines first: one of them may hold this cell
                        decode()
                    if column[i] is None:
                        column[i] = residue
                        last = (j, i)
                        continue
        other.append(line)
    if other:
        decode()
    for j, column in enumerate(cells):
        if None not in column:
            table.values[:, j] = column
            continue
        rows = [i for i, residue in enumerate(column) if residue is not None]
        if rows:
            table.values[rows, j] = [column[i] for i in rows]
    return kept


def _store_cache(path: str, records: list[dict], table=None, after=()) -> None:
    """Write records, a record per entry of table, then after, sorted by (p, index).

    Records with equal (p, index) keep that order.
    """
    by_key = itemgetter("p", "index")
    dumped = lambda recs: ((by_key(r), _dump(r)) for r in sorted(recs, key=by_key))  # noqa: E731
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        table_lines = _table_lines(table) if table is not None else ()
        lines = heapq.merge(dumped(records), table_lines, dumped(after), key=itemgetter(0))
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(line for _, line in lines)
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
        for rec in itertools.chain(_read_records(_load_cache(path)), recs):
            merged.setdefault(_record_key(rec), rec)
        _store_cache(path, list(merged.values()))


def ProcessPoolExecutor(max_workers: int):
    """A concurrent.futures process pool, imported on the first call: only
    tables built with jobs > 1 need it, and the import costs every process."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def _compute_column(args):
    """The (G, d) residues at one prime of gens or their _Slots (worker-process entry point)."""
    N, alpha, p, twist, gens = args
    return p, _residues(gens, p, make_fq_context(p, N, twist))


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
    N, alpha = pclass.level, pclass.alpha
    contexts = {}
    for p in pclass.primes:
        try:
            contexts[p] = make_fq_context(p, N, twist)
        except BadPrimeError as exc:
            warnings.warn(f"skipping prime {p}: {exc}")
    table = ResidueTable(pclass, generators, contexts=contexts)
    gens, values, col_of = table.generators, table.values, table.col_of

    cache_file = _cache_path(cache_dir or _default_cache_dir(), N, alpha)
    kept = _read_cache(_load_cache(cache_file), table) if use_cache else None

    todo = {p: np.flatnonzero(values[:, j, 0] < 0) for p, j in col_of.items()}
    todo = {p: rows for p, rows in todo.items() if rows.size}  # rows with no cached residue
    slots = {rows.tobytes(): rows for rows in todo.values()}  # one _Slots per row set
    slots = {key: _Slots([gens[i] for i in rows]) for key, rows in slots.items()}
    work = [(N, alpha, p, twist, slots[rows.tobytes()]) for p, rows in sorted(todo.items())]
    workers = min(jobs, len(work), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_compute_column, work))
    else:
        results = map(_compute_column, work)  # one prime's column alive at a time
    for p, col in results:
        values[todo[p], col_of[p]] = col

    if use_cache and todo:
        _store_cache(cache_file, kept[0], table, kept[1])
    return table
