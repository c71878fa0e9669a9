"""Finite colored MZVs: per-prime residues, the congruence model, and tables.

Each value is the truncated sum below a prime, reduced into the residue
field picked by make_fq_context.  Residue tables over a class of primes are
the raw material for relation discovery, so they cache to disk.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import tempfile
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .fq import Fq, FqContext, inverse_row, is_prime, make_fq_context, zeta_table
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

    def reversed_fields(self, alpha: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The (ks, fs) of reversed_class(alpha), without building it."""
        return self.ks[::-1], tuple((alpha - f) % self.level for f in self.fs[::-1])

    def reversed_class(self, alpha: int) -> "CongruenceIndex":
        """The image under m_a -> p - m_(r+1-a), p = alpha mod level."""
        return CongruenceIndex(*self.reversed_fields(alpha), self.level)


def format_congruence_index(cix: CongruenceIndex) -> str:
    return f"k={','.join(map(str, cix.ks))};f={','.join(map(str, cix.fs))}"


def parse_congruence_index(text: str, level: int) -> CongruenceIndex:
    """Parse 'k=2,1;f=0,2' into a CongruenceIndex at the given level."""
    return CongruenceIndex(*_parse_fields(text, "kf"), level)


# ---- per-prime residues ---------------------------------------------------------


@lru_cache(maxsize=64)
def _small_inverse_row(p: int) -> np.ndarray:
    """inverse_row(p) for p < 2^16 as uint16, made once and read-only: a run
    that sums many tables at the same few primes (`cmzv check`) inverts
    each once, and 64 rows hold at most 8 MB."""
    row = inverse_row(p).astype(np.uint16)
    row.setflags(write=False)
    return row


def _inverse_powers(p: int, kmax: int, length: int) -> np.ndarray:
    """Row k - 1 holds n^-k mod p for n = 1..p-1 as int64, then zeros up to
    n = length, for k = 1..kmax.

    Products of two residues fit in int64 only for p < 2^31, the bound of
    nested_sum; inverse_row raises above it, before any array is made.
    """
    inverse = _small_inverse_row(p) if p < 2**16 else inverse_row(p)
    powers = np.zeros((kmax, length), dtype=np.int64)
    powers[0, : p - 1] = inverse
    for k in range(1, kmax):
        np.remainder(powers[k - 1, : p - 1] * inverse, p, out=powers[k, : p - 1])
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
    so the last entry is the node's sum.  A congruence node of class f sums
    over its class alone, n = f' + N i for i < T = ceil((p-1)/N), f' = f or
    N for f = 0: its terms are column f' - 1 of the n^-k rows zero-padded to
    n = N T and laid out as (T, N).  Its row starts from a zero carry, so
    term i pairs with entry i - 1 + c of its suffix's class-g prefix sums,
    c = 1 when g' < f' (the suffix's n comes first in a block of N), the
    shift nested_sum takes beside rows.  Every level keeps all T entries,
    since a generator deeper than T can have a nonzero sum (n = 6 > 5 > 4
    at N = 3, p = 7, T = 2).  Colored rows live in F_p[Z/N], (W, N, p-1)
    arrays with coordinate t the coefficient of zeta^t, and the suffix's
    row is first moved by zeta^(e n); a generator's N sums map into F_(p^d)
    through the powers of zeta in ctx, whatever d is.  Levels of more than
    _CELLS entries (N p a colored node, T a congruence one) run as
    sub-tries of runs of generators.
    """
    slots = gens if isinstance(gens, _Slots) else _Slots(gens)
    out = np.zeros((slots.size, 1 if ctx is None else ctx.d), dtype=np.int64)
    out[slots.empty, 0] = 1 % p  # the empty sum is 1
    if not slots.tries:
        return out
    N, kmax = slots.level, slots.kmax
    T = -(-(p - 1) // N)  # the terms of one class
    grid = _inverse_powers(p, kmax, N * T)
    cls = (slots.used // kmax - 1) % N  # f' - 1 of each congruence slot
    terms = grid.reshape(kmax, T, N)[slots.used % kmax, :, cls]  # row j: slot j on its class
    powers, n = grid[:, : p - 1], np.arange(1, p)
    phase = np.arange(N)[:, None] * n % N  # row e: e n mod N
    for colored, trie in slots.tries.items():
        sums = np.zeros((trie.offsets[-1], N) if colored else trie.offsets[-1], dtype=np.int64)
        for part in trie.parts(max(1, _CELLS // (N * p) if colored else _CELLS // T)):
            part = part[: p - 1]  # a node of depth >= p has no term

            def column(j):
                d = len(part) - 1 - j
                slot, up = trie.nodes[d][part[d]].T
                rows = up - part[d - 1].start if d else None
                if not colored:
                    if not d:
                        return terms[slot]
                    shift = (cls[trie.nodes[d - 1][up, 0]] < cls[slot]).astype(np.int64)
                    return terms[slot], None, rows, shift
                gather = (np.arange(N)[:, None] - phase[slot // kmax, None]) % N  # t takes t - e n
                w = powers[slot % kmax, None]
                return (w, gather, rows) if d else w * (gather == 0)

            zero = None if colored else [0] * len(part)
            for d, level in enumerate(nested_sum(len(part), column, p, levels=True, carry=zero)):
                sums[trie.offsets[d] + part[d].start : trie.offsets[d] + part[d].stop] = level
        if not colored:
            out[trie.at, 0] = sums[trie.node]
            continue
        out[trie.at] = (sums[trie.node, :, None] * zeta_table(ctx)[:, 0] % p).sum(axis=1) % p
    return out


def _zeta_sum(rows: np.ndarray, coeffs, shifts, ctx: FqContext) -> np.ndarray:
    """sum_i coeffs[i] zeta^shifts[i] rows[i] in the field of ctx, as d ints mod p:
    rows[i] times the matrix of zeta^shifts[i] in zeta_table."""
    p, times = ctx.p, zeta_table(ctx)[np.array(shifts, dtype=np.int64) % ctx.N]  # (n, d, d)
    moved = (rows[:, :, None] * times % p).sum(axis=1) % p  # zeta^shifts[i] rows[i]
    return (np.array(coeffs, dtype=np.int64).reshape(-1, 1) % p * moved % p).sum(axis=0) % p


def _context(ctx: FqContext | None, p: int, N: int) -> FqContext:
    ctx = make_fq_context(p, N) if ctx is None else ctx
    if (ctx.p, ctx.N) != (p, N):
        raise ValueError("context does not match the prime and level")
    return ctx


def finite_residue(ix: Index, p: int, ctx: FqContext | None = None) -> Fq:
    """The truncated colored sum below p in the residue field of ctx."""
    ctx = _context(ctx, p, ix.level)
    return Fq(ctx, _residues([ix], p, ctx)[0].tolist())


def congruence_residue_int(cix: CongruenceIndex, p: int) -> int:
    """The congruence-model sum below p as a plain integer mod p."""
    return int(_residues([cix], p)[0, 0])


def congruence_residue(cix: CongruenceIndex, p: int, ctx: FqContext | None = None) -> Fq:
    """Congruence-model value in the prime subfield."""
    return _context(ctx, p, cix.level).scalar(congruence_residue_int(cix, p))


def congruence_from_colored(cix: CongruenceIndex, p: int, ctx: FqContext | None = None) -> Fq:
    """N^-r sum_e zeta^(-e.f) (k; e) over the N^r colors e; cross-checks the direct sum."""
    ctx = _context(ctx, p, cix.level)
    N, r = cix.level, cix.depth
    colors = list(itertools.product(range(N), repeat=r))
    rows = _residues([Index(cix.ks, es, N) for es in colors], p, ctx)
    shifts = [-sum(e * f for e, f in zip(es, cix.fs)) for es in colors]
    return Fq(ctx, _zeta_sum(rows, [pow(N, -r, p)] * len(colors), shifts, ctx).tolist())


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


def _relations_path(cache_dir: str, N: int, alpha: int) -> str:
    """The file of relation-lattice records beside the residues of (N, alpha)."""
    return os.path.join(cache_dir, f"relations_N{N}_a{alpha}.jsonl")


# A cache line is one column, the residues of one class at one prime in one
# residue field: {"v": 3, N, alpha, p, modulus, zeta_image, "index": [sorted
# keys], "residues": [d ints a key]}.  In memory a file maps each column's head,
# (N, alpha, p, modulus, zeta_image) with tuples for lists, to (index, residues).
_HEAD = ("N", "alpha", "p", "modulus", "zeta_image")


def _head(N: int, alpha: int, p: int, ctx: FqContext) -> tuple:
    return (N, alpha, p, tuple(ctx.modulus), tuple(ctx.zeta_coeffs))


def _first_wins(pairs):
    """A JSON object whose repeated keys keep their first value; its keys come reversed."""
    return dict(reversed(pairs))


def _json_lines(lines, skipped: list):
    """(line number, value) for each non-blank line, one json.loads a line;
    the numbers of the lines that are not one JSON value go to skipped."""
    for n, line in enumerate(lines, 1):
        if line.strip():
            try:
                yield n, json.loads(line, object_pairs_hook=_first_wins)
            except (ValueError, RecursionError):
                skipped.append(n)


def _merged(d: int, pairs, order=list) -> tuple[list, list]:
    """The (index, residues) pairs as one, the first cell of an index winning,
    the indices in order(cells), first seen first by default."""
    cells = {}
    for index, residues in pairs:
        for i, key in enumerate(index):
            cells.setdefault(key, residues[i * d : i * d + d])
    index = order(cells)
    return index, list(itertools.chain.from_iterable(map(cells.__getitem__, index)))


def _column(value):
    """(head, (index, residues)) of a cache line's JSON value, a "v": 3 column.
    None unless every field has its JSON type, every index is a string and
    every cell is d integers in [0, p), d = len(modulus) - 1; a repeated index
    keeps its first cell."""
    if type(value) is not dict:
        return None
    v, index, residues = value.get("v"), value.get("index"), value.get("residues")
    N, alpha, p, modulus, zeta = map(value.get, _HEAD)
    if not (type(v) is type(N) is type(alpha) is type(p) is int and v == 3
            and type(modulus) is type(zeta) is list and len(modulus) > 1):
        return None
    d = len(modulus) - 1
    if not (type(index) is type(residues) is list and len(residues) == d * len(index)):
        return None
    if (set(map(type, index)) - {str}
            or set(map(type, itertools.chain(modulus, zeta, residues))) - {int}):
        return None
    if residues and not (min(residues) >= 0 and max(residues) < p):
        return None
    if len(set(index)) < len(index):
        index, residues = _merged(d, [(index, residues)])
    return (N, alpha, p, tuple(modulus), tuple(zeta)), (index, residues)


def _add(columns: dict, head: tuple, *pairs) -> None:
    """Put the cells of the (index, residues) pairs in the column head of
    columns, a cell already there or of an earlier pair winning."""
    pairs = (columns[head], *pairs) if head in columns else pairs
    columns[head] = pairs[0] if len(pairs) == 1 else _merged(len(head[3]) - 1, pairs)


def _merge(values, columns: dict, skipped: list) -> int:
    """Add each valid (line number, value) to columns, the first source of a
    cell winning; the numbers of the others go to skipped.  Returns the
    number of cells read."""
    read = 0
    lines = {}  # head -> the pairs of its lines, in file order
    for n, value in values:
        column = _column(value)
        if column is None:
            skipped.append(n)
            continue
        lines.setdefault(column[0], []).append(column[1])
        read += len(column[1][0])
    for head, pairs in lines.items():
        _add(columns, head, *pairs)
    return read


def _load_cache(path: str):
    """The lines of one cache file, streamed; none where it is missing, and a
    warning where it cannot be read.  A byte that is not UTF-8 is read as
    U+FFFD, so it spoils its line alone."""
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            yield from fh
    except FileNotFoundError:
        pass
    except OSError as exc:
        warnings.warn(f"cache file {path} unreadable ({exc}); recomputing")


def _read_cache(path: str) -> tuple[dict, bool]:
    """The columns of a residue file, and whether it holds a bad line, so that
    it should be rewritten.  Bad lines are dropped with one warning naming the
    file."""
    columns, skipped = {}, []
    _merge(_json_lines(_load_cache(path), skipped), columns, skipped)
    if skipped:
        warnings.warn(f"cache file {path}: dropped {len(skipped)} bad line(s)")
    return columns, bool(skipped)


def _dump(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"


def _cache_lines(columns: dict) -> list[str]:
    """The lines of a cache file of columns, one each, ordered by (N, alpha,
    p) and otherwise as given, the cells of each sorted by index."""
    lines = []
    for head in sorted(columns, key=itemgetter(0, 1, 2)):
        index, residues = columns[head]
        if not all(map(str.__lt__, index, index[1:])):
            index, residues = _merged(len(head[3]) - 1, [(index, residues)], sorted)
        lines.append(_dump({"v": 3, **dict(zip(_HEAD, head)), "index": index, "residues": residues}))
    return lines


def _write_lines(path: str, lines) -> None:
    """Write lines to a temporary file beside path, then move it over path,
    so a reader sees the old file or the new one whole; warn on failure, and
    leave no temporary file whatever fails."""
    tmp = None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        warnings.warn(f"cache file {path} not written ({exc})")
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)


def _store_columns(columns: dict, cache_dir: str | None = None) -> None:
    """Merge columns into their per-class files; a cell already on disk wins."""
    root = cache_dir or _default_cache_dir()
    for N, alpha in dict.fromkeys(head[:2] for head in columns):
        path = _cache_path(root, N, alpha)
        merged, _ = _read_cache(path)
        for head, pair in columns.items():
            if head[:2] == (N, alpha):
                _add(merged, head, pair)
        _write_lines(path, _cache_lines(merged))


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

    Every prime of pclass gets its residue field, as PrimeClass admits no
    prime that divides the level.  A cache column is used only when its
    class and context (prime, modulus and root image) match the ones built here.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    N, alpha = pclass.level, pclass.alpha
    contexts = {p: make_fq_context(p, N, twist) for p in pclass.primes}
    table = ResidueTable(pclass, generators, contexts=contexts)
    gens, values, col_of = table.generators, table.values, table.col_of

    if use_cache:  # the key and head lookups serve the cache alone
        cache_file = _cache_path(cache_dir or _default_cache_dir(), N, alpha)
        columns, rewrite = _read_cache(cache_file)
        keys = [_generator_key(g) for g in gens]
        gathers = {}  # tuple(index) -> (the rows of gens in the column, their cells)
        for p, j in col_of.items():
            index, residues = columns.get(_head(N, alpha, p, contexts[p]), ((), ()))
            if (shape := tuple(index)) not in gathers:
                cell = dict(zip(index, range(len(index))))
                found = np.array([cell.get(key, -1) for key in keys], dtype=np.int64)
                gathers[shape] = np.flatnonzero(found >= 0), found[found >= 0]
            rows, cells = gathers[shape]
            values[rows, j] = np.asarray(residues, dtype=np.int64).reshape(-1, contexts[p].d)[cells]

    order = np.argsort(keys) if use_cache else np.arange(len(gens))  # key order, as cached
    todo = {p: order[values[order, j, 0] < 0] for p, j in col_of.items()}
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

    if use_cache and (todo or rewrite):
        for p, rows in todo.items():
            computed = [keys[i] for i in rows.tolist()], values[rows, col_of[p]].ravel().tolist()
            _add(columns, _head(N, alpha, p, contexts[p]), computed)
        _write_lines(cache_file, _cache_lines(columns))
    return table
