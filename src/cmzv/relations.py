"""Relation families, lattice relation discovery over residue tables, dimensions.

The dimension pipeline works in the congruence model (values are prime-field
integers), combining three sources of relations:

* reversal under m -> p - m, eliminated symbolically over Q;
* the double shuffle family on the reversal-free generators: the linear
  shuffle rows (linear_shuffle_rows) and the products of lower-weight
  proven rows with single letters (product_rows), built as small-integer
  arrays, checked exactly at every prime and put in echelon form; and
* integer relations among the generators left, from one lattice per
  weight fed the residues at the training primes, accepted only when they
  hold exactly at every held-out prime too, and certified up to a height.

Relations come in reduced echelon form, each eliminating one designated
generator, so relation counts and dimensions add up directly.
dimension_table keeps each weight's proven and lattice rows in a file
beside the residue cache, and a later call with the same inputs builds no
linear-shuffle or product row and reduces no lattice.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import warnings
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import finite
from .cyclotomic import CycNum, _ctx, _prime_factors, euler_phi
from .finite import (
    CongruenceIndex,
    PrimeClass,
    ResidueTable,
    _zeta_sum,
    build_residue_table,
    format_congruence_index,
    primes_in_class,
)
from .lattice import GSOBasis, _einsum, _rref_mod, echelon_basis, lll_reduce
from .words import (
    Index,
    Word,
    _product_table,
    difference_roots,
    shuffle_product,
    word_to_index,
)


# ---- motivic dimension recurrence ---------------------------------------------


def _series_from_rational(num, den, k_max):
    """Taylor coefficients of num(t)/den(t) with den[0] = 1."""
    out = []
    for k in range(k_max + 1):
        c = num[k] if k < len(num) else 0
        for i in range(1, min(k, len(den) - 1) + 1):
            c -= den[i] * out[k - i]
        out.append(c)
    return out


def mt_dimension(N: int, k: int) -> int:
    """Graded dimension of the mixed-Tate Hopf algebra at level N, weight k."""
    if N < 1 or k < 0:
        raise ValueError("need N >= 1 and k >= 0")
    if N == 1:
        num, den = (1, 0, -1), (1, 0, -1, -1)
    elif N == 2:
        num, den = (1, 0, -1), (1, -1, -1)
    else:
        nu = len(_prime_factors(N))
        a = euler_phi(N) // 2 + nu
        num, den = (1, -1), (1, -a, nu - 1)
    return _series_from_rational(num, den, k)[k]


# ---- generator enumeration -------------------------------------------------------


def _compositions(total: int, parts: int):
    """Tuples of positive integers of given length summing to total, lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_generators(N: int, weight: int, model: str = "congruence") -> list:
    """All depth/exponent/color choices of the given weight, deterministic
    order, as a new list on every call."""
    return list(_generators(N, weight, model))


@lru_cache(maxsize=64)
def _generators(N: int, weight: int, model: str) -> tuple:
    """The generators of enumerate_generators, made once per (N, weight, model):
    they are frozen, so calls share them."""
    if weight < 1:
        raise ValueError("weight must be positive")
    if model not in ("colored", "congruence"):
        raise ValueError(f"unknown model {model!r}")
    make = Index if model == "colored" else CongruenceIndex
    return tuple(
        make(ks, cs, N)
        for r in range(1, weight + 1)
        for ks in _compositions(weight, r)
        for cs in itertools.product(range(N), repeat=r)
    )


# ---- exact relation families -------------------------------------------------------


def reversal_relations_congruence(N: int, weight: int, alpha: int) -> list[dict]:
    """The reversal family over Q in reduced echelon form, in generator order.

    The substitution m -> p - m inside the truncated sum gives
    g = (-1)^w g' for g' = g.reversed_class(alpha), an involution.  The
    earlier generator of a pair is the pivot, first in its row
    {g: 1, g': -(-1)^w}; a fixed point gives {g: 1} at odd weight and no row
    at even weight.
    """
    gens = enumerate_generators(N, weight, "congruence")
    order = {(g.ks, g.fs): i for i, g in enumerate(gens)}  # g' is looked up, not built
    sign = Fraction(-1 if weight % 2 else 1)
    rows = []
    for i, g in enumerate(gens):
        j = order[g.reversed_fields(alpha)]
        if j > i:
            rows.append({g: Fraction(1), gens[j]: -sign})
        elif j == i and weight % 2:
            rows.append({g: Fraction(1)})
    return rows


def linear_shuffle_row(u: Word, v: Word) -> dict:
    """Index-word coefficients of q(u sh v e_1) - (-1)^(|v|+1) q(rev(v) e_1 u).

    A zero row means the identity is symbolically trivial for this pair.
    """
    if not u.is_index_word:
        raise ValueError("u must be an index word")
    N = u.level
    row = {}
    for w, c in shuffle_product(u, Word(v.letters + (0,), N)):
        ix = word_to_index(difference_roots(w))
        row[ix] = row.get(ix, Fraction(0)) + c
    rhs_word = Word(v.letters[::-1] + (0,) + u.letters, N)
    ix = word_to_index(difference_roots(rhs_word))
    sign = Fraction(1 if len(v.letters) % 2 == 0 else -1)  # -(-1)^(|v|+1)
    row[ix] = row.get(ix, Fraction(0)) + sign
    return {g: c for g, c in row.items() if c}


def _on_free(reversal: list[dict], free: dict) -> dict:
    """generator -> (column in free, sign): a free generator is its own
    column, one that a reversal row {g: 1, g': -sign} eliminates is sign
    times g', and a fixed point of odd weight, which is zero, is missing."""
    at = {g: (h, 1) for g, h in free.items()}
    for row in reversal:
        if len(row) == 2:
            (g, _), (h, c) = row.items()
            at[g] = (free[h], -int(c))
    return at


def _distinct(blocks: list) -> np.ndarray:
    """The nonzero rows of the joined blocks, each once, sorted; the list is
    emptied once they are joined, so two copies of the rows are alive at most."""
    rows = np.concatenate(blocks)
    blocks.clear()
    if not len(rows):
        return rows
    rows = rows[np.lexsort(rows.T)]  # no np.unique: it imports numpy.ma, 1 MB
    first = np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))
    return rows[first & rows.any(axis=1)]


def linear_shuffle_rows(N: int, weight: int, reversal: list[dict], free: dict) -> np.ndarray:
    """Every linear_shuffle_row(u, v) of the given weight on the congruence
    generators in free (generator -> column), as the rows of a small-integer
    array, zero and repeated rows dropped.

    A colored index (k; e) is sum_f zeta^(e.f) C(k; f), so each row splits
    into phi(N) integer rows, one per power-basis coordinate of zeta; a
    generator outside free is written through its row of reversal (rows as
    reversal_relations_congruence gives them), or is zero.  Words are codes
    in base N + 1 (e_0 is 0, root a is a + 1).  Row i of the table T, on
    free, is the colored index of generator i, and index_of takes the code
    of its word there, so the row of (u, v) is a sum of C(weight, |u|) + 1
    rows of T, one per shuffle and one for rev(v) e_1 u.
    """
    if not free:
        return np.zeros((0, 0), dtype=np.int16)
    gens, B, P = enumerate_generators(N, weight), N + 1, _ctx(N)._table  # P[s]: zeta^s
    at = _on_free(reversal, free)
    column, sign = np.array([at.get(g, (0, 0)) for g in gens], dtype=np.int64).reshape(-1, 2).T
    # an entry is a sum of at most C(w, w/2) + 1 words, each meeting a column twice
    top = 2 * (math.comb(weight, weight // 2) + 1) * _ctx(N).power_bound
    T = np.zeros((len(gens), P.shape[1], len(free)), dtype=np.int16 if top < 2**15 else np.int64)
    index_of = np.zeros(B**weight, dtype=np.int64)  # word code -> row of T
    lo, powers = 0, B ** np.arange(weight - 1, -1, -1)
    for r in range(1, weight + 1):
        E = np.array(list(itertools.product(range(N), repeat=r))).reshape(-1, r)
        for ks in _compositions(weight, r):
            hi = lo + len(E)
            roots = powers[np.cumsum(ks) - 1]
            index_of[(np.cumsum(E, axis=1) % N + 1) @ roots] = np.arange(lo, hi)
            on = np.flatnonzero(sign[lo:hi])
            values = P[E @ E[on].T % N] * sign[lo + on, None]
            np.add.at(T, (slice(lo, hi), slice(None), column[lo + on]), values.transpose(0, 2, 1))
            lo = hi

    def words(n, last=range(B)):  # every code of length n, its last letter in last
        return np.array([(*w, x) for w in itertools.product(range(B), repeat=n - 1) for x in last])

    out = []  # the distinct rows of each |u|
    for a in range(weight):  # |u| = a, |v| = b; V holds the words v e_1
        b = weight - 1 - a
        U, V = words(a, range(1, B)) if a else np.zeros((1, 0), dtype=int), words(b + 1, [1])

        def terms(S, V):  # the rows of T of the words with u at the positions S
            rest = [i for i in range(weight) if i not in S]
            return T[index_of[(U @ powers[list(S)])[:, None] + V @ powers[rest]]]

        acc = sum(terms(S, V) for S in itertools.combinations(range(weight), a))
        acc += (-1) ** b * terms(range(b + 1, weight), V[:, [*range(b - 1, -1, -1), b]])
        out.append(_distinct([acc.reshape(-1, len(free))]))
    return _distinct(out)


def _class_bracket(level, x, y):
    """Two blocks (k; f) and (k'; f) of one class merge into (k + k'; f);
    blocks of two classes do not merge (m = m' needs f = f')."""
    return (x[0] + y[0], x[1]) if x[1] == y[1] else None


def product_rows(N: int, weight: int, raw: dict, reversal: list[dict], free: dict) -> np.ndarray:
    """Every row of raw[a], a < weight, times every letter (weight - a; f) in
    the congruence quasi-shuffle, on the generators in free as
    linear_shuffle_rows writes its rows; zero and repeated rows dropped.

    raw[a] holds integer rows on enumerate_generators(N, a).  A truncated
    sum times the sum of one letter is the sum over the letter put in at
    every position and merged with every block of its own class, so a row
    that vanishes at a prime gives products that vanish there too.  M[f]
    takes each generator of weight a to its product with (weight - a; f),
    and the products of raw[a] are raw[a] @ M[f].
    """
    if not free:
        return np.zeros((0, 0), dtype=np.int16)
    at = {tuple(zip(g.ks, g.fs)): cs for g, cs in _on_free(reversal, free).items()}
    memo, out = {}, []  # _product_table's memo, dropped with this call
    for a, R in raw.items():
        if a >= weight or not len(R):
            continue
        gens = enumerate_generators(N, a)
        M = np.zeros((N, len(gens), len(free)))
        for f, (i, g) in itertools.product(range(N), enumerate(gens)):
            u, letter = tuple(zip(g.ks, g.fs)), ((weight - a, f),)
            for blocks, c in _product_table(N, u, letter, _class_bracket, memo).items():
                h, sign = at.get(blocks, (0, 0))
                M[f, i, h] += c * sign
        if int(np.abs(R).max()) * int(np.abs(M).sum(axis=1).max()) >= 2**53:
            raise ArithmeticError("product rows outgrew float64")
        # exact below 2^53; numpy's C einsum, not BLAS, whose start-up costs 0.3 MB RSS
        products = _einsum("ij,fjk->fik", R.astype(np.float64), M)
        out.append(products.astype(np.int64).reshape(-1, len(free)))
    rows = _distinct(out) if out else np.zeros((0, len(free)), dtype=np.int64)
    return rows.astype(np.int16) if len(rows) and np.abs(rows).max() < 2**15 else rows


# ---- per-prime checks of the proven families ----------------------------------------


def _holds(terms, pclass: PrimeClass, twist: int) -> dict:
    """{prime: whether sum c zeta^s x(g) over the (g, c, s) in terms vanishes}, from one table."""
    gens, coeffs, shifts = zip(*terms) if terms else ((), (), ())
    table = build_residue_table(gens, pclass, use_cache=False, twist=twist)
    return {
        p: not _zeta_sum(table.values[:, j], coeffs, shifts, table.contexts[p]).any()
        for j, p in enumerate(table.primes)
    }


def check_linear_shuffle_finite(u: Word, v: Word, pclass: PrimeClass, twist: int = 1) -> dict:
    """Per-prime exactness of the linear shuffle identity; {prime: bool}."""
    return _holds([(g, int(c), 0) for g, c in linear_shuffle_row(u, v).items()], pclass, twist)


def check_reversal_finite(ix: Index, pclass: PrimeClass, twist: int = 1) -> dict:
    """Per-prime exactness of the reversal identity (k; -e) = (-1)^w
    zeta^(-alpha sum e) rev(k; e), from m -> p - m; {prime: bool}."""
    lhs = Index(ix.ks, [-e for e in ix.es], ix.level)
    terms = [(lhs, 1, 0), (ix.reversed(), -(-1) ** ix.weight, -pclass.alpha * sum(ix.es))]
    return _holds(terms, pclass, twist)


def check_linear_shuffle_symmetric(u: Word, v: Word, alpha: int, cfg=None) -> dict:
    """Numeric report on the symmetric-side linear shuffle (holds mod pi*i*Z).

    Returns delta, delta/(pi*i), the propagated tolerance, and whether the
    identity already cancels symbolically (then delta must be ~0).
    """
    from .symmetric import MzvEvalConfig, symmetric_cmzv

    if cfg is None:
        cfg = MzvEvalConfig()
    row = linear_shuffle_row(u, v)
    delta = 0j
    tol = 0.0
    for ix, coeff in row.items():
        s = symmetric_cmzv(alpha, ix, cfg)
        delta += float(coeff) * s.value
        tol += abs(float(coeff)) * s.tol
    return {
        "delta": delta,
        "delta_over_pi_i": delta / (1j * math.pi),
        "tol": tol,
        "symbolically_zero": not row,
    }


# ---- LLL relation discovery over residue tables --------------------------------------


@dataclass(frozen=True)
class RelationCandidate:
    """A verified linear relation among generators, coefficients in Q(zeta_N)."""

    coefficients: dict
    source: str  # reversal | double_shuffle | lll_discovered
    verified_primes: int

    def __post_init__(self):
        if not self.coefficients or all(c.is_zero for c in self.coefficients.values()):
            raise ValueError("relation must not be identically zero")
        levels = {c.level for c in self.coefficients.values()}
        if len(levels) != 1:
            raise ValueError("coefficients must share one level")
        if self.source not in ("reversal", "double_shuffle", "lll_discovered"):
            raise ValueError(f"unknown source {self.source!r}")


class Discovery(list):
    """The relations on the generators gens of the proven rows and of one
    relation lattice, with the echelon integer rows they come from, the
    lattice's b_cert and the number of kept vectors that failed a held-out
    prime (see discover_relations_lll), all verified at `verified` primes.

    The proven rows lie on gens, the lattice rows on the generators that no
    proven row pivots on; the relations list the proven rows first."""

    def __init__(self, gens=(), rows=(), b_cert=None, held_out_failures=0, verified=0, proven=()):
        N = gens[0].level if gens else 1
        pivots = {len(row) - 1 for row in proven}
        rest = [g for h, g in enumerate(gens) if h not in pivots]
        super().__init__(
            RelationCandidate(
                {on[h]: CycNum.rational(N, c) for h, c in enumerate(row) if c}, source, verified
            )
            for on, source, these in ((gens, "double_shuffle", proven), (rest, "lll_discovered", rows))
            for row in these
        )
        self.rows, self.proven = list(rows), list(proven)
        self.b_cert, self.held_out_failures = b_cert, held_out_failures


# Lovasz parameter of the relation lattice
_DELTA = Fraction(3, 4)


def _mod_product(A, matrix, primes) -> np.ndarray:
    """A @ matrix % primes, exactly, for integer rows A and column j of matrix
    holding residues mod primes[j]: in int64 where max|A| G max(p) < 2^62
    bounds every entry, else in Python ints.  Float rows, as the lattice
    keeps them, hold integers below 2^53."""
    if A.dtype.kind == "f":
        A = A.astype(np.int64)
    top = int(np.abs(A).max(initial=0))
    kind = np.int64 if top * len(matrix) * max(primes, default=0) < 2**62 else object
    return A.astype(kind) @ matrix.astype(kind, copy=False) % np.array(primes, dtype=kind)


def _feed(basis: GSOBasis, primes, columns) -> None:
    """Keep the lattice vectors v with v.c = 0 mod p for each prime p and its
    column c of columns.

    With P the product of the primes and s = b.c mod P, the last row j with
    s_j a unit mod P is the pivot: b_i -= c_i b_j with c_i = s_i/s_j mod P,
    centred, and b_j *= P span the index-P sublattice, which is reduced
    again from the first row that changed.  With no such row the primes go
    in one at a time.
    """
    b = basis.rows
    s = _mod_product(b, columns, primes).astype(np.int64)
    units = np.flatnonzero((s != 0).all(axis=1))
    if not units.size:
        for i in range(len(primes)) if len(primes) > 1 else ():
            _feed(basis, primes[i : i + 1], columns[:, i : i + 1])
        return
    P, j = math.prod(primes), units[-1]
    if int(np.abs(b).max()) * P >= 2**53:
        raise ArithmeticError("relation lattice entries outgrew float64; lower height_bound")
    crt = sum(s[:, i] * ((P // p) * pow(P // p, -1, p)) % P for i, p in enumerate(primes)) % P
    c = crt * pow(int(crt[j]), -1, P) % P
    c[c > P // 2] -= P
    c[j] = 0
    b -= c[:, None] * b[j]
    b[j] *= P
    basis.fresh = min(basis.fresh, j, *np.flatnonzero(c)[:1])
    lll_reduce(basis, _DELTA)


def discover_relations_lll(
    table: ResidueTable,
    height_bound: int = 1000,
    prime_split: tuple[int, int] = (24, 12),
) -> Discovery:
    """Relations among the generators of table, from one relation lattice.

    The lattice starts as Z^G on its G generators and takes in the
    training primes (see _feed).  After each group, trailing vectors with
    |b*| > height_bound * sqrt(G) are dropped: every lattice vector of norm
    up to that lies in the span of the others.  The kept vectors that vanish
    at every held-out prime are the relations, returned in reduced echelon
    form with pivots on the latest generators, so each writes one generator
    through earlier ones.  b_cert is the least |b*| / sqrt(G), rounded down,
    of the other vectors, dropped ones included: no relation with
    coefficients up to b_cert lies outside the span found.
    """
    train_n, verify_n = prime_split
    primes = table.primes
    if len(primes) < train_n + verify_n:
        raise ValueError(
            f"table has {len(primes)} usable primes, need {train_n + verify_n}"
        )
    gens = table.generators
    if not gens:
        return Discovery()
    matrix = table.int_matrix()  # rejects entries outside the prime field
    G = len(gens)
    basis = GSOBasis(np.eye(G), fresh=G)  # Z^G, already orthogonal
    shortest = math.inf  # least |b*|^2 of a dropped vector
    # CRT moduli below 2^31 keep the int64 products in _feed exact
    size = next((s for s in (3, 2, 1) if max(primes[:train_n], default=0) ** s < 2**31), 0)
    if not size:
        raise ValueError("training primes must be below 2^31")
    for i in range(0, train_n, size):
        if len(basis):
            stop = min(i + size, train_n)
            _feed(basis, primes[i:stop], matrix[:, i:stop])
        keep = len(basis)
        while keep and basis.norm2[keep - 1] > height_bound**2 * G:
            keep -= 1
        shortest = min([shortest, *basis.norm2[keep:]])
        basis.truncate(keep)
    held_out = slice(train_n, train_n + verify_n)
    holds = ~_mod_product(basis.rows, matrix[:, held_out], primes[held_out]).any(axis=1)
    lead = len(basis) if holds.all() else int(np.argmin(holds))  # relations before it
    shortest = min([shortest, *basis.norm2[lead:]])
    rows = echelon_basis(basis.rows[holds])
    b_cert = None if shortest == math.inf else math.floor(math.sqrt(shortest / G))
    return Discovery(gens, rows, b_cert, int((~holds).sum()), train_n + verify_n)


def _discover(table: ResidueTable, split, height_bound: int, proven_rows) -> Discovery:
    """The proven rows on the generators of table, from proven_rows(), which
    checks them at every prime and returns them with their _rref_mod at
    2^31 - 1, put in echelon form, then discover_relations_lll on the
    generators left without a pivot."""
    proven = echelon_basis(*proven_rows())
    pivots = {len(row) - 1 for row in proven}
    rest = table.subtable([g for h, g in enumerate(table.generators) if h not in pivots])
    found = discover_relations_lll(rest, height_bound, split)
    failures = found.held_out_failures
    return Discovery(table.generators, found.rows, found.b_cert, failures, sum(split), proven)


# ---- the relation cache -----------------------------------------------------------------

# the key fields that name the question a relation record answers; a record
# for the same question under another key is stale, and is replaced
_QUESTION = ("twist", "primes", "split", "height_bound", "generators")


def _question(rec) -> str:
    return json.dumps([rec[f] for f in _QUESTION])


def _code_crc() -> int:
    """crc32 of the sources that decide the proven rows and a relation
    lattice: this file, lattice.py, cyclotomic.py (the powers of zeta),
    finite.py (the reversal) and words.py (the quasi-shuffle)."""
    crc = 0
    for name in ("cyclotomic.py", "finite.py", "lattice.py", "relations.py", "words.py"):
        with open(os.path.join(os.path.dirname(__file__), name), "rb") as fh:
            crc = zlib.crc32(fh.read(), crc)
    return crc


def _echelon_rows(rows, matrix, primes) -> bool:
    """True when rows are primitive integer rows in reduced echelon form on
    the rows of matrix, each with its negative pivot last, pivots rising,
    and each vanishes at every prime, column j of matrix holding the
    residues at primes[j], by one _mod_product."""
    G = len(matrix)
    if not (type(rows) is list and all(
        type(r) is list and 0 < len(r) <= G and all(type(c) is int for c in r) for r in rows
    )):
        return False
    pivots = [len(r) - 1 for r in rows]
    if pivots != sorted(set(pivots)) or any(r[-1] >= 0 or math.gcd(*r) != 1 for r in rows):
        return False
    top = max((abs(c) for r in rows for c in r), default=0)
    A = np.zeros((len(rows), G), dtype=np.int64 if top < 2**63 else object)
    for i, r in enumerate(rows):
        A[i, : len(r)] = r
    at_pivots = A[:, pivots]  # each pivot column holds its own pivot alone
    clean = not (at_pivots != np.diag(np.diag(at_pivots))).any()
    return clean and not _mod_product(A, matrix, primes).any()


def _checked_discovery(rec: dict, gens, matrix, primes) -> Discovery | None:
    """The Discovery of a relation record, or None unless its proven rows
    pass _echelon_rows on gens, and its lattice rows on the generators left
    without a proven pivot; row i of matrix holds the residues of gens[i].
    b_cert and held_out_failures are checked for type only."""
    proven, rows = rec.get("proven"), rec.get("rows")
    b_cert, failures = rec.get("b_cert"), rec.get("held_out_failures")
    if not (
        _echelon_rows(proven, matrix, primes)
        and (b_cert is None or type(b_cert) is int and b_cert >= 0)
        and type(failures) is int
        and failures >= 0
    ):
        return None
    pivots = {len(r) - 1 for r in proven}
    if not _echelon_rows(rows, matrix[[h for h in range(len(gens)) if h not in pivots]], primes):
        return None
    return Discovery(gens, rows, b_cert, failures, len(primes), proven)


class _RelationCache:
    """The relation records of one class file, read once per dimension_table
    call and written at most once, by flush.

    A record is a relation lattice's key (see discover) with its Discovery:
    the proven and the lattice echelon rows, b_cert and held_out_failures.
    The rows are served only after _checked_discovery; b_cert,
    held_out_failures and the claim that the rows span every relation found
    are trusted as written.
    """

    def __init__(self, path: str):
        self.path, self.code = path, _code_crc()
        self.records = {}  # _question(record) -> record
        bad = []
        for n, rec in finite._json_lines(finite._load_cache(path), bad):
            try:
                self.records[_question(rec)] = rec
            except (TypeError, KeyError):
                bad.append(n)
        if bad:
            warnings.warn(f"relation cache {path}: dropped {len(bad)} unreadable line(s)")
        self.dirty = bool(bad)

    def discover(self, table: ResidueTable, split, config: DimConfig, proven_rows) -> Discovery:
        """_discover(table, split, config.height_bound, proven_rows), from a
        record under the same key if one passes its check, else computed and
        recorded.  The key holds everything the rows and the lattice depend
        on, the code that builds and reduces them as a crc32 of its source
        and the residues as one of their int64 bytes."""
        n = sum(split)
        matrix = table.int_matrix()[:, :n]
        key = {
            "v": 1,
            "N": table.pclass.level,
            "alpha": table.pclass.alpha,
            "twist": config.twist,
            "primes": list(table.primes[:n]),
            "split": list(split),
            "height_bound": config.height_bound,
            "delta": str(_DELTA),
            "numpy": np.__version__,
            "generators": [format_congruence_index(g) for g in table.generators],
            "residues": zlib.crc32(matrix.astype("<i8").tobytes()),
            "code": self.code,
        }
        question = _question(key)
        rec = self.records.get(question)
        if rec is not None and all(rec.get(f) == v for f, v in key.items()):
            found = _checked_discovery(rec, table.generators, matrix, key["primes"])
            if found is not None:
                return found
            warnings.warn(f"relation cache {self.path}: a record failed its check; recomputing")
        found = _discover(table, split, config.height_bound, proven_rows)
        self.records[question] = dict(
            key,
            proven=found.proven,
            rows=found.rows,
            b_cert=found.b_cert,
            held_out_failures=found.held_out_failures,
        )
        self.dirty = True
        return found

    def flush(self) -> None:
        if self.dirty:
            finite._write_lines(self.path, map(finite._dump, self.records.values()))


# ---- dimension tables ------------------------------------------------------------------


@dataclass(frozen=True)
class DimConfig:
    train_primes: int = 24
    verify_primes: int = 12
    prime_floor: int | None = None  # default: max(weight_max + 2, 50), one class for every weight
    height_bound: int = 1000
    twist: int = 1
    use_cache: bool = True
    cache_dir: str | None = None
    jobs: int = 1

    def __post_init__(self):
        # with no held-out prime nothing is verified, and a height below 1
        # certifies nothing: either would give dimensions with no evidence
        if self.height_bound < 1:
            raise ValueError("height_bound must be at least 1")
        if self.train_primes < 1 or self.verify_primes < 1:
            raise ValueError("need at least one training and one held-out prime")
        if self.prime_floor is not None and self.prime_floor < 2:  # the reversal rows need p odd
            raise ValueError("prime_floor must be at least 2")


@dataclass(frozen=True)
class DimensionReport:
    N: int
    alpha: int
    weight: int
    generator_count: int
    exact_relation_rank: int
    lll_extra_relations: int
    dim_estimate: int
    mt_dim: int
    under_determined: bool
    relations: tuple
    b_cert: int | None = None  # see Discovery

    def __post_init__(self):
        if not 0 <= self.dim_estimate <= self.generator_count:
            raise ValueError("dimension estimate out of range")


def _check_exact_rows(A, table) -> None:
    """Raise AssertionError unless every proven row vanishes at every prime.

    One _mod_product of the integer rows A, on the generators of table,
    with its residue matrix; the message names the first failing row and
    prime.
    """
    bad = _mod_product(A, table.int_matrix(), table.primes) != 0
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        row = {format_congruence_index(g): int(c) for g, c in zip(table.generators, A[i]) if c}
        p = table.primes[np.argmax(bad[i])]
        raise AssertionError(f"exact relation failed at p={p}: {row}")


def dimension_table(
    N: int,
    alpha: int,
    weight_max: int,
    config: DimConfig | None = None,
) -> list[DimensionReport]:
    """Per-weight dimension estimates for the congruence-model value space."""
    if config is None:
        config = DimConfig()
    if math.gcd(alpha, N) != 1:
        raise ValueError("alpha must be a unit modulo N")
    if weight_max < 1:
        raise ValueError("weight_max must be at least 1")
    floor = config.prime_floor or max(weight_max + 2, 50)
    pclass = primes_in_class(N, alpha, config.train_primes + config.verify_primes, floor=floor)
    plan = {w: enumerate_generators(N, w, "congruence") for w in range(1, weight_max + 1)}
    # one table (and one cache read and write) for every weight
    shared = build_residue_table(
        [g for gens in plan.values() for g in gens],
        pclass,
        use_cache=config.use_cache,
        cache_dir=config.cache_dir,
        jobs=config.jobs,
        twist=config.twist,
    )
    root = config.cache_dir or finite._default_cache_dir()  # relations sit beside the residues
    path = finite._relations_path(root, N, pclass.alpha)
    cache = _RelationCache(path) if config.use_cache else None
    levels = {}  # weight -> reversal rows, their array, the free table, its rows in gens
    raw = {}  # weight -> the rows that products multiply (see proven), for this call only

    def proven(weight):
        """The linear-shuffle and product rows of weight on its free
        generators, checked at every prime, and their _rref_mod at 2^31 - 1,
        the first prime of echelon_basis.  Below weight_max, those of them
        that are independent there, and span the rest there, join the
        reversal rows in raw[weight]: rows that vanish at every prime, never
        their echelon form, which can divide by a prime of the class."""
        rows, A, free, on = levels[weight]
        for a in range(1, weight):
            if a not in raw:
                proven(a)  # its weight was served from the cache
        R = _distinct([
            linear_shuffle_rows(N, weight, rows, free.row_of),
            product_rows(N, weight, raw, rows, free.row_of),
        ])
        _check_exact_rows(R, free)  # the families are proven; fail loudly
        first = _rref_mod(R, 2**31 - 1)
        if weight < weight_max:
            keep = R[np.sort(first[2])]
            raw[weight] = np.zeros((len(A) + len(keep), A.shape[1]), dtype=np.int64)
            raw[weight][: len(A)], raw[weight][len(A) :, on] = A, keep
        return R, first

    reports = []
    split = (config.train_primes, config.verify_primes)
    for weight, gens in plan.items():
        table = shared.subtable(gens)
        rows = reversal_relations_congruence(N, weight, alpha)
        A = np.zeros((len(rows), len(gens)), dtype=np.int64)
        for i, row in enumerate(rows):
            A[i, [table.row_of[g] for g in row]] = [int(c) for c in row.values()]
        _check_exact_rows(A, table)  # the family is proven; fail loudly
        pivots = {next(iter(row)) for row in rows}
        on = [h for h, g in enumerate(gens) if g not in pivots]
        free = table.subtable([gens[h] for h in on])
        levels[weight] = rows, A, free, on
        these = lambda: proven(weight)
        if cache is None:
            found = _discover(free, split, config.height_bound, these)
        else:
            found = cache.discover(free, split, config, these)
        b_cert = found.b_cert
        under = found.held_out_failures > 0 or b_cert is not None and b_cert < config.height_bound
        exact = len(rows) + len(found.proven)
        reports.append(
            DimensionReport(
                N,
                alpha,
                weight,
                len(gens),
                exact,
                len(found.rows),
                len(gens) - exact - len(found.rows),
                mt_dimension(N, weight),
                under,
                tuple(
                    RelationCandidate(
                        {g: CycNum.rational(N, c) for g, c in row.items()},
                        "reversal",
                        len(table.primes),
                    )
                    for row in rows
                )
                + tuple(found),
                b_cert,
            )
        )
    if cache is not None:
        cache.flush()
    return reports
