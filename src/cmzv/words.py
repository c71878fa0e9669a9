"""Noncommutative words over {e_0} + {root letters}, with both products.

A word is a sequence of letters over the alphabet consisting of e_0 and one
letter per N-th root of unity (stored as the exponent a, meaning zeta_N^a).
Words ending in a root letter biject with indices (k_1..k_r; a_1..a_r) via
blocks e_0^(k-1) * root(a).  The module provides the harmonic and shuffle
products (one quasi-shuffle table), the cumulate/difference root rewrites,
and the two regularization decompositions (one peel) used by the evaluators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided

E_ZERO = -1  # the letter e_0; root letters are exponents in [0, N)


class Word:
    __slots__ = ("letters", "level", "_hash")

    def __init__(self, letters, level: int):
        letters = tuple(letters)
        if level < 1:
            raise ValueError("level must be positive")
        for a in letters:
            if a != E_ZERO and not 0 <= a < level:
                raise ValueError(f"letter {a} out of range for level {level}")
        self.letters = letters
        self.level = level
        self._hash = None

    @classmethod
    def empty(cls, level: int) -> "Word":
        return cls((), level)

    @classmethod
    def from_blocks(cls, blocks, level: int) -> "Word":
        letters = []
        for k, a in blocks:
            letters.extend([E_ZERO] * (k - 1))
            letters.append(a)
        return cls(letters, level)

    @property
    def weight(self) -> int:
        return len(self.letters)

    @property
    def depth(self) -> int:
        return sum(1 for a in self.letters if a != E_ZERO)

    @property
    def is_index_word(self) -> bool:
        """True when the word encodes an index: empty or ending in a root letter."""
        return not self.letters or self.letters[-1] != E_ZERO

    @property
    def is_admissible(self) -> bool:
        """Index word whose leading block is not the single letter root(0)."""
        return self.is_index_word and (not self.letters or self.letters[0] != 0)

    def blocks(self):
        """Decompose an index word into (k, a) blocks."""
        if not self.is_index_word:
            raise ValueError("word does not end in a root letter")
        out = []
        k = 1
        for a in self.letters:
            if a == E_ZERO:
                k += 1
            else:
                out.append((k, a))
                k = 1
        return tuple(out)

    def reversal(self) -> "Word":
        return Word(self.letters[::-1], self.level)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.level == other.level and self.letters == other.letters

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.letters, self.level))
        return self._hash

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        toks = "".join("0" if a == E_ZERO else f"[{a}]" for a in self.letters)
        return f"Word({toks or 'empty'}, N={self.level})"


@dataclass(frozen=True)
class Index:
    """An index (k_1..k_r; a_1..a_r): exponents k_j >= 1, colors zeta_N^{a_j}."""

    ks: tuple[int, ...]
    es: tuple[int, ...]
    level: int

    def __post_init__(self):
        if len(self.ks) != len(self.es):
            raise ValueError("exponent and color lists differ in length")
        if self.level < 1:
            raise ValueError("level must be positive")
        if any(k < 1 for k in self.ks):
            raise ValueError("exponents must be positive")
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        object.__setattr__(self, "es", tuple(int(e) % self.level for e in self.es))

    @property
    def weight(self) -> int:
        return sum(self.ks)

    @property
    def depth(self) -> int:
        return len(self.ks)

    @property
    def is_admissible(self) -> bool:
        return not self.ks or (self.ks[0], self.es[0]) != (1, 0)

    def reversed(self) -> "Index":
        return Index(self.ks[::-1], self.es[::-1], self.level)

    def __repr__(self):
        return f"Index(k={list(self.ks)}, e={list(self.es)}, N={self.level})"


def nested_sum(depth: int, column, p: int | None = None, levels: bool = False, carry=None):
    """Sum over stop >= n_1 > ... > n_r >= 1 of prod_j column(j)[..., n_j - 1].

    The series of an Index, with the term and the ring left to the caller:
    column(j) returns the terms of slot j for n = 1..stop along its last
    axis as a fresh numpy array, which the kernel may overwrite.  A 1-D
    column gives one sum, returned as the element itself; (G, stop) columns
    give the G row sums as an array, one pass for a batch of one depth.
    column(j) is called once per slot, innermost slot first, so no more
    than one column, one product and one running prefix sum are alive at a
    time.

    With carry, the series resumes after n = a - 1: carry holds the running
    sum of every slot there, innermost first, as levels returns them (zeros
    for a = 1), and every column holds the terms for n = a..b - 1 only.
    Each slot's prefix sum starts from its carry, which is also the inner
    prefix paired with the block's first term.  So a series summed block by
    block, each block's levels the next one's carry, makes the additions of
    one pass and the same result bit for bit, in the memory of one block.

    Any dtype with + and * will do: complex128 or clongdouble,
    object arrays of integers, rationals, CycNum or mpmath numbers, or
    int64 columns of residues in [0, p) with p given.  Then every prefix sum
    is reduced mod p, and every product too where stop (p - 1)^2 >= 2^63, so
    that its prefix sum might not fit.  That is exact for p < 2^31: a
    product of two residues stays below p^2 < 2^62, and a prefix sum of
    fewer than 2^32 residues below 2^63.

    A slot but the innermost may return (terms, gather), (terms, gather,
    rows) or (terms, gather, rows, shift), gather possibly None.  With rows,
    row i of the slot continues row rows[i] of the inner prefix sums, so
    slot j may have more or fewer rows than slot j + 1 (a suffix trie: one
    row per distinct suffix).  With shift, a 0/1 array beside rows, row i
    pairs each term with the inner prefix entry shift[i] places later: a
    caller that lays each row out on a grid of its own (one residue class
    of n, say, with a zero carry) so picks the inner entry below each n.
    With gather, the inner prefix at n - 1 is then permuted along its
    second-to-last axis, entry t taking entry gather[..., t, n - 1]
    (zeta^(e n) acting on F_p[Z/N]).  With levels, the result is the list of
    the sums of every slot, innermost first: slot j's row sums are those of
    the tails j.. of the series.

    Needs 1 <= depth, and depth <= stop unless carry is given; callers
    return their own typed 1 or 0 outside.
    """
    if p is not None and p >= 2**31:
        raise ValueError(f"int64 residues need p < 2^31, got {p}")
    if depth < 1:
        raise ValueError("depth must be positive")
    S, sums = None, []  # S[..., i] = sum over slots j.. with n_j <= stop - S.shape[-1] + 1 + i
    for j in range(depth - 1, -1, -1):
        terms, gather, rows, shift = column(j), None, None, None
        if type(terms) is tuple:
            terms, gather, rows, shift = (*terms, None, None)[:4]
        stop = terms.shape[-1]
        if S is not None:
            # slot j at n pairs with the inner prefix sum at n - 1; S and
            # inner are dropped once copied, so one of each is alive at a time
            start, inner = stop - S.shape[-1] + 1, S[..., :-1]
            if shift is not None:  # row i takes window shift[i] of S[..., :-1] and S[..., 1:]
                two = (*inner.shape[:-1], 2, inner.shape[-1]), S.strides + S.strides[-1:]
                inner = as_strided(S, *two)[rows, ..., shift, :]
            elif rows is not None:
                inner = inner[rows]
            S = None
            if gather is not None:
                inner = np.take_along_axis(inner, gather[..., start:], axis=-2)
            terms = terms[..., start:] * inner
            del inner
        elif stop < depth and carry is None:
            raise ValueError("depth exceeds the number of terms")
        if p is not None and stop * (p - 1) ** 2 >= 2**63:
            np.remainder(terms, p, out=terms)
        if carry is not None:
            # S[..., 0] is the carry, so the next slot's start is 0
            head = np.empty(terms.shape[:-1] + (1,), dtype=terms.dtype)
            head[..., 0] = carry[depth - 1 - j]
            terms = np.concatenate((head, terms), axis=-1)
        S = np.cumsum(terms, axis=-1, out=terms)
        if p is not None:
            np.remainder(S, p, out=S)
        if levels:
            sums.append(S[..., -1].copy())  # a copy: S itself goes at the next slot
    if levels:
        return sums
    return S[-1] if S.ndim == 1 else S[..., -1]


def index_to_word(ix: Index) -> Word:
    return Word.from_blocks(zip(ix.ks, ix.es), ix.level)


def word_to_index(w: Word) -> Index:
    blocks = w.blocks()
    return Index(tuple(k for k, _ in blocks), tuple(a for _, a in blocks), w.level)


def format_index(ix: Index) -> str:
    return f"k={','.join(map(str, ix.ks))};e={','.join(map(str, ix.es))}"


def _parse_fields(text: str, keys: str) -> list[tuple[int, ...]]:
    """The integer lists of text such as 'k=2,1;e=0,2' (keys 'ke'), in key order."""
    chunks = [chunk.split("=", 1) for chunk in text.replace(" ", "").split(";") if chunk]
    if sorted(c[0] for c in chunks) != sorted(keys) or min(map(len, chunks)) < 2:
        raise ValueError(f"expected '{keys[0]}=...;{keys[1]}=...', got {text!r}")
    parts = dict(chunks)
    return [tuple(int(t) for t in parts[k].split(",") if t) for k in keys]


def parse_index(text: str, level: int) -> Index:
    """Parse 'k=2,1;e=0,2' into an Index at the given level."""
    return Index(*_parse_fields(text, "ke"), level)


def indices_of_weight(level: int, weight: int, admissible_only: bool = True):
    """All indices of the given weight, deterministically ordered."""
    out: list[Index] = []

    def rec(remaining, ks, es):
        if remaining == 0:
            ix = Index(tuple(ks), tuple(es), level)
            if not admissible_only or ix.is_admissible:
                out.append(ix)
            return
        for k in range(1, remaining + 1):
            for e in range(level):
                ks.append(k)
                es.append(e)
                rec(remaining - k, ks, es)
                ks.pop()
                es.pop()

    rec(weight, [], [])
    return out


# ---- linear combinations ---------------------------------------------------


def _madd(d: dict, key, c):
    """d[key] += c, dropping the key when the sum is zero."""
    cur = d.get(key)
    tot = c if cur is None else cur + c
    if tot:
        d[key] = tot
    elif key in d:
        del d[key]


class LinComb:
    """Finite linear combination of words; zero coefficients are dropped.

    Coefficients may be ints, Fractions, or any ring elements supporting
    +, *, and truthiness.  Terms keep the order in which they first appeared.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for w, c in (terms.items() if isinstance(terms, dict) else terms or ()):
            _madd(self.terms, w, c)

    @classmethod
    def single(cls, w: Word, coeff=1) -> "LinComb":
        return cls({w: coeff})

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        return LinComb([*self, *other])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "LinComb":
        out = LinComb()
        if c:
            out.terms = {w: c * k for w, k in self.terms.items()}
        return out

    def __eq__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "LinComb(0)"
        bits = " + ".join(f"{c}*{w!r}" for w, c in sorted(
            self.terms.items(), key=lambda t: (t[0].weight, t[0].letters)))
        return f"LinComb({bits})"


# ---- the quasi-shuffle product -----------------------------------------------
#
# Both products are quasi-shuffles (Hoffman, "Quasi-shuffle products",
# J. Algebraic Combin. 11 (2000)): the harmonic product on (k, a) blocks with
# the bracket that merges two heads into (k + k', a + a'), the shuffle on
# letters with the zero bracket.

_PRODUCT_CACHE: dict = {}


def _block_bracket(level, x, y):
    return (x[0] + y[0], (x[1] + y[1]) % level)


def _product_table(level, u, v, bracket, memo=_PRODUCT_CACHE):
    """Quasi-shuffle of two tuples (of blocks or letters); {tuple: int}.

    Bottom-up over suffix pairs, table[i][j] = u[i:] * v[j:]: the head of u,
    then the head of v, then their bracket (none when bracket is None or
    returns None), each followed by the product of what is left.  Results
    are kept in memo, the module's cache unless a caller passes its own.
    """
    if u > v:
        u, v = v, u
    key = (level, u, v, bracket)
    hit = memo.get(key)
    if hit is not None:
        return hit
    nu, nv = len(u), len(v)
    table = [[None] * (nv + 1) for _ in range(nu + 1)]
    for i in range(nu, -1, -1):
        for j in range(nv, -1, -1):
            if i == nu or j == nv:
                table[i][j] = {u[i:] + v[j:]: 1}
                continue
            heads = [(u[i], table[i + 1][j]), (v[j], table[i][j + 1])]
            if bracket is not None and (head := bracket(level, u[i], v[j])) is not None:
                heads.append((head, table[i + 1][j + 1]))
            out: dict = {}
            for head, tails in heads:
                for tail, c in tails.items():
                    _madd(out, (head,) + tail, c)
            table[i][j] = out
    memo[key] = table[0][0]
    return table[0][0]


def _product(u, v, harmonic: bool) -> LinComb:
    """The harmonic or shuffle product of Words or LinCombs, bilinearly."""
    out = LinComb()
    for wu, cu in u if isinstance(u, LinComb) else [(u, 1)]:
        for wv, cv in v if isinstance(v, LinComb) else [(v, 1)]:
            level = wu.level
            if wv.level != level:
                raise ValueError("level mismatch")
            if not harmonic:
                res = _product_table(level, wu.letters, wv.letters, None)
                terms = [(Word(ls, level), c) for ls, c in res.items()]
            elif wu.is_index_word and wv.is_index_word:
                res = _product_table(level, wu.blocks(), wv.blocks(), _block_bracket)
                terms = [(Word.from_blocks(b, level), c) for b, c in res.items()]
            else:
                raise ValueError("harmonic product requires words ending in a root letter")
            for w, c in terms:
                _madd(out.terms, w, cu * cv * c)
    return out


def _power(w: Word, n: int, harmonic: bool) -> LinComb:
    acc = LinComb.single(Word.empty(w.level))
    for _ in range(n):
        acc = _product(acc, w, harmonic)
    return acc


def harmonic_product(u, v) -> LinComb:
    """Quasi-shuffle product; accepts Words or LinCombs of index words."""
    return _product(u, v, True)


def shuffle_product(u, v) -> LinComb:
    """Shuffle product on letters; accepts Words or LinCombs."""
    return _product(u, v, False)


def harmonic_power(w: Word, n: int) -> LinComb:
    """n-fold harmonic product of a word with itself (n >= 0)."""
    return _power(w, n, True)


# ---- root rewrites and reversal --------------------------------------------


def cumulate_roots(w: Word) -> Word:
    """Replace each root exponent by the running sum of exponents so far."""
    total = 0
    out = []
    for a in w.letters:
        if a == E_ZERO:
            out.append(a)
        else:
            total = (total + a) % w.level
            out.append(total)
    return Word(out, w.level)


def difference_roots(w: Word) -> Word:
    """Inverse of cumulate_roots: consecutive differences of root exponents."""
    prev = 0
    out = []
    for a in w.letters:
        if a == E_ZERO:
            out.append(a)
        else:
            out.append((a - prev) % w.level)
            prev = a
    return Word(out, w.level)


# ---- regularization --------------------------------------------------------


def _run(letters, a) -> int:
    """Length of the leading run of the letter a."""
    n = 0
    while n < len(letters) and letters[n] == a:
        n += 1
    return n


def _peel(pending: dict, harmonic: bool) -> list[tuple[int, LinComb]]:
    """Decompose sum(c * t) as sum_j c_j * root(0)^j (j-th power) with every
    c_j admissible; returns [(degree, LinComb)] sorted by degree.

    Peels leading root(0) letters (Ihara, Kaneko and Zagier, Compositio Math.
    142 (2006)): with n of them and tail u, the product u * root(0)^n (n-th
    power) is n! t plus words with fewer leading root(0) letters, so t is
    c/n! u at degree n less c/n! times the rest, and induction on that count
    terminates.
    """
    acc: dict[int, dict[Word, Fraction]] = {}
    while pending:
        t, c = pending.popitem()
        n = _run(t.letters, 0)
        u = Word(t.letters[n:], t.level)
        fact = math.factorial(n)
        _madd(acc.setdefault(n, {}), u, c / fact)
        if not n:
            continue
        expanded = _product(u, _power(Word((0,), t.level), n, harmonic), harmonic)
        assert expanded.terms.get(t) == fact
        for s, k in expanded:
            if s != t:
                _madd(pending, s, -c * k / fact)
    return [(j, LinComb(acc[j])) for j in sorted(acc) if acc[j]]


def harmonic_regularize(w: Word) -> list[tuple[int, LinComb]]:
    """Decompose w = sum_j c_j * root(0)^(*j) with every c_j admissible.

    Returns [(degree, LinComb)] sorted by degree; coefficients are Fractions.
    """
    if not w.is_index_word:
        raise ValueError("harmonic regularization needs a word ending in a root letter")
    return _peel({w: Fraction(1)}, True)


def _strip_trailing_zeros(w: Word) -> dict[Word, Fraction]:
    """Project onto the span of words with no trailing e_0 (the rest of the
    e_0-polynomial decomposition is discarded)."""
    out: dict[Word, Fraction] = {}
    pending: dict[Word, Fraction] = {w: Fraction(1)}
    while pending:
        t, c = pending.popitem()
        m = _run(t.letters[::-1], E_ZERO)
        if m == 0:
            _madd(out, t, c)
            continue
        if m == len(t.letters):
            continue  # pure e_0 power: no degree-0 part
        spread = _product_table(w.level, t.letters[:-m], (E_ZERO,) * m, None)
        for ls, k in spread.items():
            if ls != t.letters:
                _madd(pending, Word(ls, w.level), -c * k)
    return out


def shuffle_regularize(w: Word) -> list[tuple[int, LinComb]]:
    """Shuffle-regularization rows against the single letter root(0).

    First removes trailing e_0 letters (degree-0 part of the e_0 adjunction),
    then decomposes what is left as sum_j c_j sh root(0)^(sh j) with c_j
    supported on admissible words.  Returns [(degree, LinComb)].
    """
    return _peel(_strip_trailing_zeros(w), False)
