"""Relation families, lattice relation discovery over residue tables, dimensions.

The dimension pipeline works in the congruence model (values are prime-field
integers), combining two sources of relations:

* exact families proved per prime (reversal under m -> p - m), eliminated
  symbolically over Q, and
* integer relations among the remaining generators, from one lattice per
  weight fed the residues at the training primes, accepted only when they
  hold exactly at every held-out prime too, and certified up to a height.

Discovered relations come in reduced echelon form, each eliminating one
designated generator, so relation counts and dimensions add up directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import CycNum, euler_phi
from .fq import make_fq_context
from .finite import (
    CongruenceIndex,
    PrimeClass,
    ResidueTable,
    _fq_residues,
    _Slots,
    build_residue_table,
    primes_in_class,
)
from .lattice import GSOBasis, echelon_basis, lll_reduce
from .words import (
    Index,
    Word,
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


def _distinct_prime_factors(n: int) -> int:
    count, d = 0, 2
    while d * d <= n:
        if n % d == 0:
            count += 1
            while n % d == 0:
                n //= d
        d += 1
    return count + (1 if n > 1 else 0)


def mt_dimension(N: int, k: int) -> int:
    """Graded dimension of the mixed-Tate Hopf algebra at level N, weight k."""
    if N < 1 or k < 0:
        raise ValueError("need N >= 1 and k >= 0")
    if N == 1:
        num, den = (1, 0, -1), (1, 0, -1, -1)
    elif N == 2:
        num, den = (1, 0, -1), (1, -1, -1)
    else:
        nu = _distinct_prime_factors(N)
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
    """All depth/exponent/color choices of the given weight, deterministic order."""
    if weight < 1:
        raise ValueError("weight must be positive")
    if model not in ("colored", "congruence"):
        raise ValueError(f"unknown model {model!r}")
    out = []
    for r in range(1, weight + 1):
        for ks in _compositions(weight, r):
            for cs in itertools.product(range(N), repeat=r):
                if model == "colored":
                    out.append(Index(ks, cs, N))
                else:
                    out.append(CongruenceIndex(ks, cs, N))
    return out


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
    order = {g: i for i, g in enumerate(gens)}
    sign = Fraction(-1 if weight % 2 else 1)
    rows = []
    for g in gens:
        rev = g.reversed_class(alpha)
        if order[rev] > order[g]:
            rows.append({g: Fraction(1), rev: -sign})
        elif rev == g and weight % 2:
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


# ---- per-prime checks of the proven families ----------------------------------------


def _fraction_mod(c: Fraction, p: int) -> int:
    c = Fraction(c)
    if c.denominator % p == 0:
        raise ValueError(f"denominator of {c} vanishes mod {p}")
    return c.numerator * pow(c.denominator, -1, p) % p


def check_linear_shuffle_finite(u: Word, v: Word, pclass: PrimeClass, twist: int = 1) -> dict:
    """Per-prime exactness of the linear shuffle identity; {prime: bool}."""
    row = linear_shuffle_row(u, v)
    slots = _Slots(list(row))
    results = {}
    for p in pclass.primes:
        ctx = make_fq_context(p, pclass.level, twist)
        values = zip(_fq_residues(slots, p, ctx), row.values())
        results[p] = sum((value * _fraction_mod(c, p) for value, c in values), ctx.zero()).is_zero
    return results


def check_reversal_finite(ix: Index, pclass: PrimeClass, twist: int = 1) -> dict:
    """Per-prime exactness of the reversal identity; {prime: bool}."""
    N = ix.level
    sign = -1 if ix.weight % 2 else 1
    slots = _Slots([Index(ix.ks, tuple(-e % N for e in ix.es), N), ix.reversed()])
    results = {}
    for p in pclass.primes:
        ctx = make_fq_context(p, N, twist)
        lhs, rev = _fq_residues(slots, p, ctx)
        color = ctx.zeta_power((-pclass.alpha * sum(ix.es)) % N)
        results[p] = lhs == color * rev * (sign % p)
    return results


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
    source: str  # reversal | linear_shuffle | lll_discovered
    verified_primes: int

    def __post_init__(self):
        if not self.coefficients or all(c.is_zero for c in self.coefficients.values()):
            raise ValueError("relation must not be identically zero")
        levels = {c.level for c in self.coefficients.values()}
        if len(levels) != 1:
            raise ValueError("coefficients must share one level")
        if self.source not in ("reversal", "linear_shuffle", "lll_discovered"):
            raise ValueError(f"unknown source {self.source!r}")


class Discovery(list):
    """The relations of one relation lattice, with its b_cert and the number
    of kept vectors that failed a held-out prime (see discover_relations_lll)."""

    def __init__(self, relations=(), b_cert=None, held_out_failures=0):
        super().__init__(relations)
        self.b_cert, self.held_out_failures = b_cert, held_out_failures


# Lovasz parameter of the relation lattice
_DELTA = Fraction(3, 4)


def _dot_mod(rows, column, p):
    """rows . column mod p, exactly (in Python ints where int64 could overflow)."""
    kind = np.int64 if len(column) * p * p < 2**63 else object
    return ((rows % p).astype(kind) @ column.astype(kind) % p).astype(np.int64)


def _feed(basis: GSOBasis, group) -> None:
    """Keep the lattice vectors v with v.r = 0 mod p for each (p, r) in group.

    With P the product of the primes and s = b.r mod P, the last row j with
    s_j a unit mod P is the pivot: b_i -= c_i b_j with c_i = s_i/s_j mod P,
    centred, and b_j *= P span the index-P sublattice, which is reduced
    again from the first row that changed.  With no such row the primes go
    in one at a time.
    """
    b = basis.rows
    s = [_dot_mod(b, r, p) for p, r in group]
    units = np.flatnonzero(np.logical_and.reduce([x != 0 for x in s]))
    if not units.size:
        for one in group if len(group) > 1 else ():
            _feed(basis, [one])
        return
    P, j = math.prod(p for p, _ in group), units[-1]
    if int(np.abs(b).max()) * P >= 2**53:
        raise ArithmeticError("relation lattice entries outgrew float64; lower height_bound")
    crt = sum(x * ((P // p) * pow(P // p, -1, p)) % P for (p, _), x in zip(group, s)) % P
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
    skip=(),
) -> Discovery:
    """Relations among the generators not in `skip`, from one relation lattice.

    The lattice starts as Z^G on those G generators and takes in the
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
    skipped = set(skip)
    gens = [g for g in table.generators if g not in skipped]
    if not gens:
        return Discovery()
    # int_matrix rejects entries outside the prime field
    columns = dict(zip(primes, table.subtable(gens).int_matrix().T))
    G = len(gens)
    basis = GSOBasis(np.eye(G), fresh=G)  # Z^G, already orthogonal
    shortest = math.inf  # least |b*|^2 of a dropped vector
    # CRT moduli below 2^31 keep the int64 products in _feed exact
    size = next((s for s in (3, 2, 1) if max(primes[:train_n], default=0) ** s < 2**31), 0)
    if not size:
        raise ValueError("training primes must be below 2^31")
    for i in range(0, train_n, size):
        if len(basis):
            _feed(basis, [(p, columns[p]) for p in primes[i : min(i + size, train_n)]])
        keep = len(basis)
        while keep and basis.norm2[keep - 1] > height_bound**2 * G:
            keep -= 1
        shortest = min([shortest, *basis.norm2[keep:]])
        basis.truncate(keep)
    holds = np.ones(len(basis), dtype=bool)
    for p in primes[train_n : train_n + verify_n]:
        holds &= _dot_mod(basis.rows, columns[p], p) == 0
    lead = len(basis) if holds.all() else int(np.argmin(holds))  # relations before it
    shortest = min([shortest, *basis.norm2[lead:]])
    N = table.pclass.level
    found = [
        RelationCandidate(
            {gens[h]: CycNum.rational(N, c) for h, c in enumerate(coeffs) if c},
            "lll_discovered",
            train_n + verify_n,
        )
        for coeffs in echelon_basis(basis.rows[holds])
    ]
    b_cert = None if shortest == math.inf else math.floor(math.sqrt(shortest / G))
    return Discovery(found, b_cert, int((~holds).sum()))


# ---- dimension tables ------------------------------------------------------------------


@dataclass(frozen=True)
class DimConfig:
    train_primes: int = 24
    verify_primes: int = 12
    prime_floor: int | None = None  # default: max(weight + 2, 50)
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


def _check_exact_rows(rows, table) -> None:
    """Raise AssertionError unless every proven row vanishes at every prime.

    One int64 product of the rows, scaled to integers, with the residue
    matrix of the weight; the message names the first failing row and prime.
    """
    A = np.zeros((len(rows), len(table.generators)), dtype=np.int64)
    for i, row in enumerate(rows):
        den = math.lcm(*(Fraction(c).denominator for c in row.values()))
        for g, c in row.items():
            A[i, table.row_of[g]] = int(c * den)
    primes = np.array(table.primes, dtype=np.int64)
    bad = A @ table.int_matrix() % primes != 0
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        raise AssertionError(f"exact relation failed at p={primes[np.argmax(bad[i])]}: {rows[i]}")


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
    plan = []  # (weight, prime class, generators)
    class_gens = {}  # prime class -> generators of every weight that uses it
    classes = {}  # floor -> prime class
    for weight in range(1, weight_max + 1):
        floor = config.prime_floor
        if floor is None:
            floor = max(weight + 2, 50)
        if floor not in classes:
            classes[floor] = primes_in_class(
                N, alpha, config.train_primes + config.verify_primes, floor=floor
            )
        pclass = classes[floor]
        gens = enumerate_generators(N, weight, "congruence")
        plan.append((weight, pclass, gens))
        class_gens.setdefault(pclass, []).extend(gens)
    # one table (and one cache read and write) per prime class, for every weight
    shared = {
        pclass: build_residue_table(
            gens,
            pclass,
            use_cache=config.use_cache,
            cache_dir=config.cache_dir,
            jobs=config.jobs,
            twist=config.twist,
        )
        for pclass, gens in class_gens.items()
    }
    reports = []
    for weight, pclass, gens in plan:
        table = shared[pclass].subtable(gens)
        want = config.train_primes + config.verify_primes
        under = len(table.primes) < want
        split = (config.train_primes, config.verify_primes)
        if under:
            # degrade gracefully: shrink the split but say so in the report
            avail = len(table.primes)
            verify_n = min(config.verify_primes, avail // 3)
            split = (avail - verify_n, verify_n)

        rows = reversal_relations_congruence(N, weight, alpha)
        _check_exact_rows(rows, table)  # the family is proven; fail loudly
        pivots = [next(iter(row)) for row in rows]
        found = discover_relations_lll(table, config.height_bound, split, skip=pivots)
        b_cert = found.b_cert
        uncertified = b_cert is not None and b_cert < config.height_bound
        under = under or found.held_out_failures > 0 or uncertified
        reports.append(
            DimensionReport(
                N,
                alpha,
                weight,
                len(gens),
                len(rows),
                len(found),
                len(gens) - len(rows) - len(found),
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
    return reports
