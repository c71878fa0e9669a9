"""Relation families, LLL discovery over residue tables, dimension estimates.

The dimension pipeline works in the congruence model (values are prime-field
integers), combining two sources of relations:

* exact families proved per prime (reversal under m -> p - m), eliminated
  symbolically over Q, and
* integer relations found by LLL against CRT-combined residue columns,
  accepted only when they hold exactly at every training AND held-out
  verification prime.

Each discovered relation eliminates one designated generator, so relation
counts and dimension estimates are bookkept without a global rank pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CycNum, euler_phi
from .fq import FqContext, make_fq_context, to_residue_field
from .finite import (
    CongruenceIndex,
    PrimeClass,
    ResidueTable,
    build_residue_table,
    congruence_residue_int,
    finite_residue,
    primes_in_class,
)
from .lattice import lll_reduce
from .words import (
    E_ZERO,
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


def reversal_relations_colored(N: int, weight: int, alpha: int) -> list[dict]:
    """Rows over Q(zeta_N): conjugated value minus sign/root times the reversal."""
    rows = []
    for ix in enumerate_generators(N, weight, "colored"):
        sign = -1 if ix.weight % 2 else 1
        root = CycNum.root_power(N, (-alpha * sum(ix.es)) % N)
        row = {}
        conj = Index(ix.ks, tuple(-e % N for e in ix.es), N)
        row[conj] = row.get(conj, CycNum.zero(N)) + CycNum.one(N)
        rev = ix.reversed()
        row[rev] = row.get(rev, CycNum.zero(N)) - root * sign
        row = {g: c for g, c in row.items() if not c.is_zero}
        if row:
            rows.append(row)
    return rows


def reversal_relations_congruence(N: int, weight: int, alpha: int) -> list[dict]:
    """Rows over Q from the substitution m -> p - m inside the truncated sum."""
    rows = []
    sign = -1 if weight % 2 else 1
    for cix in enumerate_generators(N, weight, "congruence"):
        row = {}
        row[cix] = row.get(cix, Fraction(0)) + 1
        rev = cix.reversed_class(alpha)
        row[rev] = row.get(rev, Fraction(0)) - sign
        row = {g: c for g, c in row.items() if c}
        if row:
            rows.append(row)
    return rows


def _index_words_of_weight(N: int, weight: int):
    """All index words of the exact weight (empty word included at weight 0)."""
    if weight == 0:
        yield Word((), N)
        return
    alphabet = (E_ZERO,) + tuple(range(N))
    for prefix in itertools.product(alphabet, repeat=weight - 1):
        for last in range(N):
            yield Word(prefix + (last,), N)


def _all_words_of_weight(N: int, weight: int):
    alphabet = (E_ZERO,) + tuple(range(N))
    for letters in itertools.product(alphabet, repeat=weight):
        yield Word(letters, N)


def linear_shuffle_row(u: Word, v: Word) -> dict:
    """Index-word coefficients of q(u sh v e_1) - (-1)^(|v|+1) q(rev(v) e_1 u).

    A zero row means the identity is symbolically trivial for this pair.
    """
    if not u.is_index_word:
        raise ValueError("u must be an index word")
    N = u.level
    e1 = Word((0,), N)
    row = {}
    for w, c in shuffle_product(u, Word(v.letters + (0,), N)):
        ix = word_to_index(difference_roots(w))
        row[ix] = row.get(ix, Fraction(0)) + c
    rhs_word = Word(v.letters[::-1] + (0,) + u.letters, N)
    ix = word_to_index(difference_roots(rhs_word))
    sign = Fraction(1 if len(v.letters) % 2 == 0 else -1)  # -(-1)^(|v|+1)
    row[ix] = row.get(ix, Fraction(0)) + sign
    return {g: c for g, c in row.items() if c}


def linear_shuffle_relations(N: int, weight: int) -> list[dict]:
    """All linear-shuffle rows with every term of the given weight."""
    rows = []
    for a in range(weight):
        b = weight - 1 - a
        for u in _index_words_of_weight(N, a):
            for v in _all_words_of_weight(N, b):
                row = linear_shuffle_row(u, v)
                if row:
                    rows.append(row)
    return rows


def _echelon(rows: list[dict], order: dict, zero, as_unit):
    """Sparse Gaussian elimination; returns (pivots: gen -> row, rank)."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row, key=lambda g: order[g])
            hit = pivots.get(lead)
            if hit is None:
                inv = as_unit(row[lead])
                row = {g: c * inv for g, c in row.items()}
                pivots[lead] = row
                break
            factor = row[lead]
            for g, c in hit.items():
                nc = row.get(g, zero) - factor * c
                if nc == zero:
                    row.pop(g, None)
                else:
                    row[g] = nc
    return pivots


def exact_relation_rank(generators, relation_rows) -> int:
    """Rank of the given relation rows over the coefficient field, exactly.

    Rows map generators to CycNum (colored model) or Fraction (congruence
    model); every term must be one of the listed generators.
    """
    order = {g: i for i, g in enumerate(generators)}
    for row in relation_rows:
        for g in row:
            if g not in order:
                raise ValueError(f"relation touches {g!r} outside the generator list")
    if not relation_rows:
        return 0
    sample = next(iter(relation_rows[0].values()))
    if isinstance(sample, CycNum):
        zero = CycNum.zero(sample.level)
        pivots = _echelon(relation_rows, order, zero, lambda c: c.inv())
    else:
        pivots = _echelon(relation_rows, order, Fraction(0), lambda c: 1 / Fraction(c))
    return len(pivots)


# ---- per-prime checks of the proven families ----------------------------------------


def evaluate_colored_row(row: dict, p: int, ctx: FqContext):
    """Reduce a Q(zeta_N)-coefficient row at one prime and sum it up."""
    total = ctx.zero()
    for ix, coeff in row.items():
        total = total + to_residue_field(coeff, ctx) * finite_residue(ix, p, ctx)
    return total


def _fraction_mod(c: Fraction, p: int) -> int:
    c = Fraction(c)
    if c.denominator % p == 0:
        raise ValueError(f"denominator of {c} vanishes mod {p}")
    return c.numerator * pow(c.denominator, -1, p) % p


def check_linear_shuffle_finite(u: Word, v: Word, pclass: PrimeClass, twist: int = 1) -> dict:
    """Per-prime exactness of the linear shuffle identity; {prime: bool}."""
    row = linear_shuffle_row(u, v)
    results = {}
    for p in pclass.primes:
        ctx = make_fq_context(p, pclass.level, twist)
        total = ctx.zero()
        for ix, coeff in row.items():
            total = total + finite_residue(ix, p, ctx) * _fraction_mod(coeff, p)
        results[p] = total.is_zero
    return results


def check_reversal_finite(ix: Index, pclass: PrimeClass, twist: int = 1) -> dict:
    """Per-prime exactness of the reversal identity; {prime: bool}."""
    N = ix.level
    sign = -1 if ix.weight % 2 else 1
    results = {}
    for p in pclass.primes:
        ctx = make_fq_context(p, N, twist)
        lhs = finite_residue(Index(ix.ks, tuple(-e % N for e in ix.es), N), p, ctx)
        color = ctx.zeta_power((-pclass.alpha * sum(ix.es)) % N)
        rhs = color * finite_residue(ix.reversed(), p, ctx) * (sign % p)
        results[p] = lhs == rhs
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


def _crt_columns(gens, columns, train):
    """Combine per-prime residues into one integer per generator, mod prod(train)."""
    M = 1
    for p in train:
        M *= p
    combined = {}
    for g in gens:
        acc = 0
        for p in train:
            q = M // p
            acc += columns[g][p] * q * pow(q, -1, p)
        combined[g] = acc % M
    return combined, M


def _dependency_query(new, basis, crt, M, height_bound, delta):
    """Shortest integer combination of basis + new vanishing mod M, or None."""
    members = list(basis) + [new]
    n = len(members)
    K = 1 << ((n + 1) // 2 + (8 * height_bound * (n + 1)).bit_length())
    rows = []
    for i, g in enumerate(members):
        row = [0] * n + [K * crt[g]]
        row[i] = 1
        rows.append(row)
    rows.append([0] * n + [K * M])
    reduced = lll_reduce(rows, delta=delta)
    hits = []
    for vec in reduced.basis:
        coeffs, last = vec[:n], vec[n]
        if last != 0 or not any(coeffs) or coeffs[-1] == 0:
            continue
        if max(abs(c) for c in coeffs) > height_bound:
            continue
        hits.append(list(coeffs))
    hits.sort(key=lambda c: sum(x * x for x in c))
    return members, hits


def _verify_candidate(members, coeffs, columns, primes) -> bool:
    for p in primes:
        total = sum(c * columns[g][p] for g, c in zip(members, coeffs)) % p
        if total:
            return False
    return True


def _normalize(coeffs):
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    coeffs = [c // g for c in coeffs]
    if coeffs[-1] > 0:  # write the relation as: new generator = combination
        coeffs = [-c for c in coeffs]
    return coeffs


def discover_relations_lll(
    table: ResidueTable,
    height_bound: int = 1000,
    prime_split: tuple[int, int] = (24, 12),
    delta: Fraction = Fraction(99, 100),
    skip=(),
) -> list[RelationCandidate]:
    """Greedy per-generator dependency discovery with held-out verification.

    Generators in `skip` are assumed already eliminated (by exact families)
    and take no part.  Each returned candidate writes one new generator as a
    rational combination of the independent ones found before it.
    """
    train_n, verify_n = prime_split
    primes = table.primes
    if len(primes) < train_n + verify_n:
        raise ValueError(
            f"table has {len(primes)} usable primes, need {train_n + verify_n}"
        )
    train, verify = primes[:train_n], primes[train_n : train_n + verify_n]
    skipped = set(skip)
    gens = [g for g in table.generators if g not in skipped]
    # int_column rejects entries outside the prime field
    columns = {g: dict(zip(primes, table.int_column(g))) for g in gens}
    crt, M = _crt_columns(gens, columns, train)
    N = table.pclass.level

    basis: list = []
    found: list[RelationCandidate] = []
    for g in gens:
        members, hits = _dependency_query(g, basis, crt, M, height_bound, delta)
        accepted = None
        for coeffs in hits:
            if _verify_candidate(members, coeffs, columns, list(train) + list(verify)):
                accepted = _normalize(coeffs)
                break
        if accepted is None:
            basis.append(g)
            continue
        found.append(
            RelationCandidate(
                {
                    m: CycNum.rational(N, c)
                    for m, c in zip(members, accepted)
                    if c
                },
                "lll_discovered",
                len(train) + len(verify),
            )
        )
    return found


# ---- dimension tables ------------------------------------------------------------------


@dataclass(frozen=True)
class DimConfig:
    train_primes: int = 24
    verify_primes: int = 12
    prime_floor: int | None = None  # default: max(weight + 2, 50)
    height_bound: int = 1000
    delta: Fraction = Fraction(99, 100)
    twist: int = 1
    use_cache: bool = True
    cache_dir: str | None = None
    jobs: int = 1


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

    def __post_init__(self):
        if not 0 <= self.dim_estimate <= self.generator_count:
            raise ValueError("dimension estimate out of range")


def _exact_pivots_congruence(N, weight, alpha, generators):
    order = {g: i for i, g in enumerate(generators)}
    rows = reversal_relations_congruence(N, weight, alpha)
    pivots = _echelon(rows, order, Fraction(0), lambda c: 1 / Fraction(c))
    return pivots


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
    for weight in range(1, weight_max + 1):
        floor = config.prime_floor
        if floor is None:
            floor = max(weight + 2, 50)
        pclass = primes_in_class(
            N, alpha, config.train_primes + config.verify_primes, floor=floor
        )
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
        whole = shared[pclass]
        table = ResidueTable(pclass, tuple(gens), whole.entries, whole.contexts)
        want = config.train_primes + config.verify_primes
        under = len(table.primes) < want
        split = (config.train_primes, config.verify_primes)
        if under:
            # degrade gracefully: shrink the split but say so in the report
            avail = len(table.primes)
            verify_n = min(config.verify_primes, avail // 3)
            split = (avail - verify_n, verify_n)

        pivots = _exact_pivots_congruence(N, weight, alpha, gens)
        exact_candidates = []
        for lead, row in sorted(pivots.items(), key=lambda kv: gens.index(kv[0])):
            # the family is proven per prime; fail loudly if a prime disagrees
            for p in table.primes:
                total = sum(
                    _fraction_mod(c, p) * table.residue(g, p).coeffs[0] for g, c in row.items()
                ) % p
                if total:
                    raise AssertionError(f"exact relation failed at p={p}: {row}")
            exact_candidates.append(
                RelationCandidate(
                    {g: CycNum.rational(N, c) for g, c in row.items()},
                    "reversal",
                    len(table.primes),
                )
            )

        discovered = discover_relations_lll(
            table,
            height_bound=config.height_bound,
            prime_split=split,
            delta=config.delta,
            skip=tuple(pivots),
        )
        exact_rank = len(pivots)
        extra = len(discovered)
        reports.append(
            DimensionReport(
                N,
                alpha,
                weight,
                len(gens),
                exact_rank,
                extra,
                len(gens) - exact_rank - extra,
                mt_dimension(N, weight),
                under,
                tuple(exact_candidates) + tuple(discovered),
            )
        )
    return reports
