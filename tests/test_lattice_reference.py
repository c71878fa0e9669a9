"""lll_reduce takes bit for bit the decisions of a numpy-vectorised reference.

The reference below is the earlier `_visit`/`lll_reduce` pair, which size-
reduced with whole-array numpy updates.  The library now rounds on Python
floats in blocks of 64 to 96 rows, with a numpy left fold below each block;
every reduced row and every float of the Gram-Schmidt data must stay bitwise
equal, because the certified heights of the dimension tables depend on
rounding decisions near 1/2.  Both run on the same numpy, so the comparison holds on
any platform, whatever einsum's rounding is there.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmzv import relations
from cmzv.finite import build_residue_table, primes_in_class
from cmzv.lattice import GSOBasis, IntLattice, _visit, lll_reduce
from cmzv.relations import DimConfig, dimension_table

NO_CACHE = DimConfig(use_cache=False)


def _ref_visit(basis, k, lo=0):
    b, star, mu, norm2 = basis.rows, basis.star[:k], basis.mu, basis.norm2[:k]
    v = b[k].astype(np.float64)
    coef = np.einsum("ij,j->i", star, v) / norm2
    low = max(0, min(lo, k - 1))
    for last in range(15, -1, -1):
        at, take, l = [], [], k
        while (big := (np.abs(coef[low:l]) > 0.5).nonzero()[0]).size:
            l = low + int(big[-1])
            at.append(l)
            take.append(np.rint(coef[l]))
            coef[:l] -= take[-1] * mu[l, :l]
            coef[l] -= take[-1]
        if at:
            b[k] -= np.array(take, dtype=np.int64) @ b[at]
            v = b[k].astype(np.float64)
            if last and max(map(abs, take)) >= 2**16:
                coef = np.einsum("ij,j->i", star, v) / norm2
                continue
        w = v - np.einsum("i,ij->j", coef, star)
        if not (last and low and np.einsum("i,i->", w, w) * 2**30 < np.einsum("i,i->", v, v)):
            break
        low = 0
    fix = np.einsum("ij,j->i", star, w) / norm2
    w -= np.einsum("i,ij->j", fix, star)
    basis.star[k], mu[k, :k] = w, coef + fix
    basis.norm2[k] = nk = float(np.einsum("i,i->", w, w))
    if nk < 1 and (nk == 0 or math.log(nk) + float(np.log(norm2).sum()) < -0.7):
        raise ValueError("basis vectors are linearly dependent")


def _ref_lll_reduce(lattice, delta=Fraction(99, 100)):
    if isinstance(delta, float):
        delta = Fraction(delta).limit_denominator(10**9)
    delta = Fraction(delta)
    if not (Fraction(1, 4) < delta < 1):
        raise ValueError("delta must lie in (1/4, 1)")
    basis = lattice
    if not isinstance(lattice, GSOBasis):
        if not isinstance(lattice, IntLattice):
            lattice = IntLattice(tuple(tuple(v) for v in lattice))
        if not lattice.basis:
            return IntLattice(())
        basis = GSOBasis(lattice.basis)
    swap_below = min(float(delta) + 2.0**-20, (1 + float(delta)) / 2)
    b, star, mu, norm2 = basis.rows, basis.star, basis.mu, basis.norm2
    k = lo = basis.fresh
    moved = False
    while k < len(b):
        if not moved:
            _ref_visit(basis, k, lo)
        if k and norm2[k] < (swap_below - mu[k, k - 1] ** 2) * norm2[k - 1]:
            star[k - 1] = star[k] + mu[k, k - 1] * star[k - 1]
            mu[k - 1, : k - 1] = mu[k, : k - 1]
            norm2[k - 1] = np.einsum("i,i->", star[k - 1], star[k - 1])
            b[[k - 1, k]] = b[[k, k - 1]]
            k -= 1
            lo, moved = min(lo, k), True
        else:
            k, moved = k + 1, False
    for k in range(lo, len(b)):
        _ref_visit(basis, k)
    basis.fresh = len(b)
    return basis if basis is lattice else IntLattice(tuple(map(tuple, b.tolist())))


def _clone(basis):
    twin = GSOBasis.__new__(GSOBasis)
    twin.rows, twin.star, twin.mu = basis.rows.copy(), basis.star.copy(), basis.mu.copy()
    twin.norm2, twin.fresh = basis.norm2.copy(), basis.fresh
    return twin


def _state(basis):
    """Every array as (shape, raw bytes), so -0.0 and NaN payloads count."""
    arrays = (basis.rows, basis.star, basis.mu, basis.norm2)
    return [(a.shape, a.tobytes()) for a in arrays] + [basis.fresh]


def _outcome(reduce, basis, delta):
    """The final state and the exception type, if any, of reduce on basis."""
    try:
        reduce(basis, delta)
    except (ValueError, OverflowError) as exc:
        return _state(basis), type(exc)
    return _state(basis), None


def _assert_same(basis, delta=Fraction(3, 4)):
    got = _outcome(lll_reduce, _clone(basis), delta)
    assert got == _outcome(_ref_lll_reduce, _clone(basis), delta)
    return got


@pytest.mark.parametrize("N, alpha, wmax", [(2, 1, 5), (3, 1, 4)])
def test_every_relation_lattice_feed_matches_the_reference(N, alpha, wmax, monkeypatch):
    seen = []

    def both(basis, delta):
        ref = _clone(basis)
        assert _outcome(_ref_lll_reduce, ref, delta) == _outcome(lll_reduce, basis, delta)
        seen.append(len(basis))
        return basis

    monkeypatch.setattr(relations, "lll_reduce", both)
    # the lattices on every reversal-free generator, as dimension_table fed
    # them before the linear-shuffle rows were eliminated: 81 and 104 columns
    pclass = primes_in_class(N, alpha, 36, floor=50)
    for weight in range(1, wmax + 1):
        gens = relations.enumerate_generators(N, weight)
        pivots = {next(iter(row)) for row in relations.reversal_relations_congruence(N, weight, alpha)}
        free = [g for g in gens if g not in pivots]
        relations.discover_relations_lll(build_residue_table(free, pclass, use_cache=False))
    # above 96 rows a block of 64 leaves rows to the numpy fold below it
    assert len(seen) > 8 and max(seen) > {2: 64, 3: 96}[N]


def test_exact_half_rounds_to_even():
    # mu = 5/2 and 3/2: both round to 2, as np.rint does
    for row, reduced in (((5, 1), [1, 1]), ((3, 1), [-1, 1])):
        basis, ref = GSOBasis([(2, 0), row]), GSOBasis([(2, 0), row])
        _visit(basis, 1)
        _ref_visit(ref, 1)
        assert basis.rows[1].tolist() == reduced and _state(basis) == _state(ref)
        _assert_same(GSOBasis([(2, 0), row]))
    # a tie below the rows being reduced (mu = 1/2 exactly) is left alone
    assert _assert_same(GSOBasis([(2, 0, 0), (1, 1, 0), (1, 3, 7)]))[1] is None


def test_large_multiplier_recomputes_the_coefficients():
    # the first multiplier, 987654 against the second row, exceeds 2^16
    _assert_same(GSOBasis([(1, 0, 0), (3, 1, 0), (123456789, 987654, 1)]), Fraction(99, 100))


def test_fresh_rows_retry_after_cancellation():
    # rows 0 and 1 are already reduced (fresh = 2), so row 2 is first reduced
    # against row 1 alone; that leaves |w|^2 = 1 against |v|^2 > 2^30, and the
    # visit starts again against all rows
    basis = GSOBasis([(1, 0, 0), (0, 1, 0), (10**6, 3, 1)], fresh=2)
    state, _ = _assert_same(basis)
    assert state == _state(GSOBasis([(1, 0, 0), (0, 1, 0), (0, 0, 1)], fresh=3))


def test_dependent_rows_raise_on_both_sides():
    assert _assert_same(GSOBasis([(1, 2), (2, 4)]))[1] is ValueError
    assert _assert_same(GSOBasis([(3, 1, 4), (1, 5, 9), (4, 6, 13)]))[1] is ValueError


def test_multiplier_beyond_int64_raises_on_both_sides():
    # mu = 2^63 - 1 rounds to the float 2^63, which no int64 holds
    assert _assert_same(GSOBasis([(1, 0), (2**63 - 1, 1)]))[1] is OverflowError


@st.composite
def bases(draw):
    n = draw(st.integers(2, 5))
    width = draw(st.integers(n, n + 2))
    top = draw(st.sampled_from([2, 40, 10**6]))
    return [[draw(st.integers(-top, top)) for _ in range(width)] for _ in range(n)]


@given(bases(), st.sampled_from([Fraction(3, 4), Fraction(99, 100)]))
def test_random_bases_match_the_reference(rows, delta):
    _assert_same(GSOBasis(rows), delta)


def test_dimension_table_equals_the_reference_run(monkeypatch):
    got = dimension_table(2, 1, 5, NO_CACHE)
    monkeypatch.setattr(relations, "lll_reduce", _ref_lll_reduce)
    assert dimension_table(2, 1, 5, NO_CACHE) == got
    assert [r.b_cert for r in got] == [r.b_cert for r in dimension_table(2, 1, 5, NO_CACHE)]
