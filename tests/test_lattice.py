"""Rational reconstruction and exact-integer LLL."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmzv.lattice import IntLattice, lll_reduce, rational_reconstruct


def test_reconstruct_half_mod_7():
    # 1/2 = 4 mod 7
    assert rational_reconstruct(4, 7, 2) == Fraction(1, 2)


def test_reconstruct_integer():
    assert rational_reconstruct(3, 1009, 10) == Fraction(3)
    assert rational_reconstruct(1009 - 5, 1009, 10) == Fraction(-5)


def test_reconstruct_failure_is_genuine():
    # exhaustively confirm no fraction of height <= 3 equals 500 mod 1009
    hits = [
        (a, b)
        for a in range(-3, 4)
        for b in range(1, 4)
        if math.gcd(abs(a), b) == 1 and (a - 500 * b) % 1009 == 0
    ]
    assert hits == []
    assert rational_reconstruct(500, 1009, 3) is None


def test_reconstruct_validates_arguments():
    with pytest.raises(ValueError):
        rational_reconstruct(1, 7, 0)
    with pytest.raises(ValueError):
        rational_reconstruct(0, 1, 1)


@given(st.integers(-1000, 1000), st.integers(1, 1000), st.data())
def test_reconstruct_round_trip(num, den, data):
    frac = Fraction(num, den)
    bound = max(abs(frac.numerator), frac.denominator, 1)
    modulus = data.draw(st.sampled_from([2**31 - 1, 10**9 + 7, 2**61 - 1]))
    assert 2 * bound * bound < modulus
    r = frac.numerator * pow(frac.denominator, -1, modulus) % modulus
    assert rational_reconstruct(r, modulus, bound) == frac


def test_lll_identity_fixed():
    got = lll_reduce([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert got.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_lll_shortens():
    got = lll_reduce([(1, 1), (1, 0)], delta=Fraction(3, 4))
    norms = sorted(sum(x * x for x in v) for v in got.basis)
    assert norms == [1, 1]


def test_lll_finds_small_relation():
    # 2*201 - 402 = 0, so (0, -2, 1) (up to sign) lies in the lattice
    got = lll_reduce([(201, 1, 0), (402, 0, 1)])
    vecs = {v for v in got.basis} | {tuple(-x for x in v) for v in got.basis}
    assert (0, -2, 1) in vecs


def test_lll_rejects_dependent_rows():
    with pytest.raises(ValueError):
        lll_reduce([(1, 2), (2, 4)])


def test_lll_rejects_bad_delta():
    with pytest.raises(ValueError):
        lll_reduce([(1, 0), (0, 1)], delta=Fraction(1, 8))


def _gram_schmidt(rows):
    basis = [[Fraction(x) for x in row] for row in rows]
    ortho, mu = [], []
    for i, v in enumerate(basis):
        coeffs = []
        w = list(v)
        for j, u in enumerate(ortho):
            den = sum(x * x for x in u)
            c = sum(a * b for a, b in zip(v, u)) / den if den else Fraction(0)
            coeffs.append(c)
            w = [a - c * b for a, b in zip(w, u)]
        ortho.append(w)
        mu.append(coeffs)
    return ortho, mu


def _is_reduced(rows, delta):
    ortho, mu = _gram_schmidt(rows)
    for i in range(len(rows)):
        for j in range(i):
            if abs(mu[i][j]) > Fraction(1, 2):
                return False
    for k in range(1, len(rows)):
        lhs = sum(x * x for x in ortho[k]) + mu[k][k - 1] ** 2 * sum(
            x * x for x in ortho[k - 1]
        )
        if lhs < delta * sum(x * x for x in ortho[k - 1]):
            return False
    return True


@st.composite
def small_bases(draw):
    n = draw(st.integers(2, 4))
    rows = [
        tuple(draw(st.integers(-40, 40)) for _ in range(n)) for _ in range(n)
    ]
    return rows


@given(small_bases(), st.data())
def test_lll_output_is_reduced_and_spans(rows, data):
    delta = data.draw(st.sampled_from([Fraction(3, 4), Fraction(99, 100)]))
    try:
        got = lll_reduce(rows, delta=delta)
    except ValueError:
        # dependent rows: confirm via exact determinant of the Gram matrix
        ortho, _ = _gram_schmidt(rows)
        assert any(all(x == 0 for x in u) for u in ortho)
        return
    assert _is_reduced(got.basis, delta)
    # unimodular change of basis: same Gram determinant
    def gram_det(vs):
        ortho, _ = _gram_schmidt(vs)
        det = Fraction(1)
        for u in ortho:
            det *= sum(x * x for x in u)
        return det

    assert gram_det(got.basis) == gram_det(rows)


def test_int_lattice_validates():
    with pytest.raises(ValueError):
        IntLattice(((1, 2), (1,)))
    for ragged in ([(3, 1), (1,)], [(1,), (3, 1)], [(1, 0, 0), (0, 1)]):
        with pytest.raises(ValueError):
            lll_reduce(ragged)
    assert IntLattice(((1, 2), (3, 4))).rank == 2


# ---- exact echelon forms ----


def _echelon_reference(rows, width):
    """The reduced echelon basis over Q, pivots on the latest columns, by
    Fraction elimination, in echelon_basis's form: each row cut after its
    pivot, primitive, its pivot negative, shortest first."""
    A = [[Fraction(c) for c in row] for row in rows]
    basis = []
    for col in range(width - 1, -1, -1):
        at = next((row for row in A if row[col]), None)
        if at is None:
            continue
        A.remove(at)
        at = [c / at[col] for c in at]
        A = [[a - row[col] * b for a, b in zip(row, at)] for row in A]
        basis = [[a - row[col] * b for a, b in zip(row, at)] for row in basis] + [at]
    out = []
    for row in basis:
        piv = max(h for h, c in enumerate(row) if c)
        den = math.lcm(*(c.denominator for c in row[: piv + 1]))
        ints = [int(c * den) for c in row[: piv + 1]]
        g = math.gcd(*ints)
        out.append([-c // g for c in ints])
    return sorted(out, key=len)


@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_echelon_basis_of_dependent_rows_matches_fractions(width, rank, data):
    import numpy as np

    from cmzv.lattice import _rref_mod, echelon_basis

    ints = st.integers(-6, 6)
    base = data.draw(st.lists(st.lists(ints, min_size=width, max_size=width), min_size=rank, max_size=rank))
    mix = data.draw(st.lists(st.lists(ints, min_size=rank, max_size=rank), min_size=1, max_size=8))
    rows = [[sum(m * b[h] for m, b in zip(coeffs, base)) for h in range(width)] for coeffs in mix]
    R = np.array(rows + base, dtype=np.int64)
    want = _echelon_reference(R.tolist(), width)
    assert echelon_basis(R) == want
    assert echelon_basis(R, _rref_mod(R, 2**31 - 1)) == want  # the first prime's form given


def test_echelon_basis_recovers_from_a_first_prime_that_loses_rank():
    # modulo its first prime, 2^31 - 1, the second row vanishes: the rows
    # that prime finds independent span only the first, and every row must
    # be taken again
    import numpy as np

    from cmzv.lattice import _rref_mod, echelon_basis

    R = np.array([[1, 0], [0, 2**31 - 1], [3, 2**31 - 1]], dtype=np.int64)
    assert echelon_basis(R) == [[-1], [0, -1]]
    assert echelon_basis(R, _rref_mod(R, 2**31 - 1)) == [[-1], [0, -1]]
