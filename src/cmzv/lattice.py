"""Integer lattice reduction, rational reconstruction and exact echelon forms.

lll_reduce keeps the basis exact, as int64 rows, and decides from float64
Gram-Schmidt data recomputed from them (Schnorr-Euchner), conservatively:
size-reduced at |mu| <= 1/2, Lovasz reduced with a margin of 2^-20 over delta.
The basis depends bit for bit on the rounding of its einsum products and
elementwise updates (BLAS @ changed it after 46 of 96 relation-lattice feeds),
as many multipliers lie within 1e-9 of 1/2: that needs an exact tie rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fq import is_prime

# the C kernel that np.einsum calls when optimize is off (its default), called
# directly to skip the Python dispatch: same products, bit for bit
try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum as _einsum


def rational_reconstruct(r: int, modulus: int, bound: int) -> Fraction | None:
    """A fraction a/b with |a| <= bound, 0 < b <= bound, a = r*b mod modulus.

    Found by stopping the extended Euclidean algorithm once the remainder
    drops to the bound.  When 2*bound**2 < modulus the result is the unique
    such fraction.  Returns None when none exists.
    """
    if modulus <= 1:
        raise ValueError("modulus must exceed 1")
    if bound < 1:
        raise ValueError("bound must be positive")
    r0, r1 = modulus, r % modulus
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    if math.gcd(r1, abs(t1)) != 1:
        return None
    cand = Fraction(r1, t1)
    if (cand.numerator - r * cand.denominator) % modulus != 0:
        return None
    return cand


@dataclass(frozen=True)
class IntLattice:
    """A lattice given by a basis of integer row vectors."""

    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len({len(row) for row in self.basis}) > 1:
            raise ValueError("ragged basis")

    @property
    def rank(self) -> int:
        return len(self.basis)


class GSOBasis:
    """Exact int64 rows, with float64 Gram-Schmidt data valid below row `fresh`.

    lll_reduce reduces one in place from row `fresh` on; code that edits rows
    lowers `fresh` to the first row it touched.
    """

    def __init__(self, rows, fresh=0):
        self.rows = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
        self.star = self.rows.astype(np.float64)  # the vectors b*_i
        self.mu = np.zeros((len(rows), len(rows)))
        self.norm2 = _einsum("ij,ij->i", self.star, self.star)  # |b*_i|^2
        self.fresh = fresh

    def __len__(self) -> int:
        return len(self.rows)

    def truncate(self, n: int) -> None:
        """Keep the first n rows; their Gram-Schmidt data stays valid."""
        self.rows, self.star, self.mu = self.rows[:n], self.star[:n], self.mu[:n, :n]
        self.norm2, self.fresh = self.norm2[:n], min(self.fresh, n)


def _visit(basis: GSOBasis, k: int, lo: int = 0) -> None:
    """Size-reduce row k against rows lo.. (and k-1) and set its GSO data.

    Multipliers are rounded from the last row down, each correcting the
    earlier coefficients through mu: Python floats in blocks of 64 to 96
    rows, a numpy fold below.  A large one has the coefficients recomputed
    from the exact row; rows below lo join in once skipping them would cost
    precision (a 2^15-fold cancellation).  CGS2 keeps b*_k orthogonal.
    """
    b, star, mu, norm2 = basis.rows, basis.star[:k], basis.mu, basis.norm2[:k]
    v = b[k].astype(np.float64)
    coef = _einsum("ij,j->i", star, v) / norm2
    low = max(0, min(lo, k - 1))
    for last in range(15, -1, -1):
        at, take, hi = [], [], k
        while hi > low:  # blocks [s, hi) from the top; a fold costs some 64 updates
            s, new = (hi - 64 if hi > 96 else 0), len(at)
            c = coef[s:hi].tolist()
            for l in range(hi - 1, max(s, low) - 1, -1):
                if abs(x := c[l - s]) > 0.5:  # false for NaN
                    at.append(l)
                    take.append(t := float(round(x)))  # half to even, as np.rint
                    c[: l - s], c[l - s] = [a - t * m for a, m in zip(c, mu[l, s:l].tolist())], x - t
            coef[s:hi] = c
            if s and len(at) > new:  # a left fold: the same subtractions, in order
                steps = np.array(take[new:])[:, None] * mu[at[new:], :s]
                coef[:s] = np.subtract.reduce(np.vstack((coef[:s], steps)))
            hi = s
        if at:
            b[k] -= np.array(take, dtype=np.int64) @ b[at]
            v = b[k].astype(np.float64)
            if last and max(map(abs, take)) >= 2**16:
                coef = _einsum("ij,j->i", star, v) / norm2
                continue
        w = v - _einsum("i,ij->j", coef, star)
        if not (last and low and _einsum("i,i->", w, w) * 2**30 < _einsum("i,i->", v, v)):
            break
        low = 0
    fix = _einsum("ij,j->i", star, w) / norm2
    w -= _einsum("i,ij->j", fix, star)
    basis.star[k], mu[k, :k] = w, coef + fix
    basis.norm2[k] = nk = float(_einsum("i,i->", w, w))
    # independent integer rows have an integer Gram determinant >= 1
    if nk < 1 and (nk == 0 or math.log(nk) + float(np.log(norm2).sum()) < -0.7):
        raise ValueError("basis vectors are linearly dependent")


def lll_reduce(lattice, delta=Fraction(99, 100)) -> IntLattice:
    """LLL-reduce a basis of linearly independent integer vectors.

    Accepts an IntLattice or a plain list of rows and returns an IntLattice;
    a GSOBasis is reduced in place, from its row `fresh` on, and returned.
    Entries must fit in int64 (OverflowError otherwise).  delta is the
    Lovasz parameter (rational, 1/4 < delta < 1).  Raises ValueError on
    linearly dependent input.
    """
    delta = Fraction(delta).limit_denominator(10**9) if isinstance(delta, float) else Fraction(delta)
    if not (Fraction(1, 4) < delta < 1):
        raise ValueError("delta must lie in (1/4, 1)")
    basis = lattice
    if not isinstance(lattice, GSOBasis):
        if not isinstance(lattice, IntLattice):
            lattice = IntLattice(tuple(tuple(v) for v in lattice))  # rejects ragged rows
        if not lattice.basis:
            return IntLattice(())
        basis = GSOBasis(lattice.basis)
    swap_below = min(float(delta) + 2.0**-20, (1 + float(delta)) / 2)  # the safety margin
    b, star, mu, norm2 = basis.rows, basis.star, basis.mu, basis.norm2
    # Rows below lo are untouched so far; the others are size-reduced against
    # rows lo.. (and their neighbour), then against all in a last pass that
    # recomputes their data from the exact rows.  A swap moves row k down
    # with its data updated in closed form, so it needs no visit there.
    k, lo, moved = basis.fresh, basis.fresh, False
    while k < len(b):
        if not moved:
            _visit(basis, k, lo)
        if k and norm2[k] < (swap_below - (m := float(mu[k, k - 1])) * m) * norm2[k - 1]:
            np.add(star[k], m * star[k - 1], out=star[k - 1])
            mu[k - 1, : k - 1] = mu[k, : k - 1]
            norm2[k - 1] = _einsum("i,i->", star[k - 1], star[k - 1])
            b[k - 1], b[k] = b[k], b[k - 1].copy()
            k, lo, moved = k - 1, min(lo, k - 1), True
        else:
            k, moved = k + 1, False
    for k in range(lo, len(b)):
        _visit(basis, k)
    basis.fresh = len(b)
    return basis if basis is lattice else IntLattice(tuple(map(tuple, b.tolist())))


def _rref_mod(R, q):
    """Pivots (latest first) and reduced rows of R mod q, pivots on the latest
    columns, one row per pivot, and the rows of R that became the pivot
    rows: independent mod q, they span R mod q.  A new pivot row is zero
    past its pivot, so it updates only the rows that are nonzero at the
    pivot, up to it, 256 at a time to bound the temporaries."""
    A, pivots, origin = np.asarray(R, dtype=np.int64) % q, [], np.arange(len(R))
    for col in range(R.shape[1] - 1, -1, -1):
        i = len(pivots)
        nz = np.flatnonzero(A[i:, col])
        if nz.size:
            A[[i, i + nz[0]]] = A[[i + nz[0], i]]
            origin[[i, i + nz[0]]] = origin[[i + nz[0], i]]
            A[i, : col + 1] = head = A[i, : col + 1] * pow(int(A[i, col]), -1, q) % q
            at = np.flatnonzero(A[:, col])
            for rows in np.split(at[at != i], range(256, len(at), 256)):
                A[rows, : col + 1] = (A[rows, : col + 1] - A[rows, col, None] * head) % q
            pivots.append(col)
    return pivots, A[: len(pivots)], origin[: len(pivots)]


def echelon_basis(R, first=None) -> list[list[int]]:
    """The reduced echelon basis over Q of the row span of R, pivots on the
    latest columns, as primitive integer rows with a negative pivot.

    The rows of R need not be independent.  The form is computed by int64
    elimination mod 31-bit primes and lifted by CRT and rational
    reconstruction until it spans exactly the rows of R.  A prime that loses
    rank moves pivots earlier, so its form is passed over once a better one
    is known, and cannot span R while it is the best.  The primes after the
    first reduce only the rows S of R that it found independent; should
    that prime have lost rank, S fails to span R where its own form spans
    S, and every row is taken again.  The first prime is 2^31 - 1; a caller
    that has _rref_mod(R, 2**31 - 1) already passes it as first.
    """
    best, M, q, S = None, 1, 2**31 + 1, R
    while len(R):
        q -= 2
        if first is not None:  # the first prime's form, made by the caller
            got, first = first, None
        else:
            got = _rref_mod(S, q) if is_prime(q) else None
        if got is None or (best and got[0] < best):  # rank lost mod q moves pivots earlier
            continue
        pivots, A, origin = got
        free = sorted(set(range(R.shape[1])) - set(pivots))
        if pivots != best:
            best, vals, M, S = pivots, A[:, free].tolist(), q, S[np.sort(origin)]
        else:
            t = pow(M, -1, q)
            new = A[:, free].tolist()
            vals = [[v + M * ((e - v) * t % q) for v, e in zip(a, b)] for a, b in zip(vals, new)]
            M *= q
        bound = math.isqrt((M - 1) // 2)
        fracs = [[rational_reconstruct(v, M, bound) for v in row] for row in vals]
        if any(None in row for row in fracs):
            continue
        rows = []  # each row has its pivot last, its other entries over that pivot
        for piv, row in zip(pivots, fracs):
            den = math.lcm(*(x.denominator for x in row))
            rows.append([0] * piv + [den])
            for h, x in zip(free, row):
                if h < piv:
                    rows[-1][h] = int(x * den)
        # exactly: R[:, h] = sum_k R[:, pivot_k] rows[k][h] / rows[k][-1] at each free h
        L = math.lcm(*(row[-1] for row in rows))
        Y = [[(row[h] if h < len(row) else 0) * (L // row[-1]) for h in free] for row in rows]
        top = max((abs(y) for row in Y for y in row), default=0)
        kind = np.int64 if int(np.abs(R).max()) * (len(R) * top + L) < 2**62 else object
        Y = np.array(Y, dtype=kind).reshape(len(rows), len(free))
        spans = lambda T: not (T[:, pivots].astype(kind) @ Y - T[:, free].astype(kind) * L).any()
        if spans(R):
            return [_normalize(row) for row in sorted(rows, key=len)]
        if spans(S):
            best, S = None, R
    return []


def _normalize(coeffs):
    g = math.gcd(*coeffs) * (1 if coeffs[-1] < 0 else -1)  # new generator = combination
    return [c // g for c in coeffs]
