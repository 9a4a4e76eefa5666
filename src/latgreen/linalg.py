"""Exact nullspaces of integer/rational matrices.

Operator fits use the modular route, Dixon's p-adic lifting (J. D. Dixon,
"Exact solution of linear equations using p-adic expansions", Numer.
Math. 40 (1982) 137-141).  One forward elimination modulo a 30-bit prime
gives the rank, the pivot columns and the factors of the pivot block.
A 30-bit residue is one CPython digit (sys.int_info.bits_per_digit is 30
on 64-bit builds), so the row update multiplies single-digit ints.
Rank over Q is at least rank mod p, so full column rank mod p proves the
nullspace empty after that one elimination.  Otherwise the vector of
each free column (that coordinate one, the other free ones zero) is
lifted p-adically on the pivot block: each step is one solve mod p with
the stored factors and one integer residual update.  After each step,
rational reconstruction over a common denominator proposes a candidate,
and a candidate is returned only once it annihilates every row exactly.

A prime that loses rank over Q shows as a candidate that solves the
pivot rows exactly but not every row; one whose pivots differ from
those over Q shows as a verified vector nonzero right of its free
column.  Either way the next prime is tried, so an unlucky prime costs
time, never correctness.

With a limit L on the basis, the elimination stops at the L-th free
column F mod p.  The vector of a free column c vanishes right of c, and
eliminating columns 0..F does not depend on the columns right of F, so
the first L vectors are those of the leading columns 0..F alone and no
pivot right of F is sought.  Both checks still hold there.  Rank
mod p of each leading block of columns is at most its rank over Q, so
where the pivots mod p first part from those over Q, at a column
c0 <= F, c0 is free mod p and a pivot over Q.  A candidate for c0 that
verifies is a vector over Q nonzero at c0; as column c0 is independent
of the columns before it, the vector is also nonzero at a pivot mod p
right of c0, which lies left of F and so is among those eliminated:
the moved-pivot check sees it.  The free columns before c0 have the
same pivots mod p as over Q, so their vectors are the true ones.

Straight Gaussian elimination over Fraction is kept as the reference
the tests compare the modular route against.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt
from operator import mul
from typing import Sequence

from .errors import FitFailure

Q = Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # deterministic below 2^64
_PRIME_BITS = 30


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_stream():
    """Distinct 30-bit primes, the same sequence on every call."""
    rng = random.Random(0xC0FFEE)
    seen = set()
    while True:
        c = rng.getrandbits(_PRIME_BITS) | (1 << (_PRIME_BITS - 1)) | 1
        while not _is_prime(c):
            c += 2
        if c >> _PRIME_BITS == 0 and c not in seen:
            seen.add(c)
            yield c


def nullspace_fraction(rows: Sequence[Sequence[Fraction | int]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace, free-variable-set-to-one convention.

    The Fraction reference that tests hold nullspace_modular to.
    """
    mat = [[Q(x) for x in r] for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Q(0)] * ncols
        v[fc] = Q(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -mat[pr][fc]
        basis.append(v)
    return basis


def _eliminate_mod(rows: Sequence[Sequence[int]], ncols: int, p: int,
                   limit: int | None = None):
    """Row-echelon form of rows mod p with the multipliers kept (PLU in place).

    Returns (order, pivots, mat): mat[i] is row order[i] of rows after
    elimination.  From its pivot column on it holds U; at the pivot
    column of each earlier pivot k it holds the multiplier L[i][k].
    Entries left of the current pivot column are never touched.  With
    `limit`, no pivot is sought right of the limit-th free column.
    """
    mat = [[x % p for x in r] for r in rows]
    order = list(range(len(mat)))
    pivots: list[int] = []
    r = free = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            free += 1
            if free == limit:
                break
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        order[r], order[pr] = order[pr], order[r]
        inv = pow(mat[r][c], -1, p)
        tail = mat[r][c + 1:]
        for row in mat[r + 1:]:
            if row[c]:
                f = row[c] * inv % p
                row[c] = f
                row[c + 1:] = [(a - f * b) % p for a, b in zip(row[c + 1:], tail)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return order, pivots, mat


def _rational_reconstruct(a: int, m: int, bound: int) -> Fraction | None:
    """n/d with a*d = n (mod m), |n|, d <= bound, or None; unique while
    2 bound^2 < m."""
    r0, r1 = m, a % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or t1 == 0:
        return None
    if gcd(r1, abs(t1)) != 1:
        return None
    return Q(r1, t1)


def _reconstruct(xs: list[int], m: int) -> tuple[int, list[int]] | None:
    """(d, ns) with ns[i] / d = xs[i] (mod m), or None.

    Over a common denominator: each entry times the denominator so far is
    reconstructed, so d grows only by the part an entry adds.
    """
    bound = isqrt(m // 2)
    d = 1
    ns: list[int] = []
    for x in xs:
        f = _rational_reconstruct(x * d, m, bound)
        if f is None:
            return None
        e = f.denominator
        d *= e
        if d > bound:
            return None
        ns = [n * e for n in ns]
        ns.append(f.numerator)
    return d, ns


class _PivotBlock:
    """The pivot rows and columns of one elimination mod p, with its factors.

    solve works mod p from the stored factors; lift finds a nullspace
    vector by p-adic lifting.  Vectors over the block are indexed by
    pivot position: entry i belongs to row order[i] and column pivots[i].
    """

    def __init__(self, rows, ncols: int, p: int, order, pivots, mat):
        rank = len(pivots)
        self.ncols, self.p, self.pivots = ncols, p, pivots
        self.rows = [rows[i] for i in order[:rank]]
        self.rest = [rows[i] for i in order[rank:]]
        # row i of the factors: L[i][:i], then U[i][i:]
        self.lu = [[row[c] for c in pivots] for row in mat[:rank]]
        self.invs = [pow(row[i], -1, p) for i, row in enumerate(self.lu)]
        # Hadamard: |det| and every Cramer numerator of the block are at most
        # the product of the pivot rows' 2-norms, each below
        # sqrt(ncols) 2^(max entry bits).  Once p^steps > 2 H^2,
        # reconstruction cannot miss the block's solution.
        bits = sum(max(map(int.bit_length, row)) for row in self.rows)
        bits += rank * (ncols.bit_length() // 2 + 1)
        self.steps = (2 * bits + 1) // (p.bit_length() - 1) + 1

    def solve(self, b: list[int]) -> list[int]:
        """x with B x = b (mod p), forward then back substitution."""
        p = self.p
        z: list[int] = []
        for row, bi in zip(self.lu, b):
            z.append((bi - sum(map(mul, row, z))) % p)
        xr: list[int] = []  # x from the last entry back
        for row, zi, inv in zip(reversed(self.lu), reversed(z), reversed(self.invs)):
            xr.append((zi - sum(map(mul, reversed(row), xr))) * inv % p)
        return xr[::-1]

    def lift(self, fc: int) -> list[int] | None:
        """Integer multiple w of the nullspace vector of free column fc.

        Lifts the block's solution for right-hand side -(column fc)
        p-adically, for at most self.steps steps.  None when p is
        unlucky: a candidate that solves the pivot rows exactly is the
        block's unique solution, so if it fails another row, no vector
        with this free pattern exists over Q.
        """
        p = self.p
        res = [-row[fc] for row in self.rows]
        x = [0] * len(res)
        y_cols = [0] * self.ncols
        pk = 1
        for _ in range(self.steps):
            y = self.solve([v % p for v in res])
            x = [a + b * pk for a, b in zip(x, y)]
            pk *= p
            for c, v in zip(self.pivots, y):
                y_cols[c] = v
            res = [(v - sum(map(mul, row, y_cols))) // p for v, row in zip(res, self.rows)]
            cand = _reconstruct(x, pk)
            if cand is None:
                continue
            d, ns = cand
            w = [0] * self.ncols
            w[fc] = d
            for c, n in zip(self.pivots, ns):
                w[c] = n
            if _verify_nullspace(self.rows, w):
                return w if _verify_nullspace(self.rest, w) else None
        return None


def _verify_nullspace(rows: Sequence[Sequence[int]], w: list[int]) -> bool:
    return all(sum(map(mul, r, w)) == 0 for r in rows)


def nullspace_modular(rows: Sequence[Sequence[int]], ncols: int,
                      limit: int | None = None) -> list[list[Fraction]]:
    """Exact rational nullspace of an integer matrix by p-adic lifting.

    Same basis and convention as nullspace_fraction.  One prime serves
    unless it is unlucky (see the module docstring).  With `limit`, only
    the first `limit` basis vectors are computed, and the elimination
    stops at the last of their free columns: each vector is verified
    against every row, so `limit` of them prove a nullity of at least
    `limit`.
    """
    for p in prime_stream():
        order, pivots, mat = _eliminate_mod(rows, ncols, p, limit)
        if len(pivots) == ncols:
            return []
        block = _PivotBlock(rows, ncols, p, order, pivots, mat)
        pivot_set = set(pivots)
        basis = []
        for fc in [c for c in range(ncols) if c not in pivot_set][:limit]:
            w = block.lift(fc)
            if w is None or any(w[c] for c in pivots if c > fc):
                break  # p lost rank, or its pivots are not those over Q
            basis.append([Q(v, w[fc]) for v in w])
        else:
            return basis
    raise FitFailure("prime stream ended")
