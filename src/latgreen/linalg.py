"""Exact nullspaces of integer/rational matrices.

Operator fits use the modular route: row-reduce modulo several 62-bit
primes, CRT the results together, lift to rationals by lattice
reconstruction, then verify the lifted vectors against every equation
exactly.  Only the verified answer is returned, so an unlucky prime can
cost time but not correctness.  Straight Gaussian elimination over
Fraction is kept as the reference the tests compare the modular route
against.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt
from typing import Sequence

from .errors import FitFailure
from .series import _numerators

Q = Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # deterministic below 2^64
_PRIME_BITS = 62
_MAX_PRIMES = 80


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
    """Distinct 62-bit primes, the same sequence on every call."""
    rng = random.Random(0xC0FFEE)
    seen = set()
    while True:
        c = rng.getrandbits(_PRIME_BITS) | (1 << (_PRIME_BITS - 1)) | 1
        while not _is_prime(c):
            c += 2
        if c not in seen:
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


def _rref_mod(rows: list[list[int]], ncols: int, p: int):
    mat = [[x % p for x in r] for r in rows]
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
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                row_r = mat[r]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], row_r)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def _nullspace_mod(rows: list[list[int]], ncols: int, p: int):
    mat, pivots = _rref_mod(rows, ncols, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for pr, pc in enumerate(pivots):
            v[pc] = (-mat[pr][fc]) % p
        basis.append(v)
    return basis, tuple(pivots)


def _rational_reconstruct(a: int, m: int) -> Fraction | None:
    """p/q with a*q = p (mod m), |p|, q <= sqrt(m/2), or None."""
    bound = isqrt(m // 2)
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


def _crt_pair(a1: int, m1: int, a2: int, m2: int) -> int:
    d = (a2 - a1) * pow(m1, -1, m2) % m2
    return a1 + m1 * d


def nullspace_modular(rows: Sequence[Sequence[int]], ncols: int) -> list[list[Fraction]]:
    """Exact rational nullspace of an integer matrix via CRT lifting.

    Primes that lose rank (or disagree on pivot columns) are discarded:
    the true rank mod p can only drop, so the maximal observed pivot set
    wins.  The lifted basis is verified against every row exactly before
    being returned.
    """
    rows = [list(r) for r in rows]
    stream = prime_stream()
    best_pivots: tuple[int, ...] | None = None
    residues: list[list[int]] = []  # flattened basis entries mod modulus
    modulus = 1
    used = 0
    while used < _MAX_PRIMES:
        p = next(stream)
        used += 1
        basis_p, pivots = _nullspace_mod(rows, ncols, p)
        if best_pivots is None or len(pivots) > len(best_pivots):
            best_pivots = pivots
            residues = [list(v) for v in basis_p]
            modulus = p
            continue
        if pivots != best_pivots:
            continue  # unlucky prime
        for v, vp in zip(residues, basis_p):
            for i in range(ncols):
                v[i] = _crt_pair(v[i], modulus, vp[i], p)
        modulus *= p
        lifted = []
        ok = True
        for v in residues:
            w = []
            for x in v:
                f = _rational_reconstruct(x, modulus)
                if f is None:
                    ok = False
                    break
                w.append(f)
            if not ok:
                break
            lifted.append(w)
        if ok and _verify_nullspace(rows, lifted):
            return lifted
    raise FitFailure(f"modular nullspace did not stabilize after {used} primes")


def _verify_nullspace(rows: list[list[int]], basis: list[list[Fraction]]) -> bool:
    for v in basis:
        w, _ = _numerators(v)
        for r in rows:
            if sum(a * b for a, b in zip(r, w)) != 0:
                return False
    return True
