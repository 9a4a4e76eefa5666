"""Reference values computed apart from latgreen.

Nothing here imports the package.  The walk counts come from short
multinomial sums and the structure-sum recurrence written out afresh, and
the operators are transcribed from the paper.  Exact arithmetic only, so a
worker that imports a workload module does not pay for mpmath; the numeric
references live in numerics.py.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def coordination(family: str, d: int) -> int:
    return {"sc": 2 * d, "bcc": 2 ** d, "diamond": d + 1, "fcc": 2 * d * (d - 1),
            "sincos4": 8, "triples4": 32, "honeycomb": 3, "square": 4,
            "triangular": 6}[family]


def steps_per_index(family: str) -> int:
    """Table index n holds the (s n)-step count."""
    return 1 if family in ("fcc", "triangular") else 2


def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def _multinomial(n: int, ks) -> int:
    out = factorial(n)
    for k in ks:
        out //= factorial(k)
    return out


def multinomial_count(family: str, d: int, n: int) -> int:
    """Table entry n by a direct multinomial sum over the walk's steps.

    sc: 2n-step returns, n_i steps forward and back along each axis.
    bcc: 2n-step returns, each coordinate an independent +-1 walk.
    diamond: 2n-step returns of the two-site walk; n_i steps along bond i
    and n_i back, over the d+1 bond directions.
    """
    if family == "sc":
        return sum(_multinomial(2 * n, [k for k in ks for _ in (0, 1)])
                   for ks in _compositions(n, d))
    if family == "bcc":
        return comb(2 * n, n) ** d
    if family == "diamond":
        return sum(_multinomial(n, ks) ** 2 for ks in _compositions(n, d + 1))
    raise ValueError(family)


def structure_sums(d: int, n_max: int) -> list[int]:
    """S_n^(d) = sum_m C(n,m)^2 S_m^(d-1), S^(1) = 1, for n = 0..n_max."""
    row = [1] * (n_max + 1)
    for _ in range(d - 1):
        row = [sum(comb(n, m) ** 2 * row[m] for m in range(n + 1)) for n in range(n_max + 1)]
    return row


def closed_table(family: str, d: int, n_max: int) -> list[int] | None:
    """Whole tables for the families with a cheap independent formula."""
    if family == "sc":
        s = structure_sums(d, n_max)
        return [comb(2 * n, n) * s[n] for n in range(n_max + 1)]
    if family == "bcc":
        return [comb(2 * n, n) ** d for n in range(n_max + 1)]
    if family == "diamond":
        return structure_sums(d + 1, n_max)
    if family == "honeycomb":
        return [sum(comb(n, j) ** 2 * comb(2 * j, j) for j in range(n + 1))
                for n in range(n_max + 1)]
    if family == "square":
        return [comb(2 * n, n) ** 2 for n in range(n_max + 1)]
    if family == "triangular":
        # triangular returns from honeycomb ones, weight (-3)^(n-j)
        h = closed_table("honeycomb", 2, n_max)
        return [sum(comb(n, j) * (-3) ** (n - j) * h[j] for j in range(n + 1))
                for n in range(n_max + 1)]
    if family == "fcc" and d == 3:
        # fcc3 returns from diamond3 ones: a_n = sum_j C(n,j) (-4)^(n-j) S_j^(4)
        s = structure_sums(4, n_max)
        return [sum(comb(n, j) * (-4) ** (n - j) * s[j] for j in range(n + 1))
                for n in range(n_max + 1)]
    return None


# -- theta operators ----------------------------------------------------------


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ppow(a, k):
    out = [1]
    for _ in range(k):
        out = _pmul(out, a)
    return out


def _pscale(a, c):
    return [c * x for x in a]


TH = [0, 1]          # theta
TH1 = [1, 1]         # theta + 1
TH2 = [2, 1]         # theta + 2
TWO1 = [1, 2]        # 2 theta + 1


def paper_operator(name: str) -> list[list[int]]:
    """The 4d operators as printed, sum_l z^l P_l(theta), P_l ascending in theta."""
    if name == "bcc4":
        return [_ppow(TH, 4), _pscale(_ppow(TWO1, 4), -16)]
    if name == "sc4":
        return [_ppow(TH, 4),
                _pscale(_pmul(_ppow(TWO1, 2), [2, 5, 5]), -4),
                _pscale(_pmul(_pmul(_ppow(TH1, 2), TWO1), [3, 2]), 256)]
    if name == "diamond4":
        return [_ppow(TH, 4),
                [-5, -28, -63, -70, -35],
                _pmul(_ppow(TH1, 2), [285, 518, 259]),
                _pscale(_pmul(_ppow(TH1, 2), _ppow(TH2, 2)), -225)]
    if name == "fcc4":
        return [_ppow(TH, 4),
                [0, -4, -19, -30, 39],
                _pscale([-192, -676, -1057, -1070, 16], 2),
                _pscale(_pmul([316, 600, 566, 171], [2, 3]), -36),
                _pscale([702, 2173, 2635, 1542, 384], -(2 ** 5) * 3 ** 3),
                _pscale(_pmul([4584, 8378, 5571, 1393], TH1), -(2 ** 6) * 3 ** 3),
                _pscale(_pmul(_pmul([98, 105, 31], TH1), TH2), -(2 ** 10) * 3 ** 5),
                _pscale(_pmul(_pmul(TH1, _ppow(TH2, 2)), [3, 1]), -(2 ** 12) * 3 ** 7)]
    raise ValueError(name)


def proportional(p, q) -> bool:
    """Equal operators up to one nonzero scalar."""
    a = [[Fraction(x) for x in row] for row in p]
    b = [[Fraction(x) for x in row] for row in q]
    width = max(len(r) for r in a + b)
    a = [r + [Fraction(0)] * (width - len(r)) for r in a]
    b = [r + [Fraction(0)] * (width - len(r)) for r in b]
    while a and not any(a[-1]):
        a.pop()
    while b and not any(b[-1]):
        b.pop()
    if len(a) != len(b):
        return False
    pivot = next(((i, j) for i, r in enumerate(b) for j, x in enumerate(r) if x), None)
    if pivot is None or a[pivot[0]][pivot[1]] == 0:
        return False
    c = a[pivot[0]][pivot[1]] / b[pivot[0]][pivot[1]]
    return all(x == c * y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def residual(op, table, n: int) -> Fraction:
    """sum_l P_l(n - l) a_{n-l}: the recurrence an annihilator imposes at n."""
    total = Fraction(0)
    for l, row in enumerate(op):
        m = n - l
        if m < 0:
            break
        pm = sum(Fraction(c) * m ** j for j, c in enumerate(row))
        total += pm * table[m]
    return total
