"""Closed-form return-count generators for the lattice families.

Each family is defined once, in FAMILIES, by its Laurent step kernel K;
the coordination number, the table indexing, the constant-term kernel
and the cosine structure function are all read from that definition.

Conventions.  P(0;z) = sum_n a_n (z/q)^n with q the coordination
number; a_n counts n-step returns to the origin.  Tables here store,
per family:

  * even-only families (square, sc, bcc, sincos4, triples4): index n
    holds a_{2n}; odd counts vanish.
  * two-site families (honeycomb, diamond): index n holds the number of
    2n-step returns (walks alternate between the two sublattice sites).
  * all-step families (triangular, fcc): index n holds a_n, and odd
    entries can be nonzero.

The row also holds the family's formula generator, which coeffs()
calls.  The structure sums S_n^(d) = sum_m C(n,m)^2 S_m^(d-1),
S_n^(1) = 1, generate the hyper-diamond counts directly and enter the
hypercubic formulas; they are computed once per (d, N) by the
recurrence.  The triangular and 3d fcc tables are one pull-back of
them, _pullback.

Kernels that are elementary symmetric functions of the cosines (sc,
bcc, fcc and triples4) share one exact route, esym_table, which peels
one cosine at a time.  The fcc row takes every d != 3 from it, so every
family has a formula route in every dimension.

Everything in this module is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice, product
from math import comb, factorial, gcd, prod
from typing import Callable, Mapping, Sequence

from .errors import ResourceLimit, UnsupportedLattice, UnsupportedTerm
from .reports import VerifyReport, compare
from .series import PowerSeries, binomial_transform, hyper_terms

Q = Fraction


# ---------------------------------------------------------------------------
# lattice families: the one definition every route reads


def _signed(d: int, k: int) -> list[tuple[int, ...]]:
    """Every vector with k entries +-1 and the others 0."""
    out = []
    for idx in combinations(range(d), k):
        for signs in product((1, -1), repeat=k):
            e = [0] * d
            for i, s in zip(idx, signs):
                e[i] = s
            out.append(tuple(e))
    return out


def _forward(d: int) -> list[tuple[int, ...]]:
    """The origin and the d unit vectors: the forward bonds of a two-site walk."""
    return [(0,) * d] + [tuple(int(i == j) for j in range(d)) for i in range(d)]


@dataclass(frozen=True)
class Family:
    """A lattice family, defined by its Laurent step kernel K.

    steps(d) are the exponent vectors of K's unit monomials.  For a
    two-site family they are the forward steps and K = fwd(x) fwd(1/x),
    so one kernel power is two lattice steps.  Table index n holds the
    count of (steps_per_index * n)-step returns.  symmetry is the group
    K is claimed to be invariant under: "hyperoctahedral" (coordinate
    permutations and sign flips) or "permutation".  formula(d, n_max)
    is the closed-form generator of table entries 0..n_max; it reaches
    the generators below by name when it is called.
    """

    steps: Callable[[int], list[tuple[int, ...]]]
    steps_per_index: int
    symmetry: str
    formula: Callable[[int, int], Sequence[int]]
    fixed_dim: int | None = None
    two_site: bool = False


def _two_site_sums(d: int, n_max: int) -> list[int]:
    """S_n^(d+1): honeycomb and diamond."""
    return structure_sums(d + 1, n_max)


def _central_power(d: int, n_max: int) -> list[int]:
    """C(2n,n)^d: square and bcc."""
    return [comb(2 * n, n) ** d for n in range(n_max + 1)]


def _central_times_sums(d: int, n_max: int) -> list[int]:
    """C(2n,n) S_n^(d): sc and sincos4."""
    s = structure_sums(d, n_max)
    return [comb(2 * n, n) * s[n] for n in range(n_max + 1)]


FAMILIES = {
    "honeycomb": Family(_forward, 2, "permutation", _two_site_sums, fixed_dim=2, two_site=True),
    "square": Family(lambda d: _signed(d, 1), 2, "hyperoctahedral", _central_power, fixed_dim=2),
    "triangular": Family(lambda d: _signed(d, 1) + [(1, -1), (-1, 1)], 1, "permutation",
                         lambda d, n: _pullback(2, n), fixed_dim=2),
    "diamond": Family(_forward, 2, "permutation", _two_site_sums, two_site=True),
    "sc": Family(lambda d: _signed(d, 1), 2, "hyperoctahedral", _central_times_sums),
    "bcc": Family(lambda d: _signed(d, d), 2, "hyperoctahedral", _central_power),
    # the pull-back is faster than the peeling route at d = 3 only
    "fcc": Family(lambda d: _signed(d, 2), 1, "hyperoctahedral",
                  lambda d, n: _pullback(3, n) if d == 3 else esym_table(2, d, n)),
    "sincos4": Family(lambda d: [e for e in _signed(d, d) if prod(e) > 0], 2, "permutation",
                      _central_times_sums, fixed_dim=4),
    "triples4": Family(lambda d: _signed(d, 3), 2, "hyperoctahedral",
                       lambda d, n: triples4_table(n), fixed_dim=4),
}


@dataclass(frozen=True)
class LatticeSpec:
    """A lattice family at a specific dimension."""

    family: str
    dim: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedLattice(f"unknown family {self.family!r}")
        fixed = self.row.fixed_dim
        if fixed is not None and self.dim != fixed:
            raise UnsupportedLattice(f"{self.family} exists only at d={fixed}")
        if fixed is None and self.dim < 2:
            raise UnsupportedLattice("dimension must be >= 2")

    @property
    def row(self) -> Family:
        return FAMILIES[self.family]

    @property
    def name(self) -> str:
        """'sc3', 'bcc4', ...; the bare family name when its dimension is fixed."""
        return self.family if self.row.fixed_dim else f"{self.family}{self.dim}"

    @property
    def steps(self) -> list[tuple[int, ...]]:
        return self.row.steps(self.dim)

    @property
    def coordination(self) -> int:
        # K has mass q on one-site lattices and q^2 on two-site ones
        return len(self.steps)

    @property
    def steps_per_index(self) -> int:
        return self.row.steps_per_index

    @property
    def powers_per_index(self) -> int:
        """Kernel powers per table index: table[n] = CT[K^(powers_per_index * n)]."""
        return self.steps_per_index // 2 if self.row.two_site else self.steps_per_index

    def kernel_terms(self) -> dict[tuple[int, ...], int]:
        """K as exponent vector -> coefficient."""
        steps = self.steps
        if not self.row.two_site:
            return dict.fromkeys(steps, 1)
        out: dict[tuple[int, ...], int] = {}
        for a in steps:
            for b in steps:
                e = tuple(x - y for x, y in zip(a, b))
                out[e] = out.get(e, 0) + 1
        return out


def parse_lattice(name: str) -> LatticeSpec | None:
    """The lattice a name like 'sc3', 'bcc4', 'square' or 'sincos4'
    stands for (see LatticeSpec.name); None when it names no family."""
    if name in FAMILIES and FAMILIES[name].fixed_dim:
        return LatticeSpec(name, FAMILIES[name].fixed_dim)
    stem = name.rstrip("0123456789")
    if stem in FAMILIES and stem != name:
        return LatticeSpec(stem, int(name[len(stem):]))
    return None


@dataclass(frozen=True)
class CoeffTable:
    """Exact return counts for spec, indices 0..len(values)-1."""

    spec: LatticeSpec
    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def as_series(self) -> PowerSeries:
        """The table as a power series in the normalized variable
        (one table index per power)."""
        return PowerSeries(self.values)


# ---------------------------------------------------------------------------
# structure sums


def structure_sums(d: int, n_max: int) -> list[int]:
    """S_n^(d) for n = 0..n_max by the nesting recurrence."""
    if d < 1:
        raise ValueError("d must be >= 1")
    row = [1] * (n_max + 1)
    for _ in range(2, d + 1):
        prev = row
        row = [sum(comb(n, m) ** 2 * prev[m] for m in range(n + 1)) for n in range(n_max + 1)]
    return row


# explicit finite-sum forms, used to cross-check the recurrence


def diamond3_binomial_sum(n: int) -> int:
    """sum_j C(n,j)^2 C(2j,j) C(2n-2j,n-j), the 3d diamond 2n-step count."""
    return sum(comb(n, j) ** 2 * comb(2 * j, j) * comb(2 * n - 2 * j, n - j) for j in range(n + 1))


def honeycomb_binomial_sum(n: int) -> int:
    """sum_j C(n,j)^2 C(2j,j), the honeycomb 2n-step count."""
    return sum(comb(n, j) ** 2 * comb(2 * j, j) for j in range(n + 1))


def s5_double_sum(n: int) -> int:
    """S_n^(5) as the explicit double sum over a trinomial split."""
    total = 0
    for k1 in range(n + 1):
        for k2 in range(n - k1 + 1):
            tri = factorial(n) // (factorial(k1) * factorial(k2) * factorial(n - k1 - k2))
            total += tri * tri * comb(2 * k1, k1) * comb(2 * k2, k2)
    return total


# ---------------------------------------------------------------------------
# family generators


def _pullback(d: int, n_max: int) -> list[int]:
    """The all-step table of triangular (d = 2) or fcc (d = 3) from the
    table S^(d+1) of the two-site lattice of the same dimension (honeycomb,
    diamond): its binomial transform with weight (-(d+1))^(n-j)."""
    return binomial_transform(structure_sums(d + 1, n_max), -(d + 1))


def esym_table(k: int, d: int, n_max: int) -> list[int]:
    """CT[(2^k e_k(c_1..c_d))^n], n = 0..n_max, with c_i = cos k_i.

    Kernels that are elementary symmetric functions of the cosines:
    sc = 2 e_1, fcc = 4 e_2, triples4 = 8 e_3 and bcc = 2^d e_d.  The
    cosines are peeled one at a time.  Over m cosines the state is the
    exponent vector a of e_1..e_min(m,k), and
    W(a) = 2^(sum i a_i) <prod_i e_i^a_i> is an integer.  Expand
    e_i = c e_(i-1)' + e_i', the primes taken over the other m-1
    cosines.  Taking c from b_i of the a_i factors weighs C(a_i, b_i),
    and 2^B <c^B> = C(B, B/2) for even B (0 for odd B), so one b is
    stepped in twos.  e_m vanishes over m-1 cosines, so b_m = a_m when
    m <= k.  Two cosines are summed directly, and states are memoised
    per level across n.
    """
    if not 1 <= k <= d or d < 2:
        raise ValueError("need 1 <= k <= d and d >= 2")
    C = [[comb(n, j) for j in range(n + 1)] for n in range(n_max + 1)]
    EB = [0 if e % 2 else comb(e, e // 2) for e in range(n_max + 1)]
    memo: list[dict[tuple[int, ...], int]] = [{} for _ in range(d)]

    def W(m: int, a: tuple[int, ...]) -> int:
        if m == 2:
            # <(c1 + c2)^x (c1 c2)^y>, scaled
            x, y = a[0], a[1] if len(a) > 1 else 0
            row = C[x]
            return sum(row[b] * EB[b + y] * EB[x - b + y] for b in range(y & 1, x + 1, 2))
        forced = len(a) == m
        j = len(a) - 2 if forced else len(a) - 1   # b_j, the last free one, steps in twos
        below = memo[m - 1]
        rows = [C[x] for x in a]
        ranges: list[Sequence[int]] = [range(x + 1) for x in a]
        ranges[j] = (0,)
        if forced:
            ranges[-1] = (a[-1],)
        rowj = rows[j]
        v = 0
        for bs in product(*ranges):
            s = sum(bs)
            # the state below at b_j = 0 is a_i - b_i + b_(i+1); b_j then
            # moves from its last entry to the one before
            nxt = [x - b + nb for x, b, nb in zip(a, bs, bs[1:] + (0,))]
            if forced:
                nxt.pop()
            hi = nxt.pop()
            lo = nxt.pop() if j else 0
            pre = tuple(nxt)
            acc = 0
            for bj in range(s & 1, a[j] + 1, 2):
                key = pre + (lo + bj, hi - bj) if j else (hi - bj,)
                u = below.get(key)
                if u is None:
                    u = below[key] = W(m - 1, key)
                acc += rowj[bj] * EB[s + bj] * u
            v += prod(r[b] for r, b in zip(rows, bs)) * acc
        return v

    return [W(d, (0,) * (k - 1) + (n,)) for n in range(n_max + 1)]


def fcc4_table(n_max: int) -> list[int]:
    """4d fcc return counts, esym_table(2, 4, n_max).  coeffs() does not
    call it; the benchmark's span table (perfbench/spans.py) wraps this name."""
    return esym_table(2, 4, n_max)


def triples4_table(n_max: int) -> list[int]:
    """Even-index return counts for the lattice whose structure function
    is the sum of the four triple cosine products in d=4.

    Index N holds the 2N-step count, a symmetrized four-fold sum:
    a_{2N} = (2N)! sum_{r1+..+r4=N} prod_i C(2N-2r_i, N-r_i)/(2r_i)!,
    that is (2N)! [x^N] f_N(x)^4 with f_N = sum_r C(2N-2r, N-r)/(2r)! x^r.
    Scaling f_N by (2N)! makes its coefficients integers; one squaring
    and one convolution at x^N then give ((2N)!)^4 times the sum.
    """
    out = []
    for N in range(n_max + 1):
        fact_n = factorial(2 * N)
        f = [comb(2 * N - 2 * r, N - r) * fact_n // factorial(2 * r) for r in range(N + 1)]
        sq = [sum(f[i] * f[k - i] for i in range(k + 1)) for k in range(N + 1)]
        out.append(sum(sq[k] * sq[N - k] for k in range(N + 1)) // fact_n ** 3)
    return out


# ---------------------------------------------------------------------------
# the generic cosine-kernel engine

COSINE_CLASS_BUDGET = 1_000_000  # parity classes enumerated per table


@dataclass(frozen=True)
class CosTerm:
    """coef * prod_i cos(k_i)^cos_exps[i] * sin(k_i)^sin_exps[i]."""

    coef: Fraction
    cos_exps: tuple[int, ...]
    sin_exps: tuple[int, ...]

    def __post_init__(self):
        if len(self.cos_exps) != len(self.sin_exps):
            raise UnsupportedTerm("cos/sin exponent tuples must have equal length")
        if any(e < 0 for e in self.cos_exps + self.sin_exps):
            raise UnsupportedTerm("exponents must be >= 0")


def _parity_classes(terms: Sequence[CosTerm], nvars: int, max_weight: int) -> list[tuple[int, ...]]:
    """Part-parity vectors (p_i mod 2) with at most max_weight odd parts
    that keep every per-variable exponent sum even.  The 1-d moments
    kill every other composition, so enumeration can be restricted to
    these classes up front."""
    keep = []
    for w in range(min(len(terms), max_weight) + 1):
        for odd in combinations(range(len(terms)), w):
            if all(sum(terms[i].cos_exps[v] for i in odd) % 2 == 0
                   and sum(terms[i].sin_exps[v] for i in odd) % 2 == 0 for v in range(nvars)):
                keep.append(tuple(int(i in odd) for i in range(len(terms))))
    return keep


def cosine_kernel_coeffs(terms: Sequence[CosTerm], n_max: int) -> list[Fraction]:
    """Exact torus averages <lambda^n>, n = 0..n_max, for
    lambda = sum of the given cosine/sine product terms.

    Multinomial expansion over the terms; each variable separates into
    a one-dimensional moment with the both-even parity rule.  Parts are
    enumerated only inside the parity classes that survive that rule,
    a 2^k-fold saving for a k-term structure at large n.  The candidate
    classes number sum_{w <= min(k, n_max)} C(k, w); past
    COSINE_CLASS_BUDGET the request raises ResourceLimit before any work.
    """
    if not terms:
        raise UnsupportedTerm("empty structure")
    nvars = len(terms[0].cos_exps)
    for t in terms:
        if len(t.cos_exps) != nvars:
            raise UnsupportedTerm("terms disagree on variable count")
    k = len(terms)
    size = sum(comb(k, w) for w in range(min(k, n_max) + 1))
    if size > COSINE_CLASS_BUDGET:
        raise ResourceLimit(f"cosine route: {size} parity classes for {k} terms to "
                            f"power {n_max} exceed budget {COSINE_CLASS_BUDGET}")
    emax = max(max(t.cos_exps + t.sin_exps, default=0) for t in terms) or 1
    fact = [1] * (emax * n_max + 1)
    for i in range(1, len(fact)):
        fact[i] = fact[i - 1] * i
    powc = []
    for t in terms:
        row = [Q(1)]
        for _ in range(n_max):
            row.append(row[-1] * t.coef)
        powc.append(row)
    classes = _parity_classes(terms, nvars, n_max)
    cexp = [t.cos_exps for t in terms]
    sexp = [t.sin_exps for t in terms]
    acos = [0] * nvars
    asin = [0] * nvars
    mcache: dict[tuple[int, int], Fraction] = {}

    def moment(a: int, b: int) -> Fraction:
        m = mcache.get((a, b))
        if m is None:
            al, be = a >> 1, b >> 1
            m = Q(fact[a] * fact[b], 4 ** (al + be) * fact[al] * fact[be] * fact[al + be])
            mcache[(a, b)] = m
        return m

    out = [Q(1)]
    for n in range(1, n_max + 1):
        total = Q(0)

        def rec(i: int, left: int, den: int, coef: Fraction, r: tuple[int, ...]) -> Fraction:
            # left counts remaining (n - sum r_i)/2 in doubled steps
            sub = Q(0)
            last = i == k - 1
            qs = (left,) if last else range(left + 1)
            for q in qs:
                p = 2 * q + r[i]
                w = coef * powc[i][p]
                if w == 0:
                    continue
                for v in range(nvars):
                    acos[v] += p * cexp[i][v]
                    asin[v] += p * sexp[i][v]
                if last:
                    m = w * Q(fact[n] // (den * fact[p]))
                    for v in range(nvars):
                        m *= moment(acos[v], asin[v])
                    sub += m
                else:
                    sub += rec(i + 1, left - q, den * fact[p], w, r)
                for v in range(nvars):
                    acos[v] -= p * cexp[i][v]
                    asin[v] -= p * sexp[i][v]
            return sub

        for r in classes:
            base = sum(r)
            if base > n or (n - base) % 2:
                continue
            total += rec(0, (n - base) // 2, 1, Q(1), r)
        out.append(total)
    return out


def _cosine_expand(kernel: Mapping[tuple[int, ...], int]) -> tuple[list[CosTerm], int]:
    """K(e^{ik}) as cosine/sine product terms and a common scale.

    Each monomial expands through (cos k_i + i sin(+-k_i))^|e_i|; the real
    part is kept and the imaginary part must cancel.  The gcd of the
    coefficients is factored out as the scale, and the terms are sorted
    by (cos_exps, sin_exps), descending.
    """
    real: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    imag: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for e, c in kernel.items():
        # (cos exponents, sin exponents) -> coefficient in units of i^(sum of sin exponents)
        acc = {((), ()): c}
        for x in e:
            a, sign = abs(x), (1 if x > 0 else -1)
            nxt: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
            for (ce, se), v in acc.items():
                for j in range(a + 1):
                    key = (ce + (a - j,), se + (j,))
                    nxt[key] = nxt.get(key, 0) + v * comb(a, j) * sign ** j
            acc = nxt
        for key, v in acc.items():
            j = sum(key[1])
            part = imag if j % 2 else real
            part[key] = part.get(key, 0) + v * (-1) ** (j // 2)
    if any(imag.values()):
        raise UnsupportedTerm("kernel is not real on the torus")
    real = {k: v for k, v in real.items() if v}
    scale = gcd(*real.values())
    return [CosTerm(Q(v // scale), ce, se) for (ce, se), v in sorted(real.items(), reverse=True)], scale


def cosine_structure(name: str) -> tuple[list[CosTerm], int]:
    """The structure function lambda of a named lattice (see parse_lattice)
    as a term list, with the scale s such that K(e^{ik}) = s * lambda,
    so CT[K^n] = s^n <lambda^n>."""
    spec = parse_lattice(name)
    if spec is None:
        raise UnsupportedTerm(f"no structure named {name!r}")
    return _cosine_expand(spec.kernel_terms())


def cosine_integer_table(name: str, n_max: int) -> list[int]:
    """CT[K^n], n = 0..n_max, for a named lattice via the generic engine:
    the n-step return counts on one-site lattices, the 2n-step ones on
    two-site lattices."""
    terms, s = cosine_structure(name)
    moments = cosine_kernel_coeffs(terms, n_max)
    out = []
    for n, m in enumerate(moments):
        v = m * s ** n
        if v.denominator != 1:
            raise UnsupportedTerm(f"non-integer count at n={n} for {name}")
        out.append(v.numerator)
    return out


# ---------------------------------------------------------------------------
# dispatch


def coeffs(spec: LatticeSpec, n_max: int) -> CoeffTable:
    """Return-count table for the family, by its row's formula generator."""
    return CoeffTable(spec, tuple(spec.row.formula(spec.dim, n_max)))


# ---------------------------------------------------------------------------
# cross-family relations


def relation_triangular_from_honeycomb(n_max: int) -> VerifyReport:
    """Triangular counts from honeycomb ones through the binomial
    transform with weight (-3)^(n-j), checked exactly against the counts
    derived from the triangular step kernel."""
    tri = cosine_integer_table("triangular", n_max)
    return compare(tri, _pullback(2, n_max), "triangular from honeycomb")


def relation_fcc_from_diamond(n_max: int) -> VerifyReport:
    """fcc counts from diamond ones, weight (-4)^(n-j), against the
    counts derived from the fcc step kernel."""
    fcc = cosine_integer_table("fcc3", n_max)
    return compare(fcc, _pullback(3, n_max), "fcc from diamond")


def relation_sc_from_hyperdiamond(d: int, n_max: int) -> VerifyReport:
    """Hypercubic a_{2n} = C(2n,n) S_n^(d), S_n^(d) the 2n-step count of
    the (d-1)-dim hyper-diamond walk, for d >= 2 and n <= n_max.

    The sc side is peeled from the sc kernel 2 e_1 by esym_table, not read
    from coeffs, whose sc table is this very product; the diamond side is
    structure_sums(d)."""
    sc_vals = esym_table(1, d, 2 * n_max)[::2]
    inner = structure_sums(d, n_max)
    derived = [comb(2 * n, n) * inner[n] for n in range(n_max + 1)]
    return compare(sc_vals, derived, f"sc d={d} from hyper-diamond d={d - 1}")


def hypergeometric_forms_check(n_max: int) -> VerifyReport:
    """The terminating-series forms of a_l for hypercubic d = 2, 3, 4.

    d=3 and d=4 follow the printed parameter lists; for d=2 the sum
    sum_j C(l,j)^2 is the Vandermonde 2F1(-l,-l;1;1) (the stray 1/2 in
    the printed parameter list does not reproduce C(2l,l) and is
    dropped).
    """
    s3, s4 = structure_sums(3, n_max), structure_sums(4, n_max)
    for l in range(n_max + 1):
        cl = comb(2 * l, l)
        # each sum has the upper parameter -l, so its terms past n = l are 0
        a2 = cl * sum(islice(hyper_terms([Q(-l), Q(-l)], [Q(1)]), l + 1))
        a3 = cl * sum(islice(hyper_terms([Q(1, 2), Q(-l), Q(-l)], [Q(1), Q(1)], 4), l + 1))
        a4 = cl * cl * sum(islice(hyper_terms([Q(1, 2), Q(-l), Q(-l), Q(-l)],
                                              [Q(1), Q(1), Q(1, 2) - l]), l + 1))
        if a2 != comb(2 * l, l) ** 2:
            return VerifyReport(False, n_max, l, "d=2 form")
        if a3 != cl * s3[l]:
            return VerifyReport(False, n_max, l, "d=3 form")
        if a4 != cl * s4[l]:
            return VerifyReport(False, n_max, l, "d=4 form")
    return VerifyReport(True, n_max, note="terminating pFq forms, d=2,3,4")
