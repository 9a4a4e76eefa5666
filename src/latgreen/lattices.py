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

The structure sums S_n^(d) = sum_m C(n,m)^2 S_m^(d-1), S_n^(1) = 1,
generate the hyper-diamond counts directly and enter the hypercubic and
fcc formulas; they are computed once per (d, N) by the recurrence.

Everything in this module is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, gcd, prod
from typing import Callable, Mapping, Sequence

from .errors import UnsupportedLattice, UnsupportedTerm
from .reports import VerifyReport
from .series import PowerSeries

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
    permutations and sign flips) or "permutation".
    """

    steps: Callable[[int], list[tuple[int, ...]]]
    steps_per_index: int
    symmetry: str
    fixed_dim: int | None = None
    two_site: bool = False


FAMILIES = {
    "honeycomb": Family(_forward, 2, "permutation", fixed_dim=2, two_site=True),
    "square": Family(lambda d: _signed(d, 1), 2, "hyperoctahedral", fixed_dim=2),
    "triangular": Family(lambda d: _signed(d, 1) + [(1, -1), (-1, 1)], 1, "permutation", fixed_dim=2),
    "diamond": Family(_forward, 2, "permutation", two_site=True),
    "sc": Family(lambda d: _signed(d, 1), 2, "hyperoctahedral"),
    "bcc": Family(lambda d: _signed(d, d), 2, "hyperoctahedral"),
    "fcc": Family(lambda d: _signed(d, 2), 1, "hyperoctahedral"),
    "sincos4": Family(lambda d: [e for e in _signed(d, d) if prod(e) > 0], 2, "permutation", fixed_dim=4),
    "triples4": Family(lambda d: _signed(d, 3), 2, "hyperoctahedral", fixed_dim=4),
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
    def even_only(self) -> bool:
        return self.steps_per_index == 2

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


def structure_sum(d: int, n: int) -> int:
    return structure_sums(d, n)[n]


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


def _square(n: int) -> int:
    return comb(2 * n, n) ** 2


def _triangular_table(n_max: int) -> list[int]:
    hb = [honeycomb_binomial_sum(j) for j in range(n_max + 1)]
    out = []
    for n in range(n_max + 1):
        out.append(sum(comb(n, j) * (-3) ** (n - j) * hb[j] for j in range(n + 1)))
    return out


def _fcc3_table(n_max: int) -> list[int]:
    dia = structure_sums(4, n_max)
    out = []
    for n in range(n_max + 1):
        out.append(sum(comb(n, j) * (-4) ** (n - j) * dia[j] for j in range(n + 1)))
    return out


def _even_binom(e: int) -> int:
    """C(e, e/2) for even e, else 0; the full-period cosine moment times 2^e."""
    if e % 2:
        return 0
    return comb(e, e // 2)


def fcc4_table(n_max: int) -> list[int]:
    """4d fcc return counts by exact multinomial expansion of the
    structure function, with the cosine integrals reduced variable by
    variable.

    lambda = sum_{i<j} c_i c_j; a_n = 4^n <lambda^n>.  Peeling off c_1
    and then c_2 leaves a two-variable kernel, and every complete term
    carries the same global power of two, so the whole computation is
    integer.  Cost is ~n_max^4 big-integer operations.
    """
    N = n_max
    C = [[comb(n, k) for k in range(n + 1)] for n in range(2 * N + 1)]
    EB = [_even_binom(e) for e in range(2 * N + 1)]

    # G2(A,B) = sum_g C(A,g) EB(g+B) EB(A-g+B): <(c3+c4)^A (c3 c4)^B> * 2^(A+2B)
    g2: dict[tuple[int, int], int] = {}

    def G2(A: int, B: int) -> int:
        key = (A, B)
        v = g2.get(key)
        if v is None:
            v = 0
            rowa = C[A]
            for g in range(A + 1):
                t = EB[g + B]
                if t:
                    u = EB[A - g + B]
                    if u:
                        v += rowa[g] * t * u
            g2[key] = v
        return v

    # G3(j,m) = <(c2+c3+c4)^j (c2c3+c2c4+c3c4)^m> * 2^(scaled)
    g3: dict[tuple[int, int], int] = {}

    def G3(j: int, m: int) -> int:
        key = (j, m)
        v = g3.get(key)
        if v is None:
            v = 0
            for alpha in range(j + 1):
                ca = C[j][alpha]
                for beta in range(m + 1):
                    w = EB[alpha + beta]
                    if w:
                        v += ca * C[m][beta] * w * G2(j - alpha + beta, m - beta)
            g3[key] = v
        return v

    out = []
    for n in range(N + 1):
        acc = 0
        for j in range(0, n + 1, 2):
            acc += C[n][j] * EB[j] * G3(j, n - j)
        out.append(acc)
    return out


def fcc4_printed_sum(n: int) -> int:
    """The five-fold binomial sum printed for the 4d fcc coefficients,
    evaluated literally (out-of-range binomials are zero).

    Kept for the record: it does NOT reproduce the return counts (it
    gives 2 at n=1 and 18 at n=2, against 0 and 24), so the production
    generator above reduces the structure-function integral directly
    instead.
    """
    total = 0
    for i in range(n + 1):
        for j in range(n - i + 1):
            for k in range(n - i - j + 1):
                for l in range(n - i - j - k + 1):
                    m = n - i - j - k - l
                    lm = l + m
                    t = comb(2 * i, i) * comb(2 * j, j) * comb(2 * k, k)
                    t *= comb(lm, m) * comb(2 * lm, lm) ** 2
                    t *= _binom0(n, 2 * lm)
                    t *= _binom0(n - 2 * lm, n - 2 * i - lm)
                    t *= _binom0(2 * i - lm, i - k - l)
                    total += t
    return total


def _binom0(a: int, b: int) -> int:
    if a < 0 or b < 0 or b > a:
        return 0
    return comb(a, b)


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
    a 2^k-fold saving for a k-term structure at large n.
    """
    if not terms:
        raise UnsupportedTerm("empty structure")
    nvars = len(terms[0].cos_exps)
    for t in terms:
        if len(t.cos_exps) != nvars:
            raise UnsupportedTerm("terms disagree on variable count")
    k = len(terms)
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
    """Return-count table for the family, by its closed-form generator."""
    f, d = spec.family, spec.dim
    vals: Sequence[int]
    if f == "honeycomb":
        vals = [honeycomb_binomial_sum(n) for n in range(n_max + 1)]
    elif f == "square":
        vals = [_square(n) for n in range(n_max + 1)]
    elif f == "triangular":
        vals = _triangular_table(n_max)
    elif f == "diamond":
        vals = structure_sums(d + 1, n_max)
    elif f == "sc":
        s = structure_sums(d, n_max)
        vals = [comb(2 * n, n) * s[n] for n in range(n_max + 1)]
    elif f == "bcc":
        vals = [comb(2 * n, n) ** d for n in range(n_max + 1)]
    elif f == "fcc":
        if d == 2:
            # degenerate: the 2d face-centred lattice is the square lattice
            vals = [0 if n % 2 else _square(n // 2) for n in range(n_max + 1)]
        elif d == 3:
            vals = _fcc3_table(n_max)
        elif d == 4:
            vals = fcc4_table(n_max)
        else:
            raise UnsupportedLattice("no closed-form fcc generator for d >= 5; use the constant-term route")
    elif f == "sincos4":
        s = structure_sums(4, n_max)
        vals = [comb(2 * n, n) * s[n] for n in range(n_max + 1)]
    elif f == "triples4":
        vals = triples4_table(n_max)
    else:  # pragma: no cover
        raise UnsupportedLattice(f)
    return CoeffTable(spec, tuple(vals))


# ---------------------------------------------------------------------------
# cross-family relations


def relation_triangular_from_honeycomb(n_max: int) -> VerifyReport:
    """Triangular counts from honeycomb ones through the binomial
    transform with weight (-3)^(n-j), checked exactly against the counts
    derived from the triangular step kernel."""
    tri = cosine_integer_table("triangular", n_max)
    derived = _triangular_table(n_max)
    return _compare(tri, derived, "triangular from honeycomb")


def relation_fcc_from_diamond(n_max: int) -> VerifyReport:
    """fcc counts from diamond ones, weight (-4)^(n-j), against the
    counts derived from the fcc step kernel."""
    fcc = cosine_integer_table("fcc3", n_max)
    derived = _fcc3_table(n_max)
    return _compare(fcc, derived, "fcc from diamond")


def relation_sc_from_hyperdiamond(d: int, n_max: int) -> VerifyReport:
    """Hypercubic a_{2n} = C(2n,n) * (2n-step counts of the (d-1)-dim
    hyper-diamond walk), the latter from independent finite-sum forms
    where available and from the recurrence otherwise."""
    sc_vals = coeffs(LatticeSpec("sc", d), n_max).values
    if d == 2:
        inner: list[int] = [comb(2 * n, n) for n in range(n_max + 1)]
    elif d == 3:
        inner = [honeycomb_binomial_sum(n) for n in range(n_max + 1)]
    elif d == 4:
        inner = [diamond3_binomial_sum(n) for n in range(n_max + 1)]
    elif d == 5:
        inner = [s5_double_sum(n) for n in range(n_max + 1)]
    else:
        inner = structure_sums(d, n_max)
    derived = [comb(2 * n, n) * inner[n] for n in range(n_max + 1)]
    return _compare(sc_vals, derived, f"sc d={d} from hyper-diamond d={d - 1}")


def hypergeometric_forms_check(n_max: int) -> VerifyReport:
    """The terminating-series forms of a_l for hypercubic d = 2, 3, 4.

    d=3 and d=4 follow the printed parameter lists; for d=2 the sum
    sum_j C(l,j)^2 is the Vandermonde 2F1(-l,-l;1;1) (the stray 1/2 in
    the printed parameter list does not reproduce C(2l,l) and is
    dropped).
    """
    for l in range(n_max + 1):
        cl = comb(2 * l, l)
        a2 = cl * _pfq_finite([Q(-l), Q(-l)], [Q(1)], Q(1))
        a3 = cl * _pfq_finite([Q(1, 2), Q(-l), Q(-l)], [Q(1), Q(1)], Q(4))
        a4 = cl * cl * _pfq_finite(
            [Q(1, 2), Q(-l), Q(-l), Q(-l)], [Q(1), Q(1), Q(1, 2) - l], Q(1)
        )
        if a2 != comb(2 * l, l) ** 2:
            return VerifyReport(False, n_max, l, "d=2 form")
        if a3 != cl * structure_sum(3, l):
            return VerifyReport(False, n_max, l, "d=3 form")
        if a4 != cl * structure_sum(4, l):
            return VerifyReport(False, n_max, l, "d=4 form")
    return VerifyReport(True, n_max, note="terminating pFq forms, d=2,3,4")


def _pfq_finite(uppers: list[Fraction], lowers: list[Fraction], x: Fraction) -> Fraction:
    """Terminating hypergeometric sum; requires some upper parameter a
    nonpositive integer."""
    stop = min((-int(a) for a in uppers if a <= 0 and a.denominator == 1), default=None)
    if stop is None:
        raise ValueError("series does not terminate")
    total = Q(0)
    term = Q(1)
    for j in range(stop + 1):
        total += term
        num = Q(1)
        for a in uppers:
            num *= a + j
        den = Q(1)
        for b in lowers:
            den *= b + j
        den *= j + 1
        if den == 0:
            break
        term = term * x * num / den
    return total


def s5_forms_check(n_max: int) -> VerifyReport:
    """Double-sum forms of S_n^(5) against the recurrence."""
    rec = structure_sums(5, n_max)
    for n in range(n_max + 1):
        if s5_double_sum(n) != rec[n]:
            return VerifyReport(False, n_max, n, "S^(5) double sum")
    return VerifyReport(True, n_max, note="S^(5) double sum == recurrence")


def _compare(a: Sequence[int], b: Sequence[int], note: str) -> VerifyReport:
    n = min(len(a), len(b)) - 1
    for i in range(n + 1):
        if a[i] != b[i]:
            return VerifyReport(False, n, i, note)
    return VerifyReport(True, n, note=note)
