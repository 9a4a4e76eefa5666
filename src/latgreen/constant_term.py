"""Laurent-polynomial constant-term engine and the kernel registry.

CT[K^n] for a kernel K counts n-step returns combinatorially: each
monomial of K is a step, its exponent vector the displacement, and the
constant term collects the walks whose displacements cancel.  This is
the second, independent source for every coefficient table.

ct_sequence walks the class masses of K^m under the kernel's symmetry
group only up to m = ceil(n/2) and reads each CT[K^n] off two adjacent
powers, pairing every class with its mirror class.  class_bound counts,
before any work, how many classes that walk can hold at its top power.
One cap, CT_WORK_CAP, bounds the walk's work (powers x classes x kernel
terms) and with it the classes held; a request past it raises ResourceLimit.

The registry kernels are read from the family definitions in
latgreen.lattices.  The diamond form (1 + sum_i x_i)(1 + sum_i 1/x_i)
generalizes the honeycomb kernel (1+x+y)(1+1/x+1/y); its constant terms
are the squared-multinomial sums S_n^(d+1) (pair the forward composition
with the backward one).  The ad-hoc printed 3d/4d diamond kernels are
kept in a separate registry and proven equivalent through
kernel_equivalence rather than trusted.  Any other kernel is a
LaurentPoly built from its {exponent vector: coefficient} dict, with no
family binding, and ct_sequence gives its raw CT sequence.

Two-site kernels (honeycomb, diamond) advance two lattice steps per
kernel power, so CT[K^n] is the 2n-step count; the family's LatticeSpec
holds that indexing and the kernel mass it implies.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, gcd, prod
from operator import add

from .errors import ResourceLimit, UnsupportedTerm
from .lattices import LatticeSpec
from .reports import VerifyReport, compare

CT_WORK_CAP = 10 ** 8  # powers x classes x kernel terms one walk may cost


class LaurentPoly:
    """Integer Laurent polynomial, exponent vector -> coefficient."""

    __slots__ = ("terms", "nvars")

    def __init__(self, terms: dict[tuple[int, ...], int], nvars: int | None = None):
        clean = {k: v for k, v in terms.items() if v}
        if nvars is None:
            if not clean:
                raise UnsupportedTerm("cannot infer variable count of the zero polynomial")
            nvars = len(next(iter(clean)))
        for k in clean:
            if len(k) != nvars:
                raise UnsupportedTerm("inconsistent exponent vector lengths")
        self.terms = clean
        self.nvars = nvars

    @classmethod
    def constant(cls, c: int, nvars: int) -> "LaurentPoly":
        return cls({(0,) * nvars: c} if c else {}, nvars)

    @classmethod
    def var(cls, i: int, nvars: int, power: int = 1) -> "LaurentPoly":
        e = [0] * nvars
        e[i] = power
        return cls({tuple(e): 1}, nvars)

    @property
    def constant_term(self) -> int:
        return self.terms.get((0,) * self.nvars, 0)

    def eval_ones(self) -> int:
        return sum(self.terms.values())

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(other, self.nvars)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return LaurentPoly(out, self.nvars)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({k: v * other for k, v in self.terms.items()}, self.nvars)
        out: dict[tuple[int, ...], int] = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                k = tuple(a + b for a, b in zip(ka, kb))
                out[k] = out.get(k, 0) + va * vb
        return LaurentPoly(out, self.nvars)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"LaurentPoly({self.terms!r})"


def _generators(nvars: int, symmetry: str):
    """Coordinate maps that generate the group: one transposition and
    one d-cycle generate all permutations, and one sign flip added to
    them generates the hyperoctahedral group."""
    if symmetry == "none":
        return []
    gens = []
    if nvars > 1:
        gens += [lambda e: (e[1], e[0]) + e[2:], lambda e: e[1:] + e[:1]]
    if symmetry == "hyperoctahedral":
        gens.append(lambda e: (-e[0],) + e[1:])
    return gens


def is_invariant(poly: LaurentPoly, symmetry: str) -> bool:
    """Is poly invariant under the group?  Checking the generators suffices."""
    return all({g(k): v for k, v in poly.terms.items()} == poly.terms
               for g in _generators(poly.nvars, symmetry))


@dataclass(frozen=True)
class KernelSpec:
    """A CT kernel plus its bookkeeping.

    spec is the lattice the kernel walks on, or None for a kernel with
    no family binding.  A bound kernel must have the mass of the
    family's own kernel (spec.kernel_terms()), and its CT table takes
    the indexing of spec.  symmetry is the group under which the
    expanded kernel is invariant, used to collapse the walk distribution
    to canonical classes: "hyperoctahedral" (coordinate permutations and
    sign flips), "permutation", or "none".  Both claims are checked at
    construction.
    """

    kernel: LaurentPoly
    spec: LatticeSpec | None = None
    symmetry: str = "none"
    label: str = ""

    def __post_init__(self):
        if self.symmetry not in ("none", "permutation", "hyperoctahedral"):
            raise UnsupportedTerm(f"unknown symmetry {self.symmetry!r}")
        if not is_invariant(self.kernel, self.symmetry):
            raise UnsupportedTerm(f"kernel is not {self.symmetry}-invariant")
        if self.spec is not None:
            want = sum(self.spec.kernel_terms().values())
            if self.kernel.eval_ones() != want:
                raise UnsupportedTerm(
                    f"kernel mass {self.kernel.eval_ones()} != expected {want} for {self.spec.name}"
                )


def kernel(family: str, d: int) -> KernelSpec:
    """The registry kernel for a lattice family at dimension d."""
    spec = LatticeSpec(family, d)
    return KernelSpec(LaurentPoly(spec.kernel_terms(), d), spec, spec.row.symmetry, spec.name)


def printed_kernels() -> dict[str, KernelSpec]:
    """The kernels exactly as listed in the original tables, including
    the product and sum square forms and the ad-hoc 3d/4d diamond ones."""
    x2, y2 = (LaurentPoly.var(i, 2) for i in range(2))
    ix2, iy2 = (LaurentPoly.var(i, 2, -1) for i in range(2))
    x3, y3, z3 = (LaurentPoly.var(i, 3) for i in range(3))
    ix3, iy3, iz3 = (LaurentPoly.var(i, 3, -1) for i in range(3))
    x4, y4, z4, w4 = (LaurentPoly.var(i, 4) for i in range(4))
    ix4, iy4, iz4, iw4 = (LaurentPoly.var(i, 4, -1) for i in range(4))

    square = LatticeSpec("square", 2)
    out = {}
    out["square-product"] = KernelSpec((x2 + ix2) * (y2 + iy2), square, "hyperoctahedral",
                                       "square-product")
    out["square-sum"] = KernelSpec(x2 + ix2 + y2 + iy2, square, "hyperoctahedral", "square-sum")
    out["triangular"] = kernel("triangular", 2)
    out["honeycomb"] = KernelSpec((1 + x2 + y2) * (1 + ix2 + iy2), LatticeSpec("honeycomb", 2),
                                  "permutation", "honeycomb")
    out["diamond3"] = KernelSpec(
        (ix3 + x3 + z3 * (y3 + iy3)) * (x3 + ix3 + iz3 * (y3 + iy3)),
        LatticeSpec("diamond", 3), "none", "diamond3-printed")
    out["sc3"] = kernel("sc", 3)
    out["bcc3"] = KernelSpec((x3 + ix3) * (y3 + iy3) * (z3 + iz3), LatticeSpec("bcc", 3),
                             "hyperoctahedral", "bcc3")
    out["fcc3"] = kernel("fcc", 3)
    out["diamond4"] = KernelSpec(
        (ix4 + x4 + z4 * y4 + z4 * iy4 + w4 * ix4) * (x4 + ix4 + y4 * iz4 + iy4 * iz4 + x4 * iw4),
        LatticeSpec("diamond", 4), "none", "diamond4-printed")
    out["sc4"] = kernel("sc", 4)
    out["bcc4"] = KernelSpec((x4 + ix4) * (y4 + iy4) * (z4 + iz4) * (w4 + iw4),
                             LatticeSpec("bcc", 4), "hyperoctahedral", "bcc4")
    out["fcc4"] = KernelSpec(
        (x4 + ix4) * (y4 + iy4)
        + (x4 + ix4) * (z4 + iz4)
        + (z4 + iz4) * (y4 + iy4)
        + (w4 + iw4) * (x4 + ix4 + y4 + iy4 + z4 + iz4),
        LatticeSpec("fcc", 4), "hyperoctahedral", "fcc4")
    return out


# ---------------------------------------------------------------------------
# CT extraction


def _canon(symmetry: str):
    """The canonical class of an exponent vector, given as any iterable."""
    if symmetry == "hyperoctahedral":
        return lambda e: tuple(sorted(map(abs, e)))
    if symmetry == "permutation":
        return lambda e: tuple(sorted(e))
    return tuple


def _mirror_and_orbit(symmetry: str, nvars: int):
    """For a canonical class k: canon(-k) and the size of k's orbit.

    The orbit of a sorted k under coordinate permutations has
    d!/prod(m!) members, m running over the multiplicities of its
    entries; sign flips multiply that by 2 per nonzero entry."""
    if symmetry == "none":
        return lambda k: (tuple(-x for x in k), 1)
    full = factorial(nvars)

    def permuted(k):
        size, run = full, 1
        for a, b in zip(k, k[1:]):
            run = run + 1 if a == b else 1
            size //= run
        return size

    if symmetry == "permutation":
        # sorted ascending, so -k sorted is k negated and reversed
        return lambda k: (tuple(-x for x in reversed(k)), permuted(k))
    # sorted |entries| are their own mirror; zeros sort first
    return lambda k: (k, permuted(k) << (nvars - k.count(0)))


def _entry_runs(K: LaurentPoly, power: int) -> list[list[tuple[int, int, int]]]:
    """Per coordinate i, the entries e_i of K^power's exponents allowed by
    |e_i| <= power * r_i and e_i = power * c_i mod g_i, where r_i is the
    largest |e_i| over K's exponents, c_i any one of them and g_i the gcd
    of their differences.  Each is given as runs (a, g, n) of |e_i|, the
    n values a, a + g, ..., a + (n-1) g: first e_i >= 0, then e_i < 0."""
    exps = list(K.terms)
    out = []
    for i in range(K.nvars):
        g = 0
        for e in exps:
            g = gcd(g, e[i] - exps[0][i])
        base, reach = power * exps[0][i], power * max(abs(e[i]) for e in exps)
        if g == 0:
            runs = [(abs(base), 1, 1)]
        else:
            runs = [(a, g, (reach - a) // g + 1) for a in (base % g, -base % g or g) if a <= reach]
        out.append(runs)
    return out


def _times_gauss(f: list[int], run: tuple[int, int, int], i: int) -> list[int]:
    """f times the generating function, by sum, of the multisets of i values
    of the run: x^(i a) times the Gaussian binomial [n-1+i choose i] in x^g,
    applied as i factors (1 - x^(g (n-1+m))) / (1 - x^(g m)).  Truncated
    to the length of f."""
    a, g, n = run
    top = len(f) - 1
    if i * a > top:
        return [0] * (top + 1)
    u = [0] * (i * a) + f[: top + 1 - i * a]
    for m in range(1, i + 1):
        k = g * (n - 1 + m)
        for s in range(top, k - 1, -1):
            u[s] -= u[s - k]
        k = g * m
        for s in range(k, top + 1):
            u[s] += u[s - k]
    return u


def class_bound(kspec: KernelSpec, power: int, cap: int | None = None) -> int:
    """An upper bound on the canonical classes ct_sequence holds at a power.

    Every exponent vector e of K^power has |e|_1 <= power * rho, where
    rho is the largest |e|_1 over K's exponents, and entries from
    _entry_runs.  This counts the canonical classes of those vectors
    (vectors under no symmetry, multisets of entries under permutations,
    of |entries| under sign flips too) by generating functions in x^|e|_1,
    truncated past power * rho.  With cap, when the classes whose entries
    all have |e_i| <= power * rho / d (a closed-form count, at least 1)
    already number more than cap, that count is returned instead."""
    K, d = kspec.kernel, kspec.kernel.nvars
    top = power * max(sum(map(abs, e)) for e in K.terms)
    runs = _entry_runs(K, power)
    if kspec.symmetry == "hyperoctahedral":
        runs = [r[:1] for r in runs]     # |e_i| >= 0 covers e_i < 0 as well
    # the classes with every |e_i| <= top // d, all within |e|_1 <= top
    low = [sum(min(n, (top // d - a) // g + 1) for a, g, n in r if a <= top // d) for r in runs]
    floor = max(1, prod(low) if kspec.symmetry == "none" else comb(low[0] + d - 1, d))
    if cap is not None and floor > cap:
        return floor
    if kspec.symmetry == "none":
        ways = [1] + [0] * top
        for r in runs:
            parts = [_times_gauss(ways, run, 1) for run in r]
            ways = [sum(col) for col in zip(*parts)]
        return sum(ways)
    # f[j]: multisets of j entries from the runs so far, by sum of |entries|
    f = [[1] + [0] * top] + [[0] * (top + 1) for _ in range(d)]
    for run in runs[0]:               # the same for every coordinate under the group
        f = [[sum(col) for col in zip(*(_times_gauss(f[j - i], run, i) for i in range(j + 1)))]
             for j in range(d + 1)]
    return sum(f[d])


def ct_sequence(kspec: KernelSpec, n_max: int) -> list[int]:
    """CT[K^n] for n = 0..n_max, from the powers of K up to M = ceil(n_max/2).

    For a + b = n, CT[K^n] = sum_e [K^a]_e [K^b]_(-e): the walks of n
    steps that return, split after a steps.  The walk holds the total
    mass A_k of each canonical class k under the kernel's symmetry
    group (pushing class mass from one representative is exact, since
    every member of a class scatters into the same classes with the same
    weights).  The members of k share one coefficient A_k/|orbit k|, and
    their negatives make up the class canon(-k), of the same orbit size,
    whose members share A'_canon(-k)/|orbit k| in the other power.  The
    |orbit k| pairs in class k therefore give

        CT[K^(a+b)] = sum_k A^(a)_k A^(b)_canon(-k) / |orbit k|,

    so power m yields CT[K^(2m)] (a = b = m) and CT[K^(2m-1)]
    (a = m, b = m - 1) in one pass over its classes; only powers m - 1
    and m are held.  The lookup at canon(-k) keeps this exact for
    kernels with K(1/x) != K(x).

    Raises ResourceLimit before any work when M x class_bound at power M
    x the kernel's term count, the walk's work bound, exceeds CT_WORK_CAP;
    class_bound stops counting once the classes alone pass that cap.
    """
    K = kspec.kernel
    half = (n_max + 1) // 2
    unit = max(1, half * len(K.terms))
    classes = class_bound(kspec, half, CT_WORK_CAP // unit)
    if unit * classes > CT_WORK_CAP:
        raise ResourceLimit(f"CT to n = {n_max} walks {half} powers over a class bound "
                            f"of at least {classes} classes and {len(K.terms)} kernel "
                            f"terms, over the work cap of {CT_WORK_CAP}")
    canon = _canon(kspec.symmetry)
    pair = _mirror_and_orbit(kspec.symmetry, K.nvars)
    steps = list(K.terms.items())
    cur = {(0,) * K.nvars: 1}
    out = [1]
    for _ in range(half):
        nxt: dict[tuple[int, ...], int] = {}
        for cls, mass in cur.items():
            moves: dict[tuple[int, ...], int] = {}
            for ek, ck in steps:
                key = canon(map(add, cls, ek))
                moves[key] = moves.get(key, 0) + ck
            for key, w in moves.items():
                nxt[key] = nxt.get(key, 0) + mass * w
        prev, cur = cur, nxt
        odd = even = 0
        for cls, mass in cur.items():
            neg, size = pair(cls)
            share, rest = divmod(mass, size)
            if rest:
                raise ArithmeticError(f"class {cls} mass {mass} is not a multiple of "
                                      f"its orbit size {size}")
            odd += share * prev.get(neg, 0)
            even += share * cur.get(neg, 0)
        out += [odd, even]
    return out[: n_max + 1]


def ct_series(kspec: KernelSpec, n_max: int) -> list[int]:
    """Coefficient table by constant terms, indexed as kspec.spec indexes
    the closed-form tables: CT[K^(p n)] at index n, with p its
    powers_per_index (2 on even-only families, 1 elsewhere).  Unbound
    kernels report the raw sequence."""
    p = kspec.spec.powers_per_index if kspec.spec else 1
    return ct_sequence(kspec, p * n_max)[::p]


def kernel_equivalence(k1: KernelSpec, k2: KernelSpec, n_max: int) -> VerifyReport:
    """Do the two kernels generate identical CT sequences through n_max?"""
    return compare(ct_sequence(k1, n_max), ct_sequence(k2, n_max),
                   f"{k1.label or 'k1'} vs {k2.label or 'k2'}")

