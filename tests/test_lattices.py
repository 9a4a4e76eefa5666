"""Coefficient generators against brute-force walk counts and frozen values."""

from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial

import pytest

from latgreen import lattices
from latgreen.errors import UnsupportedLattice, UnsupportedTerm
from latgreen.lattices import (
    CosTerm,
    _cosine_expand,
    LatticeSpec,
    coeffs,
    cosine_integer_table,
    cosine_kernel_coeffs,
    cosine_structure,
    diamond3_binomial_sum,
    fcc4_printed_sum,
    fcc4_table,
    honeycomb_binomial_sum,
    hypergeometric_forms_check,
    parse_lattice,
    relation_fcc_from_diamond,
    relation_sc_from_hyperdiamond,
    relation_triangular_from_honeycomb,
    s5_double_sum,
    s5_forms_check,
    structure_sum,
    structure_sums,
    triples4_table,
)

Q = Fraction


# -- brute-force oracles ----------------------------------------------------


def _convolve(dist, steps):
    out = {}
    for pos, cnt in dist.items():
        for s in steps:
            key = tuple(p + q for p, q in zip(pos, s))
            out[key] = out.get(key, 0) + cnt
    return out


def walk_counts(steps, n_max):
    """Closed n-step walk counts, n = 0..n_max, by direct convolution."""
    d = len(steps[0])
    origin = (0,) * d
    dist = {origin: 1}
    out = [1]
    for _ in range(n_max):
        dist = _convolve(dist, steps)
        out.append(dist.get(origin, 0))
    return out


def two_site_walk_counts(a_steps, n_max):
    """2n-step returns for a walk alternating step set A and -A."""
    d = len(a_steps[0])
    origin = (0,) * d
    b_steps = [tuple(-x for x in s) for s in a_steps]
    dist = {origin: 1}
    out = [1]
    for _ in range(n_max):
        dist = _convolve(_convolve(dist, a_steps), b_steps)
        out.append(dist.get(origin, 0))
    return out


def signed(*vecs):
    out = set()
    for v in vecs:
        support = [i for i, x in enumerate(v) if x]
        for signs in product((1, -1), repeat=len(support)):
            w = list(v)
            for i, s in zip(support, signs):
                w[i] = v[i] * s
            out.add(tuple(w))
    return sorted(out)


def perms_signed(v):
    out = set()
    for p in set(permutations(v)):
        out.update(signed(p))
    return sorted(out)


# -- structure sums ---------------------------------------------------------


def test_structure_sum_small_values():
    assert structure_sums(2, 4) == [1, 2, 6, 20, 70]
    assert structure_sum(3, 2) == 15
    assert structure_sum(3, 3) == 93
    assert [structure_sum(4, n) for n in (1, 2, 3)] == [4, 28, 256]


def test_structure_sum_binomial_forms():
    for n in range(12):
        assert honeycomb_binomial_sum(n) == structure_sum(3, n)
        assert diamond3_binomial_sum(n) == structure_sum(4, n)


def test_s5_double_sum():
    assert s5_forms_check(10)


# -- 2d families ------------------------------------------------------------


def test_square_table():
    t = coeffs(LatticeSpec("square", 2), 6)
    brute = walk_counts(signed((1, 0), (0, 1)), 12)
    assert list(t.values) == [brute[2 * n] for n in range(7)]
    assert t[1] == 4 and t[2] == 36


def test_honeycomb_table():
    t = coeffs(LatticeSpec("honeycomb", 2), 6)
    brute = two_site_walk_counts([(0, 0), (1, 0), (0, 1)], 6)
    assert list(t.values) == brute
    assert t[1] == 3


def test_triangular_table():
    t = coeffs(LatticeSpec("triangular", 2), 8)
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]
    assert list(t.values) == walk_counts(steps, 8)
    assert list(t.values[:5]) == [1, 0, 6, 12, 90]


# -- 3d families ------------------------------------------------------------


def test_sc3_table():
    t = coeffs(LatticeSpec("sc", 3), 5)
    brute = walk_counts(signed((1, 0, 0), (0, 1, 0), (0, 0, 1)), 10)
    assert list(t.values) == [brute[2 * n] for n in range(6)]
    assert list(t.values[:4]) == [1, 6, 90, 1860]


def test_bcc3_table():
    t = coeffs(LatticeSpec("bcc", 3), 5)
    brute = walk_counts(signed((1, 1, 1)), 10)
    assert list(t.values) == [brute[2 * n] for n in range(6)]
    assert t[1] == 8 and t[2] == 216


def test_fcc3_table():
    t = coeffs(LatticeSpec("fcc", 3), 7)
    steps = signed((1, 1, 0), (1, 0, 1), (0, 1, 1))
    assert len(steps) == 12
    assert list(t.values) == walk_counts(steps, 7)
    assert list(t.values[:5]) == [1, 0, 12, 48, 540]


def test_diamond3_table():
    t = coeffs(LatticeSpec("diamond", 3), 6)
    brute = two_site_walk_counts([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 6)
    assert list(t.values) == brute
    assert t[1] == 4


# -- 4d families ------------------------------------------------------------


def test_fcc4_table_brute_force():
    steps = perms_signed((1, 1, 0, 0))
    assert len(steps) == 24
    brute = walk_counts(steps, 6)
    assert fcc4_table(6) == brute
    assert brute[:4] == [1, 0, 24, 192]


def test_fcc4_printed_sum_does_not_count_returns():
    # the literal five-fold sum disagrees with the walk counts from n=1 on,
    # which is why coeffs() uses the structure-function reduction instead
    assert fcc4_printed_sum(0) == 1
    assert fcc4_printed_sum(1) == 2  # true count is 0
    assert fcc4_printed_sum(2) == 18  # true count is 24


def test_diamond4_table():
    t = coeffs(LatticeSpec("diamond", 4), 5)
    a = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert list(t.values) == two_site_walk_counts(a, 5)
    assert t[1] == 5


def test_sc4_bcc4_tables():
    sc = coeffs(LatticeSpec("sc", 4), 4)
    assert list(sc.values) == [1, 8, 168, 5120, 190120]
    bcc = coeffs(LatticeSpec("bcc", 4), 3)
    brute = walk_counts(signed((1, 1, 1, 1)), 6)
    assert list(bcc.values) == [brute[2 * n] for n in range(4)]


def test_sincos4_table():
    t = coeffs(LatticeSpec("sincos4", 4), 5)
    steps = [s for s in signed((1, 1, 1, 1)) if s[0] * s[1] * s[2] * s[3] > 0]
    assert len(steps) == 8
    brute = walk_counts(steps, 10)
    assert list(t.values) == [brute[2 * n] for n in range(6)]
    # same counts as the 4d hypercubic lattice
    assert list(t.values) == list(coeffs(LatticeSpec("sc", 4), 5).values)


def test_triples4_table():
    steps = perms_signed((1, 1, 1, 0))
    assert len(steps) == 32
    brute = walk_counts(steps, 8)
    assert triples4_table(4) == [brute[2 * n] for n in range(5)]
    assert triples4_table(1) == [1, 32]


def test_triples4_table_matches_cosine_engine():
    assert triples4_table(20) == cosine_integer_table("triples4", 40)[::2]


def test_triples4_table_matches_composition_sum():
    # a_{2N} = (2N)! sum over compositions r1+..+r4 = N of
    # prod_i C(2N-2r_i, N-r_i)/(2r_i)!, summed literally
    def literal(N):
        total = Q(0)
        for r1 in range(N + 1):
            for r2 in range(N + 1 - r1):
                for r3 in range(N + 1 - r1 - r2):
                    term = Q(factorial(2 * N))
                    for r in (r1, r2, r3, N - r1 - r2 - r3):
                        term *= Q(comb(2 * N - 2 * r, N - r), factorial(2 * r))
                    total += term
        assert total.denominator == 1
        return total.numerator

    assert triples4_table(25) == [literal(N) for N in range(26)]


def test_fcc2_is_square():
    t = coeffs(LatticeSpec("fcc", 2), 8)
    sq = coeffs(LatticeSpec("square", 2), 4)
    assert all(t[2 * n] == sq[n] for n in range(5))
    assert all(t[2 * n + 1] == 0 for n in range(4))


def test_fcc5_unsupported():
    with pytest.raises(UnsupportedLattice):
        coeffs(LatticeSpec("fcc", 5), 4)


def test_coordination_numbers():
    assert LatticeSpec("honeycomb", 2).coordination == 3
    assert LatticeSpec("triangular", 2).coordination == 6
    assert LatticeSpec("diamond", 3).coordination == 4
    assert LatticeSpec("sc", 3).coordination == 6
    assert LatticeSpec("bcc", 3).coordination == 8
    assert LatticeSpec("fcc", 3).coordination == 12
    assert LatticeSpec("fcc", 4).coordination == 24
    assert LatticeSpec("sincos4", 4).coordination == 8
    assert LatticeSpec("triples4", 4).coordination == 32


def test_first_table_entry_is_coordination():
    # index 1 of every table holds the (steps_per_index)-step or 2-step
    # return count, which equals the coordination number
    for spec in (
        LatticeSpec("honeycomb", 2),
        LatticeSpec("square", 2),
        LatticeSpec("diamond", 3),
        LatticeSpec("diamond", 4),
        LatticeSpec("sc", 3),
        LatticeSpec("sc", 4),
        LatticeSpec("bcc", 3),
        LatticeSpec("bcc", 4),
        LatticeSpec("sincos4", 4),
        LatticeSpec("triples4", 4),
    ):
        t = coeffs(spec, 2)
        assert t[1] == spec.coordination, spec
    for spec in (LatticeSpec("triangular", 2), LatticeSpec("fcc", 3), LatticeSpec("fcc", 4)):
        t = coeffs(spec, 2)
        assert t[2] == spec.coordination, spec


# -- generic cosine engine --------------------------------------------------


def test_moment_engine_square():
    terms = [CosTerm(Q(1), (1, 0), (0, 0)), CosTerm(Q(1), (0, 1), (0, 0))]
    m = cosine_kernel_coeffs(terms, 4)
    assert m[2] == 1  # <c1^2> + <c2^2>
    assert [Q(2) ** n * v for n, v in enumerate(m)] == [1, 0, 4, 0, 36]


def test_moment_engine_mixed_parity():
    # <c^2 s^2> = 1/8 per variable
    m = cosine_kernel_coeffs([CosTerm(Q(1), (1,), (1,))], 2)
    assert m[1] == 0 and m[2] == Q(1, 8)


@pytest.mark.parametrize(
    "name,family,dim",
    [
        ("square", "square", 2),
        ("sc3", "sc", 3),
        ("bcc3", "bcc", 3),
        ("fcc3", "fcc", 3),
    ],
)
def test_cosine_tables_match_closed_forms(name, family, dim):
    spec = LatticeSpec(family, dim)
    table = coeffs(spec, 3)
    engine = cosine_integer_table(name, 3 * spec.steps_per_index)
    got = [engine[spec.steps_per_index * n] for n in range(4)]
    assert got == list(table.values)


def test_cosine_table_triples4():
    engine = cosine_integer_table("triples4", 6)
    assert [engine[2 * n] for n in range(4)] == triples4_table(3)
    assert all(engine[2 * n + 1] == 0 for n in range(3))


def test_cosine_table_sincos4():
    engine = cosine_integer_table("sincos4", 6)
    want = coeffs(LatticeSpec("sincos4", 4), 3)
    assert [engine[2 * n] for n in range(4)] == list(want.values)


def test_diamond4_structure_moments_are_s5():
    assert cosine_integer_table("diamond4", 4) == structure_sums(5, 4)


def _structure(name):
    terms, scale = cosine_structure(name)
    return [(t.coef, t.cos_exps, t.sin_exps) for t in terms], scale


def test_cosine_structures_from_kernels():
    one = Q(1)
    assert _structure("sc3") == ([(one, (1, 0, 0), (0, 0, 0)), (one, (0, 1, 0), (0, 0, 0)),
                                  (one, (0, 0, 1), (0, 0, 0))], 2)
    assert _structure("bcc4") == ([(one, (1, 1, 1, 1), (0, 0, 0, 0))], 16)
    assert _structure("fcc3") == ([(one, (1, 1, 0), (0, 0, 0)), (one, (1, 0, 1), (0, 0, 0)),
                                   (one, (0, 1, 1), (0, 0, 0))], 4)
    assert _structure("sincos4") == ([(one, (1, 1, 1, 1), (0, 0, 0, 0)),
                                      (one, (0, 0, 0, 0), (1, 1, 1, 1))], 8)
    assert _structure("triples4") == ([(one, e, (0, 0, 0, 0)) for e in
                                       [(1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1)]], 8)
    # (1+x+y)(1+1/x+1/y) = 3 + 2 cos k1 + 2 cos k2 + 2 cos(k1 - k2)
    assert _structure("honeycomb") == ([(Q(2), (1, 1), (0, 0)), (Q(2), (1, 0), (0, 0)),
                                        (Q(2), (0, 1), (0, 0)), (Q(2), (0, 0), (1, 1)),
                                        (Q(3), (0, 0), (0, 0))], 1)


def test_cosine_structure_rejects_bad_names_and_kernels():
    with pytest.raises(UnsupportedTerm):
        cosine_structure("kagome2")
    with pytest.raises(UnsupportedTerm):
        _cosine_expand({(1, 0): 1, (0, 1): 1})  # x + y is not real on the torus


def test_parse_lattice():
    assert parse_lattice("sc3") == LatticeSpec("sc", 3)
    assert parse_lattice("square") == LatticeSpec("square", 2)
    assert parse_lattice("sincos4") == LatticeSpec("sincos4", 4)
    assert parse_lattice("honeycomb2") == LatticeSpec("honeycomb", 2)
    assert parse_lattice("apery-zeta2") is None
    assert parse_lattice("sc") is None
    for spec in (LatticeSpec("fcc", 5), LatticeSpec("triples4", 4), LatticeSpec("diamond", 3)):
        assert parse_lattice(spec.name) == spec
    with pytest.raises(UnsupportedLattice):
        parse_lattice("sc1")


# -- cross-family relations -------------------------------------------------


def test_relation_triangular():
    assert relation_triangular_from_honeycomb(20)


def test_relation_fcc():
    assert relation_fcc_from_diamond(20)


@pytest.mark.parametrize("relation,transform", [
    (relation_triangular_from_honeycomb, "_triangular_table"),
    (relation_fcc_from_diamond, "_fcc3_table")])
def test_relation_catches_perturbed_transform(monkeypatch, relation, transform):
    # the transform also feeds coeffs(), so only a kernel-derived reference
    # can see it change
    exact = getattr(lattices, transform)
    monkeypatch.setattr(lattices, transform,
                        lambda n: [v + (i == 5) for i, v in enumerate(exact(n))])
    rep = relation(10)
    assert not rep.passed and rep.first_mismatch == 5


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_relation_sc_hyperdiamond(d):
    assert relation_sc_from_hyperdiamond(d, 10)


def test_hypergeometric_forms():
    assert hypergeometric_forms_check(10)
