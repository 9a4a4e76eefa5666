"""CT engine against closed-form tables and the printed kernel registry."""

from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from latgreen import constant_term
from latgreen.constant_term import (
    CT_WORK_CAP,
    KernelSpec,
    LaurentPoly,
    class_bound,
    ct_sequence,
    ct_series,
    is_invariant,
    kernel,
    kernel_equivalence,
    printed_kernels,
)
from latgreen.errors import ResourceLimit, UnsupportedTerm
from latgreen.lattices import FAMILIES, LatticeSpec, coeffs, cosine_integer_table, structure_sums

from test_acceptance import CT_CASES
from test_lattices import perms_signed, walk_counts


def test_laurent_poly_algebra():
    x = LaurentPoly.var(0, 2)
    ix = LaurentPoly.var(0, 2, -1)
    p = (x + ix) * (x + ix)
    assert p.terms == {(2, 0): 1, (0, 0): 2, (-2, 0): 1}
    assert p.constant_term == 2
    assert p.eval_ones() == 4
    assert (p + (-2)).constant_term == 0


def test_kernel_mass_is_coordination():
    for family, d in [
        ("honeycomb", 2),
        ("square", 2),
        ("triangular", 2),
        ("diamond", 3),
        ("diamond", 4),
        ("sc", 3),
        ("sc", 5),
        ("bcc", 3),
        ("bcc", 4),
        ("fcc", 3),
        ("fcc", 4),
        ("fcc", 5),
        ("sincos4", 4),
        ("triples4", 4),
    ]:
        ks = kernel(family, d)
        q = LatticeSpec(family, d).coordination
        want = q * q if LatticeSpec(family, d).row.two_site else q
        assert ks.kernel.eval_ones() == want, (family, d)


def test_fcc4_kernel_shape():
    ks = kernel("fcc", 4)
    assert len(ks.kernel.terms) == 24
    assert set(ks.kernel.terms.values()) == {1}


def _registry_kernels(max_dim):
    for family, row in FAMILIES.items():
        for d in [row.fixed_dim] if row.fixed_dim else range(2, max_dim + 1):
            yield f"{family}{d}", kernel(family, d)


def _literal_powers(ks, n_max):
    """CT of K, K*K, ..., K^n_max by plain LaurentPoly products: no
    pairing and no symmetry folding, so an independent reference."""
    power = LaurentPoly.constant(1, ks.kernel.nvars)
    out = [1]
    for _ in range(n_max):
        power = power * ks.kernel
        out.append(power.constant_term)
    return out


def test_ct_sequence_examples():
    assert ct_sequence(kernel("square", 2), 2)[2] == 4
    assert ct_sequence(printed_kernels()["bcc3"], 2)[2] == 8
    assert ct_sequence(printed_kernels()["honeycomb"], 2)[2] == 15


def test_ct_sequence_zero_and_odd():
    seq = ct_sequence(kernel("square", 2), 3)
    assert seq[0] == 1
    assert seq[3] == 0


def test_pruning_agrees_with_unpruned():
    # ct_sequence folds the walk onto symmetry classes, walks only to
    # half the power and pairs the classes of two powers; the literal
    # power does none of that
    for name, ks in printed_kernels().items():
        assert ct_sequence(ks, 8) == _literal_powers(ks, 8), name
    for name, ks in _registry_kernels(3):
        assert ct_sequence(ks, 6) == _literal_powers(ks, 6), name


def test_pairing_at_odd_n_max():
    # an odd n_max pairs power (n+1)/2 with power (n-1)/2 at the top
    for name, ks in list(printed_kernels().items()) + list(_registry_kernels(4)):
        assert ct_sequence(ks, 5) == _literal_powers(ks, 5), name


def test_pairing_looks_up_the_mirror_class():
    # K(1/x) != K(x): a class pairs with canon(-k), not with k
    ks = KernelSpec(LaurentPoly({(1, 0): 1, (0, 1): 1, (-1, -1): 1}))
    assert ct_sequence(ks, 9) == [1, 0, 0, 6, 0, 0, 90, 0, 0, 1680]


def test_wrong_orbit_size_fails_loudly(monkeypatch):
    # each class mass is divided by its orbit size; a remainder raises
    exact = constant_term._mirror_and_orbit

    def doubled(symmetry, nvars):
        pair = exact(symmetry, nvars)
        return lambda k: (pair(k)[0], 2 * pair(k)[1])

    monkeypatch.setattr(constant_term, "_mirror_and_orbit", doubled)
    with pytest.raises(ArithmeticError, match="orbit size"):
        ct_sequence(kernel("sc", 3), 4)


@st.composite
def free_kernels(draw):
    """Small kernels with positive coefficients and no symmetry claim,
    most of them with K(1/x) != K(x)."""
    nvars = draw(st.integers(2, 3))
    exps = st.tuples(*[st.integers(-2, 2)] * nvars)
    terms = draw(st.dictionaries(exps, st.integers(1, 3), min_size=1, max_size=4))
    return KernelSpec(LaurentPoly(terms, nvars))


@settings(max_examples=40, deadline=None)
@given(free_kernels())
def test_pairing_matches_literal_powers(ks):
    assert ct_sequence(ks, 7) == _literal_powers(ks, 7)


def _class_count(ks, power):
    canon = constant_term._canon(ks.symmetry)
    literal = LaurentPoly.constant(1, ks.kernel.nvars)
    for _ in range(power):
        literal = literal * ks.kernel
    return len({canon(e) for e in literal.terms})


def test_class_bound_covers_the_classes():
    kernels = list(_registry_kernels(4)) + list(printed_kernels().items())
    for name, ks in kernels:
        for power in (0, 1, 2, 3, 4):
            assert class_bound(ks, power) >= _class_count(ks, power), (name, power)
    # exact where every entry of the box and residue is reached
    assert class_bound(kernel("bcc", 4), 4) == _class_count(kernel("bcc", 4), 4) == 15


def test_class_bound_refuses_before_work():
    import time

    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="class bound"):
        ct_series(kernel("sc", 6), 399)
    # few classes, but hours of walk work
    with pytest.raises(ResourceLimit, match="work cap"):
        ct_series(kernel("bcc", 2), 5000)
    # one class per power, but more powers than the cap: refused without
    # counting classes over an L1 range of 1.5 10^8
    with pytest.raises(ResourceLimit, match="work cap"):
        ct_sequence(KernelSpec(LaurentPoly({(1, 0): 1})), 3 * 10 ** 8)
    assert time.perf_counter() - start < 2
    # the largest requests of the tests and the benchmark are admitted
    for family, d, n in [("diamond", 5, 20), ("bcc", 5, 20), ("sc", 2, 30), ("bcc", 6, 8)]:
        ks, p = kernel(family, d), LatticeSpec(family, d).powers_per_index
        half = (p * n + 1) // 2
        assert half * class_bound(ks, half) * len(ks.kernel.terms) <= CT_WORK_CAP


def test_ct_power_matches_sequence():
    ks = kernel("fcc", 3)
    seq = ct_sequence(ks, 8)
    powers = _literal_powers(ks, 8)
    for n in (0, 3, 5, 8):
        assert powers[n] == seq[n]


@pytest.mark.parametrize(
    "family,d",
    [
        ("honeycomb", 2),
        ("square", 2),
        ("triangular", 2),
        ("diamond", 3),
        ("sc", 3),
        ("bcc", 3),
        ("fcc", 3),
        ("diamond", 4),
        ("sc", 4),
        ("bcc", 4),
        ("fcc", 4),
        ("sincos4", 4),
        ("triples4", 4),
    ],
)
def test_ct_series_matches_formula_tables(family, d):
    n_max = 12 if d <= 3 else 8
    table = coeffs(LatticeSpec(family, d), n_max)
    assert ct_series(kernel(family, d), n_max) == list(table.values)


def test_fcc5_via_ct():
    ks = kernel("fcc", 5)
    seq = ct_sequence(ks, 6)
    assert seq[2] == 40
    assert seq == walk_counts(perms_signed((1, 1, 0, 0, 0)), 6)


def test_diamond5_ct_is_squared_multinomials():
    assert ct_sequence(kernel("diamond", 5), 8) == structure_sums(6, 8)


def test_printed_kernels_match_families():
    reg = printed_kernels()
    for name in ("square-product", "square-sum", "honeycomb", "diamond3", "sc3", "bcc3", "fcc3"):
        ks = reg[name]
        table = coeffs(ks.spec, 8)
        assert ct_series(ks, 8) == list(table.values), name
    for name in ("diamond4", "sc4", "bcc4", "fcc4"):
        ks = reg[name]
        table = coeffs(ks.spec, 6)
        assert ct_series(ks, 6) == list(table.values), name


def test_square_kernels_equivalent():
    reg = printed_kernels()
    assert kernel_equivalence(reg["square-product"], reg["square-sum"], 20)


def test_diamond_printed_vs_canonical():
    reg = printed_kernels()
    assert kernel_equivalence(reg["diamond3"], kernel("diamond", 3), 12)
    assert kernel_equivalence(reg["diamond4"], kernel("diamond", 4), 10)


def test_equivalence_detects_mismatch():
    rep = kernel_equivalence(kernel("sc", 3), printed_kernels()["bcc3"], 6)
    assert not rep.passed
    assert rep.first_mismatch == 2


def test_single_site_ct_bounded_by_all_walks():
    for family, d in [("square", 2), ("sc", 3), ("fcc", 3), ("triangular", 2)]:
        ks = kernel(family, d)
        q = LatticeSpec(family, d).coordination
        seq = ct_sequence(ks, 8)
        assert seq[0] == 1
        for n in range(1, 9):
            assert 0 <= seq[n] < q ** n


def test_budget_limit(monkeypatch):
    # ct_sequence reads CT_WORK_CAP when it is called
    monkeypatch.setattr(constant_term, "CT_WORK_CAP", 600)
    with pytest.raises(ResourceLimit):
        ct_sequence(kernel("fcc", 4), 10)
    # bcc4 to n = 8: 4 powers x 15 classes x 16 kernel terms = 960
    monkeypatch.setattr(constant_term, "CT_WORK_CAP", 959)
    with pytest.raises(ResourceLimit):
        ct_sequence(kernel("bcc", 4), 8)
    monkeypatch.setattr(constant_term, "CT_WORK_CAP", 960)
    assert len(ct_sequence(kernel("bcc", 4), 8)) == 9


def test_user_kernel_sequence():
    # a kernel with no family binding: raw CT sequence
    ks = KernelSpec(LaurentPoly({(1,): 1, (-1,): 1}))
    assert ct_sequence(ks, 6) == [1, 0, 2, 0, 6, 0, 20]


def test_symmetry_claims_validated():
    with pytest.raises(UnsupportedTerm):
        KernelSpec(LaurentPoly({(1, 0): 1, (0, 1): 1}), symmetry="hyperoctahedral")


def _brute_force_invariant(poly, symmetry):
    # all d! * 2^d coordinate transforms (all d! for "permutation")
    d = poly.nvars
    signs = product((1, -1), repeat=d) if symmetry == "hyperoctahedral" else [(1,) * d]
    for s, p in product(list(signs), list(permutations(range(d)))):
        moved = {tuple(k[p[i]] * s[i] for i in range(d)): v for k, v in poly.terms.items()}
        if moved != poly.terms:
            return False
    return True


def test_generator_symmetry_check_matches_brute_force():
    kernels = list(printed_kernels().items()) + list(_registry_kernels(4))
    verdicts = set()
    for name, ks in kernels:
        for symmetry in ("permutation", "hyperoctahedral"):
            want = _brute_force_invariant(ks.kernel, symmetry)
            assert is_invariant(ks.kernel, symmetry) == want, (name, symmetry)
            verdicts.add(want)
    assert verdicts == {True, False}


def test_registry_kernels_fast_to_build():
    # the symmetry claim is checked on the group's generators, not on
    # all d! * 2^d transforms (bcc d=6 took seconds that way)
    import time

    start = time.perf_counter()
    for family in ("bcc", "fcc"):
        kernel(family, 6)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("family,d", CT_CASES + [("fcc", 5), ("fcc", 6)])
def test_routes_agree(family, d):
    """Formula, CT and cosine give the same table."""
    spec = LatticeSpec(family, d)
    n = 6 if d <= 3 else 4
    p = spec.powers_per_index
    ct = ct_series(kernel(family, d), n)
    assert cosine_integer_table(spec.name, p * n)[::p] == ct
    assert list(coeffs(spec, n).values) == ct


# every FAMILIES row: d = 2 and 3 where the dimension is free, the fixed one
# elsewhere, and fcc d = 4, where the fcc formula leaves the pull-back
ROW_CASES = [(f, d) for f, row in FAMILIES.items()
             for d in ([row.fixed_dim] if row.fixed_dim else [2, 3])] + [("fcc", 4)]


@pytest.mark.parametrize("family,d", ROW_CASES)
def test_routes_agree_on_every_family_row(family, d):
    spec = LatticeSpec(family, d)
    n = 6 if d <= 3 else 4
    p = spec.powers_per_index
    ct = ct_series(kernel(family, d), n)
    assert cosine_integer_table(spec.name, p * n)[::p] == ct
    assert list(coeffs(spec, n).values) == ct
