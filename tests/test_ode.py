"""Operator registry, Frobenius machinery, Yukawa couplings, Wronskian chains.

Targets frozen here were cross-checked against independent series data
(walk-count tables, hand-expanded recurrences) before being written down.
"""

from fractions import Fraction as Q
from functools import lru_cache
from math import comb

import pytest

from latgreen.errors import (
    FitFailure,
    InsufficientTerms,
    NotMUM,
    NotSymmetricSquare,
    UnknownOperator,
)
from latgreen.lattices import LatticeSpec, coeffs, structure_sums
from latgreen.ode import (
    FifthOrderReport,
    ThetaOperator,
    cy_conditions_report,
    fit_minimal_degree,
    fit_ode,
    frobenius,
    from_dform,
    indicial,
    moebius_pullback,
    monic_dform,
    parse_operator,
    registry,
    registry_names,
    rescale_operator,
    symmetric_square_check,
    to_dform,
    triple_integrality,
    triple_operator,
    wronskian_cy_check,
    wronskian_fifth_order,
    write_operator,
    yukawa,
)
from latgreen.ratfunc import Poly, RatFunc
from latgreen.series import PowerSeries


def catalan_power(d, n_max):
    return PowerSeries([comb(2 * n, n) ** d for n in range(n_max + 1)])


@lru_cache(maxsize=None)
def raw_series(name, n_max=40):
    """The table-as-stored series each registry operator annihilates."""
    if name == "bcc4":
        return catalan_power(4, n_max)
    if name == "sc4":
        s4 = structure_sums(4, n_max)
        return PowerSeries([comb(2 * n, n) * s4[n] for n in range(n_max + 1)])
    if name == "sc3":
        s3 = structure_sums(3, n_max)
        return PowerSeries([comb(2 * n, n) * s3[n] for n in range(n_max + 1)])
    if name == "diamond4":
        return PowerSeries(structure_sums(5, n_max))
    if name == "fcc4":
        return coeffs(LatticeSpec("fcc", 4), n_max).as_series()
    raise KeyError(name)


# -- theta-operator basics ----------------------------------------------------


def test_theta_on_monomial():
    z = PowerSeries.var(6)
    assert registry("iwan1").apply(z).is_zero() is False
    # theta z^n = n z^n, so (theta - n) kills z^n
    for n in range(1, 5):
        op = ThetaOperator([[-n, 1]])
        zn = z.pow(n)
        assert op.apply(zn).is_zero()


def test_operator_normalization():
    # common rational factors are cleared, sign fixed by first entry
    a = ThetaOperator([[0, Q(1, 2)], [Q(3, 2)]])
    b = ThetaOperator([[0, 1], [3]])
    assert a == b
    c = ThetaOperator([[0, -2], [-6]])
    assert c == b


def test_registry_names_and_unknown():
    names = registry_names()
    for expected in ("bcc4", "sc4", "diamond4", "fcc4", "sc3"):
        assert expected in names
    with pytest.raises(UnknownOperator):
        registry("nosuch")
    with pytest.raises(UnknownOperator):
        registry("iwan0")


def test_iwan4_is_bcc4():
    assert registry("iwan4") == registry("bcc4")


@pytest.mark.parametrize("name", ["bcc4", "sc4", "diamond4", "fcc4", "sc3"])
def test_registry_annihilates_raw_series(name):
    rep = registry(name).annihilates(raw_series(name))
    assert rep.passed, rep


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_iwan_family_annihilates_catalan_powers(d):
    op = registry(f"iwan{d}")
    assert op.order == d
    assert op.is_mum()
    assert op.annihilates(catalan_power(d, 30)).passed


def test_fcc4_leading_polynomial_structure():
    # top z-degree coefficient factors as (t+1)(t+2)^2(t+3) up to constant
    op = registry("fcc4")
    assert op.degree == 7
    t = Poly.x()
    expected = (t + Poly.const(1)) * (t + Poly.const(2)) ** 2 * (t + Poly.const(3))
    assert op.P(7) == expected * (-(2 ** 12) * 3 ** 7)


def test_series_solution_matches_table():
    for name in ("bcc4", "sc4", "diamond4", "fcc4"):
        y0 = registry(name).series_solution(20)
        assert y0.agrees_with(raw_series(name), 20)


# -- D-form conversion and the exchange format --------------------------------


def test_dform_round_trip():
    for name in ("sc4", "fcc4", "sc3"):
        op = registry(name)
        assert from_dform(to_dform(op)) == op


def test_exchange_format_round_trip():
    op = registry("fcc4")
    text = write_operator(op)
    assert parse_operator(text) == op
    # comments and blank lines are tolerated
    noisy = "# annihilator\n\n" + text + "\n# end\n"
    assert parse_operator(noisy) == op


def test_exchange_format_rational_entries():
    op = ThetaOperator([[0, 1], [Q(-1, 3), Q(2, 7)]])
    assert parse_operator(write_operator(op)) == op


# -- fitting ------------------------------------------------------------------


def test_fit_recovers_registry_operators():
    assert fit_ode(raw_series("bcc4"), 4, 1) == registry("bcc4")
    assert fit_ode(raw_series("diamond4"), 4, 3) == registry("diamond4")
    assert fit_ode(raw_series("fcc4", 50), 4, 7) == registry("fcc4")


def test_fit_minimal_degree_stops_early():
    op = fit_minimal_degree(raw_series("diamond4"), 4, 7)
    assert op.degree == 3
    assert op == registry("diamond4")


def test_fit_sc5():
    s5 = structure_sums(5, 40)
    series = PowerSeries([comb(2 * n, n) * s5[n] for n in range(41)])
    op = fit_ode(series, 5, 3)
    assert op is not None
    assert op.order == 5 and op.degree == 3
    assert op.is_mum()
    assert op.annihilates(series).passed


def test_fit_insufficient_terms():
    short = PowerSeries([comb(2 * n, n) ** 4 for n in range(10)])
    with pytest.raises(InsufficientTerms):
        fit_ode(short, 4, 1)


def test_fit_no_operator_of_shape():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
              53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]
    assert fit_ode(PowerSeries(primes), 2, 2) is None


def test_fit_shape_too_generous():
    # bcc4's operator has degree 1, so degree 2 also admits z times it
    series = PowerSeries([comb(2 * n, n) ** 4 for n in range(41)])
    with pytest.raises(FitFailure, match="nullspace dimension 2"):
        fit_ode(series, 4, 2)


# -- indicial data ------------------------------------------------------------

INFINITY_EXPONENTS = {
    "bcc4": [Q(1, 2)] * 4,
    "sc4": [Q(1, 2), Q(1), Q(1), Q(3, 2)],
    "diamond4": [Q(1), Q(1), Q(2), Q(2)],
    "fcc4": [Q(1), Q(2), Q(2), Q(3)],
}


@pytest.mark.parametrize("name", sorted(INFINITY_EXPONENTS))
def test_indicial_exponents(name):
    rep = indicial(registry(name))
    assert rep.mum
    assert list(rep.exponents_zero) == [Q(0)] * 4
    assert sorted(rep.exponents_infinity) == INFINITY_EXPONENTS[name]
    assert rep.infinity_complete
    assert rep.condition_three


def test_indicial_non_mum():
    # theta^2 (theta-1)^2: exponents 0,0,1,1 at the origin
    op = ThetaOperator([[0, 0, 1, -2, 1], [1]])
    rep = indicial(op)
    assert not rep.mum
    assert sorted(rep.exponents_zero) == [0, 0, 1, 1]


# -- Frobenius basis ----------------------------------------------------------


def test_frobenius_requires_mum():
    op = ThetaOperator([[0, 0, 1, -2, 1], [1]])
    with pytest.raises(NotMUM):
        frobenius(op, 10)


def test_frobenius_bcc4():
    basis = frobenius(registry("bcc4"), 16)
    y = basis.solutions
    assert len(y) == 4
    # y_j carries log-degree exactly j and its top log part is y_0
    for j, yj in enumerate(y):
        assert yj.log_degree == j
        assert yj.part(j) == y[0].part(0)
    # analytic parts vanish at the origin except A_0(0) = 1
    assert y[0].part(0)[0] == 1
    for j in range(1, 4):
        assert y[j].part(0)[0] == 0
    # hand-expanded recurrence value for the subleading part
    assert y[1].part(0)[1] == 64
    # every basis element is killed, logs included
    op = registry("bcc4")
    for yj in y:
        assert op.apply(yj).is_zero()


def test_frobenius_y0_is_raw_series():
    basis = frobenius(registry("sc4"), 20)
    assert basis.solutions[0].part(0).agrees_with(raw_series("sc4"), 20)


# -- Yukawa coupling and instanton numbers ------------------------------------

SC4_K = [1, 4, 164, 5800, 196772]
SC4_3NK = [12, 60, 644, 9216, 157536, 3083604]
FCC4_NK = [3, -4, 64, -253, 4292, -25608]


@pytest.fixture(scope="module")
def yukawa_sc4():
    return yukawa(registry("sc4"), 28, depth=6)


def test_yukawa_sc4_coupling(yukawa_sc4):
    assert list(yukawa_sc4.K_coeffs[:5]) == SC4_K


def test_yukawa_sc4_instantons(yukawa_sc4):
    assert [3 * nk for nk in yukawa_sc4.instantons] == SC4_3NK
    assert yukawa_sc4.s == 3


def test_yukawa_round_trip(yukawa_sc4):
    depth = len(yukawa_sc4.instantons)
    assert list(yukawa_sc4.rebuilt_K()) == list(yukawa_sc4.K_coeffs[: depth + 1])


def test_yukawa_mirror_map_head(yukawa_sc4):
    # q = z exp(A_1/A_0) starts z + 8 z^2 for this operator family
    assert yukawa_sc4.q_coeffs[0] == 1


def test_yukawa_rescaling_covariance():
    """z -> lam z sends the coupling coefficients c_m to lam^m c_m.

    The coupling is covariant, not invariant: the canonical q also
    rescales, q -> q(lam z)/lam, and the two effects compose to a plain
    geometric rescale of K's q-expansion."""
    base = yukawa(registry("sc4"), 20, depth=4)
    for lam in (Q(2), Q(1, 3)):
        got = yukawa(rescale_operator(registry("sc4"), lam), 20, depth=4)
        for m in range(6):
            assert got.K_coeffs[m] == lam ** m * base.K_coeffs[m]


def test_yukawa_depth_beyond_terms():
    with pytest.raises(InsufficientTerms):
        yukawa(registry("sc4"), 3, depth=4)


def test_fcc4_instantons_direct():
    yk = yukawa(registry("fcc4"), 50, depth=6)
    assert list(yk.instantons) == FCC4_NK
    assert yk.s == 1


def test_fcc4_instantons_via_pullback():
    # the z/(1-18z) pullback has unit derivative at 0, so the canonical
    # q-coordinate and hence the instanton numbers are unchanged
    f4 = raw_series("fcc4")
    g = moebius_pullback(f4, 18)
    assert list(g.coeffs[:5]) == [1, 18, 348, 7320, 168840]
    op = fit_ode(g, 4, 6)
    assert op is not None and op.is_mum()
    yk = yukawa(op, 40, depth=6)
    assert list(yk.instantons) == FCC4_NK
    assert yk.s == 1


def test_moebius_pullback_basics():
    f = PowerSeries([1] * 9)  # 1/(1-z)
    assert list(moebius_pullback(f, 1).coeffs) == [2 ** n for n in range(9)]
    assert moebius_pullback(f, 0) == f


# -- structure condition reports ----------------------------------------------


@pytest.mark.parametrize("name,s", [("sc4", 3), ("bcc4", 1),
                                    ("diamond4", 3), ("fcc4", 1)])
def test_cy_conditions_all_pass(name, s):
    reports = cy_conditions_report(registry(name), 32)
    assert len(reports) == 5
    for rep in reports:
        assert rep.passed, (name, rep.name, rep.detail)
    assert reports[4].data["s"] == s


def test_wronskian_identity():
    assert wronskian_cy_check(registry("bcc4"), 25).passed
    assert wronskian_cy_check(registry("diamond4"), 25).passed


def test_wronskian_negative_control():
    # Perturb a derivative-coupled entry of P_1.  The theta^0 entry would
    # not do: it only feeds the undifferentiated coefficient B_0, which
    # the w03 = w12 identity never sees, so that perturbation still passes.
    good = [[0, 0, 0, 0, 1], [-16, -128, -384, -512, -256]]
    bad = [[0, 0, 0, 0, 1], [-16, -128, -383, -512, -256]]
    assert wronskian_cy_check(ThetaOperator(good), 12).passed
    rep = wronskian_cy_check(ThetaOperator(bad), 12)
    assert not rep.passed
    assert rep.first_mismatch == 1
    const_only = [[0, 0, 0, 0, 1], [-17, -128, -384, -512, -256]]
    assert wronskian_cy_check(ThetaOperator(const_only), 12).passed


# -- fifth-order chain --------------------------------------------------------


@pytest.mark.parametrize("name", ["bcc4", "sc4"])
def test_fifth_order_chain(name):
    rep = wronskian_fifth_order(registry(name), 40)
    assert isinstance(rep, FifthOrderReport)
    assert rep.op5.order == 5
    failing = [c.name for c in rep.conditions if not c.passed]
    assert not failing, failing
    # the variant with exp(-(1/5) int Phat) misses y_0 already at order 1
    variant = rep.conditions[-1]
    assert "order 1" in variant.detail


def test_fifth_order_bcc4_degree():
    rep = wronskian_fifth_order(registry("bcc4"), 30)
    assert rep.op5.degree == 2
    assert rep.op5.is_mum()


# -- symmetric squares --------------------------------------------------------


def test_symmetric_square_sc3():
    p, q, rep = symmetric_square_check(registry("sc3"))
    assert rep.passed
    x = Poly.x()
    # P in partial fractions: 1/x + 1/(2(x - 1/36)) + 1/(2(x - 1/4))
    expected_p = (RatFunc(Poly.const(1), x)
                  + RatFunc(Poly.const(1), 2 * (x - Poly.const(Q(1, 36))))
                  + RatFunc(Poly.const(1), 2 * (x - Poly.const(Q(1, 4)))))
    assert p == expected_p
    # Q transported from the classical variable via x -> 36 x
    u = 36 * x
    expected_q = RatFunc(3 * (u - Poly.const(4)),
                         16 * u * (u - Poly.const(1)) * (u - Poly.const(9))) * (36 * 36)
    assert q == expected_q


@pytest.mark.parametrize("builder,k_max", [
    (lambda: PowerSeries(structure_sums(4, 40)), 6),
    (lambda: catalan_power(3, 40), 6),
    (lambda: coeffs(LatticeSpec("fcc", 3), 40).as_series(), 8),
])
def test_three_dim_operators_are_symmetric_squares(builder, k_max):
    op = fit_minimal_degree(builder(), 3, k_max)
    _, _, rep = symmetric_square_check(op)
    assert rep.passed


def test_symmetric_square_negative():
    perturbed = ThetaOperator([[0, 0, 0, 1], [-7, -32, -60, -40],
                               [108, 396, 432, 144]])
    with pytest.raises(NotSymmetricSquare):
        symmetric_square_check(perturbed)


def test_symmetric_square_accepts_monic_dform():
    trips = monic_dform(registry("sc3"))
    _, _, rep = symmetric_square_check(tuple(trips))
    assert rep.passed


# -- second/third order pairs with integral structure -------------------------


def test_triple_operator_construction():
    op2 = triple_operator(2, 11, 3, -1)
    assert op2 == registry("apery-zeta2")
    op3 = triple_operator(3, 17, 5, 1)
    assert op3 == registry("apery-zeta3")
    with pytest.raises(ValueError):
        triple_operator(4, 1, 1, 1)


def test_triple_solutions():
    y2 = registry("apery-zeta2").series_solution(4)
    assert list(y2.coeffs[:4]) == [1, 3, 19, 147]
    y3 = registry("apery-zeta3").series_solution(4)
    assert list(y3.coeffs[:4]) == [1, 5, 73, 1445]


@pytest.mark.parametrize("name", ["apery-zeta2", "apery-zeta3"])
def test_triple_integrality(name):
    reports = triple_integrality(registry(name))
    for rep in reports:
        assert rep.passed, (name, rep.name)
