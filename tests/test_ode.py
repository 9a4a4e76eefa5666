"""Operator registry, Frobenius machinery, Yukawa couplings, Wronskian chains.

Targets frozen here were cross-checked against independent series data
(walk-count tables, hand-expanded recurrences) before being written down.
"""

from fractions import Fraction as Q
from functools import lru_cache
from math import comb, gcd

import pytest

from latgreen import linalg, ode
from latgreen.errors import (
    FitFailure,
    InsufficientTerms,
    NotMUM,
    NotSymmetricSquare,
    ResourceLimit,
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
from latgreen.ratfunc import Poly, RatFunc, rational_roots
from latgreen.series import LogSeries, PowerSeries


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


def theta_power_apply(op, f):
    """op f from the definition, an oracle independent of the Taylor rows:
    the theta powers of f as LogSeries, scaled by the entries of P_l,
    shifted by z^l and summed in Fraction arithmetic."""
    if isinstance(f, PowerSeries):
        f = LogSeries([f])
    thetas = [f]
    for _ in range(op.order):
        thetas.append(thetas[-1].theta())
    n = f.order
    acc = LogSeries([PowerSeries.zero(n)])
    for l, row in enumerate(op.p):
        for j, c in enumerate(row):
            if c:
                acc = acc + LogSeries([p.shift(l).truncate(n) * c for p in thetas[j].parts])
    return acc


def first_nonzero(out):
    return next((n for n in range(out.order + 1) if any(p[n] for p in out.parts)), None)


NON_MUM = ThetaOperator([[0, 0, 1, -2, 1], [1], [Q(-3, 5), 0, 2]])


def three_part_log_series(order):
    return LogSeries([
        PowerSeries([Q((-1) ** n * (n * n + 3), 2 * n + 1) for n in range(order + 1)]),
        PowerSeries([Q(7, n + 2) for n in range(order + 1)]),
        PowerSeries([Q(n - 4, 3 ** n) for n in range(order + 1)]),
    ])


@pytest.mark.parametrize("name", [n for n in registry_names() if n != "iwan<d>"]
                         + ["iwan1", "iwan3", "iwan6"])
def test_apply_matches_theta_powers_on_frobenius_basis(name):
    op = registry(name)
    for yj in frobenius(op, 24):
        assert op.apply(yj) == theta_power_apply(op, yj)
        # a basis element with one coefficient of its top part moved
        bumped = LogSeries(list(yj.parts[:-1]) + [yj.parts[-1] + PowerSeries(
            [0] * 11 + [Q(2, 9)], order=24)])
        assert op.apply(bumped) == theta_power_apply(op, bumped)


@pytest.mark.parametrize("op", [registry("sc4"), registry("apery-zeta3"), NON_MUM,
                                ThetaOperator([[Q(1, 2), 0, -3], [0, 1]])])
def test_apply_matches_theta_powers_on_log_series(op):
    f = three_part_log_series(20)
    out = op.apply(f)
    assert out == theta_power_apply(op, f)
    assert out.log_degree == 2 and out.order == 20
    # a PowerSeries counts as one part
    assert op.apply(f.part(0)) == theta_power_apply(op, f.part(0))
    g = frobenius(registry("sc4"), 16)[3]
    assert op.apply(g) == theta_power_apply(op, g)


@pytest.mark.parametrize("f", [
    PowerSeries([Q(3, 4)], order=0),
    three_part_log_series(0),
    LogSeries([PowerSeries.zero(5), PowerSeries.one(5)]),
])
def test_apply_short_and_zero_inputs(f):
    for op in (registry("bcc4"), NON_MUM):
        assert op.apply(f) == theta_power_apply(op, f)


def test_annihilates_reports_first_mismatch():
    op = registry("sc3")
    table = list(raw_series("sc3").coeffs)
    for k in (1, 17, 40):
        bad = PowerSeries(table[:k] + [table[k] + 1] + table[k + 1:])
        rep = op.annihilates(bad)
        assert not rep.passed
        assert (rep.first_mismatch, rep.checked_through) == (
            first_nonzero(theta_power_apply(op, bad)), 40) == (k, 40)
    f = three_part_log_series(12)
    rep = NON_MUM.annihilates(f)
    assert (rep.passed, rep.first_mismatch, rep.checked_through) == (
        False, first_nonzero(theta_power_apply(NON_MUM, f)), 12)
    rep = op.annihilates(raw_series("sc3") * Q(5, 7))
    assert (rep.passed, rep.first_mismatch, rep.checked_through) == (True, None, 40)


def test_operator_normalization():
    # common rational factors are cleared, sign fixed by first entry
    a = ThetaOperator([[0, Q(1, 2)], [Q(3, 2)]])
    b = ThetaOperator([[0, 1], [3]])
    assert a == b
    c = ThetaOperator([[0, -2], [-6]])
    assert c == b
    # common factor 2/9 and a negative first nonzero entry: primitive int rows
    op = ThetaOperator([[0, Q(-4, 3), Q(2, 9)], [Q(8, 3), 0, Q(-10, 9)]])
    assert op.p == ((0, 6, -1), (-12, 0, 5))
    assert all(type(c) is int for row in op.p for c in row)
    assert write_operator(op) == "0 : 0 6 -1\n1 : -12 0 5\n"


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


def test_zero_p0_rejected():
    # z (theta + 1): a zero P_0 leaves no indicial polynomial at 0
    with pytest.raises(ValueError, match="P_0"):
        ThetaOperator([[0], [1, 1]])
    with pytest.raises(ValueError, match="P_0"):
        parse_operator("0 : 0\n1 : 1 1\n")
    with pytest.raises(ValueError, match="zero operator"):
        ThetaOperator([[0, 0], [0]])


def test_exchange_format_repeated_line_rejected():
    with pytest.raises(ValueError, match="twice"):
        parse_operator("0 : 0 0 1\n0 : 0 1\n")
    with pytest.raises(ValueError, match="twice"):
        parse_operator("0 : 0 1\n1 : 2\n# again\n1 : 3\n")


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


def test_fit_ignores_the_series_denominator():
    s = raw_series("bcc4")
    assert fit_ode(s * Q(5, 7), 4, 1) == fit_ode(s, 4, 1) == registry("bcc4")
    # 1/sqrt((1 - z/3)(1 - 13z/3)): coefficient n has denominator 3^n
    g = moebius_pullback(catalan_power(1, 30), Q(1, 3))
    assert len({c.denominator for c in g.coeffs}) == 31
    op = fit_ode(g, 1, 2)
    assert op is not None and op.annihilates(g).passed
    assert fit_ode(g * Q(5, 7), 1, 2) == op


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
    with pytest.raises(FitFailure, match="nullspace dimension at least 2"):
        fit_ode(series, 4, 2)


def test_generous_shape_lifts_two_vectors(monkeypatch):
    # at degree 3 the nullity is 3 (the operator times 1, z and z^2), but
    # two verified vectors already prove the shape too generous
    lifts = []
    lift = linalg._PivotBlock.lift

    def counting(block, fc):
        lifts.append(fc)
        return lift(block, fc)

    monkeypatch.setattr(linalg._PivotBlock, "lift", counting)
    series = PowerSeries([comb(2 * n, n) ** 4 for n in range(41)])
    with pytest.raises(FitFailure, match="at least 2"):
        fit_ode(series, 4, 3)
    assert len(lifts) <= 2


def reference_fit_ode(series, r, k):
    """fit_ode as one elimination per shape: the check, rows and nullspace
    of the degree-k system alone."""
    unknowns = (r + 1) * (k + 1)
    n_terms = series.order + 1
    if n_terms < unknowns + ode._GUARD:
        raise InsufficientTerms(
            f"need {unknowns + ode._GUARD} coefficients for r={r} k={k}, have {n_terms}")
    if unknowns ** 2 * n_terms > ode.FIT_WORK_CAP:
        raise ResourceLimit(f"fit with {unknowns} unknowns over {n_terms} rows costs "
                            f"{unknowns ** 2 * n_terms} units of elimination work; "
                            f"cap is {ode.FIT_WORK_CAP}")
    d = 1
    for c in series.coeffs:
        d = d * c.denominator // gcd(d, c.denominator)
    f = [int(c * d) for c in series.coeffs]
    rows = [[0] * unknowns for _ in range(n_terms)]
    for n, row in enumerate(rows):
        for l in range(min(n, k) + 1):
            for j in range(r + 1):
                row[l * (r + 1) + j] = f[n - l] * (n - l) ** j
    basis = linalg.nullspace_modular(rows, unknowns, limit=2)
    if not basis:
        return None
    if len(basis) > 1:
        raise FitFailure(
            f"nullspace dimension at least 2 for r={r} k={k}: shape too generous")
    v = basis[0]
    return ThetaOperator([[v[l * (r + 1) + j] for j in range(r + 1)] for l in range(k + 1)])


def reference_fit_minimal_degree(series, r, max_degree):
    for k in range(1, max_degree + 1):
        op = reference_fit_ode(series, r, k)
        if op is not None:
            return op
    raise FitFailure(f"no order-{r} operator of degree <= {max_degree}")


def outcome(fit, *args):
    """write_operator text of the fit, or the type and message of its refusal."""
    try:
        return write_operator(fit(*args))
    except (FitFailure, InsufficientTerms, ResourceLimit) as exc:
        return type(exc), str(exc)


# (family, d, order r, minimal degree k) of the fits in perfbench/operators.py
BENCH_FITS = ([("sc", d, d, (d + 1) // 2) for d in range(3, 11)]
              + [("diamond", d, d, k) for d, k in ((3, 2), (4, 3), (5, 3), (6, 4), (7, 4))]
              + [("fcc", 3, 3, 3), ("fcc", 4, 4, 7), ("bcc", 4, 4, 1)])


@pytest.mark.parametrize("extra", [0, 7, 19])
@pytest.mark.parametrize("family,d,r,k", BENCH_FITS,
                         ids=[f"{f}{d}" for f, d, _, _ in BENCH_FITS])
def test_minimal_degree_search_matches_the_k_loop(family, d, r, k, extra):
    # the benchmark's shapes at their exact length, (r+1)(k+1) + 5 terms,
    # where the widest shape is k itself, and longer, where it is wider
    n_terms = (r + 1) * (k + 1) + ode._GUARD + extra
    series = coeffs(LatticeSpec(family, d), n_terms - 1).as_series()
    got = outcome(fit_minimal_degree, series, r, k + 2)
    assert got == outcome(reference_fit_minimal_degree, series, r, k + 2)
    assert isinstance(got, str) and got.count("\n") == k + 1


PRIMES_30 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
             53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]


@pytest.mark.parametrize("series,r,max_degree,error", [
    (catalan_power(4, 12), 4, 3, InsufficientTerms),       # 13 terms, k = 1 needs 15
    (raw_series("sc3", 14), 3, 3, InsufficientTerms),      # none at k = 1, k = 2 needs 17
    (PowerSeries(PRIMES_30), 2, 4, FitFailure),             # no operator up to k = 4
    (PowerSeries(PRIMES_30), 2, 0, FitFailure),             # no shape at all
    (catalan_power(4, 40), 4, 2, None),                     # k = 1, and k = 2 generous
], ids=["short", "short-above", "primes", "max-degree-0", "generous-above"])
def test_minimal_degree_search_refuses_as_the_k_loop(series, r, max_degree, error):
    got = outcome(fit_minimal_degree, series, r, max_degree)
    assert got == outcome(reference_fit_minimal_degree, series, r, max_degree)
    assert (got[0] if isinstance(got, tuple) else None) is error


def test_minimal_degree_search_over_the_work_cap(monkeypatch):
    # sc3 needs k = 2; with the cap between the k = 1 and k = 2 costs the
    # k loop is refused at k = 2, and so is the search
    series = coeffs(LatticeSpec("sc", 3), 40).as_series()
    monkeypatch.setattr(ode, "FIT_WORK_CAP", 8 ** 2 * 41)
    got = outcome(fit_minimal_degree, series, 3, 4)
    assert got == outcome(reference_fit_minimal_degree, series, 3, 4)
    assert got[0] is ResourceLimit and got[1].startswith("fit with 12 unknowns")


def test_minimal_degree_search_generous_least_shape():
    # C(2n,n) is killed by L = theta - 2z(2theta+1), so the order-2
    # degree-1 shape holds (theta + c) L for every c
    series = catalan_power(1, 30)
    got = outcome(fit_minimal_degree, series, 2, 3)
    assert got == outcome(reference_fit_minimal_degree, series, 2, 3)
    assert got == (FitFailure, "nullspace dimension at least 2 for r=2 k=1: shape too generous")


def test_minimal_degree_search_eliminates_once(monkeypatch):
    # sc10's operator has degree 5: the k loop eliminates for k = 1..5
    calls = []
    eliminate = linalg._eliminate_mod

    def counting(*args, **kwargs):
        calls.append(args[1])
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(linalg, "_eliminate_mod", counting)
    n_terms = 11 * 6 + ode._GUARD
    op = fit_minimal_degree(coeffs(LatticeSpec("sc", 10), n_terms - 1).as_series(), 10, 7)
    assert (op.order, op.degree) == (10, 5)
    assert calls == [66]


@pytest.mark.parametrize("name,points", [
    ("sc3", {0, Q(1, 36), Q(1, 4)}),
    ("sc4", {0, Q(1, 64), Q(1, 16)}),
    ("iwan3", {0, Q(1, 64)}),
    ("iwan4", {0, Q(1, 256)}),
    ("diamond4", {0, Q(1, 25), Q(1, 9), 1}),
    ("fcc4", {0, Q(1, 24), Q(-1, 3), Q(-1, 4), Q(-1, 8), Q(-1, 12), Q(-1, 18)}),
])
def test_singular_points(name, points):
    # the roots of the leading D-form coefficient, all rational
    roots, cofactor = rational_roots(to_dform(registry(name))[-1])
    assert set(roots) == points
    assert cofactor.degree == 0


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


@pytest.mark.parametrize("name", ["bcc4", "sc4", "diamond4", "fcc4", "sc3",
                                  "apery-zeta2", "apery-zeta3", "iwan3"])
def test_frobenius_basis_is_killed(name):
    # one recurrence gives both: the whole basis solves the operator, logs
    # included, and series_solution is the basis's log-free y_0
    op = registry(name)
    basis = frobenius(op, 24)
    assert len(basis.solutions) == op.order
    for yj in basis:
        assert op.apply(yj).is_zero()
    assert op.series_solution(24) == basis.log_free_parts()[0]


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


def test_fcc4_instantons_at_thirty_terms():
    # the size the operators benchmark checks
    yk = yukawa(registry("fcc4"), 30, depth=6)
    assert list(yk.instantons) == FCC4_NK
    assert yk.s == 1


def test_diamond4_instantons_k_integral():
    # k N_k is integral for every k <= 10 (the operators benchmark's check)
    yk = yukawa(registry("diamond4"), 30, depth=10)
    assert len(yk.instantons) == 10
    assert all((k * nk).denominator == 1 for k, nk in enumerate(yk.instantons, 1))


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
    assert reports[4].detail.endswith(f": {s}")


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


@pytest.mark.parametrize("builder,max_degree", [
    (lambda: PowerSeries(structure_sums(4, 40)), 6),
    (lambda: catalan_power(3, 40), 6),
    (lambda: coeffs(LatticeSpec("fcc", 3), 40).as_series(), 8),
])
def test_three_dim_operators_are_symmetric_squares(builder, max_degree):
    op = fit_minimal_degree(builder(), 3, max_degree)
    _, _, rep = symmetric_square_check(op)
    assert rep.passed


def test_symmetric_square_negative():
    perturbed = ThetaOperator([[0, 0, 0, 1], [-7, -32, -60, -40],
                               [108, 396, 432, 144]])
    with pytest.raises(NotSymmetricSquare):
        symmetric_square_check(perturbed)


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
