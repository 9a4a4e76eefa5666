"""Exactness and algebra checks for the series layer."""

from fractions import Fraction as Q
from itertools import islice
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from latgreen.series import (
    LogSeries,
    PowerSeries,
    binomial_transform,
    horner_fixed,
    hyper_terms,
    hyper_terms_fixed,
)
from latgreen.errors import BadConstantTerm, NotReversible, ZeroConstantTerm


def geom(order):
    return PowerSeries([1] * (order + 1))


class TestRingOps:
    def test_one_plus_z_times_one_minus_z(self):
        a = PowerSeries([1, 1], order=10)
        b = PowerSeries([1, -1], order=10)
        assert (a * b).coeffs[:3] == (Q(1), Q(0), Q(-1))

    def test_geometric_inverse(self):
        one = PowerSeries.one(12)
        denom = PowerSeries([1, -1], order=12)
        assert one.div(denom) == geom(12)

    def test_truncation_order_of_product(self):
        a = PowerSeries([1, 2, 3])          # order 2
        b = PowerSeries([1, 1, 1, 1, 1])    # order 4
        assert (a * b).order == 2

    def test_div_by_nonunit_raises(self):
        with pytest.raises(ZeroConstantTerm):
            PowerSeries.one(4).div(PowerSeries.var(4))

    def test_scalar_ops(self):
        a = PowerSeries([1, 2], order=3)
        assert (a * Q(1, 2)).coeffs[1] == 1
        assert (a + 5).coeffs[0] == 6
        assert (3 - a).coeffs == (Q(2), Q(-2), Q(0), Q(0))


class TestTranscendental:
    def test_exp_log_round_trip(self):
        a = PowerSeries([0, 1, Q(1, 2), -3, Q(2, 7)], order=9)
        assert (a.exp().log()) == a

    def test_exp_of_log_of_geometric(self):
        g = geom(10)
        assert g.log().exp() == g

    def test_exp_requires_zero_constant(self):
        with pytest.raises(BadConstantTerm):
            PowerSeries.one(3).exp()

    def test_log_derivative_identity(self):
        # theta(log a) = theta(a)/a
        a = PowerSeries([1, 3, -2, 5, 1, -1], order=8)
        lhs = a.log().theta()
        rhs = a.theta().div(a)
        assert lhs == rhs

    def test_sqrt_squares_back(self):
        a = PowerSeries([1, 2, -1, 4], order=8)
        s = a.sqrt()
        assert s * s == a

    def test_integrate_then_theta(self):
        a = PowerSeries([5, 1, 7], order=2)
        F = a.integrate()                       # order 3
        assert F.derivative() == a


class TestComposition:
    def test_reversion_of_z_over_one_minus_z(self):
        # inverse of z/(1-z) is q/(1+q)
        a = PowerSeries([0] + [1] * 10)
        b = a.reversion()
        expect = PowerSeries([0] + [(-1) ** (n - 1) for n in range(1, 11)])
        assert b == expect

    def test_reversion_round_trip(self):
        a = PowerSeries([0, 1, -3, Q(5, 2), 0, 7], order=12)
        b = a.reversion()
        assert b.compose(a).agrees_with(PowerSeries.var(12), 12)

    def test_reversion_requires_unit_slope(self):
        with pytest.raises(NotReversible):
            PowerSeries([0, 0, 1], order=4).reversion()

    def test_reversion_raises_when_check_fails(self, monkeypatch):
        # the final a(b(q)) = q check is an explicit raise, kept under -O
        a = PowerSeries([0, 1, -3, Q(5, 2)], order=8)
        monkeypatch.setattr(PowerSeries, "compose",
                            lambda self, inner: PowerSeries.zero(self.order))
        with pytest.raises(NotReversible, match="did not verify"):
            a.reversion()

    def test_compose_exp_log(self):
        # exp(log(1+z)) = 1+z via compose of exp series with log series
        n = 10
        expz = PowerSeries([Q(1)] + [Q(1, __import__("math").factorial(k)) for k in range(1, n + 1)])
        log1p = PowerSeries([0] + [Q((-1) ** (k - 1), k) for k in range(1, n + 1)])
        assert expz.compose(log1p) == PowerSeries([1, 1], order=n)


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def unit_series(draw, order=6):
    cs = [Q(1)] + draw(st.lists(small_fracs, min_size=order, max_size=order))
    return PowerSeries(cs)


@st.composite
def any_series(draw, order=6):
    cs = draw(st.lists(small_fracs, min_size=order + 1, max_size=order + 1))
    return PowerSeries(cs)


# -- the exact kernels against literal Fraction arithmetic --------------------

def literal_product(a, b):
    """The textbook double sum, one Fraction multiply-add per pair."""
    n = min(a.order, b.order)
    out = [Q(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return out


def literal_compose(a, b):
    """sum_i a_i b^i with every power b^i kept to the full order."""
    n = min(a.order, b.order)
    b = b.coeffs[: n + 1]
    out, power = [Q(0)] * (n + 1), [Q(1)] + [Q(0)] * n
    for ai in a.coeffs[: n + 1]:
        out = [o + ai * p for o, p in zip(out, power)]
        power = literal_product(PowerSeries(power), PowerSeries(b))
    return out


# zeros, signs, and numerators and denominators up to 10^30, so the two
# factors rarely share a denominator
big_fracs = st.one_of(
    st.just(Q(0)),
    st.integers(-10 ** 30, 10 ** 30).map(Q),
    st.builds(Q, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30)),
)


@st.composite
def big_series(draw, max_order=8):
    order = draw(st.integers(0, max_order))
    return PowerSeries(draw(st.lists(big_fracs, min_size=order + 1, max_size=order + 1)))


@st.composite
def reversible_series(draw, max_order=8):
    order = draw(st.integers(1, max_order))
    slope = draw(big_fracs.filter(lambda c: c != 0))
    rest = draw(st.lists(small_fracs, min_size=order - 1, max_size=order - 1))
    return PowerSeries([0, slope] + rest)


class TestKernelsAgainstLiteral:
    @settings(max_examples=150, deadline=None)
    @given(big_series(), big_series())
    def test_mul_is_the_double_sum(self, a, b):
        prod = a * b
        assert prod.order == min(a.order, b.order)
        assert list(prod.coeffs) == literal_product(a, b)

    @settings(max_examples=60, deadline=None)
    @given(big_series(), st.one_of(st.integers(-10 ** 30, 10 ** 30), big_fracs))
    def test_mul_by_scalar(self, a, k):
        expect = [c * k for c in a.coeffs]
        assert list((a * k).coeffs) == expect
        assert list((k * a).coeffs) == expect

    def test_mul_order_zero_and_unequal_orders(self):
        a = PowerSeries([Q(3, 10 ** 30 + 7)])
        b = PowerSeries([Q(-5, 10 ** 29 + 3), 1, Q(2, 9)])
        assert list((a * b).coeffs) == [Q(-15, (10 ** 30 + 7) * (10 ** 29 + 3))]
        assert (b * a).order == 0

    @settings(max_examples=80, deadline=None)
    @given(big_series(), big_series().map(lambda s: PowerSeries((Q(0),) + s.coeffs)))
    def test_compose_is_the_sum_of_powers(self, a, b):
        comp = a.compose(b)
        assert comp.order == min(a.order, b.order)
        assert list(comp.coeffs) == literal_compose(a, b)

    @settings(max_examples=60, deadline=None)
    @given(reversible_series())
    def test_reversion_both_ways(self, a):
        b = a.reversion()
        q = PowerSeries.var(a.order)
        assert b.order == a.order
        assert a.compose(b) == q
        assert b.compose(a) == q


def test_binomial_transform_is_the_sum():
    # the defining sum, term by term, at a Fraction weight
    f = [Q((-1) ** n, n + 1) for n in range(25)] + [Q(0), Q(7, 3)]
    w = Q(-5, 7)
    expect = [sum(comb(n, j) * w ** (n - j) * f[j] for j in range(n + 1))
              for n in range(len(f))]
    assert binomial_transform(f, w) == expect
    assert binomial_transform([3, 1, 4], 0) == [3, 1, 4]
    assert binomial_transform([], w) == []


def _poch(a, n):
    return prod((a + j for j in range(n)), start=Q(1))


@pytest.mark.parametrize("l", [0, 1, 4, 11])
@pytest.mark.parametrize("b,c", [(Q(1, 2), Q(3, 2)), (Q(-7, 3), Q(5, 4))])
def test_hyper_terms_sum_a_terminating_2f1_exactly(l, b, c):
    # Chu-Vandermonde: 2F1(-l, b; c; 1) = (c - b)_l / (c)_l
    terms = list(islice(hyper_terms([Q(-l), b], [c]), l + 5))
    assert all(type(t) is Q for t in terms)
    assert sum(terms[: l + 1]) == _poch(c - b, l) / _poch(c, l)
    assert terms[l] != 0
    assert terms[l + 1:] == [0] * 4


@pytest.mark.parametrize("upper,lower,x", [
    ([Q(1, 2)] * 4, [Q(1)] * 3, Q(1)),                      # bcc d=4 at z = 1
    ([Q(1, 3), Q(1, 2), Q(2, 3)], [Q(1), Q(1)], Q(-29, 32)),  # Rogers 3F2
])
def test_fixed_terms_within_n_units(upper, lower, x):
    # every ratio is at most 1 here, so term n is within n units of
    # 2^W t_n, and it is the floor of the exact term at n <= 1
    wbits = 80
    exact = islice(hyper_terms(upper, lower, x), 300)
    fixed = hyper_terms_fixed(upper, lower, x.numerator, x.denominator.bit_length() - 1,
                              1 << wbits)
    for n, (t, f) in enumerate(zip(exact, fixed)):
        assert abs(f - t * 2 ** wbits) <= n
        if n <= 1:
            assert f == (t * 2 ** wbits).__floor__()


@pytest.mark.parametrize("num,shift,den", [(1, 2, 9), (-7, 3, 3), (1, 0, 1)])
def test_horner_within_n_units(num, shift, den):
    # x = num / (den 2^shift); integer coefficients far above 2^W cost
    # nothing: N + 1 terms are within N units
    wbits, values = 64, [comb(2 * n, n) ** 3 for n in range(120)]
    x = Q(num, den * 2 ** shift)
    total = horner_fixed([v << wbits for v in values], num, shift, den)
    exact = sum(v * x ** n for n, v in enumerate(values)) * 2 ** wbits
    assert abs(total - exact) <= len(values) - 1


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(any_series(), any_series(), any_series())
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(any_series(), any_series())
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @settings(max_examples=40, deadline=None)
    @given(unit_series(), unit_series())
    def test_log_of_product(self, a, b):
        assert (a * b).log() == a.log() + b.log()

    @settings(max_examples=40, deadline=None)
    @given(unit_series())
    def test_div_mul_round_trip(self, a):
        b = PowerSeries([1, 2, 3, 4, 5, 6, 7])
        assert (b.div(a)) * a == b


class TestLogSeries:
    def test_theta_lowers_log(self):
        # F = log z  (parts 0, 1): theta F = 1
        order = 5
        F = LogSeries([PowerSeries.zero(order), PowerSeries.one(order)])
        assert F.theta() == LogSeries([PowerSeries.one(order)])

    def test_theta_on_z_log(self):
        # F = z log z: theta F = z log z + z
        order = 5
        z = PowerSeries.var(order)
        F = LogSeries([PowerSeries.zero(order), z])
        tF = F.theta()
        assert tF.part(1) == z
        assert tF.part(0) == z

    def test_sum_truncates_to_common_order(self):
        f = LogSeries([PowerSeries([1, 2, 3, 4]), PowerSeries([5, 6, 7, 8])])
        g = LogSeries([PowerSeries([Q(1, 2), 1, 1])])
        h = f + g
        assert h == LogSeries([PowerSeries([Q(3, 2), 3, 4]), PowerSeries([5, 6, 7])])
        assert h.order == 2 and g + f == h
        assert (f - f).is_zero() and (f - f).log_degree == 0

    def test_product_binomial_structure(self):
        # (log z)^2/2! appears when multiplying log z by log z
        order = 4
        L = LogSeries([PowerSeries.zero(order), PowerSeries.one(order)])
        sq = L * L
        assert sq.log_degree == 2
        assert sq.part(2) == PowerSeries.constant(2, order)  # parts store j!*coeff

    def test_product_matches_distribution(self):
        order = 6
        f = LogSeries([PowerSeries([1, 2, 3], order=order), PowerSeries.var(order)])
        g = LogSeries([PowerSeries([1, -1], order=order)])
        h = f * g
        assert h.part(0) == f.part(0) * g.part(0)
        assert h.part(1) == f.part(1) * g.part(0)

    def test_theta_product_rule(self):
        order = 6
        f = LogSeries([PowerSeries([1, 2, -1], order=order), PowerSeries.one(order)])
        g = LogSeries([PowerSeries([1, 0, 4], order=order), PowerSeries.var(order)])
        lhs = (f * g).theta()
        rhs = f.theta() * g + f * g.theta()
        assert lhs == rhs
