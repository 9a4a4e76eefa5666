"""Support algebra: exact nullspaces, polynomials, rational functions."""

import random
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgreen import linalg
from latgreen.errors import FitFailure
from latgreen.lattices import LatticeSpec, coeffs
from latgreen.linalg import nullspace_fraction, nullspace_modular, prime_stream
from latgreen.ode import fit_ode
from latgreen.ratfunc import Poly, RatFunc, poly_gcd, rational_roots
from latgreen.series import PowerSeries

Q = Fraction


def test_prime_stream():
    ps = prime_stream()
    seen = {next(ps) for _ in range(5)}
    assert len(seen) == 5
    assert all(2 ** 29 < p < 2 ** 30 and p % 2 == 1 for p in seen)
    assert all(p % q for p in seen for q in range(3, isqrt(p) + 1, 2))


def test_nullspace_fraction_simple():
    # x + y + z = 0, x - y = 0  ->  span{(1, 1, -2)}
    basis = nullspace_fraction([[1, 1, 1], [1, -1, 0]], 3)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[1] and v[2] == -2 * v[0] and v[0] != 0


def test_nullspace_fraction_full_rank():
    assert nullspace_fraction([[1, 0], [0, 1]], 2) == []


def test_modular_matches_fraction():
    rows = [
        [3, 1, 4, 1, 5],
        [9, 2, 6, 5, 3],
        [5, 8, 9, 7, 9],
    ]
    frac = nullspace_fraction(rows, 5)
    mod = nullspace_modular(rows, 5)
    assert len(frac) == len(mod) == 2
    # same reduced representation (free columns set to one)
    assert mod == frac


def test_modular_big_entries():
    # a planted rational kernel vector with huge integer data
    rng = random.Random(7)
    v = [Q(rng.randrange(-99, 100), rng.randrange(1, 40)) for _ in range(6)]
    den = 1
    for x in v:
        den = den * x.denominator
    w = [int(x * den) for x in v]
    rows = []
    for _ in range(8):
        r = [rng.randrange(-(10 ** 40), 10 ** 40) for _ in range(6)]
        # project r to be orthogonal to w by adjusting the last nonzero slot
        k = max(i for i in range(6) if w[i])
        dot = sum(a * b for a, b in zip(r, w))
        r = [x * w[k] for x in r]
        r[k] -= dot
        rows.append(r)
    basis = nullspace_modular(rows, 6)
    assert len(basis) >= 1
    for b in basis:
        assert all(sum(Q(a) * x for a, x in zip(row, b)) == 0 for row in rows)


@pytest.fixture
def drawn_primes(monkeypatch):
    """The primes nullspace_modular draws, counted as perfbench's tracer does."""
    drawn = []
    stream = linalg.prime_stream

    def counted():
        for p in stream():
            drawn.append(p)
            yield p

    monkeypatch.setattr(linalg, "prime_stream", counted)
    return drawn


@pytest.mark.parametrize("k,found", [(1, False), (2, True)])
def test_one_prime_per_fit_shape(drawn_primes, k, found):
    # sc3's minimal order-3 operator has degree 2: the k = 1 shape has an
    # empty nullspace, proved by full rank mod one prime; k = 2 has nullity 1
    series = coeffs(LatticeSpec("sc", 3), 24).as_series()
    assert (fit_ode(series, 3, k) is not None) == found
    assert len(drawn_primes) == 1


def _unlucky_rows(p):
    return [
        [[1, 1], [1, 1 + p]],  # regular over Q, singular mod p
        [[1, 1, 1], [1, 1 + p, 1 + 2 * p]],  # rank 2 over Q, 1 mod p
        [[p, 1]],  # same rank, but the pivot moves to column 1 mod p
    ]


@pytest.mark.parametrize("case", range(3))
def test_modular_skips_unlucky_prime(drawn_primes, case):
    rows = _unlucky_rows(next(prime_stream()))[case]
    ncols = len(rows[0])
    assert nullspace_modular(rows, ncols) == nullspace_fraction(rows, ncols)
    assert len(drawn_primes) == 2


@pytest.mark.parametrize("case", range(3))
def test_early_stop_skips_unlucky_prime(drawn_primes, case):
    # at limit 1 the elimination mod the unlucky prime stops at its first
    # free column, which is a pivot over Q in every case
    rows = _unlucky_rows(next(prime_stream()))[case]
    ncols = len(rows[0])
    assert nullspace_modular(rows, ncols, limit=1) == nullspace_fraction(rows, ncols)[:1]
    assert len(drawn_primes) == 2


def test_generous_fit_stops_at_second_free_column(monkeypatch):
    # C(2n,n)^2 at r = 2, k = 152 over 466 terms, just under FIT_WORK_CAP:
    # nullity 152, so the elimination can stop at its second free column
    # instead of running through all 459 columns
    runs = []
    eliminate = linalg._eliminate_mod

    def recording(rows, ncols, p, *args):
        order, pivots, mat = eliminate(rows, ncols, p, *args)
        runs.append((ncols, pivots))
        return order, pivots, mat

    monkeypatch.setattr(linalg, "_eliminate_mod", recording)
    series = PowerSeries([comb(2 * n, n) ** 2 for n in range(466)])
    with pytest.raises(FitFailure, match="nullspace dimension at least 2 for r=2 k=152"):
        fit_ode(series, 2, 152)
    [(ncols, pivots)] = runs
    free = [c for c in range(ncols) if c not in pivots]
    assert max(pivots) < free[1]
    assert len(pivots) == free[1] - 1


def test_modular_lifts_large_rationals():
    # kernel (w_1/D, ..., w_5/D, 1) with 300-digit w_i and D: reconstruction
    # needs p^k > 2 |w_i| D > 10^600, so at least 67 lifting steps at 30 bits
    rng = random.Random(11)
    den = rng.randrange(10 ** 300, 10 ** 301)
    w = [rng.randrange(-10 ** 301, 10 ** 301) for _ in range(5)]
    rows = []
    for _ in range(7):
        a = [rng.randrange(-9, 10) for _ in range(5)]
        rows.append([den * x for x in a] + [-sum(x * y for x, y in zip(a, w))])
    basis = nullspace_modular(rows, 6)
    assert basis == nullspace_fraction(rows, 6)
    assert all(len(str(abs(x.numerator))) >= 300 and len(str(x.denominator)) >= 300
               for x in basis[0][:5])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.data())
def test_modular_matches_fraction_low_rank(ncols, nrows, data):
    rank = data.draw(st.integers(0, min(ncols, nrows)))
    entries = st.integers(-20, 20)
    left = data.draw(st.lists(st.lists(entries, min_size=rank, max_size=rank),
                              min_size=nrows, max_size=nrows))
    right = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                               min_size=rank, max_size=rank))
    rows = [[sum(a * right[k][j] for k, a in enumerate(l)) for j in range(ncols)]
            for l in left]
    frac = nullspace_fraction(rows, ncols)
    assert nullspace_modular(rows, ncols) == frac
    for limit in (1, 2, 3):
        assert nullspace_modular(rows, ncols, limit) == frac[:limit]

def test_poly_divmod_gcd():
    x = Poly.x()
    p = (x - 1) * (x - 2) * (x + 3)
    q, r = p.divmod(x - 2)
    assert not r and q == (x - 1) * (x + 3)
    g = poly_gcd(p, (x - 2) * (x + 5))
    assert g == (x - 2).monic()


def test_poly_shift_and_eval():
    x = Poly.x()
    p = x ** 2 + 2 * x + 1
    assert p(Q(3)) == 16
    assert p(x - 1) == x ** 2


def test_rational_roots():
    x = Poly.x()
    p = Poly((0, 1)) * (2 * x - 1) ** 2 * (3 * x + 2) * (x ** 2 + 1)
    roots, cofactor = rational_roots(p)
    assert roots == sorted([Q(0), Q(1, 2), Q(1, 2), Q(-2, 3)])
    assert cofactor.monic() == x ** 2 + 1


def test_rational_roots_fraction_coefficients_negative_lead():
    x = Poly.x()
    p = x * (x - Q(2, 3)) * (x + Q(5, 2)) ** 2 * (x ** 2 + 2) * Q(-7, 4)
    assert p.lead < 0 and any(c.denominator > 1 for c in p.coeffs)
    roots, cofactor = rational_roots(p)
    assert roots == [Q(-5, 2), Q(-5, 2), Q(0), Q(2, 3)]
    assert cofactor.monic() == x ** 2 + 2


def test_ratfunc_identities():
    x = RatFunc.x()
    f = 1 / x + 1 / (2 * (x - 1))
    g = (3 * RatFunc(Poly.x()) - 2) / (2 * x * (x - 1))
    assert f == g
    assert f.derivative() == -1 / (x * x) - 1 / (2 * (x - 1) * (x - 1))
    assert (f - f) == 0
    assert f(Q(3)) == Q(1, 3) + Q(1, 4)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=5),
    st.lists(st.integers(-6, 6), min_size=1, max_size=5),
)
def test_poly_divmod_round_trip(a, b):
    pa, pb = Poly(a), Poly(b)
    if not pb:
        return
    q, r = pa.divmod(pb)
    assert q * pb + r == pa
    assert r.degree < pb.degree or not r


def test_ratfunc_zero_guard():
    with pytest.raises(ZeroDivisionError):
        RatFunc(1) / RatFunc(0)
