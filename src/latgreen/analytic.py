"""Arbitrary-precision evaluation of the closed forms.

Everything here returns mpmath floats computed with guard digits: a call
asking for `prec` decimal digits works internally at prec + 10 and the
documented contract is a relative error below 10**(2 - prec) unless a
function says otherwise.  Quadrature-backed results carry an explicit
error estimate instead.  Every pass/fail gate (the Bessel and Abel
identities, the Ramanujan general form, the elliptic-reading proof) is
that contract, applied by one helper, _contract_check.

Every complete elliptic integral (the Watson constants, the printed
closed forms, the 2F1(1/2, 1/2; 1; m) of the algebraic diamond form and
the 4d double elliptic integral) is (2/pi) K(m) from one function,
two_over_pi_K, by mpmath's AGM.  Every lattice series at |z| < 1 (the
honeycomb maps and the series sides of the Bessel and Abel identities)
is summed by lgf_series_eval, whose term count follows prec and |z| by
one rule, _terms_below_one; the tables of convention_report follow the
same rule.  Every numeric series sum is taken with integers only, in
fixed point, by the two kernels of series, each step one floor under the
proved rounding bound of series.fixed_bits: horner_fixed sums the
lattice tables at the exact binary rational of z (_table_sum, for
lgf_series_eval and convention_report) and the Ramanujan sums, whose A,
B and x0 in Q(sqrt3) it takes as single fixed-point reals
(_surd_series); hyper_terms_fixed, series' one integer term ratio with
a floor division, gives the terms of pFq_eval, the hyper-bcc P(0;1) and
the single-3F2 forms of rogers_3f2 (through pFq_eval).  The exact
half-circle moments of abel_forward_check read the same ratio through
hyper_terms.  The half-circle integrals (Abel, Bessel connection,
4d double elliptic) are all (2/pi) int_0^(pi/2) f(sin phi) dphi with f
even and analytic, and run by one periodic trapezoid rule,
_quarter_period_mean, which converges geometrically on such integrands;
the [0, inf) Laplace and K0 integrals are one transform, _i0_transform,
int weight(t) I0(ct/m)^m dt with weight e^-t or t K0(t), on mp.quad,
its integrand set to 0 past one point T (_laplace_cut) where I0(x) <=
e^x and K0(t) <= sqrt(pi/(2t)) e^-t prove the tail below 10^-(dps + 2)
of the value for either weight.  K0 and I0 come from _k0 and _i0, in
place of mpmath's generic besselk and besseli: the ascending series
(DLMF 10.31.2 and 10.25.2, one fixed-point term loop) below 1.2 (dps + 5)
and the asymptotic series (DLMF 10.40.2 and 10.40.1, one term loop;
remainder bounds 10.40.10 and 10.40.11) above it.

Elliptic-argument conventions are a minefield: the source formulas write
K(k) in some places and feed k^2-type expressions in others.  Every
formula with an ambiguous argument is evaluated in one reading, _READING
(the modulus k, so K takes k^2), by one function, _ambiguous_value, and
no closed-form evaluation builds a lattice table.  convention_report
proves that reading against the exact lattice series: both readings are
judged, and a form passes only when the evaluated one is the one that
matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb, isqrt, log, pi

import mpmath as mp

from .errors import (
    DivergentRequest,
    DomainError,
    PrecisionNotMet,
    ResourceLimit,
    UnsupportedLattice,
)
from .lattices import LatticeSpec, coeffs, structure_sums
from .reports import ConditionReport, VerifyReport
from .series import fixed_bits, horner_fixed, hyper_terms, hyper_terms_fixed
from .surd import QSqrt3

Q = Fraction

_GUARD = 10


def _dps(prec: int) -> int:
    return max(prec, 5) + _GUARD


@dataclass(frozen=True)
class IdentityCheck:
    lhs: object
    rhs: object
    error: object

    def __bool__(self) -> bool:
        return bool(abs(self.lhs - self.rhs) <= self.error)


def _contract_check(lhs, rhs, prec: int) -> IdentityCheck:
    """lhs against the reference rhs under the module contract: it passes
    when they agree to 10**(2 - prec) relative to |rhs|."""
    return IdentityCheck(lhs, rhs, mp.mpf(10) ** (2 - prec) * abs(rhs))


# -- elliptic integrals -------------------------------------------------------


def two_over_pi_K(m, prec: int = 50):
    """(2/pi) K(m) = 2F1(1/2, 1/2; 1; m), the complete elliptic integral
    of the first kind at parameter m = k^2 scaled to 1 at m = 0.

    It is 1/agm(1, sqrt(1 - m)); mpmath's AGM converges quadratically, so
    the guard digits absorb the final rounding.  Every elliptic value in
    this module is a product of these.
    """
    with mp.workdps(_dps(prec)):
        m = mp.mpf(m)
        if m >= 1:
            raise DomainError(f"parameter m = {m} >= 1: real K branch only")
        return 1 / mp.agm(1, mp.sqrt(1 - m))


# -- series evaluation --------------------------------------------------------


@dataclass(frozen=True)
class EvalResult:
    """A numeric value together with a machine-readable error estimate."""

    value: object
    error: object
    terms_used: int = 0
    note: str = ""


def _power_law_tail(last, p, n_last):
    """Tail sum_{n>N} t_n for t_n ~ n^-p (C + D/n + E/n^2), via Hurwitz zeta.

    C, D, E are fitted on the last three computed terms, last =
    [t_(N-2), t_(N-1), t_N] with N = n_last; the spread between the 2-
    and 3-term fits is reported as the tail uncertainty.
    """
    ns = [n_last, n_last - 1, n_last - 2]
    rows = [[mp.mpf(1), 1 / mp.mpf(n), 1 / mp.mpf(n) ** 2] for n in ns]
    rhs = [t * mp.mpf(n) ** p for t, n in zip(reversed(last), ns)]
    sol3 = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))
    tail3 = (sol3[0] * mp.zeta(p, n_last + 1)
             + sol3[1] * mp.zeta(p + 1, n_last + 1)
             + sol3[2] * mp.zeta(p + 2, n_last + 1))
    sol2 = mp.lu_solve(mp.matrix([r[:2] for r in rows[:2]]), mp.matrix(rhs[:2]))
    tail2 = sol2[0] * mp.zeta(p, n_last + 1) + sol2[1] * mp.zeta(p + 1, n_last + 1)
    return tail3, abs(tail3 - tail2)


_TERM_CAP = 6000

# the most terms pFq_eval sums by its stopping rule
_MAX_TERMS = 10 ** 6

# terms x working digits at x = 1, sized so that prec 100 (8000 terms at
# 110 digits, about 0.05 s) still runs
_WORK_CAP = 10 ** 6


def _binary_rational(x) -> tuple[int, int]:
    """(m, k) with x = m / 2^k exactly, for an mpf x with |x| <= 1."""
    man, exp = x.man_exp
    return (-man if x < 0 else man), -exp


def _sum_at_one(upper, lower, prec: int, terms: int | None = None):
    """(t_0 + ... + t_N, [t_(N-2), t_(N-1), t_N], N) for pFq(upper; lower; 1)
    at the caller's working precision, the sum before the power-law tail:
    N is `terms`, or max(1500, 80 prec) when it is None.  The terms are
    series.hyper_terms_fixed's; where every term ratio is at most 1, as
    for the bcc sums, their fixed-point sum is within
    2^-(working bits + FIXED_GUARD) of the exact partial sum.
    ResourceLimit, before any term is formed, when N x working digits
    exceeds _WORK_CAP."""
    if terms is None:
        terms = max(1500, 80 * prec)
    if terms * _dps(prec) > _WORK_CAP:
        raise ResourceLimit(f"{terms} terms at {_dps(prec)} digits; "
                            f"cap is {_WORK_CAP} term-digits")
    wbits = fixed_bits(mp.mp.prec, terms)
    ts = list(islice(hyper_terms_fixed(upper, lower, 1, 0, 1 << wbits), terms + 1))
    return (mp.ldexp(sum(ts), -wbits), [mp.ldexp(t, -wbits) for t in ts[-3:]], terms)


def _table_sum(spec: LatticeSpec, values, z):
    """(sum_m a_m x^m, its last three terms) over the table values, with
    x = (z/q)^s, at the caller's working precision.

    z, an mpf with |z| <= 1, is taken as its exact binary rational, so
    x = m^s / (q^s 2^(k s)) is exact and series.horner_fixed sums the
    integer table in fixed point with fixed_bits(working bits, N) bits,
    within N units of the exact partial sum.  The last terms, for the
    error estimate and the power-law tail, are a_m x^m in mpf."""
    s, q = spec.steps_per_index, spec.coordination
    m, k = _binary_rational(z)
    n = len(values) - 1
    wbits = fixed_bits(mp.mp.prec, n)
    total = horner_fixed([a << wbits for a in values], m ** s, k * s, q ** s)
    x = (z / q) ** s
    return (mp.ldexp(total, -wbits),
            [mp.mpf(values[i]) * x ** i for i in range(max(n - 2, 0), n + 1)])


def _terms_below_one(spec: LatticeSpec, z, prec: int) -> int:
    """The term rule for P(0; z) at |z| < 1: the terms fall by
    rate = -s log10|z| digits each, so int(prec/rate) + 20 of them; 40 at
    z = 0."""
    if z == 0:
        return 40
    return int(prec / (-spec.steps_per_index * mp.log10(abs(z)))) + 20


def lgf_series_eval(spec: LatticeSpec, z, prec: int = 30, terms: int | None = None,
                    tail: str = "none") -> EvalResult:
    """Partial sum of P(0; z) = sum a_n (z/q)^n with an error estimate.

    tail="power-law-corrected" adds the fitted n^(-dim/2) tail, which is
    what makes z = 1 reachable for the d >= 3 walks; at z = 1 the bcc
    terms are those of the pFq sum (1/2, ..., 1/2; 1, ..., 1; 1) and need
    no tables.  At z = -1 the terms equal those at z = 1 when every table
    index is an even number of steps; a family with an odd number
    (triangular, fcc) has alternating terms, which the one-signed tail
    cannot fit, and is refused with DomainError, as is a `terms` below 3
    at |z| = 1, where the tail is fitted on the last three.  An explicit
    `terms` above the cap, or bcc z = 1 terms whose count times the
    working digits passes _WORK_CAP, is refused before any work.
    """
    if tail not in ("none", "power-law-corrected"):
        raise ValueError(f"unknown tail mode {tail!r}")
    if terms is not None and terms > _TERM_CAP:
        raise ResourceLimit(f"{terms} terms requested; cap is {_TERM_CAP}")
    with mp.workdps(_dps(prec)):
        z = mp.mpf(z)
        if abs(z) > 1:
            raise DomainError("|z| <= 1 only")
        at_one = abs(z) == 1
        s = spec.steps_per_index
        if z == -1 and s % 2:
            raise DomainError(f"{spec.name} at z = -1: one table index is {s} step(s), "
                              "so the terms alternate and no one-signed tail fits")
        if at_one and spec.dim == 2:
            raise DivergentRequest("2d walks are recurrent: P(0;1) diverges")
        if at_one and terms is not None and terms < 3:
            raise DomainError(f"{terms} term(s) at |z| = 1: the fitted tail needs 3")
        p_exp = mp.mpf(spec.dim) / 2
        if at_one and spec.family == "bcc":
            d = spec.dim
            value, last, terms = _sum_at_one([Q(1, 2)] * d, [Q(1)] * (d - 1), prec, terms)
        else:
            if terms is None:
                terms = 400 if at_one else _terms_below_one(spec, z, prec)
                if terms > _TERM_CAP:
                    raise ResourceLimit(f"{terms} terms needed; cap is {_TERM_CAP}")
            value, last = _table_sum(spec, coeffs(spec, terms).values, z)
        if at_one:
            tail3, spread = _power_law_tail(last, p_exp, terms)
            if tail == "power-law-corrected":
                return EvalResult(value + tail3, spread, terms,
                                  note=f"fitted n^-{p_exp} tail added")
            return EvalResult(value, abs(tail3) + spread, terms,
                              note="uncorrected; error bound is the fitted tail")
        # |z| < 1: geometric tail with ratio |z|^s, the limit that the term
        # ratios approach from below, floored at 10^-(prec + 8), which
        # covers the proved fixed-point rounding and the final rounding to
        # the working precision (both near 10^-(prec + 10)) when the
        # truncation is tiny
        rho = abs(z) ** s
        err = max(abs(last[-1]) * rho / (1 - rho), mp.mpf(10) ** (-(prec + 8)))
        return EvalResult(value, err, terms)


# -- generalized hypergeometric summation -------------------------------------


def pFq_eval(upper, lower, x, prec: int = 30):
    """pFq by direct summation; the value alone, no error bound.

    The terms, integers in fixed point from series.hyper_terms_fixed, are
    summed until one falls below 10**-(prec + 5) of max(|partial sum|, 1).
    For p <= q they fall factorially, so this covers the
    whole closed disk |x| <= 1.  For p = q+1 they fall like
    |x|^n n^-(1 + excess), excess = sum(lower) - sum(upper): at x = 1 the
    partial sum is completed with the fitted power-law tail instead, which
    is the path that reaches the hyper-bcc d=4 value, and a prec whose term
    count there passes _WORK_CAP is refused before any term is formed; at
    any other x, a sum whose 10^6-th term would still be above
    10**-(prec + 5) is refused before the first term (ResourceLimit).
    DomainError for |x| > 1, DivergentRequest for a sum that diverges
    (p > q+1, or p = q+1 with too small an excess on the unit circle).
    """
    upper = [Q(u) for u in upper]
    lower = [Q(l) for l in lower]
    if len(upper) > len(lower) + 1:
        raise DivergentRequest("p > q+1 diverges for x != 0")
    with mp.workdps(_dps(prec)):
        x = mp.mpf(x)
        if abs(x) > 1:
            raise DomainError("|x| > 1 outside the convergence disk")
        if x == 0:
            return mp.mpf(1)
        if len(upper) == len(lower) + 1:
            excess = sum(lower) - sum(upper)
            if x == 1 and excess <= 0:
                raise DivergentRequest(f"parameter excess {excess} <= 0 at x = 1")
            if x == -1 and excess <= -1:
                raise DivergentRequest(f"parameter excess {excess} <= -1 at x = -1")
            if x == 1:
                value, last, n = _sum_at_one(upper, lower, prec)
                tail3, _ = _power_law_tail(last, mp.mpf(1) + excess, n)
                return value + tail3
            # is log10 of |x|^n n^-(1 + excess) at n = 10^6 above -(prec + 5)?
            slack = 6 * (1 + excess) - (prec + 5)
            if _MAX_TERMS * mp.log10(abs(x)) > mp.mpf(slack.numerator) / slack.denominator:
                raise ResourceLimit(f"terms fall like |x|^n n^-{1 + excess} at "
                                    f"x = {mp.nstr(x, 8)}: prec {prec} needs more "
                                    "than 10^6 of them")
        # stop at a term below 2^-drop <= 10^-(prec + 5) of max(|sum|, 1),
        # compared by bit lengths
        wbits = fixed_bits(mp.mp.prec, _MAX_TERMS)
        drop = int((prec + 5) * log(10, 2)) + 1
        total = 0
        m, k = _binary_rational(x)
        for n, t in enumerate(islice(hyper_terms_fixed(upper, lower, m, k, 1 << wbits),
                                     _MAX_TERMS)):
            if n > 9 and t.bit_length() + drop < max(total.bit_length(), wbits + 1):
                return mp.ldexp(total + t, -wbits)
            total += t
        raise PrecisionNotMet("pFq summation did not converge in 10^6 terms")


# -- Watson values ------------------------------------------------------------

_WATSON = ("diamond", "sc", "bcc", "fcc")


def watson(lattice3d: str, prec: int = 50):
    """The 3d P(0;1) constants as complete elliptic integrals, by the AGM.

    All four are K at singular moduli; with K^ = (2/pi) K (two_over_pi_K):

    - sc: 3(18 + 12 sqrt2 - 10 sqrt3 - 7 sqrt6) K^(k6^2)^2 with
      k6 = (2 - sqrt3)(sqrt3 - sqrt2) (Watson);
    - bcc: K^(1/2)^2, which is Gamma(1/4)^4/(4 pi^3) by
      K(1/2) = Gamma(1/4)^2/(4 sqrt(pi));
    - fcc: (3 sqrt3/4) K^(k3^2)^2 with k3^2 = (2 - sqrt3)/4, which is
      9 Gamma(1/3)^6/(2^(14/3) pi^4) by
      K(k3^2) = 3^(1/4) Gamma(1/3)^3/(2^(7/3) pi);
    - diamond: exactly (4/3) fcc.

    No Gamma value is computed, so high precision costs only the AGM.
    The tests pin these against the Gamma-product forms.
    """
    if lattice3d not in _WATSON:
        raise UnsupportedLattice(f"no Watson constant for {lattice3d!r}")
    with mp.workdps(_dps(prec)):
        r2, r3 = mp.sqrt(2), mp.sqrt(3)
        if lattice3d == "sc":
            k6 = (2 - r3) * (r3 - r2)
            c = 18 + 12 * r2 - 10 * r3 - 7 * r2 * r3
            return 3 * c * two_over_pi_K(k6 ** 2, prec) ** 2
        if lattice3d == "bcc":
            return two_over_pi_K(mp.mpf(1) / 2, prec) ** 2
        fcc = 3 * r3 / 4 * two_over_pi_K((2 - r3) / 4, prec) ** 2
        return fcc * 4 / 3 if lattice3d == "diamond" else fcc


# -- closed forms -------------------------------------------------------------

CLOSED_FORM_IDS = (
    "honeycomb", "square", "triangular",
    "sc3", "bcc3", "fcc3", "diamond3", "diamond-algebraic-2F1",
    "rogers-diamond", "rogers-fcc",
    "honeycomb-map-fcc", "honeycomb-map-sc", "honeycomb-map-bcc",
    "honeycomb-map-diamond", "fourd-sc-double-elliptic",
)


def _honeycomb_form(z):
    k = 4 * z ** 2 / ((3 - z) * mp.sqrt(z * (3 - z) * (1 + z)))
    return 3 * mp.sqrt(3) / ((3 - z) * mp.sqrt((3 - z) * (1 + z))), k


def _square_form(z):
    return mp.mpf(1), z


def _triangular_form(z):
    a = 3 / z + 1 - mp.sqrt(3 + 6 / z)
    b = 3 / z + 1 + mp.sqrt(3 + 6 / z)
    c = (a + 1) * (b - 1)
    return 3 / (z * mp.sqrt(c)), mp.sqrt(2 * (b - a) / c)


def _diamond_k2(z, sign):
    z = mp.mpf(z)
    return (mp.mpf(1) / 2 + sign * z ** 2 * mp.sqrt(4 - z ** 2) / 4
            - (2 - z ** 2) * mp.sqrt(1 - z ** 2) / 4)


def _diamond3_value(z, prec):
    # the diamond3 form, (2/pi)^2 K(k+^2) K(k-^2)
    return two_over_pi_K(_diamond_k2(z, +1), prec) * two_over_pi_K(_diamond_k2(z, -1), prec)


def _diamond_alg_form(z):
    # printed as 2F1(1/2, 1/2; 1; k^2)^2 = (2/pi)^2 K(k^2)^2
    return mp.sqrt(4 - z ** 2) - mp.sqrt(1 - z ** 2), mp.sqrt(_diamond_k2(z, -1))


# forms whose printed elliptic/2F1 argument does not say whether it is
# k or k^2; each returns (prefactor, printed argument) and its value is
# prefactor * ((2/pi) K)^power
_AMBIGUOUS_EVAL = {
    "honeycomb": (_honeycomb_form, LatticeSpec("honeycomb", 2), 1),
    "square": (_square_form, LatticeSpec("square", 2), 1),
    "triangular": (_triangular_form, LatticeSpec("triangular", 2), 1),
    "diamond-algebraic-2F1": (_diamond_alg_form, LatticeSpec("diamond", 3), 2),
}
# the reading joyce_closed_form gives every ambiguous printed argument:
# the modulus k, so K takes m = k^2.  convention_report proves it
_READING = "modulus"


def _ambiguous_value(form_id: str, z, prec: int, convention: str):
    form, _, power = _AMBIGUOUS_EVAL[form_id]
    pre, k = form(z)
    m = k ** 2 if convention == "modulus" else k
    return pre * two_over_pi_K(m, prec) ** power


def convention_report(prec: int = 30) -> list[ConditionReport]:
    """Judge both readings of every ambiguous elliptic argument against
    its series at z = 0.1 and 0.2, one table per form.

    A form passes only when _READING, the reading joyce_closed_form
    evaluates, is the one reading that matches; anything else is
    reported as a failure rather than silently picked.
    """
    out = []
    for form_id, (_, spec, _) in _AMBIGUOUS_EVAL.items():
        with mp.workdps(_dps(prec)):
            points = (mp.mpf("0.1"), mp.mpf("0.2"))
            table = coeffs(spec, _terms_below_one(spec, points[-1], prec))
            refs = [(z, _table_sum(spec, table.values, z)[0]) for z in points]
            winners = [c for c in ("modulus", "parameter")
                       if all(_contract_check(_ambiguous_value(form_id, z, prec, c), ref, prec)
                              for z, ref in refs)]
        if winners == [_READING]:
            out.append(ConditionReport(
                form_id, True, detail=f"printed argument is the {_READING}"))
        else:
            out.append(ConditionReport(
                form_id, False,
                detail=f"{form_id}: conventions matching the series: {winners}"))
    return out


def _unit_interval(z):
    """z as an mpf at the caller's working precision; DomainError unless
    0 <= z < 1, the validated domain of the cubic-family closed forms and
    the convergence domain of the Bessel and Abel integrals."""
    z = mp.mpf(z)
    if not 0 <= z < 1:
        raise DomainError(f"z = {z}: the domain is 0 <= z < 1")
    return z


def _xi_form(prec, xi, prefactor_num):
    # shared shell of the sc/fcc xi-parametrized forms
    m = 16 * xi ** 3 / ((1 - xi) ** 3 * (1 + 3 * xi))
    return prefactor_num / ((1 - xi) ** 3 * (1 + 3 * xi)) * two_over_pi_K(m, prec) ** 2


def joyce_closed_form(form_id: str, z, prec: int = 30):
    """Evaluate one printed closed form at real z (or xi for the maps).

    Principal real branches throughout; the certified domain is the
    validated neighborhood of 0 (0 <= z < 1 for the cubic-family forms).
    """
    if form_id not in CLOSED_FORM_IDS:
        raise DomainError(f"unknown closed form {form_id!r}")
    if form_id.startswith("honeycomb-map-"):
        return honeycomb_map_eval(form_id.removeprefix("honeycomb-map-"), z, prec)[1]
    if form_id == "fourd-sc-double-elliptic":
        return fourd_sc_double_elliptic(z, prec)
    if form_id.startswith("rogers-"):
        return rogers_3f2(form_id.removeprefix("rogers-"), z, prec)
    with mp.workdps(_dps(prec)):
        z = _unit_interval(z)
        if form_id in _AMBIGUOUS_EVAL:
            return _ambiguous_value(form_id, z, prec, _READING) if z else mp.mpf(1)
        if form_id == "sc3":
            xi = ((1 + mp.sqrt(1 - z ** 2)) ** mp.mpf("-0.5")
                  * (1 - mp.sqrt(1 - z ** 2 / 9)) ** mp.mpf("0.5"))
            return _xi_form(prec, xi, 1 - 9 * xi ** 4)
        if form_id == "bcc3":
            m = mp.mpf(1) / 2 - mp.sqrt(1 - z ** 2) / 2
            return two_over_pi_K(m, prec) ** 2
        if form_id == "fcc3":
            # the inner root must carry z/3, mirroring the z^2/9 of the
            # sc form; the 3z reading fails against the series in the
            # second digit and puts the branch points in the wrong place
            xi = (-1 + mp.sqrt(1 + z / 3)) / (1 + mp.sqrt(1 - z))
            return _xi_form(prec, xi, (1 + 3 * xi ** 2) ** 2)
        if form_id == "diamond3":
            return _diamond3_value(z, prec)
        raise DomainError(f"unhandled form {form_id!r}")


def honeycomb_map_eval(target: str, xi, prec: int = 30):
    """Map a honeycomb series value R(xi) = sum b_n xi^(2n) to a 3d LGF.

    R(xi) is the honeycomb P at z = 3 xi, summed by lgf_series_eval to
    its own term count.  Returns (z, P(z)).  The sc map produces z^2 > 0
    and the positive root is returned; the bcc and diamond maps produce
    z^2 < 0, so z comes back imaginary while P stays real (the even
    series is evaluated directly in z^2).
    """
    if target not in ("fcc", "sc", "bcc", "diamond"):
        raise DomainError(f"no honeycomb map for {target!r}")
    with mp.workdps(_dps(prec)):
        xi = mp.mpf(xi)
        if not 0 <= xi < mp.mpf(1) / 4:
            raise DomainError("validated domain is 0 <= xi < 1/4")
        r = lgf_series_eval(LatticeSpec("honeycomb", 2), 3 * xi, prec).value
        x2 = xi ** 2
        if target == "fcc":
            z = -12 * x2 / (1 - 3 * x2) ** 2
            return z, (1 - 3 * x2) ** 2 * r ** 2
        if target == "sc":
            z2 = 36 * x2 * (1 - 9 * x2) * (1 - x2) / (1 - 9 * x2 ** 2) ** 2
            return mp.sqrt(z2), (1 - 9 * x2 ** 2) * r ** 2
        if target == "bcc":
            z2 = -64 * x2 ** 3 / ((1 - 9 * x2) * (1 - x2) ** 3)
            value = (1 - 9 * x2) ** mp.mpf("0.5") * (1 - x2) ** mp.mpf("1.5") * r ** 2
            return mp.sqrt(mp.mpc(z2)), value
        z2 = -16 * x2 / ((1 - 9 * x2) * (1 - x2))
        return mp.sqrt(mp.mpc(z2)), (1 - 9 * x2) * (1 - x2) * r ** 2


def rogers_3f2(target: str, z, prec: int = 30):
    """The single-3F2 forms of the diamond and fcc LGFs, summed by
    pFq_eval: 3F2(1/3, 1/2, 2/3; 1, 1; x) at the form's argument x."""
    if target not in ("diamond", "fcc"):
        raise DomainError(f"no 3F2 form for {target!r}")
    with mp.workdps(_dps(prec)):
        z = mp.mpf(z)
        if target == "diamond":
            scale = 1 - z ** 2 / 4
            arg = 27 * z ** 4 / (64 * scale ** 3)
        else:
            scale, arg = 1, z ** 2 * (3 + z) / 4
        if abs(arg) >= 1:
            raise DomainError("3F2 argument outside the unit disk")
        return pFq_eval([Q(1, 3), Q(1, 2), Q(2, 3)], [1, 1], arg, prec) / scale


def fourd_sc_double_elliptic(z, prec: int = 30):
    """P for the 4d hypercubic walk as a double elliptic integral.

    (8/pi^3) int_0^1 K(k+(tz)) K(k-(tz)) dt/sqrt(1-t^2), with k+- the 3d
    diamond moduli.  The prefactor and integrand arguments follow from
    the Abel relation between the 4d cubic and 3d diamond walks; at
    z = 0 both K are pi/2 and the value is exactly 1.  In t = sin(phi)
    it is the quarter-period mean of (2/pi)^2 K(k+(zt)) K(k-(zt)), the
    diamond3 form at zt, which _quarter_period_mean takes by the periodic
    trapezoid rule: k+- depend on zt only through (zt)^2, so the
    integrand is even in t.
    """
    with mp.workdps(_dps(prec)):
        z = _unit_interval(z)
        mean, _ = _quarter_period_mean(lambda t: _diamond3_value(z * t, prec), prec)
        return mean


# -- Bessel integrals ---------------------------------------------------------


def quadrature(f, interval, prec: int = 30):
    """mp.quad with the working precision set from prec.

    Returns (value, error_estimate).  PrecisionNotMet when the internal
    estimate misses the requested precision by more than two digits.
    """
    with mp.workdps(_dps(prec)):
        value, err = mp.quad(f, interval, error=True)
        if err > mp.mpf(10) ** (-(prec - 2)):
            raise PrecisionNotMet(f"quadrature error estimate {err}")
        return value, err


_MAX_PANELS = 4096


def _quarter_period_mean(f, prec: int):
    """(2/pi) int_0^(pi/2) f(sin phi) dphi for f even and analytic on [-1, 1].

    Returns (value, error_estimate).  f(sin phi) is then even about 0 and
    pi/2 and analytic in phi, so the trapezoid rule on [0, pi/2] with
    half-weight endpoints is the periodic trapezoid rule, which converges
    geometrically.  The panels start at 2 and double, each sum reusing
    every earlier node, so f is evaluated once per distinct node; it stops
    when two successive sums agree to 10**-(prec + 2) relative, and their
    difference, floored at 10**-(prec + 8), is the error estimate.
    PrecisionNotMet past _MAX_PANELS panels.
    """
    with mp.workdps(_dps(prec)):
        tol = mp.mpf(10) ** (-(prec + 2))
        panels = 2
        total = (f(mp.mpf(0)) + f(mp.mpf(1))) / 2 + f(mp.sin(mp.pi / 4))
        value = total / panels
        while panels < _MAX_PANELS:
            # the new nodes are the midpoints (2j + 1) pi / (4 panels)
            step = mp.pi / (4 * panels)
            total += mp.fsum(f(mp.sin((2 * j + 1) * step)) for j in range(panels))
            panels *= 2
            value, previous = total / panels, value
            diff = abs(value - previous)
            if diff <= tol * abs(value):
                return value, max(diff, mp.mpf(10) ** (-(prec + 8)))
        raise PrecisionNotMet(
            f"trapezoid sums still differ by {mp.nstr(diff, 3)} at {panels} panels")


def _ascending_terms(t, wp: int):
    """(t^2/4)^k / (k!)^2 for k = 0, 1, ... in fixed point with wp bits,
    while nonzero: the terms of I0(t) (DLMF 10.25.2), all positive."""
    q = int(mp.ldexp(t * t, wp - 2))
    term = 1 << wp
    k = 0
    while term:
        yield term
        k += 1
        term = (term * q >> wp) // (k * k)


def _asymptotic_terms(t, wp: int):
    """((2k-1)!!)^2 / (k! (8t)^k) for k = 0, 1, ... in fixed point with wp
    bits, while nonzero and decreasing: the magnitudes of the terms of the
    K0 and I0 asymptotic series (DLMF 10.40.2 and 10.40.1).  It stops at
    the least term if that comes first."""
    x = int(mp.ldexp(8 * t, wp))
    term = 1 << wp
    k = 0
    while term:
        yield term
        k += 1
        nxt = (term * (2 * k - 1) ** 2 << wp) // (k * x)
        if nxt >= term:
            return
        term = nxt


def _k0(t):
    """K0(t) for t > 0 at the caller's working precision.

    Below t = 1.2 (dps + 5) it is the ascending series (DLMF 10.31.2)
    K0(t) = -(ln(t/2) + gamma) I0(t) + sum_(k>=1) (t^2/4)^k H_k / (k!)^2,
    with I0(t) from the same terms, _ascending_terms.  Both sums are about
    e^t while K0 is about e^-t, so they are taken in fixed point with
    0.87 t + 8 extra digits, which cover the cancellation of e^(2t).
    Above it is the asymptotic series (DLMF 10.40.2)
    K0(t) = sqrt(pi/(2t)) e^-t sum_k (-1)^k ((2k-1)!!)^2 / (k! (8t)^k),
    stopped at the first term below the working epsilon or before the
    least term, whichever comes first; by DLMF 10.40.10 the remainder is
    no larger than the first neglected term.  At the branch point the
    least term, near k = 2t, is already below 10^-(dps + 5).
    """
    t = mp.mpf(t)
    dps = mp.mp.dps
    if t < mp.mpf("1.2") * (dps + 5):
        with mp.workdps(dps + int(mp.mpf("0.87") * t) + 8):
            wp = mp.mp.prec
            one = 1 << wp
            h = s = i0 = 0
            for k, term in enumerate(_ascending_terms(t, wp)):
                if k:
                    h += one // k
                i0 += term
                s += term * h >> wp
            value = mp.ldexp(s, -wp) - (mp.log(t / 2) + mp.euler) * mp.ldexp(i0, -wp)
        return +value
    with mp.workdps(dps + 3):
        wp = mp.mp.prec
        total = sum(-term if k % 2 else term
                    for k, term in enumerate(_asymptotic_terms(t, wp)))
        value = mp.sqrt(mp.pi / (2 * t)) * mp.exp(-t) * mp.ldexp(total, -wp)
    return +value


def _i0(x):
    """I0(x) for real x at the caller's working precision.

    I0 is even, so x is taken as |x|.  Below x = 1.2 (dps + 5), the switch
    of _k0, it is the ascending series (DLMF 10.25.2), the terms _k0 sums
    for its I0; they are all positive, so no digits are needed for
    cancellation.  Above it is the asymptotic series (DLMF 10.40.1)
    I0(x) = e^x / sqrt(2 pi x) sum_k ((2k-1)!!)^2 / (k! (8x)^k),
    the magnitudes of _k0's terms, all positive, summed to the first term
    below the working epsilon, which comes before the least term as in
    _k0.  DLMF 10.40(ii) bounds its remainder by writing I0(x) through
    K0(x e^(pi i)) (the connection formula 10.34.2) and applying 10.40.11
    and 10.40.12 at ph z = pi: after l terms it is at most
    2 chi(l) e^(pi/(8x)) times the first neglected term, with
    chi(l) = sqrt(pi) Gamma(l/2 + 1)/Gamma(l/2 + 1/2) < sqrt(pi (l + 2)/2).
    Either sum has l < 3 (dps + 5) terms.  Their fixed-point truncations
    cost at most 5 l units of the last bit relative to the sum, and the
    asymptotic remainder less than 3 sqrt(l + 2) more, so the 5 guard
    digits cover both below dps 6000.
    """
    x = abs(mp.mpf(x))
    dps = mp.mp.dps
    with mp.workdps(dps + 5):
        wp = mp.mp.prec
        if x < mp.mpf("1.2") * (dps + 5):
            value = mp.ldexp(sum(_ascending_terms(x, wp)), -wp)
        else:
            value = (mp.exp(x) / mp.sqrt(2 * mp.pi * x)
                     * mp.ldexp(sum(_asymptotic_terms(x, wp)), -wp))
    return +value


def _laplace_cut(c, dps: int) -> float:
    """The T past which the [0, inf) Bessel integrands are dropped.

    With a = 1 - c > 0, I0(x) <= e^x for x >= 0 (I0(x) is the mean of
    e^(x cos theta) over [0, pi]) and K0(t) <= sqrt(pi/(2t)) e^-t (DLMF
    10.40.10: after the first term the remainder has the sign of -1/(8t)),
    the integrands t I0(c t/m)^m K0(t) of _i0_transform are at most
    sqrt(pi t/2) e^(-a t), and so are its integrands e^-t I0(c t/m)^m for
    t >= 2/pi.  Since sqrt(t) <= sqrt(T) e^((t - T)/(2T)) for t >= T and
    a T >= 1, the tail past T is at most sqrt(2 pi T) e^(-a T)/a.  With
    L = (dps + 2) ln 10 - ln a, T is the first of L/a, (L + 1)/a, ...
    where that bound is at most 10^-(dps + 2).  Every one of these
    integrals is at least 1 (I0 >= 1, int e^-t dt = 1 and
    int t K0(t) dt = 1), so the dropped tail is below 10^-(dps + 2) of the
    value.
    """
    a = float(1 - c)
    L = (dps + 2) * log(10) - log(a)
    T = L / a
    while a * T - log(2 * pi * T) / 2 < L:
        T += 1 / a
    return T


def _i0_transform(m: int, c, prec: int, weight):
    """int_0^inf weight(t) I0(ct/m)^m dt for 0 <= c < 1, with weight(t)
    e^-t or t K0(t): the m-cubic P(c) as a Laplace integral, the d-diamond
    P(c) at m = d + 1, and both sides of bessel_connection_check.  The
    integrand is 0 past _laplace_cut(c, dps), which drops less than
    10^-(dps + 2) of the value; mp.quad still runs on [0, inf) with its
    own nodes and error estimate, and no I0 or weight is computed at the
    far nodes."""
    cut = _laplace_cut(c, _dps(prec))
    value, _ = quadrature(lambda t: weight(t) * _i0(c * t / m) ** m if t <= cut else 0,
                          [0, mp.inf], prec)
    return value


def _series_identity(spec: LatticeSpec, z, prec: int, integral) -> IdentityCheck:
    """integral(z) against the series of spec at z, for 0 <= z < 1.  The
    series, by lgf_series_eval, comes first, so a z whose term count
    passes the cap is refused before any quadrature."""
    with mp.workdps(_dps(prec)):
        z = _unit_interval(z)
        rhs = lgf_series_eval(spec, z, prec).value
        return _contract_check(integral(z), rhs, prec)


def bessel_sc_check(d: int, z, prec: int = 25) -> IdentityCheck:
    """int_0^inf e^-t I0(zt/d)^d dt against the d-cubic series at z.

    The integrand is cut where its tail, at most e^(-(1-z) T)/(1-z) since
    I0(x) <= e^x, falls below 10^-(dps + 2) of the value, which is at
    least 1 (_laplace_cut).
    """
    return _series_identity(LatticeSpec("sc", d), z, prec,
                            lambda z: _i0_transform(d, z, prec, lambda t: mp.exp(-t)))


def bessel_diamond_check(d: int, z, prec: int = 25) -> IdentityCheck:
    """int_0^inf t I0(zt/(d+1))^(d+1) K0(t) dt against the d-diamond series.

    The integrand is at most sqrt(pi t/2) e^(-(1-z) t), by I0(x) <= e^x
    and K0(t) <= sqrt(pi/(2t)) e^-t (DLMF 10.40.10), and is 0 past the T
    of _laplace_cut, where that bound's tail falls below 10^-(dps + 2) of
    the value, which is at least 1; no I0 or K0 is computed past T.
    """
    return _series_identity(LatticeSpec("diamond", d), z, prec,
                            lambda z: _i0_transform(d + 1, z, prec, lambda t: t * _k0(t)))


def bessel_connection_check(d: int, z, prec: int = 20) -> IdentityCheck:
    """The Laplace I0^d integral against its Abel/K0 double-integral twin.

    The outer integral, (2/pi) int_0^(pi/2) in u = sin(phi), is the
    quarter-period mean of an integrand even in u (I0 is even), taken by
    the periodic trapezoid rule.  Every inner [0, inf) rule,
    _i0_transform(d, zu) with weight t K0(t), runs on the same nodes t, so
    the weight is evaluated once per distinct node and reused by all
    outer nodes.  Its integrand is at most sqrt(pi t/2) e^(-(1-zu) t), as
    in bessel_diamond_check, and is 0 past the T of _laplace_cut(zu),
    which drops less than 10^-(dps + 2) of the inner value (at least 1),
    so of the mean too.
    """
    with mp.workdps(_dps(prec)):
        z = _unit_interval(z)
        cache = {}

        def t_k0(t):
            if t not in cache:
                cache[t] = t * _k0(t)
            return cache[t]

        rhs, _ = _quarter_period_mean(lambda u: _i0_transform(d, z * u, prec, t_k0), prec)
        return _contract_check(_i0_transform(d, z, prec, lambda t: mp.exp(-t)), rhs, prec)


def abel_forward_check(d: int, z, prec: int = 20):
    """The half-circle moment identity, exactly and under the integral.

    Exact part: the half-circle moments
    (2/pi) int_0^1 t^(2n)/sqrt(1-t^2) dt = (2n-1)!!/(2n)!!, the terms
    (1/2)_n/n! of 1F0(1/2;;1), equal C(2n,n)/4^n for n <= 20.  Numeric
    part: P_d(z) = (2/pi) int_0^1 Z_d(t^2 z^2/d^2)/sqrt(1-t^2) dt with
    Z_d the structure-sum generating function, taken to the term count
    lgf_series_eval picks for the series side (before any quadrature) and
    evaluated by Horner's rule on coefficients converted to mpf once.
    In t = sin(phi) the integral is the quarter-period mean of
    Z_d(z^2 t^2/d^2), even in t, taken by the periodic trapezoid rule.
    """
    exact = all(t == Q(comb(2 * n, n), 4 ** n)
                for n, t in zip(range(21), hyper_terms([Q(1, 2)], [])))
    reports = [ConditionReport("half-circle moments exact through n=20", exact)]
    with mp.workdps(_dps(prec)):
        z = _unit_interval(z)
        r = lgf_series_eval(LatticeSpec("sc", d), z, prec)
        series = r.value
        sums = [mp.mpf(s) for s in reversed(structure_sums(d, r.terms_used))]
        w = z ** 2 / d ** 2
        integral, _ = _quarter_period_mean(lambda u: mp.polyval(sums, w * u ** 2), prec)
        check = _contract_check(integral, series, prec)
        reports.append(ConditionReport(
            f"Abel integral matches the d={d} cubic series", bool(check),
            detail=f"difference {mp.nstr(abs(integral - series), 3)}"))
    return reports


# -- Ramanujan 1/pi series ----------------------------------------------------


@dataclass(frozen=True)
class RamanujanSeries:
    """sum_n (A n + B) x0^n a_n = c/pi with A, B, x0 and c in Q(sqrt(3));
    a_n is the return-count table of lattice."""

    lattice: LatticeSpec
    a: QSqrt3            # A
    b: QSqrt3            # B
    x0: QSqrt3
    c: QSqrt3


_DIAMOND3, _SC3, _BCC3 = LatticeSpec("diamond", 3), LatticeSpec("sc", 3), LatticeSpec("bcc", 3)

_RAMANUJAN = {
    "diam-32": RamanujanSeries(_DIAMOND3, QSqrt3(3), QSqrt3(1),
                               QSqrt3(Q(-1, 32)), QSqrt3(2)),
    "diam-64": RamanujanSeries(_DIAMOND3, QSqrt3(5), QSqrt3(1),
                               QSqrt3(Q(1, 64)), QSqrt3(0, Q(8, 3))),
    "diam-sqrt3": RamanujanSeries(_DIAMOND3, QSqrt3(6), QSqrt3(3, -1),
                                  QSqrt3(Q(-5, 4), Q(3, 4)), QSqrt3(9, 5)),
    "sc-484": RamanujanSeries(_SC3, QSqrt3(520), QSqrt3(159, -48),
                              QSqrt3(Q(-139, 484), Q(20, 121)), QSqrt3(128, 58)),
    "bcc-256": RamanujanSeries(_BCC3, QSqrt3(6), QSqrt3(1),
                               QSqrt3(Q(1, 256)), QSqrt3(4)),
    "bcc-4096": RamanujanSeries(_BCC3, QSqrt3(42), QSqrt3(5),
                                QSqrt3(Q(1, 4096)), QSqrt3(16)),
}

RAMANUJAN_IDS = tuple(_RAMANUJAN)


def _surd_fixed(x: QSqrt3, root3: int, wbits: int) -> int:
    """x = a + b sqrt3 in wbits-bit fixed point, within |b| + 1 units,
    from root3 = isqrt(3 << 2 wbits), which is floor(2^wbits sqrt3)."""
    (p, q), (r, t) = x.a.as_integer_ratio(), x.b.as_integer_ratio()
    return ((p * t << wbits) + r * q * root3) // (q * t)


def _surd_series(a: QSqrt3, b: QSqrt3, x0: QSqrt3, values):
    """sum_n (a n + b) values[n] x0^n at the caller's working precision.

    a, b and x0 are held as single fixed-point reals with
    W = fixed_bits(working bits, N) bits, sqrt3 taken once from
    math.isqrt, and series.horner_fixed sums the integer table in x0.
    (Exact Q(sqrt3) components would carry the field conjugate of the
    sum, which reach thousands of bits where the value needs a few
    hundred.)  Horner's rule costs at most N units.  A surd whose sqrt3
    part is c is off by at most |c| + 1 units, which costs at most
    sum_n (n (|a_c| + 1) + |b_c| + 1) |values[n] x0^n| units through a
    and b, and (|x0_c| + 1) sum_n n |t_n| / |x0| through x0, t_n being
    the terms.  For the six registry series (|x0| >= 2^-12, sqrt3 parts
    at most 48, sum_n n |t_n| < 15) that is below 2^13 units, inside
    FIXED_GUARD's 2^16.
    """
    n = len(values) - 1
    wbits = fixed_bits(mp.mp.prec, n)
    root3 = isqrt(3 << 2 * wbits)
    A, B, X = (_surd_fixed(v, root3, wbits) for v in (a, b, x0))
    total = horner_fixed([(A * i + B) * v for i, v in enumerate(values)], X, wbits)
    return mp.ldexp(total, -wbits)


def ramanujan_eval(series_id: str, terms: int, prec: int = 30):
    """Exact partial sum of one 1/pi series against its target.

    Returns EvalResult-like data: (partial sum, target, |difference|),
    all at prec digits; the sum is taken in fixed point by _surd_series,
    within the working epsilon 10**-dps of the exact Q(sqrt(3)) sum.  The
    difference is floored at that epsilon times |target|: below it, it
    is the rounding of the two sides, not a measurement.
    A `terms` above the cap is refused before the table is built, as in
    lgf_series_eval.
    """
    if series_id not in _RAMANUJAN:
        raise DomainError(f"unknown series {series_id!r}")
    if terms < 1:
        raise DomainError("terms >= 1")
    if terms > _TERM_CAP:
        raise ResourceLimit(f"{terms} terms requested; cap is {_TERM_CAP}")
    s = _RAMANUJAN[series_id]
    values = coeffs(s.lattice, terms).values[:terms]
    with mp.workdps(_dps(prec)):
        partial = _surd_series(s.a, s.b, s.x0, values)
        target = s.c.to_mpf() / mp.pi
        floor = mp.mpf(10) ** -_dps(prec) * abs(target)
        return partial, target, max(abs(partial - target), floor)


def ramanujan_general_form_check(prec: int = 64) -> VerifyReport:
    """alpha P(z0) + beta (theta P)(z0) = 1/pi for the cubic-walk series.

    alpha, beta, and x0 = -z0^2/36 live in Q(sqrt(3)); the termwise
    combination (alpha + beta n) a_n x0^n reproduces the printed
    Ramanujan multipliers of series sc-484 exactly, which is asserted as a
    surd identity before any floating point enters.
    """
    alpha = QSqrt3(Q(1104, 242), Q(-591, 242))
    beta = QSqrt3(Q(1280, 121), Q(-580, 121))
    s = _RAMANUJAN["sc-484"]
    # exact consistency with the printed multipliers: (alpha + beta n) c == A n + B
    for n in (0, 1, 7):
        if (alpha + beta * n) * s.c != s.a * n + s.b:
            return VerifyReport(False, n, note="termwise multiplier mismatch")
    terms = max(80, int(prec / 1.4) + 20)
    values = coeffs(s.lattice, terms).values[:terms]
    with mp.workdps(_dps(prec)):
        value = _surd_series(beta, alpha, s.x0, values)
        check = _contract_check(value, 1 / mp.pi, prec)
        return VerifyReport(bool(check), terms,
                            note=f"residual {mp.nstr(abs(value - 1 / mp.pi), 3)}")


# -- return probabilities -----------------------------------------------------


def return_probability(spec: LatticeSpec, prec: int = 25):
    """1 - 1/P(0;1).  Exactly 1 for the recurrent 2d walks; Watson
    constants for the 3d set; tail-corrected series above that."""
    if spec.dim == 2:
        return mp.mpf(1)
    with mp.workdps(_dps(prec)):
        if spec.dim == 3 and spec.family in _WATSON:
            p1 = watson(spec.family, prec)
        else:
            p1 = lgf_series_eval(spec, 1, prec, tail="power-law-corrected").value
        return 1 - 1 / p1


# -- logarithmic Mahler measure -----------------------------------------------


def _jensen(poly: dict, tiny=0):
    """Jensen's formula for the Mahler measure of sum_e c_e x^e, given as
    {exponent: c}: log|lead| plus log|r| over the roots r outside the unit
    circle.  Leading coefficients with |c| <= tiny are dropped first."""
    cs = [poly.get(e, 0) for e in range(min(poly), max(poly) + 1)]
    while len(cs) > 1 and abs(cs[-1]) <= tiny:
        cs.pop()
    if len(cs) == 1:
        return mp.log(abs(cs[0]))
    if len(cs) == 2:
        roots = [-cs[0] / cs[1]]
    elif len(cs) == 3:
        # quadratics by the stable formula; Durand-Kerner stalls on the
        # (near-)double roots the quadrature nodes land on
        c, b, a = cs
        disc = mp.sqrt(b * b - 4 * a * c)
        if mp.re(mp.conj(b) * disc) < 0:
            disc = -disc
        q = -(b + disc) / 2
        roots = [q / a, c / q] if q != 0 else [0, 0]
    else:
        roots = mp.polyroots(list(reversed(cs)), maxsteps=500, extraprec=80)
    return mp.log(abs(cs[-1])) + mp.fsum(mp.log(abs(r)) for r in roots if abs(r) > 1)


def log_mahler_measure(F: dict, prec: int = 30):
    """Numeric m(F) of a Laurent polynomial given as {exponents: coeff}.

    One variable: exact Jensen evaluation, log|lead| + sum log|roots
    outside the unit circle|.  Two variables: the inner variable is
    eliminated by the same Jensen routine at each angle, and the outer
    integral over [0, pi] is taken by one mp.quad call on six panels of
    pi/6, whose edges hold pi/3 and 2pi/3, where the Jensen integrand of
    the common examples kinks (an inner root crossing the unit circle).
    The error is mp.quad's estimate, the sum of its panel estimates,
    floored at 10^-(prec + 8); PrecisionNotMet when it exceeds
    10^-(prec + 2), as it does when a kink falls inside a panel, where
    mp.quad converges slowly.  DomainError when every coefficient is 0.
    """
    if all(mp.mpf(c) == 0 for c in F.values()):
        raise DomainError("zero polynomial")
    nvars = len(next(iter(F)))
    if any(len(e) != nvars for e in F):
        raise DomainError("inconsistent exponent arity")
    with mp.workdps(_dps(prec)):
        if nvars == 0 or all(all(x == 0 for x in e) for e in F):
            c = sum(mp.mpf(v) for v in F.values())
            return mp.log(abs(c)), mp.mpf(0)
        if nvars == 1:
            m = _jensen({e: mp.mpf(c) for (e,), c in F.items()})
            return m, mp.mpf(10) ** (-(prec - 4))
        if nvars != 2:
            raise DomainError("one or two variables only")

        terms = [(ex, ey, mp.mpf(c)) for (ex, ey), c in F.items()]
        tiny = mp.mpf(10) ** (-_dps(prec))

        def inner_measure(phi):
            y = mp.expj(phi)
            poly: dict[int, mp.mpc] = {}
            for ex, ey, c in terms:
                poly[ex] = poly.get(ex, mp.mpc(0)) + c * y ** ey
            return _jensen(poly, tiny)

        v, err = mp.quad(inner_measure, [mp.pi * j / 6 for j in range(7)], error=True)
        if err > mp.mpf(10) ** (-(prec + 2)):
            raise PrecisionNotMet(f"panel error estimates sum to {mp.nstr(err, 3)}")
        # mp.quad's estimates can be below the last working digit, which
        # does not make the value exact
        return v / mp.pi, max(err, mp.mpf(10) ** (-(prec + 8)))
