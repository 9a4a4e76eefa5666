"""Arbitrary-precision evaluation of the closed forms.

Everything here returns mpmath floats computed with guard digits: a call
asking for `prec` decimal digits works internally at prec + 10 and the
documented contract is a relative error below 10**(2 - prec) unless a
function says otherwise.  Quadrature-backed results carry an explicit
error estimate instead.

Elliptic-argument conventions are a minefield: the source formulas write
K(k) in some places and feed k^2-type expressions in others.  Every
formula with an ambiguous argument is resolved *empirically* against the
exact lattice series (convention_report below), never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import mpmath as mp

from .errors import (
    DivergenceError,
    DivergentRequest,
    DomainError,
    PrecisionNotMet,
    ResourceLimit,
    UnsupportedLattice,
)
from .lattices import LatticeSpec, coeffs, structure_sums
from .reports import ConditionReport, VerifyReport
from .surd import QSqrt3

Q = Fraction

_GUARD = 10


def _dps(prec: int) -> int:
    return max(prec, 5) + _GUARD


# -- elliptic integrals -------------------------------------------------------


@dataclass(frozen=True)
class EllipticArg:
    """Argument of K with its convention made explicit.

    convention "modulus" means value = k, "parameter" means value = m = k^2.
    """

    value: object
    convention: str

    def __post_init__(self):
        if self.convention not in ("modulus", "parameter"):
            raise ValueError(f"unknown convention {self.convention!r}")

    @staticmethod
    def modulus(k) -> "EllipticArg":
        return EllipticArg(k, "modulus")

    @staticmethod
    def parameter(m) -> "EllipticArg":
        return EllipticArg(m, "parameter")

    def parameter_value(self):
        v = mp.mpf(self.value) if not isinstance(self.value, mp.mpf) else self.value
        return v * v if self.convention == "modulus" else v


def agm(a, b):
    """Arithmetic-geometric mean at the current mpmath precision.

    Quadratic convergence; iterate until the pair coincides to working
    precision.  Both arguments must be positive.
    """
    a = mp.mpf(a)
    b = mp.mpf(b)
    if a <= 0 or b <= 0:
        raise ValueError("agm needs positive arguments")
    eps = mp.mpf(2) ** (-mp.mp.prec + 4)
    while abs(a - b) > eps * a:
        a, b = (a + b) / 2, mp.sqrt(a * b)
    return (a + b) / 2


def elliptic_K(arg: EllipticArg, prec: int = 50):
    """Complete elliptic integral of the first kind by the AGM.

    K(m) = pi / (2 agm(1, sqrt(1-m))).  Quadratic convergence, so the
    guard digits comfortably absorb the final rounding.
    """
    with mp.workdps(_dps(prec)):
        m = arg.parameter_value()
        if m >= 1:
            raise DomainError(f"parameter m = {m} >= 1: real K branch only")
        return mp.pi / (2 * agm(mp.mpf(1), mp.sqrt(1 - m)))


def gamma_rational(x, prec: int = 50):
    """Gamma at a positive rational, via mpmath's gamma with guard digits.

    mpmath evaluates to full working precision, so the error is below
    10**(2-prec); the test suite pins this against an independent
    Euler-integral quadrature oracle.
    """
    x = Q(x)
    if x <= 0:
        raise DomainError("positive rational arguments only")
    with mp.workdps(_dps(prec)):
        return mp.gamma(mp.mpf(x.numerator) / x.denominator)


# -- series evaluation --------------------------------------------------------


@dataclass(frozen=True)
class EvalResult:
    """A numeric value together with a machine-readable error estimate."""

    value: object
    error: object
    terms_used: int = 0
    note: str = ""

    def __float__(self) -> float:
        return float(self.value)


def _power_law_tail(terms, p, n_last):
    """Tail sum_{n>N} t_n for t_n ~ n^-p (C + D/n + E/n^2), via Hurwitz zeta.

    C, D, E are fitted on the last three computed terms; the spread
    between the 2- and 3-term fits is reported as the tail uncertainty.
    """
    ns = [n_last, n_last - 1, n_last - 2]
    rows = [[mp.mpf(1), 1 / mp.mpf(n), 1 / mp.mpf(n) ** 2] for n in ns]
    rhs = [terms[n] * mp.mpf(n) ** p for n in ns]
    sol3 = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))
    tail3 = (sol3[0] * mp.zeta(p, n_last + 1)
             + sol3[1] * mp.zeta(p + 1, n_last + 1)
             + sol3[2] * mp.zeta(p + 2, n_last + 1))
    sol2 = mp.lu_solve(mp.matrix([r[:2] for r in rows[:2]]), mp.matrix(rhs[:2]))
    tail2 = sol2[0] * mp.zeta(p, n_last + 1) + sol2[1] * mp.zeta(p + 1, n_last + 1)
    return tail3, abs(tail3 - tail2)


def _bcc_z1_terms(d: int, n_terms: int):
    # t_n = (C(2n,n)/4^n)^d without big binomials: ratio ((2n+1)/(2n+2))^d
    t = mp.mpf(1)
    out = []
    for n in range(n_terms + 1):
        out.append(t)
        t = t * ((2 * n + 1) / mp.mpf(2 * n + 2)) ** d
    return out


def lgf_series_eval(spec: LatticeSpec, z, prec: int = 30, terms: int | None = None,
                    tail: str = "none") -> EvalResult:
    """Partial sum of P(0; z) = sum a_n (z/q)^n with an error estimate.

    tail="power-law-corrected" adds the fitted n^(-dim/2) tail, which is
    what makes z = 1 reachable for the d >= 3 walks; the bcc family gets
    a term-recurrence fast path there since its terms need no tables.
    """
    if tail not in ("none", "power-law-corrected"):
        raise ValueError(f"unknown tail mode {tail!r}")
    with mp.workdps(_dps(prec)):
        z = mp.mpf(z)
        if abs(z) > 1:
            raise DomainError("|z| <= 1 only")
        at_one = abs(z) == 1
        if at_one and spec.dim == 2:
            raise DivergentRequest("2d walks are recurrent: P(0;1) diverges")
        s = spec.steps_per_index
        p_exp = mp.mpf(spec.dim) / 2
        if at_one and spec.family == "bcc":
            n_terms = terms if terms is not None else max(1500, 80 * prec)
            ts = _bcc_z1_terms(spec.dim, n_terms)
        else:
            if terms is None:
                if at_one:
                    terms = 400
                else:
                    rate = -s * mp.log10(abs(z)) if z != 0 else mp.inf
                    terms = 40 if rate == mp.inf else int(prec / rate) + 20
            if terms > 6000:
                raise ResourceLimit(f"{terms} terms requested; cap is 6000")
            table = coeffs(spec, terms)
            zq = z / spec.coordination
            ts = [mp.mpf(table[m]) * zq ** (s * m) for m in range(terms + 1)]
            n_terms = terms
        value = mp.fsum(ts)
        if at_one:
            tail3, spread = _power_law_tail(ts, p_exp, n_terms)
            if tail == "power-law-corrected":
                return EvalResult(value + tail3, spread, n_terms,
                                  note=f"fitted n^-{p_exp} tail added")
            return EvalResult(value, abs(tail3) + spread, n_terms,
                              note="uncorrected; error bound is the fitted tail")
        # |z| < 1: geometric tail with ratio |z|^s, the limit that the term
        # ratios approach from below, floored at the working roundoff so the
        # bound stays honest when truncation is tiny
        rho = abs(z) ** s
        err = max(abs(ts[-1]) * rho / (1 - rho), mp.mpf(10) ** (-(prec + 8)))
        return EvalResult(value, err, n_terms)


def _series_value(spec: LatticeSpec, z, prec: int, terms: int | None = None):
    return lgf_series_eval(spec, z, prec, terms).value


# -- generalized hypergeometric summation -------------------------------------


def pFq_eval(upper, lower, x, prec: int = 30):
    """pFq by direct summation with a term-ratio tail bound.

    At x = 1 the terms decay like n^(sum(upper)-sum(lower)-1) and the
    partial sum is completed with the fitted power-law tail; this is the
    path that reaches the hyper-bcc d=4 value.
    """
    upper = [Q(u) for u in upper]
    lower = [Q(l) for l in lower]
    if len(upper) > len(lower) + 1:
        raise DivergenceError("p > q+1 diverges for x != 0")
    with mp.workdps(_dps(prec)):
        x = mp.mpf(x)
        if abs(x) > 1:
            raise DivergenceError("|x| > 1 outside the convergence disk")
        if x == 0:
            return mp.mpf(1)
        if abs(x) == 1:
            excess = sum(lower) - sum(upper)
            if x == 1 and excess <= 0:
                raise DivergenceError(f"parameter excess {excess} <= 0 at x = 1")
            if x == -1 and excess <= -1:
                raise DivergenceError(f"parameter excess {excess} <= -1 at x = -1")
        t = mp.mpf(1)
        total = mp.mpf(0)
        target = mp.mpf(10) ** (-(prec + 5))
        if x == 1:
            p_exp = mp.mpf(1) + sum(lower) - sum(upper)
            n_terms = max(1500, 80 * prec)
            ts = []
            for n in range(n_terms + 1):
                ts.append(t)
                num = mp.mpf(1)
                for u in upper:
                    num *= (u + n)
                den = mp.mpf(1)
                for l in lower:
                    den *= (l + n)
                t = t * num / den / (n + 1)
            tail3, _ = _power_law_tail(ts, p_exp, n_terms)
            return mp.fsum(ts) + tail3
        for n in range(10 ** 6):
            total += t
            num = mp.mpf(1)
            for u in upper:
                num *= (u + n)
            den = mp.mpf(1)
            for l in lower:
                den *= (l + n)
            t = t * num / den * x / (n + 1)
            if abs(t) < target * max(abs(total), mp.mpf(1)) and n > 8:
                return total + t
        raise PrecisionNotMet("pFq summation did not converge in 10^6 terms")


# -- Watson values ------------------------------------------------------------

_WATSON = ("diamond", "sc", "bcc", "fcc")


def watson(lattice3d: str, prec: int = 50):
    """The 3d P(0;1) constants in Gamma-product form.

    diamond is exactly (4/3) fcc.  The printed forms of these constants
    circulate with scrambled powers of 2 and pi; the versions here are
    the ones that reproduce the standard decimal values (asserted to the
    last digit in the tests).
    """
    if lattice3d not in _WATSON:
        raise UnsupportedLattice(f"no Watson constant for {lattice3d!r}")
    with mp.workdps(_dps(prec)):
        pi = mp.pi
        if lattice3d == "sc":
            g1, g11 = mp.gamma(mp.mpf(1) / 24), mp.gamma(mp.mpf(11) / 24)
            return (mp.sqrt(3) - 1) / (32 * pi ** 3) * (g1 * g11) ** 2
        if lattice3d == "bcc":
            return mp.gamma(mp.mpf(1) / 4) ** 4 / (4 * pi ** 3)
        g3 = mp.gamma(mp.mpf(1) / 3)
        if lattice3d == "diamond":
            return 3 * g3 ** 6 / (2 ** (mp.mpf(8) / 3) * pi ** 4)
        return 9 * g3 ** 6 / (2 ** (mp.mpf(14) / 3) * pi ** 4)


# -- closed forms -------------------------------------------------------------

CLOSED_FORM_IDS = (
    "honeycomb", "square", "triangular",
    "sc3", "bcc3", "fcc3", "diamond3", "diamond-algebraic-2F1",
    "rogers-diamond", "rogers-fcc",
    "honeycomb-map-fcc", "honeycomb-map-sc", "honeycomb-map-bcc",
    "honeycomb-map-diamond", "fourd-sc-double-elliptic",
)

# forms whose printed elliptic/2F1 argument does not say whether it is
# k or k^2; resolved against the series and cached
_AMBIGUOUS = ("honeycomb", "square", "triangular", "diamond-algebraic-2F1")
_CONVENTION: dict[str, str] = {}


def _K2(m, prec):
    # (2/pi) K(parameter m), the combination every closed form uses
    return elliptic_K(EllipticArg.parameter(m), prec) * 2 / mp.pi


def _honeycomb_value(z, prec, convention):
    z = mp.mpf(z)
    pre = 6 * mp.sqrt(3) / (mp.pi * (3 - z) * mp.sqrt((3 - z) * (1 + z)))
    k = 4 * z ** 2 / ((3 - z) * mp.sqrt(z * (3 - z) * (1 + z)))
    m = k ** 2 if convention == "modulus" else k
    return pre * mp.pi / 2 * _K2(m, prec)


def _square_value(z, prec, convention):
    z = mp.mpf(z)
    m = z ** 2 if convention == "modulus" else z
    return _K2(m, prec)


def _triangular_value(z, prec, convention):
    z = mp.mpf(z)
    a = 3 / z + 1 - mp.sqrt(3 + 6 / z)
    b = 3 / z + 1 + mp.sqrt(3 + 6 / z)
    c = (a + 1) * (b - 1)
    kp = mp.sqrt(2 * (b - a) / c)
    m = kp ** 2 if convention == "modulus" else kp
    return 6 / (mp.pi * z * mp.sqrt(c)) * mp.pi / 2 * _K2(m, prec)


def _diamond_k2(z, sign):
    z = mp.mpf(z)
    return (mp.mpf(1) / 2 + sign * z ** 2 * mp.sqrt(4 - z ** 2) / 4
            - (2 - z ** 2) * mp.sqrt(1 - z ** 2) / 4)


def _diamond_alg_value(z, prec, convention):
    z = mp.mpf(z)
    m = _diamond_k2(z, -1)
    arg = m if convention == "modulus" else mp.sqrt(m)
    with mp.workdps(_dps(prec)):
        f = mp.hyp2f1(mp.mpf(1) / 2, mp.mpf(1) / 2, 1, arg)
        return (mp.sqrt(4 - z ** 2) - mp.sqrt(1 - z ** 2)) * f ** 2


_AMBIGUOUS_EVAL = {
    "honeycomb": (_honeycomb_value, LatticeSpec("honeycomb", 2)),
    "square": (_square_value, LatticeSpec("square", 2)),
    "triangular": (_triangular_value, LatticeSpec("triangular", 2)),
    "diamond-algebraic-2F1": (_diamond_alg_value, LatticeSpec("diamond", 3)),
}


def _resolve(form_id: str, prec: int = 30) -> str:
    if form_id in _CONVENTION:
        return _CONVENTION[form_id]
    fn, spec = _AMBIGUOUS_EVAL[form_id]
    winners = []
    with mp.workdps(_dps(prec)):
        for convention in ("modulus", "parameter"):
            ok = True
            for z in (mp.mpf("0.1"), mp.mpf("0.2")):
                ref = _series_value(spec, z, prec, terms=260)
                if abs(fn(z, prec, convention) - ref) > mp.mpf("1e-10"):
                    ok = False
                    break
            if ok:
                winners.append(convention)
    if len(winners) != 1:
        raise PrecisionNotMet(
            f"{form_id}: conventions matching the series: {winners}")
    _CONVENTION[form_id] = winners[0]
    return winners[0]


def convention_report(prec: int = 30) -> list[ConditionReport]:
    """Resolve every ambiguous elliptic argument against its series.

    Exactly one convention may survive per form; anything else is
    reported as a failure rather than silently picked.
    """
    out = []
    for form_id in _AMBIGUOUS:
        try:
            resolved = _resolve(form_id, prec)
            out.append(ConditionReport(
                form_id, True, detail=f"printed argument is the {resolved}"))
        except PrecisionNotMet as exc:
            out.append(ConditionReport(form_id, False, detail=str(exc)))
    return out


def _xi_form(prec, xi, prefactor_num):
    # shared shell of the sc/fcc xi-parametrized forms
    m = 16 * xi ** 3 / ((1 - xi) ** 3 * (1 + 3 * xi))
    return prefactor_num / ((1 - xi) ** 3 * (1 + 3 * xi)) * _K2(m, prec) ** 2


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
        z = mp.mpf(z)
        if form_id in _AMBIGUOUS_EVAL:
            if z == 0:
                return mp.mpf(1)
            if not 0 < z < 1:
                raise DomainError("validated domain is 0 <= z < 1")
            fn, _ = _AMBIGUOUS_EVAL[form_id]
            return fn(z, prec, _resolve(form_id))
        if not 0 <= z < 1:
            raise DomainError("validated domain is 0 <= z < 1")
        if form_id == "sc3":
            xi = ((1 + mp.sqrt(1 - z ** 2)) ** mp.mpf("-0.5")
                  * (1 - mp.sqrt(1 - z ** 2 / 9)) ** mp.mpf("0.5"))
            return _xi_form(prec, xi, 1 - 9 * xi ** 4)
        if form_id == "bcc3":
            m = mp.mpf(1) / 2 - mp.sqrt(1 - z ** 2) / 2
            return _K2(m, prec) ** 2
        if form_id == "fcc3":
            # the inner root must carry z/3, mirroring the z^2/9 of the
            # sc form; the 3z reading fails against the series in the
            # second digit and puts the branch points in the wrong place
            xi = (-1 + mp.sqrt(1 + z / 3)) / (1 + mp.sqrt(1 - z))
            return _xi_form(prec, xi, (1 + 3 * xi ** 2) ** 2)
        if form_id == "diamond3":
            kp = _diamond_k2(z, +1)
            km = _diamond_k2(z, -1)
            return (_K2(kp, prec) * mp.pi / 2) * (_K2(km, prec) * mp.pi / 2) * 4 / mp.pi ** 2
        raise DomainError(f"unhandled form {form_id!r}")


def honeycomb_map_eval(target: str, xi, prec: int = 30):
    """Map a honeycomb series value R(xi) = sum b_n xi^(2n) to a 3d LGF.

    Returns (z, P(z)).  The sc map produces z^2 > 0 and the positive
    root is returned; the bcc and diamond maps produce z^2 < 0, so z
    comes back imaginary while P stays real (the even series is
    evaluated directly in z^2).
    """
    if target not in ("fcc", "sc", "bcc", "diamond"):
        raise DomainError(f"no honeycomb map for {target!r}")
    with mp.workdps(_dps(prec)):
        xi = mp.mpf(xi)
        if not 0 <= xi < mp.mpf(1) / 4:
            raise DomainError("validated domain is 0 <= xi < 1/4")
        hc = coeffs(LatticeSpec("honeycomb", 2), 200)
        r = mp.fsum(mp.mpf(hc[m]) * xi ** (2 * m) for m in range(201))
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
    """The single-3F2 forms of the diamond and fcc LGFs."""
    if target not in ("diamond", "fcc"):
        raise DomainError(f"no 3F2 form for {target!r}")
    with mp.workdps(_dps(prec)):
        z = mp.mpf(z)
        third, half = mp.mpf(1) / 3, mp.mpf(1) / 2
        if target == "diamond":
            arg = 27 * z ** 4 / (64 * (1 - z ** 2 / 4) ** 3)
            if abs(arg) >= 1:
                raise DomainError("3F2 argument outside the unit disk")
            return mp.hyper([third, half, 2 * third], [1, 1], arg) / (1 - z ** 2 / 4)
        arg = z ** 2 * (3 + z) / 4
        if abs(arg) >= 1:
            raise DomainError("3F2 argument outside the unit disk")
        return mp.hyper([third, half, 2 * third], [1, 1], arg)


def fourd_sc_double_elliptic(z, prec: int = 30):
    """P for the 4d hypercubic walk as a double elliptic integral.

    (8/pi^3) int_0^1 K(k+(tz)) K(k-(tz)) dt/sqrt(1-t^2), with k+- the 3d
    diamond moduli.  The prefactor and integrand arguments follow from
    the Abel relation between the 4d cubic and 3d diamond walks; the
    z = 0 limit (K(1/2... ) -> pi/2 squared times pi/2) gives exactly 1.
    """
    with mp.workdps(_dps(prec)):
        z = mp.mpf(z)
        if not 0 <= z < 1:
            raise DomainError("validated domain is 0 <= z < 1")

        def integrand(t):
            w = t * z
            kp = _diamond_k2(w, +1)
            km = _diamond_k2(w, -1)
            return (mp.ellipk(kp) * mp.ellipk(km)) / mp.sqrt(1 - t ** 2)

        return 8 / mp.pi ** 3 * mp.quad(integrand, [0, 1])


# -- Bessel integrals ---------------------------------------------------------


def bessel_I0(x, prec: int = 30):
    with mp.workdps(_dps(prec)):
        return mp.besseli(0, mp.mpf(x))


def bessel_K0(x, prec: int = 30):
    if mp.mpf(x) <= 0:
        raise DomainError("K0 on (0, inf) only")
    with mp.workdps(_dps(prec)):
        return mp.besselk(0, mp.mpf(x))


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


@dataclass(frozen=True)
class IdentityCheck:
    lhs: object
    rhs: object
    error: object
    note: str = ""

    def __bool__(self) -> bool:
        return bool(abs(self.lhs - self.rhs) <= self.error)


def bessel_sc_check(d: int, z, prec: int = 25) -> IdentityCheck:
    """int_0^inf e^-t I0(zt/d)^d dt against the d-cubic series at z."""
    with mp.workdps(_dps(prec)):
        z = mp.mpf(z)
        if not 0 <= z < 1:
            raise DomainError("integral converges for 0 <= z < 1")
        lhs, _ = quadrature(lambda t: mp.e ** (-t) * mp.besseli(0, z * t / d) ** d,
                            [0, mp.inf], prec)
        rhs = _series_value(LatticeSpec("sc", d), z, prec, terms=200)
        return IdentityCheck(lhs, rhs, mp.mpf(10) ** (-(prec - 5)))


def bessel_diamond_check(d: int, z, prec: int = 25) -> IdentityCheck:
    """int_0^inf t I0(zt/(d+1))^(d+1) K0(t) dt against the d-diamond series."""
    with mp.workdps(_dps(prec)):
        z = mp.mpf(z)
        if not 0 <= z < 1:
            raise DomainError("integral converges for 0 <= z < 1")
        lhs, _ = quadrature(
            lambda t: t * mp.besseli(0, z * t / (d + 1)) ** (d + 1) * mp.besselk(0, t),
            [0, mp.inf], prec)
        rhs = _series_value(LatticeSpec("diamond", d), z, prec, terms=200)
        return IdentityCheck(lhs, rhs, mp.mpf(10) ** (-(prec - 5)))


def bessel_connection_check(d: int, z, prec: int = 20) -> IdentityCheck:
    """The Laplace I0^d integral against its Abel/K0 double-integral twin.

    Every inner rule runs on the same nodes t, so K0(t) is evaluated once
    per distinct node and reused by all outer nodes.
    """
    with mp.workdps(_dps(prec)):
        z = mp.mpf(z)
        if not 0 <= z < 1:
            raise DomainError("0 <= z < 1")
        lhs, _ = quadrature(lambda t: mp.e ** (-t) * mp.besseli(0, z * t / d) ** d,
                            [0, mp.inf], prec)
        k0 = {}

        def besselk0(t):
            if t not in k0:
                k0[t] = mp.besselk(0, t)
            return k0[t]

        # u = sin(phi) soaks up the endpoint weight, keeps the outer rule small
        def outer(phi):
            u = mp.sin(phi)
            inner, _ = quadrature(
                lambda t: t * mp.besseli(0, z * t * u / d) ** d * besselk0(t),
                [0, mp.inf], prec)
            return inner

        rhs = 2 / mp.pi * mp.quad(outer, [0, mp.pi / 2])
        return IdentityCheck(lhs, rhs, mp.mpf(10) ** (-(prec - 6)))


def _wallis(n: int) -> Fraction:
    # (2/pi) int_0^1 t^(2n)/sqrt(1-t^2) dt = (2n-1)!!/(2n)!!
    out = Q(1)
    for j in range(1, n + 1):
        out *= Q(2 * j - 1, 2 * j)
    return out


def abel_forward_check(d: int, z, prec: int = 20):
    """The half-circle moment identity, exactly and under the integral.

    Exact part: (2n-1)!!/(2n)!! = C(2n,n)/4^n for n <= 20.  Numeric
    part: P_d(z) = (2/pi) int_0^1 Z_d(t^2 z^2/d^2)/sqrt(1-t^2) dt with
    Z_d the structure-sum generating function, taken to 200 terms and
    evaluated by Horner's rule on coefficients converted to mpf once.
    """
    exact = all(_wallis(n) == Q(comb(2 * n, n), 4 ** n) for n in range(21))
    reports = [ConditionReport("half-circle moments exact through n=20", exact)]
    with mp.workdps(_dps(prec)):
        z = mp.mpf(z)
        if not 0 <= z < 1:
            raise DomainError("0 <= z < 1")
        sums = [mp.mpf(s) for s in reversed(structure_sums(d, 200))]
        integral = 2 / mp.pi * mp.quad(
            lambda t: mp.polyval(sums, t ** 2 * z ** 2 / d ** 2) / mp.sqrt(1 - t ** 2),
            [0, 1])
        series = _series_value(LatticeSpec("sc", d), z, prec, terms=200)
        diff = abs(integral - series)
        reports.append(ConditionReport(
            f"Abel integral matches the d={d} cubic series",
            diff < mp.mpf(10) ** (-(prec - 5)), detail=f"difference {mp.nstr(diff, 3)}"))
    return reports


# -- Ramanujan 1/pi series ----------------------------------------------------


def _diam_coeff(n):
    return structure_sums(4, n)


def _sc_coeff(n):
    s3 = structure_sums(3, n)
    return [comb(2 * m, m) * s3[m] for m in range(n + 1)]


def _bcc_coeff(n):
    return [comb(2 * m, m) ** 3 for m in range(n + 1)]


@dataclass(frozen=True)
class RamanujanSeries:
    """sum_n (A n + B) x0^n a_n with everything in Q(sqrt(3))."""

    coeff_table: object
    a: QSqrt3            # A
    b: QSqrt3            # B
    x0: QSqrt3
    target_label: str
    digits_per_term: float

    def target(self):
        # targets are c1/pi + c2*sqrt(3)/pi, encoded in the label
        return _RAMANUJAN_TARGETS[self.target_label]()


_RAMANUJAN_TARGETS = {
    "2/pi": lambda: 2 / mp.pi,
    "8*sqrt(3)/(3*pi)": lambda: 8 * mp.sqrt(3) / (3 * mp.pi),
    "(9+5*sqrt(3))/pi": lambda: (9 + 5 * mp.sqrt(3)) / mp.pi,
    "2*(64+29*sqrt(3))/pi": lambda: 2 * (64 + 29 * mp.sqrt(3)) / mp.pi,
    "4/pi": lambda: 4 / mp.pi,
    "16/pi": lambda: 16 / mp.pi,
}

RAMANUJAN_IDS = ("diam-32", "diam-64", "diam-sqrt3", "sc-484",
                 "bcc-256", "bcc-4096")

_RAMANUJAN = {
    "diam-32": RamanujanSeries(_diam_coeff, QSqrt3(3), QSqrt3(1),
                               QSqrt3(Q(-1, 32)), "2/pi", 0.30),
    "diam-64": RamanujanSeries(_diam_coeff, QSqrt3(5), QSqrt3(1),
                               QSqrt3(Q(1, 64)), "8*sqrt(3)/(3*pi)", 0.60),
    "diam-sqrt3": RamanujanSeries(_diam_coeff, QSqrt3(6), QSqrt3(3, -1),
                                  QSqrt3(Q(-5, 4), Q(3, 4)),
                                  "(9+5*sqrt(3))/pi", 0.105),
    "sc-484": RamanujanSeries(_sc_coeff, QSqrt3(520), QSqrt3(159, -48),
                              QSqrt3(Q(-139, 484), Q(20, 121)),
                              "2*(64+29*sqrt(3))/pi", 1.48),
    "bcc-256": RamanujanSeries(_bcc_coeff, QSqrt3(6), QSqrt3(1),
                               QSqrt3(Q(1, 256)), "4/pi", 0.60),
    "bcc-4096": RamanujanSeries(_bcc_coeff, QSqrt3(42), QSqrt3(5),
                                QSqrt3(Q(1, 4096)), "16/pi", 1.81),
}


def _surd_to_mpf(x: QSqrt3, prec: int):
    # the components can be astronomically larger than the value (the
    # field conjugate of the sum may diverge), so size the working
    # precision from the components, not the target
    bits = max(x.a.numerator.bit_length(), x.a.denominator.bit_length(),
               x.b.numerator.bit_length(), x.b.denominator.bit_length())
    with mp.workdps(int(bits / 3.32) + _dps(prec)):
        return +x.to_mpf()


def ramanujan_eval(series_id: str, terms: int, prec: int = 30):
    """Exact partial sum of one 1/pi series against its target.

    Returns EvalResult-like data: (partial sum, target, |difference|),
    all at prec digits; the summation itself is exact in Q(sqrt(3)).
    """
    if series_id not in _RAMANUJAN:
        raise DomainError(f"unknown series {series_id!r}")
    if terms < 1:
        raise DomainError("terms >= 1")
    s = _RAMANUJAN[series_id]
    table = s.coeff_table(terms)
    acc = QSqrt3(0)
    power = QSqrt3(1)
    for n in range(terms):
        acc = acc + power * (s.a * n + s.b) * table[n]
        power = power * s.x0
    with mp.workdps(_dps(prec)):
        partial = _surd_to_mpf(acc, prec)
        target = s.target()
        return partial, target, abs(partial - target)


def ramanujan_general_form_check(prec: int = 64) -> VerifyReport:
    """alpha P(z0) + beta (theta P)(z0) = 1/pi for the cubic-walk series.

    alpha, beta, and x0 = -z0^2/36 live in Q(sqrt(3)); the termwise
    combination (alpha + beta n) a_n x0^n reproduces the printed
    Ramanujan multipliers exactly, which is asserted as a surd identity
    before any floating point enters.
    """
    alpha = QSqrt3(Q(1104, 242), Q(-591, 242))
    beta = QSqrt3(Q(1280, 121), Q(-580, 121))
    x0 = QSqrt3(Q(-139, 484), Q(20, 121))
    # exact consistency with the (520n + 159 - 48 sqrt3) multipliers:
    # (alpha + beta n) * 2(64 + 29 sqrt3) == 520n + 159 - 48 sqrt3
    scale = QSqrt3(128, 58)
    for n in (0, 1, 7):
        got = (alpha + beta * n) * scale
        want = QSqrt3(520 * n + 159, -48)
        if got != want:
            return VerifyReport(False, n, note="termwise multiplier mismatch")
    terms = max(80, int(prec / 1.4) + 20)
    table = _sc_coeff(terms)
    g = QSqrt3(0)
    tg = QSqrt3(0)
    power = QSqrt3(1)
    for n in range(terms):
        g = g + power * table[n]
        tg = tg + power * table[n] * n
        power = power * x0
    combo = alpha * g + beta * tg
    with mp.workdps(_dps(prec)):
        residual = abs(_surd_to_mpf(combo, prec) - 1 / mp.pi)
        ok = residual < mp.mpf("1e-20")
        return VerifyReport(bool(ok), terms,
                            note=f"residual {mp.nstr(residual, 3)}")


# -- return probabilities -----------------------------------------------------


def return_probability(spec: LatticeSpec, prec: int = 25):
    """1 - 1/P(0;1).  Exactly 1 for the recurrent 2d walks; Watson
    constants for the 3d set; tail-corrected series above that."""
    if spec.dim == 2:
        return mp.mpf(1)
    with mp.workdps(_dps(prec)):
        if spec.dim == 3 and spec.family in _WATSON:
            p1 = watson(spec.family, prec)
        elif spec.family == "bcc":
            p1 = pFq_eval([Q(1, 2)] * spec.dim, [1] * (spec.dim - 1), 1, prec)
        else:
            p1 = lgf_series_eval(spec, 1, prec, tail="power-law-corrected").value
        return 1 - 1 / p1


# -- logarithmic Mahler measure -----------------------------------------------


def _laurent_one_var(F: dict):
    shift = -min(e[0] for e in F)
    deg = max(e[0] for e in F) + shift
    cs = [mp.mpf(0)] * (deg + 1)
    for e, c in F.items():
        cs[e[0] + shift] = mp.mpf(c)
    return cs


def log_mahler_measure(F: dict, prec: int = 30, method: str = "quadrature"):
    """Numeric m(F) of a Laurent polynomial given as {exponents: coeff}.

    One variable: exact Jensen evaluation, log|lead| + sum log|roots
    outside the unit circle|.  Two variables: the inner variable is
    eliminated by Jensen at each angle and the outer integral is done by
    quadrature on split panels; the contract is the (weaker) agreement
    of two panel counts, reported as the error.
    """
    if method != "quadrature":
        raise DomainError(f"unknown method {method!r}")
    if not F:
        raise DomainError("zero polynomial")
    nvars = len(next(iter(F)))
    if any(len(e) != nvars for e in F):
        raise DomainError("inconsistent exponent arity")
    with mp.workdps(_dps(prec)):
        if nvars == 0 or all(all(x == 0 for x in e) for e in F):
            c = sum(mp.mpf(v) for v in F.values())
            return mp.log(abs(c)), mp.mpf(0)
        if nvars == 1:
            cs = _laurent_one_var(F)
            while cs and cs[-1] == 0:
                cs.pop()
            if len(cs) == 1:
                return mp.log(abs(cs[0])), mp.mpf(0)
            roots = mp.polyroots(list(reversed(cs)), maxsteps=200, extraprec=60)
            m = mp.log(abs(cs[-1])) + mp.fsum(
                mp.log(abs(r)) for r in roots if abs(r) > 1)
            return m, mp.mpf(10) ** (-(prec - 4))
        if nvars != 2:
            raise DomainError("one or two variables only")

        def inner_measure(phi):
            y = mp.e ** (1j * phi)
            poly: dict[int, mp.mpc] = {}
            for (ex, ey), c in F.items():
                poly[ex] = poly.get(ex, mp.mpc(0)) + mp.mpf(c) * y ** ey
            exps = sorted(poly)
            shift = -exps[0]
            cs = [poly.get(e - shift, mp.mpc(0)) for e in range(exps[-1] + shift + 1)]
            while len(cs) > 1 and abs(cs[-1]) < mp.mpf(10) ** (-_dps(prec)):
                cs.pop()
            if len(cs) == 1:
                return mp.log(abs(cs[0]))
            if len(cs) == 3:
                # quadratics by the stable formula; Durand-Kerner stalls on
                # the (near-)double roots the quadrature nodes land on
                a, b, c = cs[2], cs[1], cs[0]
                disc = mp.sqrt(b * b - 4 * a * c)
                if mp.re(mp.conj(b) * disc) < 0:
                    disc = -disc
                q = -(b + disc) / 2
                roots = [q / a, c / q] if q != 0 else [mp.mpc(0), mp.mpc(0)]
            else:
                roots = mp.polyroots(list(reversed(cs)), maxsteps=500, extraprec=80)
            return mp.log(abs(cs[-1])) + mp.fsum(
                mp.log(abs(r)) for r in roots if abs(r) > 1)

        def outer(panels):
            edges = [mp.pi * j / panels for j in range(panels + 1)]
            return mp.fsum(mp.quad(inner_measure, [edges[j], edges[j + 1]])
                           for j in range(panels)) / mp.pi

        # 6 and 12 both put pi/3 on a panel edge; the Jensen integrand can
        # kink there (inner roots crossing the unit circle)
        v1 = outer(6)
        v2 = outer(12)
        err = abs(v1 - v2)
        if err > mp.mpf("1e-6"):
            raise PrecisionNotMet(f"panel counts disagree by {mp.nstr(err, 3)}")
        # the panel counts can agree to the last working digit, which does
        # not make either exact
        return v2, max(err, mp.mpf(10) ** (-(prec + 8)))
