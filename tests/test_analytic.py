"""Numeric evaluation layer: elliptic/Gamma/pFq kernels, closed forms,
Watson constants, Ramanujan series, Bessel identities, Mahler measure.

Comparisons are done inside mp.workdps blocks; mpmath's ambient precision
is 15 digits and comparing high-precision results outside a context
silently truncates the references.
"""

import mpmath as mp
import pytest

from latgreen.analytic import (
    CLOSED_FORM_IDS,
    RAMANUJAN_IDS,
    EllipticArg,
    EvalResult,
    abel_forward_check,
    bessel_connection_check,
    bessel_diamond_check,
    bessel_I0,
    bessel_K0,
    bessel_sc_check,
    convention_report,
    elliptic_K,
    fourd_sc_double_elliptic,
    gamma_rational,
    honeycomb_map_eval,
    joyce_closed_form,
    lgf_series_eval,
    log_mahler_measure,
    pFq_eval,
    quadrature,
    ramanujan_eval,
    ramanujan_general_form_check,
    return_probability,
    rogers_3f2,
    watson,
)
from latgreen.errors import (
    DivergenceError,
    DivergentRequest,
    DomainError,
    PrecisionNotMet,
    ResourceLimit,
    UnsupportedLattice,
)
from latgreen.lattices import LatticeSpec, coeffs

# printed reference decimals
WATSON_PRINTED = {"sc": "1.516386", "bcc": "1.3932039",
                  "diamond": "1.79288", "fcc": "1.344661"}
BCC4_AT_ONE = "1.1186363871641870683496192575256409167948575515294"


def series_at(spec, z, terms=260, dps=60):
    # direct Horner sum of the stored table, complex z allowed
    with mp.workdps(dps):
        table = coeffs(spec, terms)
        x = (mp.mpmathify(z) / spec.coordination) ** spec.steps_per_index
        acc = mp.mpmathify(0)
        for m in range(terms, -1, -1):
            acc = acc * x + int(table[m])
        return acc


# -- elliptic integrals -------------------------------------------------------

class TestEllipticK:
    def test_arg_conventions(self):
        a = EllipticArg.modulus("0.6")
        assert a.convention == "modulus"
        with mp.workdps(30):
            assert abs(a.parameter_value() - mp.mpf("0.36")) < mp.mpf("1e-25")
        b = EllipticArg.parameter("0.36")
        assert b.convention == "parameter"

    def test_k_at_zero(self):
        with mp.workdps(50):
            k = elliptic_K(EllipticArg.parameter(0), 40)
            assert abs(k - mp.pi / 2) < mp.mpf("1e-38")

    def test_lemniscatic_point(self):
        # K(m=1/2) = Gamma(1/4)^2 / (4 sqrt(pi))
        with mp.workdps(60):
            k = elliptic_K(EllipticArg.parameter("0.5"), 45)
            ref = gamma_rational("1/4", 50) ** 2 / (4 * mp.sqrt(mp.pi))
            assert abs(k - ref) < mp.mpf("1e-43")

    def test_modulus_parameter_consistency(self):
        with mp.workdps(40):
            k1 = elliptic_K(EllipticArg.modulus("0.3"), 35)
            k2 = elliptic_K(EllipticArg.parameter("0.09"), 35)
            assert abs(k1 - k2) < mp.mpf("1e-33")

    def test_hypergeometric_route_agrees(self):
        # 2F1(1/2,1/2;1;m) = (2/pi) K(m)
        with mp.workdps(50):
            m = mp.mpf("0.37")
            k = elliptic_K(EllipticArg.parameter(m), 40)
            f = pFq_eval(["1/2", "1/2"], [1], m, 40)
            assert abs(f - 2 / mp.pi * k) < mp.mpf("1e-35")

    def test_domain(self):
        with pytest.raises(DomainError):
            elliptic_K(EllipticArg.parameter(1), 30)
        with pytest.raises(DomainError):
            elliptic_K(EllipticArg.modulus("1.2"), 30)


class TestGamma:
    def test_half(self):
        with mp.workdps(40):
            assert abs(gamma_rational("1/2", 35) - mp.sqrt(mp.pi)) < mp.mpf("1e-33")

    def test_reflection(self):
        with mp.workdps(40):
            prod = gamma_rational("1/4", 35) * gamma_rational("3/4", 35)
            assert abs(prod - mp.pi / mp.sin(mp.pi / 4)) < mp.mpf("1e-32")

    def test_third_against_euler_integral(self):
        """Gamma(1/3) to 50 digits against quadrature of the Euler integral.

        The substitution t = u^3 removes the algebraic endpoint
        singularity; 3 int_0^inf exp(-u^3) du is the same integral with a
        smooth integrand.
        """
        g = gamma_rational("1/3", 50)
        with mp.workdps(70):
            ref, quaderr = quadrature(lambda u: 3 * mp.e ** (-u ** 3),
                                      [0, mp.inf], 55)
            assert quaderr < mp.mpf("1e-55")
            assert abs(g - ref) < mp.mpf("1e-50")

    def test_domain(self):
        for bad in [0, "-1/3", -2]:
            with pytest.raises(DomainError):
                gamma_rational(bad, 20)


# -- series evaluation and tails ----------------------------------------------

class TestSeriesEval:
    def test_square_matches_elliptic_form(self):
        # (2/pi) K(modulus z) is the square-lattice LGF
        with mp.workdps(60):
            z = mp.mpf("0.3")
            r = lgf_series_eval(LatticeSpec("square", 2), z, 40)
            ref = 2 / mp.pi * elliptic_K(EllipticArg.modulus(z), 45)
            assert abs(r.value - ref) < mp.mpf("1e-25")
            # reported bound must cover the actual error
            assert abs(r.value - ref) < r.error

    @pytest.mark.parametrize("family,z", [("bcc", "0.9"), ("sc", "0.8"), ("fcc", "0.8")])
    def test_bound_covers_tripled_terms(self, family, z):
        # the term ratios approach |z|^s from below, so a bound built on the
        # last ratio undershoots; the sum to 3x the terms measures the error
        spec = LatticeSpec(family, 3)
        r = lgf_series_eval(spec, z, 10)
        deep = lgf_series_eval(spec, z, 20, terms=3 * r.terms_used)
        with mp.workdps(40):
            assert r.error >= abs(r.value - deep.value)

    def test_result_shape(self):
        r = lgf_series_eval(LatticeSpec("sc", 3), "0.2", 25)
        assert isinstance(r, EvalResult)
        assert r.terms_used > 0
        assert float(r) == float(r.value)

    def test_bcc4_at_one_corrected(self):
        # deep-series + fitted power-law tail reaches the 50-digit value
        with mp.workdps(60):
            ref = mp.mpf(BCC4_AT_ONE)
            r = lgf_series_eval(LatticeSpec("bcc", 4), 1, 25,
                                tail="power-law-corrected")
            assert abs(r.value - ref) < mp.mpf("1e-15")
            assert mp.nstr(r.value, 11) == "1.1186363872"

    def test_bcc4_at_one_uncorrected_is_coarse(self):
        with mp.workdps(60):
            ref = mp.mpf(BCC4_AT_ONE)
            r = lgf_series_eval(LatticeSpec("bcc", 4), 1, 25, tail="none")
            actual = abs(r.value - ref)
            assert actual > mp.mpf("1e-6")
            assert actual < r.error * 2  # bound is the fitted tail

    def test_bcc3_at_one_matches_watson(self):
        with mp.workdps(40):
            r = lgf_series_eval(LatticeSpec("bcc", 3), 1, 20,
                                tail="power-law-corrected")
            assert abs(r.value - watson("bcc", 30)) < mp.mpf("1e-10")

    def test_sc3_at_one_matches_watson(self):
        with mp.workdps(40):
            r = lgf_series_eval(LatticeSpec("sc", 3), 1, 20,
                                tail="power-law-corrected")
            assert abs(r.value - watson("sc", 30)) < mp.mpf("1e-8")

    def test_two_d_at_one_diverges(self):
        with pytest.raises(DivergentRequest):
            lgf_series_eval(LatticeSpec("square", 2), 1, 20)

    def test_outside_disc(self):
        with pytest.raises(DomainError):
            lgf_series_eval(LatticeSpec("sc", 3), "1.5", 20)

    def test_term_cap(self):
        with pytest.raises(ResourceLimit):
            lgf_series_eval(LatticeSpec("square", 2), "0.9999", 30)

    def test_unknown_tail_mode(self):
        with pytest.raises(ValueError):
            lgf_series_eval(LatticeSpec("sc", 3), "0.2", 20, tail="pade")


# -- generalized hypergeometric sums ------------------------------------------

class TestPFQ:
    def test_empty_argument(self):
        with mp.workdps(30):
            assert pFq_eval(["1/2", "1/2"], [1], 0, 25) == 1

    def test_4f3_at_one_is_bcc4_constant(self):
        with mp.workdps(60):
            v = pFq_eval(["1/2"] * 4, [1] * 3, 1, 25)
            assert abs(v - mp.mpf(BCC4_AT_ONE)) < mp.mpf("1e-18")

    def test_3f2_at_one_is_bcc3_constant(self):
        # excess 1/2: the n^(-3/2) Hurwitz tail path
        with mp.workdps(40):
            v = pFq_eval(["1/2"] * 3, [1] * 2, 1, 20)
            assert abs(v - watson("bcc", 30)) < mp.mpf("1e-10")

    def test_divergence_guards(self):
        with pytest.raises(DivergenceError):
            pFq_eval(["1/2", "1/2", "1/2"], [1], "0.5", 20)  # p > q+1
        with pytest.raises(DivergenceError):
            pFq_eval(["1/2", "1/2"], [1], "1.5", 20)
        with pytest.raises(DivergenceError):
            pFq_eval(["1/2", "1/2"], [1], 1, 20)  # excess 0


# -- Watson constants ---------------------------------------------------------

class TestWatson:
    @pytest.mark.parametrize("lat,printed", sorted(WATSON_PRINTED.items()))
    def test_printed_decimals(self, lat, printed):
        with mp.workdps(40):
            assert mp.nstr(watson(lat, 30), len(printed) - 1) == printed

    def test_diamond_fcc_ratio(self):
        # P_diamond(1) = (4/3) P_fcc(1)
        with mp.workdps(50):
            d = watson("diamond", 40)
            f = watson("fcc", 40)
            assert abs(d - 4 * f / 3) < mp.mpf("1e-38")

    def test_unknown(self):
        with pytest.raises(UnsupportedLattice):
            watson("hcp", 30)


# -- closed forms -------------------------------------------------------------

FORM_TO_SPEC = {
    "honeycomb": ("honeycomb", 2),
    "square": ("square", 2),
    "triangular": ("triangular", 2),
    "sc3": ("sc", 3),
    "bcc3": ("bcc", 3),
    "fcc3": ("fcc", 3),
    "diamond3": ("diamond", 3),
    "diamond-algebraic-2F1": ("diamond", 3),
}


class TestClosedForms:
    def test_id_inventory(self):
        assert len(CLOSED_FORM_IDS) == 15
        for fid in FORM_TO_SPEC:
            assert fid in CLOSED_FORM_IDS

    def test_conventions_resolve_to_modulus(self):
        reports = convention_report(30)
        assert len(reports) == 4
        for r in reports:
            assert r.passed, r.detail
            assert "modulus" in r.detail

    @pytest.mark.parametrize("fid", sorted(FORM_TO_SPEC))
    def test_form_against_series(self, fid):
        fam, dim = FORM_TO_SPEC[fid]
        spec = LatticeSpec(fam, dim)
        with mp.workdps(50):
            for z in ["0.15", "0.3"]:
                v = joyce_closed_form(fid, z, 40)
                ref = series_at(spec, mp.mpf(z))
                assert abs(v - ref) < mp.mpf("1e-12"), (fid, z)

    def test_value_at_zero(self):
        assert joyce_closed_form("sc3", 0, 30) == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            joyce_closed_form("sc3", 1, 30)
        with pytest.raises(DomainError):
            joyce_closed_form("no-such-form", "0.1", 30)

    def test_rogers_forms(self):
        with mp.workdps(50):
            for tgt, spec in [("diamond", LatticeSpec("diamond", 3)),
                              ("fcc", LatticeSpec("fcc", 3))]:
                v = rogers_3f2(tgt, "0.3", 40)
                assert abs(v - series_at(spec, mp.mpf("0.3"))) < mp.mpf("1e-12")

    def test_fourd_sc_double_elliptic(self):
        with mp.workdps(40):
            v = fourd_sc_double_elliptic("0.3", 25)
            ref = series_at(LatticeSpec("sc", 4), mp.mpf("0.3"))
            assert abs(v - ref) < mp.mpf("1e-15")


class TestHoneycombMaps:
    """R(xi) = sum b_n xi^(2n) pushed through the four cubic-family maps."""

    @pytest.mark.parametrize("target", ["fcc", "sc", "bcc", "diamond"])
    def test_map_reproduces_series(self, target):
        with mp.workdps(50):
            z, v = honeycomb_map_eval(target, "0.05", 40)
            dim = 3
            ref = series_at(LatticeSpec(target, dim), z, terms=300)
            assert abs(v - ref) < mp.mpf("1e-10"), target

    def test_sc_z_is_real_positive(self):
        z, _ = honeycomb_map_eval("sc", "0.05", 30)
        assert mp.im(z) == 0 and mp.re(z) > 0

    def test_bcc_z_is_imaginary(self):
        # z^2 < 0 on the bcc map; the physical statement lives in w = z^2
        z, _ = honeycomb_map_eval("bcc", "0.05", 30)
        assert mp.re(z) == 0 and mp.im(z) != 0

    def test_domain(self):
        for bad in ["0.25", "-0.1", "0.5"]:
            with pytest.raises(DomainError):
                honeycomb_map_eval("sc", bad, 30)
        with pytest.raises(DomainError):
            honeycomb_map_eval("kagome", "0.05", 30)


# -- quadrature kernel --------------------------------------------------------

class TestQuadrature:
    def test_basic(self):
        with mp.workdps(40):
            v, err = quadrature(lambda x: 4 / (1 + x ** 2), [0, 1], 30)
            assert abs(v - mp.pi) < mp.mpf("1e-28")
            assert err < mp.mpf("1e-28")

    def test_two_precisions_agree(self):
        with mp.workdps(60):
            v1, _ = quadrature(mp.sin, [0, mp.pi], 25)
            v2, _ = quadrature(mp.sin, [0, mp.pi], 40)
            assert abs(v1 - v2) < mp.mpf("1e-23")

    def test_rough_integrand_refused(self):
        # algebraic endpoint singularity at an unreachable tolerance
        with pytest.raises(PrecisionNotMet):
            quadrature(lambda t: t ** mp.mpf("-2/3") * mp.e ** (-t),
                       [0, mp.inf], 55)

    def test_mellin_bessel_moment(self):
        # int_0^inf t^3 K0(t) dt = 4
        with mp.workdps(40):
            v, _ = quadrature(lambda t: t ** 3 * bessel_K0(t), [0, mp.inf], 25)
            assert abs(v - 4) < mp.mpf("1e-22")

    def test_i0_at_zero(self):
        assert bessel_I0(0) == 1


# -- Bessel-integral identities -----------------------------------------------

class TestBesselIdentities:
    def test_laplace_sc_form(self):
        c = bessel_sc_check(3, "0.4", 20)
        assert bool(c)
        with mp.workdps(30):
            assert abs(c.lhs - c.rhs) < mp.mpf("1e-8")

    def test_k0_diamond_form(self):
        c = bessel_diamond_check(3, "0.1", 20)
        assert bool(c)
        with mp.workdps(30):
            assert abs(c.lhs - c.rhs) < mp.mpf("1e-8")

    def test_connection_double_integral(self):
        # an inner K0 quadrature at every node of the outer half-circle
        # rule; K0 itself is evaluated once per distinct inner node
        c = bessel_connection_check(3, "0.4", 10)
        assert bool(c)
        with mp.workdps(30):
            assert abs(c.lhs - c.rhs) < mp.mpf("1e-8")

    def test_connection_evaluates_k0_once_per_node(self, monkeypatch):
        args = []
        besselk = mp.besselk

        def counting(n, t):
            args.append(t)
            return besselk(n, t)

        monkeypatch.setattr(mp, "besselk", counting)
        c = bessel_connection_check(3, "0.4", 5)
        assert bool(c)
        with mp.workdps(30):
            assert abs(c.lhs - c.rhs) < mp.mpf("1e-5")
        assert args and len(args) == len(set(args))

    @pytest.mark.parametrize("d", [3, 4])
    def test_abel_forward(self, d):
        reports = abel_forward_check(d, "0.3", 16)
        assert len(reports) == 2
        for r in reports:
            assert r.passed, (d, r.name, r.detail)


# -- Ramanujan 1/pi series ----------------------------------------------------

class TestRamanujan:
    def test_inventory(self):
        assert set(RAMANUJAN_IDS) == {"diam-32", "diam-64", "diam-sqrt3",
                                      "sc-484", "bcc-256", "bcc-4096"}

    @pytest.mark.parametrize("sid,terms,bound", [
        ("diam-32", 40, "1e-10"),
        ("diam-64", 25, "1e-14"),
        ("diam-sqrt3", 120, "1e-11"),
        ("sc-484", 20, "1e-25"),
        ("bcc-4096", 15, "1e-25"),
        ("bcc-256", 42, "1e-25"),
    ])
    def test_partial_sum_error(self, sid, terms, bound):
        _, _, err = ramanujan_eval(sid, terms, 40)
        with mp.workdps(50):
            assert err < mp.mpf(bound), (sid, mp.nstr(err, 3))

    def test_bcc256_rate(self):
        """The 256-series converges like 4^(-n): 25 terms give about 1e-16,
        not 1e-25; reaching 1e-25 takes about 42 terms."""
        _, _, err25 = ramanujan_eval("bcc-256", 25, 40)
        with mp.workdps(50):
            assert mp.mpf("1e-17") < err25 < mp.mpf("1e-14")

    def test_error_decreases(self):
        _, _, e1 = ramanujan_eval("diam-32", 10, 40)
        _, _, e2 = ramanujan_eval("diam-32", 30, 40)
        assert e2 < e1

    def test_surd_targets(self):
        with mp.workdps(60):
            _, tgt, _ = ramanujan_eval("diam-sqrt3", 5, 50)
            assert abs(tgt - (9 + 5 * mp.sqrt(3)) / mp.pi) < mp.mpf("1e-45")
            _, tgt, _ = ramanujan_eval("sc-484", 5, 50)
            assert abs(tgt - 2 * (64 + 29 * mp.sqrt(3)) / mp.pi) < mp.mpf("1e-45")

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            ramanujan_eval("sc-885", 10, 20)
        with pytest.raises(DomainError):
            ramanujan_eval("diam-32", 0, 20)

    def test_general_form_instance(self):
        # alpha f(z0) + beta theta f(z0) = 1/pi with exact surd bookkeeping
        rep = ramanujan_general_form_check(64)
        assert rep.passed, rep.note


# -- return probabilities -----------------------------------------------------

class TestReturnProbability:
    def test_two_d_recurrent(self):
        for fam in ["square", "triangular", "honeycomb"]:
            assert return_probability(LatticeSpec(fam, 2), 20) == 1

    def test_sc3(self):
        with mp.workdps(30):
            v = return_probability(LatticeSpec("sc", 3), 25)
            assert mp.nstr(v, 10) == "0.3405373296"

    def test_bcc4(self):
        with mp.workdps(60):
            v = return_probability(LatticeSpec("bcc", 4), 25)
            ref = 1 - 1 / mp.mpf(BCC4_AT_ONE)
            assert abs(v - ref) < mp.mpf("1e-18")


# -- Mahler measure -----------------------------------------------------------

class TestMahlerMeasure:
    def test_constant(self):
        with mp.workdps(30):
            v, err = log_mahler_measure({(0,): 3}, 20)
            assert abs(v - mp.log(3)) < mp.mpf("1e-18")
            assert err == 0

    def test_linear_root_outside(self):
        with mp.workdps(30):
            v, _ = log_mahler_measure({(1,): 1, (0,): -2}, 20)
            assert abs(v - mp.log(2)) < mp.mpf("1e-15")

    def test_linear_root_inside(self):
        with mp.workdps(30):
            v, _ = log_mahler_measure({(2,): 2, (0,): "-0.5"}, 20)
            # 2(x^2 - 1/4): measure is log 2 from the lead coefficient
            assert abs(v - mp.log(2)) < mp.mpf("1e-15")

    def test_product_form_vanishes(self):
        # x + 1/x + y + 1/y = (x+y)(1+xy)/(xy): measure 0
        with mp.workdps(30):
            v, err = log_mahler_measure(
                {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}, 20)
            assert abs(v) < mp.mpf("1e-10")
            assert err < mp.mpf("1e-6")

    def test_deninger_polynomial(self):
        """m(1 + x + 1/x + y + 1/y) = 0.2513304337...

        Cross-checked against the one-variable reduction: the inner Jensen
        integral is log of the large root of t^2 + (2cos(phi)+1)t + 1 on
        cos(phi) > 1/2, and the same machinery reproduces the closed form
        m(4 + x + 1/x + y + 1/y) = 4G/pi to full precision.
        """
        with mp.workdps(40):
            v, err = log_mahler_measure(
                {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1, (0, 0): 1}, 20)
            assert abs(v - mp.mpf("0.25133043371325223")) < mp.mpf("1e-10")
            assert err < mp.mpf("1e-6")

    def test_catalan_case(self):
        with mp.workdps(40):
            v, _ = log_mahler_measure(
                {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1, (0, 0): 4}, 20)
            assert abs(v - 4 * mp.catalan / mp.pi) < mp.mpf("1e-10")

    @pytest.mark.parametrize("prec", [12, 20, 30])
    def test_error_floor_covers_psi_reference(self, prec):
        # m(1+x+y) = sqrt(3) (psi'(1/3) - psi'(2/3)) / (12 pi); the two panel
        # counts agree to every working digit, which leaves only the floor
        v, err = log_mahler_measure({(0, 0): 1, (1, 0): 1, (0, 1): 1}, prec)
        with mp.workdps(prec + 20):
            third = mp.mpf(1) / 3
            ref = mp.sqrt(3) * (mp.psi(1, third) - mp.psi(1, 2 * third)) / (12 * mp.pi)
            assert 0 < abs(v - ref) <= err

    def test_domain(self):
        with pytest.raises(DomainError):
            log_mahler_measure({}, 15)
        with pytest.raises(DomainError):
            log_mahler_measure({(1,): 1, (0, 0): 1}, 15)
        with pytest.raises(DomainError):
            log_mahler_measure({(1, 2, 3): 1}, 15)
        with pytest.raises(DomainError):
            log_mahler_measure({(1,): 1}, 15, method="monte-carlo")
