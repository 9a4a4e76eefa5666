"""Numeric evaluation layer: elliptic/Gamma/pFq kernels, closed forms,
Watson constants, Ramanujan series, Bessel identities, Mahler measure.

Comparisons are done inside mp.workdps blocks; mpmath's ambient precision
is 15 digits and comparing high-precision results outside a context
silently truncates the references.
"""

import dataclasses
import functools
import time

import mpmath as mp
import pytest

from latgreen import analytic
from latgreen.analytic import (
    CLOSED_FORM_IDS,
    RAMANUJAN_IDS,
    EvalResult,
    abel_forward_check,
    bessel_connection_check,
    bessel_diamond_check,
    bessel_sc_check,
    convention_report,
    fourd_sc_double_elliptic,
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
    two_over_pi_K,
    watson,
)
from latgreen.errors import (
    DivergentRequest,
    DomainError,
    PrecisionNotMet,
    ResourceLimit,
    UnsupportedLattice,
)
from latgreen.lattices import LatticeSpec, coeffs
from latgreen.surd import QSqrt3

# printed reference decimals
WATSON_PRINTED = {"sc": "1.516386", "bcc": "1.3932039",
                  "diamond": "1.79288", "fcc": "1.344661"}
BCC4_AT_ONE = "1.1186363871641870683496192575256409167948575515294"


def watson_gamma(lattice, dps):
    """The Watson constants in Gamma-product form, an oracle independent
    of the AGM forms in the package: Glasser-Zucker for sc,
    Gamma(1/4)^4/(4 pi^3) for bcc and Gamma(1/3)^6 for fcc and diamond."""
    with mp.workdps(dps):
        g, pi = mp.gamma, mp.pi
        if lattice == "sc":
            return (mp.sqrt(3) - 1) / (32 * pi ** 3) * (g(mp.mpf(1) / 24) * g(mp.mpf(11) / 24)) ** 2
        if lattice == "bcc":
            return g(mp.mpf(1) / 4) ** 4 / (4 * pi ** 3)
        if lattice == "diamond":
            return 3 * g(mp.mpf(1) / 3) ** 6 / (2 ** (mp.mpf(8) / 3) * pi ** 4)
        return 9 * g(mp.mpf(1) / 3) ** 6 / (2 ** (mp.mpf(14) / 3) * pi ** 4)


@functools.lru_cache(maxsize=None)
def _table(spec, terms):
    return coeffs(spec, terms)


def series_at(spec, z, terms=260, dps=60):
    # direct Horner sum of the stored table, complex z allowed
    with mp.workdps(dps):
        table = _table(spec, terms)
        x = (mp.mpmathify(z) / spec.coordination) ** spec.steps_per_index
        acc = mp.mpmathify(0)
        for m in range(terms, -1, -1):
            acc = acc * x + int(table[m])
        return acc


# -- elliptic integrals -------------------------------------------------------

class TestEllipticK:
    """two_over_pi_K(m) = (2/pi) K(m) at parameter m."""

    def test_k_at_zero(self):
        with mp.workdps(50):
            assert abs(two_over_pi_K(0, 40) - 1) < mp.mpf("1e-38")

    def test_lemniscatic_point(self):
        # K(m=1/2) = Gamma(1/4)^2 / (4 sqrt(pi))
        with mp.workdps(60):
            k = two_over_pi_K("0.5", 45) * mp.pi / 2
            ref = mp.gamma(mp.mpf(1) / 4) ** 2 / (4 * mp.sqrt(mp.pi))
            assert abs(k - ref) < mp.mpf("1e-43")

    def test_hypergeometric_route_agrees(self):
        # 2F1(1/2,1/2;1;m) = (2/pi) K(m)
        with mp.workdps(50):
            m = mp.mpf("0.37")
            f = pFq_eval(["1/2", "1/2"], [1], m, 40)
            assert abs(f - two_over_pi_K(m, 40)) < mp.mpf("1e-35")

    def test_domain(self):
        with pytest.raises(DomainError):
            two_over_pi_K(1, 30)
        with pytest.raises(DomainError):
            two_over_pi_K("1.44", 30)


# -- series evaluation and tails ----------------------------------------------

class TestSeriesEval:
    def test_square_matches_elliptic_form(self):
        # (2/pi) K(modulus z) is the square-lattice LGF
        with mp.workdps(60):
            z = mp.mpf("0.3")
            r = lgf_series_eval(LatticeSpec("square", 2), z, 40)
            ref = two_over_pi_K(z ** 2, 45)
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

    @pytest.mark.parametrize("family,dim,z", [
        ("sc", 3, "0.3"), ("sc", 3, "-0.7"),
        ("fcc", 3, "0.45"), ("fcc", 3, "-0.6"),
        ("honeycomb", 2, "0.2"), ("honeycomb", 2, "0.7"),
    ])
    def test_bound_covers_doubled_precision(self, family, dim, z):
        # the fixed-point sum with its reported error, against the same
        # series at twice the digits (and so more terms)
        spec = LatticeSpec(family, dim)
        r = lgf_series_eval(spec, z, 30)
        deep = lgf_series_eval(spec, z, 60)
        with mp.workdps(80):
            assert abs(r.value - deep.value) <= r.error

    @pytest.mark.parametrize("d", [3, 4])
    def test_bcc_partial_sum_at_one_at_doubled_precision(self, d):
        # the same 2000 terms at 25 and 50 digits differ only by rounding,
        # which is below the 10^-(prec + 8) floor of the other bounds
        spec = LatticeSpec("bcc", d)
        r = lgf_series_eval(spec, 1, 25, terms=2000)
        deep = lgf_series_eval(spec, 1, 50, terms=2000)
        with mp.workdps(70):
            assert abs(r.value - deep.value) <= mp.mpf(10) ** -(25 + 8)
            assert abs(r.value - deep.value) <= r.error

    def test_result_shape(self):
        r = lgf_series_eval(LatticeSpec("sc", 3), "0.2", 25)
        assert isinstance(r, EvalResult)
        assert r.terms_used > 0

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

    @pytest.mark.parametrize("tail", ["none", "power-law-corrected"])
    def test_odd_steps_refused_at_minus_one(self, tail):
        # one step per table index: the terms at z = -1 alternate, and a
        # one-signed n^-p tail fitted to them is meaningless
        with pytest.raises(DomainError):
            lgf_series_eval(LatticeSpec("fcc", 3), -1, 20, tail=tail)
        with pytest.raises(DomainError):
            lgf_series_eval(LatticeSpec("triangular", 2), -1, 20, tail=tail)

    @pytest.mark.parametrize("family", ["bcc", "sc"])
    @pytest.mark.parametrize("tail", ["none", "power-law-corrected"])
    def test_even_steps_at_minus_one_equal_one(self, family, tail):
        # two steps per table index: (-1)^(2n) = 1 term by term
        spec = LatticeSpec(family, 3)
        r_minus = lgf_series_eval(spec, -1, 20, tail=tail)
        r_plus = lgf_series_eval(spec, 1, 20, tail=tail)
        assert (r_minus.value, r_minus.error) == (r_plus.value, r_plus.error)

    def test_two_d_at_one_diverges(self):
        with pytest.raises(DivergentRequest):
            lgf_series_eval(LatticeSpec("square", 2), 1, 20)

    def test_outside_disc(self):
        with pytest.raises(DomainError):
            lgf_series_eval(LatticeSpec("sc", 3), "1.5", 20)

    def test_term_cap(self):
        with pytest.raises(ResourceLimit):
            lgf_series_eval(LatticeSpec("square", 2), "0.9999", 30)

    def test_explicit_terms_capped_at_one(self):
        # the bcc z = 1 terms need no table, but an explicit count above the
        # cap is refused like any other
        with pytest.raises(ResourceLimit):
            lgf_series_eval(LatticeSpec("bcc", 4), 1, 20, terms=7000)

    def test_prec_capped_at_one(self):
        # max(1500, 80 prec) terms at prec + 10 digits: prec 100 runs, a
        # runaway prec is refused before the first term
        spec = LatticeSpec("bcc", 4)
        assert lgf_series_eval(spec, 1, 100, tail="power-law-corrected").terms_used == 8000
        with pytest.raises(ResourceLimit):
            lgf_series_eval(spec, 1, 100000, tail="power-law-corrected")
        with pytest.raises(ResourceLimit):
            lgf_series_eval(spec, 1, 100000, terms=2000)

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

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_at_one_is_the_bcc_series(self, d):
        # pFq(1/2, ..., 1/2; 1, ..., 1; 1) and the bcc P(0;1) are one sum
        prec = 20
        v = pFq_eval(["1/2"] * d, [1] * (d - 1), 1, prec)
        r = lgf_series_eval(LatticeSpec("bcc", d), 1, prec, tail="power-law-corrected")
        with mp.workdps(prec + 20):
            assert abs(v - r.value) <= mp.mpf(10) ** (-(prec + 5))

    def test_prec_capped_at_one(self):
        with pytest.raises(ResourceLimit):
            pFq_eval(["1/2"] * 4, [1] * 3, 1, 100000)

    def test_divergence_guards(self):
        with pytest.raises(DivergentRequest):
            pFq_eval(["1/2", "1/2", "1/2"], [1], "0.5", 20)  # p > q+1
        with pytest.raises(DomainError):
            pFq_eval(["1/2", "1/2"], [1], "1.5", 20)
        with pytest.raises(DivergentRequest):
            pFq_eval(["1/2", "1/2"], [1], 1, 20)  # excess 0

    def test_slow_alternating_sum_refused(self):
        # excess 1/2: the terms fall like n^(-3/2), so 25 digits need more
        # than 10^16 of them; refused before the first term
        started = time.monotonic()
        with pytest.raises(ResourceLimit):
            pFq_eval(["1/2"] * 3, [1, 1], -1, 20)
        assert time.monotonic() - started < 1

    def test_fast_alternating_sum_at_minus_one(self):
        # excess 8: the terms fall like n^-9, some 10^4 of them at prec 30
        prec = 30
        v = pFq_eval([1, 1], [10], -1, prec)
        with mp.workdps(prec + 20):
            ref = mp.hyp2f1(1, 1, 10, -1)
            assert abs(v - ref) <= mp.mpf(10) ** (2 - prec) * abs(ref)

    @pytest.mark.parametrize("x", [1, -1])
    def test_p_below_q_plus_one_on_the_unit_circle(self, x):
        # 1F2(5; 1, 1; x): the terms fall factorially, so no parameter
        # excess rule applies and the plain sum converges at x = 1 and -1
        prec = 20
        v = pFq_eval([5], [1, 1], x, prec)
        with mp.workdps(prec + 20):
            ref = mp.hyper([5], [1, 1], x)
            assert abs(v - ref) <= mp.mpf(10) ** (2 - prec) * abs(ref)

    @pytest.mark.parametrize("prec", [30, 300])
    @pytest.mark.parametrize("target", ["diamond", "fcc"])
    def test_rogers_forms_against_hyper(self, target, prec):
        # at z = 0.95 the forms take their 3F2 at x = 0.74 (diamond) and
        # 0.89 (fcc), where the terms fall slowly; mp.hyper at twice the
        # digits is the reference, under the 10^(2-prec) contract
        v = rogers_3f2(target, "0.95", prec)
        with mp.workdps(2 * prec):
            z = mp.mpf("0.95")
            if target == "diamond":
                scale = 1 - z ** 2 / 4
                arg = 27 * z ** 4 / (64 * scale ** 3)
            else:
                scale, arg = 1, z ** 2 * (3 + z) / 4
            ref = mp.hyper([mp.mpf(1) / 3, mp.mpf(1) / 2, mp.mpf(2) / 3], [1, 1], arg) / scale
            assert arg > mp.mpf("0.7")
            assert abs(v - ref) <= mp.mpf(10) ** (2 - prec) * abs(ref)

    def test_slow_sum_inside_the_disk_refused(self):
        # excess 1/2: the terms fall like 0.99999^n n^(-3/2), still some
        # 10^-14 at n = 10^6; refused before the first term
        started = time.monotonic()
        with pytest.raises(ResourceLimit):
            pFq_eval(["1/2"] * 3, [1, 1], "0.99999", 20)
        assert time.monotonic() - started < 1


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

    @pytest.mark.parametrize("lat", sorted(WATSON_PRINTED))
    def test_against_gamma_products(self, lat):
        with mp.workdps(210):
            ref = watson_gamma(lat, 210)
            assert abs(watson(lat, 200) - ref) <= mp.mpf(10) ** -198 * ref

    def test_no_gamma_set_up(self, monkeypatch):
        # mpmath's first Gamma at a new precision builds its Taylor table,
        # seconds at 1000 digits; the AGM forms must never reach it
        def no_gamma(*args, **kwargs):
            raise AssertionError("mp.gamma called")

        monkeypatch.setattr(mp, "gamma", no_gamma)
        monkeypatch.setattr(mp.mp, "gamma", no_gamma)
        for lat in sorted(WATSON_PRINTED):
            with mp.workdps(210):
                w200 = watson(lat, 200)
                assert abs(watson(lat, 1000) - w200) <= mp.mpf(10) ** -198 * w200


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

# the forms whose printed elliptic argument could be k or k^2
AMBIGUOUS = ["honeycomb", "square", "triangular", "diamond-algebraic-2F1"]


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

    @pytest.mark.parametrize("fid", AMBIGUOUS)
    def test_report_builds_one_table_per_form(self, fid, monkeypatch):
        # both readings of a form are judged against one reference table
        calls = []

        def counting(spec, n_max):
            calls.append(spec)
            return coeffs(spec, n_max)

        monkeypatch.setattr(analytic, "coeffs", counting)
        convention_report(30)
        assert calls.count(LatticeSpec(*FORM_TO_SPEC[fid])) == 1
        assert len(calls) == len(AMBIGUOUS)

    @pytest.mark.parametrize("fid", AMBIGUOUS)
    def test_closed_form_builds_no_table(self, fid, monkeypatch):
        # the reading is fixed, so evaluating a form needs no series
        ref = series_at(LatticeSpec(*FORM_TO_SPEC[fid]), "0.3")

        def refuse(spec, n_max):
            raise AssertionError(f"{fid} built a {spec} table")

        monkeypatch.setattr(analytic, "coeffs", refuse)
        with mp.workdps(50):
            v = joyce_closed_form(fid, "0.3", 40)
            assert abs(v - ref) < mp.mpf("1e-38")

    @pytest.mark.parametrize("fid", AMBIGUOUS)
    def test_report_fails_the_other_reading(self, fid, monkeypatch):
        # the series admits only the modulus, so evaluating the parameter
        # reading must fail the proof
        monkeypatch.setattr(analytic, "_READING", "parameter")
        report = {r.name: r for r in convention_report(30)}[fid]
        assert not report.passed
        assert "['modulus']" in report.detail

    def test_no_generic_hyper(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mp.hyper called")

        monkeypatch.setattr(mp, "hyper", refuse)
        for fid in CLOSED_FORM_IDS:
            x = "0.06" if fid.startswith("honeycomb-map-") else "0.25"
            v = joyce_closed_form(fid, x, 30)
            assert mp.isfinite(v) and v > 0, fid

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

    @pytest.mark.parametrize("z", ["0.15", "0.3", "0.35", "0.6", "0.9"])
    @pytest.mark.parametrize("target", ["diamond", "fcc"])
    def test_rogers_matches_mpmath_hyper(self, target, z):
        # the module contract against mpmath's generic hyper at 20 more
        # digits; the 3F2 arguments stay at or below 0.8 up to z = 0.9
        prec = 30
        with mp.workdps(prec + 20):
            x = mp.mpf(z)
            if target == "diamond":
                scale = 1 - x ** 2 / 4
                arg = 27 * x ** 4 / (64 * scale ** 3)
            else:
                scale, arg = 1, x ** 2 * (3 + x) / 4
            third = mp.mpf(1) / 3
            ref = mp.hyper([third, mp.mpf(1) / 2, 2 * third], [1, 1], arg) / scale
            assert abs(rogers_3f2(target, z, prec) - ref) <= mp.mpf(10) ** (2 - prec) * ref

    def test_fourd_sc_double_elliptic(self):
        # the module contract 10^(2-prec), relative; 450 terms put the
        # series reference within 1e-46 even at z = 0.9
        bad = []
        for z in ("0.15", "0.3", "0.6", "0.9"):
            ref = series_at(LatticeSpec("sc", 4), z, terms=450, dps=80)
            for prec in (25, 40):
                with mp.workdps(80):
                    gap = abs(fourd_sc_double_elliptic(z, prec) - ref)
                    if not gap <= mp.mpf(10) ** (2 - prec) * abs(ref):
                        bad.append(f"z={z} prec={prec}: {mp.nstr(gap, 3)}")
        assert not bad, bad

    @pytest.mark.parametrize("prec", [25, 40])
    def test_fourd_near_the_branch_point(self, prec):
        # at z = 0.99 the integrand's singularity sits 0.14 from the real
        # phi axis; the reference is mp.quad of the same integrand
        with mp.workdps(prec + 20):
            z = mp.mpf("0.99")
            ref = 8 / mp.pi ** 3 * mp.quad(
                lambda phi: (mp.ellipk(analytic._diamond_k2(z * mp.sin(phi), +1))
                             * mp.ellipk(analytic._diamond_k2(z * mp.sin(phi), -1))),
                [0, mp.pi / 2])
            gap = abs(fourd_sc_double_elliptic("0.99", prec) - ref)
            assert gap <= mp.mpf(10) ** (2 - prec) * ref


class TestHoneycombMaps:
    """R(xi) = sum b_n xi^(2n) pushed through the four cubic-family maps."""

    @pytest.mark.parametrize("target", ["fcc", "sc", "bcc", "diamond"])
    def test_map_reproduces_series(self, target):
        with mp.workdps(50):
            z, v = honeycomb_map_eval(target, "0.05", 40)
            dim = 3
            ref = series_at(LatticeSpec(target, dim), z, terms=300)
            assert abs(v - ref) < mp.mpf("1e-10"), target

    def test_fcc_map_meets_contract_near_the_edge(self):
        # at xi = 0.24 the honeycomb series converges like 0.0576^n; a
        # fixed 200 terms stopped 3e-60 short of prec 80.  The 1500-term
        # reference table comes from the three-term recurrence
        # n^2 b_n = (10n^2 - 10n + 3) b_(n-1) - 9(n-1)^2 b_(n-2)
        b = [1, 3]
        for n in range(2, 1501):
            b.append(((10 * n * n - 10 * n + 3) * b[-1] - 9 * (n - 1) ** 2 * b[-2]) // (n * n))
        assert tuple(b[:41]) == coeffs(LatticeSpec("honeycomb", 2), 40).values
        with mp.workdps(120):
            _, v = honeycomb_map_eval("fcc", "0.24", 80)
            x2 = mp.mpf("0.24") ** 2
            r = mp.fsum(bn * x2 ** n for n, bn in enumerate(b))
            ref = (1 - 3 * x2) ** 2 * r ** 2
            assert abs(v - ref) <= mp.mpf("1e-78") * ref

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
            v, _ = quadrature(lambda t: t ** 3 * mp.besselk(0, t), [0, mp.inf], 25)
            assert abs(v - 4) < mp.mpf("1e-22")

    @pytest.mark.parametrize("dps", [15, 22, 40, 60])
    def test_k0_matches_mpmath(self, dps):
        # both branches, and both sides of the switch at t = 1.2 (dps + 5)
        switch = mp.mpf("1.2") * (dps + 5)
        grid = ["1e-8", "1e-3", "0.5", "1", "5", "20", "100", "1e3", "1e4",
                switch * (1 - mp.mpf("1e-6")), switch, switch * (1 + mp.mpf("1e-6"))]
        for t in grid:
            with mp.workdps(dps):
                t = mp.mpf(t)
                v = analytic._k0(t)
            with mp.workdps(dps + 20):
                ref = mp.besselk(0, t)
                assert abs(v - ref) <= mp.mpf(10) ** (1 - dps) * ref, (dps, t)

    @pytest.mark.parametrize("dps", [15, 22, 40, 60])
    def test_i0_matches_mpmath(self, dps):
        # both branches, and both sides of the switch at x = 1.2 (dps + 5)
        switch = mp.mpf("1.2") * (dps + 5)
        grid = ["1e-8", "1e-3", "0.5", "1", "5", "20", "100", "1e3", "1e4",
                switch * (1 - mp.mpf("1e-6")), switch, switch * (1 + mp.mpf("1e-6"))]
        for x in grid:
            with mp.workdps(dps):
                x = mp.mpf(x)
                v = analytic._i0(x)
            with mp.workdps(dps + 20):
                ref = mp.besseli(0, x)
                assert abs(v - ref) <= mp.mpf(10) ** (1 - dps) * ref, (dps, x)

    def test_i0_at_zero(self):
        # I0(0) = 1, so at z = 0 the Laplace form of P is int e^-t dt = 1
        with mp.workdps(40):
            assert abs(analytic._i0_transform(3, mp.mpf(0), 25, lambda t: mp.exp(-t)) - 1) < mp.mpf("1e-23")


class TestQuarterPeriodMean:
    """(2/pi) int_0^(pi/2) f(sin phi) dphi by the periodic trapezoid rule."""

    @pytest.mark.parametrize("prec", [20, 50])
    @pytest.mark.parametrize("c", ["0.5", "3"])
    def test_cosh_mean_is_i0(self, c, prec):
        # (1/pi) int_0^pi cosh(c sin phi) dphi = I0(c)
        with mp.workdps(prec + 20):
            c = mp.mpf(c)
            value, err = analytic._quarter_period_mean(lambda u: mp.cosh(c * u), prec)
            ref = mp.besseli(0, c)
            assert abs(value - ref) <= mp.mpf(10) ** (2 - prec) * ref
            assert 0 < err

    def test_one_call_per_node(self):
        args = []

        def f(u):
            args.append(u)
            return mp.cosh(3 * u)

        analytic._quarter_period_mean(f, 30)
        assert len(args) == len(set(args)) > 3

    def test_kink_refused(self):
        # |sin phi| is not analytic at phi = 0: the sums converge only
        # like panels^-2 and run into the panel cap
        with pytest.raises(PrecisionNotMet):
            analytic._quarter_period_mean(abs, 20)


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
        k0 = analytic._k0

        def counting(t):
            args.append(t)
            return k0(t)

        monkeypatch.setattr(analytic, "_k0", counting)
        c = bessel_connection_check(3, "0.4", 5)
        assert bool(c)
        with mp.workdps(30):
            assert abs(c.lhs - c.rhs) < mp.mpf("1e-5")
        assert args and len(args) == len(set(args))

    def test_connection_outer_rule_is_small(self, monkeypatch):
        # one inner K0 rule per outer node, 9 nodes at prec 5 where
        # tanh-sinh took 53
        calls = []
        i0 = analytic._i0

        def counting(x):
            calls.append(x)
            return i0(x)

        monkeypatch.setattr(analytic, "_i0", counting)
        assert bool(bessel_connection_check(3, "0.4", 5))
        assert calls and len(calls) <= 3000

    def test_no_generic_besseli(self, monkeypatch):
        # I0 comes from _i0 in all three checks
        def refuse(*args, **kwargs):
            raise AssertionError("mp.besseli called")

        monkeypatch.setattr(mp, "besseli", refuse)
        assert bool(bessel_sc_check(3, "0.4", 12))
        assert bool(bessel_diamond_check(3, "0.1", 12))
        assert bool(bessel_connection_check(3, "0.4", 5))

    @pytest.mark.parametrize("kind", ["sc", "diamond"])
    def test_cut_integrands_near_one(self, kind):
        # at z = 0.97 the integrands decay like e^(-0.03 t), so the cut
        # lies far out (T = 2433); the cut integral must still match
        # an uncut one with mpmath's I0 at 20 more digits (K0 from _k0,
        # which test_k0_matches_mpmath checks against mp.besselk)
        prec = 16
        z = mp.mpf("0.97")
        if kind == "sc":
            value = analytic._i0_transform(3, z, prec, lambda t: mp.exp(-t))

            def uncut(t):
                return mp.exp(-t) * mp.besseli(0, z * t / 3) ** 3
        else:
            value = analytic._i0_transform(4, z, prec, lambda t: t * analytic._k0(t))

            def uncut(t):
                return t * mp.besseli(0, z * t / 4) ** 4 * analytic._k0(t)
        with mp.workdps(prec + 30):
            ref = mp.quad(uncut, [0, mp.inf])
            assert abs(value - ref) <= mp.mpf(10) ** (2 - prec) * ref

    def test_connection_at_prec_20(self):
        c = bessel_connection_check(3, "0.4", 20)
        assert bool(c)
        with mp.workdps(40):
            assert abs(c.lhs - c.rhs) <= mp.mpf("1e-18") * abs(c.rhs)

    @pytest.mark.parametrize("prec", [5, 6])
    def test_connection_bound_is_relative(self, prec):
        # 10^(2-prec) |rhs|, not 10^-(prec-6), which is 10 at prec 5
        c = bessel_connection_check(3, "0.1", prec)
        assert bool(c)
        assert c.error < abs(c.rhs) / 100

    @pytest.mark.parametrize("prec", [3, 5])
    @pytest.mark.parametrize("kind", ["sc", "diamond"])
    def test_bessel_bounds_are_relative(self, kind, prec):
        # 10^(2-prec) |rhs|, not 10^-(prec-5), which is 100 at prec 3 and
        # 1 at prec 5 against values near 1.03
        check = {"sc": bessel_sc_check, "diamond": bessel_diamond_check}[kind]
        c = check(3, "0.4" if kind == "sc" else "0.1", prec)
        assert bool(c)
        assert not bool(dataclasses.replace(c, rhs=c.rhs + mp.mpf("0.5")))

    @pytest.mark.parametrize("d", [3, 4])
    def test_abel_forward(self, d):
        reports = abel_forward_check(d, "0.3", 16)
        assert len(reports) == 2
        for r in reports:
            assert r.passed, (d, r.name, r.detail)

    @pytest.mark.parametrize("prec", [20, 30])
    @pytest.mark.parametrize("d", [3, 4])
    def test_abel_gap_within_contract(self, d, prec):
        # the reported gap meets 10^(2-prec) relative, not 10^(5-prec)
        reports = abel_forward_check(d, "0.3", prec)
        assert all(r.passed for r in reports), reports
        series = lgf_series_eval(LatticeSpec("sc", d), "0.3", prec + 10).value
        with mp.workdps(prec + 20):
            gap = mp.mpf(reports[1].detail.split()[-1])
            assert gap <= mp.mpf(10) ** (2 - prec) * abs(series)


# -- Ramanujan 1/pi series ----------------------------------------------------

def exact_ramanujan_sum(a, b, x0, table, terms):
    """sum_{n<terms} (a n + b) table[n] x0^n, exact in Q(sqrt(3))."""
    acc = QSqrt3(0)
    power = QSqrt3(1)
    for n in range(terms):
        acc = acc + power * (a * n + b) * table[n]
        power = power * x0
    return acc


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

    @pytest.mark.parametrize("terms,prec", [(5, 30), (100, 30), (100, 300)])
    @pytest.mark.parametrize("sid", RAMANUJAN_IDS)
    def test_partial_sum_is_the_exact_sum(self, sid, terms, prec):
        # the fixed-point sum against the exact Q(sqrt3) sum, within the
        # working epsilon at which ramanujan_eval floors its difference
        s = analytic._RAMANUJAN[sid]
        exact = exact_ramanujan_sum(s.a, s.b, s.x0, coeffs(s.lattice, terms), terms)
        partial, target, _ = ramanujan_eval(sid, terms, prec)
        # the components carry the field conjugate of the sum, which can
        # be thousands of bits larger than the value
        bits = max(c.bit_length() for c in (exact.a.numerator, exact.a.denominator,
                                             exact.b.numerator, exact.b.denominator))
        with mp.workdps(bits // 3 + 2 * prec):
            assert abs(partial - exact.to_mpf()) <= mp.mpf(10) ** -(prec + 10) * abs(target)

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

    @pytest.mark.parametrize("prec", [20, 30, 64])
    def test_general_form_meets_contract(self, prec):
        # the residual is within 10^(2-prec)/pi, not a fixed 1e-20
        rep = ramanujan_general_form_check(prec)
        assert rep.passed, rep.note
        with mp.workdps(prec + 20):
            residual = mp.mpf(rep.note.split()[-1])
            assert residual <= mp.mpf(10) ** (2 - prec) / mp.pi


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
        # m(1+x+y) = sqrt(3) (psi'(1/3) - psi'(2/3)) / (12 pi); the kink at
        # 2pi/3 is a panel edge, so mp.quad's panel estimates fall below
        # the working digits, which leaves only the floor
        v, err = log_mahler_measure({(0, 0): 1, (1, 0): 1, (0, 1): 1}, prec)
        with mp.workdps(prec + 20):
            third = mp.mpf(1) / 3
            ref = mp.sqrt(3) * (mp.psi(1, third) - mp.psi(1, 2 * third)) / (12 * mp.pi)
            assert 0 < abs(v - ref) <= err

    @pytest.mark.parametrize("prec", [12, 20, 30])
    def test_kink_inside_a_panel_is_refused(self, prec):
        # m(3/2 + x + y): the inner root -(3/2 + y) crosses the unit circle
        # at phi = acos(-3/4) = 2.4189, inside the panel [2pi/3, 5pi/6].
        # Six panels miss the reference, mp.quad split at the kink, by more
        # than the gate, and their error estimates say so
        F = {(0, 0): "1.5", (1, 0): 1, (0, 1): 1}

        def jensen(phi):
            return max(mp.log(abs(mp.mpf(3) / 2 + mp.expj(phi))), 0)

        with mp.workdps(prec + 20):
            ref = mp.quad(jensen, [0, mp.acos(mp.mpf(-3) / 4)]) / mp.pi
        with mp.workdps(prec + 10):
            six = mp.fsum(mp.quad(jensen, [mp.pi * j / 6, mp.pi * (j + 1) / 6])
                          for j in range(6)) / mp.pi
        with mp.workdps(prec + 20):
            assert abs(six - ref) > mp.mpf(10) ** (-(prec + 2))
        with pytest.raises(PrecisionNotMet):
            log_mahler_measure(F, prec)

    @pytest.mark.parametrize("prec", [12, 20, 30])
    def test_linear_jensen_takes_the_root(self, prec, monkeypatch):
        # a linear inner polynomial has the one root -c0/c1: no polyroots
        def refused(*args, **kwargs):
            raise AssertionError("polyroots called on a linear polynomial")

        monkeypatch.setattr(mp, "polyroots", refused)
        v, _ = log_mahler_measure({(1,): 2, (0,): -3}, prec)
        w, _ = log_mahler_measure({(0, 0): 1, (1, 0): 1, (0, 1): 1}, prec)
        with mp.workdps(prec + 20):
            assert abs(v - mp.log(3)) <= mp.mpf(10) ** (2 - prec) * mp.log(3)
            third = mp.mpf(1) / 3
            ref = mp.sqrt(3) * (mp.psi(1, third) - mp.psi(1, 2 * third)) / (12 * mp.pi)
            assert abs(w - ref) <= mp.mpf(10) ** (2 - prec) * ref

    def test_cubic_jensen_by_polyroots(self):
        # x^3 - x - 1: the one root outside the circle is the plastic number
        v, _ = log_mahler_measure({(0,): -1, (1,): -1, (3,): 1}, 30)
        with mp.workdps(50):
            rho = mp.findroot(lambda x: x ** 3 - x - 1, mp.mpf("1.3247"))
            assert abs(v - mp.log(rho)) <= mp.mpf(10) ** (2 - 30) * mp.log(rho)

    def test_two_variable_form_of_one_variable_polynomial(self):
        # x^2 - 3x + 1 written in (x, y): the same Jensen value at every y
        v1, err1 = log_mahler_measure({(2,): 1, (1,): -3, (0,): 1}, 20)
        v2, err2 = log_mahler_measure({(2, 0): 1, (1, 0): -3, (0, 0): 1}, 20)
        with mp.workdps(40):
            ref = mp.log((3 + mp.sqrt(5)) / 2)
            assert abs(v1 - ref) <= err1
            assert abs(v2 - ref) <= err2
            assert abs(v2 - v1) <= mp.mpf("1e-18") * ref

    def test_domain(self):
        with pytest.raises(DomainError):
            log_mahler_measure({}, 15)
        # every coefficient zero, compared as values: strings arrive from the CLI
        for F in ({(0, 0): 0}, {(1,): 0}, {(1, 0): 0, (0, 0): "0.0"}, {(): "-0"}):
            with pytest.raises(DomainError):
                log_mahler_measure(F, 15)
        with pytest.raises(DomainError):
            log_mahler_measure({(1,): 1, (0, 0): 1}, 15)
        with pytest.raises(DomainError):
            log_mahler_measure({(1, 2, 3): 1}, 15)
        with pytest.raises(TypeError):
            log_mahler_measure({(1,): 1}, 15, method="monte-carlo")
