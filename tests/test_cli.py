"""CLI surface: flag wiring, cache persistence, report shape, exit codes.

Commands run in-process through main(argv); TestRunner also runs the
module entry point in a subprocess.
"""

import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import mpmath as mp
import pytest

from latgreen import analytic, cli
from latgreen.cli import FAIL, LIMIT, OK, USAGE, main, read_cache, write_cache
from latgreen.lattices import LatticeSpec, coeffs
from latgreen.ode import parse_operator, registry


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout; stderr: {err}"
    return code, json.loads(out)


def stable(doc):
    # everything but the timing field, which is allowed to vary
    return {k: v for k, v in doc.items() if k != "timing_ms"}


# -- coeffs -------------------------------------------------------------------

class TestCoeffs:
    def test_bcc3_table(self, capsys):
        code, doc = run_json(capsys, "coeffs", "--family", "bcc", "--dim", "3",
                             "--terms", "3")
        assert code == OK
        assert doc["table"] == ["1", "8", "216"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--family", "square", "--dim", "2",
                           "--terms", "3", "--format", "csv")
        assert code == OK
        assert out.splitlines() == ["n,a_n", "0,1", "1,4", "2,36"]

    def test_methods_agree(self, capsys):
        tables = []
        for method in ["formula", "ct", "cosine"]:
            code, doc = run_json(capsys, "coeffs", "--family", "square",
                                 "--dim", "2", "--terms", "12",
                                 "--method", method)
            assert code == OK
            tables.append(doc["table"])
        assert tables[0] == tables[1] == tables[2]

    def test_method_all(self, capsys):
        code, doc = run_json(capsys, "coeffs", "--family", "square", "--dim", "2",
                             "--terms", "20", "--method", "all")
        assert code == OK
        assert doc["routes"] == ["formula", "ct", "cosine"]
        assert doc["checks"] == {"formula-vs-ct": True, "formula-vs-cosine": True}

    def test_method_all_fcc5(self, capsys):
        code, doc = run_json(capsys, "coeffs", "--family", "fcc", "--dim", "5",
                             "--terms", "5", "--method", "all")
        assert code == OK
        assert doc["routes"] == ["formula", "ct", "cosine"]
        assert doc["checks"] == {"formula-vs-ct": True, "formula-vs-cosine": True}
        assert doc["table"][2] == "40"

    @pytest.mark.parametrize("family,dim", [("honeycomb", 2), ("triangular", 2),
                                            ("diamond", 3)])
    def test_cosine_route_two_site_and_triangular(self, capsys, family, dim):
        argv = ["coeffs", "--family", family, "--dim", str(dim), "--terms", "8"]
        code, doc = run_json(capsys, *argv, "--method", "cosine")
        assert code == OK
        _, want = run_json(capsys, *argv)
        assert doc["table"] == want["table"]

    def test_deterministic_output(self, capsys):
        argv = ["coeffs", "--family", "sc", "--dim", "3", "--terms", "15"]
        _, d1 = run_json(capsys, *argv)
        _, d2 = run_json(capsys, *argv)
        assert stable(d1) == stable(d2)

    def test_fcc5_formula_gap(self, capsys):
        # the formula route covers fcc in every dimension
        argv = ["coeffs", "--family", "fcc", "--dim", "5", "--terms", "8"]
        code, doc = run_json(capsys, *argv)
        assert code == OK
        _, want = run_json(capsys, *argv, "--method", "ct")
        assert doc["table"] == want["table"]

    def test_fcc5_ct_route(self, capsys):
        code, doc = run_json(capsys, "coeffs", "--family", "fcc", "--dim", "5",
                             "--terms", "3", "--method", "ct")
        assert code == OK
        assert doc["table"][2] == "40"

    def test_table_past_int_str_digit_limit(self, capsys):
        # C(1458, 729)^10 has 4370 digits, past the interpreter's default
        # limit of 4300 on int <-> str conversion
        code, doc = run_json(capsys, "coeffs", "--family", "bcc", "--dim", "10",
                             "--terms", "730")
        assert code == OK
        assert len(doc["table"]) == 730
        assert int(doc["table"][-1]) == comb(1458, 729) ** 10

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "coeffs", "--family", "kagome", "--dim", "2")
        assert code == USAGE

    def test_bad_terms(self, capsys):
        code, _, _ = run(capsys, "coeffs", "--family", "sc", "--dim", "3",
                         "--terms", "0")
        assert code == USAGE


class TestCache:
    def test_round_trip_bit_exact(self, tmp_path):
        path = str(tmp_path / "sc-3.txt")
        values = [1, 6, 90, 1860, 44730]
        write_cache(path, "sc", 3, values)
        fam, dim, back = read_cache(path)
        assert (fam, dim, back) == ("sc", 3, values)
        first = open(path).read()
        write_cache(path, "sc", 3, values)
        assert open(path).read() == first

    def test_failed_replace_keeps_old_cache(self, tmp_path, monkeypatch):
        path = str(tmp_path / "sc-3.txt")
        write_cache(path, "sc", 3, [1, 6, 90])
        before = open(path, "rb").read()

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            write_cache(path, "sc", 3, [1, 6, 90, 1860])
        assert open(path, "rb").read() == before
        assert not list(tmp_path.glob(".lgf-tmp-*"))

    def test_header_matches_count(self, tmp_path):
        path = str(tmp_path / "sc-3.txt")
        write_cache(path, "sc", 3, [1, 6, 90])
        assert open(path).readline().strip() == "lgf-cache v1 sc 3 3"

    def test_hit_and_miss_identical(self, capsys, tmp_path):
        argv = ["coeffs", "--family", "diamond", "--dim", "3", "--terms", "10",
                "--cache-dir", str(tmp_path)]
        _, miss = run_json(capsys, *argv)
        assert (tmp_path / "diamond-3.txt").exists()
        _, hit = run_json(capsys, *argv)
        assert stable(miss) == stable(hit)

    def test_hit_past_int_str_digit_limit(self, capsys, tmp_path):
        argv = ["coeffs", "--family", "bcc", "--dim", "10", "--terms", "730",
                "--cache-dir", str(tmp_path)]
        _, miss = run_json(capsys, *argv)
        _, hit = run_json(capsys, *argv)
        assert stable(miss) == stable(hit)
        assert read_cache(str(tmp_path / "bcc-10.txt"))[2] == [
            int(s) for s in miss["table"]]

    def test_short_cache_recomputed(self, capsys, tmp_path):
        argv = ["coeffs", "--family", "square", "--dim", "2",
                "--cache-dir", str(tmp_path)]
        run_json(capsys, *argv, "--terms", "5")
        code, doc = run_json(capsys, *argv, "--terms", "9")
        assert code == OK
        assert len(doc["table"]) == 9
        assert read_cache(str(tmp_path / "square-2.txt"))[2] == [
            int(s) for s in doc["table"]]

    def test_corrupted_value_fails_validation(self, capsys, tmp_path):
        argv = ["coeffs", "--family", "square", "--dim", "2", "--terms", "12",
                "--method", "all", "--cache-dir", str(tmp_path)]
        code, _ = run_json(capsys, *argv)
        assert code == OK
        path = tmp_path / "square-2.txt"
        lines = path.read_text().splitlines()
        lines[3] = "9999"  # n=2 entry, true value 36
        path.write_text("\n".join(lines) + "\n")
        code, doc = run_json(capsys, *argv)
        assert code == FAIL
        assert doc["checks"]["cache-vs-formula"] is False

    def test_corrupted_header_fails_validation(self, capsys, tmp_path):
        argv = ["coeffs", "--family", "square", "--dim", "2", "--terms", "8",
                "--method", "all", "--cache-dir", str(tmp_path)]
        run_json(capsys, *argv)
        path = tmp_path / "square-2.txt"
        path.write_text("corrupt\n" + path.read_text())
        code, doc = run_json(capsys, *argv)
        assert code == FAIL
        assert doc["checks"]["cache-readable"] is False


# -- ode ----------------------------------------------------------------------

class TestOde:
    def test_verify_registry(self, capsys):
        code, doc = run_json(capsys, "ode", "verify", "bcc4", "--terms", "40")
        assert code == OK and doc["passed"]

    def test_verify_recurrence_source(self, capsys):
        code, doc = run_json(capsys, "ode", "verify", "apery-zeta2",
                             "--terms", "30")
        assert code == OK
        assert doc["series_source"] == "recurrence"

    def test_verify_unknown_operator(self, capsys):
        code, _, err = run(capsys, "ode", "verify", "no-such-op")
        assert code == USAGE

    def test_fit_recovers_square_operator(self, capsys, tmp_path):
        out = str(tmp_path / "op.txt")
        code, doc = run_json(capsys, "ode", "fit", "--family", "square",
                             "--dim", "2", "--order", "2", "--degree", "1",
                             "--terms", "30", "--out", out)
        assert code == OK
        assert (doc["order"], doc["degree"]) == (2, 1)
        assert parse_operator(open(out).read()) == registry("iwan2")

    def test_fit_failure_exits_2(self, capsys, tmp_path):
        path = str(tmp_path / "primes-0.txt")
        write_cache(path, "primes", 0, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
                                        31, 37, 41, 43, 47, 53, 59, 61])
        code, doc = run_json(capsys, "ode", "fit", "--series-cache", path,
                             "--order", "2", "--degree", "2", "--terms", "17")
        assert code == FAIL
        assert doc["passed"] is False

    def test_series_cache_names_its_lattice(self, capsys, tmp_path):
        # the message `coeffs --cache-dir` gives for a cache of another lattice
        path = str(tmp_path / "bcc-4.txt")
        write_cache(path, "bcc", 4, list(coeffs(LatticeSpec("bcc", 4), 40).values))
        code, doc = run_json(capsys, "ode", "verify", "sc4", "--series-cache", path)
        assert code == USAGE
        assert doc["error"]["message"].endswith("cache is for bcc-4")

    def test_iwan_names_bcc(self, capsys, tmp_path):
        # iwan<d>'s series C(2n,n)^d is the bcc d table, so a cache of
        # another lattice is refused, and without one the table is read
        code, doc = run_json(capsys, "ode", "verify", "iwan4")
        assert code == OK and doc["passed"]
        assert doc["series_source"] == "table"
        path = str(tmp_path / "sc-4.txt")
        write_cache(path, "sc", 4, list(coeffs(LatticeSpec("sc", 4), 41).values))
        code, doc = run_json(capsys, "ode", "verify", "iwan4", "--series-cache", path)
        assert code == USAGE
        assert doc["error"]["message"].endswith("cache is for sc-4")

    def test_operator_file_round_trip(self, capsys, tmp_path):
        out = str(tmp_path / "iwan3.txt")
        run_json(capsys, "ode", "fit", "--family", "bcc", "--dim", "3",
                 "--order", "3", "--degree", "1", "--terms", "30", "--out", out)
        code, doc = run_json(capsys, "ode", "verify", "--op-file", out,
                             "--family", "bcc", "--dim", "3", "--terms", "25")
        assert code == OK and doc["passed"]

    def test_frobenius_shape(self, capsys):
        code, doc = run_json(capsys, "ode", "frobenius", "sc4", "--terms", "8")
        assert code == OK
        assert len(doc["solutions"]) == 4
        assert doc["solutions"][0]["log_degree"] == 0
        assert doc["solutions"][3]["log_degree"] == 3
        assert doc["solutions"][0]["parts"][0][0] == "1"

    def test_yukawa_sc4(self, capsys):
        code, doc = run_json(capsys, "ode", "yukawa", "sc4", "--terms", "30")
        assert code == OK
        assert doc["K_coeffs"][:5] == ["1", "4", "164", "5800", "196772"]
        assert doc["scaled_instantons"][:4] == ["12", "60", "644", "9216"]
        assert doc["s"] == 3

    def test_cy_report_sc4(self, capsys):
        code, doc = run_json(capsys, "ode", "cy-report", "sc4")
        assert code == OK
        assert len(doc["conditions"]) == 5
        assert all(c["passed"] for c in doc["conditions"])
        assert doc["conditions"][2]["detail"].startswith("lambda = [1/2, 1, 1, 3/2];")

    def test_cy_report_sc3(self, capsys):
        # an order-3 operator: MUM holds, and condition three needs four
        # exponents at infinity
        code, doc = run_json(capsys, "ode", "cy-report", "sc3")
        assert code == FAIL
        passed = [c["passed"] for c in doc["conditions"]]
        assert passed == [True, False, False, False, False]
        details = [c["detail"] for c in doc["conditions"]]
        assert details[0] == "exponents at 0: [0, 0, 0]"
        assert details[2] == "exponents at infinity: [1/2, 1, 3/2]"

    def test_verify_iwan3(self, capsys):
        code, doc = run_json(capsys, "ode", "verify", "iwan3", "--terms", "30")
        assert code == OK and doc["passed"]
        assert doc["series_source"] == "table"

    def test_wronskian_bcc4(self, capsys):
        code, doc = run_json(capsys, "ode", "wronskian", "bcc4", "--terms", "25")
        assert code == OK and doc["passed"]

    def test_symsq_sc3(self, capsys):
        code, doc = run_json(capsys, "ode", "symsq", "sc3")
        assert code == OK and doc["passed"]
        assert "RatFunc" in doc["Q"]

    def test_symsq_wrong_order(self, capsys):
        code, _, err = run(capsys, "ode", "symsq", "bcc4")
        assert code == USAGE


# -- eval ---------------------------------------------------------------------

class TestEval:
    def test_watson(self, capsys):
        code, doc = run_json(capsys, "eval", "watson", "--lattice", "sc",
                             "--prec", "12")
        assert code == OK
        assert doc["value"].startswith("1.5163860")

    def test_watson_prints_every_requested_digit(self, capsys):
        code, doc = run_json(capsys, "eval", "watson", "--lattice", "sc",
                             "--prec", "40")
        assert code == OK
        with mp.workdps(60):
            # Glasser-Zucker: W = sqrt(6)/(32 pi^3) G(1/24) G(5/24) G(7/24) G(11/24)
            g = mp.gamma
            want = (mp.sqrt(6) / (32 * mp.pi ** 3) * g(mp.mpf(1) / 24) * g(mp.mpf(5) / 24)
                    * g(mp.mpf(7) / 24) * g(mp.mpf(11) / 24))
            assert abs(mp.mpf(doc["value"]) - want) < mp.mpf(10) ** -37

    def test_watson_at_a_thousand_digits(self, capsys):
        code, doc = run_json(capsys, "eval", "watson", "--lattice", "bcc",
                             "--prec", "1000")
        assert code == OK
        with mp.workdps(1000):
            assert doc["value"] == mp.nstr(analytic.watson("bcc", 1000), 1000)
        with mp.workdps(210):
            gamma_form = mp.gamma(mp.mpf(1) / 4) ** 4 / (4 * mp.pi ** 3)
            # "1." and the next 197 digits
            assert doc["value"][:199] == mp.nstr(gamma_form, 210)[:199]

    def test_lgf_bcc4_at_one(self, capsys):
        code, doc = run_json(capsys, "eval", "lgf", "--family", "bcc",
                             "--dim", "4", "--z", "1", "--tail", "corrected",
                             "--prec", "20")
        assert code == OK
        assert doc["value"].startswith("1.118636387164187")

    def test_lgf_divergent(self, capsys):
        code, _, err = run(capsys, "eval", "lgf", "--family", "square",
                           "--dim", "2", "--z", "1")
        assert code == USAGE
        assert "recurrent" in err

    def test_lgf_resource_limit(self, capsys):
        code, _, err = run(capsys, "eval", "lgf", "--family", "square",
                           "--dim", "2", "--z", "0.9999", "--prec", "30")
        assert code == LIMIT

    def test_ramanujan(self, capsys):
        code, doc = run_json(capsys, "eval", "ramanujan", "--id", "bcc-4096",
                             "--terms", "15", "--prec", "30")
        assert code == OK
        assert float(doc["abs_error"]) < 1e-25

    @pytest.mark.parametrize("sid", ["diam-64", "sc-484"])
    def test_ramanujan_error_floored_at_working_epsilon(self, capsys, sid):
        # at 200 terms both sums agree with their targets to the 70
        # working digits; what is left is rounding, which the document
        # reports as the working epsilon 10^-70 times the target
        code, doc = run_json(capsys, "eval", "ramanujan", "--id", sid,
                             "--terms", "200", "--prec", "60")
        assert code == OK
        with mp.workdps(80):
            floor = mp.mpf(10) ** -70 * mp.mpf(doc["target"])
            assert doc["abs_error"] == mp.nstr(floor, 3)

    def test_ramanujan_unknown_id(self, capsys):
        code, _, _ = run(capsys, "eval", "ramanujan", "--id", "sc-885")
        assert code == USAGE

    def test_bessel_sc(self, capsys):
        code, doc = run_json(capsys, "eval", "bessel", "--check", "sc",
                             "--d", "3", "--z", "0.4", "--prec", "12")
        assert code == OK and doc["passed"]

    @pytest.mark.parametrize("check,prec", [("sc", "16"), ("diamond", "12")])
    def test_bessel_near_one(self, capsys, check, prec):
        # the series side needs some 600 terms at z = 0.97; 200 left it
        # about 1e-8 off
        code, doc = run_json(capsys, "eval", "bessel", "--check", check,
                             "--d", "3", "--z", "0.97", "--prec", prec)
        assert code == OK and doc["passed"] is True

    def test_bessel_abel(self, capsys):
        code, doc = run_json(capsys, "eval", "bessel", "--check", "abel",
                             "--d", "3", "--z", "0.3", "--prec", "12")
        assert code == OK
        assert len(doc["conditions"]) == 2

    def test_mahler(self, capsys):
        code, doc = run_json(capsys, "eval", "mahler", "--coeffs",
                             '{"1,0":1,"-1,0":1,"0,1":1,"0,-1":1,"0,0":1}',
                             "--prec", "12")
        assert code == OK
        assert doc["value"].startswith("0.2513304")

    def test_mahler_bad_json(self, capsys):
        code, _, err = run(capsys, "eval", "mahler", "--coeffs", "not json")
        assert code == USAGE

    def test_maps(self, capsys):
        code, doc = run_json(capsys, "eval", "maps", "--target", "sc",
                             "--xi", "0.05", "--prec", "15")
        assert code == OK
        assert doc["z"]["re"].startswith("0.2962")
        assert doc["value"].startswith("1.0151910")

    def test_return_prob_square(self, capsys):
        code, doc = run_json(capsys, "eval", "return-prob", "--family",
                             "square", "--dim", "2")
        assert code == OK
        assert float(doc["value"]) == 1.0

    def test_prec_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("LGF_PREC", "8")
        code, doc = run_json(capsys, "eval", "watson", "--lattice", "bcc")
        assert code == OK
        assert doc["value"] == "1.3932039"
        assert doc["inputs"]["prec"] == 8

    def test_prec_env_below_old_floor(self, capsys, monkeypatch):
        # LGF_PREC follows the --prec rule: any integer >= 1 is taken as given
        monkeypatch.setenv("LGF_PREC", "3")
        code, doc = run_json(capsys, "eval", "watson", "--lattice", "bcc")
        assert code == OK
        assert doc["inputs"]["prec"] == 3

    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5"])
    def test_prec_env_rejected(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("LGF_PREC", raw)
        code, doc = run_json(capsys, "eval", "watson", "--lattice", "bcc")
        assert code == USAGE
        assert doc["passed"] is False
        assert doc["error"]["type"] == "UsageExit"
        assert "LGF_PREC" in doc["error"]["message"]


class TestUsage:
    def test_unknown_group(self, capsys):
        code, _, err = run(capsys, "nonsense")
        assert code == USAGE

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "eval", "watson")
        assert code == USAGE

    def test_ode_needs_operator(self, capsys):
        code, _, err = run(capsys, "ode", "frobenius")
        assert code == USAGE
        assert "registry" in err or "op-file" in err


class TestRunner:
    @pytest.mark.parametrize("argv,code,error", [
        (["eval", "lgf", "--family", "sc", "--dim", "3", "--z", "abc"], USAGE, "UsageExit"),
        (["eval", "maps", "--target", "sc", "--xi", "x"], USAGE, "UsageExit"),
        (["ode", "verify", "--op-file", "{bad}"], USAGE, "UsageExit"),
        (["ode", "verify", "sc4", "--series-cache", "{bad}"], USAGE, "UsageExit"),
        (["eval", "watson", "--lattice", "sc", "--prec", "-5"], USAGE, "UsageExit"),
        (["eval", "watson", "--lattice", "sc", "--prec", "0"], USAGE, "UsageExit"),
        (["eval", "bessel", "--check", "sc", "--d", "0", "--z", "0.4"], USAGE, "UsageExit"),
        (["ode", "frobenius", "bcc4", "--terms", "-1"], USAGE, "UsageExit"),
        (["eval", "mahler", "--coeffs", '{"1,0": 1, "0,0": "x"}'], USAGE, "UsageExit"),
        (["eval", "mahler", "--coeffs", '{"1,0": null}'], USAGE, "UsageExit"),
        (["ode", "wronskian", "sc3"], FAIL, "NotMUM"),
        (["eval", "lgf", "--family", "square", "--dim", "2", "--z", "0.9999"],
         LIMIT, "ResourceLimit"),
        (["coeffs", "--family", "honeycomb", "--dim", "3"], USAGE, "UnsupportedLattice"),
        (["ode", "cy-report", "sc4", "--terms", "1"], USAGE, "InsufficientTerms"),
        (["ode", "yukawa", "sc4", "--terms", "1"], USAGE, "InsufficientTerms"),
        # 5.7M cosine parity classes, about a minute of work if not refused
        (["coeffs", "--family", "diamond", "--dim", "5", "--method", "all"],
         LIMIT, "ResourceLimit"),
        # sc d = 6 to 798 steps walks to power 399: billions of CT classes
        (["coeffs", "--family", "sc", "--dim", "6", "--method", "ct", "--terms", "400"],
         LIMIT, "ResourceLimit"),
        # bcc d = 2 to 10^4 steps: 3.1 10^6 classes, under the class budget,
        # but 6.3 10^10 units of walk work, some hours if not refused
        (["coeffs", "--family", "bcc", "--dim", "2", "--method", "ct", "--terms", "5000"],
         LIMIT, "ResourceLimit"),
        # the bcc z = 1 terms come without a table, but not without the cap
        (["eval", "lgf", "--family", "bcc", "--dim", "4", "--z", "1",
          "--terms", "10000000"], LIMIT, "ResourceLimit"),
        # the 1/pi series sum a table of --terms entries, built first: some
        # 40 s at 1200 terms, so 10^7 would never return if not refused
        (["eval", "ramanujan", "--id", "diam-64", "--terms", "10000000"],
         LIMIT, "ResourceLimit"),
        # 8 10^6 terms at 10^5 digits if the term count followed --prec
        (["eval", "lgf", "--family", "bcc", "--dim", "4", "--z", "1",
          "--prec", "100000"], LIMIT, "ResourceLimit"),
        # the series sides of the identity checks need some 10^5 terms here
        *[(["eval", "bessel", "--check", check, "--d", "3", "--z", "0.9999"],
           LIMIT, "ResourceLimit") for check in ("sc", "diamond", "abel")],
        # 1476 unknowns over 1500 rows: 3.3 10^9 units of elimination work,
        # and some 2 10^6 big-integer row entries before it starts
        (["ode", "fit", "--family", "square", "--dim", "2", "--terms", "1500",
          "--order", "40", "--degree", "35"], LIMIT, "ResourceLimit"),
        # one step per table index: the z = -1 terms alternate
        (["eval", "lgf", "--family", "fcc", "--dim", "3", "--z", "-1",
          "--tail", "corrected", "--prec", "20"], USAGE, "DomainError"),
        # a cache of another lattice than the one the command names
        (["ode", "fit", "--family", "sc", "--dim", "4", "--order", "4", "--terms", "40",
          "--series-cache", "{bcc4}"], USAGE, "UsageExit"),
        (["ode", "verify", "sc4", "--series-cache", "{bcc4}"], USAGE, "UsageExit"),
        # the z = +-1 tail is fitted on the last three terms
        (["eval", "lgf", "--family", "bcc", "--dim", "3", "--z", "1", "--terms", "2"],
         USAGE, "DomainError"),
        (["eval", "lgf", "--family", "sc", "--dim", "3", "--z", "-1", "--terms", "1"],
         USAGE, "DomainError"),
        # a fit has no operator to take a series from
        (["ode", "fit", "--terms", "20", "--order", "2"], USAGE, "UsageExit"),
        (["ode", "fit", "--dim", "3", "--terms", "20", "--order", "2"], USAGE, "UsageExit"),
        # a zero polynomial has no Mahler measure, whatever its exponents
        (["eval", "mahler", "--coeffs", '{"0,0": 0}'], USAGE, "DomainError"),
        (["eval", "mahler", "--coeffs", '{"1": 0}'], USAGE, "DomainError"),
        (["eval", "mahler", "--coeffs", '{"1,0": 0, "0,0": 0}'], USAGE, "DomainError"),
    ])
    def test_error_document(self, capsys, tmp_path, argv, code, error):
        bad = tmp_path / "bad.txt"
        bad.write_text("not an operator or a cache\n")
        bcc4 = tmp_path / "bcc-4.txt"
        write_cache(str(bcc4), "bcc", 4, list(coeffs(LatticeSpec("bcc", 4), 40).values))
        started = time.monotonic()
        got, doc = run_json(capsys, *[a.replace("{bad}", str(bad)).replace("{bcc4}", str(bcc4))
                                      for a in argv])
        if code == LIMIT:
            # a resource limit is refused before the work starts
            assert time.monotonic() - started < 2
        assert got == code
        assert doc["passed"] is False
        assert doc["error"]["type"] == error
        assert doc["error"]["message"]

    @pytest.mark.parametrize("text,message", [
        pytest.param("0 : 0\n1 : 1 1\n", "P_0 is zero", id="zero-p0"),
        pytest.param("0 : 0 0 1\n0 : 0 1\n", "l = 0 appears twice", id="repeated-l"),
    ])
    @pytest.mark.parametrize("argv", [
        pytest.param(["cy-report"], id="cy-report"),
        pytest.param(["verify", "--family", "bcc", "--dim", "2", "--terms", "10"],
                     id="verify")])
    def test_bad_operator_file(self, capsys, tmp_path, argv, text, message):
        path = tmp_path / "op.txt"
        path.write_text(text)
        got, doc = run_json(capsys, "ode", *argv, "--op-file", str(path))
        assert got == USAGE
        assert doc["passed"] is False
        assert doc["error"]["type"] == "UsageExit"
        assert message in doc["error"]["message"]

    def test_inputs_echo_every_flag(self, capsys):
        _, doc = run_json(capsys, "ode", "fit", "--family", "square", "--dim", "2",
                          "--order", "2", "--degree", "1", "--terms", "30")
        assert doc["command"] == "ode-fit"
        assert doc["inputs"] == {"family": "square", "dim": 2, "series_cache": None,
                                 "terms": 30, "order": 2, "degree": 1,
                                 "max_degree": 8, "out": None}

    def test_unlisted_exception_propagates(self, capsys, monkeypatch):
        def broken(lattice, prec):
            raise RuntimeError("bug")
        monkeypatch.setattr(analytic, "watson", broken)
        with pytest.raises(RuntimeError):
            main(["eval", "watson", "--lattice", "sc"])

    @pytest.mark.parametrize("argv,absent", [
        (["coeffs", "--family", "sc", "--dim", "3", "--terms", "5"],
         ["mpmath", "latgreen.analytic", "latgreen.ode", "latgreen.linalg"]),
        (["ode", "verify", "sc4", "--terms", "10", "--series-cache", "{cache}"],
         ["mpmath", "latgreen.analytic"]),
        (["eval", "watson", "--lattice", "sc", "--prec", "20"],
         ["latgreen.ode", "latgreen.linalg", "latgreen.ratfunc"]),
    ])
    def test_command_loads_only_its_layers(self, tmp_path, argv, absent):
        cache = tmp_path / "sc-4.txt"
        write_cache(str(cache), "sc", 4, list(coeffs(LatticeSpec("sc", 4), 10).values))
        argv = [a.replace("{cache}", str(cache)) for a in argv]
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import json, sys\n"
                "from latgreen import cli\n"
                f"code = cli.main({argv!r})\n"
                f"print(json.dumps([code, [m for m in {absent!r} if m in sys.modules]]),"
                " file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert json.loads(proc.stderr.splitlines()[-1]) == [OK, []]

    @pytest.mark.parametrize("argv,code", [
        (["coeffs", "--family", "bcc", "--dim", "3", "--terms", "3"], OK),
        (["eval", "watson", "--lattice", "sc", "--prec", "0"], USAGE),
    ])
    def test_module_entry_point(self, argv, code):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "latgreen.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == code
        doc = json.loads(proc.stdout)
        assert doc["passed"] is (code == OK)
