"""End-to-end acceptance suite: one test per shipped claim, one line each.

Run with  python3 -m pytest tests/test_acceptance.py -v -s  to see the
per-criterion lines as they happen.  All fifteen run by default;
criterion 15 builds 158 coefficients of the second 4d kernel by two
exact routes and refits its order-8 operator, about 4-5 s on 2 cores.

Every tolerance here is the shipped one.  A red line with its detail
string is the intended failure mode; do not widen the bounds.
"""

from fractions import Fraction
from math import comb

import mpmath as mp

from latgreen.analytic import (
    RAMANUJAN_IDS,
    abel_forward_check,
    bessel_connection_check,
    bessel_diamond_check,
    bessel_sc_check,
    convention_report,
    honeycomb_map_eval,
    joyce_closed_form,
    lgf_series_eval,
    quadrature,
    ramanujan_eval,
    ramanujan_general_form_check,
    watson,
)
from latgreen.cli import main as cli_main, read_cache, write_cache
from latgreen.constant_term import ct_series, kernel
from latgreen.errors import ResourceLimit
from latgreen.lattices import (
    LatticeSpec,
    coeffs,
    esym_table,
    relation_fcc_from_diamond,
    relation_sc_from_hyperdiamond,
    relation_triangular_from_honeycomb,
    structure_sums,
    triples4_table,
)
from latgreen.ode import (
    fit_minimal_degree,
    fit_ode,
    indicial,
    registry,
    symmetric_square_check,
    triple_integrality,
    wronskian_cy_check,
    wronskian_fifth_order,
    yukawa,
)
from latgreen.ratfunc import Poly, RatFunc
from latgreen.series import PowerSeries

Q = Fraction


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def _series_at(spec, z, terms=260, dps=60):
    # Horner sum of the stored table; complex z allowed
    with mp.workdps(dps):
        table = coeffs(spec, terms)
        x = (mp.mpmathify(z) / spec.coordination) ** spec.steps_per_index
        acc = mp.mpmathify(0)
        for m in range(terms, -1, -1):
            acc = acc * x + int(table[m])
        return acc


# 1. coefficient tables: closed-form generators against the constant-term
#    engine, exact integer equality

CT_CASES = [
    ("honeycomb", 2), ("square", 2), ("triangular", 2),
    ("diamond", 3), ("sc", 3), ("bcc", 3), ("fcc", 3),
    ("diamond", 4), ("sc", 4), ("bcc", 4), ("fcc", 4),
    ("sc", 5), ("bcc", 5), ("diamond", 5),
]


def test_criterion_01():
    bad = []
    for fam, d in CT_CASES:
        spec = LatticeSpec(fam, d)
        if ct_series(kernel(fam, d), 20) != list(coeffs(spec, 20).values):
            bad.append(f"{fam} d={d}")
    fcc5 = ct_series(kernel("fcc", 5), 10)
    if fcc5 != list(coeffs(LatticeSpec("fcc", 5), 10).values) or fcc5[2] != 40:
        bad.append(f"fcc d=5 head {fcc5[:3]}")
    assert _report(1, not bad,
                   "formula == constant-term, 14 tables, n <= 20; "
                   "fcc d=5 n <= 10, a_2 = 40"
                   + (f"; mismatches: {bad}" if bad else "")), bad


# 2. annihilation of self-generated series, exact

OP_SPECS = {"bcc4": ("bcc", 4), "sc4": ("sc", 4),
            "diamond4": ("diamond", 4), "fcc4": ("fcc", 4)}


def test_criterion_02():
    bad = []
    for name, (fam, d) in OP_SPECS.items():
        series = coeffs(LatticeSpec(fam, d), 40).as_series()
        if not registry(name).annihilates(series):
            bad.append(name)
    for d in range(3, 7):
        series = PowerSeries([comb(2 * n, n) ** d for n in range(41)])
        if not registry(f"iwan{d}").annihilates(series):
            bad.append(f"iwan{d}")
    assert _report(2, not bad,
                   "registry bcc4/sc4/diamond4/fcc4 and iwan d=3..6 "
                   "annihilate their tables through n = 40"
                   + (f"; failing: {bad}" if bad else "")), bad


# 3. operator recovery by exact fitting

def test_criterion_03():
    bad = []
    shapes = [("bcc4", 1, 40), ("sc4", 2, 40), ("diamond4", 3, 40),
              ("fcc4", 7, 50)]
    for name, k, n in shapes:
        fam, d = OP_SPECS[name]
        op = fit_ode(coeffs(LatticeSpec(fam, d), n).as_series(), 4, k)
        if op is None or op != registry(name):
            bad.append(f"{name} r4k{k}")
    sc5 = fit_ode(coeffs(LatticeSpec("sc", 5), 35).as_series(), 5, 3)
    if sc5 is None or sc5.order != 5 or sc5.degree != 3:
        bad.append("sc5 r5k3")
    assert _report(3, not bad,
                   "fits recover bcc4 (r4k1), sc4 (r4k2), diamond4 (r4k3), "
                   "fcc4 (r4k7); sc d=5 admits r5k3"
                   + (f"; failing: {bad}" if bad else "")), bad


# 4. Yukawa couplings and instanton numbers

def test_criterion_04():
    bad = []
    sc = yukawa(registry("sc4"), 30, depth=6)
    if list(sc.K_coeffs[:5]) != [1, 4, 164, 5800, 196772]:
        bad.append(f"sc4 K head {sc.K_coeffs[:5]}")
    if [3 * n for n in sc.instantons] != [12, 60, 644, 9216, 157536, 3083604] \
            or sc.s != 3:
        bad.append("sc4 3N_k")
    fcc = yukawa(registry("fcc4"), 30, depth=6)
    if list(fcc.instantons) != [3, -4, 64, -253, 4292, -25608] or fcc.s != 1:
        bad.append(f"fcc4 N_k {fcc.instantons}")
    dia = yukawa(registry("diamond4"), 30, depth=10)
    # the claimed divisor is k^2 of the Lambert-series numbers k^3 N_k,
    # i.e. k N_k must be an integer for every k
    for k, nk in enumerate(dia.instantons, start=1):
        if (k * nk).denominator != 1:
            bad.append(f"diamond4 k N_k at k={k}: {k * nk}")
    assert _report(4, not bad,
                   "sc4 K(q) and 3N_k match; fcc4 N_k match; diamond4 "
                   "k^3 N_k divisible by k^2 for k <= 10"
                   + (f"; failing: {bad}" if bad else "")), bad


# 5. Calabi-Yau property suite

def test_criterion_05():
    bad = []
    for name in OP_SPECS:
        rep = wronskian_cy_check(registry(name), 25)
        if not rep.passed:
            bad.append(f"w03 != w12 for {name}")
    ind = indicial(registry("bcc4"))
    if not ind.condition_three or set(ind.exponents_infinity) != {Q(1, 2)}:
        bad.append(f"bcc4 infinity exponents {ind.exponents_infinity}")
    assert _report(5, not bad,
                   "w03 - w12 == 0 through order 25 for all four operators; "
                   "bcc4 exponents at infinity all 1/2 "
                   "(triples4 non-MUM is criterion 15)"
                   + (f"; failing: {bad}" if bad else "")), bad


# 6. symmetric squares and the fifth-order Wronskian chain

def test_criterion_06():
    bad = []
    p, q, rep = symmetric_square_check(registry("sc3"))
    x = Poly.x()
    expected_p = (RatFunc(Poly.const(1), x)
                  + RatFunc(Poly.const(1), 2 * (x - Poly.const(Q(1, 36))))
                  + RatFunc(Poly.const(1), 2 * (x - Poly.const(Q(1, 4)))))
    u = 36 * x
    expected_q = RatFunc(3 * (u - Poly.const(4)),
                         16 * u * (u - Poly.const(1)) * (u - Poly.const(9))) * (36 * 36)
    if not rep.passed or p != expected_p or q != expected_q:
        bad.append("sc3 symmetric square")
    builders = [
        ("diamond3", lambda: PowerSeries(structure_sums(4, 40)), 6),
        ("bcc3", lambda: PowerSeries([comb(2 * n, n) ** 3 for n in range(41)]), 6),
        ("fcc3", lambda: coeffs(LatticeSpec("fcc", 3), 40).as_series(), 8),
    ]
    for label, builder, max_degree in builders:
        op3 = fit_minimal_degree(builder(), 3, max_degree)
        _, _, r3 = symmetric_square_check(op3)
        if not r3.passed:
            bad.append(f"{label} symmetric square")
    fifth = wronskian_fifth_order(registry("bcc4"), 30)
    if not fifth.passed:
        bad.append("; ".join(c.name for c in fifth.conditions if not c.passed))
    assert _report(6, not bad,
                   "sc3 symmetric square with the transported Q recovered "
                   "exactly; fitted diamond3/bcc3/fcc3 pass; fifth-order "
                   "chain on bcc4 recovers y0 through order 30"
                   + (f"; failing: {bad}" if bad else "")), bad


# 7. Watson integrals

WATSON_PRINTED = {"sc": "1.516386", "bcc": "1.3932039",
                  "diamond": "1.79288", "fcc": "1.344661"}


def _sc_laplace_value():
    # P_sc(1) = int_0^inf e^-t I0(t/3)^3 dt.  Head on [0, 400] by
    # quadrature; tail from I0(x) ~ e^x/sqrt(2 pi x) (1 + 1/8x + 9/128x^2),
    # cubed at x = t/3, integrated termwise
    with mp.workdps(40):
        head, _ = quadrature(
            lambda t: mp.exp(-t) * mp.besseli(0, t / 3) ** 3, (0, 400), prec=18)
        c = (3 / (2 * mp.pi)) ** mp.mpf("1.5")
        T = mp.mpf(400)
        tail = c * (2 / mp.sqrt(T)
                    + mp.mpf(3) / 4 / T ** mp.mpf("1.5")
                    + mp.mpf(297) / 320 / T ** mp.mpf("2.5"))
        return head + tail


def test_criterion_07():
    bad = []
    with mp.workdps(60):
        for name, printed in WATSON_PRINTED.items():
            got = mp.nstr(watson(name, 50), len(printed) - 1)
            if got != printed:
                bad.append(f"{name}: {got} != {printed}")
        ratio_gap = abs(watson("diamond", 45) - Q(4, 3) * watson("fcc", 45))
        if not ratio_gap < mp.mpf("1e-38"):
            bad.append(f"diamond != (4/3) fcc, gap {mp.nstr(ratio_gap, 3)}")
        lap_gap = abs(_sc_laplace_value() - watson("sc", 30))
        if not lap_gap < mp.mpf("1e-5"):
            bad.append(f"Laplace cross-check gap {mp.nstr(lap_gap, 3)}")
    assert _report(7, not bad,
                   "four printed decimals reproduced; diamond = (4/3) fcc "
                   "in closed form; sc Bessel quadrature agrees to 1e-5"
                   + (f"; failing: {bad}" if bad else "")), bad


# 8. bcc d=4 at z = 1, tail-corrected

BCC4_AT_ONE = "1.1186363871641870683496192575256409167948575515294"


def test_criterion_08():
    res = lgf_series_eval(LatticeSpec("bcc", 4), 1, prec=25,
                          tail="power-law-corrected")
    with mp.workdps(60):
        ref = mp.mpf(BCC4_AT_ONE)
        diff = abs(res.value - ref)
        digits_ok = mp.nstr(res.value, 11) == mp.nstr(ref, 11)
        within = diff < res.error
        ok = digits_ok and within
        detail = (f"matches printed value to >= 10 digits "
                  f"(diff {mp.nstr(diff, 3)}, reported bound "
                  f"{mp.nstr(res.error, 3)})")
    assert _report(8, ok, detail), (diff, res.error)


# 9. Ramanujan 1/pi series, exact surd partial sums

def test_criterion_09():
    bad = []
    for sid in RAMANUJAN_IDS:
        partial, target, err = ramanujan_eval(sid, 200, prec=60)
        if not err < mp.mpf("1e-15"):
            bad.append(f"{sid}: {mp.nstr(err, 3)}")
    rep = ramanujan_general_form_check(64)
    if not rep.passed:
        bad.append("general form instance")
    assert _report(9, not bad,
                   "all six series within 1e-15 of their pi targets at 200 "
                   "terms; alpha P + beta theta P - 1/pi instance passes"
                   + (f"; failing: {bad}" if bad else "")), bad


# 10. closed forms and maps against raw series

FORM_TO_SPEC = {
    "honeycomb": ("honeycomb", 2),
    "square": ("square", 2),
    "triangular": ("triangular", 2),
    "sc3": ("sc", 3),
    "bcc3": ("bcc", 3),
    "fcc3": ("fcc", 3),
    "diamond3": ("diamond", 3),
    "diamond-algebraic-2F1": ("diamond", 3),
    "rogers-diamond": ("diamond", 3),
    "rogers-fcc": ("fcc", 3),
}


def test_criterion_10():
    bad = []
    with mp.workdps(50):
        for fid, (fam, d) in FORM_TO_SPEC.items():
            spec = LatticeSpec(fam, d)
            for z in ("0.15", "0.3"):
                gap = abs(joyce_closed_form(fid, z, 40) - _series_at(spec, mp.mpf(z)))
                if not gap < mp.mpf("1e-12"):
                    bad.append(f"{fid} at {z}: {mp.nstr(gap, 3)}")
        for target in ("fcc", "sc", "bcc", "diamond"):
            for xi in ("0.05", "0.1"):
                z, v = honeycomb_map_eval(target, xi, 40)
                gap = abs(v - _series_at(LatticeSpec(target, 3), z, terms=300))
                if not gap < mp.mpf("1e-10"):
                    bad.append(f"map {target} at xi={xi}: {mp.nstr(gap, 3)}")
        for z in ("0.15", "0.3"):
            gap = abs(joyce_closed_form("fourd-sc-double-elliptic", z, 30)
                      - _series_at(LatticeSpec("sc", 4), mp.mpf(z)))
            if not gap < mp.mpf("1e-10"):
                bad.append(f"4d double elliptic at {z}: {mp.nstr(gap, 3)}")
    conventions = convention_report(30)
    if not all(r.passed and "modulus" in r.detail for r in conventions):
        bad.append("convention resolution")
    assert _report(10, not bad,
                   "10 closed forms, 4 maps and the 4d double-elliptic form "
                   "match their series at two arguments; printed elliptic "
                   "arguments all resolve to the modulus"
                   + (f"; failing: {bad}" if bad else "")), bad


# 11. cross-family relations, exact

def test_criterion_11():
    bad = []
    if not relation_triangular_from_honeycomb(30).passed:
        bad.append("triangular from honeycomb")
    if not relation_fcc_from_diamond(30).passed:
        bad.append("fcc from diamond")
    for d in range(2, 6):
        if not relation_sc_from_hyperdiamond(d, 20).passed:
            bad.append(f"sc from hyperdiamond d={d}")
    sincos = coeffs(LatticeSpec("sincos4", 4), 10)
    sc4 = coeffs(LatticeSpec("sc", 4), 10)
    if list(sincos.values) != list(sc4.values):
        bad.append("sincos4 != sc4")
    assert _report(11, not bad,
                   "triangular/honeycomb (n <= 30), fcc/diamond (n <= 30), "
                   "hypercubic/hyperdiamond d=2..5 (n <= 20), sin/cos kernel "
                   "== 4d cubic (n <= 10), all exact"
                   + (f"; failing: {bad}" if bad else "")), bad


# 12. Bessel and Abel identities

def test_criterion_12():
    bad = []
    checks = [
        ("sc d=3", bessel_sc_check(3, "0.4", prec=12)),
        ("diamond d=3", bessel_diamond_check(3, "0.1", prec=12)),
        ("connection d=3", bessel_connection_check(3, "0.4", prec=10)),
    ]
    for label, chk in checks:
        gap = abs(chk.lhs - chk.rhs)
        if not (bool(chk) and gap < mp.mpf("1e-8")):
            bad.append(f"{label}: {mp.nstr(gap, 3)}")
    for d in (3, 4):
        reps = abel_forward_check(d, "0.3", prec=14)
        if not reps[0].passed:
            bad.append(f"half-circle moments d={d}")
        if not reps[1].passed:
            bad.append(f"Abel integral d={d}")
    assert _report(12, not bad,
                   "Bessel sc/diamond/connection identities within 1e-8; "
                   "Abel forward identity for d=3,4 with the half-circle "
                   "moments exact through n = 20"
                   + (f"; failing: {bad}" if bad else "")), bad


# 13. second/third order operators with integral structure

def test_criterion_13():
    bad = []
    for name, a1 in (("apery-zeta2", 3), ("apery-zeta3", 5)):
        op = registry(name)
        if op.series_solution(5)[1] != a1:
            bad.append(f"{name} a_1")
        reps = triple_integrality(op)
        if len(reps) != 2 or not all(r.passed for r in reps):
            bad.append(f"{name} integrality")
    assert _report(13, not bad,
                   "both triple operators: a_1 = 3 and 5, y0 integral to "
                   "n = 50, q-expansion integral to n = 30"
                   + (f"; failing: {bad}" if bad else "")), bad


# 14. CLI and persistence contract, driven in-process

def _stable(doc: dict) -> dict:
    out = dict(doc)
    out.pop("timing_ms", None)
    return out


def test_criterion_14(tmp_path, capsys):
    import json
    bad = []

    def run(*argv):
        code = cli_main(list(argv))
        return code, capsys.readouterr().out

    cache_dir = tmp_path / "cache"
    code1, out1 = run("coeffs", "--family", "sc", "--dim", "3",
                      "--terms", "6", "--cache-dir", str(cache_dir))
    code2, out2 = run("coeffs", "--family", "sc", "--dim", "3",
                      "--terms", "6", "--cache-dir", str(cache_dir))
    if code1 != 0 or code2 != 0:
        bad.append("coeffs exit code")
    if _stable(json.loads(out1)) != _stable(json.loads(out2)):
        bad.append("reports not deterministic across cache miss/hit")
    path = cache_dir / "sc-3.txt"
    before = path.read_bytes()
    fam, dim, values = read_cache(path)
    write_cache(path, fam, dim, values)
    if path.read_bytes() != before or (fam, dim) != ("sc", 3):
        bad.append("cache round-trip not bit-exact")
    # inject a wrong value; the all-routes check must catch it and exit 2
    lines = path.read_text().splitlines()
    lines[3] = "999999"
    path.write_text("\n".join(lines) + "\n")
    code3, out3 = run("coeffs", "--family", "sc", "--dim", "3", "--terms", "4",
                      "--method", "all", "--cache-dir", str(cache_dir))
    doc3 = json.loads(out3)
    if code3 != 2 or doc3["checks"]["cache-vs-formula"] is not False:
        bad.append(f"corrupted cache exit {code3}")
    code4, _ = run("eval", "lgf", "--family", "square", "--dim", "2",
                   "--z", "0.9999", "--prec", "30")
    if code4 != 3:
        bad.append(f"resource-limit exit {code4}")
    code5, _ = run("coeffs", "--family", "nosuch", "--dim", "3", "--terms", "4")
    if code5 != 4:
        bad.append(f"usage exit {code5}")
    assert _report(14, not bad,
                   "cache bit-exact, reports deterministic, exit codes "
                   "0/2/3/4 honored, corrupted cache detected by "
                   "--method all"
                   + (f"; failing: {bad}" if bad else "")), bad


# 15. order-8 refit of the second 4d kernel from 158 coefficients, each
#     built by two independent exact routes

def test_criterion_15():
    bad = []
    table = triples4_table(157)
    raw = esym_table(3, 4, 314)
    if raw[::2] != table:
        bad.append("triples4_table disagrees with esym_table")
    if any(raw[1::2]):
        bad.append("odd step counts not all zero")
    series = PowerSeries(table)
    op = fit_ode(series, 8, 16)
    if op is None:
        bad.append("no r8k16 annihilator found")
    else:
        if (op.order, op.degree) != (8, 16):
            bad.append(f"shape ({op.order}, {op.degree})")
        ind = indicial(op)
        expected = (Q(0), Q(0), Q(0), Q(0), Q(1, 3), Q(1, 2), Q(1, 2), Q(2, 3))
        if ind.exponents_zero != expected or not ind.zero_complete:
            bad.append(f"exponents {ind.exponents_zero}")
        if ind.mum or op.is_mum():
            bad.append("operator unexpectedly MUM")
    assert _report(15, not bad,
                   "158 even-index coefficients, triples4_table == e_3 "
                   "peeling over 314 steps; order-8 "
                   "degree-16 annihilator recovered; exponents at 0 are "
                   "{0 x4, 1/3, 2/3, 1/2 x2}; not MUM"
                   + (f"; failing: {bad}" if bad else "")), bad
