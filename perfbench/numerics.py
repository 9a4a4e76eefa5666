"""Workload ``numerics``: values evaluated with mpmath at a stated precision.

One-shot evaluations (Watson constants at 30 and 1000 digits, closed forms
and honeycomb maps, series sums at |z| < 1 and at z = 1, Ramanujan partial
sums, Mahler measures) are kept apart from the identity checks, whose
quadratures dominate, nested ones above all.  The seed moves the
evaluation points of the closed forms, maps and series sums inside fixed
bands; the series sums get a fixed term count, so the work does not move.
The identity checks keep fixed points, because their quadrature node
counts, and so the per-layer counts, follow the point.

Every value at a finite precision must lie within 10^(2-prec), relative,
of a reference computed here with mpmath by another formula.  A value at
z = 1 must lie within its own reported error of mp.hyper.
"""

from __future__ import annotations

from fractions import Fraction as F

import mpmath as mp

import refs

PHASES = {"eval": "eval_s", "identity": "identity_s"}

CLOSED = {"honeycomb": ("honeycomb", 2), "square": ("square", 2),
          "triangular": ("triangular", 2), "sc3": ("sc", 3), "bcc3": ("bcc", 3),
          "fcc3": ("fcc", 3), "diamond3": ("diamond", 3),
          "diamond-algebraic-2F1": ("diamond", 3), "rogers-diamond": ("diamond", 3),
          "rogers-fcc": ("fcc", 3)}
MAPS = ("fcc", "sc", "bcc", "diamond")
SERIES = [("sc", 3), ("bcc", 3), ("diamond", 3), ("fcc", 3), ("sc", 4), ("diamond", 4)]
SERIES_Z_MAX = 0.6

# Ramanujan-type series sum_n (A n + B) x0^n a_n = target, with
# x = (a, b) standing for a + b sqrt(3); the coefficient families a_n and
# their growth rates are those of the lattice walks named in the id.
RAMANUJAN = {
    "diam-32": ("S4", (3, 0), (1, 0), (F(-1, 32), 0), (2, 0)),
    "diam-64": ("S4", (5, 0), (1, 0), (F(1, 64), 0), (0, F(8, 3))),
    "diam-sqrt3": ("S4", (6, 0), (3, -1), (F(-5, 4), F(3, 4)), (9, 5)),
    "sc-484": ("sc3", (520, 0), (159, -48), (F(-139, 484), F(20, 121)), (128, 58)),
    "bcc-256": ("bcc3", (6, 0), (1, 0), (F(1, 256), 0), (4, 0)),
    "bcc-4096": ("bcc3", (42, 0), (5, 0), (F(1, 4096), 0), (16, 0)),
}
GROWTH = {"S4": 16, "sc3": 36, "bcc3": 64}   # a_n ~ growth^n, up to powers of n
RAMANUJAN_TERMS = 100

MAHLER = {
    "1+x+y": ({(0, 0): 1, (1, 0): 1, (0, 1): 1}, 20),
    "x^2-3x+1": ({(2,): 1, (1,): -3, (0,): 1}, 30),
}


def series_value(table, family: str, d: int, z, dps: int):
    """sum_n a_n (z/q)^(s n) by Horner's rule at dps digits; z may be complex."""
    with mp.workdps(dps):
        x = (mp.mpmathify(z) / refs.coordination(family, d)) ** refs.steps_per_index(family)
        acc = mp.mpf(0)
        for a in reversed(table):
            acc = acc * x + a
        return acc


def terms_needed(z: float, family: str, digits: int) -> int:
    """Table length after which the terms of P(z) drop below 10^-digits:
    a_n/q^(s n) grows at most polynomially, so |z|^(s n) sets the rate."""
    rate = -refs.steps_per_index(family) * mp.log10(abs(mp.mpf(z)))
    return int(digits / rate) + 40


def watson(name: str, dps: int):
    """P(0;1) of the 3d lattices, by formulas latgreen does not use.

    sc: Glasser-Zucker, sqrt(6)/(32 pi^3) G(1/24)G(5/24)G(7/24)G(11/24),
    or above 200 digits Watson's singular-value form
    (12/pi^2)(18+12sqrt2-10sqrt3-7sqrt6) K(k6)^2 with k6=(2-sqrt3)(sqrt3-sqrt2).
    bcc: (2/pi)^2 K(1/2)^2 in the parameter convention.
    fcc: 3 sqrt3 K(k3)^2/pi^2 with k3^2 = (2-sqrt3)/4; diamond is 4/3 of it.
    """
    with mp.workdps(dps):
        pi = mp.pi
        if name == "sc":
            if dps <= 200:
                g = mp.gamma
                return (mp.sqrt(6) / (32 * pi ** 3) * g(mp.mpf(1) / 24) * g(mp.mpf(5) / 24)
                        * g(mp.mpf(7) / 24) * g(mp.mpf(11) / 24))
            k6 = (2 - mp.sqrt(3)) * (mp.sqrt(3) - mp.sqrt(2))
            c = 18 + 12 * mp.sqrt(2) - 10 * mp.sqrt(3) - 7 * mp.sqrt(6)
            return 12 / pi ** 2 * c * mp.ellipk(k6 ** 2) ** 2
        if name == "bcc":
            return (2 / pi * mp.ellipk(mp.mpf(1) / 2)) ** 2
        fcc = 3 * mp.sqrt(3) / pi ** 2 * mp.ellipk((2 - mp.sqrt(3)) / 4) ** 2
        return fcc if name == "fcc" else fcc * 4 / 3


def _point(rng, lo: int, hi: int) -> str:
    return f"0.{rng.randrange(lo, hi + 1):03d}"


def jobs(rng) -> list[dict]:
    out = [{"kind": "watson", "name": n, "prec": p} for p in (30, 1000)
           for n in ("sc", "bcc", "fcc", "diamond")]
    out += [{"kind": "closed", "form": f, "z": _point(rng, 150, 350), "prec": 30}
            for f in CLOSED]
    out += [{"kind": "map", "target": t, "xi": _point(rng, 50, 100), "prec": 30} for t in MAPS]
    out += [{"kind": "series", "family": f, "d": d, "z": _point(rng, 400, 600), "prec": 30,
             "terms": terms_needed(SERIES_Z_MAX, f, 34) - 40} for f, d in SERIES]
    out += [{"kind": "at_one", "d": d, "prec": 25} for d in (4, 5)]
    out += [{"kind": "ramanujan", "sid": s, "terms": RAMANUJAN_TERMS, "prec": 30}
            for s in RAMANUJAN]
    out += [{"kind": "mahler", "poly": p, "prec": MAHLER[p][1]} for p in MAHLER]
    for j in out:
        j["phase"] = "eval"
    out += [{"kind": "bessel_sc", "d": 3, "z": "0.4", "prec": 12, "phase": "identity"},
            {"kind": "bessel_diamond", "d": 3, "z": "0.1", "prec": 12, "phase": "identity"},
            {"kind": "connection", "d": 3, "z": "0.4", "prec": 5, "phase": "identity"},
            {"kind": "abel", "d": 3, "z": "0.3", "prec": 14, "phase": "identity"}]
    for j in out:
        tag = "/".join(str(j[k]) for k in ("kind", "name", "form", "target", "family", "d",
                                            "sid", "poly", "prec") if k in j)
        j["id"] = tag
    rng.shuffle(out)
    return out


def _own_table(family: str, d: int, z, digits: int):
    return refs.closed_table(family, d, terms_needed(abs(mp.mpf(z)), family, digits))


def _ramanujan_reference(sid: str, terms: int, dps: int):
    """(partial sum, target, truncation bound) from the benchmark's own terms."""
    fam, A, B, x0, target = RAMANUJAN[sid]
    table = {"S4": lambda n: refs.structure_sums(4, n),
             "sc3": lambda n: refs.closed_table("sc", 3, n),
             "bcc3": lambda n: refs.closed_table("bcc", 3, n)}[fam](terms)
    with mp.workdps(dps):
        r3 = mp.sqrt(3)

        def surd(u, v):
            return mp.mpf(u.numerator) / u.denominator + mp.mpf(v.numerator) / v.denominator * r3

        a, b, x = (surd(F(u), F(v)) for u, v in (A, B, x0))
        t = [(a * n + b) * x ** n * table[n] for n in range(terms + 1)]
        rho = abs(x) * GROWTH[fam]
        bound = 10 * abs(t[terms]) / (1 - rho)
        return mp.fsum(t[:terms]), surd(F(target[0]), F(target[1])) / mp.pi, bound


def references(jobs: list[dict]) -> dict:
    out = {}
    for j in jobs:
        kind, dps = j["kind"], j["prec"] + 20
        if kind == "watson":
            out[j["id"]] = watson(j["name"], dps)
        elif kind == "closed":
            f, d = CLOSED[j["form"]]
            out[j["id"]] = series_value(_own_table(f, d, j["z"], dps), f, d, j["z"], dps)
        elif kind == "map":
            # the maps send xi <= 1/10 to |z| < 0.6 (sc reaches 0.57)
            out[j["id"]] = _own_table(j["target"], 3, "0.6", dps)
        elif kind == "series":
            f, d = j["family"], j["d"]
            out[j["id"]] = series_value(_own_table(f, d, j["z"], dps), f, d, j["z"], dps)
        elif kind == "at_one":
            with mp.workdps(dps):
                out[j["id"]] = mp.hyper([mp.mpf(1) / 2] * j["d"], [1] * (j["d"] - 1), 1)
        elif kind == "ramanujan":
            out[j["id"]] = _ramanujan_reference(j["sid"], j["terms"], dps)
        elif kind == "mahler":
            with mp.workdps(dps):
                if j["poly"] == "1+x+y":
                    ref = mp.sqrt(3) * (mp.psi(1, mp.mpf(1) / 3) - mp.psi(1, mp.mpf(2) / 3)) / (12 * mp.pi)
                else:
                    ref = mp.log((3 + mp.sqrt(5)) / 2)
            out[j["id"]] = ref
        elif kind in ("bessel_sc", "connection"):
            out[j["id"]] = series_value(_own_table("sc", 3, j["z"], dps), "sc", 3, j["z"], dps)
        elif kind == "bessel_diamond":
            out[j["id"]] = series_value(_own_table("diamond", 3, j["z"], dps),
                                             "diamond", 3, j["z"], dps)
    return out


def prepare(request: dict) -> dict:
    from latgreen import analytic
    from latgreen.lattices import LatticeSpec

    return {"A": analytic, "LatticeSpec": LatticeSpec}


def run(ctx: dict, job: dict):
    A, spec = ctx["A"], ctx["LatticeSpec"]
    kind, prec = job["kind"], job["prec"]
    if kind == "watson":
        return A.watson(job["name"], prec)
    if kind == "closed":
        return A.joyce_closed_form(job["form"], job["z"], prec)
    if kind == "map":
        return A.honeycomb_map_eval(job["target"], job["xi"], prec)
    if kind == "series":
        return A.lgf_series_eval(spec(job["family"], job["d"]), job["z"], prec,
                                 terms=job["terms"])
    if kind == "at_one":
        return A.lgf_series_eval(spec("bcc", job["d"]), 1, prec, tail="power-law-corrected")
    if kind == "ramanujan":
        return A.ramanujan_eval(job["sid"], job["terms"], prec)
    if kind == "mahler":
        return A.log_mahler_measure(MAHLER[job["poly"]][0], prec)
    if kind == "bessel_sc":
        return A.bessel_sc_check(job["d"], job["z"], prec)
    if kind == "bessel_diamond":
        return A.bessel_diamond_check(job["d"], job["z"], prec)
    if kind == "connection":
        return A.bessel_connection_check(job["d"], job["z"], prec)
    return A.abel_forward_check(job["d"], job["z"], prec)


def _s(v, prec: int) -> str:
    return mp.nstr(v, prec + 8)


def encode(ctx: dict, job: dict, r):
    kind, prec = job["kind"], job["prec"]
    if kind in ("watson", "closed"):
        return {"value": _s(r, prec)}
    if kind == "map":
        z, v = r
        return {"z": [_s(mp.re(z), prec), _s(mp.im(z), prec)], "value": _s(v, prec)}
    if kind == "series":
        return {"value": _s(r.value, prec)}
    if kind == "at_one":
        return {"value": _s(r.value, prec), "error": _s(r.error, 5)}
    if kind == "ramanujan":
        return {"value": _s(r[0], prec), "target": _s(r[1], prec)}
    if kind == "mahler":
        return {"value": _s(r[0], prec)}
    if kind == "abel":
        return {"passed": [c.passed for c in r]}
    return {"lhs": _s(r.lhs, prec), "rhs": _s(r.rhs, prec), "passed": bool(r)}


def close(value: str, ref, prec: int) -> bool:
    """Within 10^(2-prec), relative, of the reference."""
    with mp.workdps(prec + 20):
        ref = mp.mpmathify(ref)
        return abs(mp.mpf(value) - ref) <= mp.mpf(10) ** (2 - prec) * abs(ref)


def check(job: dict, out: dict, refs_: dict, outs: dict) -> str | None:
    kind, prec = job["kind"], job["prec"]
    ref = refs_.get(job["id"])
    if kind in ("watson", "closed", "series", "mahler"):
        return None if close(out["value"], ref, prec) else f"{out['value']} is off by more than 10^({2 - prec})"
    if kind == "map":
        f = job["target"]
        with mp.workdps(prec + 20):
            z = mp.mpc(*out["z"])
            want = series_value(ref, f, 3, z, prec + 20)
            if abs(mp.im(want)) > mp.mpf(10) ** (-prec - 10):
                return "series value at the mapped point is not real"
            return None if close(out["value"], mp.re(want), prec) else "map value differs from the series"
    if kind == "at_one":
        with mp.workdps(prec + 20):
            gap = abs(mp.mpf(out["value"]) - ref)
            ok = gap <= mp.mpf(out["error"])
        return None if ok else f"|value - hyper| = {mp.nstr(gap, 3)} exceeds the reported error"
    if kind == "ramanujan":
        partial, target, trunc = ref
        with mp.workdps(prec + 20):
            if not close(out["target"], target, prec):
                return "target differs from the paper's constant"
            if not close(out["value"], partial, prec):
                return "partial sum differs from the benchmark's own sum"
            gap = abs(mp.mpf(out["value"]) - target)
            if gap > max(mp.mpf(10) ** (2 - prec) * abs(target), trunc):
                return f"partial sum misses the target by {mp.nstr(gap, 3)}"
        return None
    if kind == "abel":
        return None if all(out["passed"]) else f"conditions {out['passed']}"
    if not out["passed"]:
        return "the identity check reported failure"
    for side in ("lhs", "rhs"):
        if not close(out[side], ref, prec):
            return f"{side} differs from the series"
    return None


def corrupt(kind: str, jobs: list[dict], outs: dict) -> str | None:
    """Change digit prec-2 of the first single value: the last digit that
    the 10^(2-prec) accuracy contract covers."""
    for j in jobs:
        op = outs.get(j["id"])
        if j["kind"] in ("watson", "closed", "series", "mahler") and op and op["out"]:
            op["out"]["value"] = bump_digit(op["out"]["value"], j["prec"] - 2)
            return j["id"]
    return None


def bump_digit(text: str, k: int) -> str:
    """Add 5 (mod 10) to the k-th significant digit of a decimal string."""
    seen = 0
    chars = list(text)
    for i, c in enumerate(chars):
        if c.isdigit() and (seen or c != "0"):
            seen += 1
            if seen == k:
                chars[i] = str((int(c) + 5) % 10)
                return "".join(chars)
    raise ValueError(f"{text} has fewer than {k} significant digits")
