"""Workload ``operators``: minimal theta operators fitted from closed-form
tables, then the structure reports built from the fitted operators.

A fit job takes the closed-form table with 20 terms more than the fit
sees, fits with ``ode.fit_minimal_degree`` and lets the operator verify
itself on the whole table with ``annihilates``.  The shapes span both
nullspace paths: up to 48 unknowns the Fraction elimination, above it the
modular one (sc d=9 and d=10 reach 60 and 66).  Report jobs run after all
fits, in seeded order.
"""

from __future__ import annotations

from fractions import Fraction

import refs

PHASES = {"fit": "fit_s", "report": "report_s"}
HELD_OUT = 20
GUARD = 5   # fit_ode's default number of confirmatory rows

# (family, d, order r, minimal degree k)
FITS = ([("sc", d, d, (d + 1) // 2) for d in range(3, 11)]
        + [("diamond", 3, 3, 2), ("diamond", 4, 4, 3), ("diamond", 5, 5, 3),
           ("diamond", 6, 6, 4), ("diamond", 7, 7, 4)]
        + [("fcc", 3, 3, 3), ("fcc", 4, 4, 7), ("bcc", 4, 4, 1)])
FOURD = ("bcc4", "sc4", "diamond4", "fcc4")

# sc4: K(q) head and 3 N_k; fcc4: N_k.  Values as printed in the paper.
SC4_K = [1, 4, 164, 5800, 196772]
SC4_3N = [12, 60, 644, 9216, 157536, 3083604]
FCC4_N = [3, -4, 64, -253, 4292, -25608]

REPORTS = ([{"kind": "frobenius", "op": name} for name in FOURD]
           + [{"kind": "cy", "op": name} for name in FOURD]
           + [{"kind": "yukawa", "op": "sc4", "depth": 6},
              {"kind": "yukawa", "op": "fcc4", "depth": 6},
              {"kind": "yukawa", "op": "diamond4", "depth": 10},
              {"kind": "fifth", "op": "bcc4"}]
           + [{"kind": "symsq", "op": name} for name in ("sc3", "diamond3", "fcc3")])


def jobs(rng) -> list[dict]:
    fits = [{"id": f"fit/{f}{d}", "phase": "fit", "family": f, "d": d, "r": r, "k": k,
             "n_fit": (r + 1) * (k + 1) + GUARD} for f, d, r, k in FITS]
    reports = [dict(rep, id=f"{rep['kind']}/{rep['op']}", phase="report") for rep in REPORTS]
    rng.shuffle(fits)
    rng.shuffle(reports)
    return fits + reports


def references(jobs: list[dict]) -> dict:
    """Whole tables by the benchmark's own formulas (fcc4 has none) and the
    paper's 4d operators."""
    out = {"paper": {name: refs.paper_operator(name) for name in FOURD}, "tables": {}}
    for j in jobs:
        if j["phase"] == "fit":
            out["tables"][j["id"]] = refs.closed_table(j["family"], j["d"],
                                                       j["n_fit"] + HELD_OUT - 1)
    return out


def prepare(request: dict) -> dict:
    from latgreen import lattices, ode
    from latgreen.series import PowerSeries

    return {"lattices": lattices, "ode": ode, "PowerSeries": PowerSeries, "ops": {}}


def run(ctx: dict, job: dict):
    lattices, ode, PowerSeries = ctx["lattices"], ctx["ode"], ctx["PowerSeries"]
    if job["phase"] == "fit":
        spec = lattices.LatticeSpec(job["family"], job["d"])
        table = lattices.coeffs(spec, job["n_fit"] + HELD_OUT - 1).values
        op = ode.fit_minimal_degree(PowerSeries(table[: job["n_fit"]]), job["r"], job["k"] + 2)
        verified = op.annihilates(PowerSeries(table))
        ctx["ops"][f"{job['family']}{job['d']}"] = op
        return op, table, verified
    op = ctx["ops"][job["op"]]
    kind = job["kind"]
    if kind == "frobenius":
        return ode.frobenius(op, 30)
    if kind == "cy":
        return ode.cy_conditions_report(op, 25)
    if kind == "yukawa":
        return ode.yukawa(op, 30, depth=job["depth"])
    if kind == "fifth":
        return ode.wronskian_fifth_order(op, 30)
    return ode.symmetric_square_check(op)


def _q(x) -> str:
    return str(Fraction(x))


def encode(ctx: dict, job: dict, result):
    if job["phase"] == "fit":
        op, table, verified = result
        return {"op": [[_q(c) for c in row] for row in op.p], "table": [int(v) for v in table],
                "verified": bool(verified)}
    kind = job["kind"]
    if kind == "frobenius":
        return {"size": len(result.solutions),
                "y0": [_q(c) for c in result.log_free_parts()[0].coeffs]}
    if kind == "cy":
        return {"passed": [c.passed for c in result]}
    if kind == "yukawa":
        return {"K": [_q(c) for c in result.K_coeffs], "N": [_q(c) for c in result.instantons],
                "s": result.s}
    if kind == "fifth":
        return {"passed": [c.passed for c in result.conditions]}
    p, q, rep = result
    return {"passed": rep.passed,
            "P": [[_q(c) for c in p.num.coeffs], [_q(c) for c in p.den.coeffs]],
            "Q": [[_q(c) for c in q.num.coeffs], [_q(c) for c in q.den.coeffs]]}


def _ratfunc_at(parts, x: Fraction) -> Fraction:
    num, den = ([Fraction(c) for c in cs] for cs in parts)
    return sum(c * x ** i for i, c in enumerate(num)) / sum(c * x ** i for i, c in enumerate(den))


def _sc3_symsq(x: Fraction) -> tuple[Fraction, Fraction]:
    """P and Q of the second-order operator whose symmetric square is the
    sc3 operator, in the even-series variable x (criterion 6 of the paper's
    claims): P = 1/x + 1/(2(x - 1/36)) + 1/(2(x - 1/4)),
    Q = 36^2 * 3 (36x - 4) / (16 * 36x (36x - 1)(36x - 9))."""
    u = 36 * x
    p = 1 / x + 1 / (2 * (x - Fraction(1, 36))) + 1 / (2 * (x - Fraction(1, 4)))
    q = 36 * 36 * 3 * (u - 4) / (16 * u * (u - 1) * (u - 9))
    return p, q


def check(job: dict, out: dict, refs_: dict, outs: dict) -> str | None:
    if job["phase"] == "fit":
        return _check_fit(job, out, refs_)
    kind, name = job["kind"], job["op"]
    if kind == "frobenius":
        fit = outs.get(f"fit/{name}")
        if not fit:
            return "no fitted table"
        y0 = [Fraction(c) for c in out["y0"]]
        if out["size"] != 4 or y0 != fit["table"][: len(y0)]:
            return "y0 of the Frobenius basis is not the table"
        return None
    if kind in ("cy", "fifth"):
        return None if out["passed"] and all(out["passed"]) else f"conditions {out['passed']}"
    if kind == "yukawa":
        K = [Fraction(c) for c in out["K"]]
        N = [Fraction(c) for c in out["N"]]
        if name == "sc4" and (K[:5] != SC4_K or [3 * n for n in N] != SC4_3N or out["s"] != 3):
            return "sc4 K(q) or 3 N_k differ from the paper"
        if name == "fcc4" and (N != FCC4_N or out["s"] != 1):
            return "fcc4 N_k differ from the paper"
        if name == "diamond4" and any((k * n).denominator != 1 for k, n in enumerate(N, 1)):
            return "diamond4 k N_k not integral"
        return None
    if not out["passed"]:
        return "not a symmetric square"
    if name == "sc3":
        for x in (Fraction(1, 7), Fraction(-3, 5), Fraction(11, 2)):
            if (_ratfunc_at(out["P"], x), _ratfunc_at(out["Q"], x)) != _sc3_symsq(x):
                return f"sc3 P, Q differ from the paper at x = {x}"
    return None


def _check_fit(job: dict, out: dict, refs_: dict) -> str | None:
    op = [[Fraction(c) for c in row] for row in out["op"]]
    table = out["table"]
    n_fit = job["n_fit"]
    if len(op[0]) - 1 != job["r"] or len(op) - 1 != job["k"]:
        return f"shape r{len(op[0]) - 1}k{len(op) - 1}, want r{job['r']}k{job['k']}"
    own = refs_["tables"][job["id"]]
    if own is not None and table != own:
        return "closed-form table differs from the benchmark's own formula"
    if len(table) != n_fit + HELD_OUT:
        return "table length"
    for n in range(n_fit, n_fit + HELD_OUT):
        if refs.residual(op, table, n) != 0:
            return f"held-out residual at n = {n} is not zero"
    if not out["verified"]:
        return "annihilates() reported failure"
    name = f"{job['family']}{job['d']}"
    if name in refs_["paper"] and not refs.proportional(op, refs_["paper"][name]):
        return "differs from the paper's operator"
    return None


def corrupt(kind: str, jobs: list[dict], outs: dict) -> str | None:
    """Change the leading coefficient of P_1 in the first fitted operator."""
    for j in jobs:
        op = outs.get(j["id"])
        if j["phase"] == "fit" and op and op["out"]:
            row = op["out"]["op"][1]
            row[-1] = str(Fraction(row[-1]) + 1)
            return j["id"]
    return None
