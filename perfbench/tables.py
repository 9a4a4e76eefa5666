"""Workload ``tables``: exact return-count tables by every route.

Each case is built by each route that supports it: the closed forms
(``lattices.coeffs``, which reaches ``fcc4_table`` and ``triples4_table``),
the constant-term engine (``constant_term.ct_series``) and the cosine-moment
engine (``lattices.cosine_integer_table``).  The routes get lengths that
give each a comparable share of the round; they are compared exactly on the
prefix they share.  No linear algebra and no floating point.
"""

from __future__ import annotations

import refs

ROUTES = ("formula", "ct", "cosine")
PHASES = {"formula": "table_formula_s", "ct": "table_ct_s", "cosine": "table_cosine_s"}
OWN_PREFIX = 12   # entries checked against the multinomial sums

# (family, d, length by formula, by CT, by cosine); None where the route
# does not exist.  The length is the last table index: even-only and
# two-site families hold the 2n-step count at index n, fcc the n-step count.
CASES = [
    ("sc", 2, 200, 30, 30), ("sc", 3, 200, 24, 24), ("sc", 4, 200, 16, 16),
    ("sc", 5, 200, 10, 10), ("sc", 6, 200, 8, 8),
    ("bcc", 2, 200, 30, 60), ("bcc", 3, 200, 24, 60), ("bcc", 4, 200, 14, 60),
    ("bcc", 5, 200, 10, 40), ("bcc", 6, 200, 8, 30),
    ("diamond", 2, 200, 30, None), ("diamond", 3, 200, 20, None),
    ("diamond", 4, 200, 14, None), ("diamond", 5, 200, 10, None),
    ("diamond", 6, 200, 8, None),
    ("fcc", 2, 200, 30, 40), ("fcc", 3, 200, 24, 24), ("fcc", 4, 70, 16, 16),
    ("fcc", 5, None, 10, 10), ("fcc", 6, None, 8, 6),
    ("sincos4", 4, 200, 12, 16), ("triples4", 4, 70, 8, 16),
]


def _case(family: str, d: int) -> str:
    return family if family in ("sincos4", "triples4") else f"{family}{d}"


def jobs(rng) -> list[dict]:
    out = []
    for family, d, *lengths in CASES:
        for route, n in zip(ROUTES, lengths):
            if n is not None:
                out.append({"id": f"{_case(family, d)}/{route}", "phase": route,
                            "case": _case(family, d), "family": family, "d": d,
                            "route": route, "n": n})
    rng.shuffle(out)
    return out


def _reference_route(jobs: list[dict], case: str) -> str:
    have = {j["route"] for j in jobs if j["case"] == case}
    return next(r for r in ROUTES if r in have)


def references(jobs: list[dict]) -> dict:
    """Per case: the route the others are compared with, and the leading
    entries by the benchmark's own multinomial sums where it has them."""
    out = {}
    for family, d, *lengths in CASES:
        case = _case(family, d)
        n = min(x for x in lengths if x is not None)
        own = {"sc": ("sc", d), "bcc": ("bcc", d), "diamond": ("diamond", d),
               "sincos4": ("sc", 4)}.get(family)   # the sin/cos kernel walks like sc4
        out[case] = {
            "route": _reference_route(jobs, case),
            "prefix": [refs.multinomial_count(*own, k) for k in range(min(n, OWN_PREFIX) + 1)]
            if own else [],
        }
    return out


def prepare(request: dict) -> dict:
    from latgreen import constant_term, lattices

    return {"lattices": lattices, "constant_term": constant_term}


def run(ctx: dict, job: dict) -> list[int]:
    lattices, ct = ctx["lattices"], ctx["constant_term"]
    family, d, n = job["family"], job["d"], job["n"]
    if job["route"] == "formula":
        return list(lattices.coeffs(lattices.LatticeSpec(family, d), n).values)
    if job["route"] == "ct":
        return ct.ct_series(ct.kernel(family, d), n)
    s = 1 if family == "fcc" else 2          # steps per table index
    engine = lattices.cosine_integer_table(job["case"], n * s)
    return [engine[s * i] for i in range(n + 1)]


def encode(ctx: dict, job: dict, result: list[int]) -> list[int]:
    return [int(v) for v in result]


def check(job: dict, table, refs_: dict, outs: dict) -> str | None:
    family, d, n = job["family"], job["d"], job["n"]
    if not isinstance(table, list) or len(table) != n + 1:
        return f"expected {n + 1} entries"
    q = refs.coordination(family, d)
    if table[0] != 1:
        return f"a_0 = {table[0]}"
    if family == "fcc":
        # all-step table: a_1 = 0, a_2 = q, a_3 = 8 d (d-1) (d-2) triangles
        want = [0, q, 8 * d * (d - 1) * (d - 2)]
        if table[1:4] != want[: len(table) - 1]:
            return f"a_1..a_3 = {table[1:4]}, want {want}"
    elif table[1] != q:
        return f"2-step count {table[1]} != coordination {q}"
    ref = refs_[job["case"]]
    prefix = ref["prefix"]
    if table[: len(prefix)] != prefix:
        return "differs from the multinomial sum in the first entries"
    if job["route"] != ref["route"]:
        other = outs.get(f"{job['case']}/{ref['route']}")
        if not isinstance(other, list):
            return f"no {ref['route']} table to compare with"
        k = min(len(other), len(table))
        bad = next((i for i in range(k) if table[i] != other[i]), None)
        if bad is not None:
            return f"differs from the {ref['route']} route at index {bad}"
    return None


def corrupt(kind: str, jobs: list[dict], outs: dict) -> str | None:
    """Add one to the last entry of the first table that is compared with another route."""
    first = {}
    for j in jobs:
        first.setdefault(j["case"], _reference_route(jobs, j["case"]))
    for j in jobs:
        op = outs.get(j["id"])
        if j["route"] != first[j["case"]] and op and op["out"]:
            op["out"][-1] += 1
            return j["id"]
    return None
