"""The benchmark's tracer, installed over the table layers, returns the
tables that the untraced calls return and counts what its hooks count.

Tracer.install() replaces module attributes for the rest of the process,
so the traced calls run in a child interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

from latgreen.lattices import LatticeSpec

from test_constant_term import ROW_CASES

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
N = 4   # table length minus one, by every route

CHILD = r"""
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
from latgreen import constant_term as ct, lattices as L
cases, n = json.loads(sys.argv[2]), int(sys.argv[3])

def tables():
    out = {}
    for family, d in cases:
        s = L.LatticeSpec(family, d)
        p = s.powers_per_index
        out[s.name] = [list(L.coeffs(s, n).values), ct.ct_series(ct.kernel(family, d), n),
                       L.cosine_integer_table(s.name, p * n)[::p]]
    return out

plain = tables()
tracer = spans.Tracer()
tracer.install()
traced = tables()
print(json.dumps({"plain": plain, "traced": traced, "counts": tracer.counts,
                  "spans": sorted({name for name, *_ in tracer.spans})}))
"""


def test_tracer_keeps_tables_and_counts_them():
    proc = subprocess.run([sys.executable, "-c", CHILD, str(SPANS), json.dumps(ROW_CASES), str(N)],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["traced"] == got["plain"]
    specs = [LatticeSpec(f, d) for f, d in ROW_CASES]
    # one coeffs call per case, and ct_sequence to p * N per ct_series call
    assert got["counts"]["lattices.terms"] == len(specs) * (N + 1)
    assert got["counts"]["constant_term.powers"] == sum(s.powers_per_index * N for s in specs)
    # the generators are looked up when called, so their own spans record
    assert {"lattices.formula", "lattices.triples4", "lattices.cosine",
            "constant_term.kernel", "constant_term.ct"} <= set(got["spans"])
