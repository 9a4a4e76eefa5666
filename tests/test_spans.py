"""The benchmark's span table names attributes that exist in the package,
and its exact workloads load only the layers they time."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    rows = [(mod, owner, attr) for mod, owner, attr, _, _ in spans.WRAPS]
    rows.append(("latgreen.linalg", None, "prime_stream"))
    for mod, owner, attr in rows:
        target = importlib.import_module(mod)
        if owner is not None:
            target = getattr(target, owner)
        assert callable(getattr(target, attr)), (mod, owner, attr)


@pytest.mark.parametrize("imports,loaded,mpmath", [
    # perfbench/tables.py
    ("from latgreen import constant_term, lattices",
     ["constant_term", "errors", "lattices", "reports", "series"], False),
    # perfbench/operators.py
    ("from latgreen import lattices, ode\nfrom latgreen.series import PowerSeries",
     ["errors", "lattices", "linalg", "ode", "ratfunc", "reports", "series"], False),
    # perfbench/numerics.py
    ("from latgreen import analytic\nfrom latgreen.lattices import LatticeSpec",
     ["analytic", "errors", "lattices", "reports", "series", "surd"], True),
], ids=["tables", "operators", "numerics"])
def test_workload_imports_load_only_their_layers(imports, loaded, mpmath):
    # a workload's set-up time includes compiling every module it loads
    code = (f"{imports}\nimport json, sys\n"
            "print(json.dumps([sorted(m.split('.', 1)[1] for m in sys.modules"
            " if m.startswith('latgreen.')),"
            " 'mpmath' in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    assert json.loads(proc.stdout) == [loaded, mpmath], proc.stderr
