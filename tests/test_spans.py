"""The benchmark's span table names attributes that exist in the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
