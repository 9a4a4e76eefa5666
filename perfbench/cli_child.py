"""One traced ``lgf`` command: python3 cli_child.py TRACE_FILE ARGS...

Stands in for ``python -m latgreen.cli ARGS...`` in traced rounds of the
``cli`` workload.  It installs the spans, runs ``latgreen.cli.main``,
derives the command's cache outcome from the spans, and writes the self
times and counts to TRACE_FILE.  ``cli.startup`` runs from the moment the
parent spawned the process (PERFBENCH_SPAWNED, wall clock) until main is
about to run, so it includes interpreter start, imports and installing the
spans.
"""

from __future__ import annotations

import json
import os
import sys
import time

from spans import Tracer

COMPUTE = ("lattices.formula", "lattices.cosine", "constant_term.ct")


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    import latgreen.cli as cli

    tracer = Tracer()
    tracer.install()
    startup = time.time() - float(os.environ["PERFBENCH_SPAWNED"])
    tracer.end(tracer.begin("cli.startup", start=time.perf_counter() - startup))
    span = tracer.begin("cli.command")
    try:
        code = cli.main(argv)
    finally:
        tracer.end(span)
    tracer.add("cli.commands", 1)
    if argv[0] == "coeffs":
        if any(s[0] in COMPUTE for s in tracer.spans):
            tracer.add("cli.cache_misses", 1)
        elif tracer.counts.get("cli.cache_reads"):
            tracer.add("cli.cache_hits", 1)
    with open(trace_file, "w") as fh:
        json.dump({"self_s": tracer.self_times(), "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
