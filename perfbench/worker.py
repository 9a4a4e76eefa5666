"""One round of a workload in a fresh interpreter.

run.py starts this file once per round, and once per set-up sample, so no
round sees program state left by another: not analytic._CONVENTION, not
mpmath's cached quadrature nodes and constants, not a CLI cache directory.

Protocol: the request (JSON) arrives on stdin.  The worker imports the
modules the workload drives, builds its inputs and prints ``READY`` with
its set-up time.  Unless it was started only to time set-up, it then runs
every job, printing one JSON line per job with its time and encoded
output, and a last line with the peak RSS and, when traced, the per-layer
self times and counts.  Only the call into latgreen is timed; encoding the
outputs and the tracing bookkeeping are not.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
import traceback


def main() -> int:
    request = json.loads(sys.stdin.read())
    wl = importlib.import_module(request["workload"])
    ctx = wl.prepare(request)
    tracer = None
    if request["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        ctx["tracer"] = tracer
    print("READY", repr(time.time() - request["spawned"]), flush=True)
    if request["mode"] == "setup":
        return 0

    for job in request["jobs"]:
        span = tracer.begin("op") if tracer else None
        t0 = time.perf_counter()
        try:
            result = wl.run(ctx, job)
            error = None
        except Exception as exc:  # a failing call is an outcome, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end(span)
        # written out at once, so held outputs do not swell the peak RSS
        out = None if error else wl.encode(ctx, job, result)
        print(json.dumps({"id": job["id"], "seconds": dt, "error": error, "out": out}))
        del result, out

    usage = resource.RUSAGE_CHILDREN if request["workload"] == "session" else resource.RUSAGE_SELF
    doc = {"rss_kb": resource.getrusage(usage).ru_maxrss}
    if tracer:
        self_s = tracer.self_times()
        counts = dict(tracer.counts)
        for extra in ctx.get("child_traces", []):
            for k, v in extra["self_s"].items():
                self_s[k] = self_s.get(k, 0.0) + v
            for k, v in extra["counts"].items():
                counts[k] = counts.get(k, 0) + v
        doc["self_s"], doc["counts"] = self_s, counts
        if request.get("trace_file"):
            tracer.dump(request["trace_file"])
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
