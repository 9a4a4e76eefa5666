"""Benchmark of latgreen: one workload, one seed, one run.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it drives the package in
``src/`` and nothing installed.  The run

  1. builds the workload's jobs from the seed (evaluation points and job
     order; never the amount of work) and computes the reference values
     in this process, which does not import latgreen;
  2. times set-up five times, each in a fresh interpreter, from its start
     until the first operation is ready;
  3. runs whole rounds of the jobs, each round in a fresh worker process,
     until --seconds have passed, and checks every output of every round;
  4. prints a line of detail, then the result as one JSON line.

With --trace 1 the first round runs untraced and the others with spans
around latgreen's public functions; the result then holds the per-layer
metrics and the detail line the tracing overhead.  --corrupt KIND alters
one output of that kind in every round (a negative control); the run must
then report that operation as failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

# workload name -> module in this directory
WORKLOADS = {"tables": "tables", "operators": "operators", "numerics": "numerics",
             "cli": "session"}
# negative control -> the workload whose outputs it alters
CORRUPT = {"table": "tables", "operator": "operators", "digit": "numerics", "cache": "cli"}
SETUP_SAMPLES = 5
WORKER_TIMEOUT = 150


def spawn(request: dict) -> tuple[float | None, dict | None, str]:
    """Start a worker, hand it the request, return (set-up seconds, result, stderr).

    Set-up is None when the worker never got ready, the result None when
    it did not finish its round."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(WORK))
    request = dict(request, spawned=time.time())
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(request), timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nworker killed after {WORKER_TIMEOUT} s"
    lines = out.splitlines()
    if not lines or not lines[0].startswith("READY "):
        return None, None, err
    setup = float(lines[0].split()[1])
    if proc.returncode != 0 or len(lines) < 2:
        return setup, None, err
    result = json.loads(lines[-1])
    result["ops"] = [json.loads(line) for line in lines[1:-1]]
    return setup, result, err


def phase_values(wl, jobs: list[dict], result: dict) -> dict[str, float]:
    """One round's time per phase, named as in the workload's PHASES."""
    secs = {op["id"]: op["seconds"] for op in result["ops"]}
    out: dict[str, float] = {}
    for job in jobs:
        name = wl.PHASES[job["phase"]]
        out[name] = out.get(name, 0.0) + secs[job["id"]]
    if hasattr(wl, "latencies"):
        out.update(wl.latencies(jobs, secs))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", choices=sorted(CORRUPT))
    args = ap.parse_args()
    if not (ROOT / "src" / "latgreen" / "__init__.py").is_file():
        print(f"no latgreen sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.corrupt and CORRUPT[args.corrupt] != args.workload:
        print(f"--corrupt {args.corrupt} applies to workload {CORRUPT[args.corrupt]}",
              file=sys.stderr)
        return 2

    wl = importlib.import_module(WORKLOADS[args.workload])
    jobs = wl.jobs(random.Random(args.seed))
    refs = wl.references(jobs)
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        return measure(args, wl, jobs, refs, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, wl, jobs, refs, scratch: Path) -> int:
    base = {"workload": WORKLOADS[args.workload], "jobs": jobs, "trace": False,
            "corrupt": args.corrupt}
    setups = []
    for i in range(SETUP_SAMPLES):
        setup, _, err = spawn(dict(base, mode="setup", workdir=str(scratch / f"setup-{i}")))
        if setup is None:
            sys.stderr.write(err)
            print("worker failed during set-up", file=sys.stderr)
            return 1
        setups.append(setup)

    rounds = []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and bool(rounds)
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json" if traced else None
        _, result, err = spawn(dict(base, mode="round", trace=traced,
                                    workdir=str(scratch / f"round-{len(rounds)}"),
                                    trace_file=str(trace_file) if trace_file else None))
        if result is None:
            sys.stderr.write(err[-4000:])
        rounds.append((traced, result))
        elapsed = time.perf_counter() - started
        mean = elapsed / len(rounds)
        # stop at the round boundary nearest to --seconds; a traced run
        # needs one untraced and at least one traced round
        if elapsed + mean / 2 >= args.seconds and (not args.trace or len(rounds) >= 2):
            break

    attempted = failed = 0
    correct = True
    failures: dict[str, str] = {}
    for _, result in rounds:
        outs = {op["id"]: op for op in result["ops"]} if result else {}
        if args.corrupt:
            hit = wl.corrupt(args.corrupt, jobs, outs)
            print(f"negative control: altered {args.corrupt} in {hit}", file=sys.stderr)
        for job in jobs:
            attempted += 1
            op = outs.get(job["id"])
            if op is None:
                reason = "no result: worker failed"
            elif op["error"]:
                reason = op["error"]
            else:
                reason = wl.check(job, op["out"], refs, {k: v["out"] for k, v in outs.items()})
            if reason:
                failed += 1
                failures.setdefault(job["id"], reason)
                if not job.get("known_fault"):
                    correct = False

    good = [(traced, r) for traced, r in rounds if r is not None]
    times = {traced: [sum(op["seconds"] for op in r["ops"]) for t, r in good if t == traced]
             for traced in (False, True)}
    detail = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
              "setup_s": setups, "round_s": times[False], "failures": failures}
    per_phase: dict[str, list[float]] = {}
    for r in (r for t, r in good if not t):
        for k, v in phase_values(wl, jobs, r).items():
            per_phase.setdefault(k, []).append(v)
    detail["phases"] = {k: statistics.median(v) for k, v in per_phase.items()}
    if args.trace and times[True] and times[False]:
        detail["traced_round_s"] = times[True]
        detail["trace_overhead"] = statistics.median(times[True]) / statistics.median(times[False]) - 1
    print(json.dumps(detail, sort_keys=True))

    if args.trace:
        per_round = [spans.layer_values(r["self_s"], r["counts"]) for t, r in good if t]
        metrics = {m: {"value": statistics.median(v[m] for v in per_round) if per_round else 0,
                       "unit": spans.unit(m)} for m in spans.LAYER_METRICS}
    else:
        plain = [r for t, r in good if not t]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "round_s": {"value": statistics.median(times[False]) if plain else 0, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["rss_kb"] / 1024 for r in plain)
                            if plain else 0, "unit": "MB"},
        }
    print(json.dumps({"correct": correct and len(good) == len(rounds), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
