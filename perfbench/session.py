"""Workload ``cli``: a scripted session of ``lgf`` commands.

Every command is its own ``python -m latgreen.cli`` process, against a
cache directory made fresh for the round, so the session pays process
start-up, JSON output, cache reads and cache writes as a user does.  The
seed shuffles the order of the command groups; inside a group the order
is fixed (a hit needs the miss before it).

The ``eval`` commands are known to fail: ``cli._fstr`` rounds every value
through ``mp.mpf`` at mpmath's ambient 15 digits, so only about 16 of the
requested digits are right.  They fail in every round and are counted, not
left out.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numerics
import refs

HERE = Path(__file__).resolve().parent
PHASES = {"coeffs": "cli_session_s", "hit": "cli_session_s", "ode": "cli_session_s",
          "eval": "cli_session_s"}


def _coeffs(family: str, d: int, terms: int, *extra: str) -> list[str]:
    return ["coeffs", "--family", family, "--dim", str(d), "--terms", str(terms),
            "--cache-dir", "{cache}", *extra]


# (id, phase, argv, the job whose JSON a hit must repeat)
GROUPS = [
    [("sc3/miss", "coeffs", _coeffs("sc", 3, 60), None),
     ("sc3/hit", "hit", _coeffs("sc", 3, 60), "sc3/miss"),
     ("sc3/extend", "coeffs", _coeffs("sc", 3, 120), None),
     ("sc3/hit-extended", "hit", _coeffs("sc", 3, 120), "sc3/extend"),
     ("sc3/all", "coeffs", _coeffs("sc", 3, 30, "--method", "all"), None)],
    [("bcc4/miss", "coeffs", _coeffs("bcc", 4, 60), None),
     ("bcc4/hit", "hit", _coeffs("bcc", 4, 60), "bcc4/miss")],
    [("fcc3/miss-ct", "coeffs", _coeffs("fcc", 3, 30, "--method", "ct"), None),
     ("fcc3/hit", "hit", _coeffs("fcc", 3, 30, "--method", "ct"), "fcc3/miss-ct")],
    [("sc4/miss", "coeffs", _coeffs("sc", 4, 41), None),
     ("sc4/ode-verify", "ode", ["ode", "verify", "sc4", "--terms", "40",
                                "--series-cache", "{cache}/sc-4.txt"], None)],
    [("eval/watson", "eval", ["eval", "watson", "--lattice", "sc", "--prec", "40"], None)],
    [("eval/lgf", "eval", ["eval", "lgf", "--family", "sc", "--dim", "3", "--z", "0.5",
                           "--prec", "40"], None)],
    [("eval/ramanujan", "eval", ["eval", "ramanujan", "--id", "bcc-256", "--terms", "60",
                                 "--prec", "40"], None)],
]


def jobs(rng) -> list[dict]:
    groups = list(GROUPS)
    rng.shuffle(groups)
    return [{"id": i, "phase": phase, "argv": argv, "same_as": same,
             "known_fault": phase == "eval"} for g in groups for i, phase, argv, same in g]


def references(jobs: list[dict]) -> dict:
    tables = {}
    for j in jobs:
        if j["argv"][0] == "coeffs":
            family, d, terms = j["argv"][2], int(j["argv"][4]), int(j["argv"][6])
            tables[j["id"]] = refs.closed_table(family, d, terms - 1)
    return {
        "tables": tables,
        "eval/watson": numerics.watson("sc", 60),
        "eval/lgf": numerics.series_value(refs.closed_table("sc", 3, 120), "sc", 3, "0.5", 60),
        "eval/ramanujan": numerics._ramanujan_reference("bcc-256", 60, 60)[1],
    }


def prepare(request: dict) -> dict:
    # set-up of this workload is what every command pays before it runs
    import latgreen.cli  # noqa: F401

    cache = Path(request["workdir"]) / "cache"
    cache.parent.mkdir(parents=True, exist_ok=True)
    return {"cache": str(cache), "corrupt": request["corrupt"], "child_traces": [],
            "trace_dir": Path(request["workdir"])}


def run(ctx: dict, job: dict):
    argv = [a.replace("{cache}", ctx["cache"]) for a in job["argv"]]
    trace_file = None
    if "tracer" in ctx:
        trace_file = ctx["trace_dir"] / f"child-{len(ctx['child_traces'])}.json"
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_file), *argv]
    else:
        cmd = [sys.executable, "-m", "latgreen.cli", *argv]
    env = dict(os.environ, PERFBENCH_SPAWNED=repr(time.time()))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, trace_file


def encode(ctx: dict, job: dict, result) -> dict:
    code, stdout, trace_file = result
    if trace_file is not None:
        ctx["child_traces"].append(json.loads(Path(trace_file).read_text()))
    try:
        doc = json.loads(stdout)
    except ValueError:
        doc = None
    out = {"code": code, "doc": doc}
    argv = job["argv"]
    if argv[0] == "coeffs":
        path = Path(ctx["cache"]) / f"{argv[2]}-{argv[4]}.txt"
        out["cache"] = path.read_text().splitlines() if path.exists() else None
        if ctx["corrupt"] == "cache" and "corrupted" not in ctx and job["phase"] == "coeffs":
            lines = list(out["cache"])
            lines[3] = str(int(lines[3]) + 1)
            path.write_text("\n".join(lines) + "\n")
            ctx["corrupted"] = job["id"]
    return out


def _stable(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "timing_ms"}


def check(job: dict, out: dict, refs_: dict, outs: dict) -> str | None:
    doc = out["doc"]
    if out["code"] != 0 or not isinstance(doc, dict) or not doc.get("passed"):
        return f"exit {out['code']}, passed {doc.get('passed') if isinstance(doc, dict) else None}"
    if job["phase"] == "eval":
        ref = refs_[job["id"]]
        value = doc["target"] if "target" in doc else doc["value"]
        return None if numerics.close(value, ref, 40) else f"printed {value}: wrong digits"
    if job["phase"] == "ode":
        return None
    want = refs_["tables"][job["id"]]
    if [int(v) for v in doc["table"]] != want:
        return "table differs from the closed form"
    if job["same_as"]:
        first = outs.get(job["same_as"])
        if not first or _stable(first["doc"]) != _stable(doc):
            return f"JSON differs from {job['same_as']}"
    if "all" in job["argv"]:
        return None if all(doc["checks"].values()) else f"route checks {doc['checks']}"
    lines = out["cache"]
    if job["phase"] == "coeffs":
        argv = job["argv"]
        head = f"lgf-cache v1 {argv[2]} {argv[4]} {len(want)}"
        if not lines or lines[0] != head or [int(v) for v in lines[1:]] != want:
            return "cache file does not read back as the table"
    return None


def latencies(jobs: list[dict], secs: dict) -> dict:
    return {"cli_hit_ms": 1000 * statistics.median(secs[j["id"]] for j in jobs
                                                   if j["phase"] == "hit")}


def corrupt(kind: str, jobs: list[dict], outs: dict) -> str | None:
    # the cache line is altered on disk inside the round, before the next command
    return "the first cache file written in the round"
