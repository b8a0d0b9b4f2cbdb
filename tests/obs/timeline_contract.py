#!/usr/bin/env python3
"""The Perfetto timeline, end to end: a driver's --report-out, rendered.

Runs Table 4.1 at four threads with --report-out and a trace, renders the
timeline with `mcopt_report.py timeline` and validates it with
`mcopt_report.py validate`.  The aggregate lane (pid 0) must carry the
profile tree span for span (name, calls, ticks, in depth-first order).  The
worker lanes (pid 1) must be exactly the workers that ran a job, by the
trace's restart_begin stamps, each carrying its merged tree, whose root
calls count that worker's jobs; and the worker trees must sum to the
aggregate one::

    timeline_contract.py DRIVER REPORT WORKDIR
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter


def flatten(nodes):
    """(name, calls, ticks) of every node, depth first."""
    for node in nodes:
        yield node["name"], node["calls"], node["ticks"]
        yield from flatten(node["children"])


def spans(events, pid, tid=None):
    return [(e["name"], e["args"]["calls"], e["args"]["ticks"])
            for e in events if e["ph"] == "X" and e["pid"] == pid
            and tid in (None, e["tid"])]


def main(driver: str, report: str, workdir: str) -> int:
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    report_json = os.path.join(workdir, "report.json")
    timeline = os.path.join(workdir, "timeline.json")
    trace = os.path.join(workdir, "trace.jsonl")
    env = dict(os.environ, MCOPT_BENCH_SCALE="0.05")
    env.pop("MCOPT_BENCH_CSV_DIR", None)
    subprocess.run([driver, "--table", "4.1", "--threads", "4", "--quiet",
                    "--report-out", report_json, "--trace", trace,
                    "--trace-sample", "16"], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    for args in (["timeline", report_json, "-o", timeline],
                 ["validate", timeline]):
        subprocess.run([sys.executable, report] + args, check=True)

    with open(report_json, encoding="utf-8") as handle:
        doc = json.load(handle)
    with open(timeline, encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    failures = []
    aggregate = list(flatten(doc["profile"]))
    if not aggregate or spans(events, 0) != aggregate:
        failures.append(f"aggregate lane {spans(events, 0)} != profile "
                        f"{aggregate}")
    # One restart_begin per job, stamped with the worker that ran it; one
    # root call per job.
    with open(trace, encoding="utf-8") as handle:
        jobs = Counter(json.loads(line)["worker"] for line in handle
                       if '"restart_begin"' in line)
    ran = {w["worker"]: sum(n["calls"] for n in w["profile"])
           for w in doc["workers"]}
    if ran != dict(jobs):
        failures.append(f"jobs per worker {ran}, trace says {dict(jobs)}")
    lanes = sorted({e["tid"] for e in events
                    if e["ph"] == "X" and e["pid"] == 1})
    if lanes != sorted(jobs):
        failures.append(f"worker lanes {lanes} != workers {sorted(jobs)}")
    for worker in doc["workers"]:
        tree = list(flatten(worker["profile"]))
        if spans(events, 1, worker["worker"]) != tree:
            failures.append(f"worker {worker['worker']}'s lane != its tree")
    roots = {}
    for worker in doc["workers"]:
        for node in worker["profile"]:
            calls, ticks = roots.get(node["name"], (0, 0))
            roots[node["name"]] = (calls + node["calls"],
                                   ticks + node["ticks"])
    want = {n["name"]: (n["calls"], n["ticks"]) for n in doc["profile"]}
    if roots != want:
        failures.append(f"worker roots sum to {roots}, aggregate {want}")
    for failure in failures:
        print(f"timeline_contract: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
