#!/usr/bin/env python3
"""mcopt benchmark: the paper's protocols timed end to end and per layer.

One workload, one process (the form BENCHMARK.json's command takes):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

builds benchmark/build/mcopt_bench if needed, runs the workload for S
seconds (S = 0: exactly one pass of its protocol units), checks every
result, prints one `workload metric value unit` line per metric and, last,
one JSON object {"correct", "attempted", "failed", "metrics"}.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones.

Repeated sets, comparison and self-test:

    python3 benchmark/run.py [--reps 5] [--seed 1985] [--seconds S]
                             [--trace-layers] [--out FILE]
    python3 benchmark/run.py --compare A.json B.json
    python3 benchmark/run.py --self-test

The first runs every workload --reps times, each in a fresh process, with
the workload order rotated between reps, then (with --trace-layers) one
traced run per workload.  It prints median, quartiles and n per metric,
writes the results to --out, and exits 1 if any check failed.  --compare
prints a verdict per workload and metric: within bound, worse, or
unresolved (the run-to-run spread is wider than the bound).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE / "build"
WORK = BUILD / "work"
BINARY = BUILD / "mcopt_bench"
GOLDEN = HERE / "golden"
SPEC_PATH = HERE.parent / "BENCHMARK.json"
RUN_TIMEOUT_S = 170

# The reference kernel's time per iteration on this host (4-core Xeon VM)
# when it is quiet; a run's times are scaled to a host this fast.
NOMINAL_REFERENCE_NS = 4.0

SPAN_FIELDS = ("name", "begin", "end", "parent", "solve", "thread", "ticks",
               "arg", "problem_ns", "problem_calls")


# --------------------------------------------------------------------------
# Statistics.

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def verdict(metric, a_values, b_values):
    """Compares side B with side A under the metric's bound."""
    bound = metric["bound"]
    higher = metric["better"] == "higher"
    a_med, b_med = median(a_values), median(b_values)
    spread = max((q3 - q1) / abs(m) if m else 0.0
                 for (q1, q3), m in ((quartiles(a_values), a_med),
                                     (quartiles(b_values), b_med)))
    if spread > bound:
        b_all_better = (min(b_values) > max(a_values) if higher
                        else max(b_values) < min(a_values))
        return "better" if b_all_better else "unresolved"
    change = (b_med - a_med) / abs(a_med) if a_med else 0.0
    if (-change if higher else change) > bound:
        return "worse"
    return "within bound"


# --------------------------------------------------------------------------
# Build and run.

def load_spec():
    return json.loads(SPEC_PATH.read_text())


def build():
    """Configures and builds mcopt_bench; False (with the log tail on
    stderr) when either step fails."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "mcopt_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                out.flush()
                tail = log.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                print("run.py: build failed, see " + str(log),
                      file=sys.stderr)
                return False
    return True


def run_once(workload, seed, seconds, traced):
    """One mcopt_bench process: its JSON result, plus the per-layer
    metrics of its trace when traced."""
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scratch", str(WORK)]
    layers_path = WORK / f"{workload}-layers.json"
    if traced:
        cmd += ["--trace-layers", str(layers_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: mcopt_bench exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout)
    if traced:
        result["layers"] = layer_metrics(json.loads(layers_path.read_text()))
    return result


def load_golden(seed):
    path = GOLDEN / f"{seed}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def check_result(result, golden):
    """(attempted, failed, messages): the binary's own checks plus the
    input digests of every set-up, each unit against the golden digest and
    against earlier runs of the same unit in this process, and, for a
    traced run, the closure of its spans over wall time."""
    attempted = result["checks"]
    messages = list(result["failures"])
    if "layers" in result:
        attempted += 1
        if result["layers"]["bench.unattributed_pct"] > 5.0:
            messages.append("traced run: more than 5% of wall time lies "
                            "outside every span")
    inputs_id = result["workload"] + "/inputs"
    expected = [(inputs_id, result["inputs"][0], d)
                for d in result["inputs"][1:]]
    if inputs_id in golden:
        expected.append((inputs_id, golden[inputs_id], result["inputs"][0]))
    first = {}
    for unit_id, digest, *_ in result["units"]:
        if unit_id in golden:
            expected.append((unit_id, golden[unit_id], digest))
        if unit_id in first:
            expected.append((unit_id, first[unit_id], digest))
        first.setdefault(unit_id, digest)
    for unit_id, want, got in expected:
        attempted += 1
        if want != got:
            messages.append(f"{unit_id}: expected '{want}', got '{got}'")
    return attempted, len(messages), messages


# --------------------------------------------------------------------------
# Metrics.

def host_factors(result):
    """How much slower than nominal the host ran during each set-up and
    each unit, from the reference kernel timed right after it."""
    return ([ref / NOMINAL_REFERENCE_NS for ref in result["setup_ref"]],
            [unit[4] / NOMINAL_REFERENCE_NS for unit in result["units"]])


def end_to_end(result):
    """The gated metrics, each time scaled to the nominal host speed by the
    host factor measured beside it."""
    setup_factors, unit_factors = host_factors(result)
    solves = []
    start = 0
    for (_, _, _, _, _, end), factor in zip(result["units"], unit_factors):
        solves += [ns / factor
                   for ns in result["solve_ns_per_tick"][start:end]]
        start = end
    return {
        "setup_s": median([s / f for s, f in zip(result["setup_s"],
                                                 setup_factors)]),
        # The median unit resists a stall that hits a few units.
        "ticks_per_s": median([ticks / seconds * factor
                               for (_, _, seconds, ticks, _, _), factor
                               in zip(result["units"], unit_factors)]),
        "solve_p50_ns_per_tick": percentile(solves, 50),
        "solve_p90_ns_per_tick": percentile(solves, 90),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def self_times(spans, clock_ns):
    """A span's duration minus its same-thread child spans and the
    decorated problem calls it made itself, less the clock cost of each
    timed call (one inside the call's interval, one outside it)."""
    child = [[0, 0, 0] for _ in spans]
    for s in spans:
        p = s["parent"]
        if p >= 0 and spans[p]["thread"] == s["thread"]:
            child[p][0] += s["end"] - s["begin"]
            child[p][1] += s["problem_ns"]
            child[p][2] += s["problem_calls"]
    out = []
    for s, (c_dur, c_ns, c_calls) in zip(spans, child):
        own_ns = s["problem_ns"] - c_ns
        own_calls = s["problem_calls"] - c_calls
        out.append(s["end"] - s["begin"] - c_dur - own_ns
                   - own_calls * clock_ns)
    return out


def layer_metrics(trace):
    """Every per-layer metric from one traced run."""
    clock = trace["clock_ns"]
    wall = trace["wall_ns"]
    spans = [dict(zip(SPAN_FIELDS, s)) for s in trace["spans"]]
    selfs = self_times(spans, clock)
    ops = trace["ops"]
    extras = defaultdict(float, trace["extras"])

    def pick(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def busy_s(indices):
        return sum(spans[i]["end"] - spans[i]["begin"] for i in indices) / 1e9

    def self_s(indices):
        return sum(selfs[i] for i in indices) / 1e9

    def op_ns(layer, op):
        calls, ns = ops[layer][op]
        return ns - calls * clock, calls

    def per_call(layer, op):
        ns, calls = op_ns(layer, op)
        return ns / calls if calls else 0.0

    m = {}
    m["netlist.generate.busy_s"] = busy_s(
        [i for i, s in enumerate(spans) if s["name"].startswith("netlist::")])
    for key, name in (("linarr.goto", "linarr::goto_arrangement"),
                      ("linarr.init", "linarr::LinArrProblem"),
                      ("core.tuner", "core::tune_scale"),
                      ("partition.kl", "partition::kernighan_lin")):
        m[key + ".calls"] = len(pick(name))
        m[key + ".busy_s"] = busy_s(pick(name))
    for layer in ("linarr", "tsp", "partition"):
        m[layer + ".propose.calls"] = ops[layer]["propose"][0]
        m[layer + ".propose.ns"] = per_call(layer, "propose")
    m["linarr.accept.ns"] = per_call("linarr", "accept")
    m["linarr.reject.ns"] = per_call("linarr", "reject")
    m["linarr.snapshot.calls"] = ops["linarr"]["snapshot"][0]
    m["linarr.snapshot.ns"] = per_call("linarr", "snapshot")
    proposals = ops["linarr"]["propose"][0]
    m["linarr.accept_ratio"] = (ops["linarr"]["accept"][0] / proposals
                                if proposals else 0.0)
    descend_ns, descend_calls = op_ns("linarr", "descend")
    descend_ticks = ops["linarr"]["descend_ticks"]
    m["linarr.descend.calls"] = descend_calls
    m["linarr.descend.busy_s"] = descend_ns / 1e9
    m["linarr.descend.ns_per_tick"] = (descend_ns / descend_ticks
                                       if descend_ticks else 0.0)
    m["core.tuner.ticks"] = sum(spans[i]["ticks"]
                                for i in pick("core::tune_scale"))
    fig1 = pick("core::run_figure1")
    fig1_ticks = sum(spans[i]["ticks"] for i in fig1)
    m["core.figure1.calls"] = len(fig1)
    m["core.figure1.busy_s"] = busy_s(fig1)
    m["core.figure1.ns_per_proposal"] = (busy_s(fig1) * 1e9 / fig1_ticks
                                         if fig1_ticks else 0.0)
    m["core.figure1.self_s"] = self_s(fig1)
    fig2 = pick("core::run_figure2")
    m["core.figure2.calls"] = len(fig2)
    m["core.figure2.busy_s"] = busy_s(fig2)
    m["core.figure2.self_s"] = self_s(fig2)

    # The 4-thread calls; the traced run's 1-thread legs have arg 1.
    pools = {i for i in pick("core::parallel_multistart")
             if spans[i]["arg"] > 1}
    threads = max((spans[i]["arg"] for i in pools), default=0)
    pool_busy = busy_s(pools)
    workers = [i for i, s in enumerate(spans)
               if s["parent"] in pools and s["name"] == "core::run_figure1"]
    worker_busy = busy_s(workers)
    m["core.parallel.busy_s"] = pool_busy
    m["core.parallel.worker_busy_s"] = worker_busy
    m["core.parallel.idle_s"] = threads * pool_busy - worker_busy
    m["core.parallel.utilization"] = (worker_busy / (threads * pool_busy)
                                      if pool_busy else 0.0)
    m["core.parallel.speedup_t4"] = (extras["parallel.t1_ns"]
                                     / extras["parallel.t4_ns"]
                                     if extras["parallel.t4_ns"] else 0.0)
    m["core.parallel.reruns"] = (extras["parallel.runner_calls"]
                                 - extras["parallel.restarts"])
    m["core.annealer.busy_s"] = busy_s(pick("core::simulated_annealing"))
    m["core.random_descent.busy_s"] = busy_s(pick("core::random_descent"))
    m["tsp.two_opt.busy_s"] = busy_s(pick("tsp::restarted_two_opt"))
    m["tsp.construct.busy_s"] = busy_s(pick("tsp::construct"))

    plain = extras["obs.plain_ns"]
    m["obs.overhead_pct"] = (100.0 * (extras["obs.observed_ns"] / plain - 1)
                             if plain else 0.0)
    m["obs.export.busy_s"] = busy_s(pick("obs::export"))
    m["obs.trace.events"] = extras["obs.trace.events"]
    m["obs.trace.bytes"] = extras["obs.trace.bytes"]

    top = [s for s in spans if s["parent"] < 0 and s["thread"] == 0]
    covered = sum(s["end"] - s["begin"] for s in top)
    m["bench.unattributed_pct"] = 100.0 * (wall - covered) / wall
    # Two clock reads per timed call and per span, over all thread time
    # (the driver thread's wall plus the pool threads' runner spans).
    timed = len(spans) + sum(value[0] for layer in ops.values()
                             for op, value in layer.items()
                             if op != "descend_ticks")
    thread_ns = wall + sum(s["end"] - s["begin"] for s in spans
                           if s["thread"] != 0)
    m["bench.trace_overhead_pct"] = 100.0 * 2 * clock * timed / thread_ns
    m["bench.clock_ns"] = clock
    return m


# --------------------------------------------------------------------------
# One workload, one process: the BENCHMARK.json command.

def single(args, spec):
    traced = args.trace == 1
    if not build():
        return 1
    golden = load_golden(args.seed)
    result = run_once(args.workload, args.seed, args.seconds, traced)
    attempted, failed, messages = check_result(result, golden)
    for message in messages[:20]:
        print("check failed: " + message, file=sys.stderr)
    if traced:
        values = result["layers"]
        wanted = spec["per_layer"]
    else:
        values = end_to_end(result)
        wanted = spec["end_to_end"]
        # The gated times are scaled by this; a raw time is the gated one
        # times the factor.
        print(f"{args.workload} host_factor "
              f"{median(host_factors(result)[1]):.6g} x (informational)")
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
        print(f"{args.workload} {name} {values[name]:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# --------------------------------------------------------------------------
# Repeated sets.

def summarize(results, spec):
    """Prints the metric table and the checks; returns the exit code."""
    code = 0
    for workload, entry in results["workloads"].items():
        for metric in spec["end_to_end"]:
            values = entry["metrics"][metric["name"]]
            q1, q3 = quartiles(values)
            print(f"{workload} {metric['name']} {median(values):.6g} "
                  f"[{q1:.6g}, {q3:.6g}] n={len(values)} {metric['unit']}")
        for name, value in sorted(entry.get("layers", {}).items()):
            print(f"{workload} {name} {value:.6g} (traced)")
        attempted, failed = entry["attempted"], entry["failed"]
        print(f"{workload} error_rate {failed / attempted:.6g} "
              f"({failed} of {attempted} checks failed)")
        for message in entry["messages"][:10]:
            print(f"{workload} check failed: {message}")
        if failed:
            code = 1
    return code


def cross_check(entry, digests, seen):
    """Counts one check per unit run: its digest must equal the one `seen`
    holds from an earlier run, which it records when there is none."""
    for unit_id, digest, *_ in digests:
        entry["attempted"] += 1
        want = seen.setdefault(unit_id, digest)
        if want != digest:
            entry["failed"] += 1
            entry["messages"].append(f"{unit_id}: '{digest}' differs from "
                                     f"'{want}' in another run")


def repeated(args, spec):
    if not build():
        return 1
    names = [w["name"] for w in spec["workloads"]]
    golden = load_golden(args.seed)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    results = {"seed": args.seed, "seconds": seconds, "reps": args.reps,
               "workloads": {}}
    entries = {n: {"metrics": defaultdict(list), "attempted": 0, "failed": 0,
                   "messages": [], "seen": {}} for n in names}
    for rep in range(args.reps):
        for workload in names[rep % len(names):] + names[:rep % len(names)]:
            result = run_once(workload, args.seed, seconds, False)
            entry = entries[workload]
            for key, value in end_to_end(result).items():
                entry["metrics"][key].append(value)
            attempted, failed, messages = check_result(result, golden)
            entry["attempted"] += attempted
            entry["failed"] += failed
            entry["messages"] += messages
            cross_check(entry, result["units"], entry["seen"])
    observed = entries.get("table41_observed")
    plain = entries.get("paper_tables")
    if observed and plain:
        # Telemetry must not change a Table 4.1 row.
        shared = [(u, d) for u, d in observed["seen"].items()
                  if u in plain["seen"]]
        cross_check(observed, shared, dict(plain["seen"]))
    if args.trace_layers:
        for workload in names:
            result = run_once(workload, args.seed, seconds, True)
            entry = entries[workload]
            attempted, failed, messages = check_result(result, golden)
            entry["attempted"] += attempted
            entry["failed"] += failed
            entry["messages"] += messages
            cross_check(entry, result["units"], entry["seen"])
            entry["layers"] = result["layers"]
            slowdown = (end_to_end(result)["solve_p50_ns_per_tick"]
                        / median(entry["metrics"]["solve_p50_ns_per_tick"])
                        - 1)
            entry["layers"]["bench.traced_solve_p50_change_pct"] = (
                100.0 * slowdown)
    for name, entry in entries.items():
        entry.pop("seen")
        entry["metrics"] = dict(entry["metrics"])
        results["workloads"][name] = entry
    out = Path(args.out) if args.out else BUILD / "results.json"
    out.write_text(json.dumps(results, indent=1) + "\n")
    code = summarize(results, spec)
    print(f"results written to {out}")
    return code


def compare(path_a, path_b, spec):
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    counts = defaultdict(int)
    for workload in [w for w in a if w in b]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = a[workload]["metrics"][name], b[workload]["metrics"][name]
            v = verdict(metric, va, vb)
            counts[v] += 1
            (qa1, qa3), (qb1, qb3) = quartiles(va), quartiles(vb)
            print(f"{workload:17} {name:21} A {median(va):<11.6g} "
                  f"[{qa1:.6g}, {qa3:.6g}]  B {median(vb):<11.6g} "
                  f"[{qb1:.6g}, {qb3:.6g}]  {v}")
    print(", ".join(f"{n} {k}" for k, n in sorted(counts.items())))
    return 1 if counts["worse"] or counts["unresolved"] else 0


# --------------------------------------------------------------------------
# Self-test: runs without a build.

def self_test(spec):
    failures = []

    def expect(what, got, want):
        ok = abs(got - want) < 1e-9 if isinstance(want, float) else got == want
        if not ok:
            failures.append(f"{what}: got {got!r}, want {want!r}")

    v = [7.0, 1.0, 3.0, 5.0, 9.0]
    expect("median", median(v), 5.0)
    expect("q1", quartiles(v)[0], 2.0)
    expect("q3", quartiles(v)[1], 8.0)
    expect("p50", percentile(v, 50), 5.0)
    expect("p90", percentile(v, 90), 8.2)
    expect("p90 of 1..101", percentile(list(range(1, 102)), 90), 91.0)

    # A host running at half the nominal speed: times halve, rates double.
    slow = {"setup_s": [0.002, 0.004, 0.006], "setup_ref": [4.0, 8.0, 8.0],
            "units": [["u", "d", 2.0, 1000, 8.0, 2]],
            "solve_ns_per_tick": [10.0, 20.0], "peak_rss_kb": 2048}
    e2e = end_to_end(slow)
    expect("scaled setup", e2e["setup_s"], 0.002)
    expect("scaled rate", e2e["ticks_per_s"], 1000.0)
    expect("scaled p50", e2e["solve_p50_ns_per_tick"], 7.5)
    expect("rss", e2e["peak_rss_mb"], 2.0)

    lower = {"name": "t", "unit": "s", "better": "lower", "bound": 0.1}
    higher = {"name": "r", "unit": "1/s", "better": "higher", "bound": 0.1}
    base = [10.0, 10.1, 10.2, 9.9, 10.0]
    expect("same", verdict(lower, base, list(base)), "within bound")
    expect("slower", verdict(lower, base, [x * 1.3 for x in base]), "worse")
    expect("faster", verdict(lower, base, [x * 0.7 for x in base]),
           "within bound")
    expect("lower rate", verdict(higher, base, [x * 0.8 for x in base]),
           "worse")
    expect("noisy", verdict(lower, base, [5.0, 10.0, 20.0, 8.0, 13.0]),
           "unresolved")

    # A traced run of 1000 ns: a root span [0, 900) holding a child
    # [100, 600) that made 10 timed problem calls worth 200 ns, on a clock
    # costing 2 ns per read.
    ops = {layer: {op: [0, 0] for op in ("propose", "accept", "reject",
                                         "descend", "snapshot", "restore",
                                         "randomize", "clone")}
           for layer in ("linarr", "tsp", "partition")}
    for layer in ops.values():
        layer["descend_ticks"] = 0
    ops["linarr"]["propose"] = [10, 200]
    trace = {"clock_ns": 2.0, "wall_ns": 1000,
             "spans": [["core::tune_scale", 0, 900, -1, 0, 0, 50, 0, 200, 10],
                       ["core::run_figure1", 100, 600, 0, 1, 0, 10, 0, 200,
                        10]],
             "ops": ops, "extras": {}}
    spans = [dict(zip(SPAN_FIELDS, s)) for s in trace["spans"]]
    expect("root self", self_times(spans, 2.0)[0], 400.0)
    expect("child self", self_times(spans, 2.0)[1], 280.0)
    m = layer_metrics(trace)
    expect("unattributed", m["bench.unattributed_pct"], 10.0)
    expect("propose ns", m["linarr.propose.ns"], 18.0)
    expect("figure1 ns/tick", m["core.figure1.ns_per_proposal"], 50.0)
    missing = [x["name"] for x in spec["per_layer"] if x["name"] not in m]
    expect("per-layer metrics computed", missing, [])

    # An injected golden mismatch must count as a failed check and make a
    # repeated set exit nonzero.
    result = {"workload": "paper_tables", "checks": 3, "failures": [],
              "inputs": ["a", "a"], "units": [["t41/g = 1", "x 1", 1.0, 5, 4.0, 1],
                                              ["t41/g = 1", "x 1", 1.0, 5, 4.0, 2]]}
    expect("clean", check_result(result, {"t41/g = 1": "x 1"})[:2], (7, 0))
    attempted, failed, _ = check_result(result, {"t41/g = 1": "x 2"})
    expect("mismatch counted", failed, 2)
    entry = {"metrics": {x["name"]: [1.0] for x in spec["end_to_end"]},
             "attempted": attempted, "failed": failed, "messages": []}
    with open(os.devnull, "w") as quiet:
        stdout, sys.stdout = sys.stdout, quiet
        try:
            code = summarize({"workloads": {"paper_tables": entry}}, spec)
        finally:
            sys.stdout = stdout
    expect("mismatch exit code", code, 1)

    for failure in failures:
        print("self-test FAILED: " + failure)
    print(f"self-test: {'FAILED' if failures else 'ok'}")
    return 1 if failures else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1985)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--trace-layers", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.self_test:
        return self_test(spec)
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload:
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            parser.error(f"unknown workload {args.workload}")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        return single(args, spec)
    return repeated(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
