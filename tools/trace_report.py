#!/usr/bin/env python3
"""Offline reporting and validation for mcopt JSONL traces.

The bench drivers (``--trace FILE``) and the obs::JsonlFileSink emit one
event per line with a fixed key order::

    {"event":"accept","run":0,"restart":3,"worker":1,"tick":412,
     "stage":2,"cost":71,"best":68}

``stage_begin`` events carry an extra ``"reason"`` key.  Two consumers live
here:

* the default report: an acceptance-rate-vs-stage table, a cost-vs-tick
  table (progress of the sampled proposal stream over the run), and a
  restart / new-best summary — the §4 analysis loops of the paper, driven
  from a trace instead of a rerun;
* ``--validate``: a strict schema check of every line, used by CI on a
  traced smoke workload.  Exit status 1 on the first malformed file.

Beyond traces, it renders the other observability exports:

* ``--metrics FILE``: the ``--metrics-out`` JSON — summary counters, the
  per-stage proposal-mix table, and the uphill-Δcost histograms as
  per-bucket bar charts;
* ``--profile FILE``: the ``--profile-out`` JSON — the hierarchical stage
  profile as an indented tree with per-node tick shares;
* ``--prom FILE``: validates a ``--prom-out`` Prometheus text exposition
  (HELP/TYPE before samples, contiguous families, parseable samples).

The event kinds, stage reasons and ``mcopt_`` families that ``--validate``
and ``--prom`` accept are read from ``src/obs/schema.def`` (found relative
to this file), the list the C++ side is generated from.

Determinism contract (see src/obs/event.hpp): every field except
``worker`` — and ``worker_steal`` events entirely — is a pure function of
the seed.  Cross-thread-count comparisons must ignore both; ``--validate``
checks shape, not worker placement.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from collections import defaultdict
from typing import NamedTuple

SCHEMA_DEF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "src", "obs", "schema.def")

# One X-macro entry of schema.def: its macro, wire name and first flag.
SCHEMA_ENTRY = re.compile(
    r'^MCOPT_(EVENT_KIND|STAGE_REASON|COUNTER|GAUGE|HISTOGRAM)\(\s*\w+\s*,'
    r'\s*"([^"]+)"\s*,\s*(true|false)\b', re.MULTILINE)


class Schema(NamedTuple):
    """The trace and metric vocabulary declared in src/obs/schema.def."""
    event_kinds: dict[str, bool]     # wire name -> deterministic
    stage_reasons: frozenset[str]    # reasons a stage_begin line may carry
    families: frozenset[str]         # Prometheus family names


@functools.cache
def schema() -> Schema:
    """Parses src/obs/schema.def, the one schema source the C++ side is
    generated from, so the accepted vocabulary cannot drift from it."""
    with open(SCHEMA_DEF, encoding="utf-8") as handle:
        entries = SCHEMA_ENTRY.findall(handle.read())
    kinds = {name: flag == "true" for macro, name, flag in entries
             if macro == "EVENT_KIND"}
    reasons = frozenset(name for macro, name, flag in entries
                        if macro == "STAGE_REASON" and flag == "true")
    families = frozenset(name for macro, name, _ in entries
                         if macro not in ("EVENT_KIND", "STAGE_REASON"))
    if not (kinds and reasons and families):
        raise OSError(f"{SCHEMA_DEF}: no schema entries found")
    return Schema(kinds, reasons, families)


REQUIRED_KEYS = ("event", "run", "restart", "worker", "tick", "stage",
                 "cost", "best")

INT_KEYS = ("run", "restart", "worker", "tick", "stage")
NUM_KEYS = ("cost", "best")


def validate_line(lineno: int, line: str) -> list[str]:
    """Returns the schema violations for one JSONL line (empty if clean)."""
    try:
        event = json.loads(line)
    except json.JSONDecodeError as err:
        return [f"line {lineno}: not valid JSON: {err}"]
    if not isinstance(event, dict):
        return [f"line {lineno}: not a JSON object"]
    errors = []
    for key in REQUIRED_KEYS:
        if key not in event:
            errors.append(f"line {lineno}: missing key '{key}'")
    kind = event.get("event")
    if kind is not None and kind not in schema().event_kinds:
        errors.append(f"line {lineno}: unknown event kind '{kind}'")
    for key in INT_KEYS:
        value = event.get(key)
        if value is not None and (isinstance(value, bool)
                                  or not isinstance(value, int)):
            errors.append(f"line {lineno}: '{key}' must be an integer, "
                          f"got {value!r}")
    for key in NUM_KEYS:
        value = event.get(key)
        if value is not None and (isinstance(value, bool)
                                  or not isinstance(value, (int, float))):
            errors.append(f"line {lineno}: '{key}' must be a number, "
                          f"got {value!r}")
    if kind == "stage_begin":
        reason = event.get("reason")
        reasons = schema().stage_reasons
        if reason not in reasons:
            errors.append(f"line {lineno}: stage_begin reason {reason!r} "
                          f"not in {sorted(reasons)}")
    elif "reason" in event:
        errors.append(f"line {lineno}: '{kind}' must not carry 'reason'")
    extra = set(event) - set(REQUIRED_KEYS) - {"reason"}
    if extra:
        errors.append(f"line {lineno}: unexpected keys {sorted(extra)}")
    return errors


def load_events(path: str):
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as err:
                raise SystemExit(f"{path}:{lineno}: not valid JSON: {err}")
    return events


def print_table(headers, rows):
    widths = [len(h) for h in headers]
    str_rows = [[str(c) for c in row] for row in rows]
    for row in str_rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    def fmt(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    print(fmt(headers))
    print(fmt(["-" * w for w in widths]))
    for row in str_rows:
        print(fmt(row))
    print()


def report(path: str, events, buckets: int) -> None:
    print(f"{path}: {len(events)} events")
    kinds = defaultdict(int)
    for event in events:
        kinds[event["event"]] += 1
    print("  " + "  ".join(f"{k}={v}" for k, v in sorted(kinds.items())))
    print()

    # Acceptance rate vs stage, from the sampled accept/reject stream.
    per_stage = defaultdict(lambda: {"accept": 0, "reject": 0, "begin": 0})
    for event in events:
        kind = event["event"]
        if kind in ("accept", "reject"):
            per_stage[event["stage"]][kind] += 1
        elif kind == "stage_begin":
            per_stage[event["stage"]]["begin"] += 1
    if per_stage:
        print("Acceptance rate vs stage (sampled accept/reject events):")
        rows = []
        for stage in sorted(per_stage):
            s = per_stage[stage]
            decided = s["accept"] + s["reject"]
            rate = f"{s['accept'] / decided:.3f}" if decided else "-"
            rows.append([stage, s["begin"], s["accept"], s["reject"], rate])
        print_table(["stage", "entries", "accepts", "rejects", "rate"], rows)

    # Cost vs tick: bucket the sampled proposal stream over the tick range.
    proposals = [e for e in events if e["event"] == "proposal_sampled"]
    if proposals:
        max_tick = max(e["tick"] for e in proposals)
        span = max(max_tick, 1)
        stats = defaultdict(lambda: {"n": 0, "sum": 0.0, "best": float("inf")})
        for event in proposals:
            bucket = min((event["tick"] * buckets) // (span + 1), buckets - 1)
            s = stats[bucket]
            s["n"] += 1
            s["sum"] += event["cost"]
            s["best"] = min(s["best"], event["best"])
        print("Cost vs tick (sampled proposals, bucketed):")
        rows = []
        for bucket in sorted(stats):
            s = stats[bucket]
            lo = bucket * span // buckets
            hi = (bucket + 1) * span // buckets
            rows.append([f"{lo}..{hi}", s["n"], f"{s['sum'] / s['n']:.2f}",
                         f"{s['best']:g}"])
        print_table(["ticks", "samples", "mean cost", "best so far"], rows)

    # Restart / new-best summary per run.
    runs = defaultdict(lambda: {"restarts": 0, "new_bests": 0,
                                "best": float("inf"), "steals": 0})
    for event in events:
        r = runs[event["run"]]
        kind = event["event"]
        if kind == "restart_begin":
            r["restarts"] += 1
        elif kind == "new_best":
            r["new_bests"] += 1
            r["best"] = min(r["best"], event["best"])
        elif kind == "worker_steal":
            r["steals"] += 1
    if runs:
        print("Per-run summary:")
        rows = []
        for run in sorted(runs):
            r = runs[run]
            best = f"{r['best']:g}" if r["best"] != float("inf") else "-"
            rows.append([run, r["restarts"], r["new_bests"], best,
                         r["steals"]])
        print_table(["run", "restarts", "new bests", "final best", "steals"],
                    rows)


def histogram_rows(hist: dict) -> list[list[str]]:
    """Per-bucket rows from the cumulative `buckets` array of a LogHistogram."""
    rows = []
    prev_cum = 0
    total = hist.get("count", 0)
    for bucket in hist.get("buckets", []):
        cum = bucket["count"]
        in_bucket = cum - prev_cum
        prev_cum = cum
        if bucket["le"] == "+Inf" and in_bucket == 0:
            continue
        share = in_bucket / total if total else 0.0
        bar = "#" * round(share * 40)
        rows.append([f"<= {bucket['le']}", str(in_bucket),
                     f"{100.0 * share:.1f}%", bar])
    return rows


def report_metrics(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        metrics = json.load(handle)
    print(f"{path}: metrics summary")
    for key in ("restarts", "new_bests", "patience_resets", "trace_events",
                "invariant_checks", "worker_steals", "wall_seconds"):
        if key in metrics:
            print(f"  {key} = {metrics[key]}")
    print()
    stages = metrics.get("stages", [])
    if stages:
        print("Per-stage proposal mix:")
        rows = []
        for s in stages:
            rows.append([s["stage"], s["proposals"], s["accepts"],
                         f"{s.get('acceptance_rate', 0.0):.3f}",
                         s.get("downhill_proposals", 0),
                         s.get("sideways_proposals", 0),
                         s.get("uphill_proposals", 0),
                         s.get("uphill_accepts", 0)])
        print_table(["stage", "proposals", "accepts", "rate", "downhill",
                     "sideways", "uphill", "uphill acc"], rows)
    observables = [o for o in metrics.get("observables", [])
                   if o.get("samples")]
    if observables:
        print("Per-stage thermodynamic observables:")
        rows = []
        for o in observables:
            temp = o.get("temperature", 0.0)
            rho1 = (o.get("autocorrelation") or [0.0])[0]
            rows.append([o["stage"], o["samples"],
                         f"{o.get('cost_mean', 0.0):.2f}",
                         f"{o.get('cost_variance', 0.0):.2f}",
                         f"{temp:g}" if temp > 0 else "-",
                         f"{o.get('specific_heat', 0.0):.2f}"
                         if temp > 0 else "-",
                         f"{rho1:.3f}",
                         o.get("equilibrated_runs", 0)])
        print_table(["stage", "samples", "mean E", "var E", "T", "C",
                     "rho1", "equilibrated"], rows)
    for name in ("uphill_delta_proposed", "uphill_delta_accepted"):
        hist = metrics.get(name)
        if not hist or not hist.get("count"):
            continue
        mean = hist["sum"] / hist["count"]
        print(f"{name}: n={hist['count']} sum={hist['sum']:g} "
              f"mean={mean:.2f}")
        print_table(["Δcost", "count", "share", ""], histogram_rows(hist))
    return 0


def print_profile_tree(nodes, indent: int, parent_ticks) -> None:
    for node in nodes:
        ticks = node.get("ticks", 0)
        share = (f"  ({100.0 * ticks / parent_ticks:.1f}%)"
                 if parent_ticks else "")
        wall = node.get("wall_ns")
        wall_str = f"  wall={wall / 1e9:.3f}s" if wall is not None else ""
        print(f"{'  ' * indent}{node['name']}: calls={node['calls']} "
              f"ticks={ticks}{share}{wall_str}")
        print_profile_tree(node.get("children", []), indent + 1, ticks)


def report_profile(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    roots = doc.get("profile", doc) if isinstance(doc, dict) else doc
    if not isinstance(roots, list):
        print(f"{path}: no 'profile' array found", file=sys.stderr)
        return 1
    print(f"{path}: stage profile")
    total = sum(node.get("ticks", 0) for node in roots)
    print_profile_tree(roots, 1, total if len(roots) > 1 else None)
    return 0


PROM_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
PROM_SAMPLE = re.compile(
    r"^(" + PROM_NAME + r")(\{[^}]*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$")
PROM_HELP = re.compile(r"^# HELP (" + PROM_NAME + r") (.*)$")
PROM_TYPE = re.compile(
    r"^# TYPE (" + PROM_NAME + r") (counter|gauge|histogram|summary)$")


def validate_prometheus(path: str) -> int:
    """Checks exposition-format shape: HELP/TYPE precede their samples and
    every family's lines are contiguous."""
    errors = []
    declared: dict[str, str] = {}
    seen_families: list[str] = []

    def family_of(name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in declared:
                return name[:-len(suffix)]
        return name

    samples = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# HELP "):
                match = PROM_HELP.match(line)
                if not match:
                    errors.append(f"line {lineno}: malformed HELP")
                continue
            if line.startswith("# TYPE "):
                match = PROM_TYPE.match(line)
                if not match:
                    errors.append(f"line {lineno}: malformed TYPE")
                    continue
                name = match.group(1)
                if name in declared:
                    errors.append(f"line {lineno}: duplicate TYPE for "
                                  f"'{name}' (family not contiguous)")
                if (name.startswith("mcopt_")
                        and name not in schema().families):
                    errors.append(f"line {lineno}: family '{name}' not in "
                                  f"src/obs/schema.def")
                declared[name] = match.group(2)
                seen_families.append(name)
                continue
            if line.startswith("#"):
                continue
            match = PROM_SAMPLE.match(line)
            if not match:
                errors.append(f"line {lineno}: unparseable sample: {line!r}")
                continue
            samples += 1
            family = family_of(match.group(1))
            if family not in declared:
                errors.append(f"line {lineno}: sample '{match.group(1)}' "
                              f"has no preceding TYPE")
            elif seen_families and seen_families[-1] != family:
                errors.append(f"line {lineno}: sample for '{family}' after "
                              f"family '{seen_families[-1]}' opened "
                              f"(families must be contiguous)")
            value = match.group(3)
            if declared.get(family) == "counter" and value.startswith("-"):
                errors.append(f"line {lineno}: negative counter value")
    if errors:
        for error in errors[:20]:
            print(f"{path}: {error}", file=sys.stderr)
        print(f"{path}: INVALID ({len(errors)} violation(s))",
              file=sys.stderr)
        return 1
    print(f"{path}: OK ({samples} samples, {len(declared)} families)")
    return 0


def validate(path: str) -> int:
    errors = []
    lines = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                errors.append(f"line {lineno}: blank line")
                continue
            lines += 1
            errors.extend(validate_line(lineno, line))
            if len(errors) >= 20:
                break
    if errors:
        for error in errors[:20]:
            print(f"{path}: {error}", file=sys.stderr)
        print(f"{path}: INVALID ({len(errors)}+ schema violation(s))",
              file=sys.stderr)
        return 1
    print(f"{path}: OK ({lines} events, schema valid)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("traces", nargs="*", help="JSONL trace file(s)")
    parser.add_argument("--validate", action="store_true",
                        help="strict schema check; exit 1 on any violation")
    parser.add_argument("--buckets", type=int, default=10,
                        help="tick buckets for the cost-vs-tick table")
    parser.add_argument("--metrics", metavar="FILE",
                        help="render a --metrics-out JSON summary")
    parser.add_argument("--profile", metavar="FILE",
                        help="render a --profile-out JSON tree")
    parser.add_argument("--prom", metavar="FILE",
                        help="validate a --prom-out Prometheus exposition")
    args = parser.parse_args(argv)
    if args.buckets < 1:
        parser.error("--buckets must be >= 1")
    if not args.traces and not (args.metrics or args.profile or args.prom):
        parser.error("nothing to do: give trace file(s) or one of "
                     "--metrics/--profile/--prom")
    status = 0
    try:
        if args.metrics:
            status = max(status, report_metrics(args.metrics))
        if args.profile:
            status = max(status, report_profile(args.profile))
        if args.prom:
            status = max(status, validate_prometheus(args.prom))
    except (OSError, json.JSONDecodeError, KeyError) as err:
        print(f"observability export: {err}", file=sys.stderr)
        status = max(status, 2)
    for path in args.traces:
        try:
            if args.validate:
                status = max(status, validate(path))
            else:
                report(path, load_events(path), args.buckets)
        except OSError as err:
            print(f"{path}: {err}", file=sys.stderr)
            status = max(status, 2)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
