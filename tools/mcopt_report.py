#!/usr/bin/env python3
"""Checks, summarizes, compares and renders mcopt's observability exports.

Reads both exports of the bench drivers, a JSONL trace (``--trace``, or the
crash dump of ``--flight-recorder``) and a run report (``--report-out``:
merged metrics, observables and stage profile, plus one profile per
worker), and the Prometheus text and timeline rendered from the report,
telling them apart by content; its subcommands are validate, summary,
diff, prom, timeline and self-test.  ``validate``, ``diff`` and ``prom``
read the event kinds, stage reasons and ``mcopt_`` families from
``src/obs/schema.def``, the list the C++ side is generated from.

``prom REPORT -o OUT`` writes the report as Prometheus text: one sample per
PROM_FIELDS row (per stage for the stage families), each family's HELP and
TYPE from schema.def, families in name order.  Numbers are copied as the
report spells them.

``diff A B`` applies the determinism contract (src/obs/event.hpp): every
trace field but ``worker``, and every event but the kinds schema.def marks
nondeterministic, is a pure function of the seed, so two runs of one seed
at any thread counts emit one stream once those are dropped (unless
``--strict-worker``).  It prints the first diverging event, the fields that
differ and its context.  ``--replay`` flags a ``new_best`` whose cost
disagrees with its replayed (run, restart) chain; it needs a full trace
(``--trace-sample 1``).

``timeline REPORT -o OUT`` writes a Chrome Trace Event file for
https://ui.perfetto.dev: lane (pid 0, tid 0) holds the aggregate tree, lane
(1, w) worker w's.  A profile node sums every call of a scope, so span
widths are measured wall time but positions are synthetic: read it as a
flame chart, not a schedule.

Exit status: 0 valid / identical, 1 invalid / divergent, 2 usage or I/O
error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import re
import sys
import tempfile
from collections import Counter, defaultdict
from typing import NamedTuple

SCHEMA_DEF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "src", "obs", "schema.def")

# One X-macro entry of schema.def: its macro, wire name, first flag and,
# for a metric family, its HELP text.
SCHEMA_ENTRY = re.compile(
    r'^MCOPT_(EVENT_KIND|STAGE_REASON|COUNTER|GAUGE|HISTOGRAM)\(\s*\w+\s*,'
    r'\s*"([^"]+)"\s*,\s*(true|false)\s*(?:,\s*"([^"]*)"\s*)?\)',
    re.MULTILINE)

# Tick ranges of the trace summary's per-tick-range table, and events of
# context either side of a divergence.
COST_BUCKETS = 10
DIVERGENCE_CONTEXT = 3
# Errors printed per invalid file.
MAX_ERRORS = 20


class Family(NamedTuple):
    """One Prometheus metric family of src/obs/schema.def."""
    type: str                        # counter, gauge or histogram
    deterministic: bool
    help: str


class Schema(NamedTuple):
    """The trace and metric vocabulary declared in src/obs/schema.def."""
    event_kinds: dict[str, bool]     # wire name -> deterministic
    stage_reasons: frozenset[str]    # reasons a stage_begin line may carry
    families: dict[str, Family]      # Prometheus family name -> entry


@functools.cache
def schema() -> Schema:
    """Parses src/obs/schema.def, the one schema source the C++ side is
    generated from, so the accepted vocabulary cannot drift from it."""
    with open(SCHEMA_DEF, encoding="utf-8") as handle:
        entries = SCHEMA_ENTRY.findall(handle.read())
    kinds = {name: flag == "true" for macro, name, flag, _ in entries
             if macro == "EVENT_KIND"}
    reasons = frozenset(name for macro, name, flag, _ in entries
                        if macro == "STAGE_REASON" and flag == "true")
    families = {name: Family(macro.lower(), flag == "true", help_text)
                for macro, name, flag, help_text in entries
                if macro not in ("EVENT_KIND", "STAGE_REASON")}
    if not (kinds and reasons and families):
        raise OSError(f"{SCHEMA_DEF}: no schema entries found")
    return Schema(kinds, reasons, families)


class UsageError(Exception):
    """A file this subcommand cannot handle (exit status 2)."""


def sniff(text: str):
    """(kind, payload): "trace" or "prom" with the text, "timeline" or
    "report" with the parsed document."""
    if not text.lstrip().startswith("{"):
        return ("prom" if text.strip() else "trace"), text
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return "trace", text  # several JSON lines
    for key, kind in (("traceEvents", "timeline"), ("stages", "report")):
        if isinstance(doc, dict) and key in doc:
            return kind, doc
    return "trace", text  # a one-line trace


def load(path: str, command: str, kinds) -> tuple:
    """sniff() of the file at `path`, which must be one of `kinds`."""
    with open(path, encoding="utf-8") as handle:
        kind, payload = sniff(handle.read())
    if kind not in kinds:
        raise UsageError(f"{path}: {command} takes no {kind} file")
    return kind, payload


def parse_events(path: str, text: str) -> list[dict]:
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as err:
            raise UsageError(f"{path}:{lineno}: not valid JSON: {err}")
    return events


def print_table(headers, rows) -> None:
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


def verdict(path: str, errors: list[str], ok: str) -> int:
    """Prints the first errors and INVALID, or `ok`; the exit status."""
    if not errors:
        print(f"{path}: OK ({ok})")
        return 0
    for error in errors[:MAX_ERRORS]:
        print(f"{path}: {error}", file=sys.stderr)
    print(f"{path}: INVALID ({len(errors)} violation(s))", file=sys.stderr)
    return 1


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_num(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# --- JSONL traces --------------------------------------------------------

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
    errors = [f"line {lineno}: missing key '{key}'"
              for key in REQUIRED_KEYS if key not in event]
    kind = event.get("event")
    if kind is not None and kind not in schema().event_kinds:
        errors.append(f"line {lineno}: unknown event kind '{kind}'")
    for keys, check, what in ((INT_KEYS, _is_int, "an integer"),
                              (NUM_KEYS, _is_num, "a number")):
        for key in keys:
            value = event.get(key)
            if value is not None and not check(value):
                errors.append(f"line {lineno}: '{key}' must be {what}, "
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


def validate_trace(path: str, text: str) -> int:
    errors = []
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        errors.extend(validate_line(lineno, line) if line.strip()
                      else [f"line {lineno}: blank line"])
        if len(errors) >= MAX_ERRORS:
            break
    return verdict(path, errors, f"{len(lines)} events, schema valid")


SAMPLED_FIELDS = {"stage_begin": "entries", "proposal_sampled": "samples",
                  "accept": "accepts", "reject": "rejects"}


def sampled_rows(events: list[dict], key) -> list[list]:
    """Per group of the events, `key(event)` naming the group: stage
    entries, the sampled cost's mean and variance, the best cost seen and
    the acceptance rate of the sampled accept/reject stream.  Grouped by
    stage, this is the offline mirror of obs::StageObservables over the
    *sampled* events, so its counts differ from the exact in-process ones
    under --trace-sample."""
    stats = defaultdict(lambda: defaultdict(float, best=float("inf")))
    for event in events:
        field = SAMPLED_FIELDS.get(event.get("event"))
        if field is None:
            continue
        s = stats[key(event)]
        s[field] += 1
        s["best"] = min(s["best"], event.get("best", s["best"]))
        if field == "samples":
            cost = float(event.get("cost", 0.0))
            s["sum"] += cost
            s["sumsq"] += cost * cost
    rows = []
    for group in sorted(stats):
        s = stats[group]
        n = s["samples"]
        mean = s["sum"] / n if n else 0.0
        var = max(s["sumsq"] / n - mean * mean, 0.0) if n else 0.0
        decided = s["accepts"] + s["rejects"]
        rows.append([group, int(s["entries"]), int(n),
                     f"{mean:.2f}" if n else "-", f"{var:.2f}" if n else "-",
                     f"{s['best']:g}", int(s["accepts"]),
                     int(s["rejects"]),
                     f"{s['accepts'] / decided:.3f}" if decided else "-"])
    return rows


def print_sampled_table(title: str, group: str, rows: list[list]) -> None:
    if rows:
        print(f"{title}:")
        print_table([group, "entries", "samples", "mean cost", "var cost",
                     "best", "accepts", "rejects", "rate"], rows)


def print_stage_table(name: str, events: list[dict]) -> None:
    print_sampled_table(f"{name}: per stage (sampled events)", "stage",
                        sampled_rows(events, lambda e: e.get("stage")))


def summarize_trace(path: str, text: str) -> None:
    events = parse_events(path, text)
    kinds = Counter(event["event"] for event in events)
    print(f"{path}: {len(events)} events")
    print("  " + "  ".join(f"{k}={v}" for k, v in sorted(kinds.items())))
    print()
    print_stage_table(path, events)
    # The same table over COST_BUCKETS equal tick ranges of the run.
    span = max([e["tick"] for e in events] + [1])
    rows = sampled_rows(events, lambda e: min(
        e["tick"] * COST_BUCKETS // (span + 1), COST_BUCKETS - 1))
    for row in rows:
        row[0] = f"{row[0] * span // COST_BUCKETS}.." \
                 f"{(row[0] + 1) * span // COST_BUCKETS}"
    print_sampled_table(f"{path}: per tick range (sampled events)", "ticks",
                        rows)

    runs = defaultdict(Counter)
    best: dict = {}
    for event in events:
        runs[event["run"]][event["event"]] += 1
        if event["event"] == "new_best":
            best[event["run"]] = min(best.get(event["run"], event["best"]),
                                     event["best"])
    print(f"{path}: per run")
    print_table(["run", "restarts", "new bests", "final best", "steals"],
                [[run, n["restart_begin"], n["new_best"],
                  f"{best[run]:g}" if run in best else "-",
                  n["worker_steal"]] for run, n in sorted(runs.items())])


# --- diff ----------------------------------------------------------------

def normalize(events: list[dict], strict_worker: bool) -> list[dict]:
    """Copies of `events` without the sanctioned nondeterminism: unless
    `strict_worker`, the events of kinds schema.def marks nondeterministic
    and every `worker` field are dropped."""
    if strict_worker:
        return [dict(e) for e in events]
    kinds = schema().event_kinds
    out = []
    for event in events:
        if kinds.get(event.get("event"), True):
            copy = dict(event)
            copy.pop("worker", None)
            out.append(copy)
    return out


def event_brief(event: dict) -> str:
    parts = [f"{key}={event.get(key)}" for key in
             ("run", "restart", "stage", "tick", "cost", "best")]
    if "reason" in event:
        parts.append(f"reason={event['reason']}")
    return f"{event.get('event', '?')}({', '.join(parts)})"


def first_divergence(a: list[dict], b: list[dict]):
    """Index of the first differing event, or None when the streams match;
    a stream that is a prefix of the other diverges at its length."""
    for i, (ea, eb) in enumerate(zip(a, b)):
        if ea != eb:
            return i
    return min(len(a), len(b)) if len(a) != len(b) else None


def differing_fields(a: dict, b: dict) -> list[str]:
    return [f"{k}: {a.get(k, '<absent>')!r} != {b.get(k, '<absent>')!r}"
            for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]


def print_divergence(name_a: str, a: list[dict], name_b: str,
                     b: list[dict], index: int) -> None:
    print(f"DIVERGENCE at normalized event index {index}")
    ea = a[index] if index < len(a) else None
    eb = b[index] if index < len(b) else None
    if ea is None or eb is None:
        print(f"  common prefix of {index} events; "
              f"{name_a if eb is None else name_b} continues with:")
        print(f"    {event_brief(ea or eb)}")
    else:
        print(f"  {name_a}: {event_brief(ea)}")
        print(f"  {name_b}: {event_brief(eb)}")
        for line in differing_fields(ea, eb):
            print(f"    field {line}")
    lo = max(0, index - DIVERGENCE_CONTEXT)
    hi = index + DIVERGENCE_CONTEXT + 1
    print(f"  context [{lo}..{hi}):")
    for i in range(lo, hi):
        marker = ">>" if i == index else "  "
        for name, events in ((name_a, a), (name_b, b)):
            brief = event_brief(events[i]) if i < len(events) \
                else "<end of stream>"
            print(f"  {marker} [{i}] {name}: {brief}")


def replay_costs(name: str, events: list[dict]) -> int:
    """Replays each (run, restart) cost chain; returns the inconsistencies.

    ``restart_begin`` seeds the chain's current cost and each ``accept``
    moves it; a ``new_best`` announced at a different cost means the stream
    is reordered, truncated mid-restart or torn by a crash dump.
    """
    current: dict = {}
    bad = 0
    for i, event in enumerate(events):
        kind = event.get("event")
        key = (event.get("run"), event.get("restart"))
        if kind in ("restart_begin", "accept"):
            current[key] = event.get("cost")
        elif kind == "new_best" and key in current \
                and event.get("cost") != current[key]:
            bad += 1
            if bad <= 5:
                print(f"  {name}[{i}]: new_best cost "
                      f"{event.get('cost')} != replayed {current[key]}")
    if bad:
        print(f"  {name}: {bad} replay inconsistencies")
    return bad


def diff(path_a: str, path_b: str, strict_worker: bool, replay: bool,
         observables: bool) -> int:
    events_a, events_b = (parse_events(p, load(p, "diff", ["trace"])[1])
                          for p in (path_a, path_b))
    name_a, name_b = os.path.basename(path_a), os.path.basename(path_b)
    if name_a == name_b:
        name_a, name_b = path_a, path_b
    norm_a = normalize(events_a, strict_worker)
    norm_b = normalize(events_b, strict_worker)
    print(f"{name_a}: {len(events_a)} events ({len(norm_a)} normalized)")
    print(f"{name_b}: {len(events_b)} events ({len(norm_b)} normalized)")
    status = 0
    if replay:
        bad = replay_costs(name_a, norm_a) + replay_costs(name_b, norm_b)
        status = 1 if bad else 0
    index = first_divergence(norm_a, norm_b)
    if index is None:
        print(f"IDENTICAL after normalization ({len(norm_a)} events "
              f"compared)")
    else:
        print_divergence(name_a, norm_a, name_b, norm_b, index)
        status = 1
    if observables:
        print()
        print_stage_table(name_a, norm_a)
        print_stage_table(name_b, norm_b)
    return status


# --- run reports ---------------------------------------------------------

def summarize_report(path: str, metrics: dict) -> None:
    print(f"{path}: metrics summary")
    for key in ("restarts", "new_bests", "patience_resets", "trace_events",
                "invariant_checks", "worker_steals", "wall_seconds"):
        if key in metrics:
            print(f"  {key} = {metrics[key]}")
    print()
    stages = metrics.get("stages", [])
    if stages:
        print("Per-stage proposal mix:")
        print_table(["stage", "proposals", "accepts", "rate", "downhill",
                     "sideways", "uphill", "uphill acc"],
                    [[s["stage"], s["proposals"], s["accepts"],
                      f"{s.get('acceptance_rate', 0.0):.3f}",
                      s.get("downhill_proposals", 0),
                      s.get("sideways_proposals", 0),
                      s.get("uphill_proposals", 0),
                      s.get("uphill_accepts", 0)] for s in stages])
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
                         f"{rho1:.3f}", o.get("equilibrated_runs", 0)])
        print_table(["stage", "samples", "mean E", "var E", "T", "C",
                     "rho1", "equilibrated"], rows)
    # The uphill-Δcost histograms, per bucket from the cumulative counts.
    for name in ("uphill_delta_proposed", "uphill_delta_accepted"):
        hist = metrics.get(name)
        if not hist or not hist.get("count"):
            continue
        total = hist["count"]
        print(f"{name}: n={total} sum={hist['sum']:g} "
              f"mean={hist['sum'] / total:.2f}")
        rows, below = [], 0
        for bucket in hist.get("buckets", []):
            count, below = bucket["count"] - below, bucket["count"]
            if bucket["le"] != "+Inf" or count:
                rows.append([f"<= {bucket['le']}", count,
                             f"{100.0 * count / total:.1f}%",
                             "#" * round(40 * count / total)])
        print_table(["Δcost", "count", "share", ""], rows)
    if metrics.get("profile"):
        summarize_profile(path, metrics)


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


def summarize_profile(path: str, doc: dict) -> None:
    roots = doc["profile"]
    print(f"{path}: stage profile")
    total = sum(node.get("ticks", 0) for node in roots)
    print_profile_tree(roots, 1, total if len(roots) > 1 else None)
    for worker in doc.get("workers", []):
        print(f"  worker {worker['worker']}:")
        print_profile_tree(worker["profile"], 2, None)


# --- Prometheus text -----------------------------------------------------

# The report's fields, by Prometheus family: (family, section, key).  A
# "run" field is one unlabelled sample; a "stages" or "observables" field
# one sample per element of that array, labelled {stage="i"}.  Every
# schema.def family has exactly one row (mapping_errors() checks).
PROM_FIELDS = (
    ("mcopt_restarts_total", "run", "restarts"),
    ("mcopt_new_bests_total", "run", "new_bests"),
    ("mcopt_patience_resets_total", "run", "patience_resets"),
    ("mcopt_trace_events_total", "run", "trace_events"),
    ("mcopt_invariant_checks_total", "run", "invariant_checks"),
    ("mcopt_invariant_seconds", "run", "invariant_seconds"),
    ("mcopt_wall_seconds", "run", "wall_seconds"),
    ("mcopt_worker_steals_total", "run", "worker_steals"),
    ("mcopt_uphill_delta_proposed", "run", "uphill_delta_proposed"),
    ("mcopt_uphill_delta_accepted", "run", "uphill_delta_accepted"),
    ("mcopt_stage_proposals_total", "stages", "proposals"),
    ("mcopt_stage_accepts_total", "stages", "accepts"),
    ("mcopt_stage_uphill_accepts_total", "stages", "uphill_accepts"),
    ("mcopt_stage_rejects_total", "stages", "rejects"),
    ("mcopt_stage_downhill_proposals_total", "stages", "downhill_proposals"),
    ("mcopt_stage_sideways_proposals_total", "stages", "sideways_proposals"),
    ("mcopt_stage_uphill_proposals_total", "stages", "uphill_proposals"),
    ("mcopt_stage_new_bests_total", "stages", "new_bests"),
    ("mcopt_stage_patience_fires_total", "stages", "patience_fires"),
    ("mcopt_stage_ticks_total", "stages", "ticks"),
    ("mcopt_stage_wall_seconds", "stages", "wall_seconds"),
    ("mcopt_stage_acceptance_rate", "stages", "acceptance_rate"),
    ("mcopt_stage_uphill_rate", "stages", "uphill_rate"),
    ("mcopt_stage_cost_samples_total", "observables", "samples"),
    ("mcopt_stage_cost_mean", "observables", "cost_mean"),
    ("mcopt_stage_cost_variance", "observables", "cost_variance"),
    ("mcopt_stage_temperature", "observables", "temperature"),
    ("mcopt_stage_specific_heat", "observables", "specific_heat"),
    # The report lists lags 1, 2, ...; the family is lag 1.
    ("mcopt_stage_autocorr_lag1", "observables", "autocorrelation"),
    ("mcopt_stage_equilibrated_total", "observables", "equilibrated_runs"),
)


def mapping_errors(fields=PROM_FIELDS) -> list[str]:
    """Families of schema.def without a row of `fields`, and rows naming no
    family."""
    named = {family for family, _, _ in fields}
    families = schema().families
    return ([f"schema.def family '{f}' has no PROM_FIELDS row"
             for f in families if f not in named] +
            [f"PROM_FIELDS row '{f}' names no schema.def family"
             for f in named if f not in families])


def histogram_lines(family: str, hist: dict) -> list[str]:
    """A report histogram (cumulative buckets up to its last non-empty one,
    then +Inf) as family_bucket / _sum / _count lines.  Finite buckets past
    the last one that adds a count are not listed."""
    finite = [b for b in hist["buckets"] if b["le"] != "+Inf"]
    while len(finite) > 1 and finite[-1]["count"] == finite[-2]["count"]:
        finite.pop()
    return ([f'{family}_bucket{{le="{b["le"]}"}} {b["count"]}'
             for b in finite] +
            [f'{family}_bucket{{le="+Inf"}} {hist["count"]}',
             f"{family}_sum {hist['sum']}", f"{family}_count {hist['count']}"])


def render_prometheus(text: str) -> str:
    """The Prometheus text of a run report's JSON `text`.  Samples sort by
    name, labels included, so each family's lines are contiguous and carry
    one HELP/TYPE pair.  Numbers stay the report's literals: the C++ writer
    (obs/json_number.hpp) already printed them as the exposition needs."""
    report = json.loads(text, parse_int=str, parse_float=str)
    samples = []  # (name with labels, family, lines)
    for family, section, key in PROM_FIELDS:
        if section == "run":
            value = report[key]
            lines = (histogram_lines(family, value)
                     if isinstance(value, dict) else [f"{family} {value}"])
            samples.append((family, family, lines))
            continue
        for i, row in enumerate(report[section]):
            value = row[key]
            if isinstance(value, list):
                value = value[0]
            name = f'{family}{{stage="{i}"}}'
            samples.append((name, family, [f"{name} {value}"]))
    out, last = [], None
    families = schema().families
    for _, family, lines in sorted(samples):
        if family != last:
            entry = families[family]
            out += [f"# HELP {family} {entry.help}",
                    f"# TYPE {family} {entry.type}"]
            last = family
        out += lines
    return "".join(line + "\n" for line in out)


def write_prometheus(report_path: str, out_path: str) -> int:
    load(report_path, "prom", ["report"])  # any other file: a usage error
    with open(report_path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        prom = render_prometheus(text)
    except (KeyError, IndexError, TypeError) as err:
        raise UsageError(f"{report_path}: not a run report ({err!r})")
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(prom)
    print(f"{out_path}: {len(prom.splitlines())} lines of Prometheus text")
    return 0


PROM_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
PROM_SAMPLE = re.compile(
    r"^(" + PROM_NAME + r")(\{[^}]*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$")
PROM_HELP = re.compile(r"^# HELP (" + PROM_NAME + r") (.*)$")
PROM_TYPE = re.compile(
    r"^# TYPE (" + PROM_NAME + r") (counter|gauge|histogram|summary)$")


def validate_prometheus(path: str, text: str) -> int:
    """Checks exposition-format shape: HELP/TYPE precede their samples,
    every family's lines are contiguous and every mcopt_ family is one
    schema.def declares."""
    errors = []
    declared: dict[str, str] = {}
    last_family = None

    def family_of(name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in declared:
                return name[:-len(suffix)]
        return name

    samples = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("# HELP "):
            if not PROM_HELP.match(line):
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
            if name.startswith("mcopt_") and name not in schema().families:
                errors.append(f"line {lineno}: family '{name}' not in "
                              f"src/obs/schema.def")
            declared[name] = match.group(2)
            last_family = name
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
        elif last_family != family:
            errors.append(f"line {lineno}: sample for '{family}' after "
                          f"family '{last_family}' opened "
                          f"(families must be contiguous)")
        if declared.get(family) == "counter" and match.group(3)[0] == "-":
            errors.append(f"line {lineno}: negative counter value")
    return verdict(path, errors,
                   f"{samples} samples, {len(declared)} families")


# --- Chrome Trace Event timelines ----------------------------------------

METADATA_NAMES = {"process_name", "thread_name"}
# Slack for float microsecond arithmetic in the nesting check.
EPSILON_US = 0.002


def render_timeline(doc: dict) -> list[dict]:
    """The traceEvents of a run report's profiles: lane (0, 0) carries the
    aggregate tree, lane (1, w) worker w's.  Each lane's roots lie end to
    end from 0 and a node's children pack from its start, so the
    profiler's child-sums-never-exceed-parent invariant keeps every child
    inside its parent.  ts and dur are microseconds; each lane's process
    and thread are named once."""
    events: list[dict] = []
    cursors: dict = defaultdict(int)  # lane -> end of its last root, ns
    named: set = set()

    def metadata(key, kind: str, pid: int, tid: int, label: str) -> None:
        if key not in named:
            named.add(key)
            events.append({"name": kind, "ph": "M", "pid": pid, "tid": tid,
                           "args": {"name": label}})

    def span(node: dict, pid: int, tid: int, start_ns: int) -> int:
        wall = node.get("wall_ns", 0)
        events.append({"name": node["name"], "ph": "X", "pid": pid,
                       "tid": tid, "cat": "profile", "ts": start_ns / 1000,
                       "dur": wall / 1000,
                       "args": {"calls": node["calls"],
                                "ticks": node["ticks"]}})
        for child in node.get("children", []):
            start_ns += span(child, pid, tid, start_ns)
        return wall

    lanes = [(0, 0, "mcopt aggregate profile", "all runs",
              doc.get("profile", []))]
    for worker in doc.get("workers", []):
        tid = worker["worker"]
        lanes.append((1, tid, "workers",
                      f"worker {tid}" if tid else "caller thread",
                      worker["profile"]))
    for pid, tid, process, thread, roots in lanes:
        if roots:
            metadata(pid, "process_name", pid, 0, process)
            metadata((pid, tid), "thread_name", pid, tid, thread)
        for root in roots:
            cursors[pid, tid] += span(root, pid, tid, cursors[pid, tid])
    return events


def timeline_json(events: list[dict]) -> str:
    """The Trace Event document, one event per line."""
    body = "".join(("," if i else "") + "\n    " +
                   json.dumps(event, ensure_ascii=False)
                   for i, event in enumerate(events))
    return ('{\n  "traceEvents": [' + body + ("\n  ]" if events else "]") +
            ',\n  "displayTimeUnit": "ms"\n}\n')


def write_timeline(report_path: str, out_path: str) -> int:
    events = render_timeline(load(report_path, "timeline", ["report"])[1])
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(timeline_json(events))
    print(f"{out_path}: {len(events)} events (open in ui.perfetto.dev)")
    return 0


def validate_event(i: int, event) -> list[str]:
    """Shape violations for one traceEvents entry (empty if clean)."""
    where = f"traceEvents[{i}]"
    if not isinstance(event, dict):
        return [f"{where}: not a JSON object"]
    errors = []
    name = event.get("name")
    if not isinstance(name, str) or not name:
        errors.append(f"{where}: 'name' must be a non-empty string")
    ph = event.get("ph")
    if ph not in ("X", "M"):
        return errors + [f"{where}: 'ph' must be 'X' or 'M', got {ph!r}"]
    for key in ("pid", "tid"):
        if not _is_int(event.get(key)) or event[key] < 0:
            errors.append(f"{where}: '{key}' must be a non-negative integer")
    if ph == "X":
        for key in ("ts", "dur"):
            value = event.get(key)
            if not _is_num(value):
                errors.append(f"{where}: 'X' event needs numeric '{key}'")
            elif value < 0:
                errors.append(f"{where}: '{key}' must be >= 0, got {value}")
        if not isinstance(event.get("cat"), str):
            errors.append(f"{where}: 'X' event needs a string 'cat'")
    else:
        if isinstance(name, str) and name not in METADATA_NAMES:
            errors.append(f"{where}: metadata name {name!r} not in "
                          f"{sorted(METADATA_NAMES)}")
        args = event.get("args")
        if not isinstance(args, dict) or not isinstance(args.get("name"),
                                                        str):
            errors.append(f"{where}: metadata needs args.name (string)")
    return errors


def lane_spans(events) -> dict:
    """(pid, tid) -> its well-formed X events, ordered so that an enclosing
    span comes before the spans it encloses."""
    lanes = defaultdict(list)
    for event in events:
        if isinstance(event, dict) and event.get("ph") == "X" \
                and _is_num(event.get("ts")) and _is_num(event.get("dur")):
            lanes[(event.get("pid"), event.get("tid"))].append(event)
    for spans in lanes.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
    return lanes


def nest(spans):
    """Yields (span, enclosing span or None) over one lane's sorted spans."""
    stack = []
    for event in spans:
        while stack and event["ts"] >= \
                stack[-1]["ts"] + stack[-1]["dur"] - EPSILON_US:
            stack.pop()
        yield event, (stack[-1] if stack else None)
        stack.append(event)


def validate_doc(doc) -> list[str]:
    """Shape violations of a Trace Event document, then any span that
    spills past the span enclosing it: on a lane, spans nest or are
    disjoint."""
    if not isinstance(doc, dict):
        return ["top level: not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["top level: missing 'traceEvents' array"]
    errors = []
    for i, event in enumerate(events):
        errors.extend(validate_event(i, event))
        if len(errors) >= MAX_ERRORS:
            return errors
    for (pid, tid), spans in lane_spans(events).items():
        for event, parent in nest(spans):
            end = event["ts"] + event["dur"]
            parent_end = parent["ts"] + parent["dur"] if parent else end
            if end > parent_end + EPSILON_US:
                errors.append(
                    f"lane pid={pid} tid={tid}: '{event.get('name')}' "
                    f"[{event['ts']:.3f}, {end:.3f}) spills past "
                    f"'{parent.get('name')}' (ends {parent_end:.3f})")
    return errors


def validate_timeline(path: str, doc) -> int:
    events = doc.get("traceEvents", []) if isinstance(doc, dict) else []
    lanes = lane_spans(events)
    spans = sum(len(s) for s in lanes.values())
    return verdict(path, validate_doc(doc),
                   f"{spans} spans on {len(lanes)} lane(s), "
                   f"{len(events) - spans} metadata records")


def summarize_timeline(path: str, doc: dict) -> int:
    """Per scope: spans, calls, total and self wall time (self = dur minus
    the direct children's)."""
    errors = validate_doc(doc)
    if errors:
        return verdict(path, errors, "")
    lanes = lane_spans(doc["traceEvents"])
    per_name = defaultdict(lambda: {"spans": 0, "calls": 0, "total": 0.0,
                                    "self": 0.0})
    for spans in lanes.values():
        for event, parent in nest(spans):
            stats = per_name[event["name"]]
            stats["spans"] += 1
            stats["calls"] += event.get("args", {}).get("calls", 0)
            stats["total"] += event["dur"]
            stats["self"] += event["dur"]
            if parent is not None:
                per_name[parent["name"]]["self"] -= event["dur"]
    print(f"{path}: {sum(s['spans'] for s in per_name.values())} spans, "
          f"{len(lanes)} lane(s)")
    print_table(["scope", "spans", "calls", "total ms", "self ms"],
                [[name, s["spans"], s["calls"], f"{s['total'] / 1e3:.3f}",
                  f"{max(s['self'], 0.0) / 1e3:.3f}"]
                 for name, s in sorted(per_name.items(),
                                       key=lambda kv: -kv[1]["self"])])
    return 0


# --- subcommands ---------------------------------------------------------

VALIDATORS = {"trace": validate_trace, "prom": validate_prometheus,
              "timeline": validate_timeline}
SUMMARIES = {"trace": summarize_trace, "report": summarize_report,
             "timeline": summarize_timeline}


def synthetic_trace(workers: tuple, with_steal: bool) -> list[dict]:
    """A small well-formed trace: one run, two restarts, two stages."""
    events = []

    def emit(kind, restart, tick, stage, cost, reason=None):
        event = {"event": kind, "run": 0, "restart": restart,
                 "worker": workers[restart], "tick": tick, "stage": stage,
                 "cost": cost, "best": cost}
        if reason is not None:
            event["reason"] = reason
        events.append(event)

    for restart in (0, 1):
        cost = 100 + 10 * restart
        emit("restart_begin", restart, 0, 0, cost)
        emit("stage_begin", restart, 0, 0, cost, reason="start")
        for tick in range(1, 5):
            emit("proposal_sampled", restart, tick, 0, cost)
            if tick % 2 == 0:
                cost -= 1
                emit("accept", restart, tick, 0, cost)
                emit("new_best", restart, tick, 0, cost)
            else:
                emit("reject", restart, tick, 0, cost)
        emit("stage_begin", restart, 5, 1, cost, reason="slice")
        emit("proposal_sampled", restart, 6, 1, cost)
        emit("reject", restart, 6, 1, cost)
    if with_steal:
        events.insert(3, {"event": "worker_steal", "run": 0, "restart": 0,
                          "worker": 2, "tick": 0, "stage": 0,
                          "cost": 100, "best": 100})
    return events


def profile_node(name: str, calls: int, ticks: int, wall_ns: int,
                 children=()) -> dict:
    return {"name": name, "calls": calls, "ticks": ticks, "wall_ns": wall_ns,
            "children": list(children)}


def synthetic_report(stages: int = 0, observables: int = 0) -> dict:
    """A run report shaped as RunMetrics::to_json writes it: every counter,
    gauge and histogram at zero, `stages` and `observables` zeroed rows."""
    families = schema().families
    sections = defaultdict(dict)
    for family, section, key in PROM_FIELDS:
        sections[section][key] = (
            {"count": 0, "sum": 0, "buckets": [{"le": "+Inf", "count": 0}]}
            if families[family].type == "histogram" else 0)
    sections["observables"]["autocorrelation"] = [0, 0]
    report = {"collected": True, **sections["run"]}
    for section, rows in (("stages", stages), ("observables", observables)):
        report[section] = [dict(sections[section], stage=i)
                           for i in range(rows)]
    return {**report, "profile": [], "workers": []}


def prom_lines(report: dict) -> list[str]:
    return render_prometheus(json.dumps(report)).splitlines()


SELF_TEST_CASES = ("diff", "timeline-validator", "empty", "packing",
                   "metadata", "lane-cursor", "escaping", "prom-headers",
                   "prom-histogram", "prom-labels", "prom-mapping",
                   "prom-non-report")


def self_test(case) -> int:
    """The diff, the validators and the renderer on built-in fixtures: one
    case of SELF_TEST_CASES, or all of them when `case` is None."""
    results = []

    def check(condition: bool, label: str) -> None:
        results.append((condition, label))

    # diff: worker placement and steal events are invisible by default,
    # --strict-worker sees them.
    if case in (None, "diff"):
        a = synthetic_trace(workers=(1, 1), with_steal=False)
        b = synthetic_trace(workers=(1, 2), with_steal=True)
        check(first_divergence(normalize(a, False), normalize(b, False))
              is None, "worker normalization hides placement nondeterminism")
        check(first_divergence(normalize(a, True), normalize(b, True))
              is not None, "--strict-worker surfaces placement differences")
        # An injected divergence is localized at exactly the tampered index,
        # naming only the tampered field.
        norm_a = normalize(a, False)
        norm_c = normalize(a, False)
        norm_c[7]["cost"] += 1
        check(first_divergence(norm_a, norm_c) == 7,
              "injected divergence localized at index 7")
        check(differing_fields(norm_a[7], norm_c[7])
              == [f"cost: {norm_a[7]['cost']!r} != {norm_c[7]['cost']!r}"],
              "only the tampered field is reported")
        check(first_divergence(norm_a, norm_a[:-2]) == len(norm_a) - 2,
              "truncation diverges at the common-prefix length")
        check(all(not validate_line(i + 1, json.dumps(e))
                  for i, e in enumerate(a)), "synthetic trace is schema-clean")
        check(replay_costs("clean", norm_a) == 0, "replay of a clean stream")
        tampered = [dict(e) for e in norm_a]
        next(e for e in tampered if e["event"] == "new_best")["cost"] += 5
        check(replay_costs("tampered", tampered) > 0,
              "replay flags an inconsistent new_best")
        rows = sampled_rows(norm_a, lambda e: e["stage"])
        check(rows == [[0, 2, 8, "104.50", "25.25", "98", 4, 4, "0.500"],
                       [1, 2, 2, "103.00", "25.00", "98", 0, 2, "0.000"]],
              f"per-stage table of the synthetic trace: {rows}")

    # The timeline validator passes a rendered file and catches one planted
    # violation of each class.
    run = profile_node("run", 2, 100, 10_000, [
        profile_node("sweep", 20, 0, 6_000),
        profile_node("swap", 40, 0, 3_000)])
    if case in (None, "timeline-validator"):
        clean = json.loads(timeline_json(render_timeline(
            {"profile": [run], "workers": [{"worker": 1, "profile": [run]}]})))
        check(not validate_doc(clean),
              f"clean timeline: {validate_doc(clean)}")
        plants = {
            "missing traceEvents": lambda d: d.pop("traceEvents"),
            "unknown phase": lambda d: d["traceEvents"][2].update(ph="B"),
            "negative dur": lambda d: d["traceEvents"][3].update(dur=-1.0),
            "missing ts": lambda d: d["traceEvents"][2].pop("ts"),
            "negative pid": lambda d: d["traceEvents"][2].update(pid=-1),
            "metadata without args.name":
                lambda d: d["traceEvents"][0].update(args={}),
            # swap [6, 11) against its parent's [0, 10).
            "child spills past parent":
                lambda d: d["traceEvents"][4].update(dur=5.0),
        }
        for label, plant in plants.items():
            doc = json.loads(json.dumps(clean))
            plant(doc)
            check(bool(validate_doc(doc)), f"timeline: {label} not caught")

    # The renderer: an empty profile renders an empty, valid document.
    if case in (None, "empty"):
        check(render_timeline({"profile": [], "workers": []}) == []
              and '"traceEvents": []' in timeline_json([]),
              "empty profile renders no events")
    # Children pack from the parent's start: run [0, 10), sweep [0, 6),
    # swap [6, 9) microseconds.
    if case in (None, "packing"):
        spans = [(e["name"], e["ts"], e["dur"], e["args"])
                 for e in render_timeline({"profile": [run]})
                 if e["ph"] == "X"]
        check(spans == [("run", 0.0, 10.0, {"calls": 2, "ticks": 100}),
                        ("sweep", 0.0, 6.0, {"calls": 20, "ticks": 0}),
                        ("swap", 6.0, 3.0, {"calls": 40, "ticks": 0})],
              f"children pack inside the parent: {spans}")
    # Each lane's process and thread are named once, independently (pid 1
    # and lane (1, 0) do not shadow each other), and a lane's trees lie end
    # to end while another lane starts at 0.
    events = render_timeline({"profile": [], "workers": [
        {"worker": 0, "profile": [run]}, {"worker": 0, "profile": [run, run]},
        {"worker": 4, "profile": [run]}]})
    if case in (None, "metadata"):
        check([(e["name"], e["tid"], e["args"]["name"]) for e in events
               if e["ph"] == "M"] == [("process_name", 0, "workers"),
                                      ("thread_name", 0, "caller thread"),
                                      ("thread_name", 4, "worker 4")],
              "metadata records are deduplicated per lane")
    if case in (None, "lane-cursor"):
        check([(e["tid"], e["ts"]) for e in events if e["name"] == "run"]
              == [(0, 0.0), (0, 10.0), (0, 20.0), (4, 0.0)],
              "a lane's cursor appends its trees end to end")
    # Scope names are JSON-escaped.
    if case in (None, "escaping"):
        odd = 'we"ird\\name\nline'
        text = timeline_json(render_timeline(
            {"profile": [profile_node(odd, 1, 1, 1_000)]}))
        check('we\\"ird\\\\name\\nline' in text
              and json.loads(text)["traceEvents"][2]["name"] == odd,
              "scope names are JSON-escaped")

    # prom: one HELP/TYPE pair per family, however many stages it labels,
    # and the rendered text passes the validator.
    if case in (None, "prom-headers"):
        report = synthetic_report(stages=3, observables=3)
        for row in report["stages"]:
            row["proposals"] = 10
        lines = prom_lines(report)
        family = "mcopt_stage_proposals_total"
        check([line for line in lines if line.startswith(family)] ==
              [f'{family}{{stage="{i}"}} 10' for i in range(3)],
              "three labelled samples of one family")
        check(lines.count(f"# TYPE {family} counter") == 1 and
              sum(line.startswith(f"# HELP {family} ") for line in lines)
              == 1, "one HELP/TYPE pair for the family")
        headers = Counter(line.split()[2] for line in lines
                          if line.startswith("# "))
        check(set(headers) == set(schema().families) and
              set(headers.values()) == {2},
              f"every family exactly one HELP and one TYPE: {headers}")
        with contextlib.redirect_stdout(io.StringIO()):
            status = validate_prometheus("rendered", "\n".join(lines))
        check(status == 0, "the rendered text validates")
    # prom: a histogram's cumulative buckets up to the last one that adds a
    # count, then +Inf, _sum and _count; one observation past the finite
    # buckets lists only the first.
    if case in (None, "prom-histogram"):
        report = synthetic_report()
        report["uphill_delta_proposed"] = {  # the values 1 and 3
            "count": 2, "sum": 4, "buckets": [
                {"le": 1, "count": 0}, {"le": 2, "count": 1},
                {"le": 4, "count": 2}, {"le": "+Inf", "count": 2}]}
        report["uphill_delta_accepted"] = {  # one value of at least 2^38
            "count": 1, "sum": 2 ** 40, "buckets": [
                {"le": 2 ** i, "count": 0} for i in range(39)] +
            [{"le": "+Inf", "count": 1}]}
        lines = prom_lines(report)
        h = "mcopt_uphill_delta_proposed"
        check(f"# TYPE {h} histogram" in lines, "histogram TYPE")
        check([line for line in lines if line.startswith(h)] ==
              [f'{h}_bucket{{le="1"}} 0', f'{h}_bucket{{le="2"}} 1',
               f'{h}_bucket{{le="4"}} 2', f'{h}_bucket{{le="+Inf"}} 2',
               f"{h}_sum 4", f"{h}_count 2"], "bucket, sum and count lines")
        a = "mcopt_uphill_delta_accepted"
        check([line for line in lines if line.startswith(a + "_bucket")] ==
              [f'{a}_bucket{{le="1"}} 0', f'{a}_bucket{{le="+Inf"}} 1'],
              "empty finite buckets past the last count are dropped")
    # prom: the stage families label each row by its index, observables
    # take autocorrelation lag 1, and schema.def keeps clocks and scheduling
    # out of the determinism contract.
    if case in (None, "prom-labels"):
        report = synthetic_report(stages=2, observables=2)
        report["restarts"] = 4
        report["stages"][1].update(proposals=100, uphill_proposals=60)
        report["observables"][1]["autocorrelation"] = [0.5, 0.25]
        lines = prom_lines(report)
        for line in ("mcopt_restarts_total 4",
                     'mcopt_stage_proposals_total{stage="1"} 100',
                     'mcopt_stage_uphill_proposals_total{stage="1"} 60',
                     'mcopt_stage_autocorr_lag1{stage="1"} 0.5'):
            check(line in lines, f"sample {line!r}")
        families = schema().families
        check(not families["mcopt_wall_seconds"].deterministic and
              not families["mcopt_worker_steals_total"].deterministic and
              families["mcopt_restarts_total"].deterministic,
              "clocks and steals are nondeterministic families")
    # prom: every schema.def family has one PROM_FIELDS row and every row
    # names a family; a dropped or an invented row is caught.
    if case in (None, "prom-mapping"):
        check(mapping_errors() == [], f"mapping: {mapping_errors()}")
        check(bool(mapping_errors(PROM_FIELDS[1:])), "a dropped row")
        check(bool(mapping_errors(PROM_FIELDS + (
            ("mcopt_planted_total", "run", "restarts"),))), "an invented row")
    # prom: a file that is not a run report is a usage error with a message.
    if case in (None, "prom-non-report"):
        with tempfile.TemporaryDirectory() as tmp:
            trace = os.path.join(tmp, "trace.jsonl")
            partial = os.path.join(tmp, "partial.json")
            with open(trace, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(synthetic_trace((0, 0), False)[0]))
            with open(partial, "w", encoding="utf-8") as handle:
                handle.write(json.dumps({"stages": []}))
            for path, message in ((trace, "prom takes no trace file"),
                                  (partial, "not a run report")):
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    status = main(["prom", path, "-o",
                                   os.path.join(tmp, "prom.txt")])
                text = err.getvalue()
                check(status != 0 and message in text,
                      f"prom {os.path.basename(path)}: exit {status}, "
                      f"{text!r}")

    failures = [label for ok, label in results if not ok]
    for failure in failures:
        print(f"self-test FAILED: {failure}", file=sys.stderr)
    print(f"self-test {'FAILED' if failures else 'OK'} ({len(results)} "
          f"checks)")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("validate", help="check a trace, flight dump, "
                        "Prometheus text or timeline").add_argument(
                            "files", nargs="+")
    commands.add_parser("summary", help="tables for a trace, run report "
                        "or timeline").add_argument("files", nargs="+")
    diff_parser = commands.add_parser("diff", help="first diverging event "
                                      "of two traces")
    diff_parser.add_argument("trace_a")
    diff_parser.add_argument("trace_b")
    for flag, help_text in (
            ("--strict-worker", "also compare worker fields and steals"),
            ("--replay", "check each cost chain (full traces only)"),
            ("--observables", "print both traces' per-stage tables")):
        diff_parser.add_argument(flag, action="store_true", help=help_text)
    for name, help_text, output in (
            ("prom", "render a --report-out file as Prometheus text",
             "Prometheus text file to write"),
            ("timeline", "render a --report-out file for Perfetto",
             "Chrome Trace Event file to write")):
        render_parser = commands.add_parser(name, help=help_text)
        render_parser.add_argument("report")
        render_parser.add_argument("-o", dest="output", required=True,
                                   help=output)
    commands.add_parser("self-test", help="run the built-in fixtures"
                        ).add_argument("case", nargs="?",
                                       choices=SELF_TEST_CASES)
    args = parser.parse_args(argv)
    try:
        if args.command == "self-test":
            return self_test(args.case)
        if args.command == "diff":
            return diff(args.trace_a, args.trace_b, args.strict_worker,
                        args.replay, args.observables)
        if args.command == "prom":
            return write_prometheus(args.report, args.output)
        if args.command == "timeline":
            return write_timeline(args.report, args.output)
        handlers = VALIDATORS if args.command == "validate" else SUMMARIES
        status = 0
        for path in args.files:
            kind, payload = load(path, args.command, handlers)
            status = max(status, handlers[kind](path, payload) or 0)
        return status
    except (OSError, UsageError, json.JSONDecodeError, KeyError,
            TypeError) as err:
        print(f"mcopt_report: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
