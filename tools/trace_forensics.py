#!/usr/bin/env python3
"""Forensic comparison of two mcopt JSONL traces.

The determinism contract (src/obs/event.hpp) says two runs with the same
seed produce the same event stream regardless of thread count — except for
the ``worker`` field and ``worker_steal`` events, which record placement.
This tool turns that contract into a debugging instrument:

* **diff / bisect**: normalizes both streams (dropping the sanctioned
  nondeterminism unless ``--strict-worker``) and localizes the *first*
  diverging event — its index, kind, stage, tick, and exactly which fields
  differ, with a window of surrounding context from both traces.  When a
  refactor breaks bit-reproducibility this points at the first wrong
  proposal instead of a 100k-line diff.
* **replay** (``--replay``): walks each (run, restart) chain, seeding the
  current cost from ``restart_begin`` and applying ``accept`` events, and
  flags any event whose ``cost`` disagrees with the replayed value — a
  torn or reordered stream fails here even when both files are
  self-consistent.  Needs a full trace (``--trace-sample 1``): sampling
  strides drop accept events, which makes the replayed chain go stale.
* **observables** (``--observables``): renders a per-stage table (samples,
  mean/variance of the sampled cost, acceptance rate) from each trace so a
  divergence can be read in thermodynamic terms, mirroring the exact
  in-process statistics of src/obs/observables.hpp.

Exit status: 0 identical (after normalization), 1 divergence found,
2 usage or I/O error.  ``--self-test`` runs the built-in fixtures
(including an injected divergence that must be localized exactly).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import trace_report  # noqa: E402  (sibling module, needs the path tweak)


def normalize(events: list[dict], strict_worker: bool) -> list[dict]:
    """Strips the sanctioned nondeterminism from a stream.

    Unless ``strict_worker``, drops the events of nondeterministic kinds
    (``worker_steal``, per src/obs/schema.def) and the ``worker`` field —
    the two carve-outs of the determinism contract.  Returns copies; the
    input is not modified.
    """
    if strict_worker:
        return [dict(e) for e in events]
    kinds = trace_report.schema().event_kinds
    out = []
    for event in events:
        if not kinds.get(event.get("event"), True):
            continue
        copy = dict(event)
        copy.pop("worker", None)
        out.append(copy)
    return out


def event_brief(event: dict) -> str:
    kind = event.get("event", "?")
    parts = [f"run={event.get('run')}", f"restart={event.get('restart')}",
             f"stage={event.get('stage')}", f"tick={event.get('tick')}",
             f"cost={event.get('cost')}", f"best={event.get('best')}"]
    if "reason" in event:
        parts.append(f"reason={event['reason']}")
    return f"{kind}({', '.join(parts)})"


def first_divergence(a: list[dict], b: list[dict]):
    """Index of the first differing event, or None when the streams match.

    A length mismatch with a common prefix diverges at ``len(prefix)``.
    """
    for i, (ea, eb) in enumerate(zip(a, b)):
        if ea != eb:
            return i
    if len(a) != len(b):
        return min(len(a), len(b))
    return None


def differing_fields(a: dict, b: dict) -> list[str]:
    keys = sorted(set(a) | set(b))
    return [f"{k}: {a.get(k, '<absent>')!r} != {b.get(k, '<absent>')!r}"
            for k in keys if a.get(k) != b.get(k)]


def print_divergence(name_a: str, a: list[dict], name_b: str,
                     b: list[dict], index: int, context: int) -> None:
    print(f"DIVERGENCE at normalized event index {index}")
    ea = a[index] if index < len(a) else None
    eb = b[index] if index < len(b) else None
    if ea is None or eb is None:
        longer = name_a if eb is None else name_b
        extra = ea or eb
        print(f"  common prefix of {index} events; {longer} continues with:")
        print(f"    {event_brief(extra)}")
    else:
        print(f"  {name_a}: {event_brief(ea)}")
        print(f"  {name_b}: {event_brief(eb)}")
        for line in differing_fields(ea, eb):
            print(f"    field {line}")
    lo = max(0, index - context)
    hi = index + context + 1
    print(f"  context [{lo}..{hi}):")
    for i in range(lo, hi):
        sa = event_brief(a[i]) if i < len(a) else "<end of stream>"
        sb = event_brief(b[i]) if i < len(b) else "<end of stream>"
        marker = ">>" if i == index else "  "
        print(f"  {marker} [{i}] {name_a}: {sa}")
        print(f"  {marker} [{i}] {name_b}: {sb}")


def replay_costs(name: str, events: list[dict]) -> int:
    """Replays each (run, restart) cost chain; returns inconsistencies.

    ``restart_begin`` seeds the chain's current cost and each ``accept``
    moves it; any later event claiming a different pre-accept cost than
    the replay means the stream is internally inconsistent (reordered,
    truncated mid-restart, or torn by a crash dump).
    """
    current: dict = {}
    bad = 0
    for i, event in enumerate(events):
        kind = event.get("event")
        key = (event.get("run"), event.get("restart"))
        if kind == "restart_begin":
            current[key] = event.get("cost")
        elif kind == "accept":
            current[key] = event.get("cost")
        elif kind == "new_best" and key in current:
            # A new best is announced at the accepted cost.
            if event.get("cost") != current[key]:
                bad += 1
                if bad <= 5:
                    print(f"  {name}[{i}]: new_best cost "
                          f"{event.get('cost')} != replayed {current[key]}")
    if bad:
        print(f"  {name}: {bad} replay inconsistencies")
    return bad


def observables_table(name: str, events: list[dict]) -> None:
    """Per-stage sampled-cost statistics, the offline mirror of
    obs::StageObservables (over the *sampled* stream, so totals differ
    from the exact in-process accumulators under --trace-sample)."""
    stats = defaultdict(lambda: {"n": 0, "sum": 0.0, "sumsq": 0.0,
                                 "accepts": 0, "rejects": 0})
    for event in events:
        kind = event.get("event")
        stage = event.get("stage")
        if kind == "proposal_sampled":
            s = stats[stage]
            cost = float(event.get("cost", 0.0))
            s["n"] += 1
            s["sum"] += cost
            s["sumsq"] += cost * cost
        elif kind == "accept":
            stats[stage]["accepts"] += 1
        elif kind == "reject":
            stats[stage]["rejects"] += 1
    if not stats:
        print(f"{name}: no sampled events")
        return
    print(f"{name}: per-stage observables (sampled stream)")
    rows = []
    for stage in sorted(stats):
        s = stats[stage]
        n = s["n"]
        mean = s["sum"] / n if n else 0.0
        var = s["sumsq"] / n - mean * mean if n else 0.0
        decided = s["accepts"] + s["rejects"]
        rate = f"{s['accepts'] / decided:.3f}" if decided else "-"
        rows.append([stage, n, f"{mean:.2f}", f"{max(var, 0.0):.2f}", rate])
    trace_report.print_table(
        ["stage", "samples", "mean cost", "var cost", "acc rate"], rows)


def compare(path_a: str, path_b: str, strict_worker: bool, context: int,
            show_observables: bool, replay: bool) -> int:
    events_a = trace_report.load_events(path_a)
    events_b = trace_report.load_events(path_b)
    name_a = os.path.basename(path_a)
    name_b = os.path.basename(path_b)
    if name_a == name_b:
        name_a, name_b = path_a, path_b
    norm_a = normalize(events_a, strict_worker)
    norm_b = normalize(events_b, strict_worker)
    print(f"{name_a}: {len(events_a)} events ({len(norm_a)} normalized)")
    print(f"{name_b}: {len(events_b)} events ({len(norm_b)} normalized)")

    status = 0
    if replay:
        if replay_costs(name_a, norm_a) or replay_costs(name_b, norm_b):
            status = 1

    index = first_divergence(norm_a, norm_b)
    if index is None:
        print("IDENTICAL after normalization "
              f"({len(norm_a)} events compared)")
    else:
        print_divergence(name_a, norm_a, name_b, norm_b, index, context)
        status = 1

    if show_observables:
        print()
        observables_table(name_a, norm_a)
        observables_table(name_b, norm_b)
    return status


def _synthetic_trace(workers: tuple, with_steal: bool) -> list[dict]:
    """A small well-formed trace: one run, two restarts, two stages."""
    events = []

    def emit(kind, restart, worker, tick, stage, cost, best, reason=None):
        event = {"event": kind, "run": 0, "restart": restart,
                 "worker": worker, "tick": tick, "stage": stage,
                 "cost": cost, "best": best}
        if reason is not None:
            event["reason"] = reason
        events.append(event)

    for restart in (0, 1):
        worker = workers[restart]
        base = 100 + 10 * restart
        emit("restart_begin", restart, worker, 0, 0, base, base)
        emit("stage_begin", restart, worker, 0, 0, base, base,
             reason="start")
        cost = base
        for tick in range(1, 5):
            emit("proposal_sampled", restart, worker, tick, 0, cost, cost)
            if tick % 2 == 0:
                cost -= 1
                emit("accept", restart, worker, tick, 0, cost, cost)
                emit("new_best", restart, worker, tick, 0, cost, cost)
            else:
                emit("reject", restart, worker, tick, 0, cost, cost)
        emit("stage_begin", restart, worker, 5, 1, cost, cost,
             reason="slice")
        emit("proposal_sampled", restart, worker, 6, 1, cost, cost)
        emit("reject", restart, worker, 6, 1, cost, cost)
    if with_steal:
        events.insert(3, {"event": "worker_steal", "run": 0, "restart": 0,
                          "worker": 2, "tick": 0, "stage": 0,
                          "cost": 100, "best": 100})
    return events


def self_test() -> int:
    failures = []

    def check(condition: bool, label: str) -> None:
        if not condition:
            failures.append(label)

    # Worker placement and steal events are invisible by default...
    a = _synthetic_trace(workers=(1, 1), with_steal=False)
    b = _synthetic_trace(workers=(1, 2), with_steal=True)
    check(first_divergence(normalize(a, False), normalize(b, False)) is None,
          "worker normalization hides placement nondeterminism")
    # ... but --strict-worker sees them.
    check(first_divergence(normalize(a, True), normalize(b, True))
          is not None, "--strict-worker surfaces placement differences")

    # An injected divergence is localized at exactly the tampered index.
    norm_a = normalize(a, False)
    norm_c = normalize(_synthetic_trace(workers=(1, 1), with_steal=False),
                       False)
    inject_at = 7
    norm_c[inject_at]["cost"] += 1
    check(first_divergence(norm_a, norm_c) == inject_at,
          f"injected divergence localized at index {inject_at}")
    check(differing_fields(norm_a[inject_at], norm_c[inject_at])
          == [f"cost: {norm_a[inject_at]['cost']!r} != "
              f"{norm_c[inject_at]['cost']!r}"],
          "only the tampered field is reported")

    # A truncated stream diverges at the end of the common prefix.
    check(first_divergence(norm_a, norm_a[:-2]) == len(norm_a) - 2,
          "truncation diverges at the common-prefix length")

    # Every synthetic line satisfies the trace schema.
    import json
    for i, event in enumerate(a):
        errors = trace_report.validate_line(i + 1, json.dumps(event))
        check(not errors, f"synthetic event {i} schema-clean: {errors}")

    # The replay accepts a consistent stream and flags a tampered best.
    check(replay_costs("clean", norm_a) == 0, "replay of a clean stream")
    tampered = [dict(e) for e in norm_a]
    for event in tampered:
        if event["event"] == "new_best":
            event["cost"] += 5
            break
    check(replay_costs("tampered", tampered) > 0,
          "replay flags an inconsistent new_best")

    if failures:
        for failure in failures:
            print(f"self-test FAILED: {failure}", file=sys.stderr)
        return 1
    print("self-test OK (6 scenarios)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("traces", nargs="*",
                        help="exactly two JSONL trace files to compare")
    parser.add_argument("--strict-worker", action="store_true",
                        help="also compare worker fields and steal events")
    parser.add_argument("--observables", action="store_true",
                        help="render per-stage observables for both traces")
    parser.add_argument("--replay", action="store_true",
                        help="check each cost chain's internal consistency "
                        "(full traces only; sampling strides break it)")
    parser.add_argument("--context", type=int, default=3,
                        help="events of context around a divergence")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in fixtures and exit")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if len(args.traces) != 2:
        parser.error("expected exactly two trace files")
    if args.context < 0:
        parser.error("--context must be >= 0")
    try:
        return compare(args.traces[0], args.traces[1], args.strict_worker,
                       args.context, args.observables, args.replay)
    except (OSError, SystemExit) as err:
        if isinstance(err, SystemExit) and isinstance(err.code, int):
            raise
        print(f"trace_forensics: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
