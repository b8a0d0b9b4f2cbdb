#!/usr/bin/env python3
"""Bench-regression gate: diff fresh BENCH_*.json against committed baselines.

Bench drivers write machine-readable reports (today one, BENCH_hotloop.json
from bench/hotloop) via bench::Driver::write_json.  The repo commits one
baseline per report at the repository root; CI reruns the bench and feeds
the fresh file through this gate::

    python3 tools/bench_compare.py --baseline-dir . fresh/BENCH_hotloop.json

Four field classes, chosen by key name so new benches gate themselves
without per-bench schemas:

* **deterministic** (everything not listed below) — must be *exactly*
  equal.  ``best_cost``, ``restarts``, ``trace_events_in_parallel_check``,
  ``total_budget``, ``seed`` ... are pure functions of the seed, so any
  drift is a real behaviour change, not noise.
* **bool gates** (``gate_ok``, ``*_identical``, ``*_bit_identical``) — a
  ``true`` baseline must stay ``true``; ``false -> true`` is an
  improvement and only prompts a baseline refresh note.
* **perf** (``seconds``, ``proposals_per_sec``, ``overhead_pct``, ...) —
  compared with a relative tolerance band (``--perf-tolerance``, default
  50% to absorb shared-runner noise) in the slower/worse direction only.
  ``--perf-warn-only`` downgrades perf violations to warnings, which is
  how CI runs until the runners are quiet enough to enforce.
* **spread** (``*_min``, ``*_max``: the extremes over a bench's reps, such
  as ``overhead_pct_min``) — reported when they move, never gated.  An
  extreme of a handful of noisy reps swings by more than any band from
  one run to the next, while the median beside it is what the gate reads.

Keys that describe the machine rather than the run
(``hardware_concurrency``) are ignored.

A fresh report with no committed baseline is *seeding mode*: warn and
exit 0, so adding a bench never breaks the gate it will later feed.
``--self-test`` injects synthetic regressions of each class and requires
the gate to catch all of them (and to pass the clean cases).
Exit status: 0 clean/warnings, 1 regression, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Keys whose values depend on wall-clock or machine load: banded compare.
PERF_KEY_PARTS = (
    "seconds",
    "proposals_per_sec",
    "overhead_pct",
    "speedup",
    "efficiency",
)

# Keys that describe the machine, not the run: ignored entirely.
ENV_KEYS = {"hardware_concurrency"}

# Perf metrics where *larger* is worse (times, overheads).  Everything
# else perf-classified (throughput, speedup, efficiency) is
# smaller-is-worse.
LARGER_IS_WORSE_PARTS = ("seconds", "overhead_pct")


def classify(key: str):
    if key in ENV_KEYS:
        return "env"
    if key.endswith(("_min", "_max")):
        return "spread"
    if any(part in key for part in PERF_KEY_PARTS):
        return "perf"
    return "exact"


def is_worse(key: str, base: float, fresh: float, tolerance_pct: float) -> bool:
    """True when `fresh` regressed past the tolerance band vs `base`."""
    larger_worse = any(part in key for part in LARGER_IS_WORSE_PARTS)
    band = abs(base) * tolerance_pct / 100.0
    if larger_worse:
        return fresh > base + band
    return fresh < base - band


class Diff:
    def __init__(self) -> None:
        self.failures: list[str] = []
        self.warnings: list[str] = []
        self.notes: list[str] = []

    def fail(self, msg: str) -> None:
        self.failures.append(msg)

    def warn(self, msg: str) -> None:
        self.warnings.append(msg)

    def note(self, msg: str) -> None:
        self.notes.append(msg)


def compare_values(path: str, base, fresh, tolerance_pct: float,
                   perf_warn_only: bool, diff: Diff) -> None:
    if isinstance(base, dict) and isinstance(fresh, dict):
        compare_objects(path, base, fresh, tolerance_pct, perf_warn_only, diff)
        return
    if isinstance(base, list) and isinstance(fresh, list):
        if len(base) != len(fresh):
            diff.fail(f"{path}: row count changed "
                      f"({len(base)} -> {len(fresh)})")
            return
        for i, (b, f) in enumerate(zip(base, fresh)):
            compare_values(f"{path}[{i}]", b, f, tolerance_pct,
                           perf_warn_only, diff)
        return

    key = path.rsplit(".", 1)[-1].split("[")[0]
    kind = classify(key)
    if kind == "env":
        return
    if kind == "spread":
        if base != fresh:
            diff.note(f"{path}: spread {base!r} -> {fresh!r} (not gated)")
        return
    if isinstance(base, bool) or isinstance(fresh, bool):
        if base is True and fresh is not True:
            diff.fail(f"{path}: gate regressed true -> {fresh!r}")
        elif base is False and fresh is True:
            diff.warn(f"{path}: improved false -> true "
                      f"(refresh the baseline to lock it in)")
        return
    if kind == "perf":
        if not isinstance(base, (int, float)) or not isinstance(
                fresh, (int, float)):
            diff.fail(f"{path}: perf field type changed "
                      f"({base!r} -> {fresh!r})")
        elif is_worse(key, float(base), float(fresh), tolerance_pct):
            msg = (f"{path}: perf regressed beyond {tolerance_pct:g}% "
                   f"({base!r} -> {fresh!r})")
            diff.warn(msg) if perf_warn_only else diff.fail(msg)
        return
    if base != fresh:
        diff.fail(f"{path}: deterministic field changed "
                  f"({base!r} -> {fresh!r})")


def compare_objects(path: str, base: dict, fresh: dict, tolerance_pct: float,
                    perf_warn_only: bool, diff: Diff) -> None:
    for key in base:
        child = f"{path}.{key}" if path else key
        if key not in fresh:
            diff.fail(f"{child}: missing from fresh report")
            continue
        compare_values(child, base[key], fresh[key], tolerance_pct,
                       perf_warn_only, diff)
    for key in fresh:
        if key not in base:
            child = f"{path}.{key}" if path else key
            diff.warn(f"{child}: new field not in baseline "
                      f"(refresh the baseline)")


def compare_docs(base: dict, fresh: dict, tolerance_pct: float,
                 perf_warn_only: bool) -> Diff:
    diff = Diff()
    compare_objects("", base, fresh, tolerance_pct, perf_warn_only, diff)
    return diff


def compare_file(fresh_path: str, baseline_dir: str, tolerance_pct: float,
                 perf_warn_only: bool) -> int:
    name = os.path.basename(fresh_path)
    baseline_path = os.path.join(baseline_dir, name)
    if not os.path.exists(baseline_path):
        print(f"{name}: no committed baseline at {baseline_path} — "
              f"seeding mode, commit the fresh report to enable the gate")
        return 0
    try:
        with open(baseline_path, encoding="utf-8") as handle:
            base = json.load(handle)
        with open(fresh_path, encoding="utf-8") as handle:
            fresh = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print(f"{name}: {err}", file=sys.stderr)
        return 2
    diff = compare_docs(base, fresh, tolerance_pct, perf_warn_only)
    for msg in diff.notes:
        print(f"{name}: INFO {msg}")
    for msg in diff.warnings:
        print(f"{name}: WARN {msg}")
    for msg in diff.failures:
        print(f"{name}: FAIL {msg}", file=sys.stderr)
    if diff.failures:
        print(f"{name}: REGRESSION ({len(diff.failures)} failure(s))",
              file=sys.stderr)
        return 1
    print(f"{name}: OK ({len(diff.warnings)} warning(s))")
    return 0


def self_test() -> int:
    """Synthetic regressions of every class must be caught."""
    base = {
        "bench": "selftest",
        "seed": 1985,
        "best_cost": 60.0,
        "gate_ok": True,
        "was_false": False,
        "hardware_concurrency": 1,
        "off_overhead_pct": 1.0,
        "configs": [
            {"name": "off", "seconds": 1.00, "proposals_per_sec": 1000.0,
             "overhead_pct": 1.0, "overhead_pct_min": -12.573,
             "overhead_pct_max": 19.9},
            {"name": "on", "seconds": 1.10, "proposals_per_sec": 900.0},
        ],
    }

    def mutated(**top):
        doc = json.loads(json.dumps(base))
        doc.update(top)
        return doc

    failures = []

    def expect(label: str, fresh: dict, want_fail: bool,
               perf_warn_only: bool = False) -> None:
        diff = compare_docs(base, fresh, tolerance_pct=50.0,
                            perf_warn_only=perf_warn_only)
        got_fail = bool(diff.failures)
        if got_fail != want_fail:
            failures.append(
                f"{label}: expected {'FAIL' if want_fail else 'PASS'}, "
                f"got failures={diff.failures} warnings={diff.warnings}")

    # Clean copy passes, including env-key and in-band perf drift.
    clean = mutated(hardware_concurrency=64)
    clean["configs"][0]["seconds"] = 1.30   # +30% < 50% band
    expect("clean within-tolerance", clean, want_fail=False)

    # Deterministic drift fails exactly.
    expect("best_cost drift", mutated(best_cost=61.0), want_fail=True)

    # Bool gate true -> false fails; false -> true only warns.
    expect("bool gate regression", mutated(gate_ok=False), want_fail=True)
    expect("bool gate improvement", mutated(was_false=True), want_fail=False)

    # Perf past the band fails ... unless warn-only.
    slow = json.loads(json.dumps(base))
    slow["configs"][1]["seconds"] = 2.0     # +82% > 50% band
    expect("perf regression", slow, want_fail=True)
    expect("perf regression warn-only", slow, want_fail=False,
           perf_warn_only=True)
    # Throughput is smaller-is-worse.
    slow2 = mutated()
    slow2["configs"][0]["proposals_per_sec"] = 100.0
    expect("throughput regression", slow2, want_fail=True)

    # Per-rep extremes are spread, never gated: a fresh run whose worst and
    # best reps both moved far past the band still passes.
    wide = mutated()
    wide["configs"][0].update(overhead_pct_min=-4.085, overhead_pct_max=90.0)
    expect("widened spread passes", wide, want_fail=False)

    # Structural: missing key and shorter row list fail; new key warns.
    missing = mutated()
    del missing["best_cost"]
    expect("missing key", missing, want_fail=True)
    short = mutated(configs=base["configs"][:1])
    expect("row count change", short, want_fail=True)
    extra = mutated(new_metric=3)
    expect("new field warns only", extra, want_fail=False)

    if failures:
        for failure in failures:
            print(f"self-test: {failure}", file=sys.stderr)
        print("self-test: FAILED", file=sys.stderr)
        return 1
    print("self-test: OK (11 scenarios)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", nargs="*",
                        help="freshly generated BENCH_*.json file(s)")
    parser.add_argument("--baseline-dir", default=".",
                        help="directory holding committed baselines "
                             "(default: current directory)")
    parser.add_argument("--perf-tolerance", type=float, default=50.0,
                        help="relative band for perf fields, percent "
                             "(default 50)")
    parser.add_argument("--perf-warn-only", action="store_true",
                        help="downgrade perf-band violations to warnings")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate catches planted regressions")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.fresh:
        parser.error("no fresh reports given (or use --self-test)")
    if args.perf_tolerance < 0:
        parser.error("--perf-tolerance must be >= 0")
    status = 0
    for fresh_path in args.fresh:
        status = max(status, compare_file(fresh_path, args.baseline_dir,
                                          args.perf_tolerance,
                                          args.perf_warn_only))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
