"""All shipped mcoptlint rules.

Two families:

  * the determinism/concurrency rules absorbed from PR 1's
    tools/lint_determinism.py -- regex over stripped lines, unchanged
    semantics (same names, same allow() escape hatch, same exempt files)
  * the semantic rules regex cannot express, built on cppmodel:
    rng-provenance, unordered-iteration, nodiscard-contract,
    include-hygiene, hot-loop-alloc

Every rule here has a committed known-bad fixture under
tools/mcoptlint/fixtures/ that `mcoptlint --self-test` proves trips.
"""

from __future__ import annotations

import pathlib
import re

from mcoptlint import lexer
from mcoptlint.cppmodel import CppModel
from mcoptlint.engine import FileContext, Finding, RegexRule, Rule
from mcoptlint.stdheaders import (BARE_SYMBOLS, CANONICAL, KNOWN_HEADERS,
                                  STD_SYMBOLS)

# rule name -> repo-relative path suffixes where the rule is void: the one
# sanctioned implementation of the construct it bans (carried over from
# lint_determinism.py).
EXEMPT_FILES: dict[str, set[str]] = {
    "raw-sync-primitive": {"src/util/sync.hpp"},
}

# ---------------------------------------------------------------------------
# Absorbed regex rules (PR 1 + PR 3/4/6 additions), semantics unchanged.
# ---------------------------------------------------------------------------

_REGEX_RULES: list[tuple[str, str, set[str] | None, str]] = [
    # (name, pattern, scope dirs or None, explanation)
    (
        "c-rand",
        r"\b(?:std\s*::\s*)?s?rand\s*\(",
        None,
        "C rand()/srand(): global-state PRNG, not reproducible across "
        "libcs; use util::Rng",
    ),
    (
        "random-device",
        r"\bstd\s*::\s*random_device\b",
        None,
        "std::random_device is nondeterministic; seed util::Rng explicitly",
    ),
    (
        "std-distribution",
        r"\bstd\s*::\s*(?:uniform_int_distribution|"
        r"uniform_real_distribution|normal_distribution|"
        r"bernoulli_distribution|discrete_distribution|"
        r"exponential_distribution|poisson_distribution|"
        r"geometric_distribution|binomial_distribution)\b",
        None,
        "std distributions have unspecified algorithms (streams differ "
        "across standard libraries); use util::Rng helpers",
    ),
    (
        "std-engine",
        r"\bstd\s*::\s*(?:mt19937(?:_64)?|minstd_rand0?|ranlux\w+|"
        r"knuth_b|default_random_engine)\b",
        None,
        "std random engine construction bypasses util::Rng and the "
        "project's seed-derivation scheme",
    ),
    (
        "wall-clock",
        r"(?:\btime\s*\(|\bclock\s*\(|"
        r"\bstd\s*::\s*chrono\s*::\s*(?:system_clock|"
        r"high_resolution_clock)\b|\bgettimeofday\s*\()",
        None,
        "wall-clock access: seeds or logic derived from it are not "
        "reproducible (steady_clock durations via util::Stopwatch are fine)",
    ),
    (
        "float-arithmetic",
        r"\bfloat\b",
        None,
        "float narrows cost arithmetic differently across FPUs; the "
        "project contract is double everywhere",
    ),
    (
        "shuffle-std",
        r"\bstd\s*::\s*(?:shuffle|random_shuffle)\b",
        None,
        "std::shuffle's use of the URBG is unspecified; use "
        "util::Rng::shuffle",
    ),
    (
        "thread-sleep",
        r"\bstd\s*::\s*this_thread\s*::\s*sleep_(?:for|until)\b",
        None,
        "sleeping makes behaviour depend on the scheduler; parallel code "
        "must synchronize with condition variables / joins, never timed "
        "waits",
    ),
    (
        "std-async",
        r"\bstd\s*::\s*async\b",
        None,
        "std::async launch policy and thread reuse are "
        "implementation-defined; use the explicit std::thread pool in "
        "core/parallel.cpp",
    ),
    (
        "thread-local-rng",
        r"\bthread_local\b[^;{]*\bRng\b",
        None,
        "thread_local Rng state is seeded per OS thread, so results "
        "depend on thread scheduling; derive per-work-item streams with "
        "util::Rng::split",
    ),
    (
        "raw-stderr",
        r"\bstd\s*::\s*cerr\b|"
        r"\b(?:std\s*::\s*)?v?fprintf\s*\(\s*stderr\b|"
        r"\b(?:std\s*::\s*)?fput[sc]\s*\([^;)]*\bstderr\b",
        {"src"},
        "raw stderr writes in src/ bypass the obs::log level control; "
        "route diagnostics through obs::log (obs/log.hpp)",
    ),
    (
        "raw-sync-primitive",
        r"\bstd\s*::\s*(?:mutex|timed_mutex|recursive_mutex|"
        r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|"
        r"lock_guard|scoped_lock|unique_lock|shared_lock|"
        r"condition_variable(?:_any)?)\b",
        None,
        "raw std sync primitives carry no CAPABILITY annotation, so "
        "-Wthread-safety cannot check them; use util::Mutex / "
        "util::MutexLock / util::CondVar (util/sync.hpp)",
    ),
    (
        "thread-detach",
        r"\.\s*detach\s*\(",
        None,
        "detached threads outlive every join point and race static "
        "destruction; keep threads joinable and join them",
    ),
    (
        "raw-atomic",
        r"\bstd\s*::\s*atomic(?:_\w+)?\b",
        None,
        "std::atomic state is invisible to GUARDED_BY analysis; guard "
        "shared state with util::Mutex, or allowlist the line with a "
        "stated reason",
    ),
    (
        "untyped-flag",
        r"\b(?:get_int|get_double)\s*\(|"
        r"\b(?:std\s*::\s*)?(?:ato(?:i|l|ll|f)|strto(?:u?ll?|u?l|[dfq]|ld)|"
        r"sto(?:i|u?ll?|f|d|ld))\s*\(",
        {"bench", "examples"},
        "untyped number parsing in a driver takes any sign and range (a "
        "budget of -1 becomes 2^64 ticks); read flags with "
        "util::Args::get_count/get_u64/get_real and other words with "
        "util::parse_u64/parse_real",
    ),
]

# ---------------------------------------------------------------------------
# Semantic rules.
# ---------------------------------------------------------------------------

#: Initializer expressions that prove a deterministic seed lineage: a
#: split off another generator, an explicit seed derivation, or a value
#: handed in through a parameter/member that names itself a seed source.
_RNG_PROVENANCE_OK = re.compile(
    r"\bsplit\s*\(|\bderive_seed\s*\(|"
    r"\b\w*(?:seed|master|stream|rng)\w*\b",
    re.IGNORECASE,
)


class RngProvenanceRule(Rule):
    """Every util::Rng local/member in src/ must be initialized from
    Rng::split(...), util::derive_seed(...), or a declared seed source (an
    identifier naming itself seed/master/stream/rng).  Literal or default
    seeds hide stream collisions: two components constructing Rng{42}
    consume the *same* stream and their interleaving silently changes
    results when code moves between them."""

    def __init__(self) -> None:
        super().__init__(
            name="rng-provenance",
            explanation="util::Rng constructed without seed provenance; "
            "derive the stream with Rng::split / util::derive_seed or pass "
            "a declared seed source through a parameter",
            scope={"src"},
        )

    def check(self, ctx: FileContext) -> list[Finding]:
        out = []
        for decl in ctx.model.var_decls(
                r"(?:mcopt\s*::\s*)?(?:util\s*::\s*)?Rng"):
            if decl.init_kind == "default":
                # `Rng rng;` -- the default seed constant: every such
                # generator shares one stream.
                out.append(ctx.finding(decl.line, self.name,
                                       self.explanation))
                continue
            if not _RNG_PROVENANCE_OK.search(decl.init_text):
                out.append(ctx.finding(decl.line, self.name,
                                       self.explanation))
        return out


_UNORDERED_TYPE = r"std\s*::\s*unordered_(?:multi)?(?:map|set)"


class UnorderedIterationRule(Rule):
    """Iterating an unordered associative container in src/ feeds
    libstdc++'s hash-bucket order -- which is not part of any standard or
    of the project's determinism contract -- into results.  The rule
    tracks every variable/member declared with an unordered type and
    flags range-for and .begin() iteration over it (ordered iteration
    belongs on std::map/std::set or a sorted snapshot)."""

    def __init__(self) -> None:
        super().__init__(
            name="unordered-iteration",
            explanation="iteration over std::unordered_{map,set} feeds "
            "unspecified bucket order into the run; sort the keys first "
            "or use std::map/std::set",
            scope={"src"},
        )

    def check(self, ctx: FileContext) -> list[Finding]:
        # include_refs: a const& parameter of unordered type iterates the
        # same unspecified bucket order as a local.
        names = {
            decl.name
            for decl in ctx.model.var_decls(_UNORDERED_TYPE,
                                            include_refs=True)
        }
        # Type aliases: `using Foo = std::unordered_map<...>;` makes every
        # Foo-typed variable unordered too.
        alias_re = re.compile(
            r"\b(?:using\s+(\w+)\s*=\s*" + _UNORDERED_TYPE +
            r"|typedef\s+" + _UNORDERED_TYPE + r"\s*<[^;]*>\s*(\w+)\s*;)"
        )
        aliases = {
            m.group(1) or m.group(2)
            for m in alias_re.finditer(ctx.stripped_text)
        }
        for alias in aliases:
            names |= {d.name for d in ctx.model.var_decls(
                re.escape(alias), include_refs=True)}

        out = []
        for loop in ctx.model.range_fors():
            base = re.split(r"[.\s(\[]|->", loop.expr_text)[0]
            if (base in names
                    or re.search(_UNORDERED_TYPE, loop.expr_text)
                    or base in aliases):
                out.append(ctx.finding(loop.line, self.name,
                                       self.explanation))
        for loop in ctx.model.iter_fors():
            base = re.split(r"[.\s(\[]|->", loop.expr_text)[0]
            if base in names or re.search(_UNORDERED_TYPE, loop.expr_text):
                out.append(ctx.finding(loop.line, self.name,
                                       self.explanation))
        return out


#: Return types whose value *is* the run: dropping one silently discards
#: an entire optimization (or its telemetry).  Any type ending in
#: `Result` is covered generically; the explicit names are the metric /
#: registry snapshot types.
_NODISCARD_TYPES = {
    "RunResult", "MultistartResult", "TemperingResult", "TuneResult",
    "KlResult", "FmResult", "RestartResult", "InsertionResult",
    "BruteForceResult", "StartResult", "CalibrationResult",
    "ProfileTree", "RunMetrics", "LogHistogram", "Snapshot",
}


class NodiscardContractRule(Rule):
    """Functions returning a result/telemetry type by value must be
    [[nodiscard]]: a caller that drops a RunResult has silently paid the
    whole tick budget for nothing, and a dropped registry snapshot is an
    observability hole.  Headers only -- the attribute belongs on the
    first declaration, and out-of-line definitions must not repeat it."""

    def __init__(self) -> None:
        super().__init__(
            name="nodiscard-contract",
            explanation="function returns a result/snapshot type by value "
            "but is not [[nodiscard]]; dropping the value discards a paid "
            "run or telemetry",
            scope={"src"},
        )

    def check(self, ctx: FileContext) -> list[Finding]:
        if ctx.path.suffix not in (".hpp", ".hh", ".h"):
            return []
        out = []
        for decl in ctx.model.func_decls(_NODISCARD_TYPES):
            if not decl.is_value_return:
                continue
            if "nodiscard" in decl.attributes:
                continue
            out.append(ctx.finding(
                decl.line, self.name,
                f"{decl.name}() returns {decl.return_type} by value but is "
                "not [[nodiscard]]; dropping the value discards a paid run "
                "or telemetry"))
        return out


_STD_USE_RE = re.compile(r"\bstd\s*::\s*(\w+)")
_BARE_USE_RE = re.compile(
    r"\b(" + "|".join(sorted(BARE_SYMBOLS)) + r")\b")


class IncludeHygieneRule(Rule):
    """Every std symbol a file uses must come from a header the file
    includes *directly* (or, for a .cpp, via its paired header -- the one
    convention the project accepts), and every std include in the curated
    map must be referenced by some symbol.  Transitive includes are an
    implementation detail of today's libstdc++: code that compiles only
    because <vector> happens to drag in <algorithm> breaks on the next
    toolchain bump, which is exactly when nobody wants to audit 150
    files."""

    def __init__(self) -> None:
        super().__init__(
            name="include-hygiene",
            explanation="std symbol used without its direct header, or an "
            "include with no referenced symbol",
            scope=None,
        )

    def check(self, ctx: FileContext) -> list[Finding]:
        includes = ctx.model.includes()
        direct = {inc.path for inc in includes if inc.angled}
        inherited = direct | self._paired_header_includes(ctx, includes)

        # --- symbol uses (line of first use per symbol).
        qualified: dict[str, int] = {}
        for match in _STD_USE_RE.finditer(ctx.stripped_text):
            qualified.setdefault(match.group(1),
                                 ctx.model.line_at(match.start()))
        bare: dict[str, int] = {}
        for match in _BARE_USE_RE.finditer(ctx.stripped_text):
            bare.setdefault(match.group(1), ctx.model.line_at(match.start()))

        out = []
        # --- direction 1: used without a direct include.
        for symbol, line in sorted(qualified.items(), key=lambda kv: kv[1]):
            providers = STD_SYMBOLS.get(symbol)
            if providers and providers.isdisjoint(inherited):
                out.append(ctx.finding(
                    line, self.name,
                    f"std::{symbol} used without directly including "
                    f"<{CANONICAL[symbol]}>"))
        for symbol, line in sorted(bare.items(), key=lambda kv: kv[1]):
            providers = BARE_SYMBOLS[symbol]
            if providers.isdisjoint(inherited):
                out.append(ctx.finding(
                    line, self.name,
                    f"{symbol} used without directly including "
                    f"<{sorted(providers)[0]}>"))

        # --- direction 2: include with no referenced symbol.  Lenient on
        # purpose: bare C-style calls (`printf(...)`) credit <cstdio> even
        # though only qualified uses satisfy direction 1.
        referenced: set[str] = set()
        for symbol in qualified:
            referenced |= STD_SYMBOLS.get(symbol, frozenset())
        for symbol, providers in BARE_SYMBOLS.items():
            if symbol in bare:
                referenced |= providers
        # Identifiers from code lines only: the directive `#include
        # <vector>` must not count as a use of std::vector.
        include_lines = {inc.line for inc in includes}
        code_text = "\n".join(
            "" if lineno in include_lines else line
            for lineno, line in enumerate(ctx.stripped_lines, start=1))
        ident_set = {m.group() for m in
                     re.finditer(r"[A-Za-z_]\w*", code_text)}
        for symbol, providers in STD_SYMBOLS.items():
            if symbol in ident_set:
                referenced |= providers
        for inc in includes:
            if not inc.angled or inc.path not in KNOWN_HEADERS:
                continue
            if inc.path not in referenced:
                out.append(ctx.finding(
                    inc.line, self.name,
                    f"<{inc.path}> is included but no symbol it provides "
                    "is referenced"))
        return out

    @staticmethod
    def _paired_header_includes(ctx: FileContext, includes) -> set[str]:
        """For foo.cpp, the angled includes of the quoted include whose
        stem matches (its paired header): the project convention that the
        implementation file inherits its own header's dependencies."""
        if ctx.path.suffix not in (".cpp", ".cc", ".cxx"):
            return set()
        stem = ctx.path.stem
        for inc in includes:
            if inc.angled or pathlib.PurePosixPath(inc.path).stem != stem:
                continue
            for base in (ctx.path.parent, ctx.path.parent.parent):
                candidate = base / inc.path
                try:
                    text = candidate.read_text(encoding="utf-8")
                except OSError:
                    continue
                model_includes = CppModel(text, lexer.strip(text)).includes()
                return {i.path for i in model_includes if i.angled}
        return set()


#: Marker comment that declares the following function part of the
#: proposal hot path (propose/accept/reject/apply in the speculation work).
_HOT_MARKER_RE = re.compile(r"//\s*mcopt:\s*hot\b")

#: Calls that may touch the heap.  Members like push_back/insert are only
#: allocation-free when the container was reserved up front -- which is
#: exactly what the allow() escape documents at the call site.
_HOT_ALLOC_RE = re.compile(
    r"\.\s*(?:push_back|emplace_back|emplace|resize|reserve|insert|"
    r"assign|append)\s*\(|"
    r"\bnew\b|"
    r"\bstd\s*::\s*make_(?:unique|shared)\b"
)


class HotLoopAllocRule(Rule):
    """Functions marked `// mcopt: hot` (the propose/accept/reject/apply
    paths of the speculative hot loop) must not allocate: one stray heap
    call per proposal erases the point of the touched-net journal.  The
    rule scans the marked function's body (balanced braces over stripped
    text, so strings and comments cannot confuse it) for heap-allocating
    calls.  Push-backs into buffers reserved at construction time are
    legal -- and must say so with a same-line
    `// mcopt-lint: allow(hot-loop-alloc)` so the reservation claim is
    auditable at the call site."""

    def __init__(self) -> None:
        super().__init__(
            name="hot-loop-alloc",
            explanation="heap-allocating call inside a `// mcopt: hot` "
            "function; hot-loop moves must be allocation-free (reserved "
            "push_backs need a same-line allow() stating so)",
        )

    def check(self, ctx: FileContext) -> list[Finding]:
        out = []
        for marker_line, raw in enumerate(ctx.raw_lines, start=1):
            if not _HOT_MARKER_RE.search(raw):
                continue
            out.extend(self._scan_body(ctx, marker_line))
        return out

    def _scan_body(self, ctx: FileContext,
                   marker_line: int) -> list[Finding]:
        out = []
        depth = 0
        opened = False
        for lineno in range(marker_line, len(ctx.stripped_lines) + 1):
            line = ctx.stripped_lines[lineno - 1]
            if not opened and "{" not in line and ";" in line:
                return []  # marker on a declaration, not a definition
            for ch in line:
                if ch == "{":
                    depth += 1
                    opened = True
                elif ch == "}":
                    depth -= 1
            if opened and _HOT_ALLOC_RE.search(line):
                out.append(ctx.finding(lineno, self.name, self.explanation))
            if opened and depth <= 0:
                break
        return out


def default_rules() -> list[Rule]:
    rules: list[Rule] = [
        RegexRule(name=name, explanation=explanation, scope=scope,
                  pattern=re.compile(pattern))
        for name, pattern, scope, explanation in _REGEX_RULES
    ]
    rules += [
        RngProvenanceRule(),
        UnorderedIterationRule(),
        NodiscardContractRule(),
        IncludeHygieneRule(),
        HotLoopAllocRule(),
    ]
    return rules
