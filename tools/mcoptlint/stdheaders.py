"""Curated std-symbol -> header map for the include-hygiene rule.

The map only has to cover what the mcopt tree actually uses (plus close
neighbours); a symbol that is not listed is simply not checked, so gaps
can never produce false positives -- they only reduce coverage.  Each
symbol maps to the *set* of headers that are documented to provide it;
the rule is satisfied when any one of them is directly included.

Two tables:

  STD_SYMBOLS   names used as std::<name>
  BARE_SYMBOLS  macros and C-linkage names used unqualified (assert,
                stderr, ...) that still pin a header
"""

from __future__ import annotations

_TABLE: dict[str, tuple[str, ...]] = {
    # <cstdint> / <cstddef>
    "uint8_t": ("cstdint",), "uint16_t": ("cstdint",),
    "uint32_t": ("cstdint",), "uint64_t": ("cstdint",),
    "int8_t": ("cstdint",), "int16_t": ("cstdint",),
    "int32_t": ("cstdint",), "int64_t": ("cstdint",),
    "uintptr_t": ("cstdint",), "intptr_t": ("cstdint",),
    "size_t": ("cstddef", "cstdio", "cstdlib", "cstring"),
    "ptrdiff_t": ("cstddef",),
    "byte": ("cstddef",),
    "nullptr_t": ("cstddef",),
    # containers
    "vector": ("vector",),
    "array": ("array",),
    "map": ("map",), "multimap": ("map",),
    "set": ("set",), "multiset": ("set",),
    "unordered_map": ("unordered_map",),
    "unordered_multimap": ("unordered_map",),
    "unordered_set": ("unordered_set",),
    "unordered_multiset": ("unordered_set",),
    "deque": ("deque",), "list": ("list",),
    "span": ("span",),
    "initializer_list": ("initializer_list",),
    # strings / streams
    "string": ("string",), "to_string": ("string",),
    "stoi": ("string",), "stod": ("string",), "stoll": ("string",),
    "getline": ("string", "istream"),
    "string_view": ("string_view",),
    "ostream": ("ostream", "iostream"),
    "istream": ("istream", "iostream"),
    "cout": ("iostream",), "cin": ("iostream",), "endl": ("ostream", "iostream"),
    "cerr": ("iostream",), "clog": ("iostream",),
    "ostringstream": ("sstream",), "istringstream": ("sstream",),
    "stringstream": ("sstream",),
    "ofstream": ("fstream",), "ifstream": ("fstream",), "fstream": ("fstream",),
    "ios": ("ios", "iostream", "fstream", "sstream"),
    "streamsize": ("ios", "iostream", "fstream", "sstream"),
    # <utility> / <functional> / <memory> / <tuple> / <optional>
    "move": ("utility",), "swap": ("utility",), "exchange": ("utility",),
    "forward": ("utility",), "pair": ("utility",), "make_pair": ("utility",),
    "declval": ("utility",), "in_place": ("utility",),
    "tuple": ("tuple",), "make_tuple": ("tuple",), "tie": ("tuple",),
    "get": ("tuple", "utility", "variant", "array"),
    "function": ("functional",), "ref": ("functional",),
    "cref": ("functional",), "hash": ("functional",),
    "unique_ptr": ("memory",), "make_unique": ("memory",),
    "shared_ptr": ("memory",), "make_shared": ("memory",),
    "addressof": ("memory",),
    "optional": ("optional",), "nullopt": ("optional",),
    "make_optional": ("optional",), "nullopt_t": ("optional",),
    "variant": ("variant",), "holds_alternative": ("variant",),
    # <algorithm> / <numeric> / <iterator>
    "min": ("algorithm",), "max": ("algorithm",), "clamp": ("algorithm",),
    "minmax": ("algorithm",),
    "min_element": ("algorithm",), "max_element": ("algorithm",),
    "sort": ("algorithm",), "stable_sort": ("algorithm",),
    "is_sorted": ("algorithm",), "reverse": ("algorithm",),
    "rotate": ("algorithm",), "unique": ("algorithm",),
    "find": ("algorithm",), "find_if": ("algorithm",),
    "count": ("algorithm",), "count_if": ("algorithm",),
    "copy": ("algorithm",), "fill": ("algorithm",),
    "transform": ("algorithm",), "all_of": ("algorithm",),
    "any_of": ("algorithm",), "none_of": ("algorithm",),
    "next_permutation": ("algorithm",), "lower_bound": ("algorithm",),
    "upper_bound": ("algorithm",), "shuffle": ("algorithm",),
    "random_shuffle": ("algorithm",),
    "accumulate": ("numeric",), "iota": ("numeric",),
    "partial_sum": ("numeric",), "reduce": ("numeric",),
    "distance": ("iterator",), "next": ("iterator",), "prev": ("iterator",),
    "back_inserter": ("iterator",),
    "size": ("iterator",), "ssize": ("iterator",),
    "begin": ("iterator",), "end": ("iterator",),
    # <cmath> / <cstdlib> / <limits> / <bit>
    "abs": ("cmath", "cstdlib"),
    "fabs": ("cmath",), "exp": ("cmath",), "log": ("cmath",),
    "log2": ("cmath",), "log10": ("cmath",), "pow": ("cmath",),
    "sqrt": ("cmath",), "cbrt": ("cmath",), "hypot": ("cmath",),
    "sin": ("cmath",), "cos": ("cmath",), "tan": ("cmath",),
    "floor": ("cmath",), "ceil": ("cmath",), "round": ("cmath",),
    "lround": ("cmath",), "llround": ("cmath",), "trunc": ("cmath",),
    "fmod": ("cmath",),
    "isnan": ("cmath",), "isfinite": ("cmath",), "isinf": ("cmath",),
    "nan": ("cmath",), "signbit": ("cmath",),
    "numeric_limits": ("limits",),
    "bit_width": ("bit",), "countl_zero": ("bit",), "countr_zero": ("bit",),
    "popcount": ("bit",), "has_single_bit": ("bit",),
    "exit": ("cstdlib",), "atexit": ("cstdlib",),
    "getenv": ("cstdlib",), "atof": ("cstdlib",), "atoi": ("cstdlib",),
    "atoll": ("cstdlib",), "strtoull": ("cstdlib",), "strtod": ("cstdlib",),
    "strtol": ("cstdlib",), "rand": ("cstdlib",), "srand": ("cstdlib",),
    "malloc": ("cstdlib",), "free": ("cstdlib",),
    # <cstdio> / <cstring> / <cstdarg> / <cassert> / <cctype>
    "printf": ("cstdio",), "fprintf": ("cstdio",), "snprintf": ("cstdio",),
    "sprintf": ("cstdio",), "vsnprintf": ("cstdio",),
    "vfprintf": ("cstdio",), "fputs": ("cstdio",), "fputc": ("cstdio",),
    "fwrite": ("cstdio",), "fflush": ("cstdio",), "fopen": ("cstdio",),
    "fclose": ("cstdio",), "puts": ("cstdio",), "remove": ("cstdio",),
    "strcmp": ("cstring",), "strncmp": ("cstring",), "strlen": ("cstring",),
    "memcpy": ("cstring",), "memset": ("cstring",), "memcmp": ("cstring",),
    "strchr": ("cstring",), "strstr": ("cstring",),
    "va_list": ("cstdarg",),
    "isdigit": ("cctype",), "isspace": ("cctype",), "isalpha": ("cctype",),
    "tolower": ("cctype",), "toupper": ("cctype",),
    # exceptions / diagnostics
    "exception": ("exception",), "terminate": ("exception",),
    "set_terminate": ("exception",), "terminate_handler": ("exception",),
    "exception_ptr": ("exception",), "current_exception": ("exception",),
    "rethrow_exception": ("exception",),
    "logic_error": ("stdexcept",), "runtime_error": ("stdexcept",),
    "invalid_argument": ("stdexcept",), "out_of_range": ("stdexcept",),
    "domain_error": ("stdexcept",), "length_error": ("stdexcept",),
    "overflow_error": ("stdexcept",), "underflow_error": ("stdexcept",),
    # threading / time / atomics
    "thread": ("thread",), "this_thread": ("thread",),
    "jthread": ("thread",),
    "mutex": ("mutex",), "timed_mutex": ("mutex",),
    "recursive_mutex": ("mutex",), "lock_guard": ("mutex",),
    "scoped_lock": ("mutex",), "unique_lock": ("mutex",),
    "adopt_lock": ("mutex",), "defer_lock": ("mutex",),
    "adopt_lock_t": ("mutex",), "call_once": ("mutex",), "once_flag": ("mutex",),
    "shared_mutex": ("shared_mutex",), "shared_lock": ("shared_mutex",),
    "condition_variable": ("condition_variable",),
    "condition_variable_any": ("condition_variable",),
    "cv_status": ("condition_variable",),
    "atomic": ("atomic",), "atomic_flag": ("atomic",),
    "memory_order": ("atomic",), "memory_order_relaxed": ("atomic",),
    "memory_order_acquire": ("atomic",), "memory_order_release": ("atomic",),
    "memory_order_seq_cst": ("atomic",),
    "chrono": ("chrono",),
    "async": ("future",), "future": ("future",), "promise": ("future",),
    # <random> (banned by the determinism rules, mapped anyway so the
    # hygiene rule stays truthful on fixtures)
    "mt19937": ("random",), "mt19937_64": ("random",),
    "random_device": ("random",), "uniform_int_distribution": ("random",),
    "uniform_real_distribution": ("random",), "normal_distribution": ("random",),
    "default_random_engine": ("random",), "minstd_rand": ("random",),
    "uniform_random_bit_generator": ("random",),
    # type traits & misc
    "is_same": ("type_traits",), "is_same_v": ("type_traits",),
    "enable_if": ("type_traits",), "enable_if_t": ("type_traits",),
    "decay_t": ("type_traits",), "is_integral": ("type_traits",),
    "is_floating_point": ("type_traits",), "is_trivially_copyable":
        ("type_traits",),
    "apply": ("tuple",),
}

STD_SYMBOLS: dict[str, frozenset[str]] = {
    name: frozenset(headers) for name, headers in _TABLE.items()
}

#: The preferred header to suggest (and for --fix to insert) when a
#: symbol has several providers: the first entry of its _TABLE tuple.
CANONICAL: dict[str, str] = {
    name: headers[0] for name, headers in _TABLE.items()
}

BARE_SYMBOLS: dict[str, frozenset[str]] = {
    "assert": frozenset({"cassert"}),
    "errno": frozenset({"cerrno"}),
    "NULL": frozenset({"cstddef", "cstdio", "cstdlib", "cstring"}),
    "EXIT_SUCCESS": frozenset({"cstdlib"}),
    "EXIT_FAILURE": frozenset({"cstdlib"}),
    "FILE": frozenset({"cstdio"}),
    "stderr": frozenset({"cstdio"}),
    "stdout": frozenset({"cstdio"}),
    "stdin": frozenset({"cstdio"}),
    "EOF": frozenset({"cstdio"}),
    "INT_MAX": frozenset({"climits"}),
    "INT_MIN": frozenset({"climits"}),
    "CHAR_BIT": frozenset({"climits"}),
    "DBL_EPSILON": frozenset({"cfloat"}),
    "DBL_MAX": frozenset({"cfloat"}),
    "DBL_MIN": frozenset({"cfloat"}),
}

#: Every header that can be *required* by some symbol above; only these
#: participate in the unused-include direction of the hygiene rule.
KNOWN_HEADERS: frozenset[str] = frozenset(
    h for providers in list(STD_SYMBOLS.values()) + list(BARE_SYMBOLS.values())
    for h in providers
)
