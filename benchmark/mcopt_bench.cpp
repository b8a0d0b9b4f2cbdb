// mcopt_bench: runs one benchmark workload in-process.
//
//   mcopt_bench --workload NAME --seed S [--seconds T]
//               [--trace-layers FILE] [--scratch DIR]
//
// Builds the workload's inputs 41 times, then runs protocol units in order,
// wrapping around, until T seconds have passed; T = 0 runs exactly one
// pass.  After each set-up and each unit it times a reference kernel, which
// measures the host's speed at that moment.  Prints one JSON object: set-up
// times, each solve's time per tick, peak RSS, check counts and, per unit,
// its result digest, wall time, ticks, reference time and solve count so
// far.  With --trace-layers the layer spans and per-move counters are
// written to FILE; benchmark/run.py turns both into metrics.
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "probe.hpp"
#include "util/args.hpp"
#include "workloads.hpp"

namespace {

using namespace mcopt;
using namespace mcopt::benchmark;

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

// A set-up takes a few milliseconds at most, and the first few run slower
// while the process warms up; the median of 41 sits on the warm plateau.
constexpr int kSetups = 41;

int run(const util::Args& args) {
  const auto unknown = args.unknown_flags(
      {"workload", "seed", "seconds", "trace-layers", "scratch"});
  const std::string name = args.get("workload", "");
  auto workload = make_workload(name);
  if (!unknown.empty() || !args.positional().empty() || workload == nullptr) {
    std::fprintf(stderr,
                 "usage: mcopt_bench --workload NAME --seed S [--seconds T] "
                 "[--trace-layers FILE] [--scratch DIR]\n");
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1985));
  const double seconds = args.get_double("seconds", 10.0);
  const std::string trace_path = args.get("trace-layers", "");
  if (seconds < 0.0) {
    std::fprintf(stderr, "mcopt_bench: --seconds must be >= 0\n");
    return 2;
  }

  Probe probe{!trace_path.empty()};
  Context ctx{seed, probe, args.get("scratch", ".")};
  const double clock_ns = probe.enabled() ? calibrate_clock_ns() : 0.0;

  const std::uint64_t begin = now_ns();
  std::vector<double> setup_s;
  std::vector<double> setup_ref;
  std::vector<std::string> inputs;
  for (int s = 0; s < kSetups; ++s) {
    const std::uint64_t t = now_ns();
    inputs.push_back(workload->setup(ctx));
    setup_s.push_back(static_cast<double>(now_ns() - t) * 1e-9);
    const SpanScope span{probe, "bench::reference"};
    setup_ref.push_back(reference_ns());
  }

  const std::uint64_t window_begin = now_ns();
  const auto window_ns = static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<UnitResult> units;
  std::vector<double> unit_s;
  std::vector<std::uint64_t> unit_ticks;
  std::vector<double> unit_ref;
  std::vector<std::size_t> unit_solves;
  for (std::size_t u = 0;; ++u) {
    const std::uint64_t t = now_ns();
    const std::uint64_t ticks = ctx.ticks;
    units.push_back(workload->run_unit(u % workload->num_units(), ctx));
    unit_s.push_back(static_cast<double>(now_ns() - t) * 1e-9);
    unit_ticks.push_back(ctx.ticks - ticks);
    {
      const SpanScope span{probe, "bench::reference"};
      unit_ref.push_back(reference_ns());
    }
    unit_solves.push_back(ctx.solve_count());
    const bool pass_done = u + 1 >= workload->num_units();
    if (seconds == 0.0 ? pass_done : now_ns() - window_begin >= window_ns) {
      break;
    }
  }
  const std::uint64_t end = now_ns();

  if (probe.enabled()) {
    std::ofstream out{trace_path};
    out << probe.to_json(begin, end, clock_ns);
    if (!out) {
      std::fprintf(stderr, "mcopt_bench: cannot write %s\n",
                   trace_path.c_str());
      return 1;
    }
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::string json = "{\"workload\": ";
  json += quoted(name);
  json += ", \"seed\": ";
  json += std::to_string(seed);
  json += ", \"peak_rss_kb\": ";
  json += std::to_string(usage.ru_maxrss);
  json += ", \"checks\": ";
  json += std::to_string(ctx.checks());
  // Appends `"key": [...]`, element i formatted by item(i).
  const auto list = [&json](const char* key, std::size_t n,
                            const auto& item) {
    json += ",\n\"";
    json += key;
    json += "\": [";
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) json += ", ";
      json += item(i);
    }
    json += "]";
  };
  list("setup_s", setup_s.size(),
       [&](std::size_t i) { return number(setup_s[i]); });
  list("setup_ref", setup_ref.size(),
       [&](std::size_t i) { return number(setup_ref[i]); });
  list("inputs", inputs.size(),
       [&](std::size_t i) { return quoted(inputs[i]); });
  const auto& failures = ctx.failures();
  list("failures", failures.size(),
       [&](std::size_t i) { return quoted(failures[i]); });
  const auto solves = ctx.solve_ns_per_tick();
  list("solve_ns_per_tick", solves.size(),
       [&](std::size_t i) { return number(solves[i]); });
  // Per unit: id, result digest, wall seconds, ticks, reference ns, solves
  // recorded by its end.
  list("units", units.size(), [&](std::size_t i) {
    std::string entry = "\n[";
    entry += quoted(units[i].id);
    entry += ", ";
    entry += quoted(units[i].digest);
    entry += ", ";
    entry += number(unit_s[i]);
    entry += ", ";
    entry += std::to_string(unit_ticks[i]);
    entry += ", ";
    entry += number(unit_ref[i]);
    entry += ", ";
    entry += std::to_string(unit_solves[i]);
    entry += "]";
    return entry;
  });
  json += "}\n";
  std::fputs(json.c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::Args{argc, argv});
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mcopt_bench: %s\n", error.what());
    return 1;
  }
}
