#include "probe.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace mcopt::benchmark {

namespace {

constexpr const char* kOpNames[kNumOps] = {
    "propose", "accept", "reject", "descend",
    "snapshot", "restore", "randomize", "clone"};
constexpr const char* kLayerNames[kNumLayers] = {"linarr", "tsp",
                                                 "partition"};

/// Charges the enclosing call's duration to one operation.
class OpTimer {
 public:
  OpTimer(OpStats& stats, Op op) noexcept
      : stats_(stats), op_(static_cast<std::size_t>(op)), begin_(now_ns()) {}
  ~OpTimer() {
    stats_.ns[op_] += now_ns() - begin_;
    ++stats_.calls[op_];
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  OpStats& stats_;
  std::size_t op_;
  std::uint64_t begin_;
};

void append_span(std::string& out, const Span& s, std::uint64_t origin) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "[\"%s\",%llu,%llu,%lld,%llu,%u,%llu,%llu,%llu,%llu]", s.name,
                static_cast<unsigned long long>(s.begin - origin),
                static_cast<unsigned long long>(s.end - origin),
                static_cast<long long>(s.parent),
                static_cast<unsigned long long>(s.solve), s.thread,
                static_cast<unsigned long long>(s.ticks),
                static_cast<unsigned long long>(s.arg),
                static_cast<unsigned long long>(s.problem_ns),
                static_cast<unsigned long long>(s.problem_calls));
  out += buf;
}

}  // namespace

double calibrate_clock_ns() {
  constexpr int kBatches = 11;
  constexpr int kCalls = 20'000;
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    // steady_clock::now() is an opaque call, so the loop is not elided.
    const std::uint64_t begin = now_ns();
    for (int i = 0; i < kCalls; ++i) static_cast<void>(now_ns());
    per_call.push_back(static_cast<double>(now_ns() - begin) / kCalls);
  }
  std::nth_element(per_call.begin(), per_call.begin() + kBatches / 2,
                   per_call.end());
  return per_call[kBatches / 2];
}

std::uint32_t reference_sink = 0;

double reference_ns() {
  constexpr std::uint32_t kIters = 1U << 18;
  std::array<double, 3> runs{};
  for (double& run : runs) {
    std::array<std::uint32_t, 1024> table{};
    for (std::uint32_t i = 0; i < table.size(); ++i) {
      table[i] = i * 2654435761U;
    }
    std::uint64_t x = 88172645463325252ULL;
    std::uint32_t acc = 0;
    const std::uint64_t begin = now_ns();
    for (std::uint32_t i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::uint32_t& slot = table[x & 1023U];
      if (slot > acc) {
        acc += slot >> 3;
      } else {
        slot += static_cast<std::uint32_t>(x >> 40);
      }
    }
    run = static_cast<double>(now_ns() - begin) / kIters;
    reference_sink = acc;  // an external store keeps the loop alive
  }
  std::sort(runs.begin(), runs.end());
  return runs[1];
}

void OpStats::add(const OpStats& other) noexcept {
  for (std::size_t i = 0; i < kNumOps; ++i) {
    calls[i] += other.calls[i];
    ns[i] += other.ns[i];
  }
  descend_ticks += other.descend_ticks;
}

std::uint64_t OpStats::total_calls() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t c : calls) total += c;
  return total;
}

std::uint64_t OpStats::total_ns() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t n : ns) total += n;
  return total;
}

Probe::Probe(bool enabled)
    : enabled_(enabled), driver_(std::this_thread::get_id()) {}

std::uint64_t Probe::direct_ns() const noexcept {
  std::uint64_t total = 0;
  for (const OpStats& s : direct_) total += s.total_ns();
  return total;
}

std::uint64_t Probe::direct_calls() const noexcept {
  std::uint64_t total = 0;
  for (const OpStats& s : direct_) total += s.total_calls();
  return total;
}

std::size_t Probe::open(const char* name, std::uint64_t solve) {
  Span span;
  span.name = name;
  span.parent = innermost();
  span.solve = solve;
  span.problem_ns = direct_ns();
  span.problem_calls = direct_calls();
  span.begin = now_ns();
  spans_.push_back(span);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Probe::close(std::size_t index, std::uint64_t ticks, std::uint64_t arg) {
  Span& span = spans_[index];
  span.end = now_ns();
  span.problem_ns = direct_ns() - span.problem_ns;
  span.problem_calls = direct_calls() - span.problem_calls;
  span.ticks = ticks;
  span.arg = arg;
  stack_.pop_back();
}

std::int64_t Probe::innermost() const noexcept {
  return stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
}

void Probe::add_worker_span(Span span) {
  util::MutexLock lock{mu_};
  worker_spans_.push_back(span);
}

void Probe::fold(Layer layer, const OpStats& stats) {
  util::MutexLock lock{mu_};
  folded_[static_cast<std::size_t>(layer)].add(stats);
}

void Probe::add_extra(const std::string& key, double value) {
  extras_[key] += value;
}

std::string Probe::to_json(std::uint64_t begin_ns, std::uint64_t end_ns,
                           double clock_ns) const {
  util::MutexLock lock{mu_};
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"clock_ns\": %.6g, \"wall_ns\": %llu,\n\"spans\": [",
                clock_ns, static_cast<unsigned long long>(end_ns - begin_ns));
  std::string out = buf;
  const char* sep = "\n";
  for (const auto* list : {&spans_, &worker_spans_}) {
    for (const Span& span : *list) {
      out += sep;
      sep = ",\n";
      append_span(out, span, begin_ns);
    }
  }
  out += "],\n\"ops\": {";
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    OpStats total = direct_[l];
    total.add(folded_[l]);
    std::snprintf(buf, sizeof buf, "%s\"%s\": {", l == 0 ? "" : ", ",
                  kLayerNames[l]);
    out += buf;
    for (std::size_t op = 0; op < kNumOps; ++op) {
      std::snprintf(buf, sizeof buf, "\"%s\": [%llu, %llu], ", kOpNames[op],
                    static_cast<unsigned long long>(total.calls[op]),
                    static_cast<unsigned long long>(total.ns[op]));
      out += buf;
    }
    std::snprintf(buf, sizeof buf, "\"descend_ticks\": %llu}",
                  static_cast<unsigned long long>(total.descend_ticks));
    out += buf;
  }
  out += "},\n\"extras\": {";
  sep = "";
  for (const auto& [key, value] : extras_) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", sep, key.c_str(), value);
    out += buf;
    sep = ", ";
  }
  out += "}}\n";
  return out;
}

SpanScope::SpanScope(Probe& probe, const char* name, std::uint64_t solve)
    : probe_(probe.enabled() ? &probe : nullptr) {
  if (probe_ != nullptr) index_ = probe_->open(name, solve);
}

SpanScope::~SpanScope() {
  if (probe_ != nullptr) probe_->close(index_, ticks_, arg_);
}

TimedProblem::TimedProblem(std::unique_ptr<core::Problem> inner, Layer layer,
                           Probe& probe)
    : inner_(std::move(inner)),
      layer_(layer),
      probe_(&probe),
      owns_stats_(false),
      stats_(&probe.direct(layer)) {}

TimedProblem::TimedProblem(std::unique_ptr<core::Problem> inner, Layer layer,
                           Probe& probe, Private)
    : inner_(std::move(inner)),
      layer_(layer),
      probe_(&probe),
      owns_stats_(true),
      stats_(&own_) {}

TimedProblem::~TimedProblem() {
  if (owns_stats_) probe_->fold(layer_, own_);
}

double TimedProblem::propose(util::Rng& rng) {
  const OpTimer timer{*stats_, Op::kPropose};
  return inner_->propose(rng);
}

void TimedProblem::accept() {
  const OpTimer timer{*stats_, Op::kAccept};
  inner_->accept();
}

void TimedProblem::reject() {
  const OpTimer timer{*stats_, Op::kReject};
  inner_->reject();
}

void TimedProblem::descend(util::WorkBudget& budget) {
  const std::uint64_t before = budget.spent();
  {
    const OpTimer timer{*stats_, Op::kDescend};
    inner_->descend(budget);
  }
  stats_->descend_ticks += budget.spent() - before;
}

void TimedProblem::randomize(util::Rng& rng) {
  const OpTimer timer{*stats_, Op::kRandomize};
  inner_->randomize(rng);
}

core::Snapshot TimedProblem::snapshot() const {
  const OpTimer timer{*stats_, Op::kSnapshot};
  return inner_->snapshot();
}

void TimedProblem::snapshot_into(core::Snapshot& out) const {
  const OpTimer timer{*stats_, Op::kSnapshot};
  inner_->snapshot_into(out);
}

void TimedProblem::restore(const core::Snapshot& snap) {
  const OpTimer timer{*stats_, Op::kRestore};
  inner_->restore(snap);
}

std::unique_ptr<core::Problem> TimedProblem::clone() const {
  std::unique_ptr<core::Problem> copy;
  {
    const OpTimer timer{*stats_, Op::kClone};
    copy = inner_->clone();
  }
  if (!copy) return nullptr;
  return std::unique_ptr<core::Problem>(
      new TimedProblem(std::move(copy), layer_, *probe_, Private{}));
}

std::unique_ptr<core::Problem> instrument(
    std::unique_ptr<core::Problem> problem, Layer layer, Probe& probe) {
  if (!probe.enabled()) return problem;
  return std::make_unique<TimedProblem>(std::move(problem), layer, probe);
}

}  // namespace mcopt::benchmark
