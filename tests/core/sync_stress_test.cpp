// Contention stress for the annotated sync layer (util/sync.hpp) and every
// component it guards: obs::log and the Heartbeat, hammered from many
// threads while the parallel multistart engine runs.  Trace sinks are
// single-writer (obs/trace.hpp), so no thread here shares one: the engine
// traces into its own sink.  The
// test names carry the SyncStress prefix so CI's ThreadSanitizer job
// selects this suite with its -R filter; under TSan the hammering proves
// data-race freedom, and the assertions below prove the determinism half
// of the contract — the engine's index-ordered reduction and its trace
// stay bit-identical to the sequential loop while everything around it is
// contended.
//
// The start gate is built from util::Mutex/util::CondVar on purpose: the
// suite guards the annotated layer, so its own synchronization should be
// the layer under test (a std::atomic would also be invisible to the
// thread-safety analysis and is banned by the determinism lint).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/annealer.hpp"
#include "core/multistart.hpp"
#include "core/parallel.hpp"
#include "obs/event.hpp"
#include "obs/heartbeat.hpp"
#include "obs/log.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "support/toy_problem.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mcopt::core {
namespace {

using mcopt::testing::ToyProblem;

// One-shot start barrier so every hammer thread begins its loop at once
// (maximizing overlap with the engine run instead of finishing during
// thread spawn).
class StartGate {
 public:
  void release() EXCLUDES(mu_) {
    {
      util::MutexLock lock{mu_};
      released_ = true;
    }
    cv_.notify_all();
  }

  void wait() EXCLUDES(mu_) {
    util::MutexLock lock{mu_};
    while (!released_) cv_.wait(mu_);
  }

 private:
  util::Mutex mu_;
  util::CondVar cv_;
  bool released_ GUARDED_BY(mu_) = false;
};

// Drops log output for the test's lifetime: the hammer loops push
// thousands of lines through obs::log to contend the level gate and the
// heartbeat, and every one of them should be gated away, not printed.
class QuietLog {
 public:
  QuietLog() : saved_(obs::log_level()) {
    obs::set_log_level(obs::LogLevel::kError);
  }
  ~QuietLog() { obs::set_log_level(saved_); }

 private:
  obs::LogLevel saved_;
};

Runner descent_runner() {
  return [](Problem& problem, std::uint64_t budget, util::Rng& rng,
            const obs::Recorder& recorder) {
    return random_descent(problem, budget, rng, &recorder);
  };
}

// The trace as JSONL lines, without the two documented nondeterministic
// components of a parallel trace: kWorkerSteal events and the worker
// stamp (obs/event.hpp).
std::vector<std::string> canonical(const std::vector<obs::Event>& events) {
  std::vector<std::string> out;
  out.reserve(events.size());
  for (obs::Event event : events) {
    if (event.kind == obs::EventKind::kWorkerSteal) continue;
    event.worker = 0;
    std::string line;
    obs::append_jsonl(event, line);
    out.push_back(std::move(line));
  }
  return out;
}

void expect_identical(const MultistartResult& a, const MultistartResult& b) {
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.restart_best_costs, b.restart_best_costs);
  EXPECT_EQ(a.aggregate.initial_cost, b.aggregate.initial_cost);
  EXPECT_EQ(a.aggregate.final_cost, b.aggregate.final_cost);
  EXPECT_EQ(a.aggregate.best_cost, b.aggregate.best_cost);
  EXPECT_EQ(a.aggregate.best_state, b.aggregate.best_state);
  EXPECT_EQ(a.aggregate.proposals, b.aggregate.proposals);
  EXPECT_EQ(a.aggregate.accepts, b.aggregate.accepts);
  EXPECT_EQ(a.aggregate.uphill_accepts, b.aggregate.uphill_accepts);
  EXPECT_EQ(a.aggregate.descent_steps, b.aggregate.descent_steps);
  EXPECT_EQ(a.aggregate.ticks, b.aggregate.ticks);
  EXPECT_EQ(a.aggregate.invariants.executed, b.aggregate.invariants.executed);
}

// The headline test: run the parallel engine, traced into its own sink,
// while hammer threads spam obs::log and a Heartbeat.  The reduction and
// the canonical trace must match the uncontended sequential run
// bit-for-bit at every thread count.
TEST(SyncStressTest, ParallelReductionBitIdenticalUnderContention) {
  QuietLog quiet;

  const std::vector<double> landscape{6, 3, 5, 2, 6, 4, 7, 1, 5, 0, 6, 3};
  MultistartOptions opts;
  opts.total_budget = 3'000;
  opts.budget_per_start = 250;

  ToyProblem sequential_problem{landscape, 0};
  util::Rng sequential_rng{42};
  obs::VectorSink sequential_sink;
  const obs::Recorder sequential_root{&sequential_sink};
  MultistartOptions sequential_opts = opts;
  sequential_opts.recorder = &sequential_root;
  const MultistartResult sequential = multistart(
      sequential_problem, descent_runner(), sequential_opts, sequential_rng);
  const std::vector<std::string> sequential_trace =
      canonical(sequential_sink.events());
  ASSERT_FALSE(sequential_trace.empty());

  obs::Heartbeat heartbeat{"events", 0.0};

  constexpr int kHammers = 4;
  constexpr std::uint64_t kIters = 2'000;
  StartGate gate;
  std::vector<std::thread> hammers;
  hammers.reserve(kHammers);
  for (int t = 0; t < kHammers; ++t) {
    hammers.emplace_back([&heartbeat, &gate, t] {
      gate.wait();
      for (std::uint64_t i = 0; i < kIters; ++i) {
        obs::log(obs::LogLevel::kDebug, "[stress] hammer %d iter %llu", t,
                 static_cast<unsigned long long>(i));
        heartbeat.tick(i + 1, kIters, std::nan(""));
      }
    });
  }

  gate.release();
  for (const unsigned threads : {2u, 8u}) {
    ToyProblem problem{landscape, 0};
    util::Rng rng{42};
    obs::VectorSink sink;
    const obs::Recorder root{&sink};
    ParallelMultistartOptions options;
    options.multistart = opts;
    options.multistart.recorder = &root;
    options.num_threads = threads;
    const MultistartResult parallel =
        parallel_multistart(problem, descent_runner(), options, rng);
    expect_identical(sequential, parallel);
    EXPECT_EQ(canonical(sink.events()), sequential_trace)
        << "trace diverges at " << threads << " threads";
  }
  for (auto& hammer : hammers) hammer.join();
}

// The heartbeat race fix (interval/unit/enabled all under mu_): ticks from
// worker threads while the driver thread reconfigures must stay coherent.
TEST(SyncStressTest, HeartbeatSurvivesConcurrentTicksAndReconfiguration) {
  QuietLog quiet;
  obs::Heartbeat heartbeat;

  constexpr std::uint64_t kTicks = 5'000;
  StartGate gate;
  std::vector<std::thread> tickers;
  tickers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    tickers.emplace_back([&heartbeat, &gate] {
      gate.wait();
      for (std::uint64_t i = 0; i < kTicks; ++i) {
        heartbeat.tick(i + 1, kTicks, 1.0);
      }
    });
  }
  gate.release();
  for (int i = 0; i < 200; ++i) {
    heartbeat.enable("items", 0.0);
    heartbeat.enable("restarts", 1'000.0);
  }
  for (auto& ticker : tickers) ticker.join();
  EXPECT_TRUE(heartbeat.enabled());
}

}  // namespace
}  // namespace mcopt::core
