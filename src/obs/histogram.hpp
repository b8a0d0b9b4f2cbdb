// Deterministic log-bucketed histogram.
//
// The paper's distributional arguments (how big are the uphill moves each g
// class accepts?  how does the acceptance rate decay per stage?) need cheap
// always-on aggregates, not full traces.  LogHistogram is the primitive: a
// fixed set of power-of-two buckets with *exact integer boundaries*, so
// bucketing never depends on floating-point log/exp and bucket counts are
// pure 64-bit sums.  Merging histograms is therefore commutative and
// associative — shards from parallel restarts reduce to bit-identical
// counts in any merge order, the same contract trace determinism already
// enforces for event streams.
//
// Bucket layout: bucket 0 holds values in [0, 1); bucket i (1 <= i < 39)
// holds [2^(i-1), 2^i); the last bucket absorbs everything >= 2^38.
// Negative values are clamped to bucket 0 (callers record magnitudes).
//
// `sum` is a double and is exact for integer-valued observations below
// 2^53 — every cost delta in the reproduction is integral — and shard
// merges happen in restart-index order anyway, so the exported sum is
// bit-identical across thread counts either way.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace mcopt::obs {

class LogHistogram {
 public:
  /// Number of buckets, including the [0,1) bucket and the overflow bucket.
  static constexpr std::size_t kNumBuckets = 40;

  /// Exclusive upper bound of bucket `i` (1, 2, 4, ...); the overflow
  /// bucket has no finite bound and reports 0 here.
  [[nodiscard]] static std::uint64_t bucket_bound(std::size_t i) noexcept;

  /// Bucket index for a value (negatives clamp to bucket 0).
  [[nodiscard]] static std::size_t bucket_index(double value) noexcept {
    if (value < 1.0) return 0;  // negatives and [0,1) share bucket 0
    // Integer bit-scan keeps the boundaries exact: values in
    // [2^(k-1), 2^k) have floor(value) with bit width k and land in
    // bucket k.
    const double capped =
        value >= 9.007199254740992e15 ? 9.007199254740992e15 : value;
    const auto floored = static_cast<std::uint64_t>(capped);
    const auto width = static_cast<std::size_t>(std::bit_width(floored));
    return width < kNumBuckets - 1 ? width : kNumBuckets - 1;
  }

  /// Inline: the recorder calls it once per uphill proposal.
  void record(double value) noexcept {
    ++buckets_[bucket_index(value)];
    ++count_;
    sum_ += value < 0.0 ? 0.0 : value;
  }

  /// Commutative element-wise accumulation (see header comment).
  void merge(const LogHistogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i];
  }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Cumulative count of observations <= bucket_bound(i) — the Prometheus
  /// `le` convention used by both exporters.
  [[nodiscard]] std::uint64_t cumulative(std::size_t i) const noexcept;

  /// Appends a stable JSON object: {"count":N,"sum":S,"buckets":[{"le":1,
  /// "count":c}, ..., {"le":"+Inf","count":N}]}.  Cumulative counts; only
  /// buckets up to the last non-empty one are listed before the +Inf entry.
  void append_json(std::string& out) const;

 private:
  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

}  // namespace mcopt::obs
