// LogHistogram: exact power-of-two bucketing and order-invariant merges.
#include "obs/histogram.hpp"

#include <cstddef>
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

namespace mcopt::obs {
namespace {

TEST(HistogramTest, BucketBoundsArePowersOfTwo) {
  EXPECT_EQ(LogHistogram::bucket_bound(0), 1u);
  EXPECT_EQ(LogHistogram::bucket_bound(1), 2u);
  EXPECT_EQ(LogHistogram::bucket_bound(2), 4u);
  EXPECT_EQ(LogHistogram::bucket_bound(10), 1024u);
  // The overflow bucket has no finite bound.
  EXPECT_EQ(LogHistogram::bucket_bound(LogHistogram::kNumBuckets - 1), 0u);
}

TEST(HistogramTest, BucketIndexMatchesBounds) {
  EXPECT_EQ(LogHistogram::bucket_index(0.0), 0u);
  EXPECT_EQ(LogHistogram::bucket_index(0.5), 0u);
  EXPECT_EQ(LogHistogram::bucket_index(1.0), 1u);   // [1, 2)
  EXPECT_EQ(LogHistogram::bucket_index(1.9), 1u);
  EXPECT_EQ(LogHistogram::bucket_index(2.0), 2u);   // [2, 4)
  EXPECT_EQ(LogHistogram::bucket_index(3.0), 2u);
  EXPECT_EQ(LogHistogram::bucket_index(4.0), 3u);
  EXPECT_EQ(LogHistogram::bucket_index(1024.0), 11u);
  // Negatives clamp to bucket 0 (callers record magnitudes).
  EXPECT_EQ(LogHistogram::bucket_index(-7.0), 0u);
  // Values past 2^38 land in the overflow bucket.
  EXPECT_EQ(LogHistogram::bucket_index(1e18),
            LogHistogram::kNumBuckets - 1);
}

TEST(HistogramTest, EveryFiniteBucketBoundaryIsExact) {
  // Each boundary value 2^(i-1) must land in bucket i, and the value just
  // below it (for integer deltas: 2^(i-1) - 1) in bucket i-1 or lower.
  for (std::size_t i = 2; i + 1 < LogHistogram::kNumBuckets; ++i) {
    const auto bound = static_cast<double>(LogHistogram::bucket_bound(i - 1));
    EXPECT_EQ(LogHistogram::bucket_index(bound), i) << "boundary " << bound;
    EXPECT_EQ(LogHistogram::bucket_index(bound - 1.0), i - 1)
        << "below boundary " << bound;
  }
}

TEST(HistogramTest, RecordAccumulatesCountSumAndBuckets) {
  LogHistogram h;
  EXPECT_TRUE(h.empty());
  h.record(0.0);
  h.record(1.0);
  h.record(3.0);
  h.record(3.0);
  EXPECT_FALSE(h.empty());
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 7.0);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
}

// The shard-merge order-invariance contract: any merge order of any
// sharding of the same observations produces identical state.  This is
// what makes the run report thread-count invariant.
TEST(HistogramTest, MergeIsOrderInvariantAcrossShardings) {
  const std::vector<double> values{0.0, 1.0, 2.0,  5.0,  9.0, 17.0,
                                   33.0, 100.0, 1000.0, 7.0, 7.0, 64.0};

  auto shard_merge = [&](const std::vector<std::size_t>& order,
                         std::size_t num_shards) {
    std::vector<LogHistogram> shards(num_shards);
    for (std::size_t i = 0; i < values.size(); ++i) {
      shards[i % num_shards].record(values[i]);
    }
    LogHistogram out;
    for (const std::size_t shard : order) out.merge(shards[shard]);
    return out;
  };

  std::vector<std::size_t> forward(4);
  std::iota(forward.begin(), forward.end(), 0u);
  std::vector<std::size_t> backward = forward;
  std::reverse(backward.begin(), backward.end());

  const LogHistogram a = shard_merge(forward, 4);
  const LogHistogram b = shard_merge(backward, 4);
  std::vector<std::size_t> one{0};
  const LogHistogram c = shard_merge(one, 1);

  std::string ja;
  std::string jb;
  std::string jc;
  a.append_json(ja);
  b.append_json(jb);
  c.append_json(jc);
  EXPECT_EQ(ja, jb) << "merge order changed the histogram";
  EXPECT_EQ(ja, jc) << "sharding changed the histogram";
}

TEST(HistogramTest, AppendJsonIsCumulativeAndStopsAtLastNonEmpty) {
  LogHistogram h;
  h.record(1.0);
  h.record(3.0);
  std::string json;
  h.append_json(json);
  EXPECT_EQ(json,
            "{\"count\": 2, \"sum\": 4, \"buckets\": "
            "[{\"le\": 1, \"count\": 0}, {\"le\": 2, \"count\": 1}, "
            "{\"le\": 4, \"count\": 2}, {\"le\": \"+Inf\", \"count\": 2}]}");
}

TEST(HistogramTest, EmptyHistogramJsonHasOnlyInfBucket) {
  LogHistogram h;
  std::string json;
  h.append_json(json);
  EXPECT_EQ(json,
            "{\"count\": 0, \"sum\": 0, \"buckets\": "
            "[{\"le\": \"+Inf\", \"count\": 0}]}");
}

}  // namespace
}  // namespace mcopt::obs
