#include "obs/histogram.hpp"

#include "obs/json_number.hpp"

namespace mcopt::obs {

std::uint64_t LogHistogram::bucket_bound(std::size_t i) noexcept {
  if (i + 1 >= kNumBuckets) return 0;  // overflow bucket: no finite bound
  return std::uint64_t{1} << i;
}

void LogHistogram::merge(const LogHistogram& other) noexcept {
  for (std::size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

std::uint64_t LogHistogram::cumulative(std::size_t i) const noexcept {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b <= i && b < kNumBuckets; ++b) total += buckets_[b];
  return total;
}

void LogHistogram::append_json(std::string& out) const {
  std::size_t last = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] != 0) last = i;
  }
  out += "{\"count\": ";
  append_u64(count_, out);
  out += ", \"sum\": ";
  append_double(sum_, out);
  out += ", \"buckets\": [";
  std::uint64_t running = 0;
  for (std::size_t i = 0; i <= last && i + 1 < kNumBuckets; ++i) {
    if (count_ == 0) break;
    running += buckets_[i];
    out += "{\"le\": ";
    append_u64(bucket_bound(i), out);
    out += ", \"count\": ";
    append_u64(running, out);
    out += "}, ";
  }
  out += "{\"le\": \"+Inf\", \"count\": ";
  append_u64(count_, out);
  out += "}]}";
}

}  // namespace mcopt::obs
