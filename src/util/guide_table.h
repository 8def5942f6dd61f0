// GuideTable: inverse-CDF sampling over a cumulative weight array in
// expected O(1) per draw (Chen and Asau's guide table).
//
// The workload draws every file and every requesting user by inverting a
// cumulative weight array: the index of the first entry >= u * total. A
// binary search costs log2(n) probes that miss cache on a paper-scale
// catalog. The guide table splits [0, 1) into n buckets and records, per
// bucket, where that bucket's lowest target lands; a draw starts there and
// walks to the answer.
//
// Invariant: find(u) returns exactly std::lower_bound's index for the
// target u * total (the last entry), computed with the same
// multiplication. The walk goes back while the previous entry is still >=
// the target, then forward while the current entry is below it, so it
// lands on the first entry >= target from any start. That holds on
// plateaus (zero-weight entries) and at u = 0 too, and it is why the table
// can replace the binary search without moving a single draw.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace odr::util {

class GuideTable {
 public:
  GuideTable() = default;

  // `cumulative` must be non-decreasing with a positive last entry (or
  // empty, for a table nothing draws from), and shorter than 2^32 entries.
  explicit GuideTable(std::vector<double> cumulative)
      : cumulative_(std::move(cumulative)), guide_(cumulative_.size()) {
    assert(cumulative_.empty() || cumulative_.back() > 0.0);
    const std::size_t n = cumulative_.size();
    const double total = n == 0 ? 0.0 : cumulative_.back();
    std::size_t i = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const double start =
          static_cast<double>(j) / static_cast<double>(n) * total;
      while (i + 1 < n && cumulative_[i] < start) ++i;
      guide_[j] = static_cast<std::uint32_t>(i);
    }
  }

  bool empty() const { return cumulative_.empty(); }
  const std::vector<double>& cumulative() const { return cumulative_; }

  // The index of the first cumulative entry >= u * (the last entry), for u
  // in [0, 1).
  std::size_t find(double u) const {
    const double target = u * cumulative_.back();
    const std::size_t n = cumulative_.size();
    auto bucket = static_cast<std::size_t>(u * static_cast<double>(n));
    if (bucket >= n) bucket = n - 1;
    std::size_t i = guide_[bucket];
    while (i > 0 && cumulative_[i - 1] >= target) --i;
    while (i + 1 < n && cumulative_[i] < target) ++i;
    return i;
  }

 private:
  std::vector<double> cumulative_;
  std::vector<std::uint32_t> guide_;
};

}  // namespace odr::util
