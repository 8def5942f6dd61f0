// Alternative cache-replacement policies for the storage pool.
//
// §2.1: "the cached files are replaced in an LRU manner". This module
// exists to interrogate that design choice: a byte-capacity cache with
// pluggable eviction (LRU / LFU / FIFO / GDSF), driven by the same request
// stream the real pool sees. `ablation_cache_policy` replays the workload
// over each policy and capacity to show where LRU sits.
//
// GDSF (Greedy-Dual-Size-Frequency) is the classic web-cache policy that
// accounts for object size: priority = age + frequency / size. For a pool
// dominated by few-hundred-MB videos, size-awareness matters little —
// which is (part of) why plain LRU is a sane production choice.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string_view>
#include <unordered_map>

#include "util/units.h"
#include "workload/file.h"

namespace odr::cloud {

enum class CachePolicy : std::uint8_t {
  kLru = 0,
  kLfu = 1,
  kFifo = 2,
  kGdsf = 3,
};

constexpr std::string_view cache_policy_name(CachePolicy p) {
  switch (p) {
    case CachePolicy::kLru: return "LRU";
    case CachePolicy::kLfu: return "LFU";
    case CachePolicy::kFifo: return "FIFO";
    case CachePolicy::kGdsf: return "GDSF";
  }
  return "?";
}

// Byte-capacity cache with pluggable eviction. Keys are catalog file
// indices, as in the storage pool. It tracks only presence — it is an
// eviction-study instrument, not a value store.
class PolicyCache {
 public:
  PolicyCache(CachePolicy policy, Bytes capacity);

  // Records an access: returns true on hit (and updates recency/frequency
  // bookkeeping); on miss, inserts the object, evicting per policy.
  bool access(workload::FileIndex file, Bytes size);

  bool contains(workload::FileIndex file) const {
    return entries_.count(file) > 0;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  double hit_ratio() const;
  Bytes used_bytes() const { return used_; }
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    Bytes size = 0;
    double priority = 0.0;  // meaning depends on the policy
    std::uint64_t order = 0;  // insertion/access tiebreak
  };

  double priority_for(const Entry& e, Bytes size, std::uint64_t frequency,
                      bool on_hit) const;
  void evict_one();
  void touch(workload::FileIndex file, Entry& e);

  CachePolicy policy_;
  Bytes capacity_;
  Bytes used_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t clock_ = 0;       // logical access counter
  double aging_floor_ = 0.0;      // GDSF "L" inflation value

  std::unordered_map<workload::FileIndex, Entry> entries_;
  std::unordered_map<workload::FileIndex, std::uint64_t> frequency_;
  // Priority index: (priority, order) -> key. Lowest priority evicts first.
  std::map<std::pair<double, std::uint64_t>, workload::FileIndex> queue_;
  std::unordered_map<workload::FileIndex, std::pair<double, std::uint64_t>>
      locator_;
};

}  // namespace odr::cloud
