#include "cloud/cache_policy.h"

#include <cassert>

namespace odr::cloud {

PolicyCache::PolicyCache(CachePolicy policy, Bytes capacity)
    : policy_(policy), capacity_(capacity) {}

double PolicyCache::hit_ratio() const {
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(hits_) / static_cast<double>(total);
}

double PolicyCache::priority_for(const Entry& e, Bytes size,
                                 std::uint64_t frequency, bool on_hit) const {
  switch (policy_) {
    case CachePolicy::kLru:
      // Most recent access has highest priority.
      return static_cast<double>(clock_);
    case CachePolicy::kLfu:
      return static_cast<double>(frequency);
    case CachePolicy::kFifo:
      // Insertion order only: hits do not refresh.
      return on_hit ? e.priority : static_cast<double>(clock_);
    case CachePolicy::kGdsf:
      // H = L + freq / size(MB): the aging floor L rises to the evicted
      // priority, so long-idle objects eventually age out.
      return aging_floor_ + static_cast<double>(frequency) /
                                (static_cast<double>(size) / 1e6 + 1e-9);
  }
  return 0.0;
}

void PolicyCache::touch(workload::FileIndex file, Entry& e) {
  auto loc = locator_.find(file);
  if (loc != locator_.end()) queue_.erase(loc->second);
  const auto key = std::make_pair(e.priority, e.order);
  queue_[key] = file;
  locator_[file] = key;
}

void PolicyCache::evict_one() {
  assert(!queue_.empty());
  const auto it = queue_.begin();
  const workload::FileIndex victim = it->second;
  if (policy_ == CachePolicy::kGdsf) aging_floor_ = it->first.first;
  queue_.erase(it);
  locator_.erase(victim);
  auto e = entries_.find(victim);
  assert(e != entries_.end());
  used_ -= e->second.size;
  entries_.erase(e);
  ++evictions_;
}

bool PolicyCache::access(workload::FileIndex file, Bytes size) {
  ++clock_;
  const std::uint64_t freq = ++frequency_[file];

  auto it = entries_.find(file);
  if (it != entries_.end()) {
    ++hits_;
    Entry& e = it->second;
    e.priority = priority_for(e, e.size, freq, /*on_hit=*/true);
    e.order = clock_;
    touch(file, e);
    return true;
  }

  ++misses_;
  if (size > capacity_) return false;  // uncacheable; nothing evicted
  while (used_ + size > capacity_ && !entries_.empty()) evict_one();

  Entry e;
  e.size = size;
  e.order = clock_;
  e.priority = priority_for(e, size, freq, /*on_hit=*/false);
  used_ += size;
  auto [pos, inserted] = entries_.emplace(file, e);
  assert(inserted);
  touch(file, pos->second);
  return false;
}

}  // namespace odr::cloud
