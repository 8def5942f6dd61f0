#include "cloud/storage_pool.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/observer.h"
#include "snapshot/format.h"
#include "util/digest.h"

namespace odr::cloud {
namespace {

// The caches section holds tags 1-6 and 10; the cache window section
// holds the entry count again and the entries (tags 6-9).
enum : std::uint16_t {
  kTagHits = 1,
  kTagMisses = 2,
  kTagFaultEvictions = 3,
  kTagEvictions = 4,
  kTagCapacity = 5,
  kTagEntryCount = 6,
  kTagEntryKey = 7,
  kTagEntryFile = 8,
  kTagEntrySize = 9,
  kTagOpsDigest = 10,
};

constexpr workload::FileIndex kNone = workload::kInvalidFile;

// The two operations the digest tells apart, above a file index.
constexpr std::uint64_t kOpLinkFront = std::uint64_t{1} << 32;
constexpr std::uint64_t kOpUnlink = std::uint64_t{2} << 32;

}  // namespace

StoragePool::StoragePool(const workload::Catalog& catalog, Bytes capacity)
    : catalog_(catalog), capacity_(capacity), nodes_(catalog.size()) {}

void StoragePool::link_front(workload::FileIndex file) {
  Node& n = nodes_[file];
  n.prev = kNone;
  n.next = head_;
  n.cached = true;
  (head_ == kNone ? tail_ : nodes_[head_].prev) = file;
  head_ = file;
  used_ += size_of(file);
  ++count_;
  ops_digest_ = digest_step(ops_digest_, kOpLinkFront | file);
}

void StoragePool::unlink(workload::FileIndex file) {
  Node& n = nodes_[file];
  (n.prev == kNone ? head_ : nodes_[n.prev].next) = n.next;
  (n.next == kNone ? tail_ : nodes_[n.next].prev) = n.prev;
  n = Node{};
  used_ -= size_of(file);
  --count_;
  ops_digest_ = digest_step(ops_digest_, kOpUnlink | file);
}

void StoragePool::pop_back() {
  unlink(tail_);
  ++evictions_;
}

bool StoragePool::lookup(workload::FileIndex file) {
  if (nodes_[file].cached) {
    unlink(file);
    link_front(file);
    ++hits_;
    ODR_COUNT("cloud.pool.hits");
    return true;
  }
  ++misses_;
  ODR_COUNT("cloud.pool.misses");
  return false;
}

bool StoragePool::insert(workload::FileIndex file) {
  ODR_COUNT("cloud.pool.inserts");
  const Bytes size = size_of(file);
  if (size > capacity_) return false;
  const std::uint64_t before = evictions_;
  if (nodes_[file].cached) unlink(file);
  while (used_ + size > capacity_ && tail_ != kNone) pop_back();
  link_front(file);
  ODR_COUNT_N("cloud.pool.evictions", evictions_ - before);
  return true;
}

std::size_t StoragePool::evict_fraction(double fraction) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  const auto count = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(count_)));
  std::size_t evicted = 0;
  for (; evicted < count && tail_ != kNone; ++evicted) unlink(tail_);
  fault_evictions_ += evicted;
  ODR_COUNT_N("cloud.pool.fault_evictions", evicted);
  ODR_FLIGHT(kCloud, kWarn, "pool.evict_fraction", fraction,
             static_cast<double>(evicted));
  return evicted;
}

double StoragePool::hit_ratio() const {
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
}

void StoragePool::save(snapshot::SnapshotWriter& w) const {
  w.u64(kTagHits, hits_);
  w.u64(kTagMisses, misses_);
  w.u64(kTagFaultEvictions, fault_evictions_);
  w.u64(kTagEvictions, evictions_);
  w.u64(kTagCapacity, capacity_);
  w.u64(kTagEntryCount, count_);
  w.u64(kTagOpsDigest, ops_digest_);
}

void StoragePool::load(snapshot::SnapshotReader& r) {
  hits_ = r.u64(kTagHits);
  misses_ = r.u64(kTagMisses);
  fault_evictions_ = r.u64(kTagFaultEvictions);
  evictions_ = r.u64(kTagEvictions);
  const std::uint64_t capacity = r.u64(kTagCapacity);
  if (capacity != capacity_) {
    r.fail("storage pool: capacity mismatch between checkpoint and config");
  }
  saved_count_ = r.u64(kTagEntryCount);
  ops_digest_ = r.u64(kTagOpsDigest);
  std::fill(nodes_.begin(), nodes_.end(), Node{});
  head_ = tail_ = kNone;
  used_ = 0;
  count_ = 0;
}

void StoragePool::save_entries(snapshot::SnapshotWriter& w) const {
  w.u64(kTagEntryCount, count_);
  for (workload::FileIndex f = head_; f != kNone; f = nodes_[f].next) {
    const Md5Digest& key = catalog_.file(f).content_id;
    w.bytes(kTagEntryKey, key.bytes.data(), key.bytes.size());
    w.u32(kTagEntryFile, f);
    w.u64(kTagEntrySize, size_of(f));
  }
}

void StoragePool::load_entries(snapshot::SnapshotReader& r) {
  const std::uint64_t count = r.u64(kTagEntryCount);
  if (count != saved_count_) {
    r.fail("storage pool: " + std::to_string(count) +
           " entries follow, but the caches section records " +
           std::to_string(saved_count_));
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    Md5Digest key;
    r.bytes(kTagEntryKey, key.bytes.data(), key.bytes.size());
    const workload::FileIndex file = r.u32(kTagEntryFile);
    const Bytes size = r.u64(kTagEntrySize);
    const auto corrupt = [&](const std::string& why) {
      r.fail("storage pool: entry " + std::to_string(i) + " " + why);
    };
    if (file >= nodes_.size()) {
      corrupt("names file " + std::to_string(file) + " of " +
              std::to_string(nodes_.size()));
    }
    if (nodes_[file].cached) {
      corrupt("lists file " + std::to_string(file) + " twice");
    }
    if (key != catalog_.file(file).content_id) {
      corrupt("has an MD5 that differs from file " + std::to_string(file) +
              "'s");
    }
    if (size != size_of(file)) {
      corrupt("has a size that differs from file " + std::to_string(file) +
              "'s");
    }
    if (size > capacity_ - used_) {
      corrupt("takes the pool above its capacity");
    }
    // Entries arrive MRU->LRU: each one becomes the new tail.
    Node& n = nodes_[file];
    n.prev = tail_;
    n.cached = true;
    (tail_ == kNone ? head_ : nodes_[tail_].next) = file;
    tail_ = file;
    used_ += size;
    ++count_;
  }
}

}  // namespace odr::cloud
