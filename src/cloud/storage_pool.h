// Cloud storage pool: file-level-deduplicated LRU cache.
//
// §2.1: every file is identified by the MD5 of its content, enabling
// file-level deduplication across users; 89% of requests are instantly
// satisfied from cache. Chunk-level dedup is deliberately NOT implemented,
// as in Xuanfeng (the measured space saving was <1% for the cost of
// chunking complexity).
//
// A catalog file's content_id is 1:1 with its index (the generator embeds
// a unique content hex in each link, and trace ingest refuses two file ids
// sharing a link), so deduplicating by file index is deduplicating by MD5.
// The pool is one intrusive doubly-linked list over the catalog's file
// indices: a node per file holds its neighbours and whether it is cached,
// head_ is the most- and tail_ the least-recently-used cached file, and a
// file's size comes from the catalog. MD5 stays the file's identity in
// checkpoints, which load checks against the catalog.
//
// Every change to the list is a link_front or an unlink, and the pool
// folds each into a running digest of its operation stream
// (util/digest.h). The state hash reads that digest instead of the
// entries: hashing the entries, in recency or in file-index order, costs
// O(entries) per hash, the digest nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "util/units.h"
#include "workload/catalog.h"

namespace odr::snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace odr::snapshot

namespace odr::cloud {

class StoragePool {
 public:
  // The catalog must outlive the pool.
  StoragePool(const workload::Catalog& catalog, Bytes capacity);

  // Lookup refreshes LRU recency and counts a hit/miss.
  bool lookup(workload::FileIndex file);
  // Peek without recency or counter effects (used by decision logic).
  bool contains(workload::FileIndex file) const {
    return nodes_[file].cached;
  }

  // Inserts a fully pre-downloaded file as the most recently used, evicting
  // least-recently-used files until it fits. Re-inserting a cached file
  // refreshes it. Returns false iff the file alone exceeds the capacity
  // (then nothing changes).
  bool insert(workload::FileIndex file);

  // Fault-layer hook: a storage node dies, taking `fraction` of the pool's
  // entries with it. Cold (least-recently-used) entries model the shard a
  // years-old node accumulated. Returns the number of entries lost.
  std::size_t evict_fraction(double fraction);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double hit_ratio() const;
  std::uint64_t fault_evictions() const { return fault_evictions_; }

  Bytes used_bytes() const { return used_; }
  Bytes capacity_bytes() const { return capacity_; }
  std::size_t file_count() const { return count_; }
  std::uint64_t evictions() const { return evictions_; }

  // Snapshot support, in two parts. save/load write the counters, the
  // entry count and the operation digest: the checkpoint's hashed `caches`
  // section. save_entries/load_entries write every cached file's MD5,
  // index and size in MRU->LRU order, for the checkpoint's trailing
  // cache-window section, so restore reproduces the exact recency list
  // (and therefore identical future evictions). load_entries must follow
  // load (until then the pool is empty); it refuses (kCorrupt, naming the
  // section) an entry count other than the one load read, a file outside
  // the catalog, a file listed twice, an MD5 or size that differs from the
  // catalog's, and a total above the capacity.
  void save(snapshot::SnapshotWriter& w) const;
  void load(snapshot::SnapshotReader& r);
  void save_entries(snapshot::SnapshotWriter& w) const;
  void load_entries(snapshot::SnapshotReader& r);

 private:
  struct Node {
    workload::FileIndex prev = workload::kInvalidFile;  // towards head_
    workload::FileIndex next = workload::kInvalidFile;  // towards tail_
    bool cached = false;
  };

  Bytes size_of(workload::FileIndex file) const {
    return catalog_.file(file).size;
  }
  void link_front(workload::FileIndex file);
  void unlink(workload::FileIndex file);
  // Removes the least-recently-used file.
  void pop_back();

  const workload::Catalog& catalog_;
  Bytes capacity_;
  std::vector<Node> nodes_;  // one per catalog file
  workload::FileIndex head_ = workload::kInvalidFile;  // most recently used
  workload::FileIndex tail_ = workload::kInvalidFile;  // least recently used
  Bytes used_ = 0;
  std::size_t count_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t fault_evictions_ = 0;
  // Digest of every link_front and unlink, in order.
  std::uint64_t ops_digest_ = 0;
  // The entry count load read, which load_entries must find.
  std::uint64_t saved_count_ = 0;
};

}  // namespace odr::cloud
