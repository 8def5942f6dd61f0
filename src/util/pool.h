// SlabPool: a typed object pool with freelist recycling and deterministic,
// address-independent slot ids.
//
// The steady-state populations of a full-scale replay — live network
// flows, link→flow adjacency nodes, open task spans — churn millions of
// times per week but plateau at a bounded high-water mark. Allocating
// each object with `new` (or a node-based container) puts an allocator
// round-trip and a cache-hostile address on the hottest paths; DESIGN.md
// §16 moves these populations into slab pools instead.
//
// Layout and contract (follows the slab/pool metadata pattern of
// SRI-CSL/sri-glibc-malloc's pool.c, adapted to typed C++ objects):
//
//   - objects live in one contiguous std::vector<T> slab; a slot is a
//     dense 32-bit index into it. Slots, not pointers, are the identity:
//     they are stable across slab growth, identical across runs of the
//     same workload, and serialize directly (address-independent);
//   - release() pushes the slot on a LIFO freelist threaded through a
//     parallel index array (never through the object — T needs no
//     intrusive hook); acquire() pops it, so a warm pool never touches
//     the allocator and hot slots stay cache-resident;
//   - the object itself is NOT destroyed on release: it is handed back to
//     acquire() as-is, so buffers owned by T (vectors, strings, SmallFunc
//     storage) keep their capacity across reuse. Callers reset the fields
//     they care about — exactly the idiom the engine and network slabs
//     already used, now shared;
//   - live slots can be visited in slot order with for_each_slot; callers
//     needing a canonical order sort by their own ids (slot order is
//     deterministic too, but interleaves freelist history).
//
// Determinism: acquire/release sequences are pure functions of the call
// sequence — no addresses, no hashing — so slot assignment is bit-stable
// across runs, machines, and ASLR, which is what lets pooled populations
// checkpoint/restore by slot-free serialization (save by id, reload into
// a fresh pool, identical layout).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace odr::util {

template <typename T>
class SlabPool {
 public:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  SlabPool() = default;

  // Pops a recycled slot (LIFO) or appends a fresh one. The returned
  // object holds whatever the previous occupant left (capacity reuse);
  // the caller resets the fields it needs.
  std::uint32_t acquire() {
    std::uint32_t slot;
    if (free_head_ != kNoSlot) {
      slot = free_head_;
      free_head_ = next_free_[slot];
      next_free_[slot] = kLive;
    } else {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back();
      next_free_.push_back(kLive);
    }
    ++live_;
    return slot;
  }

  // Returns a slot to the freelist. The object is not destroyed; it waits
  // in place for the next acquire().
  void release(std::uint32_t slot) {
    assert(slot < slab_.size());
    assert(next_free_[slot] == kLive && "double release of a pool slot");
    next_free_[slot] = free_head_;
    free_head_ = slot;
    --live_;
  }

  T& operator[](std::uint32_t slot) {
    assert(slot < slab_.size());
    return slab_[slot];
  }
  const T& operator[](std::uint32_t slot) const {
    assert(slot < slab_.size());
    return slab_[slot];
  }

  bool slot_live(std::uint32_t slot) const {
    return slot < slab_.size() && next_free_[slot] == kLive;
  }

  // Live (acquired) objects.
  std::size_t live_count() const { return live_; }
  // High-water slab size (live + free slots).
  std::size_t capacity() const { return slab_.size(); }

  // Pre-grows the slab so the first `n` acquires never allocate.
  void reserve(std::size_t n) {
    slab_.reserve(n);
    next_free_.reserve(n);
  }

  // Destroys every object and empties the pool (used by snapshot load,
  // which rebuilds the population from the checkpoint).
  void clear() {
    slab_.clear();
    next_free_.clear();
    free_head_ = kNoSlot;
    live_ = 0;
  }

  // Visits every LIVE slot in ascending slot order.
  template <typename Fn>
  void for_each_slot(Fn&& fn) {
    for (std::uint32_t s = 0; s < slab_.size(); ++s) {
      if (next_free_[s] == kLive) fn(s, slab_[s]);
    }
  }
  template <typename Fn>
  void for_each_slot(Fn&& fn) const {
    for (std::uint32_t s = 0; s < slab_.size(); ++s) {
      if (next_free_[s] == kLive) fn(s, slab_[s]);
    }
  }

 private:
  // Freelist sentinel for "slot is live" (distinct from kNoSlot, the
  // end-of-list marker, so double release is detectable in debug builds).
  static constexpr std::uint32_t kLive = 0xfffffffeu;

  std::vector<T> slab_;
  std::vector<std::uint32_t> next_free_;  // freelist links / kLive marker
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;
};

}  // namespace odr::util
