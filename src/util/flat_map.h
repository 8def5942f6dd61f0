// FlatMap64: open-addressing hash map from non-zero 64-bit ids to a small
// trivially-copyable value (slot indices, mostly). With insert(), which
// reports whether the key was new, it also serves as a set (the workload's
// fetch-at-most-once dedup).
//
// The engine hot paths (event cancel-by-id, flow lookup-by-id) previously
// went through std::unordered_map, whose node-per-insert allocation and
// pointer-chasing find() dominated profiles. FlatMap64 keeps keys and
// values in two parallel flat arrays with linear probing and backward-shift
// deletion, so steady-state operation allocates nothing and every probe is
// a sequential cache line.
//
// Constraints (asserted): keys are != 0 (0 marks an empty bucket — the
// codebase's id spaces all start at 1 and reserve 0 as invalid; a key
// space that includes 0 stores key + 1), and V is
// trivially copyable. Iteration order is unspecified; callers that need
// deterministic order must sort (they already do — see Network::save).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace odr::util {

template <typename V>
class FlatMap64 {
  static_assert(std::is_trivially_copyable_v<V>,
                "FlatMap64 values are moved by memcpy during rehash");

 public:
  FlatMap64() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    keys_.assign(keys_.size(), 0);
    size_ = 0;
  }

  void reserve(std::size_t n) {
    // Max load factor 1/2: probes stay short even on adversarial streaks.
    std::size_t cap = 16;
    while (cap < 2 * n) cap <<= 1;
    if (cap > keys_.size()) rehash(cap);
  }

  // Inserts or overwrites.
  void put(std::uint64_t key, V value) { vals_[claim(key)] = value; }

  // Inserts the key unless it is present; true iff it inserted. One probe
  // either way, so a set of ids needs no find() before it.
  bool insert(std::uint64_t key, V value) {
    const std::size_t before = size_;
    const std::size_t i = claim(key);
    if (size_ == before) return false;
    vals_[i] = value;
    return true;
  }

  // Pointer to the mapped value, or nullptr.
  V* find(std::uint64_t key) {
    if (size_ == 0) return nullptr;
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = index_for(key);
    while (keys_[i] != 0) {
      if (keys_[i] == key) return &vals_[i];
      i = (i + 1) & mask;
    }
    return nullptr;
  }
  const V* find(std::uint64_t key) const {
    return const_cast<FlatMap64*>(this)->find(key);
  }
  bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  // Removes the key if present. Backward-shift deletion: no tombstones, so
  // load (and probe length) reflects live entries only.
  bool erase(std::uint64_t key) {
    if (size_ == 0) return false;
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = index_for(key);
    while (keys_[i] != 0 && keys_[i] != key) i = (i + 1) & mask;
    if (keys_[i] == 0) return false;
    std::size_t hole = i;
    std::size_t j = (hole + 1) & mask;
    while (keys_[j] != 0) {
      // Shift j back into the hole if its home slot does not lie in the
      // (cyclic) interval (hole, j] — i.e. the probe for keys_[j] would
      // have passed through the hole.
      const std::size_t home = index_for(keys_[j]);
      const bool reachable = ((j - home) & mask) >= ((j - hole) & mask);
      if (reachable) {
        keys_[hole] = keys_[j];
        vals_[hole] = vals_[j];
        hole = j;
      }
      j = (j + 1) & mask;
    }
    keys_[hole] = 0;
    --size_;
    return true;
  }

  // Visits every (key, value) pair in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != 0) fn(keys_[i], vals_[i]);
    }
  }

 private:
  std::size_t index_for(std::uint64_t key) const {
    // Fibonacci hashing: sequential ids (the common case — both event and
    // flow ids are monotone counters) spread uniformly over the table.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                    shift_);
  }

  // The bucket holding `key`, claimed (and counted) if the key is absent.
  std::size_t claim(std::uint64_t key) {
    assert(key != 0 && "key 0 is the empty-bucket marker");
    if (2 * (size_ + 1) > keys_.size()) grow();
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = index_for(key);
    while (keys_[i] != 0) {
      if (keys_[i] == key) return i;
      i = (i + 1) & mask;
    }
    keys_[i] = key;
    ++size_;
    return i;
  }

  void grow() { rehash(keys_.empty() ? 16 : keys_.size() * 2); }

  void rehash(std::size_t new_cap) {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_vals = std::move(vals_);
    keys_.assign(new_cap, 0);
    vals_.assign(new_cap, V{});
    shift_ = 64;
    for (std::size_t c = new_cap; c > 1; c >>= 1) --shift_;
    const std::size_t mask = new_cap - 1;
    size_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == 0) continue;
      std::size_t j = index_for(old_keys[i]);
      while (keys_[j] != 0) j = (j + 1) & mask;
      keys_[j] = old_keys[i];
      vals_[j] = old_vals[i];
      ++size_;
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<V> vals_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;  // 64 - log2(capacity)
};

}  // namespace odr::util
