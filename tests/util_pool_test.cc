// Unit + property tests for the memory plane's allocator (util/pool.h):
// SlabPool's freelist recycling and deterministic slot ids. DESIGN.md §16
// leans on two properties proven here: slot assignment is a pure function
// of the acquire/release call sequence (so pooled populations replay and
// checkpoint bit-identically), and released storage is recycled rather
// than returned to the heap (so warm steady state never allocates).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/pool.h"

namespace odr::util {
namespace {

// --- SlabPool: basics -------------------------------------------------------

TEST(SlabPoolTest, AcquireAssignsDenseAscendingSlots) {
  SlabPool<int> pool;
  EXPECT_EQ(pool.acquire(), 0u);
  EXPECT_EQ(pool.acquire(), 1u);
  EXPECT_EQ(pool.acquire(), 2u);
  EXPECT_EQ(pool.live_count(), 3u);
  EXPECT_EQ(pool.capacity(), 3u);
}

TEST(SlabPoolTest, ReleaseRecyclesLifo) {
  SlabPool<int> pool;
  const std::uint32_t a = pool.acquire();
  const std::uint32_t b = pool.acquire();
  const std::uint32_t c = pool.acquire();
  pool.release(b);
  pool.release(a);
  // LIFO: the most recently released slot comes back first.
  EXPECT_EQ(pool.acquire(), a);
  EXPECT_EQ(pool.acquire(), b);
  // Freelist drained: the next acquire extends the slab.
  EXPECT_EQ(pool.acquire(), 3u);
  EXPECT_EQ(pool.live_count(), 4u);
  pool.release(c);
  EXPECT_EQ(pool.acquire(), c);
}

TEST(SlabPoolTest, SlotLiveTracksState) {
  SlabPool<int> pool;
  const std::uint32_t s = pool.acquire();
  EXPECT_TRUE(pool.slot_live(s));
  pool.release(s);
  EXPECT_FALSE(pool.slot_live(s));
  EXPECT_FALSE(pool.slot_live(99));  // never allocated
}

TEST(SlabPoolTest, ObjectsKeepStateAcrossRecycle) {
  // The capacity-reuse contract: release does NOT destroy the object, so
  // an acquired slot hands back whatever the previous occupant left —
  // including heap capacity owned by the object.
  SlabPool<std::vector<int>> pool;
  const std::uint32_t s = pool.acquire();
  pool[s].assign(100, 7);
  const int* data = pool[s].data();
  pool.release(s);
  const std::uint32_t again = pool.acquire();
  ASSERT_EQ(again, s);
  EXPECT_EQ(pool[s].size(), 100u);
  EXPECT_EQ(pool[s].data(), data);  // same buffer: no free, no realloc
}

TEST(SlabPoolTest, ForEachSlotVisitsLiveInAscendingOrder) {
  SlabPool<int> pool;
  for (int i = 0; i < 6; ++i) pool[pool.acquire()] = i;
  pool.release(1);
  pool.release(4);
  std::vector<std::uint32_t> seen;
  pool.for_each_slot([&](std::uint32_t s, int&) { seen.push_back(s); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 2, 3, 5}));
}

TEST(SlabPoolTest, ClearEmptiesEverything) {
  SlabPool<int> pool;
  pool.acquire();
  pool.acquire();
  pool.clear();
  EXPECT_EQ(pool.live_count(), 0u);
  EXPECT_EQ(pool.capacity(), 0u);
  EXPECT_EQ(pool.acquire(), 0u);  // ids restart from a blank slab
}

// --- SlabPool: determinism properties ---------------------------------------

// Replays a pseudo-random acquire/release script and returns the exact
// slot sequence the pool produced.
std::vector<std::uint32_t> run_script(std::uint64_t seed, int ops) {
  std::mt19937_64 rng(seed);
  SlabPool<std::string> pool;
  std::vector<std::uint32_t> live;
  std::vector<std::uint32_t> produced;
  for (int i = 0; i < ops; ++i) {
    const bool do_release = !live.empty() && rng() % 3 == 0;
    if (do_release) {
      const std::size_t pick = rng() % live.size();
      pool.release(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const std::uint32_t s = pool.acquire();
      produced.push_back(s);
      live.push_back(s);
    }
  }
  return produced;
}

TEST(SlabPoolPropertyTest, SlotSequenceIsPureFunctionOfCallSequence) {
  // Same script -> bit-identical slot ids, run to run. This is the
  // address-independence the snapshot layer relies on.
  for (std::uint64_t seed : {1ull, 42ull, 20151028ull}) {
    EXPECT_EQ(run_script(seed, 500), run_script(seed, 500)) << seed;
  }
}

TEST(SlabPoolPropertyTest, NoTwoLiveObjectsShareASlot) {
  std::mt19937_64 rng(7);
  SlabPool<int> pool;
  std::set<std::uint32_t> live;
  for (int i = 0; i < 2000; ++i) {
    if (!live.empty() && rng() % 2 == 0) {
      const std::uint32_t victim = *live.begin();
      pool.release(victim);
      live.erase(victim);
    } else {
      const std::uint32_t s = pool.acquire();
      EXPECT_TRUE(live.insert(s).second) << "slot " << s << " double-issued";
    }
    EXPECT_EQ(pool.live_count(), live.size());
  }
}

TEST(SlabPoolPropertyTest, CapacityIsHighWaterMarkNotChurn) {
  // A churn-heavy workload that never exceeds K concurrent objects must
  // plateau the slab at exactly K slots, however many times it cycles.
  SlabPool<int> pool;
  constexpr std::size_t kWidth = 16;
  std::vector<std::uint32_t> wave;
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (std::size_t i = 0; i < kWidth; ++i) wave.push_back(pool.acquire());
    for (std::uint32_t s : wave) pool.release(s);
    wave.clear();
  }
  EXPECT_EQ(pool.capacity(), kWidth);
  EXPECT_EQ(pool.live_count(), 0u);
}

TEST(SlabPoolPropertyTest, ReuseIdsComeFromReleasedSet) {
  // Every recycled id must be one previously released and not currently
  // live — the freelist can neither invent slots nor resurrect live ones.
  std::mt19937_64 rng(99);
  SlabPool<int> pool;
  std::set<std::uint32_t> live;
  std::set<std::uint32_t> released;
  std::uint32_t high_water = 0;
  for (int i = 0; i < 3000; ++i) {
    if (!live.empty() && rng() % 3 == 0) {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng() % live.size()));
      pool.release(*it);
      released.insert(*it);
      live.erase(it);
    } else {
      const std::uint32_t s = pool.acquire();
      if (s < high_water) {
        // Recycled: must come from the released set.
        EXPECT_TRUE(released.count(s)) << s;
        released.erase(s);
      } else {
        // Fresh: slab extension is dense.
        EXPECT_EQ(s, high_water);
        high_water = s + 1;
      }
      live.insert(s);
    }
  }
}

}  // namespace
}  // namespace odr::util
