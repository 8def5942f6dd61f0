// Unit tests for the event engine's substrates: SmallFunc (SBO callable)
// and FlatMap64 (open-addressing id map with backward-shift deletion).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/flat_map.h"
#include "util/small_func.h"

namespace odr::util {
namespace {

// --- SmallFunc --------------------------------------------------------------

TEST(SmallFuncTest, CallsInlineCapture) {
  int hits = 0;
  SmallFunc<void()> f([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(f));
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFuncTest, ReturnsValuesAndTakesArguments) {
  SmallFunc<int(int, int)> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(2, 3), 5);
}

TEST(SmallFuncTest, DefaultConstructedIsEmpty) {
  SmallFunc<void()> f;
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(SmallFuncTest, MoveTransfersOwnershipInline) {
  int hits = 0;
  SmallFunc<void()> a([&hits] { ++hits; });
  SmallFunc<void()> b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(SmallFuncTest, LargeCaptureFallsBackToHeapAndStillWorks) {
  // A capture well past the 48-byte inline buffer.
  struct Big {
    std::uint64_t data[16];
  };
  Big big{};
  big.data[0] = 7;
  big.data[15] = 11;
  SmallFunc<std::uint64_t()> f(
      [big] { return big.data[0] + big.data[15]; });
  EXPECT_EQ(f(), 18u);
  SmallFunc<std::uint64_t()> g(std::move(f));
  EXPECT_EQ(g(), 18u);
}

TEST(SmallFuncTest, DestroysCaptureExactlyOnce) {
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  {
    SmallFunc<int()> f([token] { return *token; });
    token.reset();
    EXPECT_EQ(f(), 42);
    EXPECT_FALSE(watch.expired());
    SmallFunc<int()> g(std::move(f));
    EXPECT_EQ(g(), 42);
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(SmallFuncTest, MoveAssignReleasesPreviousCapture) {
  auto first = std::make_shared<int>(1);
  std::weak_ptr<int> watch = first;
  SmallFunc<int()> f([first] { return *first; });
  first.reset();
  EXPECT_FALSE(watch.expired());
  f = SmallFunc<int()>([] { return 2; });
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(f(), 2);
}

TEST(SmallFuncTest, MoveOnlyCapturesAreSupported) {
  auto owned = std::make_unique<int>(9);
  SmallFunc<int()> f([p = std::move(owned)] { return *p; });
  EXPECT_EQ(f(), 9);
}

// --- FlatMap64 ---------------------------------------------------------------

TEST(FlatMap64Test, PutFindErase) {
  FlatMap64<std::uint32_t> m;
  EXPECT_TRUE(m.empty());
  m.put(1, 10);
  m.put(2, 20);
  m.put(1, 11);  // overwrite
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), 11u);
  EXPECT_EQ(m.find(3), nullptr);
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap64Test, InsertKeepsTheFirstValue) {
  FlatMap64<std::uint32_t> m;
  EXPECT_TRUE(m.insert(7, 70));
  EXPECT_FALSE(m.insert(7, 71));  // present: refused, value unchanged
  EXPECT_EQ(*m.find(7), 70u);
  for (std::uint64_t k = 8; k < 200; ++k) EXPECT_TRUE(m.insert(k, 1));
  EXPECT_FALSE(m.insert(7, 72));  // still found after the table grew
  EXPECT_EQ(m.size(), 193u);
}

TEST(FlatMap64Test, ClearAndReserve) {
  FlatMap64<std::uint32_t> m;
  m.reserve(1000);
  for (std::uint64_t k = 1; k <= 1000; ++k) m.put(k, static_cast<std::uint32_t>(k));
  EXPECT_EQ(m.size(), 1000u);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(500), nullptr);
  m.put(500, 5);
  EXPECT_EQ(*m.find(500), 5u);
}

TEST(FlatMap64Test, ForEachVisitsEveryLiveEntry) {
  FlatMap64<std::uint32_t> m;
  for (std::uint64_t k = 1; k <= 64; ++k) m.put(k, static_cast<std::uint32_t>(2 * k));
  for (std::uint64_t k = 1; k <= 64; k += 2) m.erase(k);
  std::uint64_t sum_keys = 0;
  std::size_t visits = 0;
  m.for_each([&](std::uint64_t k, std::uint32_t v) {
    EXPECT_EQ(v, 2 * k);
    sum_keys += k;
    ++visits;
  });
  EXPECT_EQ(visits, 32u);
  std::uint64_t want = 0;
  for (std::uint64_t k = 2; k <= 64; k += 2) want += k;
  EXPECT_EQ(sum_keys, want);
}

// Randomized differential test against std::unordered_map: the interesting
// machinery is backward-shift deletion under clustering, which only long
// mixed put/erase streaks exercise.
TEST(FlatMap64Test, MatchesUnorderedMapUnderRandomOperations) {
  FlatMap64<std::uint32_t> m;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  std::mt19937_64 rng(12345);
  // Small key universe forces constant collisions and deletion shifts.
  std::uniform_int_distribution<std::uint64_t> key_dist(1, 512);
  for (int step = 0; step < 200000; ++step) {
    const std::uint64_t k = key_dist(rng);
    switch (rng() % 3) {
      case 0: {
        const auto v = static_cast<std::uint32_t>(rng());
        m.put(k, v);
        ref[k] = v;
        break;
      }
      case 1: {
        EXPECT_EQ(m.erase(k), ref.erase(k) > 0);
        break;
      }
      default: {
        const std::uint32_t* got = m.find(k);
        const auto it = ref.find(k);
        if (it == ref.end()) {
          EXPECT_EQ(got, nullptr);
        } else {
          ASSERT_NE(got, nullptr);
          EXPECT_EQ(*got, it->second);
        }
        break;
      }
    }
    EXPECT_EQ(m.size(), ref.size());
  }
  // Final sweep: both directions.
  std::size_t visited = 0;
  m.for_each([&](std::uint64_t k, std::uint32_t v) {
    const auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(v, it->second);
    ++visited;
  });
  EXPECT_EQ(visited, ref.size());
}

}  // namespace
}  // namespace odr::util
