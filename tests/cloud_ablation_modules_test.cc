// Tests for the ablation-study modules: cache policies and chunk dedup.
#include <gtest/gtest.h>

#include "cloud/cache_policy.h"
#include "cloud/chunk_dedup.h"

namespace odr::cloud {
namespace {

workload::FileIndex key(int i) { return static_cast<workload::FileIndex>(i); }

TEST(PolicyCacheTest, HitMissAccounting) {
  PolicyCache cache(CachePolicy::kLru, 1000);
  EXPECT_FALSE(cache.access(key(1), 400));
  EXPECT_TRUE(cache.access(key(1), 400));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_ratio(), 0.5);
  EXPECT_EQ(cache.used_bytes(), 400u);
}

TEST(PolicyCacheTest, LruEvictsLeastRecentlyUsed) {
  PolicyCache cache(CachePolicy::kLru, 1000);
  cache.access(key(1), 400);
  cache.access(key(2), 400);
  cache.access(key(1), 400);  // refresh 1; 2 is LRU
  cache.access(key(3), 400);  // evicts 2
  EXPECT_TRUE(cache.contains(key(1)));
  EXPECT_FALSE(cache.contains(key(2)));
  EXPECT_TRUE(cache.contains(key(3)));
}

TEST(PolicyCacheTest, FifoIgnoresHits) {
  PolicyCache cache(CachePolicy::kFifo, 1000);
  cache.access(key(1), 400);
  cache.access(key(2), 400);
  cache.access(key(1), 400);  // hit does NOT refresh under FIFO
  cache.access(key(3), 400);  // evicts 1 (oldest insertion)
  EXPECT_FALSE(cache.contains(key(1)));
  EXPECT_TRUE(cache.contains(key(2)));
}

TEST(PolicyCacheTest, LfuKeepsFrequentItems) {
  PolicyCache cache(CachePolicy::kLfu, 1000);
  for (int i = 0; i < 5; ++i) cache.access(key(1), 400);
  cache.access(key(2), 400);
  cache.access(key(3), 400);  // evicts 2 (freq 1 vs 5)
  EXPECT_TRUE(cache.contains(key(1)));
  EXPECT_FALSE(cache.contains(key(2)));
}

TEST(PolicyCacheTest, GdsfPrefersSmallObjectsUnderPressure) {
  PolicyCache cache(CachePolicy::kGdsf, 1000);
  cache.access(key(1), 900);  // big
  cache.access(key(2), 50);   // small
  cache.access(key(3), 500);  // must evict: big one has lowest H
  EXPECT_FALSE(cache.contains(key(1)));
  EXPECT_TRUE(cache.contains(key(2)));
  EXPECT_TRUE(cache.contains(key(3)));
}

TEST(PolicyCacheTest, OversizedObjectNotCached) {
  PolicyCache cache(CachePolicy::kLru, 100);
  EXPECT_FALSE(cache.access(key(1), 500));
  EXPECT_FALSE(cache.contains(key(1)));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(PolicyCacheTest, CapacityNeverExceeded) {
  for (auto policy : {CachePolicy::kLru, CachePolicy::kLfu,
                      CachePolicy::kFifo, CachePolicy::kGdsf}) {
    PolicyCache cache(policy, 10000);
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
      cache.access(key(static_cast<int>(rng.uniform_index(300))),
                   100 + rng.uniform_index(900));
      ASSERT_LE(cache.used_bytes(), 10000u)
          << cache_policy_name(policy);
    }
    EXPECT_GT(cache.hits(), 0u);
    EXPECT_GT(cache.evictions(), 0u);
  }
}

// --- chunk dedup --------------------------------------------------------------

workload::FileInfo make_file(workload::FileIndex idx, Bytes size,
                             const std::string& content) {
  workload::FileInfo f;
  f.index = idx;
  f.rank = idx + 1;
  f.size = size;
  f.content_id = Md5::of(content);
  return f;
}

TEST(ChunkDedupTest, SignaturesAreStableAndSized) {
  const auto f = make_file(0, 10 * kMB, "a");
  const auto sigs = chunk_signatures(f, 4 * kMB);
  EXPECT_EQ(sigs.size(), 3u);  // 4 + 4 + 2 MB
  EXPECT_EQ(sigs, chunk_signatures(f, 4 * kMB));
  // Different files produce disjoint signatures.
  const auto g = make_file(1, 10 * kMB, "b");
  const auto gsigs = chunk_signatures(g, 4 * kMB);
  for (auto s : sigs) {
    EXPECT_EQ(std::count(gsigs.begin(), gsigs.end(), s), 0);
  }
}

TEST(ChunkDedupTest, SharedPrefixReusesDonorChunks) {
  const auto donor = make_file(0, 100 * kMB, "donor");
  const auto related = make_file(1, 100 * kMB, "related");
  const auto donor_sigs = chunk_signatures(donor, 4 * kMB);
  const auto rel_sigs = chunk_signatures(related, 4 * kMB, &donor, 0.4);
  // 40% of 25 chunks = 10 shared.
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(rel_sigs[i], donor_sigs[i]);
  for (std::size_t i = 10; i < rel_sigs.size(); ++i) {
    EXPECT_NE(rel_sigs[i], donor_sigs[i]);
  }
}

TEST(ChunkDedupTest, StoreCountsUniqueBytes) {
  ChunkStore store(4 * kMB);
  const auto donor = make_file(0, 40 * kMB, "donor");
  const auto related = make_file(1, 40 * kMB, "related");
  const auto r1 = store.add(donor, chunk_signatures(donor, 4 * kMB));
  EXPECT_EQ(r1.new_bytes, 40 * kMB);
  const auto r2 =
      store.add(related, chunk_signatures(related, 4 * kMB, &donor, 0.5));
  // Half the chunks were already present.
  EXPECT_EQ(r2.new_bytes, 20 * kMB);
  EXPECT_NEAR(store.dedup_saving(), 0.25, 1e-9);
  EXPECT_EQ(store.unique_chunks(), 15u);
  EXPECT_EQ(store.index_bytes(24), 15u * 24u);
}

TEST(ChunkDedupTest, IdenticalFileAddsNothing) {
  ChunkStore store(4 * kMB);
  const auto f = make_file(0, 12 * kMB, "same");
  store.add(f, chunk_signatures(f, 4 * kMB));
  const auto again = store.add(f, chunk_signatures(f, 4 * kMB));
  EXPECT_EQ(again.new_bytes, 0u);
  EXPECT_EQ(again.new_chunks, 0u);
}

TEST(ChunkDedupTest, CatalogSavingIsBelowOnePercent) {
  // The §2.1 claim at the default related-file rate.
  Rng rng(42);
  workload::CatalogParams cp;
  cp.num_files = 3000;
  cp.total_weekly_requests = 21750;
  const workload::Catalog catalog(cp, rng);
  const auto related = assign_related_files(catalog, ChunkingParams{}, rng);
  ChunkStore store(4 * kMB);
  for (const auto& f : catalog.files()) {
    const auto& rel = related[f.index];
    const workload::FileInfo* donor =
        rel.donor ? &catalog.file(*rel.donor) : nullptr;
    store.add(f, chunk_signatures(f, 4 * kMB, donor, rel.shared_fraction));
  }
  EXPECT_GT(store.dedup_saving(), 0.0);
  EXPECT_LT(store.dedup_saving(), 0.01);
}

TEST(ChunkDedupTest, RelatedAssignmentRespectsTypeAndOrder) {
  Rng rng(11);
  workload::CatalogParams cp;
  cp.num_files = 2000;
  cp.total_weekly_requests = 14500;
  const workload::Catalog catalog(cp, rng);
  ChunkingParams params;
  params.related_prob = 0.2;
  const auto related = assign_related_files(catalog, params, rng);
  std::size_t assigned = 0;
  for (const auto& f : catalog.files()) {
    const auto& rel = related[f.index];
    if (!rel.donor) continue;
    ++assigned;
    EXPECT_LT(*rel.donor, f.index);  // donors are earlier files
    EXPECT_EQ(catalog.file(*rel.donor).type, f.type);
    EXPECT_GE(rel.shared_fraction, params.shared_fraction_lo);
    EXPECT_LE(rel.shared_fraction, params.shared_fraction_hi);
  }
  EXPECT_NEAR(static_cast<double>(assigned) / catalog.size(), 0.2, 0.04);
}

}  // namespace
}  // namespace odr::cloud
