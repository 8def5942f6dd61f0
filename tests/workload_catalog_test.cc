#include "workload/catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/crc32.h"
#include "util/guide_table.h"
#include "util/stats.h"
#include "workload/popularity.h"

namespace odr::workload {
namespace {

CatalogParams small_params() {
  CatalogParams p;
  p.num_files = 5000;
  p.total_weekly_requests = 36250;  // preserves the 7.25 requests/file ratio
  return p;
}

// The binary search the guide table replaced: the first cumulative weight
// >= u * total.
std::size_t lower_bound_index(const std::vector<double>& cumulative,
                              double u) {
  const double target = u * cumulative.back();
  return static_cast<std::size_t>(
      std::lower_bound(cumulative.begin(), cumulative.end(), target) -
      cumulative.begin());
}

// The cumulative request weights sample_request inverts.
std::vector<double> cumulative_requests(const Catalog& catalog) {
  std::vector<double> c;
  double acc = 0.0;
  for (const auto& f : catalog.files()) {
    acc += std::max(0.0, f.expected_weekly_requests);
    c.push_back(acc);
  }
  return c;
}

// Uniforms that land exactly on each cumulative boundary, one ulp either
// side of it, and u = 0.
std::vector<double> boundary_uniforms(const std::vector<double>& cumulative) {
  std::vector<double> us = {0.0};
  for (const double c : cumulative) {
    const double u = c / cumulative.back();
    for (const double v : {std::nextafter(u, 0.0), u, std::nextafter(u, 1.0)}) {
      if (v >= 0.0 && v < 1.0) us.push_back(v);
    }
  }
  return us;
}

// Draws from `catalog` and from the reference with the same stream; every
// draw must name the same file.
void expect_sampler_matches_lower_bound(const Catalog& catalog, int draws) {
  const std::vector<double> c = cumulative_requests(catalog);
  Rng a(7), b(7);
  for (int i = 0; i < draws; ++i) {
    const std::size_t want = lower_bound_index(c, b.uniform());
    ASSERT_EQ(catalog.sample_request(a), want) << "draw " << i;
  }
  const util::GuideTable table(c);
  for (const double u : boundary_uniforms(c)) {
    ASSERT_EQ(table.find(u), lower_bound_index(c, u)) << "u = " << u;
  }
}

class CatalogTest : public ::testing::Test {
 protected:
  Rng rng{101};
  Catalog catalog{small_params(), rng};
};

TEST_F(CatalogTest, TypeMixMatchesPaper) {
  std::size_t video = 0, software = 0;
  for (const auto& f : catalog.files()) {
    if (f.type == FileType::kVideo) ++video;
    if (f.type == FileType::kSoftware) ++software;
  }
  const double n = static_cast<double>(catalog.size());
  EXPECT_NEAR(video / n, 0.75, 0.02);
  EXPECT_NEAR(software / n, 0.15, 0.02);
}

TEST_F(CatalogTest, ProtocolMixMatchesPaper) {
  std::size_t bt = 0, emule = 0, p2p = 0;
  for (const auto& f : catalog.files()) {
    if (f.protocol == proto::Protocol::kBitTorrent) ++bt;
    if (f.protocol == proto::Protocol::kEmule) ++emule;
    if (proto::is_p2p(f.protocol)) ++p2p;
  }
  const double n = static_cast<double>(catalog.size());
  EXPECT_NEAR(bt / n, 0.68, 0.02);
  EXPECT_NEAR(emule / n, 0.19, 0.02);
  EXPECT_NEAR(p2p / n, 0.87, 0.02);
}

TEST_F(CatalogTest, PopularityAnchorsHold) {
  // §4.1: 0.84% highly popular files carry ~39% of requests; 93.2%
  // unpopular files carry ~36%.
  double highly = 0, unpopular = 0, total = 0;
  std::size_t unpopular_files = 0, highly_files = 0;
  for (const auto& f : catalog.files()) {
    total += f.expected_weekly_requests;
    switch (classify_popularity(f.expected_weekly_requests)) {
      case PopularityClass::kHighlyPopular:
        highly += f.expected_weekly_requests;
        ++highly_files;
        break;
      case PopularityClass::kUnpopular:
        unpopular += f.expected_weekly_requests;
        ++unpopular_files;
        break;
      default:
        break;
    }
  }
  EXPECT_NEAR(total, small_params().total_weekly_requests, total * 0.02);
  EXPECT_NEAR(highly / total, 0.39, 0.03);
  EXPECT_NEAR(unpopular / total, 0.36, 0.03);
  const double n = static_cast<double>(catalog.size());
  EXPECT_NEAR(highly_files / n, 0.0084, 0.004);
  EXPECT_NEAR(unpopular_files / n, 0.932, 0.02);
}

TEST_F(CatalogTest, ExpectedCountsNonIncreasingInRank) {
  for (std::size_t i = 1; i < catalog.size(); ++i) {
    EXPECT_LE(catalog.file(i).expected_weekly_requests,
              catalog.file(i - 1).expected_weekly_requests + 1e-9);
  }
}

TEST_F(CatalogTest, SizesMatchFig5Anchors) {
  EmpiricalCdf sizes;
  for (const auto& f : catalog.files()) {
    sizes.add(static_cast<double>(f.size));
    EXPECT_GE(f.size, 4u);
    EXPECT_LE(f.size, 4 * kGB);
  }
  // ~25% below 8 MB; median within a factor of ~1.6 of 115 MB; mean within
  // a factor of ~1.5 of 390 MB (Fig 5).
  EXPECT_NEAR(sizes.fraction_below(8e6), 0.25, 0.04);
  EXPECT_GT(sizes.median(), 70e6);
  EXPECT_LT(sizes.median(), 190e6);
  EXPECT_GT(sizes.mean(), 260e6);
  EXPECT_LT(sizes.mean(), 590e6);
}

TEST_F(CatalogTest, ContentIdsAreUniqueAndStableFormat) {
  std::set<Md5Digest> ids;
  for (const auto& f : catalog.files()) {
    EXPECT_TRUE(ids.insert(f.content_id).second) << "duplicate content id";
    EXPECT_EQ(f.content_id.hex().size(), 32u);
    EXPECT_NE(f.source_link.find(f.content_id.hex()), std::string::npos);
  }
}

TEST_F(CatalogTest, SampleRequestFollowsPopularity) {
  Rng sample_rng(7);
  std::vector<int> hits(catalog.size(), 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++hits[catalog.sample_request(sample_rng)];
  // Rank-1 file must be sampled roughly in proportion to its share.
  const double expected =
      catalog.file(0).expected_weekly_requests /
      small_params().total_weekly_requests;
  EXPECT_NEAR(hits[0] / static_cast<double>(n), expected, expected * 0.2);
  EXPECT_GT(hits[0], hits[catalog.size() - 1]);
}

TEST_F(CatalogTest, SampleRequestMatchesLowerBound) {
  expect_sampler_matches_lower_bound(catalog, 1000000);
}

TEST(CatalogTraceTest, SampleRequestMatchesLowerBoundWithZeroWeights) {
  // A trace catalog holds placeholder files nothing requested: runs of
  // zero weight at the start, in the middle and at the end.
  std::vector<FileInfo> files(300);
  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i].index = static_cast<FileIndex>(i);
    const bool placeholder = i < 5 || (i >= 100 && i < 180) || i % 7 == 0 ||
                             i >= 290;
    files[i].expected_weekly_requests =
        placeholder ? 0.0 : 1.0 + static_cast<double>(i % 4);
  }
  const Catalog catalog(std::move(files));
  expect_sampler_matches_lower_bound(catalog, 1000000);
  // u = 0 lands on the first file even though it has no weight.
  const util::GuideTable table(cumulative_requests(catalog));
  EXPECT_EQ(table.find(0.0), 0u);
}

TEST_F(CatalogTest, NewFileFractionRespected) {
  std::size_t new_files = 0;
  for (const auto& f : catalog.files()) {
    if (!f.born_before_trace) ++new_files;
  }
  EXPECT_NEAR(new_files / static_cast<double>(catalog.size()),
              small_params().new_file_fraction, 0.03);
}

TEST(PopularityProfileTest, BoundaryCountsPinned) {
  PopularityProfile profile(10000, 72500);
  const auto r_head = static_cast<std::size_t>(0.0084 * 10000);
  const auto r_mid = static_cast<std::size_t>((0.0084 + 0.0596) * 10000);
  EXPECT_NEAR(profile.count(r_head), 84.0, 4.0);
  EXPECT_NEAR(profile.count(r_mid), 7.0, 0.5);
  EXPECT_GT(profile.count(1), 84.0);
  EXPECT_LT(profile.count(10000), 7.0);
}

TEST(PopularityProfileTest, MassesMatchTargets) {
  const double total = 72500;
  PopularityProfile profile(10000, total);
  double head = 0, mid = 0, tail = 0;
  for (std::size_t r = 1; r <= profile.size(); ++r) {
    const double c = profile.count(r);
    if (c > 84.0) {
      head += c;
    } else if (c >= 7.0) {
      mid += c;
    } else {
      tail += c;
    }
  }
  EXPECT_NEAR(head / total, 0.39, 0.02);
  EXPECT_NEAR(mid / total, 0.25, 0.02);
  EXPECT_NEAR(tail / total, 0.36, 0.02);
}

TEST(PopularityProfileTest, TinyCatalogDoesNotCrash) {
  PopularityProfile profile(3, 25);
  EXPECT_EQ(profile.size(), 3u);
  EXPECT_GE(profile.count(1), profile.count(3));
  for (std::size_t r = 1; r <= 3; ++r) EXPECT_GT(profile.count(r), 0.0);
}

// The profile's counts are pinned bit for bit: every catalog, and through
// it every golden, reads them.
TEST(PopularityProfileTest, CountsArePinned) {
  struct Case {
    std::size_t files;
    double total;
    std::uint32_t crc;
  };
  for (const Case& c : {Case{3, 25.0, 0x0ec4f775u},
                        Case{5635, 4084417 / 100.0, 0x2645889du},
                        Case{56351, 4084417 / 10.0, 0xc8807565u}}) {
    const PopularityProfile profile(c.files, c.total);
    const std::vector<double>& counts = profile.counts();
    EXPECT_EQ(crc32c(counts.data(), counts.size() * sizeof(double)), c.crc)
        << c.files << " files";
  }
}

// Property sweep: the anchors must hold across catalog scales.
class PopularityScaleTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PopularityScaleTest, AnchorsHoldAcrossScales) {
  const std::size_t n = GetParam();
  const double total = 7.25 * static_cast<double>(n);
  PopularityProfile profile(n, total);
  double head = 0, sum = 0;
  for (std::size_t r = 1; r <= n; ++r) {
    const double c = profile.count(r);
    sum += c;
    if (c > 84.0) head += c;
  }
  EXPECT_NEAR(sum / total, 1.0, 0.02);
  EXPECT_NEAR(head / total, 0.39, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Scales, PopularityScaleTest,
                         ::testing::Values(1000, 5000, 28000, 140000));

}  // namespace
}  // namespace odr::workload
