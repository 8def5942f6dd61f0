#include "proto/source.h"

#include <gtest/gtest.h>

namespace odr::proto {
namespace {

TEST(ServerSourceTest, StableRateWhenNotBreaking) {
  Rng rng(1);
  ServerParams p;
  p.connection_break_prob = 0.0;
  ServerSource source(Protocol::kHttp, p, rng);
  EXPECT_GT(source.current_rate(), 0.0);
  // A server's rate never changes by itself, and it never drops the
  // transfer: the downloader needs no event for it.
  EXPECT_EQ(source.next_change(rng), kTimeNever);
  EXPECT_EQ(source.fatal_after(), kTimeNever);
}

TEST(ServerSourceTest, NonResumableBreakIsFatal) {
  Rng rng(2);
  ServerParams p;
  p.connection_break_prob = 1.0;
  p.non_resumable_prob = 1.0;
  p.break_after_mean = kMinute;
  ServerSource source(Protocol::kHttp, p, rng);
  EXPECT_GE(source.fatal_after(), 0);
  EXPECT_LT(source.fatal_after(), kTimeNever);
  // The rate stays up until the break: the break is one event, not a dip.
  EXPECT_GT(source.current_rate(), 0.0);
}

TEST(ServerSourceTest, ResumableBreakIsNotFatal) {
  Rng rng(3);
  ServerParams p;
  p.connection_break_prob = 1.0;
  p.non_resumable_prob = 0.0;
  p.break_after_mean = kMinute;
  ServerSource source(Protocol::kFtp, p, rng);
  // A resumable break resumes at once, so it is no event at all.
  EXPECT_EQ(source.fatal_after(), kTimeNever);
  EXPECT_EQ(source.next_change(rng), kTimeNever);
  EXPECT_GT(source.current_rate(), 0.0);
}

TEST(ServerSourceTest, OverheadInHeaderRange) {
  Rng rng(4);
  ServerParams p;
  for (int i = 0; i < 100; ++i) {
    ServerSource source(Protocol::kHttp, p, rng);
    EXPECT_GE(source.traffic_factor(), 1.07);
    EXPECT_LE(source.traffic_factor(), 1.10);
  }
}

TEST(ServerSourceTest, FatalFractionMatchesConfiguredProbabilities) {
  Rng rng(5);
  ServerParams p;  // defaults
  const int n = 3000;
  int fatal = 0;
  for (int i = 0; i < n; ++i) {
    ServerSource source(Protocol::kHttp, p, rng);
    // Every will-break + non-resumable source has a fatal-break time.
    if (source.fatal_after() != kTimeNever) ++fatal;
  }
  const double expected = p.connection_break_prob * p.non_resumable_prob;
  EXPECT_NEAR(fatal / static_cast<double>(n), expected, 0.03);
}

TEST(MakeSourceTest, DispatchesByProtocol) {
  Rng rng(6);
  SourceParams params;
  auto bt = make_source(Protocol::kBitTorrent, 10.0, params, rng);
  auto em = make_source(Protocol::kEmule, 10.0, params, rng);
  auto http = make_source(Protocol::kHttp, 10.0, params, rng);
  auto ftp = make_source(Protocol::kFtp, 10.0, params, rng);
  EXPECT_NE(dynamic_cast<SwarmSource*>(bt.get()), nullptr);
  EXPECT_NE(dynamic_cast<SwarmSource*>(em.get()), nullptr);
  EXPECT_NE(dynamic_cast<ServerSource*>(http.get()), nullptr);
  EXPECT_NE(dynamic_cast<ServerSource*>(ftp.get()), nullptr);
  EXPECT_EQ(bt->protocol(), Protocol::kBitTorrent);
  EXPECT_EQ(http->protocol(), Protocol::kHttp);
}

TEST(MakeSourceTest, SwarmTrafficFarExceedsServerTraffic) {
  Rng rng(7);
  SourceParams params;
  double swarm_total = 0, server_total = 0;
  for (int i = 0; i < 200; ++i) {
    swarm_total +=
        make_source(Protocol::kBitTorrent, 10.0, params, rng)->traffic_factor();
    server_total +=
        make_source(Protocol::kHttp, 10.0, params, rng)->traffic_factor();
  }
  // §4.1: ~196% for P2P vs 107-110% for HTTP/FTP.
  EXPECT_NEAR(swarm_total / 200.0, 2.0, 0.15);
  EXPECT_NEAR(server_total / 200.0, 1.085, 0.02);
}

}  // namespace
}  // namespace odr::proto
