#include "net/ip_resolver.h"

#include <gtest/gtest.h>

#include "net/isp.h"
#include "workload/user_model.h"

namespace odr::net {
namespace {

TEST(ParseIpv4Test, ValidAddresses) {
  EXPECT_EQ(parse_ipv4("0.0.0.0").value(), 0u);
  EXPECT_EQ(parse_ipv4("255.255.255.255").value(), 0xffffffffu);
  EXPECT_EQ(parse_ipv4("1.2.3.4").value(), 0x01020304u);
  EXPECT_EQ(parse_ipv4("219.128.0.1").value(), (219u << 24) | (128u << 16) | 1u);
}

TEST(ParseIpv4Test, InvalidAddresses) {
  EXPECT_FALSE(parse_ipv4("256.0.0.1").has_value());
  EXPECT_FALSE(parse_ipv4("1.2.3").has_value());
  EXPECT_FALSE(parse_ipv4("1.2.3.4.5").has_value());
  EXPECT_FALSE(parse_ipv4("1.2.3.x").has_value());
  EXPECT_FALSE(parse_ipv4("").has_value());
  EXPECT_FALSE(parse_ipv4("1..2.3").has_value());
}

TEST(ParseIpv4Test, FormatRoundTrip) {
  for (const char* ip : {"1.2.3.4", "219.128.255.0", "96.0.0.1"}) {
    EXPECT_EQ(format_ipv4(parse_ipv4(ip).value()), ip);
  }
}

TEST(IpResolverTest, LongestPrefixWins) {
  IpResolver r;
  ASSERT_TRUE(r.add_prefix("10.0.0.0/8", Isp::kTelecom));
  ASSERT_TRUE(r.add_prefix("10.1.0.0/16", Isp::kUnicom));
  ASSERT_TRUE(r.add_prefix("10.1.2.0/24", Isp::kCernet));
  EXPECT_EQ(r.resolve("10.9.9.9"), Isp::kTelecom);
  EXPECT_EQ(r.resolve("10.1.9.9"), Isp::kUnicom);
  EXPECT_EQ(r.resolve("10.1.2.9"), Isp::kCernet);
  EXPECT_EQ(r.resolve("11.0.0.1"), Isp::kOther);
}

TEST(IpResolverTest, BaseIsMaskedOnInsert) {
  IpResolver r;
  // A sloppy base with host bits set must still match the whole block.
  ASSERT_TRUE(r.add_prefix("192.168.5.77", 16, Isp::kMobile));
  EXPECT_EQ(r.resolve("192.168.200.1"), Isp::kMobile);
}

TEST(IpResolverTest, RejectsMalformedInput) {
  IpResolver r;
  EXPECT_FALSE(r.add_prefix("1.2.3.4", 33, Isp::kUnicom));
  EXPECT_FALSE(r.add_prefix("1.2.3", 8, Isp::kUnicom));
  EXPECT_FALSE(r.add_prefix("1.2.3.0/", Isp::kUnicom));
  EXPECT_FALSE(r.add_prefix("1.2.3.0", Isp::kUnicom));  // missing /len
  EXPECT_TRUE(r.add_prefix("1.2.3.0/24", Isp::kUnicom));
}

TEST(IpResolverTest, EmptyResolverReturnsOther) {
  IpResolver r;
  EXPECT_EQ(r.resolve("8.8.8.8"), Isp::kOther);
  EXPECT_EQ(r.resolve("not-an-ip"), Isp::kOther);
}

TEST(IpResolverTest, China2015KnownAllocations) {
  const IpResolver r = IpResolver::china_2015();
  EXPECT_EQ(r.resolve("219.150.0.1"), Isp::kTelecom);
  EXPECT_EQ(r.resolve("123.112.8.8"), Isp::kUnicom);
  EXPECT_EQ(r.resolve("111.32.0.1"), Isp::kMobile);
  EXPECT_EQ(r.resolve("166.111.4.100"), Isp::kCernet);  // Tsinghua
  EXPECT_EQ(r.resolve("8.8.8.8"), Isp::kOther);
}

TEST(IpResolverTest, ResolvesSyntheticUserPopulationIps) {
  // The workload's synthetic addresses must resolve to the right ISP —
  // this is how OdrService recovers the ISP the user model assigned.
  const IpResolver r = IpResolver::china_2015();
  Rng rng(5);
  workload::UserModelParams params;
  params.num_users = 2000;
  const workload::UserPopulation users(params, rng);
  for (const auto& u : users.users()) {
    EXPECT_EQ(r.resolve(u.ip), u.isp) << "user ip " << u.ip;
  }
}

}  // namespace
}  // namespace odr::net
