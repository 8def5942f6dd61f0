#include "util/md5.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace odr {
namespace {

// RFC 1321 appendix A.5 test suite.
struct Rfc1321Case {
  std::string input;
  std::string digest;
};

// Names each case after its input length (unique across the suite); without
// it gtest names the case by the struct's raw bytes, heap pointers included,
// which differ from run to run.
void PrintTo(const Rfc1321Case& c, std::ostream* os) {
  *os << c.input.size() << "-byte input";
}

class Md5Rfc1321Test : public ::testing::TestWithParam<Rfc1321Case> {};

TEST_P(Md5Rfc1321Test, MatchesReferenceDigest) {
  EXPECT_EQ(Md5::of(GetParam().input).hex(), GetParam().digest);
}

INSTANTIATE_TEST_SUITE_P(
    ReferenceVectors, Md5Rfc1321Test,
    ::testing::Values(
        Rfc1321Case{"", "d41d8cd98f00b204e9800998ecf8427e"},
        Rfc1321Case{"a", "0cc175b9c0f1b6a831c399e269772661"},
        Rfc1321Case{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        Rfc1321Case{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        Rfc1321Case{"abcdefghijklmnopqrstuvwxyz",
                    "c3fcd3d76192e4007dfb496cca67e13b"},
        Rfc1321Case{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz01234"
                    "56789",
                    "d174ab98d277d9f5a5611c2c9f419d9f"},
        Rfc1321Case{"1234567890123456789012345678901234567890123456789012345678"
                    "9012345678901234567890",
                    "57edf4a22be3c955ac49da2e2107b67a"}));

TEST(Md5Test, IncrementalMatchesOneShot) {
  const std::string data =
      "The quick brown fox jumps over the lazy dog, repeatedly and at odd "
      "block boundaries to exercise the buffering path. ";
  std::string full;
  for (int i = 0; i < 50; ++i) full += data;

  Md5 incremental;
  std::size_t offset = 0;
  std::size_t chunk = 1;
  while (offset < full.size()) {
    const std::size_t take = std::min(chunk, full.size() - offset);
    incremental.update(std::string_view(full).substr(offset, take));
    offset += take;
    chunk = (chunk * 7 + 3) % 97 + 1;  // irregular chunk sizes
  }
  EXPECT_EQ(incremental.finish().hex(), Md5::of(full).hex());
}

TEST(Md5Test, ExactBlockBoundaries) {
  // 55, 56, 63, 64, 65 bytes straddle the padding edge cases.
  for (std::size_t n : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string s(n, 'x');
    Md5 a;
    a.update(s);
    EXPECT_EQ(a.finish(), Md5::of(s)) << "length " << n;
  }
}

TEST(Md5Test, DistinctContentDistinctDigest) {
  EXPECT_NE(Md5::of("file-a"), Md5::of("file-b"));
  EXPECT_EQ(Md5::of("same"), Md5::of("same"));
}

TEST(Md5Test, Prefix64IsStable) {
  const Md5Digest d = Md5::of("abc");
  // First 8 bytes of 900150983cd24fb0... little-endian packed.
  EXPECT_EQ(d.prefix64() & 0xff, 0x90u);
  EXPECT_EQ(d.hex().substr(0, 2), "90");
}

TEST(Md5Test, UsableAsHashMapKey) {
  // A digest keys a hash map through prefix64, as chunk dedup's chunk
  // signatures do.
  std::unordered_map<std::uint64_t, int> map;
  map[Md5::of("k1").prefix64()] = 1;
  map[Md5::of("k2").prefix64()] = 2;
  EXPECT_EQ(map.at(Md5::of("k1").prefix64()), 1);
  EXPECT_EQ(map.at(Md5::of("k2").prefix64()), 2);
}

}  // namespace
}  // namespace odr
