#include "util/crc32.h"

#include <cstdint>
#include <random>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace odr {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 appendix B.4 / the canonical CRC32C check value.
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0x00000000u);
  EXPECT_EQ(crc32c("The quick brown fox jumps over the lazy dog"),
            0x22620404u);
}

TEST(Crc32cTest, ZeroBuffers) {
  // iSCSI test vectors: 32 bytes of zeros / 32 bytes of 0xFF.
  std::string zeros(32, '\0');
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  std::string ones(32, '\xff');
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data = "The quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t crc = crc32c_extend(0, data.data(), split);
    crc = crc32c_extend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, crc32c(data)) << "split at " << split;
  }
}

TEST(Crc32cTest, SingleBitFlipIsDetected) {
  std::string data(257, 'x');
  const std::uint32_t clean = crc32c(data);
  for (std::size_t byte : {std::size_t{0}, data.size() / 2, data.size() - 1}) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = data;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      EXPECT_NE(crc32c(corrupt), clean)
          << "flip byte " << byte << " bit " << bit;
    }
  }
}

// crc32c_extend dispatches to the CRC32 instruction where the CPU has it;
// that path must give the table loop's value for every length, alignment
// and split.
TEST(Crc32cTest, HardwareMatchesTable) {
  for (const char* vector : {"123456789", "",
                             "The quick brown fox jumps over the lazy dog"}) {
    const std::string_view v(vector);
    EXPECT_EQ(crc32c_extend(0, v.data(), v.size()),
              crc32c_extend_table(0, v.data(), v.size()))
        << '"' << v << '"';
  }
  for (const char fill : {'\0', '\xff'}) {
    const std::string iscsi(32, fill);
    EXPECT_EQ(crc32c_extend(0, iscsi.data(), iscsi.size()),
              crc32c_extend_table(0, iscsi.data(), iscsi.size()));
  }

  for (const std::uint32_t seed : {1u, 7u, 20151028u}) {
    std::mt19937 gen(seed);
    std::string buf(4096 + 8, '\0');
    for (char& c : buf) c = static_cast<char>(gen());
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t len = 0; len + offset <= 4096; ++len) {
        const char* p = buf.data() + offset;
        const std::uint32_t want = crc32c_extend_table(0, p, len);
        ASSERT_EQ(crc32c_extend(0, p, len), want)
            << "seed " << seed << ", offset " << offset << ", length " << len;
        // Seeded from an arbitrary earlier CRC, as the running log CRC is.
        ASSERT_EQ(crc32c_extend(seed, p, len),
                  crc32c_extend_table(seed, p, len))
            << "seed " << seed << ", offset " << offset << ", length " << len;
      }
    }
    // Every split of one buffer through crc32c_extend.
    const std::size_t len = 1000 + seed % 7;
    const std::uint32_t whole = crc32c_extend_table(0, buf.data(), len);
    for (std::size_t split = 0; split <= len; ++split) {
      std::uint32_t crc = crc32c_extend(0, buf.data(), split);
      crc = crc32c_extend(crc, buf.data() + split, len - split);
      ASSERT_EQ(crc, whole) << "seed " << seed << ", split at " << split;
    }
  }
}

}  // namespace
}  // namespace odr
