#include "util/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define ODR_CRC32C_SSE42 1
#endif

namespace odr {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // CRC32C, reflected

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (c >> 1) ^ kPoly : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

using ExtendFn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

#ifdef ODR_CRC32C_SSE42
// The CRC32 instruction's reflected polynomial is CRC32C's, and x86 loads
// are little-endian, so eight bytes per step give the table loop's values.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_extend_sse42(
    std::uint32_t crc, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~crc;
  for (; len > 0 && reinterpret_cast<std::uintptr_t>(p) % 8 != 0; --len) {
    c = _mm_crc32_u8(c, *p++);
  }
  std::uint64_t c64 = c;
  for (; len >= 8; len -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c64 = _mm_crc32_u64(c64, word);
  }
  c = static_cast<std::uint32_t>(c64);
  for (; len > 0; --len) c = _mm_crc32_u8(c, *p++);
  return ~c;
}
#endif

ExtendFn pick_extend() {
#ifdef ODR_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_extend_sse42;
#endif
  return crc32c_extend_table;
}

}  // namespace

std::uint32_t crc32c_extend_table(std::uint32_t crc, const void* data,
                                  std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~crc;
  for (std::size_t i = 0; i < len; ++i) {
    c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

std::uint32_t crc32c_extend(std::uint32_t crc, const void* data,
                            std::size_t len) {
  static const ExtendFn extend = pick_extend();
  return extend(crc, data, len);
}

std::uint32_t crc32c(const void* data, std::size_t len) {
  return crc32c_extend(0, data, len);
}

}  // namespace odr
