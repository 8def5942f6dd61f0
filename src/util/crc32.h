// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78).
//
// Used to frame every snapshot section: the checkpoint format stores a
// CRC32C per section payload so a torn write, bit rot, or a truncated
// file is detected at load time instead of surfacing as silently-corrupt
// simulator state N events later. The world's running outcome-log CRC
// (snapshot/world.h) extends the same function as outcomes land.
//
// On x86-64 CPUs with SSE4.2 the CRC32 instruction consumes 8 bytes per
// step; the path is picked once, at the first call, from the CPU's
// feature bits. Every other host runs a table-driven byte-at-a-time loop.
// Both paths compute the same values (util_crc32_test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace odr {

// One-shot CRC32C of a buffer.
std::uint32_t crc32c(const void* data, std::size_t len);

inline std::uint32_t crc32c(std::string_view data) {
  return crc32c(data.data(), data.size());
}

// Incremental form: feed `crc` from a previous call (or 0 to start) and
// the next chunk; crc32c_extend(crc32c_extend(0, a), b) == crc32c(a + b).
std::uint32_t crc32c_extend(std::uint32_t crc, const void* data,
                            std::size_t len);

// The portable table loop, whichever path crc32c_extend dispatches to.
// Only the equivalence test calls it.
std::uint32_t crc32c_extend_table(std::uint32_t crc, const void* data,
                                  std::size_t len);

}  // namespace odr
