// MD5 (RFC 1321), implemented from scratch.
//
// Xuanfeng identifies every cached file by the MD5 of its full content
// (§2.1); file-level deduplication and the content database key on it. We
// use the same scheme: simulated file contents are identified by an MD5
// digest, and components that need an ID without materializing content
// derive one by hashing a small canonical description.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace odr {

struct Md5Digest {
  std::array<std::uint8_t, 16> bytes{};

  auto operator<=>(const Md5Digest&) const = default;

  static constexpr std::size_t kHexChars = 32;

  // Lowercase hex, kHexChars chars.
  std::string hex() const;
  // The same chars written to out[0, kHexChars), without a terminator.
  void write_hex(char* out) const;

  // First 8 bytes as a u64; convenient hash-map key.
  std::uint64_t prefix64() const;
};

// Incremental MD5 computation.
class Md5 {
 public:
  Md5();

  void update(std::span<const std::uint8_t> data);
  void update(std::string_view data);

  // Finalizes and returns the digest. The object must not be updated after.
  Md5Digest finish();

  static Md5Digest of(std::string_view data);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 4> state_;
  std::uint64_t length_bytes_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  bool finished_ = false;
};

}  // namespace odr
