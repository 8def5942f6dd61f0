#include "util/md5.h"

#include <cassert>
#include <cstring>

namespace odr {
namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

constexpr std::uint32_t rotl32(std::uint32_t x, int c) {
  return (x << c) | (x >> (32 - c));
}

// The four rounds' auxiliary functions (RFC 1321 §3.4).
constexpr std::uint32_t F(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return (x & y) | (~x & z);
}
constexpr std::uint32_t G(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return (x & z) | (y & ~z);
}
constexpr std::uint32_t H(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return x ^ y ^ z;
}
constexpr std::uint32_t I(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return y ^ (x | ~z);
}

using Aux = std::uint32_t (*)(std::uint32_t, std::uint32_t, std::uint32_t);

// One step: a = b + ((a + aux(b, c, d) + word + k) <<< s).
template <Aux aux>
inline void step(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                 std::uint32_t d, std::uint32_t word, std::uint32_t k, int s) {
  a = b + rotl32(a + aux(b, c, d) + word + k, s);
}

}  // namespace

Md5::Md5() : state_{0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u} {}

void Md5::update(std::string_view data) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

void Md5::update(std::span<const std::uint8_t> data) {
  assert(!finished_);
  length_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == buffer_.size()) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Md5Digest Md5::finish() {
  assert(!finished_);
  finished_ = true;
  const std::uint64_t bit_length = length_bytes_ * 8;
  // Padding: 0x80 then zeros until 56 mod 64, then the 64-bit length (LE).
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len =
      (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  finished_ = false;  // allow the padding updates below
  update(std::span<const std::uint8_t>(pad, pad_len));
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>((bit_length >> (8 * i)) & 0xff);
  }
  update(std::span<const std::uint8_t>(len_bytes, 8));
  finished_ = true;

  Md5Digest digest;
  for (int i = 0; i < 4; ++i) {
    digest.bytes[4 * i + 0] = static_cast<std::uint8_t>(state_[i] & 0xff);
    digest.bytes[4 * i + 1] = static_cast<std::uint8_t>((state_[i] >> 8) & 0xff);
    digest.bytes[4 * i + 2] = static_cast<std::uint8_t>((state_[i] >> 16) & 0xff);
    digest.bytes[4 * i + 3] = static_cast<std::uint8_t>((state_[i] >> 24) & 0xff);
  }
  return digest;
}

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<std::uint32_t>(block[4 * i]) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 8) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 3]) << 24);
  }
  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  // The four 16-step rounds, unrolled: each step rotates the roles of a, b,
  // c and d, and round r reads the words in its own fixed order.
  step<F>(a, b, c, d, m[0], kK[0], 7);
  step<F>(d, a, b, c, m[1], kK[1], 12);
  step<F>(c, d, a, b, m[2], kK[2], 17);
  step<F>(b, c, d, a, m[3], kK[3], 22);
  step<F>(a, b, c, d, m[4], kK[4], 7);
  step<F>(d, a, b, c, m[5], kK[5], 12);
  step<F>(c, d, a, b, m[6], kK[6], 17);
  step<F>(b, c, d, a, m[7], kK[7], 22);
  step<F>(a, b, c, d, m[8], kK[8], 7);
  step<F>(d, a, b, c, m[9], kK[9], 12);
  step<F>(c, d, a, b, m[10], kK[10], 17);
  step<F>(b, c, d, a, m[11], kK[11], 22);
  step<F>(a, b, c, d, m[12], kK[12], 7);
  step<F>(d, a, b, c, m[13], kK[13], 12);
  step<F>(c, d, a, b, m[14], kK[14], 17);
  step<F>(b, c, d, a, m[15], kK[15], 22);

  step<G>(a, b, c, d, m[1], kK[16], 5);
  step<G>(d, a, b, c, m[6], kK[17], 9);
  step<G>(c, d, a, b, m[11], kK[18], 14);
  step<G>(b, c, d, a, m[0], kK[19], 20);
  step<G>(a, b, c, d, m[5], kK[20], 5);
  step<G>(d, a, b, c, m[10], kK[21], 9);
  step<G>(c, d, a, b, m[15], kK[22], 14);
  step<G>(b, c, d, a, m[4], kK[23], 20);
  step<G>(a, b, c, d, m[9], kK[24], 5);
  step<G>(d, a, b, c, m[14], kK[25], 9);
  step<G>(c, d, a, b, m[3], kK[26], 14);
  step<G>(b, c, d, a, m[8], kK[27], 20);
  step<G>(a, b, c, d, m[13], kK[28], 5);
  step<G>(d, a, b, c, m[2], kK[29], 9);
  step<G>(c, d, a, b, m[7], kK[30], 14);
  step<G>(b, c, d, a, m[12], kK[31], 20);

  step<H>(a, b, c, d, m[5], kK[32], 4);
  step<H>(d, a, b, c, m[8], kK[33], 11);
  step<H>(c, d, a, b, m[11], kK[34], 16);
  step<H>(b, c, d, a, m[14], kK[35], 23);
  step<H>(a, b, c, d, m[1], kK[36], 4);
  step<H>(d, a, b, c, m[4], kK[37], 11);
  step<H>(c, d, a, b, m[7], kK[38], 16);
  step<H>(b, c, d, a, m[10], kK[39], 23);
  step<H>(a, b, c, d, m[13], kK[40], 4);
  step<H>(d, a, b, c, m[0], kK[41], 11);
  step<H>(c, d, a, b, m[3], kK[42], 16);
  step<H>(b, c, d, a, m[6], kK[43], 23);
  step<H>(a, b, c, d, m[9], kK[44], 4);
  step<H>(d, a, b, c, m[12], kK[45], 11);
  step<H>(c, d, a, b, m[15], kK[46], 16);
  step<H>(b, c, d, a, m[2], kK[47], 23);

  step<I>(a, b, c, d, m[0], kK[48], 6);
  step<I>(d, a, b, c, m[7], kK[49], 10);
  step<I>(c, d, a, b, m[14], kK[50], 15);
  step<I>(b, c, d, a, m[5], kK[51], 21);
  step<I>(a, b, c, d, m[12], kK[52], 6);
  step<I>(d, a, b, c, m[3], kK[53], 10);
  step<I>(c, d, a, b, m[10], kK[54], 15);
  step<I>(b, c, d, a, m[1], kK[55], 21);
  step<I>(a, b, c, d, m[8], kK[56], 6);
  step<I>(d, a, b, c, m[15], kK[57], 10);
  step<I>(c, d, a, b, m[6], kK[58], 15);
  step<I>(b, c, d, a, m[13], kK[59], 21);
  step<I>(a, b, c, d, m[4], kK[60], 6);
  step<I>(d, a, b, c, m[11], kK[61], 10);
  step<I>(c, d, a, b, m[2], kK[62], 15);
  step<I>(b, c, d, a, m[9], kK[63], 21);
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

Md5Digest Md5::of(std::string_view data) {
  Md5 md5;
  md5.update(data);
  return md5.finish();
}

void Md5Digest::write_hex(char* out) const {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const std::uint8_t b : bytes) {
    *out++ = kHex[b >> 4];
    *out++ = kHex[b & 0xf];
  }
}

std::string Md5Digest::hex() const {
  std::string out(kHexChars, '\0');
  write_hex(out.data());
  return out;
}

std::uint64_t Md5Digest::prefix64() const {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
  return v;
}

}  // namespace odr
