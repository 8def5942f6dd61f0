// A running 64-bit digest of an operation stream.
//
// digest_step folds one 64-bit value into a digest with a multiply-xorshift
// mix (SplitMix64's first multiplier, one xorshift): a few inline
// instructions, cheap enough to run on every request and cache operation,
// where a CRC call over a serialized record is not. The content DB and the
// storage pool keep such digests so a state hash costs what changed, not
// what they hold (cloud/content_db.h, cloud/storage_pool.h).
//
// For a fixed value the step is a bijection of the digest (xor, multiply by
// an odd constant, xorshift), so two digests that differ stay different
// under any identical continuation of the stream: once two runs' digests
// split, they never re-converge.
#pragma once

#include <cstdint>

namespace odr {

constexpr std::uint64_t digest_step(std::uint64_t digest, std::uint64_t v) {
  const std::uint64_t h = (digest ^ v) * 0xbf58476d1ce4e5b9ull;
  return h ^ (h >> 31);
}

}  // namespace odr
