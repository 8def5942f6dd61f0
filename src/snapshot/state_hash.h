// Periodic in-run state hashing for divergence triage.
//
// A StateHash is a cheap digest of the ENTIRE mutable world at an event
// boundary. The world's nine Subsystem sections are serialized once,
// exactly as a checkpoint writes them (format.h), and a subsystem's
// sub-hash is its section's payload CRC. The checkpoint's meta section and
// trailing outcome log and cache window are not serialized: the world
// section stands for the log with the outcome count and the log's running
// CRC32C, and the caches section for the window with the content DB's and
// the storage pool's counts and running digests, so a hash costs live
// state, not history (the snapshot.hash.bytes counter reports what each
// hash serialized). Those running digests digest history: the caches
// sub-hash splits at the first event whose request or pool operation
// differs, and never re-converges. Two runs of the same config are
// bit-identical iff every StateHash matches at every cadence point — and
// when they stop matching, the sub-hash vector names the subsystem whose
// state broke first, which is the single most useful fact when triaging a
// determinism failure (an rng-only break means an extra/missing draw; an
// events-only break means a scheduling-order change; and so on).
//
// Because the sub-hashes are the checkpoint's own section CRCs, the hash
// covers exactly what a checkpoint writes, by construction: the log
// through its running CRC and the cache window through the caches
// section's counts and digests, which a restore checks them against. Taking
// a hash changes no observable behavior: the run's event stream, rng
// draws, and final fingerprints are byte-identical with hashing on or off
// (asserted by determinism_test).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "snapshot/format.h"
#include "util/units.h"

namespace odr::snapshot {

class CloudWorld;

struct StateHash {
  SimTime time = 0;                 // simulated time at the hash point
  std::uint64_t executed = 0;       // events executed so far
  std::uint64_t last_event_id = 0;  // id of the event just executed
  // Payload CRC32C of each subsystem's checkpoint section, indexed by
  // Subsystem.
  std::array<std::uint32_t, kSubsystemCount> sub{};
  // FNV-1a over the sub-hash array — the one number two runs compare.
  std::uint64_t combined = 0;

  bool operator==(const StateHash&) const = default;
};

// Combines the sub array into `combined` (FNV-1a, little-endian bytes).
// Inline so the obs-layer journal reader can self-check records without
// linking the snapshot library.
inline std::uint64_t combine_sub_hashes(
    const std::array<std::uint32_t, kSubsystemCount>& sub) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint32_t v : sub) {
    for (int i = 0; i < 4; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

struct StateHasher {
  // Digest the world as it stands; safe at any event boundary. It changes
  // nothing a checkpoint or a run observes, but it extends the world's
  // cached log CRC, so it must not race another call on the same world.
  static StateHash hash(const CloudWorld& world);
};

// The subsystems whose sub-hashes differ between two records, in enum
// order. Empty when the records agree (or diverge only in metadata).
std::vector<Subsystem> divergent_subsystems(const StateHash& a,
                                            const StateHash& b);

}  // namespace odr::snapshot
