// Periodic in-run state hashing for divergence triage.
//
// A StateHash is a cheap digest of the ENTIRE mutable world at an event
// boundary: each subsystem serializes itself through the existing
// CRC32C-framed snapshot writers into its own buffer, and the CRC32C of
// that buffer is the subsystem's sub-hash. Two runs of the same config are
// bit-identical iff every StateHash matches at every cadence point — and
// when they stop matching, the sub-hash vector names the subsystem whose
// state broke first, which is the single most useful fact when triaging a
// determinism failure (an rng-only break means an extra/missing draw; an
// events-only break means a scheduling-order change; and so on).
//
// Hashing reuses the snapshot serializers verbatim, so anything the
// checkpoint covers the hash covers, and the two can never drift apart.
// Taking a hash is read-only and changes no observable behavior: the run's
// event stream, rng draws, and final fingerprints are byte-identical with
// hashing on or off (asserted by determinism_test).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/units.h"

namespace odr::snapshot {

class CloudWorld;

// One sub-hash per subsystem. Values are stable (they appear in recorded
// odr.hashes.v1 journals); new subsystems are appended, never renumbered.
// kAp and kBreakers are reserved for the §5/§6 replay worlds, which do not
// checkpoint yet — a CloudWorld hash reports 0 for both.
enum class Subsystem : std::uint8_t {
  kRng = 0,       // the cloud's private rng stream
  kEvents = 1,    // simulator clock, counters, live event queue
  kFlows = 2,     // network flows and link state
  kCaches = 3,    // content db + storage pool
  kUploads = 4,   // upload clusters
  kVm = 5,        // pre-downloader VM pool
  kTasks = 6,     // in-flight waiter queues + active user fetches
  kFault = 7,     // fault injector
  kWorld = 8,     // outcomes, next arrival, checkpoint tick
  kAp = 9,        // reserved: smart-AP replay world
  kBreakers = 10, // reserved: circuit breakers in the strategy world
};

inline constexpr std::size_t kSubsystemCount = 11;

constexpr std::string_view subsystem_name(Subsystem s) {
  switch (s) {
    case Subsystem::kRng:      return "rng";
    case Subsystem::kEvents:   return "events";
    case Subsystem::kFlows:    return "flows";
    case Subsystem::kCaches:   return "caches";
    case Subsystem::kUploads:  return "uploads";
    case Subsystem::kVm:       return "vm";
    case Subsystem::kTasks:    return "tasks";
    case Subsystem::kFault:    return "fault";
    case Subsystem::kWorld:    return "world";
    case Subsystem::kAp:       return "ap";
    case Subsystem::kBreakers: return "breakers";
  }
  return "?";
}

struct StateHash {
  SimTime time = 0;                 // simulated time at the hash point
  std::uint64_t executed = 0;       // events executed so far
  std::uint64_t last_event_id = 0;  // (id, seq) of the event just executed
  std::uint64_t last_event_seq = 0;
  // CRC32C of each subsystem's serialized state, indexed by Subsystem.
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
  // Digest the world as it stands. Read-only; safe at any event boundary.
  static StateHash hash(const CloudWorld& world);
};

// The subsystems whose sub-hashes differ between two records, in enum
// order. Empty when the records agree (or diverge only in metadata).
std::vector<Subsystem> divergent_subsystems(const StateHash& a,
                                            const StateHash& b);

}  // namespace odr::snapshot
