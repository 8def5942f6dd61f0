// odr.hashes.v4 — the on-disk journal of periodic in-run state hashes.
//
// A run with hashing enabled (WorldOptions::hash_every_events) records one
// StateHash per cadence point; the harness writes them out next to the
// other observability artifacts (--spans-out, --metrics-out) as a JSON
// Lines file:
//
//   {"format":"odr.hashes.v4","cadence_events":500,"seed":20151028}
//   {"time":1234,"executed":500,"event_id":"0x1f",
//    "combined":"0x51153af7097f620a","sub":["0x1a2b3c4d", ...]}
//   ...
//
// `sub` holds nine sub-hashes, one per snapshot::Subsystem: the payload
// CRC32C of that subsystem's checkpoint section. Each covers live state;
// the world sub-hash covers the outcome count and the outcome log's
// running CRC, not the log itself, and the caches sub-hash the content
// DB's and the storage pool's counts and running digests, not their
// records. v4 changed the caches sub-hash's value that way (v3's caches
// section held the content DB's window and the pool's entries); v3
// changed the world sub-hash's (v2's world section held every outcome
// record); v2 dropped v1's `event_seq` and two reserved sub-hash slots.
// v1, v2 and v3 journals are refused, as is a cadence of 0.
//
// u64 values that can exceed 2^53 are hex strings so the journal survives
// any JSON tooling that parses numbers as doubles. tools/odr_bisect reads
// journals back to bisect a recorded run against a live one; the parser is
// deliberately strict (unknown keys, missing fields, malformed numbers all
// throw) — a half-read journal would silently mis-bisect.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "snapshot/state_hash.h"

namespace odr::obs {

class HashJournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct HashJournal {
  std::uint64_t cadence_events = 0;  // one record per this many events
  std::uint64_t seed = 0;            // config seed, for cross-run sanity
  std::vector<snapshot::StateHash> records;

  // Serializes to the odr.hashes.v4 JSONL text.
  std::string to_text() const;
  // Writes to_text() to `path`; throws HashJournalError on IO failure.
  void write_file(const std::string& path) const;

  // Strict parse; throws HashJournalError naming the offending line.
  static HashJournal from_text(const std::string& text);
  static HashJournal read_file(const std::string& path);
};

}  // namespace odr::obs
