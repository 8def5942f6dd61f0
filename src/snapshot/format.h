// Versioned, CRC-protected binary checkpoint format.
//
// A snapshot is a header (magic + format version) followed by a sequence of
// sections. Each section is framed as
//
//   [section id u32][section version u32][payload length u64][CRC32C u32]
//   [payload bytes]
//
// and the payload is a sequence of tagged fields: every primitive is
// prefixed by an explicit u16 field tag that the reader checks against the
// tag it expects at that position. The tags buy loud failure: a checkpoint
// written by older code (missing/extra/reordered fields) throws a
// SnapshotError naming the section, tag, and offset instead of silently
// misinterpreting bytes. Section versions gate intentional format changes;
// the CRC catches torn writes and bit rot before any state is mutated.
//
// A world checkpoint (snapshot::CloudWorld) is the meta section, one
// section per Subsystem, in the file order events, flows, rng, caches,
// uploads, vm, tasks, fault, world, and then the trailing outcome log and
// cache window. The CRC32C of a subsystem's payload is also its state-hash
// sub-hash (state_hash.h). The two trailing sections are not Subsystems
// and are never hashed. The world section carries the outcome count and
// the log's running CRC32C in the log's place, and the log's payload CRC
// must equal that running CRC for a checkpoint to restore. The caches
// section carries the content DB's appended and expired counts and chain
// digests and the storage pool's entry count and operation digest in the
// cache window's place, and the window's records and entries must agree
// with them. So a hash costs live state and what changed, not history.
//
// All integers are serialized little-endian byte-by-byte, so snapshots are
// portable across hosts. Doubles are serialized as their raw IEEE-754 bit
// pattern — exact round-trip is a requirement (bit-identical resume), so
// no text formatting is ever involved.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace odr::snapshot {

inline constexpr std::uint32_t kMagic = 0x53524f44u;  // "DORS"
inline constexpr std::uint32_t kFormatVersion = 1;

// The subsystems of a world checkpoint. The values index StateHash::sub and
// name the sections: a subsystem's section id is section_id(s).
enum class Subsystem : std::uint8_t {
  kRng = 0,      // the cloud's private rng stream
  kEvents = 1,   // simulator clock, counters, live event queue
  kFlows = 2,    // network flows and link state
  kCaches = 3,   // content db + storage pool
  kUploads = 4,  // upload clusters
  kVm = 5,       // pre-downloader VM pool
  kTasks = 6,    // in-flight waiter queues + active user fetches
  kFault = 7,    // fault injector
  kWorld = 8,    // outcome count + log CRC, next arrival, checkpoint tick
};

inline constexpr std::size_t kSubsystemCount = 9;

constexpr std::uint32_t section_id(Subsystem s) {
  return 16 + static_cast<std::uint32_t>(s);
}

constexpr std::string_view subsystem_name(Subsystem s) {
  switch (s) {
    case Subsystem::kRng:     return "rng";
    case Subsystem::kEvents:  return "events";
    case Subsystem::kFlows:   return "flows";
    case Subsystem::kCaches:  return "caches";
    case Subsystem::kUploads: return "uploads";
    case Subsystem::kVm:      return "vm";
    case Subsystem::kTasks:   return "tasks";
    case Subsystem::kFault:   return "fault";
    case Subsystem::kWorld:   return "world";
  }
  return "?";
}

// Broad classification of a SnapshotError, for the replay-failure
// taxonomy (analysis/failure_kind.h) and for tooling that routes
// corruption and audit failures differently.
enum class SnapshotErrorKind : std::uint8_t {
  kCorrupt = 0,  // structural: CRC, magic, version, tag, truncation
  kAudit = 1,    // the invariant auditor rejected a live world
  kIo = 2,       // file open/read/write/rename failed
  kUsage = 3,    // API misuse (unbalanced sections, rearm of unknown id)
};

// Any structural problem with a snapshot: bad magic, version mismatch, CRC
// failure, tag mismatch, short/trailing payload, unknown event id on rearm.
// Loading never partially applies: world restore constructs-or-throws.
//
// Errors raised by SnapshotReader are structured: kind() says what class
// of failure this is, and for corruption inside a buffer section()/tag()/
// offset() pinpoint the frame — the section id being read (0 outside any
// section), the field tag involved (0 when not a tag problem), and the
// absolute byte offset the reader had reached. The human-readable what()
// string repeats all of it.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what,
                         SnapshotErrorKind kind = SnapshotErrorKind::kCorrupt,
                         std::uint32_t section = 0, std::uint16_t tag = 0,
                         std::uint64_t offset = 0)
      : std::runtime_error(what),
        kind_(kind),
        section_(section),
        tag_(tag),
        offset_(offset) {}

  SnapshotErrorKind kind() const { return kind_; }
  std::uint32_t section() const { return section_; }
  std::uint16_t tag() const { return tag_; }
  std::uint64_t offset() const { return offset_; }

 private:
  SnapshotErrorKind kind_;
  std::uint32_t section_;
  std::uint16_t tag_;
  std::uint64_t offset_;
};

class SnapshotWriter {
 public:
  SnapshotWriter();
  // A writer whose buffer starts with room for `capacity` bytes.
  explicit SnapshotWriter(std::size_t capacity);
  // A writer with no file header, for fields written outside any section:
  // take() returns those field bytes alone. The world serializes new
  // outcome records this way to extend its running log CRC.
  struct FieldsOnly {};
  explicit SnapshotWriter(FieldsOnly) {}

  // Sections must be strictly bracketed; nesting is not supported (nested
  // components serialize their fields inline within the owner's section).
  // Fields are written in place: begin_section reserves the frame and
  // end_section patches in the payload length and CRC32C.
  void begin_section(std::uint32_t id, std::uint32_t version);
  void end_section();

  void u8(std::uint16_t tag, std::uint8_t v) { field(tag, v, 1); }
  void u32(std::uint16_t tag, std::uint32_t v) { field(tag, v, 4); }
  void u64(std::uint16_t tag, std::uint64_t v) { field(tag, v, 8); }
  void i64(std::uint16_t tag, std::int64_t v) {
    field(tag, static_cast<std::uint64_t>(v), 8);
  }
  void f64(std::uint16_t tag, double v) {
    field(tag, std::bit_cast<std::uint64_t>(v), 8);
  }
  void b(std::uint16_t tag, bool v) { u8(tag, v ? 1 : 0); }
  void str(std::uint16_t tag, std::string_view s);
  void bytes(std::uint16_t tag, const void* data, std::size_t len);

  // The payload CRC32C of the closed section `id`, as its frame stores it;
  // throws (kUsage) if no such section was closed.
  std::uint32_t section_crc(std::uint32_t id) const;

  // Bytes written so far, the file header included.
  std::size_t size() const { return len_; }

  // Finalizes and returns the snapshot buffer. The writer is spent after.
  std::string take();

 private:
  static constexpr std::size_t kNoFrame = static_cast<std::size_t>(-1);

  // `bytes` little-endian bytes of v; field() prefixes the u16 tag.
  void raw(std::uint64_t v, int bytes);
  // A field is the hot path of every save and hash: it stores the tag and
  // all eight bytes of v unconditionally, as two stores on a little-endian
  // host, and keeps the first 2 + `bytes` of them.
  void field(std::uint16_t tag, std::uint64_t v, int bytes) {
    char* p = room(10);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p, &tag, 2);
      std::memcpy(p + 2, &v, 8);
    } else {
      p[0] = static_cast<char>(tag);
      p[1] = static_cast<char>(tag >> 8);
      for (int i = 0; i < 8; ++i) p[2 + i] = static_cast<char>(v >> (8 * i));
    }
    len_ += static_cast<std::size_t>(2 + bytes);
  }
  // Space for `n` more bytes at out_[len_].
  char* room(std::size_t n) {
    if (out_.size() - len_ < n) grow(n);
    return out_.data() + len_;
  }
  void grow(std::size_t n);
  void append(const void* data, std::size_t n);

  // out_[0, len_) is the header and the sections written so far; the rest
  // of out_ is zero-filled room, trimmed by take().
  std::string out_;
  std::size_t len_ = 0;
  std::size_t frame_ = kNoFrame;   // offset of the open section's frame
  std::uint32_t cur_id_ = 0;
  // (id, payload CRC32C) of every closed section, in file order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> crcs_;
};

class SnapshotReader {
 public:
  // Reads `data` in place, which must outlive the reader; validates magic
  // and format version. A temporary string would dangle, so that overload
  // is deleted: keep the buffer in a named variable.
  explicit SnapshotReader(std::string_view data);
  explicit SnapshotReader(std::string&& data) = delete;

  // Reads the next section header, verifies the id and the payload CRC,
  // and returns the stored section version.
  std::uint32_t enter_section(std::uint32_t id);
  // enter_section + throws unless the stored version equals `version`.
  void require_section(std::uint32_t id, std::uint32_t version);
  // Asserts the payload was fully consumed — a short read means the reader
  // and writer disagree about the field list, which must fail loudly.
  void end_section();
  // True once the open section's payload is consumed: a section of
  // repeated records reads until then.
  bool section_done() const { return in_section_ && pos_ == pay_end_; }
  // The payload CRC32C stored in the frame of the section last entered
  // (enter_section verified it against the payload).
  std::uint32_t section_crc() const { return cur_crc_; }

  std::uint8_t u8(std::uint16_t tag);
  std::uint32_t u32(std::uint16_t tag);
  std::uint64_t u64(std::uint16_t tag);
  std::int64_t i64(std::uint16_t tag);
  double f64(std::uint16_t tag);
  bool b(std::uint16_t tag) { return u8(tag) != 0; }
  std::string str(std::uint16_t tag);
  // Fixed-size byte field; throws if the stored length differs from `len`.
  void bytes(std::uint16_t tag, void* out, std::size_t len);

  // True once every section has been consumed.
  bool at_end() const { return pos_ == data_.size() && !in_section_; }

  // Throws a SnapshotError (kCorrupt) whose message and fields name the
  // open section and the offset reached: for a loader's own cross-checks.
  [[noreturn]] void fail(const std::string& msg, std::uint16_t tag = 0) const;

 private:
  std::uint16_t raw_u16();
  std::uint32_t raw_u32(std::size_t at) const;
  std::uint64_t raw_u64(std::size_t at) const;
  void need(std::size_t n, const char* what, std::uint16_t tag = 0);
  void check_tag(std::uint16_t expected);

  std::string_view data_;
  std::size_t pos_ = 0;      // next unread byte (absolute)
  bool in_section_ = false;
  std::uint32_t cur_id_ = 0;
  std::uint32_t cur_crc_ = 0;
  std::size_t pay_end_ = 0;  // one past the current section's payload
};

// Rng streams round-trip through their full RngState.
void save_rng(SnapshotWriter& w, std::uint16_t base_tag, const Rng& rng);
void load_rng(SnapshotReader& r, std::uint16_t base_tag, Rng& rng);

// Atomic snapshot file IO: writes to `path + ".tmp"` then renames, so a
// crash mid-write leaves either the previous checkpoint or none — never a
// truncated one masquerading as valid (the CRC would catch that too).
void write_snapshot_file(const std::string& path, std::string_view buffer);
std::string read_snapshot_file(const std::string& path);

}  // namespace odr::snapshot
