#include "snapshot/format.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "util/crc32.h"

namespace odr::snapshot {
namespace {

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------- writer --

// A frame is id u32, version u32, payload length u64, CRC32C u32.
constexpr std::size_t kFrameBytes = 20;

// Start at 64 KiB. Grown from a few bytes by doubling, a world checkpoint
// interleaves a chain of small reallocations with the model's own
// allocations and fragments the heap: on a 4-core x86 VM, perfbench
// checkpoint_week peaked at 40.6 MiB RSS that way and 33.2 MiB with this
// reserve.
SnapshotWriter::SnapshotWriter() : SnapshotWriter(std::size_t{1} << 16) {}

SnapshotWriter::SnapshotWriter(std::size_t capacity) {
  out_.reserve(capacity);
  raw(kMagic, 4);
  raw(kFormatVersion, 4);
}

void SnapshotWriter::grow(std::size_t n) {
  // Capacity doubles; the room past len_ is zero-filled a few KiB at a
  // time, so capacity no byte reaches is never touched and never resident.
  constexpr std::size_t kAhead = std::size_t{1} << 12;
  const std::size_t need = len_ + n;
  if (out_.capacity() < need) {
    out_.reserve(std::max(2 * out_.capacity(), need));
  }
  out_.resize(std::min(out_.capacity(), need + kAhead));
}

void SnapshotWriter::append(const void* data, std::size_t n) {
  std::memcpy(room(n), data, n);
  len_ += n;
}

void SnapshotWriter::raw(std::uint64_t v, int bytes) {
  char* p = room(8);
  for (int i = 0; i < bytes; ++i) p[i] = static_cast<char>(v >> (8 * i));
  len_ += static_cast<std::size_t>(bytes);
}

void SnapshotWriter::begin_section(std::uint32_t id, std::uint32_t version) {
  if (frame_ != kNoFrame) {
    throw SnapshotError("begin_section(" + hex(id) + ") while section " +
                            hex(cur_id_) + " is open",
                        SnapshotErrorKind::kUsage, cur_id_);
  }
  frame_ = len_;
  cur_id_ = id;
  raw(id, 4);
  raw(version, 4);
  raw(0, 8);  // payload length, set by end_section
  raw(0, 4);  // CRC, set by end_section
}

void SnapshotWriter::end_section() {
  if (frame_ == kNoFrame) {
    throw SnapshotError("end_section with no open section",
                        SnapshotErrorKind::kUsage);
  }
  const std::size_t payload = frame_ + kFrameBytes;
  const std::uint64_t len = len_ - payload;
  const std::uint32_t crc = crc32c(out_.data() + payload, len);
  for (int i = 0; i < 8; ++i) {
    out_[frame_ + 8 + i] = static_cast<char>(len >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    out_[frame_ + 16 + i] = static_cast<char>(crc >> (8 * i));
  }
  crcs_.emplace_back(cur_id_, crc);
  frame_ = kNoFrame;
}

std::uint32_t SnapshotWriter::section_crc(std::uint32_t id) const {
  for (const auto& [section, crc] : crcs_) {
    if (section == id) return crc;
  }
  throw SnapshotError("no closed section " + hex(id),
                      SnapshotErrorKind::kUsage, id);
}

void SnapshotWriter::str(std::uint16_t t, std::string_view s) {
  field(t, s.size(), 8);
  append(s.data(), s.size());
}

void SnapshotWriter::bytes(std::uint16_t t, const void* data, std::size_t len) {
  field(t, len, 8);
  append(data, len);
}

std::string SnapshotWriter::take() {
  if (frame_ != kNoFrame) {
    throw SnapshotError("take() while section " + hex(cur_id_) + " is open",
                        SnapshotErrorKind::kUsage, cur_id_);
  }
  out_.resize(len_);
  return std::move(out_);
}

// ---------------------------------------------------------------- reader --

SnapshotReader::SnapshotReader(std::string_view data) : data_(data) {
  if (data_.size() < 8) fail("snapshot too short for header");
  const std::uint32_t magic = raw_u32(0);
  if (magic != kMagic) {
    fail("bad magic " + hex(magic) + " (want " + hex(kMagic) +
         ") — not a snapshot file");
  }
  const std::uint32_t version = raw_u32(4);
  if (version != kFormatVersion) {
    fail("unsupported snapshot format version " + std::to_string(version) +
         " (this build reads version " + std::to_string(kFormatVersion) + ")");
  }
  pos_ = 8;
}

void SnapshotReader::fail(const std::string& msg, std::uint16_t tag) const {
  std::ostringstream os;
  os << "snapshot: " << msg;
  if (in_section_) {
    os << " [section " << hex(cur_id_) << ", offset " << pos_;
  } else {
    os << " [offset " << pos_;
  }
  if (tag != 0) os << ", tag " << tag;
  os << "]";
  throw SnapshotError(os.str(), SnapshotErrorKind::kCorrupt,
                      in_section_ ? cur_id_ : 0, tag, pos_);
}

namespace {

// Little-endian loads; GCC at -O2 keeps the portable byte loop a loop, so
// a little-endian host copies the bytes instead.
template <typename T>
T load_le(const char* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(p[i])) << (8 * i);
    }
  }
  return v;
}

}  // namespace

std::uint32_t SnapshotReader::raw_u32(std::size_t at) const {
  return load_le<std::uint32_t>(data_.data() + at);
}

std::uint64_t SnapshotReader::raw_u64(std::size_t at) const {
  return load_le<std::uint64_t>(data_.data() + at);
}

void SnapshotReader::need(std::size_t n, const char* what, std::uint16_t tag) {
  const std::size_t limit = in_section_ ? pay_end_ : data_.size();
  if (pos_ + n > limit) {
    fail(std::string("truncated while reading ") + what + " (" +
             std::to_string(n) + " bytes needed, " +
             std::to_string(limit - pos_) + " available)",
         tag);
  }
}

std::uint32_t SnapshotReader::enter_section(std::uint32_t id) {
  if (in_section_) {
    fail("enter_section(" + hex(id) + ") while section " + hex(cur_id_) +
         " is open");
  }
  need(kFrameBytes, "section header");
  const std::uint32_t stored_id = raw_u32(pos_);
  const std::uint32_t version = raw_u32(pos_ + 4);
  const std::uint64_t len = raw_u64(pos_ + 8);
  const std::uint32_t stored_crc = raw_u32(pos_ + 16);
  if (stored_id != id) {
    // The structured error names the UNKNOWN section id that was found —
    // that is what a reader from a different format generation trips over.
    throw SnapshotError("snapshot: expected section " + hex(id) +
                            " but found unknown section " + hex(stored_id) +
                            " [offset " + std::to_string(pos_) + "]",
                        SnapshotErrorKind::kCorrupt, stored_id, 0, pos_);
  }
  pos_ += kFrameBytes;
  if (pos_ + len > data_.size()) {
    throw SnapshotError("snapshot: section " + hex(id) +
                            " frame truncated (" + std::to_string(len) +
                            " payload bytes declared, " +
                            std::to_string(data_.size() - pos_) +
                            " available) [offset " + std::to_string(pos_) +
                            "]",
                        SnapshotErrorKind::kCorrupt, id, 0, pos_);
  }
  const std::uint32_t actual_crc = crc32c(data_.data() + pos_, len);
  if (actual_crc != stored_crc) {
    throw SnapshotError("snapshot: section " + hex(id) +
                            " CRC mismatch (stored " + hex(stored_crc) +
                            ", computed " + hex(actual_crc) +
                            ") — checkpoint is corrupt [offset " +
                            std::to_string(pos_) + "]",
                        SnapshotErrorKind::kCorrupt, id, 0, pos_);
  }
  in_section_ = true;
  cur_id_ = id;
  cur_crc_ = stored_crc;
  pay_end_ = pos_ + len;
  return version;
}

void SnapshotReader::require_section(std::uint32_t id, std::uint32_t version) {
  const std::uint32_t stored = enter_section(id);
  if (stored != version) {
    in_section_ = false;
    fail("section " + hex(id) + " version mismatch: checkpoint has v" +
         std::to_string(stored) + ", this build loads v" +
         std::to_string(version) + " — refusing to misload old state");
  }
}

void SnapshotReader::end_section() {
  if (!in_section_) fail("end_section with no open section");
  if (pos_ != pay_end_) {
    fail("section " + hex(cur_id_) + " has " + std::to_string(pay_end_ - pos_) +
         " unread payload bytes — reader/writer field lists disagree");
  }
  in_section_ = false;
}

void SnapshotReader::check_tag(std::uint16_t expected) {
  if (!in_section_) fail("field read outside any section", expected);
  const std::uint16_t actual = raw_u16();
  if (actual != expected) {
    // An unexpected field tag means the stored layout and this reader
    // disagree (unknown/reordered field, or corruption the CRC happened to
    // miss). The structured error carries the tag that was FOUND — that is
    // the unknown quantity a triage tool wants.
    fail("field tag mismatch: expected " + std::to_string(expected) +
             ", found " + std::to_string(actual),
         actual);
  }
}

std::uint16_t SnapshotReader::raw_u16() {
  need(2, "field tag");
  const auto v = load_le<std::uint16_t>(data_.data() + pos_);
  pos_ += 2;
  return v;
}

std::uint8_t SnapshotReader::u8(std::uint16_t tag) {
  check_tag(tag);
  need(1, "u8", tag);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t SnapshotReader::u32(std::uint16_t tag) {
  check_tag(tag);
  need(4, "u32", tag);
  const std::uint32_t v = raw_u32(pos_);
  pos_ += 4;
  return v;
}

std::uint64_t SnapshotReader::u64(std::uint16_t tag) {
  check_tag(tag);
  need(8, "u64", tag);
  const std::uint64_t v = raw_u64(pos_);
  pos_ += 8;
  return v;
}

std::int64_t SnapshotReader::i64(std::uint16_t tag) {
  return static_cast<std::int64_t>(u64(tag));
}

double SnapshotReader::f64(std::uint16_t tag) {
  return std::bit_cast<double>(u64(tag));
}

std::string SnapshotReader::str(std::uint16_t tag) {
  check_tag(tag);
  need(8, "string length", tag);
  const std::uint64_t len = raw_u64(pos_);
  pos_ += 8;
  need(len, "string bytes", tag);
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

void SnapshotReader::bytes(std::uint16_t tag, void* out, std::size_t len) {
  check_tag(tag);
  need(8, "bytes length", tag);
  const std::uint64_t stored = raw_u64(pos_);
  pos_ += 8;
  if (stored != len) {
    fail("fixed byte field length mismatch: expected " + std::to_string(len) +
             ", stored " + std::to_string(stored),
         tag);
  }
  need(len, "byte field", tag);
  std::memcpy(out, data_.data() + pos_, len);
  pos_ += len;
}

// ------------------------------------------------------------------- rng --

void save_rng(SnapshotWriter& w, std::uint16_t base_tag, const Rng& rng) {
  const RngState st = rng.state();
  for (int i = 0; i < 4; ++i) {
    w.u64(static_cast<std::uint16_t>(base_tag + i), st.s[i]);
  }
  w.u64(static_cast<std::uint16_t>(base_tag + 4), st.stream_id);
  w.u64(static_cast<std::uint16_t>(base_tag + 5), st.draws);
}

void load_rng(SnapshotReader& r, std::uint16_t base_tag, Rng& rng) {
  RngState st;
  for (int i = 0; i < 4; ++i) {
    st.s[i] = r.u64(static_cast<std::uint16_t>(base_tag + i));
  }
  st.stream_id = r.u64(static_cast<std::uint16_t>(base_tag + 4));
  st.draws = r.u64(static_cast<std::uint16_t>(base_tag + 5));
  rng.set_state(st);
}

// -------------------------------------------------------------- file IO --

void write_snapshot_file(const std::string& path, std::string_view buffer) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    throw SnapshotError("cannot open " + tmp + " for writing",
                        SnapshotErrorKind::kIo);
  }
  const std::size_t written = std::fwrite(buffer.data(), 1, buffer.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != buffer.size() || !flushed) {
    std::remove(tmp.c_str());
    throw SnapshotError("short write to " + tmp, SnapshotErrorKind::kIo);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError("cannot rename " + tmp + " to " + path,
                        SnapshotErrorKind::kIo);
  }
}

std::string read_snapshot_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    throw SnapshotError("cannot open snapshot file " + path,
                        SnapshotErrorKind::kIo);
  }
  std::string data;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) data.append(buf, n);
  const bool error = std::ferror(f) != 0;
  std::fclose(f);
  if (error) {
    throw SnapshotError("read error on snapshot file " + path,
                        SnapshotErrorKind::kIo);
  }
  return data;
}

}  // namespace odr::snapshot
