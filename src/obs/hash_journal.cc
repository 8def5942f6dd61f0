#include "obs/hash_journal.h"

#include <cstdio>
#include <sstream>

namespace odr::obs {
namespace {

constexpr const char* kFormat = "odr.hashes.v4";

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

// ---- strict line parser -----------------------------------------------
//
// The journal grammar is a tiny subset of JSON: one flat object per line,
// string values restricted to hex literals, integer values non-negative
// decimals, plus one array-of-hex-strings ("sub"). A hand parser over that
// subset is smaller and stricter than a general JSON parser would be.

class LineParser {
 public:
  LineParser(const std::string& line, std::size_t lineno)
      : s_(line), lineno_(lineno) {}

  void expect(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool try_consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string key() {
    const std::string k = quoted();
    expect(':');
    return k;
  }

  std::string quoted() {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != '"') fail("expected '\"'");
    ++pos_;
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') fail("escape sequences not allowed");
      ++pos_;
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    return s_.substr(start, pos_++ - start);
  }

  std::uint64_t dec_u64() {
    skip_ws();
    const std::size_t start = pos_;
    std::uint64_t v = 0;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
      const std::uint64_t next = v * 10 + (s_[pos_] - '0');
      if (next < v) fail("integer overflow");
      v = next;
      ++pos_;
    }
    if (pos_ == start) fail("expected integer");
    return v;
  }

  std::uint64_t hex_u64() {
    const std::string h = quoted();
    if (h.size() < 3 || h[0] != '0' || h[1] != 'x') {
      fail("expected 0x-prefixed hex string, got \"" + h + "\"");
    }
    std::uint64_t v = 0;
    for (std::size_t i = 2; i < h.size(); ++i) {
      const char c = h[i];
      int d;
      if (c >= '0' && c <= '9') d = c - '0';
      else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
      else fail("bad hex digit in \"" + h + "\"");
      if (v >> 60) fail("hex value out of range in \"" + h + "\"");
      v = (v << 4) | static_cast<std::uint64_t>(d);
    }
    return v;
  }

  void done() {
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
  }

  [[noreturn]] void fail(const std::string& msg) {
    throw HashJournalError("hash journal line " + std::to_string(lineno_) +
                           ", col " + std::to_string(pos_ + 1) + ": " + msg);
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t')) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::size_t lineno_;
};

}  // namespace

std::string HashJournal::to_text() const {
  std::ostringstream out;
  out << "{\"format\":\"" << kFormat << "\",\"cadence_events\":"
      << cadence_events
      << ",\"seed\":" << seed << "}\n";
  for (const snapshot::StateHash& h : records) {
    out << "{\"time\":" << h.time << ",\"executed\":" << h.executed
        << ",\"event_id\":\"" << hex64(h.last_event_id)
        << "\",\"combined\":\"" << hex64(h.combined) << "\",\"sub\":[";
    for (std::size_t i = 0; i < h.sub.size(); ++i) {
      if (i) out << ',';
      out << '"' << hex32(h.sub[i]) << '"';
    }
    out << "]}\n";
  }
  return out.str();
}

void HashJournal::write_file(const std::string& path) const {
  const std::string text = to_text();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw HashJournalError("cannot open " + path + " for writing");
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  const bool ok = (n == text.size()) && (std::fclose(f) == 0);
  if (!ok) throw HashJournalError("short write to " + path);
}

HashJournal HashJournal::from_text(const std::string& text) {
  HashJournal j;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  bool have_header = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    LineParser p(line, lineno);
    p.expect('{');
    if (!have_header) {
      if (p.key() != "format") p.fail("header must start with \"format\"");
      const std::string fmt = p.quoted();
      if (fmt != kFormat) {
        p.fail("unsupported format \"" + fmt + "\" (this build reads " +
               kFormat + "; record the journal again)");
      }
      p.expect(',');
      if (p.key() != "cadence_events") p.fail("expected \"cadence_events\"");
      j.cadence_events = p.dec_u64();
      if (j.cadence_events == 0) p.fail("cadence_events must be at least 1");
      p.expect(',');
      if (p.key() != "seed") p.fail("expected \"seed\"");
      j.seed = p.dec_u64();
      p.expect('}');
      p.done();
      have_header = true;
      continue;
    }
    snapshot::StateHash h;
    if (p.key() != "time") p.fail("expected \"time\"");
    h.time = static_cast<SimTime>(p.dec_u64());
    p.expect(',');
    if (p.key() != "executed") p.fail("expected \"executed\"");
    h.executed = p.dec_u64();
    p.expect(',');
    if (p.key() != "event_id") p.fail("expected \"event_id\"");
    h.last_event_id = p.hex_u64();
    p.expect(',');
    if (p.key() != "combined") p.fail("expected \"combined\"");
    h.combined = p.hex_u64();
    p.expect(',');
    if (p.key() != "sub") p.fail("expected \"sub\"");
    p.expect('[');
    for (std::size_t i = 0; i < h.sub.size(); ++i) {
      if (i) p.expect(',');
      const std::uint64_t v = p.hex_u64();
      if (v > 0xffffffffull) p.fail("sub-hash exceeds 32 bits");
      h.sub[i] = static_cast<std::uint32_t>(v);
    }
    p.expect(']');
    p.expect('}');
    p.done();
    // Self-check: a journal whose combined hash disagrees with its own
    // sub-hashes was corrupted or hand-edited; bisecting over it would
    // point at a phantom divergence.
    if (snapshot::combine_sub_hashes(h.sub) != h.combined) {
      p.fail("combined hash does not match sub-hashes — journal corrupt");
    }
    j.records.push_back(h);
  }
  if (!have_header) {
    throw HashJournalError(std::string(kFormat) +
                           ": empty journal (no header line)");
  }
  return j;
}

HashJournal HashJournal::read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw HashJournalError("cannot open hash journal " + path);
  std::string text;
  char buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  const bool error = std::ferror(f) != 0;
  std::fclose(f);
  if (error) throw HashJournalError("read error on hash journal " + path);
  return from_text(text);
}

}  // namespace odr::obs
