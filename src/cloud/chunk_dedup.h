// Chunk-level deduplication study (§2.1's rejected design).
//
// Xuanfeng dedups at FILE granularity (MD5 of content) and deliberately
// does not chunk: "to avoid trading high chunking complexity for low
// (<1%) storage space savings. The low storage savings come from the fact
// that there do exist a few videos sharing a portion of frames/chunks."
//
// This module makes that trade-off measurable: synthetic per-file chunk
// signatures where a small fraction of files share a portion of their
// chunks with a "related" file (re-encodes, different release groups of
// the same video), a chunk store that tracks unique bytes, and the
// bookkeeping cost (index entries) chunking would add.
// `bench/ablation_chunk_dedup` reproduces the <1% claim.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "util/rng.h"
#include "util/units.h"
#include "workload/catalog.h"

namespace odr::cloud {

struct ChunkingParams {
  Bytes chunk_size = 4 * kMB;
  // Fraction of files that share content with an earlier related file.
  double related_prob = 0.03;
  // Shared portion, uniform in [lo, hi], for related files.
  double shared_fraction_lo = 0.10;
  double shared_fraction_hi = 0.60;
};

// The chunk signatures of one file. Chunks are identified by 64-bit
// signatures derived from the file's content id; shared chunks reuse the
// donor's signatures (same content -> same signature, as a real
// content-defined chunker would produce).
std::vector<std::uint64_t> chunk_signatures(
    const workload::FileInfo& file, Bytes chunk_size,
    const workload::FileInfo* donor = nullptr, double shared_fraction = 0.0);

// Content store tracking unique chunks and unique bytes.
class ChunkStore {
 public:
  explicit ChunkStore(Bytes chunk_size) : chunk_size_(chunk_size) {}

  struct AddResult {
    Bytes file_bytes = 0;   // logical size of the added file
    Bytes new_bytes = 0;    // bytes actually stored (unseen chunks)
    std::size_t chunks = 0;
    std::size_t new_chunks = 0;
  };

  AddResult add(const workload::FileInfo& file,
                const std::vector<std::uint64_t>& signatures);

  Bytes logical_bytes() const { return logical_; }
  Bytes stored_bytes() const { return stored_; }
  std::size_t unique_chunks() const { return chunks_.size(); }
  // Space saved by chunk-level dedup beyond file-level dedup, as a
  // fraction of the logical bytes (the paper's "<1%").
  double dedup_saving() const;
  // Index bookkeeping: bytes of chunk metadata (signature + locator).
  Bytes index_bytes(std::size_t entry_bytes = 24) const;


 private:
  Bytes chunk_size_;
  Bytes logical_ = 0;
  Bytes stored_ = 0;
  std::unordered_set<std::uint64_t> chunks_;
};

// Assigns related-file donors across a catalog: returns, per file index,
// the donor index (or nullopt) and the shared fraction. Donors are earlier
// same-type files, matching the "few videos share frames" observation.
struct RelatedFile {
  std::optional<workload::FileIndex> donor;
  double shared_fraction = 0.0;
};
std::vector<RelatedFile> assign_related_files(const workload::Catalog& catalog,
                                              const ChunkingParams& params,
                                              Rng& rng);

}  // namespace odr::cloud
