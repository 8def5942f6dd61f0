#include "cloud/chunk_dedup.h"

#include <algorithm>
#include <array>
#include <cassert>

namespace odr::cloud {
namespace {

// SplitMix64 over (content prefix, chunk index): a stable per-chunk
// signature standing in for the MD5 a real chunker would compute.
std::uint64_t chunk_sig(std::uint64_t file_key, std::uint64_t index) {
  std::uint64_t x = file_key ^ (0x9e3779b97f4a7c15ull * (index + 1));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::size_t chunk_count(Bytes size, Bytes chunk_size) {
  return static_cast<std::size_t>((size + chunk_size - 1) / chunk_size);
}

}  // namespace

std::vector<std::uint64_t> chunk_signatures(const workload::FileInfo& file,
                                            Bytes chunk_size,
                                            const workload::FileInfo* donor,
                                            double shared_fraction) {
  assert(chunk_size > 0);
  const std::size_t n = chunk_count(std::max<Bytes>(1, file.size), chunk_size);
  std::vector<std::uint64_t> sigs;
  sigs.reserve(n);
  const std::uint64_t own_key = file.content_id.prefix64();
  std::size_t shared = 0;
  if (donor != nullptr && shared_fraction > 0.0) {
    const std::size_t donor_chunks =
        chunk_count(std::max<Bytes>(1, donor->size), chunk_size);
    shared = std::min(donor_chunks,
                      static_cast<std::size_t>(shared_fraction *
                                               static_cast<double>(n)));
  }
  const std::uint64_t donor_key =
      donor != nullptr ? donor->content_id.prefix64() : 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Shared run at the front (the common prefix of a re-encode).
    sigs.push_back(i < shared ? chunk_sig(donor_key, i)
                              : chunk_sig(own_key, i));
  }
  return sigs;
}

ChunkStore::AddResult ChunkStore::add(
    const workload::FileInfo& file,
    const std::vector<std::uint64_t>& signatures) {
  AddResult r;
  r.file_bytes = file.size;
  r.chunks = signatures.size();
  logical_ += file.size;
  for (std::size_t i = 0; i < signatures.size(); ++i) {
    if (chunks_.insert(signatures[i]).second) {
      ++r.new_chunks;
      // Last chunk may be partial.
      const Bytes this_chunk =
          (i + 1 == signatures.size() && file.size % chunk_size_ != 0)
              ? file.size % chunk_size_
              : chunk_size_;
      r.new_bytes += this_chunk;
    }
  }
  stored_ += r.new_bytes;
  return r;
}

double ChunkStore::dedup_saving() const {
  if (logical_ == 0) return 0.0;
  return 1.0 - static_cast<double>(stored_) / static_cast<double>(logical_);
}

Bytes ChunkStore::index_bytes(std::size_t entry_bytes) const {
  return static_cast<Bytes>(chunks_.size()) * entry_bytes;
}

std::vector<RelatedFile> assign_related_files(const workload::Catalog& catalog,
                                              const ChunkingParams& params,
                                              Rng& rng) {
  std::vector<RelatedFile> out(catalog.size());
  // Earlier same-type files are donor candidates; track them per type.
  std::array<std::vector<workload::FileIndex>, 3> by_type;
  for (const auto& f : catalog.files()) {
    auto& pool = by_type[static_cast<std::size_t>(f.type)];
    if (!pool.empty() && rng.bernoulli(params.related_prob)) {
      RelatedFile rel;
      rel.donor = pool[rng.uniform_index(pool.size())];
      rel.shared_fraction = rng.uniform(params.shared_fraction_lo,
                                        params.shared_fraction_hi);
      out[f.index] = rel;
    }
    pool.push_back(f.index);
  }
  return out;
}

}  // namespace odr::cloud
