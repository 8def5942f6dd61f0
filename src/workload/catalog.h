// File catalog generation.
//
// Builds the population of files the week's requests draw from, with the
// paper's marginals: type mix (75% video), protocol mix (68% BT / 19%
// eMule / 13% HTTP+FTP), the Fig-5 size distribution, and the §4.1
// popularity profile (0.84% highly popular files carrying 39% of
// requests, 93.2% unpopular files carrying 36%). Popularity follows a
// broken power law anchored at the class boundaries; the paper's Zipf and
// SE curves are *fitted* to the resulting measurements (Figs 6-7), just
// as the authors fitted them to theirs.
//
// File index equals popularity rank - 1; expected_weekly_requests is the
// catalog's ground truth for rank popularity, which swarm populations are
// coupled to (a file popular in Xuanfeng is popular on the wider Internet).
#pragma once

#include <vector>

#include "util/guide_table.h"
#include "util/rng.h"
#include "workload/file.h"
#include "workload/popularity.h"
#include "workload/size_model.h"

namespace odr::workload {

struct CatalogParams {
  // Scaled default: the real trace has 563,517 unique files for 4,084,417
  // tasks; a 1/20-scale experiment keeps the ratio.
  std::size_t num_files = 28000;
  double total_weekly_requests = 204000;

  // Request/type shares (§3).
  double video_fraction = 0.75;
  double software_fraction = 0.15;

  // Protocol shares of requested files (§3): 87% P2P.
  double bittorrent_fraction = 0.68;
  double emule_fraction = 0.19;
  double http_fraction = 0.08;  // remainder is FTP

  // Popularity anchors (§4.1); see PopularityProfile.
  PopularityProfileParams popularity;

  // Content churn: fraction of files first released during the measurement
  // week (uncacheable beforehand).
  double new_file_fraction = 0.60;

  SizeModelParams size;
};

class Catalog {
 public:
  Catalog(const CatalogParams& params, Rng& rng);

  // Reconstructs a catalog from externally supplied file metadata (e.g.
  // recovered from a workload trace): files must be indexed densely from
  // 0. sample_request() draws by expected_weekly_requests.
  explicit Catalog(std::vector<FileInfo> files);

  std::size_t size() const { return files_.size(); }
  const FileInfo& file(FileIndex index) const { return files_.at(index); }
  const std::vector<FileInfo>& files() const { return files_; }

  // Draws a file proportionally to expected_weekly_requests.
  FileIndex sample_request(Rng& rng) const;

  const CatalogParams& params() const { return params_; }

 private:
  void build_request_table();

  CatalogParams params_;
  std::vector<FileInfo> files_;
  // Over expected_weekly_requests; empty when no file has a positive one.
  util::GuideTable request_table_;
};

}  // namespace odr::workload
