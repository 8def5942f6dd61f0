// Popularity profile of the file catalog.
//
// §4.1 pins three anchors of the weekly request distribution:
//   - highly popular files: 0.84% of files, 39% of requests, count > 84;
//   - popular files:        ~6% of files, count in [7, 84];
//   - unpopular files:      93.2% of files, 36% of requests, count < 7.
// (Popular files therefore carry the remaining 25% of requests.)
//
// A single Zipf or stretched-exponential curve cannot satisfy all three
// at reduced catalog scale (both behave as one power law), so the
// generator uses a broken power law: log-count decays piecewise-linearly
// in log-rank, with segment parameters solved so that the class
// boundaries sit exactly at counts 84 and 7 and each segment carries its
// target request mass. Figs 6-7 are then reproduced the way the paper
// produced them: by FITTING Zipf and SE curves to the measured counts and
// comparing their errors.
#pragma once

#include <cstddef>
#include <vector>

namespace odr::workload {

struct PopularityProfileParams {
  double head_file_share = 0.0084;   // highly popular
  double head_request_share = 0.39;
  double mid_file_share = 0.0596;    // popular (class bounds 7..84)
  double mid_request_share = 0.25;
  double head_boundary_count = 84.0;
  double mid_boundary_count = 7.0;
  // Expected weekly count of the least popular file (tail end).
  double tail_min_count = 0.25;
  // Upper bound on the rank-1 file's share of all requests. At full scale
  // the hottest file carries well under 1% of the 4M weekly requests;
  // without this cap, downscaling concentrates the head's 39% mass on a
  // handful of files and the top file alone absorbs ~20% of requests.
  // When the cap binds, the head segment gets curvature instead of height.
  double max_top_share = 0.006;
};

class PopularityProfile {
 public:
  // Builds expected weekly request counts for `num_files` ranks summing to
  // `total_requests`.
  PopularityProfile(std::size_t num_files, double total_requests,
                    const PopularityProfileParams& params = {});

  std::size_t size() const { return counts_.size(); }
  // Expected weekly requests of rank r (1-based), non-increasing in r.
  double count(std::size_t rank) const { return counts_.at(rank - 1); }
  const std::vector<double>& counts() const { return counts_; }

 private:
  std::vector<double> counts_;
};

}  // namespace odr::workload
