#include "workload/catalog.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

namespace odr::workload {

Catalog::Catalog(const CatalogParams& params, Rng& rng) : params_(params) {
  assert(params_.num_files > 0);
  const PopularityProfile popularity(params.num_files,
                                     params.total_weekly_requests,
                                     params.popularity);
  const SizeModel size_model(params_.size);

  files_.reserve(params_.num_files);
  for (std::size_t r = 1; r <= params_.num_files; ++r) {
    FileInfo f;
    f.index = static_cast<FileIndex>(r - 1);
    f.rank = static_cast<std::uint32_t>(r);
    f.expected_weekly_requests = popularity.count(r);
    f.born_before_trace = !rng.bernoulli(params_.new_file_fraction);

    const double type_draw = rng.uniform();
    if (type_draw < params_.video_fraction) {
      f.type = FileType::kVideo;
    } else if (type_draw < params_.video_fraction + params_.software_fraction) {
      f.type = FileType::kSoftware;
    } else {
      f.type = FileType::kOther;
    }

    const double proto_draw = rng.uniform();
    if (proto_draw < params_.bittorrent_fraction) {
      f.protocol = proto::Protocol::kBitTorrent;
    } else if (proto_draw < params_.bittorrent_fraction + params_.emule_fraction) {
      f.protocol = proto::Protocol::kEmule;
    } else if (proto_draw < params_.bittorrent_fraction +
                                params_.emule_fraction + params_.http_fraction) {
      f.protocol = proto::Protocol::kHttp;
    } else {
      f.protocol = proto::Protocol::kFtp;
    }

    f.size = size_model.sample(f.type, rng);
    // Content IDs are MD5 of (synthetic) content, as in Xuanfeng's dedup.
    f.content_id = Md5::of("odr-file-content/" + std::to_string(r) + "/" +
                           std::to_string(rng.next_u64()));
    // Real links per protocol family, parseable by odr::parse_download_link
    // (the format ODR's front page accepts, §6.1).
    const std::string hex = f.content_id.hex();
    switch (f.protocol) {
      case proto::Protocol::kBitTorrent:
        // btih is 40 hex chars; extend the MD5 deterministically.
        f.source_link = "magnet:?xt=urn:btih:" + hex + hex.substr(0, 8) +
                        "&dn=file-" + std::to_string(r) +
                        "&xl=" + std::to_string(f.size);
        break;
      case proto::Protocol::kEmule:
        f.source_link = "ed2k://|file|file-" + std::to_string(r) + "|" +
                        std::to_string(f.size) + "|" + hex + "|/";
        break;
      case proto::Protocol::kHttp:
        f.source_link = "http://origin-" + std::to_string(r % 97) +
                        ".example.cn/files/" + hex;
        break;
      case proto::Protocol::kFtp:
        f.source_link = "ftp://mirror-" + std::to_string(r % 31) +
                        ".example.cn/pub/" + hex;
        break;
    }
    files_.push_back(std::move(f));
  }
  build_request_table();
}

Catalog::Catalog(std::vector<FileInfo> files) : files_(std::move(files)) {
  params_.num_files = files_.size();
  params_.total_weekly_requests = 0.0;
  for (std::size_t i = 0; i < files_.size(); ++i) {
    assert(files_[i].index == static_cast<FileIndex>(i));
    params_.total_weekly_requests += files_[i].expected_weekly_requests;
  }
  build_request_table();
}

void Catalog::build_request_table() {
  std::vector<double> cumulative(files_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < files_.size(); ++i) {
    acc += std::max(0.0, files_[i].expected_weekly_requests);
    cumulative[i] = acc;
  }
  if (acc > 0.0) request_table_ = util::GuideTable(std::move(cumulative));
}

FileIndex Catalog::sample_request(Rng& rng) const {
  if (request_table_.empty()) return 0;
  return static_cast<FileIndex>(request_table_.find(rng.uniform()));
}

}  // namespace odr::workload
