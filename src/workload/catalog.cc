#include "workload/catalog.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string_view>

#include "util/fixed_chars.h"

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
    util::FixedChars<64> content;
    content.text("odr-file-content/").number(r).text("/").number(
        rng.next_u64());
    f.content_id = Md5::of(content.view());
    // Real links per protocol family, parseable by odr::parse_download_link
    // (the format ODR's front page accepts, §6.1).
    char hex_chars[Md5Digest::kHexChars];
    f.content_id.write_hex(hex_chars);
    const std::string_view hex(hex_chars, sizeof hex_chars);
    util::FixedChars<160> link;
    switch (f.protocol) {
      case proto::Protocol::kBitTorrent:
        // btih is 40 hex chars; extend the MD5 deterministically.
        link.text("magnet:?xt=urn:btih:").text(hex).text(hex.substr(0, 8))
            .text("&dn=file-").number(r).text("&xl=").number(f.size);
        break;
      case proto::Protocol::kEmule:
        link.text("ed2k://|file|file-").number(r).text("|").number(f.size)
            .text("|").text(hex).text("|/");
        break;
      case proto::Protocol::kHttp:
        link.text("http://origin-").number(r % 97)
            .text(".example.cn/files/").text(hex);
        break;
      case proto::Protocol::kFtp:
        link.text("ftp://mirror-").number(r % 31).text(".example.cn/pub/")
            .text(hex);
        break;
    }
    f.source_link = link.view();
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
