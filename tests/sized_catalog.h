// A small catalog for storage-pool tests: file i has size sizes[i] and
// content id MD5("f<i>"), so each file names distinct content.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/md5.h"
#include "util/units.h"
#include "workload/catalog.h"

namespace odr {

inline workload::Catalog sized_catalog(const std::vector<Bytes>& sizes) {
  std::vector<workload::FileInfo> files(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    files[i].index = static_cast<workload::FileIndex>(i);
    std::string name("f");
    name.append(std::to_string(i));
    files[i].content_id = Md5::of(name);
    files[i].size = sizes[i];
    files[i].rank = static_cast<std::uint32_t>(i + 1);
  }
  return workload::Catalog(std::move(files));
}

}  // namespace odr
