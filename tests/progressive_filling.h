// Reference max-min fair solver for the property tests: the round-based
// progressive-filling loop the flow plane used before water-filling,
// sequential and free of the flow slab. Each round raises every unfrozen
// flow by the same increment (the smallest link fair share or remaining
// cap headroom), then freezes the flows that reached their cap or cross a
// saturated link. It is slow (one full sweep per freeze level) and kept
// only as an oracle for net::Network.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace odr::net::reference {

// Rates at or below this are zero to the solver (mirrors net/network.cc).
inline constexpr double kMinRate = 1e-6;

struct RefFlow {
  std::vector<std::uint32_t> path;  // link indices; may repeat or be empty
  double cap = std::numeric_limits<double>::infinity();
};

// Returns one rate per flow.
inline std::vector<double> progressive_filling(
    const std::vector<double>& capacity, const std::vector<RefFlow>& flows) {
  std::vector<double> rates(flows.size(), 0.0);
  std::vector<double> remaining(capacity.size());
  for (std::size_t l = 0; l < capacity.size(); ++l) {
    remaining[l] = std::max(0.0, capacity[l]);
  }
  std::vector<std::int32_t> unfrozen_on(capacity.size(), 0);
  std::vector<std::uint8_t> frozen(flows.size(), 1);
  std::vector<std::size_t> unfrozen;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const RefFlow& f = flows[i];
    if (f.cap <= kMinRate) continue;  // fully throttled
    if (f.path.empty()) {
      rates[i] = std::isfinite(f.cap) ? f.cap : 1e15;
      continue;
    }
    frozen[i] = 0;
    unfrozen.push_back(i);
    for (std::uint32_t l : f.path) ++unfrozen_on[l];
  }

  std::size_t active = unfrozen.size();
  std::size_t guard = 2 * (unfrozen.size() + capacity.size()) + 8;
  while (active > 0 && guard-- > 0) {
    double inc = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < capacity.size(); ++l) {
      if (unfrozen_on[l] == 0) continue;
      inc = std::min(inc, remaining[l] / static_cast<double>(unfrozen_on[l]));
    }
    for (std::size_t i : unfrozen) {
      if (!frozen[i] && std::isfinite(flows[i].cap)) {
        inc = std::min(inc, flows[i].cap - rates[i]);
      }
    }
    if (!std::isfinite(inc)) inc = 1e15;  // unconstrained flows: clamp
    inc = std::max(inc, 0.0);

    for (std::size_t l = 0; l < capacity.size(); ++l) {
      for (std::int32_t j = 0; j < unfrozen_on[l]; ++j) remaining[l] -= inc;
    }
    for (std::size_t i : unfrozen) {
      if (!frozen[i]) rates[i] += inc;
    }

    std::size_t newly_frozen = 0;
    for (std::size_t i : unfrozen) {
      if (frozen[i]) continue;
      bool freeze = std::isfinite(flows[i].cap) &&
                    rates[i] >= flows[i].cap - kMinRate;
      for (std::uint32_t l : flows[i].path) {
        freeze = freeze || remaining[l] <= kMinRate;
      }
      if (freeze) {
        frozen[i] = 1;
        ++newly_frozen;
        for (std::uint32_t l : flows[i].path) --unfrozen_on[l];
      }
    }
    active -= newly_frozen;
    if (newly_frozen == 0) break;
  }
  return rates;
}

}  // namespace odr::net::reference
