// Metric registry: named counters, gauges, and fixed-bucket histograms.
//
// Names are hierarchical dot paths ("cloud.pool.evictions",
// "net.solver.iterations"); the registry stores them flat and the JSON
// export sorts lexicographically, which groups a subsystem's metrics
// together without any tree bookkeeping on the hot path.
//
// Hot-path cost: one amortized-O(1) hash lookup per update (heterogeneous
// string_view lookup — no temporary std::string). Values live in
// node-based maps, so a `Counter&` obtained once stays valid for the
// registry's lifetime and can be cached by perf-critical callers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/histogram.h"

namespace odr {
class JsonWriter;
}

namespace odr::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Registry {
 public:
  // Finds or creates the named metric. References stay valid forever (the
  // maps are node-based). For histogram(), the (lo, hi, bins) shape is
  // fixed by the first call; later calls ignore their shape arguments.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, double lo, double hi,
                       std::size_t bins);

  // Lookup without creation (nullptr when absent).
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  std::size_t counter_count() const { return counters_.size(); }
  std::size_t histogram_count() const { return histograms_.size(); }

  // Folds another registry into this one: counters add, histograms add
  // bin-wise (shapes must match — first registration wins as usual), and
  // gauges take the other registry's last value. Used on the coordinating
  // thread after a parallel sweep to aggregate per-worker registries;
  // merge in submission order for deterministic gauge results.
  void merge_from(const Registry& other);

  // Emits "counters"/"gauges"/"histograms" fields (sorted by name) into
  // the object currently open on `j`.
  void write_fields(JsonWriter& j) const;

 private:
  struct SvHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct SvEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const noexcept {
      return a == b;
    }
  };

  std::unordered_map<std::string, Counter, SvHash, SvEq> counters_;
  std::unordered_map<std::string, Gauge, SvHash, SvEq> gauges_;
  std::unordered_map<std::string, Histogram, SvHash, SvEq> histograms_;
};

}  // namespace odr::obs
