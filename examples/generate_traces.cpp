// Example: generate the three Xuanfeng-style trace files (§3).
//
// Runs a scaled cloud replay and writes the workload, pre-downloading and
// fetching traces as CSV — the same three-part dataset schema the paper
// describes, ready for external analysis tooling.
//
// Usage: generate_traces [--divisor 400] [--out /tmp/odr-traces]
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "analysis/replay.h"
#include "snapshot/world.h"
#include "util/args.h"
#include "workload/trace.h"

int main(int argc, char** argv) {
  using namespace odr;
  ArgParser args("Generate workload / pre-download / fetch trace CSVs.");
  args.flag("divisor", "400", "scale divisor vs the measured system");
  args.flag("seed", "20151028", "random seed");
  args.flag("out", "odr-traces", "output directory");
  if (!args.parse(argc, argv)) return 1;

  const auto config = analysis::make_scaled_config(
      args.get_double("divisor", 1.0, analysis::kMaxDivisor),
      static_cast<std::uint64_t>(args.get_int("seed")));

  // Create the output directory before the replay, so a bad --out fails
  // fast with a message instead of an uncaught exception.
  const std::filesystem::path dir = args.get("out");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "bad --out value '%s': %s\n", dir.string().c_str(),
                 ec.message().c_str());
    return 1;
  }

  const auto result = analysis::run_cloud_replay(config);

  {
    std::ofstream f(dir / "workload.csv");
    workload::write_workload_csv(f, result.requests, *result.catalog,
                                 *result.users);
  }
  {
    std::ofstream f(dir / "predownload.csv");
    workload::write_predownload_csv(f, result.outcomes);
  }
  {
    std::ofstream f(dir / "fetch.csv");
    workload::write_fetch_csv(f, result.outcomes, *result.users);
  }
  const auto fetches = std::count_if(
      result.outcomes.begin(), result.outcomes.end(),
      [](const workload::TaskOutcome& o) { return o.pre.success; });
  std::printf("wrote %zu workload, %zu pre-download, %zu fetch records to "
              "%s/\n",
              result.requests.size(), result.outcomes.size(),
              static_cast<std::size_t>(fetches), dir.string().c_str());

  // Round-trip check: the workload CSV must parse, and the parsed trace
  // must render back to the same bytes.
  std::ifstream check(dir / "workload.csv");
  const std::string written{std::istreambuf_iterator<char>(check), {}};
  std::istringstream in(written);
  const workload::Trace parsed = workload::read_workload_csv(in);
  std::ostringstream rendered;
  workload::write_workload_csv(rendered, parsed.requests,
                               workload::Catalog(parsed.files),
                               workload::UserPopulation(parsed.users));
  const bool same = rendered.str() == written;
  std::printf("round-trip check: re-read %zu workload records, re-rendered "
              "%s\n",
              parsed.requests.size(),
              same ? "byte-identical (OK)" : "MISMATCH");
  return same ? 0 : 1;
}
