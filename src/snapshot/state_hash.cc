#include "snapshot/state_hash.h"

#include "obs/observer.h"
#include "snapshot/world.h"

namespace odr::snapshot {

StateHash StateHasher::hash(const CloudWorld& world) {
  StateHash out;
  out.time = world.sim().now();
  out.executed = world.sim().executed_count();
  out.last_event_id = world.sim().last_event_id();

  SnapshotWriter w;
  world.save_subsystems(w);
  for (std::size_t s = 0; s < kSubsystemCount; ++s) {
    out.sub[s] = w.section_crc(section_id(static_cast<Subsystem>(s)));
  }
  ODR_COUNT_N("snapshot.hash.bytes", w.size());
  out.combined = combine_sub_hashes(out.sub);
  return out;
}

std::vector<Subsystem> divergent_subsystems(const StateHash& a,
                                            const StateHash& b) {
  std::vector<Subsystem> out;
  for (std::size_t i = 0; i < kSubsystemCount; ++i) {
    if (a.sub[i] != b.sub[i]) out.push_back(static_cast<Subsystem>(i));
  }
  return out;
}

}  // namespace odr::snapshot
