// Snapshot serializers for the plain-data workload record types.
//
// These are shared by every component that checkpoints records (the cloud's
// in-flight waiter queues and active fetches, the world's outcome log). A
// file is never serialized: its attributes live in the catalog, and a
// checkpoint names it by FileIndex. All fields are written with explicit
// tags inline in the caller's section, so a record layout change shows up
// as a tag/length mismatch at load time.
#pragma once

#include "snapshot/format.h"
#include "workload/trace.h"

namespace odr::workload {

void save_workload_record(snapshot::SnapshotWriter& w,
                          const WorkloadRecord& rec);
WorkloadRecord load_workload_record(snapshot::SnapshotReader& r);

// An outcome with its pre-download and fetch records.
void save_task_outcome(snapshot::SnapshotWriter& w, const TaskOutcome& o);
TaskOutcome load_task_outcome(snapshot::SnapshotReader& r);

}  // namespace odr::workload
