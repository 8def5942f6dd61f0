// Snapshot serializers for the plain-data workload record types.
//
// These are shared by every component that checkpoints records (the cloud's
// in-flight waiter queues, outcome logs, AP task state). All fields are
// written with explicit tags inline in the caller's section, so a record
// layout change shows up as a tag/length mismatch at load time.
#pragma once

#include "snapshot/format.h"
#include "workload/file.h"
#include "workload/trace.h"

namespace odr::workload {

void save_file_info(snapshot::SnapshotWriter& w, const FileInfo& f);
FileInfo load_file_info(snapshot::SnapshotReader& r);

void save_workload_record(snapshot::SnapshotWriter& w,
                          const WorkloadRecord& rec);
WorkloadRecord load_workload_record(snapshot::SnapshotReader& r);

// An outcome with its pre-download and fetch records.
void save_task_outcome(snapshot::SnapshotWriter& w, const TaskOutcome& o);
TaskOutcome load_task_outcome(snapshot::SnapshotReader& r);

}  // namespace odr::workload
