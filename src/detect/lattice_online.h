// Online Cooper-Marzullo detection — the actual architecture of reference
// [3]: every predicate process streams a snapshot of EVERY local state
// (vector clock + predicate value) to one checker, which constructs the
// lattice of consistent global states incrementally as snapshots arrive
// and reports the first (minimal-level) cut satisfying the WCP.
//
// This is the general-predicate baseline made online; its cost — the
// number of lattice cuts materialized, O(m^n) in the worst case — is what
// the paper's WCP-specialized detectors avoid. The offline
// detect_lattice() explores the same lattice post-hoc; the two must agree
// (tests/lattice_online_test.cc).
//
// The level-ordered exploration is detect::LatticeOnlineCore
// (detect/stream_core.h), shared with the streaming service (which adds
// frontier GC); on the simulator it runs in the coordinator host
// (detect/core_host.h), which never garbage-collects — simulator replays
// are bounded — and forwards the work accounting into the coordinator
// metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "common/cut_storage.h"
#include "detect/result.h"
#include "trace/computation.h"

namespace wcp::detect {

struct LatticeOnlineResult {
  bool detected = false;
  bool truncated = false;
  std::vector<StateIndex> cut;
  std::int64_t cuts_explored = 0;
  std::int64_t max_frontier = 0;
  SimTime detect_time = 0;
  Metrics app_metrics;
  Metrics monitor_metrics;
  CutStorageStats storage;  ///< checker-side cut-storage footprint
};

/// Runs the online Cooper-Marzullo checker over a replay of `comp`.
LatticeOnlineResult run_lattice_online(const Computation& comp,
                                       const RunOptions& opts,
                                       std::int64_t max_cuts = -1);

}  // namespace wcp::detect
