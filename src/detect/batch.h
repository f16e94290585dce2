// Batch sweep runner: one trace, many detector runs, executed concurrently.
//
// A sweep is the unit of work the benches and the randomized cross-check
// tests repeat constantly: fix one computation and run a set of
// (algorithm, seed) jobs against it — every detector on one trace, or one
// detector across a seed sweep. Each job is independent (every simulator
// run builds its own sim::Network; the Computation is shared read-only), so
// the jobs fan out across a common::ThreadPool while the returned rows stay
// in job order, each row byte-identical to what a serial run produces.
//
// Job algorithms are the names of the detector registry (detect/registry.h),
// the same vocabulary as wcp_cli --algo; each row's report is the record
// `wcp_cli detect --json` prints for that run, minus the wall clock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "detect/registry.h"
#include "trace/computation.h"

namespace wcp::detect {

/// One sweep job: a registered detector name and its parameters. Offline
/// detectors ignore params.seed but still report it; params.threads stays
/// 1 by default because sweeps parallelize across jobs, not inside them.
struct SweepJob {
  std::string algo;
  DetectParams params;
};

/// Outcome of one job, independent of sweep thread count.
struct SweepRow {
  std::string algo;
  std::uint64_t seed = 0;
  Verdict verdict;
  /// Compact wcp-run-report/1 record for the run, wall clock excluded — a
  /// pure function of (computation, algo, seed), so rows from parallel and
  /// serial sweeps compare byte-for-byte.
  std::string report;
};

/// Runs every job against `comp`. `threads`: 1 = serial, 0 =
/// common::ThreadPool::default_threads(), otherwise that many lanes. Rows
/// are returned in job order and are identical for every thread count.
std::vector<SweepRow> run_sweep(const Computation& comp,
                                const std::vector<SweepJob>& jobs,
                                std::size_t threads = 0);

/// Cartesian helper: one job per (algo, seed), algos-major order.
std::vector<SweepJob> cross_jobs(const std::vector<std::string>& algos,
                                 const std::vector<std::uint64_t>& seeds);

}  // namespace wcp::detect
