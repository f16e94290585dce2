// The detector registry: the one table that maps algorithm names to code.
//
// Each entry declares a name, the modality it answers, the paper's work
// bound when it has one, and the function that runs it. `wcp_cli detect`,
// `wcp_cli sweep` and detect::run_sweep all run a name through
// run_detector and print the Verdict with the renderers below, so a name
// means the same run, report record and verdict line on every path.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "detect/report.h"
#include "detect/result.h"
#include "trace/computation.h"

namespace wcp::detect {

/// Exploration cap of the lattice and definitely families.
inline constexpr std::int64_t kDefaultMaxCuts = 10'000'000;

/// What an entry may read besides the computation; entries ignore the
/// fields that do not apply to them.
struct DetectParams {
  std::uint64_t seed = 1;  ///< simulator latency/pacing seed
  int groups = 2;          ///< multi-token group count
  std::int64_t max_cuts = kDefaultMaxCuts;  ///< <0: unbounded
  /// Lattice/definitely engine lanes (results are identical for every
  /// value); 0 = resolve_threads(0).
  std::size_t threads = 1;
  bool halt = false;      ///< distributed breakpoint on detection
  sim::FaultPlan faults;  ///< injected faults (simulator-hosted runs)
};

enum class Modality : std::uint8_t { kPossibly, kDefinitely };

/// O(n^2 m) for the vector-clock family (§3.4), O(Nm) for direct
/// dependence (§4.4).
enum class WorkBound : std::uint8_t { kNone, kN2M, kNM };

struct Verdict;

struct Detector {
  std::string_view name;
  Modality modality;
  WorkBound work_bound;
  Verdict (*run)(const Computation& comp, const DetectParams& params);
};

struct Verdict {
  const Detector* detector = nullptr;
  /// possibly(WCP), or definitely(WCP) for the definitely family.
  bool detected = false;
  /// The detected cut, or the definitely family's avoiding-observation
  /// witness; empty when there is none.
  std::vector<StateIndex> cut;
  /// Monitor work units of simulator-hosted runs, cuts explored by the
  /// searches, 0 for the oracle.
  std::int64_t cost = 0;
  /// The report record: the full DetectionResult of a simulator-hosted
  /// run, or the flat counters of every other entry.
  ReportParams params;
  std::optional<DetectionResult> run;
  std::vector<std::pair<std::string, MetricValue>> metrics;
};

std::span<const Detector> detectors();
const Detector* find_detector(std::string_view name);  ///< nullptr if none
std::string detector_names(std::string_view sep);

/// 0 -> common::ThreadPool::default_threads() (WCP_THREADS, else the
/// hardware). The only place a user's `--threads 0` is resolved.
std::size_t resolve_threads(std::size_t threads);

/// Throws std::invalid_argument listing the registered names when `name`
/// is not one of them.
Verdict run_detector(const Computation& comp, std::string_view name,
                     DetectParams params);

/// The shape (N, n, m) of `comp` plus the run seed.
ReportParams report_params(const Computation& comp, std::uint64_t seed);

/// The algorithm-agnostic wcp-verdict/1 block, the cut only when detected.
/// `detect --verdict` and `stream` both print it, so a byte-diff proves the
/// streamed path reproduces the offline one.
void write_verdict_line(std::ostream& os, bool detected,
                        const std::vector<StateIndex>& cut);

/// The wcp-run-report/1 record of `v`: bound = the entry's work bound at
/// (N, n, m) when it has one, ratio = cost / bound. Without the wall clock
/// it is a pure function of (computation, name, params).
void write_verdict_report(json::Writer& w, std::string_view bench,
                          const Verdict& v, bool include_wall_clock = true);

void write_verdict_text(std::ostream& os, std::string_view label,
                        const Verdict& v);

}  // namespace wcp::detect
