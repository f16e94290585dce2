// Cooper–Marzullo style global-state lattice detection — the general
// baseline discussed in §1 of the paper.
//
// Enumerates the lattice of consistent cuts over the predicate processes in
// level (breadth-first) order until a cut satisfying the WCP is found. This
// detects *possibly(phi)* for arbitrary phi; for a WCP the first satisfying
// cut found at the minimal level is exactly the pointwise-minimal cut the
// token algorithms return (satisfying cuts of a conjunction are closed
// under pointwise meet), which the tests exploit.
//
// The number of cuts explored can grow as O(m^n) — the cost that motivates
// the paper's algorithms; bench E10 measures the blowup.
//
// possibly(WCP) stops at the first satisfying cut; definitely(WCP) walks
// only non-satisfying cuts and stops at the top cut (reached = some
// observation avoids the predicate). Both run a search of
// detect/slot_clocks.h, which reports in a LatticeResult; detect_lattice
// returns it as is and detect_definitely maps it onto DefinitelyResult:
//
//   - detect_lattice admits every consistent cut, so it runs search_levels:
//     a level-at-a-time BFS that keeps no table of visited cuts and splits
//     wide levels over `threads` lanes (ALGORITHMS.md §15). Verdict, cut,
//     cuts_explored, max_frontier, truncation point, witness_path and
//     storage are those of the serial FIFO BFS at every thread count
//     (tests/flat_storage_equiv_test.cc and tests/level_search_test.cc
//     check them against a reference BFS). Front ends resolve a user's
//     `--threads 0` through detect::resolve_threads (detect/registry.h).
//   - detect_definitely prunes satisfying cuts, which breaks the
//     no-table rule, so it runs the serial search_cuts, whose visited cuts
//     live in flat arenas (common/cut_storage.h): packed 32-bit components,
//     an open-addressing dedup table, dense-handle parent links.
//
// Both decide a successor's consistency with one row read of a per-search
// slot-clock table (detect/slot_clocks.h). The `storage` block of the
// results reports the measured footprint.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/cut_storage.h"
#include "common/types.h"
#include "trace/computation.h"
#include "trace/trace_store_stats.h"

namespace wcp::detect {

struct LatticeResult {
  bool detected = false;
  /// Reached the exploration cap before finding a satisfying cut.
  bool truncated = false;
  std::vector<StateIndex> cut;       // width n, predicate-slot order
  std::int64_t cuts_explored = 0;    // distinct consistent cuts visited
  std::int64_t max_frontier = 0;     // peak BFS frontier size
  /// When detected: the BFS path from the bottom cut to `cut`, one advanced
  /// slot per step — the cut's greedy least path, rebuilt once at the end,
  /// so no predecessor is ever retained. Expand with
  /// materialize_witness_path. Identical for every thread count.
  std::vector<std::uint32_t> witness_path;
  CutStorageStats storage;           // measured cut-storage footprint
  TraceStoreStats trace_store;       // clock-store footprint (thread-invariant)
};

/// Explores at most `max_cuts` consistent cuts (<0: unbounded), splitting
/// wide lattice levels over `threads` lanes (<= 1: the calling thread
/// only). The result does not depend on `threads`.
LatticeResult detect_lattice(const Computation& comp,
                             std::int64_t max_cuts = -1,
                             std::size_t threads = 1);

/// Cooper-Marzullo definitely(WCP): true iff EVERY observation (every
/// maximal path through the lattice of consistent cuts) passes through a
/// cut satisfying the WCP. Computed as the complement of reachability of
/// the top cut through non-satisfying cuts only.
struct DefinitelyResult {
  bool definitely = false;
  bool truncated = false;
  std::int64_t cuts_explored = 0;
  /// When definitely == false (and not truncated): a consistent,
  /// non-satisfying cut proving it — the first cut where a discovered
  /// avoiding observation diverges past the pointwise-minimal satisfying
  /// cut. When the predicate never holds at all, every observation avoids
  /// it from the start and the witness is the bottom cut. Empty when
  /// definitely == true or the search was truncated.
  std::vector<StateIndex> witness;
  /// When definitely == false: the avoiding observation as advanced slots
  /// from the bottom cut to the top cut, rebuilt from stored BFS parent
  /// offsets (`witness` is the first cut on it that diverges past the
  /// minimal satisfying cut).
  std::vector<std::uint32_t> witness_path;
  CutStorageStats storage;  ///< measured cut-storage footprint
  TraceStoreStats trace_store;  ///< clock-store footprint
};

/// Explores at most `max_cuts` consistent cuts (<0: unbounded), serially.
DefinitelyResult detect_definitely(const Computation& comp,
                                   std::int64_t max_cuts = -1);

/// Expands a parent-offset witness path into the cut sequence it encodes:
/// result[0] is the bottom cut (all 1s, width n) and result[t+1] advances
/// slot path[t] of result[t] by one state.
std::vector<std::vector<StateIndex>> materialize_witness_path(
    std::size_t n, std::span<const std::uint32_t> path);

}  // namespace wcp::detect
