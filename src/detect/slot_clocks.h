// Slot-clock table — the successor kernel shared by every lattice search —
// and the two breadth-first searches over consistent cuts built on it:
//
//   search         caller                     goal (popped cut)     admit
//   search_levels  possibly(WCP), lattice.cc  clocks.satisfies      everything
//   "              detect_possibly_general    phi over the envs     everything
//   "              detect_gcp_lattice         locals + channels     everything
//   search_cuts    definitely(WCP), "         cut is the top cut    !satisfies
//
// Both pop cuts in the same FIFO order and report the same counters. The
// admit-all searches need no table of visited cuts (search_levels decides
// locally whether a successor is new, ALGORITHMS.md §15) and run on any
// number of lanes; definitely's admit prunes cuts, which breaks that rule,
// so it keeps the serial search_cuts with its visited table.
//
// A lattice search advances one slot s of a consistent cut C to
// k = C[s] + 1 and asks whether the result is still consistent. Over a
// process list procs[0..w) the table holds, for every state (procs[s], k),
// one dense row of w 32-bit cells:
//
//   row(s, k)[t] = component procs[t] of the vector clock of (procs[s], k)
//                  for t != s  (Computation::clock_component)
//   row(s, k)[s] = local predicate bit of (procs[s], k)
//
// so the table is w · Σ_s num_states(procs[s]) · 4 bytes (about 2 KB for a
// 6-slot, 80-state trace), filled once through the validated accessors.
//
// One direction suffices (ALGORITHMS.md §15). The advanced cut is
// inconsistent iff some t != s has (t, C[t]) -> (s, k) or (s, k) -> (t, C[t]).
// The second can never fire: C is consistent, so (s, k-1) does not happen
// before (t, C[t]), i.e. clock(t, C[t])[s] < k - 1 < k. What remains is
//
//   consistent(C + e_s)  <=>  for every t != s: row(s, k)[t] < C[t],
//
// one read of one row per successor instead of 2(w-1) happened_before
// queries, each an interval-index binary search.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/cut_hash.h"
#include "common/cut_storage.h"
#include "common/types.h"
#include "trace/computation.h"

namespace wcp::detect {

class SlotClockTable {
 public:
  /// Fills the table over `procs` (cut order). Any process list works, not
  /// just the predicate processes; the predicate bit is local_pred's.
  SlotClockTable(const Computation& comp, std::span<const ProcessId> procs);

  [[nodiscard]] std::size_t width() const { return w_; }

  /// States on slot s (>= 1).
  [[nodiscard]] StateIndex num_states(std::size_t s) const {
    return static_cast<StateIndex>(base_[s + 1] - base_[s]);
  }

  /// Local predicate of state (procs[s], k), 1 <= k <= num_states(s).
  [[nodiscard]] bool pred(std::size_t s, StateIndex k) const {
    return row(s, k)[s] != 0;
  }

  /// True iff every slot's state in `cut` satisfies its local predicate.
  template <typename Cut>
  [[nodiscard]] bool satisfies(const Cut& cut) const {
    for (std::size_t s = 0; s < w_; ++s)
      if (!pred(s, static_cast<StateIndex>(cut[s]))) return false;
    return true;
  }

  /// Given a CONSISTENT cut, true iff advancing slot s by one state keeps
  /// it consistent (see the file comment for why one direction suffices).
  /// The caller guarantees cut[s] < num_states(s).
  template <typename Cut>
  [[nodiscard]] bool advance_consistent(const Cut& cut, std::size_t s) const {
    const std::uint32_t* r = row(s, static_cast<StateIndex>(cut[s]) + 1);
    for (std::size_t t = 0; t < s; ++t)
      if (r[t] >= static_cast<std::uint64_t>(cut[t])) return false;
    for (std::size_t t = s + 1; t < w_; ++t)
      if (r[t] >= static_cast<std::uint64_t>(cut[t])) return false;
    return true;
  }

 private:
  [[nodiscard]] const std::uint32_t* row(std::size_t s, StateIndex k) const {
    return cells_.data() +
           (base_[s] + static_cast<std::size_t>(k - 1)) * w_;
  }

  std::size_t w_;
  std::vector<std::size_t> base_;  // w_ + 1 entries: rows before slot s
  std::vector<std::uint32_t> cells_;
};

/// What one breadth-first lattice search found.
struct CutSearchOutcome {
  bool found = false;              ///< a popped cut passed the goal test
  bool truncated = false;          ///< stopped at the max_cuts-th pop
  std::vector<StateIndex> cut;     ///< the goal cut when found
  std::int64_t cuts_explored = 0;  ///< cuts popped
  std::int64_t max_frontier = 0;   ///< peak frontier size
  /// When found: the advanced slots from the bottom cut to `cut` along its
  /// BFS parents.
  std::vector<std::uint32_t> path;
  CutStorageStats storage;
};

/// The goal test of an admit-all search: the popped cut, packed 32-bit
/// components in slot order.
using CutGoal = std::function<bool(std::span<const std::uint32_t>)>;

/// The breadth-first search over every consistent cut of `clocks`' slots,
/// from the bottom cut (all 1s: state 1 has no receives before it, so it is
/// always consistent), one level at a time and with no table of visited
/// cuts (ALGORITHMS.md §15). It stops at the first popped cut passing
/// `goal` or at the max_cuts-th pop (<0: unbounded), and its result is the
/// serial FIFO BFS's on every lane count. Wide levels are split over
/// `lanes` threads; with lanes <= 1 `goal` runs on exactly the popped cuts,
/// in pop order, so a goal with side effects (counters) sees what the
/// serial BFS shows it. With more lanes it may also see cuts of the
/// stopping level past the stop.
///
/// storage: cuts_interned is pops plus the queue at the stop, as a visited
/// table would hold; peak_bytes is the high-water mark of the level
/// buffers and heap_allocs the number of times they grew; table_probes 0.
CutSearchOutcome search_levels(const SlotClockTable& clocks,
                               std::int64_t max_cuts, std::size_t lanes,
                               const CutGoal& goal);

/// The serial breadth-first search over the consistent cuts of `clocks`'
/// slots, from the bottom cut. Pops cuts in FIFO order and stops at the
/// first popped cut passing `goal` or at the max_cuts-th pop (<0:
/// unbounded); a consistent successor enters the visited set iff `admit`
/// accepts it. `goal` and `admit` see the cut as a const
/// std::vector<StateIndex>&. One ParentLink per visited cut rebuilds the
/// goal's BFS path.
///
/// Every visited cut lives exactly once in a CutArena, and cuts enter it in
/// exactly the order a FIFO queue would pop them, so the frontier is the
/// arena suffix [head, size) and needs no queue of its own.
template <typename Goal, typename Admit>
CutSearchOutcome search_cuts(const SlotClockTable& clocks,
                             std::int64_t max_cuts, Goal&& goal,
                             Admit&& admit) {
  /// BFS parent offset of one visited cut: the handle of its predecessor
  /// (the bottom cut references itself) plus which slot the advance took.
  struct ParentLink {
    CutHandle parent;
    std::uint32_t slot;
  };
  const std::size_t w = clocks.width();
  CutSearchOutcome out;
  CutArena arena(w);
  CutTable visited;
  const CutHash hasher;
  std::vector<ParentLink> links;  // links[h]: parent offset of handle h
  // From here on, `scratch` is the only live cut vector: the advance is
  // done in place and undone after the intern.
  std::vector<StateIndex> scratch(w, 1);
  visited.intern(arena, scratch, hasher(scratch));
  links.push_back({0, 0});

  for (std::size_t head = 0; head < arena.size(); ++head) {
    out.max_frontier = std::max(
        out.max_frontier, static_cast<std::int64_t>(arena.size() - head));
    arena.copy_to(static_cast<CutHandle>(head), scratch);
    ++out.cuts_explored;
    if (goal(std::as_const(scratch))) {
      out.found = true;
      out.cut = scratch;
      for (auto c = static_cast<CutHandle>(head); c != 0;
           c = links[c].parent)
        out.path.push_back(links[c].slot);
      std::reverse(out.path.begin(), out.path.end());
      break;
    }
    if (max_cuts >= 0 && out.cuts_explored >= max_cuts) {
      out.truncated = true;
      break;
    }
    for (std::size_t s = 0; s < w; ++s) {
      if (scratch[s] + 1 > clocks.num_states(s) ||
          !clocks.advance_consistent(scratch, s))
        continue;
      scratch[s] += 1;
      if (admit(std::as_const(scratch)) &&
          visited.intern(arena, scratch, hasher(scratch)).inserted)
        links.push_back(
            {static_cast<CutHandle>(head), static_cast<std::uint32_t>(s)});
      scratch[s] -= 1;
    }
  }
  arena.add_stats(out.storage);
  visited.add_stats(out.storage);
  return out;
}

}  // namespace wcp::detect
