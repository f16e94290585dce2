// Slot-clock table — the successor kernel shared by every lattice search
// (lattice.cc's serial and concurrent engines, the GCP lattice baseline,
// the relational possibly(phi) search) — and search_cuts, the one serial
// breadth-first search over consistent cuts built on it. Its callers:
//
//   caller                     goal (popped cut)     admit (successor)  links
//   possibly(WCP), lattice.cc  clocks.satisfies      everything         yes
//   definitely(WCP), "         cut is the top cut    !clocks.satisfies  yes
//   detect_possibly_general    phi over the envs     everything         no
//   detect_gcp_lattice         locals + channels     everything         no
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

/// BFS parent offset of one visited cut: the handle of its predecessor
/// (the bottom cut references itself) plus which slot the advance took.
/// Witness paths are rebuilt from these links on demand — the full
/// predecessor cuts are never retained (ltsmin-style trace reconstruction).
struct ParentLink {
  CutHandle parent;
  std::uint32_t slot;
};

inline constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

/// Walks the parent offsets from `top` back to the bottom cut and returns
/// the advanced slot of every step, bottom first.
template <typename LinkOf>
std::vector<std::uint32_t> collect_path_slots(CutHandle top,
                                              const LinkOf& link_of) {
  std::vector<std::uint32_t> slots;
  for (CutHandle c = top;;) {
    const ParentLink link = link_of(c);
    if (link.parent == c) break;
    slots.push_back(link.slot);
    c = link.parent;
  }
  std::reverse(slots.begin(), slots.end());
  return slots;
}

/// What one breadth-first lattice search found — the serial search_cuts and
/// the concurrent engine's replay both produce it.
struct CutSearchOutcome {
  bool found = false;              ///< a popped cut passed the goal test
  bool truncated = false;          ///< stopped at the max_cuts-th pop
  std::vector<StateIndex> cut;     ///< the goal cut when found
  std::int64_t cuts_explored = 0;  ///< cuts popped
  std::int64_t max_frontier = 0;   ///< peak frontier size
  /// When found and links were kept: advanced slots from the bottom cut to
  /// `cut` (collect_path_slots).
  std::vector<std::uint32_t> path;
  CutStorageStats storage;
};

/// The serial breadth-first search over the consistent cuts of `clocks`'
/// slots, from the bottom cut (all 1s: state 1 has no receives before it,
/// so it is always consistent). Pops cuts in FIFO order and stops at the
/// first popped cut passing `goal` or at the max_cuts-th pop (<0:
/// unbounded); a consistent successor enters the visited set iff `admit`
/// accepts it. `goal` and `admit` see the cut as a const
/// std::vector<StateIndex>&. kLinks keeps one ParentLink per visited cut so
/// the goal's BFS path can be returned.
///
/// Every visited cut lives exactly once in a CutArena, and cuts enter it in
/// exactly the order a FIFO queue would pop them, so the frontier is the
/// arena suffix [head, size) and needs no queue of its own.
template <bool kLinks, typename Goal, typename Admit>
CutSearchOutcome search_cuts(const SlotClockTable& clocks,
                             std::int64_t max_cuts, Goal&& goal,
                             Admit&& admit) {
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
  if constexpr (kLinks) links.push_back({0, kNoSlot});

  for (std::size_t head = 0; head < arena.size(); ++head) {
    out.max_frontier = std::max(
        out.max_frontier, static_cast<std::int64_t>(arena.size() - head));
    arena.copy_to(static_cast<CutHandle>(head), scratch);
    ++out.cuts_explored;
    if (goal(std::as_const(scratch))) {
      out.found = true;
      out.cut = scratch;
      if constexpr (kLinks)
        out.path = collect_path_slots(static_cast<CutHandle>(head),
                                      [&](CutHandle c) { return links[c]; });
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
          visited.intern(arena, scratch, hasher(scratch)).inserted) {
        if constexpr (kLinks)
          links.push_back(
              {static_cast<CutHandle>(head), static_cast<std::uint32_t>(s)});
      }
      scratch[s] -= 1;
    }
  }
  arena.add_stats(out.storage);
  visited.add_stats(out.storage);
  return out;
}

}  // namespace wcp::detect
