// Slot-clock table — the successor kernel shared by every lattice search
// (lattice.cc's serial and concurrent engines, the GCP lattice baseline,
// the relational possibly(phi) search).
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

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

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

}  // namespace wcp::detect
