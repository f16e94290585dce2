#include "slice/jil.h"

#include <algorithm>

#include "common/error.h"

namespace wcp::slice {

namespace {

std::optional<std::vector<StateIndex>> advance_fixpoint(
    const app::StateStream& in, std::span<const StateIndex> lower_bounds,
    bool require_pred, JilCounters* counters) {
  const std::size_t n = in.slots();
  WCP_REQUIRE(lower_bounds.size() == n, "lower-bound width mismatch");
  JilCounters local;
  JilCounters& ctr = counters ? *counters : local;
  ++ctr.calls;

  // Advance C[s] to the first admissible state >= lo; false on overrun.
  // `advances` counts the states eliminated, the slice-side analogue of the
  // lattice baseline's cuts_explored.
  std::vector<StateIndex> cut(n);
  auto advance_to = [&](std::size_t s, StateIndex lo) {
    const StateIndex from = std::max<StateIndex>(cut[s], 1);
    StateIndex k = std::max(from, lo);
    const StateIndex last = in.last(s);
    while (k <= last && require_pred && !in.pred(s, k)) ++k;
    if (k > last) {
      ctr.advances += last - from + 1;
      return false;
    }
    ctr.advances += k - from;
    cut[s] = k;
    return true;
  };

  for (std::size_t s = 0; s < n; ++s) {
    cut[s] = 0;
    if (!advance_to(s, lower_bounds[s])) return std::nullopt;
  }

  // Pairwise consistency fixpoint: (s, C[s]) -> (t, C[t]) forces C[s] past
  // everything (t, C[t]) has seen of s. Each pass either stabilizes or
  // advances some component, and components only move up, so the loop
  // terminates after at most sum(num_states) advances.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t t = 0; t < n && !changed; ++t) {
      for (std::size_t s = 0; s < n && !changed; ++s) {
        if (s == t) continue;
        ++ctr.clock_lookups;
        const StateIndex floor = in.clock(t, cut[t], s);
        if (cut[s] <= floor) {
          if (!advance_to(s, floor + 1)) return std::nullopt;
          changed = true;
        }
      }
    }
  }
  return cut;
}

}  // namespace

std::optional<std::vector<StateIndex>> least_satisfying_cut(
    const app::StateStream& in, std::span<const StateIndex> lower_bounds,
    JilCounters* counters) {
  return advance_fixpoint(in, lower_bounds, /*require_pred=*/true, counters);
}

std::optional<std::vector<StateIndex>> jil(const app::StateStream& in,
                                           std::size_t slot, StateIndex k,
                                           JilCounters* counters) {
  std::vector<StateIndex> lo(in.slots(), 1);
  lo.at(slot) = k;
  return least_satisfying_cut(in, lo, counters);
}

std::optional<std::vector<StateIndex>> least_consistent_cut(
    const app::StateStream& in, std::span<const StateIndex> lower_bounds,
    JilCounters* counters) {
  return advance_fixpoint(in, lower_bounds, /*require_pred=*/false, counters);
}

std::vector<std::optional<std::vector<StateIndex>>> jil_column(
    const app::StateStream& in, std::size_t slot,
    const std::vector<StateIndex>& bottom, JilCounters* counters) {
  const auto m = static_cast<std::size_t>(in.last(slot));
  std::vector<std::optional<std::vector<StateIndex>>> column(m);
  // J_slot is pointwise monotone in k, so each fixpoint resumes from the
  // previous J; once a fixpoint fails, every later state fails too.
  std::vector<StateIndex> prev = bottom;  // J_slot(1) == bottom
  std::vector<StateIndex> lo;             // reused across k
  for (StateIndex k = 1; k <= static_cast<StateIndex>(m); ++k) {
    lo = prev;
    lo[slot] = std::max(lo[slot], k);
    auto j = least_satisfying_cut(in, lo, counters);
    if (!j) break;  // no satisfying cut includes (slot, k) or beyond
    prev = *j;
    column[static_cast<std::size_t>(k - 1)] = std::move(j);
  }
  return column;
}

}  // namespace wcp::slice
