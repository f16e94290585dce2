#include "detect/lattice.h"

#include <utility>
#include <vector>

#include "common/error.h"
#include "detect/slot_clocks.h"

namespace wcp::detect {

namespace {

using Cut = std::vector<StateIndex>;

/// When definitely == false, the witness is the first cut on the avoiding
/// path that diverges past the pointwise-minimal satisfying cut (the bottom
/// cut when the predicate never holds). Each path step advances exactly one
/// slot of a previously dominated cut, so only that slot can break the
/// domination — the full cuts never need to be compared.
Cut witness_from_path(const Computation& comp, std::size_t n,
                      std::span<const std::uint32_t> slots) {
  if (const auto min_sat = comp.first_wcp_cut()) {
    Cut cur(n, 1);
    for (const std::uint32_t s : slots) {
      cur[s] += 1;
      if (cur[s] > (*min_sat)[s]) return cur;
    }
  }
  return Cut(n, 1);
}

/// The slot-clock table over the predicate processes. Materializes the
/// trace store first, so its stats are reported the same way however the
/// search runs.
SlotClockTable predicate_clocks(const Computation& comp) {
  const auto procs = comp.predicate_processes();
  WCP_REQUIRE(!procs.empty(), "empty predicate");
  (void)comp.trace_store();
  return SlotClockTable(comp, procs);
}

/// Copies the fields LatticeResult and DefinitelyResult share.
template <typename Result>
void fill_shared(Result& res, CutSearchOutcome& out, const Computation& comp) {
  res.truncated = out.truncated;
  res.cuts_explored = out.cuts_explored;
  res.witness_path = std::move(out.path);
  res.storage = out.storage;
  res.trace_store = comp.trace_store_stats();
}

}  // namespace

LatticeResult detect_lattice(const Computation& comp, std::int64_t max_cuts,
                             std::size_t threads) {
  const SlotClockTable clocks = predicate_clocks(comp);
  CutSearchOutcome out = search_levels(
      clocks, max_cuts, threads,
      [&](std::span<const std::uint32_t> c) { return clocks.satisfies(c); });
  LatticeResult res;
  res.detected = out.found;
  res.cut = std::move(out.cut);
  res.max_frontier = out.max_frontier;
  fill_shared(res, out, comp);
  return res;
}

/// definitely(WCP) looks for an observation that AVOIDS the predicate: a BFS
/// through non-satisfying consistent cuts only. If the top cut is
/// reachable, some observation misses the predicate (found = not
/// definitely); if every avoiding path gets stuck before the top, all
/// observations hit it.
DefinitelyResult detect_definitely(const Computation& comp,
                                   std::int64_t max_cuts) {
  const SlotClockTable clocks = predicate_clocks(comp);
  const std::size_t n = clocks.width();
  DefinitelyResult res;
  CutSearchOutcome out;
  if (clocks.satisfies(Cut(n, 1))) {
    // Every observation starts at the bottom cut.
    out.cuts_explored = 1;
  } else {
    Cut top(n);
    for (std::size_t s = 0; s < n; ++s) top[s] = clocks.num_states(s);
    out = search_cuts(
        clocks, max_cuts, [&](const Cut& c) { return c == top; },
        [&](const Cut& c) { return !clocks.satisfies(c); });
  }
  // Reaching the top cut means an observation avoided the predicate.
  res.definitely = !out.found;
  if (out.found) res.witness = witness_from_path(comp, n, out.path);
  fill_shared(res, out, comp);
  return res;
}

std::vector<std::vector<StateIndex>> materialize_witness_path(
    std::size_t n, std::span<const std::uint32_t> path) {
  std::vector<std::vector<StateIndex>> cuts;
  cuts.reserve(path.size() + 1);
  cuts.emplace_back(n, 1);
  for (const std::uint32_t s : path) {
    WCP_REQUIRE(s < n, "witness path slot " << s << " out of range for width "
                                            << n);
    std::vector<StateIndex> nxt = cuts.back();
    nxt[s] += 1;
    cuts.push_back(std::move(nxt));
  }
  return cuts;
}

}  // namespace wcp::detect
