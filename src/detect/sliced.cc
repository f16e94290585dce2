#include "detect/sliced.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <utility>

#include "common/error.h"
#include "detect/core_host.h"
#include "slice/jil.h"
#include "slice/online_slicer.h"

namespace wcp::detect {

LatticeResult detect_lattice_sliced(const Computation& comp) {
  const slice::ComputationInput in(comp);
  slice::JilCounters ctr;
  std::vector<StateIndex> lo(in.num_slots(), 1);
  const auto bottom = slice::least_satisfying_cut(in, lo, &ctr);

  LatticeResult res;
  res.detected = bottom.has_value();
  if (bottom) res.cut = *bottom;
  // One candidate examined per eliminated state, plus the final cut; the
  // slice-side analogue of the baseline's cuts_explored.
  res.cuts_explored = ctr.advances + 1;
  res.max_frontier = 1;  // the fixpoint tracks a single candidate
  res.trace_store = comp.trace_store_stats();
  return res;
}

namespace {

constexpr StateIndex kNoEntry = std::numeric_limits<StateIndex>::max();

/// A maximal run of predicate-false states on one slot. `entry` is the
/// lowest state at which an avoiding observation can anchor here (kNoEntry
/// until the search reaches the interval).
struct FalseInterval {
  std::size_t slot;
  StateIndex lo = 0;
  StateIndex hi = 0;
  StateIndex entry = kNoEntry;
  int pred_iv = -1;       // predecessor interval in the handoff chain
  StateIndex pred_k = 0;  // anchor state of the predecessor at handoff
};

}  // namespace

// definitely(WCP) is false iff some observation (maximal chain of
// consistent cuts) avoids every satisfying cut. For a conjunctive
// predicate, a cut avoids the WCP iff some slot sits on a false state, so
// an avoiding observation is exactly a chain of *anchors*: it enters a
// false interval, holds that slot false while every other process runs
// freely, and before the anchor's false run ends it hands off to a
// concurrent false state on another slot (a boundary cut skirting the
// slice). Hence the search below: label each false interval with the
// lowest state an anchor chain can enter it at, propagate handoffs, and
// report "not definitely" iff a labeled interval reaches the end of its
// process (the observation then tops out with that slot still false).
//
// Handoff feasibility from (s, k) to (t, l) is plain concurrency — the
// two anchor states must be frontier states of one consistent cut — and
// picking the smallest admissible k maximizes the options, since the
// causal floors are monotone in k. Soundness and completeness against the
// brute-force baseline are exercised by tests/sliced_detect_test.cc.
DefinitelyResult detect_definitely_sliced(const Computation& comp,
                                          std::int64_t max_cuts) {
  const slice::ComputationInput in(comp);
  const std::size_t n = in.num_slots();
  DefinitelyResult res;

  // Every observation starts at the bottom cut; if it satisfies, done.
  bool bottom_sat = true;
  for (std::size_t s = 0; s < n && bottom_sat; ++s)
    if (!in.pred(s, 1)) bottom_sat = false;
  if (bottom_sat) {
    res.definitely = true;
    res.cuts_explored = 1;
    res.trace_store = comp.trace_store_stats();
    return res;
  }

  // Collect the false intervals.
  std::vector<FalseInterval> ivs;
  for (std::size_t s = 0; s < n; ++s) {
    const StateIndex last = in.num_states(s);
    for (StateIndex k = 1; k <= last; ++k) {
      if (in.pred(s, k)) continue;
      FalseInterval iv;
      iv.slot = s;
      iv.lo = k;
      while (k + 1 <= last && !in.pred(s, k + 1)) ++k;
      iv.hi = k;
      ivs.push_back(iv);
    }
  }

  // Seed: intervals containing the initial state anchor from the start.
  std::deque<int> work;
  const auto label = [&](int idx, StateIndex entry, int pred_iv,
                         StateIndex pred_k) {
    FalseInterval& iv = ivs[static_cast<std::size_t>(idx)];
    if (entry >= iv.entry) return;
    iv.entry = entry;
    iv.pred_iv = pred_iv;
    iv.pred_k = pred_k;
    work.push_back(idx);
  };
  for (std::size_t i = 0; i < ivs.size(); ++i)
    if (ivs[i].lo == 1) label(static_cast<int>(i), 1, -1, 0);

  int terminal = -1;
  while (!work.empty() && terminal < 0) {
    const int cur = work.front();
    work.pop_front();
    const FalseInterval iv = ivs[static_cast<std::size_t>(cur)];
    if (iv.hi == in.num_states(iv.slot)) {
      terminal = cur;
      break;
    }
    for (std::size_t j = 0; j < ivs.size(); ++j) {
      const FalseInterval& to = ivs[j];
      if (to.slot == iv.slot) continue;  // same-process states never concur
      // Minimal handoff state l in [to.lo, to.hi]: the anchor holds some
      // k in [entry, hi] with (iv.slot, k) || (to.slot, l). The smallest
      // admissible k is optimal because causal floors grow with k.
      for (StateIndex l = to.lo; l <= to.hi; ++l) {
        ++res.cuts_explored;
        if (max_cuts >= 0 && res.cuts_explored >= max_cuts) {
          res.truncated = true;
          res.trace_store = comp.trace_store_stats();
          return res;
        }
        const StateIndex k0 =
            std::max(iv.entry, in.causal_floor(to.slot, l, iv.slot) + 1);
        if (k0 > iv.hi) continue;
        if (in.causal_floor(iv.slot, k0, to.slot) < l) {
          label(static_cast<int>(j), l, cur, k0);
          break;
        }
      }
    }
  }

  if (terminal < 0) {
    // No anchor chain reaches the top of any process: every observation
    // eventually runs out of false states and hits a satisfying cut.
    res.definitely = true;
    res.trace_store = comp.trace_store_stats();
    return res;
  }

  res.definitely = false;
  // Witness: a consistent, non-satisfying cut the discovered avoiding
  // observation passes through — the first handoff's boundary cut, or the
  // bottom cut when a single interval spans its whole process.
  std::vector<int> chain;
  for (int i = terminal; i >= 0; i = ivs[static_cast<std::size_t>(i)].pred_iv)
    chain.push_back(i);
  std::reverse(chain.begin(), chain.end());
  if (chain.size() == 1) {
    res.witness.assign(n, 1);
  } else {
    const FalseInterval& second = ivs[static_cast<std::size_t>(chain[1])];
    const FalseInterval& first = ivs[static_cast<std::size_t>(chain[0])];
    std::vector<StateIndex> bounds(n, 1);
    bounds[first.slot] = second.pred_k;
    bounds[second.slot] = second.entry;
    const auto witness = slice::least_consistent_cut(in, bounds);
    WCP_CHECK_MSG(witness.has_value(),
                  "handoff pair must extend to a consistent cut");
    res.witness = *witness;
  }
  res.trace_store = comp.trace_store_stats();
  return res;
}

SliceOnlineResult run_slice_online(const Computation& comp,
                                   const RunOptions& opts,
                                   std::int64_t count_cap) {
  app::AppDriverOptions drv;
  drv.snapshot_all_states = true;
  const HostedRun run = run_core_host(comp, opts, drv, /*ends_on_eos=*/true,
                                      make_core<slice::SlicerCore>());
  const auto& core = run.host->core<slice::SlicerCore>();
  SliceOnlineResult r;
  r.detected = core.detected();
  r.cut = core.candidate();
  r.detect_time = run.host->detect_time();
  for (const auto& slot : run.host->states())
    r.states_received += static_cast<std::int64_t>(slot.size());
  r.jil_advances = core.jil_advances();
  r.clock_lookups = core.clock_lookups();

  // Slice of the received stream (the full computation on undetected or
  // late-detection runs), for the pruning counters.
  const slice::StreamInput si(run.host->stream());
  const auto sl = slice::Slice::build(si);
  r.slice_groups = sl.num_groups();
  r.slice_edges = sl.num_edges();
  const auto cc = sl.num_cuts(count_cap);
  r.slice_cuts = cc.count;
  r.slice_cuts_saturated = cc.saturated;

  r.app_metrics = run.net->app_metrics();
  r.monitor_metrics = run.net->monitor_metrics();
  return r;
}

std::vector<std::pair<std::string, MetricValue>> slice_report_metrics(
    const SliceOnlineResult& r) {
  return {
      {"detected", r.detected ? 1 : 0},
      {"states_received", r.states_received},
      {"jil_advances", r.jil_advances},
      {"clock_lookups", r.clock_lookups},
      {"slice_groups", r.slice_groups},
      {"slice_edges", r.slice_edges},
      {"slice_cuts", r.slice_cuts},
      {"slice_cuts_saturated", r.slice_cuts_saturated ? 1 : 0},
  };
}

}  // namespace wcp::detect
