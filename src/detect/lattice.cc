#include "detect/lattice.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/cut_hash.h"
#include "common/cut_storage.h"
#include "common/error.h"
#include "common/lockfree_table.h"
#include "common/thread_pool.h"
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

using Clock = std::chrono::steady_clock;

/// Host wall clock for the results' explore_ms / replay_ms fields.
double elapsed_ms(Clock::time_point from, Clock::time_point to = Clock::now()) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ---- lock-free concurrent exploration (ALGORITHMS.md §15) ------------------
//
// The concurrent detectors split the work into two passes:
//
//   Concurrent phase — lanes pop cut handles from a work-stealing frontier
//   (common::WorkFrontier) in arbitrary order and expand them: each
//   consistent successor is interned exactly once into a shared
//   SegmentedCutStore through the LockFreeCutTable (stage → CAS →
//   publish), its hash derived in O(1) from the parent's via
//   ZobristCutHash::advance, and the resulting globally-canonical handle
//   recorded in the parent's slot-indexed successor array. Newly inserted
//   cuts are pushed back to the frontier. The output is the *successor
//   graph* of the explored lattice region — a pure function of the trace,
//   independent of exploration order.
//
//   Replay phase (serial, deterministic) — a plain FIFO BFS over the
//   recorded successor arrays, walking handles exactly as the serial
//   detector walks cuts: pops in insertion order, successors scanned in
//   slot order, first-encounter parent links. Every counter the serial
//   loop maintains (cuts_explored, max_frontier, truncation position,
//   witness path) is recomputed here over identical structure, which makes
//   the result — verdict, counters, witness, JSON report — byte-identical
//   to the serial engine at any thread count. The differential sweep in
//   tests/flat_storage_equiv_test.cc enforces this.
//
// Early-stop soundness. The serial BFS stops at the first satisfying pop
// or at the max_cuts-th pop; a barrier-free exploration has no "first pop"
// and would otherwise run the whole lattice. Two monotonically decreasing
// level caps bound the expansion, and a cut is expanded only while its
// level is <= both:
//
//   sat_cap (possibly mode): the minimum level of any satisfying cut
//   interned so far. BFS pops are level-nondecreasing, so the serial loop
//   never expands a cut deeper than the first satisfying level L_min; and
//   since no satisfying cut exists below L_min, sat_cap >= L_min at every
//   moment — the cap can only prune work the serial loop never does.
//
//   trunc_cap (max_cuts >= 0): per-level atomic intern counters feed a
//   periodic prefix-sum scan; when the counted prefix through level l
//   reaches max_cuts, the cap drops to l. Counts only ever under-estimate
//   the full per-level lattice population, and the serial loop expands a
//   level-L cut only if the full population of levels < L is under
//   max_cuts (it pops whole levels in order), so again trunc_cap >= every
//   level the serial loop expands.
//
// Together: every cut the serial loop expands is expanded here (the replay
// asserts it), and the replay — which stops exactly where the serial loop
// stops — never reads an unexpanded successor array.

/// Atomic running-minimum, relaxed: the caps only gate work pruning, never
/// data visibility (handles travel through the frontier's mutexes).
void fetch_min(std::atomic<std::uint32_t>& a, std::uint32_t v) {
  std::uint32_t cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

class ConcurrentEngine {
 public:
  ConcurrentEngine(SlotClockTable clocks, std::int64_t max_cuts,
                   std::size_t lanes, bool definitely_mode)
      : n_(clocks.width()),
        max_cuts_(max_cuts),
        definitely_mode_(definitely_mode),
        clocks_(std::move(clocks)),
        store_(n_, lanes),
        table_(lanes),
        frontier_(lanes),
        scratch_(lanes, std::vector<std::uint32_t>(n_)),
        batch_(lanes),
        ops_(lanes) {
    // false_count is a uint8: enough for any real predicate width, checked
    // so the concurrent path is never silently wrong (the dispatcher falls
    // back to the serial engine instead of constructing this).
    WCP_REQUIRE(n_ >= 1 && n_ <= 255,
                "concurrent engine requires 1..255 predicate slots");
    std::uint64_t total_states = 0;
    for (std::size_t s = 0; s < n_; ++s)
      total_states += static_cast<std::uint64_t>(clocks_.num_states(s));
    level_max_ = total_states - n_;
    WCP_REQUIRE(level_max_ < kNoCut, "lattice deeper than 2^32 levels");
    if (max_cuts_ >= 0) {
      level_counts_ =
          std::vector<std::atomic<std::uint32_t>>(level_max_ + 1);
      // A cut at level L is the serial loop's (full prefix of levels < L)
      // + 1-th pop at the earliest, so nothing past level max_cuts - 1 is
      // ever expanded — the starting cap before any counting happens.
      trunc_cap_.store(
          max_cuts_ == 0
              ? 0
              : static_cast<std::uint32_t>(std::min<std::int64_t>(
                    max_cuts_ - 1, static_cast<std::int64_t>(level_max_))),
          std::memory_order_relaxed);
    }
  }

  /// Concurrent phase: explore until the frontier drains. The bottom cut
  /// must not satisfy the predicate in definitely mode (callers handle
  /// that case before building the engine).
  void run(common::ThreadPool& pool) {
    auto& bottom = scratch_[0];
    std::fill(bottom.begin(), bottom.end(), 1u);
    std::uint8_t fc = 0;
    for (std::size_t s = 0; s < n_; ++s)
      if (!clocks_.pred(s, 1)) ++fc;
    WCP_CHECK_MSG(!definitely_mode_ || fc > 0,
                  "definitely engine started on a satisfying bottom cut");
    const ZobristCutHash zob;
    const auto r = table_.intern(0, store_, bottom, zob(bottom), 0, fc);
    WCP_CHECK_MSG(r.outcome == LockFreeCutTable::Outcome::kInserted,
                  "bottom cut intern failed");
    bottom_ = r.handle;
    if (!level_counts_.empty())
      level_counts_[0].store(1, std::memory_order_relaxed);
    if (fc == 0) {
      // possibly mode, satisfied at the bottom: the serial loop breaks on
      // its first pop — nothing is ever expanded.
      fetch_min(sat_cap_, 0);
      return;
    }
    frontier_.seed(bottom_);
    pool.parallel_for(
        frontier_.lanes(),
        [&](std::size_t b, std::size_t e) {
          for (std::size_t lane = b; lane < e; ++lane)
            frontier_.run_lane(
                lane, [this, lane](std::uint32_t h) { expand(lane, h); });
        },
        /*grain=*/1);
  }

  /// Replay phase: the serial BFS over the recorded successor graph. The
  /// goal is the engine's mode — the first satisfying cut (possibly) or the
  /// top cut (definitely).
  CutSearchOutcome replay() const;

 private:
  [[nodiscard]] std::uint32_t cap() const {
    return std::min(sat_cap_.load(std::memory_order_relaxed),
                    trunc_cap_.load(std::memory_order_relaxed));
  }

  void expand(std::size_t lane, CutHandle h);
  void tighten_trunc_cap();

  struct ReplayMaps;

  std::size_t n_;
  std::int64_t max_cuts_;
  bool definitely_mode_;
  SlotClockTable clocks_;
  std::uint64_t level_max_ = 0;
  CutHandle bottom_ = kNoCut;

  SegmentedCutStore store_;
  LockFreeCutTable table_;
  common::WorkFrontier frontier_;

  std::vector<std::vector<std::uint32_t>> scratch_;  // per-lane cut buffer
  std::vector<std::vector<std::uint32_t>> batch_;    // per-lane push batch
  struct alignas(64) OpCounter {
    std::uint64_t v = 0;
  };
  std::vector<OpCounter> ops_;  // per-lane expansions, for cap tightening

  std::atomic<std::uint32_t> sat_cap_{0xFFFFFFFFu};
  std::atomic<std::uint32_t> trunc_cap_{0xFFFFFFFFu};
  std::vector<std::atomic<std::uint32_t>> level_counts_;
  std::mutex tighten_mu_;
};

void ConcurrentEngine::expand(std::size_t lane, CutHandle h) {
  const std::uint32_t lvl = store_.level(h);
  // Pruned, not expanded: the caps only ever drop below a level the serial
  // loop never expands, so the replay cannot reach this cut's successors.
  if (lvl > cap()) return;

  const auto cut = store_.cut(h);
  auto& buf = scratch_[lane];
  std::copy(cut.begin(), cut.end(), buf.begin());
  const std::uint64_t parent_hash = store_.hash(h);
  const std::uint8_t parent_fc = store_.false_count(h);
  const auto succ = store_.succ(h);
  auto& out = batch_[lane];
  out.clear();

  for (std::size_t s = 0; s < n_; ++s) {
    succ[s] = kNoCut;
    const auto ks = static_cast<StateIndex>(buf[s]) + 1;
    // One slot-clock row read decides consistency (slot_clocks.h).
    if (ks > clocks_.num_states(s) || !clocks_.advance_consistent(buf, s))
      continue;
    // Successor predicate state in O(1): only slot s changed.
    const auto fc = static_cast<std::uint8_t>(
        parent_fc - (clocks_.pred(s, ks - 1) ? 0 : 1) +
        (clocks_.pred(s, ks) ? 0 : 1));
    // definitely mode explores only predicate-avoiding cuts: satisfying
    // successors are filtered before interning, exactly like the serial
    // loop's `continue` — they must not enter the visited set at all.
    if (definitely_mode_ && fc == 0) continue;
    const std::uint64_t hash =
        ZobristCutHash::advance(parent_hash, s, buf[s], buf[s] + 1);
    buf[s] += 1;
    LockFreeCutTable::Result r;
    for (;;) {
      r = table_.intern(lane, store_, buf, hash, lvl + 1, fc);
      if (r.outcome != LockFreeCutTable::Outcome::kTableFull) break;
      frontier_.quiesce([this] { table_.grow(store_); });
    }
    buf[s] -= 1;
    succ[s] = r.handle;
    if (r.outcome == LockFreeCutTable::Outcome::kInserted) {
      if (!level_counts_.empty())
        level_counts_[lvl + 1].fetch_add(1, std::memory_order_relaxed);
      if (!definitely_mode_ && fc == 0)
        // Satisfying cuts are terminal (the serial loop breaks at its
        // first satisfying pop, never expanding one) — don't push, but do
        // drop the satisfaction cap to their level.
        fetch_min(sat_cap_, lvl + 1);
      else
        out.push_back(r.handle);
    }
  }
  store_.mark_expanded(h);
  if (!out.empty()) frontier_.push_batch(lane, out);
  if (!level_counts_.empty() && (++ops_[lane].v & 1023) == 0)
    tighten_trunc_cap();
}

void ConcurrentEngine::tighten_trunc_cap() {
  // Opportunistic: one lane scans at a time, the rest skip — the cap is an
  // optimization, not a correctness gate (the starting max_cuts - 1 bound
  // is already sound).
  if (!tighten_mu_.try_lock()) return;
  const std::lock_guard lk(tighten_mu_, std::adopt_lock);
  const auto limit = static_cast<std::uint64_t>(max_cuts_);
  const std::uint32_t cur = trunc_cap_.load(std::memory_order_relaxed);
  std::uint64_t prefix = 0;
  for (std::size_t l = 0; l < level_counts_.size() &&
                          l <= static_cast<std::size_t>(cur);
       ++l) {
    prefix += level_counts_[l].load(std::memory_order_relaxed);
    if (prefix >= limit) {
      // The counted prefix through level l already reaches max_cuts, and
      // counts never exceed the true lattice population, so the serial
      // loop truncates before expanding anything past level l.
      fetch_min(trunc_cap_, static_cast<std::uint32_t>(l));
      return;
    }
  }
}

/// Parent links of the replay BFS, indexed by the (lane, local)
/// decomposition of the store's handles. parent == kNoCut marks a cut the
/// replay has not reached yet (the bottom cut is its own parent).
struct ConcurrentEngine::ReplayMaps {
  explicit ReplayMaps(const SegmentedCutStore& store) : links(store.lanes()) {
    for (std::size_t lane = 0; lane < store.lanes(); ++lane)
      links[lane].assign(store.lane_count(lane), {kNoCut, kNoSlot});
  }
  [[nodiscard]] ParentLink& link(CutHandle h) {
    return links[h >> SegmentedCutStore::kLocalBits]
                [h & SegmentedCutStore::kLocalMask];
  }
  /// Records h's parent link on its first visit; false if already seen.
  [[nodiscard]] bool visit(CutHandle h, CutHandle from, std::uint32_t slot) {
    ParentLink& l = link(h);
    if (l.parent != kNoCut) return false;
    l = {from, slot};
    return true;
  }
  std::vector<std::vector<ParentLink>> links;
};

CutSearchOutcome ConcurrentEngine::replay() const {
  CutSearchOutcome out;
  ReplayMaps maps(store_);
  std::vector<CutHandle> queue;
  queue.reserve(store_.total_cuts());
  (void)maps.visit(bottom_, bottom_, kNoSlot);
  queue.push_back(bottom_);

  for (std::size_t head = 0; head < queue.size(); ++head) {
    // queue mirrors the serial arena: pops in insertion order, so the
    // frontier is the suffix [head, size).
    out.max_frontier = std::max(
        out.max_frontier, static_cast<std::int64_t>(queue.size() - head));
    const CutHandle h = queue[head];
    ++out.cuts_explored;
    // The top cut is the unique cut at the maximal level.
    if (definitely_mode_ ? store_.level(h) == level_max_
                         : store_.satisfying(h)) {
      out.found = true;
      out.cut = store_.materialize(h);
      out.path =
          collect_path_slots(h, [&](CutHandle c) { return maps.link(c); });
      break;
    }
    if (max_cuts_ >= 0 && out.cuts_explored >= max_cuts_) {
      out.truncated = true;
      break;
    }
    WCP_CHECK_MSG(store_.expanded(h),
                  "concurrent phase pruned a cut the serial order expands");
    const auto succ = store_.succ(h);
    for (std::size_t s = 0; s < n_; ++s)
      if (succ[s] != kNoCut &&
          maps.visit(succ[s], h, static_cast<std::uint32_t>(s)))
        queue.push_back(succ[s]);
  }
  store_.add_stats(out.storage);
  table_.add_stats(out.storage);
  return out;
}

/// One lattice search and the wall clock of its phases.
struct TimedSearch {
  CutSearchOutcome out;
  double explore_ms = 0.0;
  double replay_ms = 0.0;
};

/// Copies the fields LatticeResult and DefinitelyResult share.
template <typename Result>
void fill_shared(Result& res, TimedSearch& run, const Computation& comp) {
  res.truncated = run.out.truncated;
  res.cuts_explored = run.out.cuts_explored;
  res.witness_path = std::move(run.out.path);
  res.storage = run.out.storage;
  res.trace_store = comp.trace_store_stats();
  res.explore_ms = run.explore_ms;
  res.replay_ms = run.replay_ms;
}

/// The one search behind detect_lattice and detect_definitely.
///
/// possibly(WCP): the first satisfying cut in BFS order.
/// definitely(WCP): an observation that AVOIDS the predicate — BFS through
/// non-satisfying consistent cuts only; if the top cut is reachable, some
/// observation misses the predicate (found = not definitely). If every
/// avoiding path gets stuck before the top, all observations hit it.
TimedSearch search_lattice(const Computation& comp, std::int64_t max_cuts,
                           std::size_t threads, bool definitely) {
  const auto procs = comp.predicate_processes();
  WCP_REQUIRE(!procs.empty(), "empty predicate");
  // Materialize the trace store up front: the parallel path must not race
  // on the lazy build, and doing it here for the serial path too keeps the
  // reported trace-store stats identical across thread counts.
  (void)comp.trace_store();
  const auto t0 = Clock::now();
  SlotClockTable clocks(comp, procs);
  const std::size_t n = clocks.width();
  TimedSearch run;
  if (definitely && clocks.satisfies(Cut(n, 1))) {
    // Every observation starts at the bottom cut.
    run.out.cuts_explored = 1;
    return run;
  }

  // The concurrent engine packs the predicate-false count into a byte;
  // wider predicates (absurd in practice) take the serial path, which is
  // result-identical anyway.
  if (threads <= 1 || n > 255) {
    Cut top(n);
    for (std::size_t s = 0; s < n; ++s) top[s] = clocks.num_states(s);
    const auto satisfies = [&](const Cut& c) { return clocks.satisfies(c); };
    run.out = definitely
                  ? search_cuts<true>(
                        clocks, max_cuts, [&](const Cut& c) { return c == top; },
                        [&](const Cut& c) { return !satisfies(c); })
                  : search_cuts<true>(clocks, max_cuts, satisfies,
                                      [](const Cut&) { return true; });
    run.explore_ms = elapsed_ms(t0);
    return run;
  }

  common::ThreadPool pool(threads);
  ConcurrentEngine engine(
      std::move(clocks), max_cuts,
      std::min(pool.num_threads(), SegmentedCutStore::kMaxLanes), definitely);
  const auto t1 = Clock::now();
  engine.run(pool);
  const auto t2 = Clock::now();
  run.out = engine.replay();
  run.explore_ms = elapsed_ms(t1, t2);
  run.replay_ms = elapsed_ms(t2);
  return run;
}

}  // namespace

LatticeResult detect_lattice(const Computation& comp, std::int64_t max_cuts,
                             std::size_t threads) {
  TimedSearch run = search_lattice(comp, max_cuts, threads, false);
  LatticeResult res;
  res.detected = run.out.found;
  res.cut = std::move(run.out.cut);
  res.max_frontier = run.out.max_frontier;
  fill_shared(res, run, comp);
  return res;
}

DefinitelyResult detect_definitely(const Computation& comp,
                                   std::int64_t max_cuts,
                                   std::size_t threads) {
  TimedSearch run = search_lattice(comp, max_cuts, threads, true);
  DefinitelyResult res;
  // Reaching the top cut means an observation avoided the predicate.
  res.definitely = !run.out.found;
  if (run.out.found)
    res.witness = witness_from_path(comp, comp.predicate_processes().size(),
                                    run.out.path);
  fill_shared(res, run, comp);
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
