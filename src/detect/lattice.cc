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

// ---- flat cut storage -------------------------------------------------------
//
// Every visited cut lives exactly once in a CutArena (packed 32-bit
// components, dense handles); the visited set / parent map are a CutTable
// plus a handle-indexed parent vector. One consequence the serial code
// below leans on: serial BFS needs no frontier queue at all — cuts enter
// the arena in exactly the order the queue would pop them, so the frontier
// is the arena suffix [head, size) and its size is size() - head.

/// BFS parent offset of one interned cut: the reference of its predecessor
/// (the bottom cut references itself) plus which slot the advance took.
/// Witness paths are rebuilt from these 12-byte links on demand — the full
/// predecessor cuts are never retained (ltsmin-style trace reconstruction).
template <typename Ref>
struct ParentLink {
  Ref parent;
  std::uint32_t slot;
};

inline constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

/// Walks the parent offsets from `top` back to the bottom cut and returns
/// the advanced slot of every step, bottom first.
template <typename Ref, typename LinkOf>
std::vector<std::uint32_t> collect_path_slots(Ref top, const LinkOf& link_of) {
  std::vector<std::uint32_t> slots;
  for (Ref c = top;;) {
    const auto link = link_of(c);
    if (link.parent == c) break;
    slots.push_back(link.slot);
    c = link.parent;
  }
  std::reverse(slots.begin(), slots.end());
  return slots;
}

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
  ConcurrentEngine(const Computation& comp, std::int64_t max_cuts,
                   std::size_t lanes, bool definitely_mode)
      : comp_(comp),
        procs_(comp.predicate_processes()),
        n_(procs_.size()),
        max_cuts_(max_cuts),
        definitely_mode_(definitely_mode),
        clocks_(comp, procs_),
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

  LatticeResult replay_lattice() const;
  DefinitelyResult replay_definitely() const;

 private:
  [[nodiscard]] std::uint32_t cap() const {
    return std::min(sat_cap_.load(std::memory_order_relaxed),
                    trunc_cap_.load(std::memory_order_relaxed));
  }

  void expand(std::size_t lane, CutHandle h);
  void tighten_trunc_cap();

  struct ReplayMaps;

  const Computation& comp_;
  std::span<const ProcessId> procs_;
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

LatticeResult detect_lattice_serial(const Computation& comp,
                                    std::int64_t max_cuts) {
  const auto t0 = Clock::now();
  const SlotClockTable clocks(comp, comp.predicate_processes());
  const std::size_t n = clocks.width();

  LatticeResult res;

  CutArena arena(n);
  CutTable visited;
  const CutHash hasher;
  // links[h] = parent offset of the cut with handle h, enough to rebuild
  // the BFS path to any visited cut without storing predecessor cuts.
  std::vector<ParentLink<CutHandle>> links;

  // The initial cut (all 1s) is always consistent: state 1 has no receives
  // before it, so nothing happened before it on another process. From here
  // on, `scratch` is the only live std::vector — every visited cut is
  // interned into the arena, and the BFS frontier is the arena suffix of
  // not-yet-explored handles.
  Cut scratch(n, 1);
  visited.intern(arena, scratch, hasher(scratch));
  links.push_back({0, kNoSlot});

  for (std::size_t head = 0; head < arena.size(); ++head) {
    res.max_frontier = std::max(
        res.max_frontier, static_cast<std::int64_t>(arena.size() - head));
    arena.copy_to(static_cast<CutHandle>(head), scratch);
    ++res.cuts_explored;

    if (clocks.satisfies(scratch)) {
      res.detected = true;
      res.cut = scratch;
      res.witness_path = collect_path_slots(
          static_cast<CutHandle>(head),
          [&](CutHandle c) { return links[c]; });
      break;
    }
    if (max_cuts >= 0 && res.cuts_explored >= max_cuts) {
      res.truncated = true;
      break;
    }

    // Successors: advance one component; one slot-clock row read decides
    // consistency (slot_clocks.h). The advance is done in place on
    // `scratch` and undone after the intern — no temporary cut.
    for (std::size_t s = 0; s < n; ++s) {
      if (scratch[s] + 1 > clocks.num_states(s) ||
          !clocks.advance_consistent(scratch, s))
        continue;
      scratch[s] += 1;
      if (visited.intern(arena, scratch, hasher(scratch)).inserted)
        links.push_back(
            {static_cast<CutHandle>(head), static_cast<std::uint32_t>(s)});
      scratch[s] -= 1;
    }
  }
  arena.add_stats(res.storage);
  visited.add_stats(res.storage);
  res.explore_ms = elapsed_ms(t0);
  return res;
}

/// Per-lane seen flags and parent links for the replay BFS, indexed by the
/// (lane, local) decomposition of the store's handles.
struct ConcurrentEngine::ReplayMaps {
  explicit ReplayMaps(const SegmentedCutStore& store)
      : seen(store.lanes()), parent(store.lanes()) {
    for (std::size_t lane = 0; lane < store.lanes(); ++lane) {
      seen[lane].assign(store.lane_count(lane), 0);
      parent[lane].assign(store.lane_count(lane), {kNoCut, kNoSlot});
    }
  }
  [[nodiscard]] bool visit(CutHandle h, CutHandle from, std::uint32_t slot) {
    auto& flag = seen[h >> SegmentedCutStore::kLocalBits]
                     [h & SegmentedCutStore::kLocalMask];
    if (flag) return false;
    flag = 1;
    parent[h >> SegmentedCutStore::kLocalBits]
          [h & SegmentedCutStore::kLocalMask] = {from, slot};
    return true;
  }
  [[nodiscard]] ParentLink<CutHandle> link(CutHandle h) const {
    return parent[h >> SegmentedCutStore::kLocalBits]
                 [h & SegmentedCutStore::kLocalMask];
  }
  std::vector<std::vector<std::uint8_t>> seen;
  std::vector<std::vector<ParentLink<CutHandle>>> parent;
};

LatticeResult ConcurrentEngine::replay_lattice() const {
  LatticeResult res;
  ReplayMaps maps(store_);
  std::vector<CutHandle> queue;
  queue.reserve(store_.total_cuts());
  (void)maps.visit(bottom_, bottom_, kNoSlot);
  queue.push_back(bottom_);

  for (std::size_t head = 0; head < queue.size(); ++head) {
    // queue mirrors the serial arena: pops in insertion order, so the
    // frontier is the suffix [head, size).
    res.max_frontier = std::max(
        res.max_frontier, static_cast<std::int64_t>(queue.size() - head));
    const CutHandle h = queue[head];
    ++res.cuts_explored;
    if (store_.satisfying(h)) {
      res.detected = true;
      res.cut = store_.materialize(h);
      res.witness_path = collect_path_slots(
          h, [&](CutHandle c) { return maps.link(c); });
      break;
    }
    if (max_cuts_ >= 0 && res.cuts_explored >= max_cuts_) {
      res.truncated = true;
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
  store_.add_stats(res.storage);
  table_.add_stats(res.storage);
  return res;
}

DefinitelyResult ConcurrentEngine::replay_definitely() const {
  DefinitelyResult res;
  res.definitely = true;  // until the top cut proves reachable
  ReplayMaps maps(store_);
  std::vector<CutHandle> queue;
  queue.reserve(store_.total_cuts());
  (void)maps.visit(bottom_, bottom_, kNoSlot);
  queue.push_back(bottom_);

  for (std::size_t head = 0; head < queue.size(); ++head) {
    const CutHandle h = queue[head];
    ++res.cuts_explored;
    // The top cut is the unique cut at the maximal level.
    if (store_.level(h) == level_max_) {
      res.definitely = false;  // an observation avoided the predicate
      res.witness_path = collect_path_slots(
          h, [&](CutHandle c) { return maps.link(c); });
      res.witness = witness_from_path(comp_, n_, res.witness_path);
      break;
    }
    if (max_cuts_ >= 0 && res.cuts_explored >= max_cuts_) {
      res.truncated = true;
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
  store_.add_stats(res.storage);
  table_.add_stats(res.storage);
  return res;
}

LatticeResult detect_lattice_concurrent(const Computation& comp,
                                        std::int64_t max_cuts,
                                        std::size_t threads) {
  common::ThreadPool pool(threads);
  ConcurrentEngine engine(
      comp, max_cuts,
      std::min(pool.num_threads(), SegmentedCutStore::kMaxLanes),
      /*definitely_mode=*/false);
  const auto t0 = Clock::now();
  engine.run(pool);
  const auto t1 = Clock::now();
  LatticeResult res = engine.replay_lattice();
  res.explore_ms = elapsed_ms(t0, t1);
  res.replay_ms = elapsed_ms(t1);
  return res;
}

DefinitelyResult detect_definitely_serial(const Computation& comp,
                                          std::int64_t max_cuts) {
  const auto t0 = Clock::now();
  const SlotClockTable clocks(comp, comp.predicate_processes());
  const std::size_t n = clocks.width();

  DefinitelyResult res;

  Cut top(n);
  for (std::size_t s = 0; s < n; ++s) top[s] = clocks.num_states(s);

  // Search for an observation that AVOIDS the predicate: BFS through
  // non-satisfying consistent cuts. If the top cut is reachable (or is
  // itself non-satisfying while reachable), some observation misses the
  // predicate => not definitely.
  Cut scratch(n, 1);
  if (clocks.satisfies(scratch)) {
    // Every observation starts at the bottom cut.
    res.definitely = true;
    res.cuts_explored = 1;
    return res;
  }

  CutArena arena(n);
  CutTable visited;
  const CutHash hasher;
  // links[h] = BFS parent offset of the cut with handle h (the bottom cut
  // maps to itself) so the avoiding observation can be reconstructed for
  // the witness. Handles are dense insertion indices, so a plain vector
  // replaces the old cut-keyed parent map.
  std::vector<ParentLink<CutHandle>> links;
  visited.intern(arena, scratch, hasher(scratch));
  links.push_back({0, kNoSlot});

  res.definitely = true;  // until the top cut proves reachable
  for (std::size_t head = 0; head < arena.size(); ++head) {
    arena.copy_to(static_cast<CutHandle>(head), scratch);
    ++res.cuts_explored;
    if (scratch == top) {
      res.definitely = false;  // an observation avoided the predicate
      res.witness_path = collect_path_slots(
          static_cast<CutHandle>(head),
          [&](CutHandle c) { return links[c]; });
      res.witness = witness_from_path(comp, n, res.witness_path);
      break;
    }
    if (max_cuts >= 0 && res.cuts_explored >= max_cuts) {
      res.truncated = true;
      break;
    }

    for (std::size_t s = 0; s < n; ++s) {
      if (scratch[s] + 1 > clocks.num_states(s) ||
          !clocks.advance_consistent(scratch, s))
        continue;
      scratch[s] += 1;
      if (!clocks.satisfies(scratch) &&  // blocked by the WCP
          visited.intern(arena, scratch, hasher(scratch)).inserted)
        links.push_back(
            {static_cast<CutHandle>(head), static_cast<std::uint32_t>(s)});
      scratch[s] -= 1;
    }
  }
  // Fell off the loop: every avoiding path got stuck before the top — all
  // observations hit the predicate (res.definitely stayed true).
  arena.add_stats(res.storage);
  visited.add_stats(res.storage);
  res.explore_ms = elapsed_ms(t0);
  return res;
}

DefinitelyResult detect_definitely_concurrent(const Computation& comp,
                                              std::int64_t max_cuts,
                                              std::size_t threads) {
  const auto procs = comp.predicate_processes();
  const std::size_t n = procs.size();

  // Bottom-satisfies early return, byte-identical to the serial prologue
  // (the engine requires a non-satisfying bottom in definitely mode).
  bool bottom_sat = true;
  for (std::size_t s = 0; s < n && bottom_sat; ++s)
    if (!comp.local_pred(procs[s], 1)) bottom_sat = false;
  if (bottom_sat) {
    DefinitelyResult res;
    res.definitely = true;
    res.cuts_explored = 1;
    return res;
  }

  common::ThreadPool pool(threads);
  ConcurrentEngine engine(
      comp, max_cuts,
      std::min(pool.num_threads(), SegmentedCutStore::kMaxLanes),
      /*definitely_mode=*/true);
  const auto t0 = Clock::now();
  engine.run(pool);
  const auto t1 = Clock::now();
  DefinitelyResult res = engine.replay_definitely();
  res.explore_ms = elapsed_ms(t0, t1);
  res.replay_ms = elapsed_ms(t1);
  return res;
}

}  // namespace

LatticeResult detect_lattice(const Computation& comp, std::int64_t max_cuts,
                             std::size_t threads) {
  const auto procs = comp.predicate_processes();
  WCP_REQUIRE(!procs.empty(), "empty predicate");
  // Materialize the trace store up front: the parallel path must not race
  // on the lazy build, and doing it here for the serial path too keeps the
  // reported trace-store stats identical across thread counts.
  (void)comp.trace_store();
  // The concurrent engine packs the predicate-false count into a byte;
  // wider predicates (absurd in practice) take the serial path, which is
  // result-identical anyway.
  LatticeResult res =
      threads <= 1 || procs.size() > 255
          ? detect_lattice_serial(comp, max_cuts)
          : detect_lattice_concurrent(comp, max_cuts, threads);
  res.trace_store = comp.trace_store_stats();
  return res;
}

DefinitelyResult detect_definitely(const Computation& comp,
                                   std::int64_t max_cuts,
                                   std::size_t threads) {
  const auto procs = comp.predicate_processes();
  WCP_REQUIRE(!procs.empty(), "empty predicate");
  (void)comp.trace_store();
  DefinitelyResult res =
      threads <= 1 || procs.size() > 255
          ? detect_definitely_serial(comp, max_cuts)
          : detect_definitely_concurrent(comp, max_cuts, threads);
  res.trace_store = comp.trace_store_stats();
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
