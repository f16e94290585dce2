#include "detect/slot_clocks.h"

#include <bit>
#include <limits>
#include <memory>
#include <optional>

#include "common/error.h"
#include "common/thread_pool.h"

namespace wcp::detect {

SlotClockTable::SlotClockTable(const Computation& comp,
                               std::span<const ProcessId> procs)
    : w_(procs.size()), base_(procs.size() + 1, 0) {
  for (std::size_t s = 0; s < w_; ++s) {
    const StateIndex states = comp.num_states(procs[s]);
    WCP_REQUIRE(states <= std::numeric_limits<std::uint32_t>::max(),
                "process " << procs[s] << " has more than 2^32 states");
    base_[s + 1] = base_[s] + static_cast<std::size_t>(states);
  }
  cells_.resize(base_[w_] * w_);
  for (std::size_t s = 0; s < w_; ++s) {
    for (StateIndex k = 1; k <= num_states(s); ++k) {
      std::uint32_t* r =
          cells_.data() + (base_[s] + static_cast<std::size_t>(k - 1)) * w_;
      for (std::size_t t = 0; t < w_; ++t)
        r[t] = t == s ? (comp.local_pred(procs[s], k) ? 1u : 0u)
                      : static_cast<std::uint32_t>(
                            comp.clock_component(procs[s], k, procs[t]));
    }
  }
}

namespace {

// ---- search_levels (ALGORITHMS.md §15) --------------------------------------
//
// The serial BFS pops level L in full before level L + 1, and appends the
// new successors of each popped cut in slot order. So level L + 1 is the
// concatenation, in level-L pop order, of each cut's new successors. A
// successor G + e_s is new iff G is its BFS first parent, and that is
// decided by a mask carried with each cut, without a visited table:
//
//   B(bottom) = {}
//   B(P + e_r) = {s < r : P + e_s consistent} ∪ {s > r : s ∈ B(P)}
//   G + e_s (consistent) is new  <=>  s ∉ B(G).
//
// Pass 1 splits a level into contiguous chunks; per cut it runs the goal,
// reads the consistent advances C(G) and counts the new successors d. The
// chunk summaries give the stop, the counters and each chunk's offset in
// the next level; pass 2 then writes every chunk's successors straight to
// its offset. Neither pass depends on how the level was split.

using Mask = std::uint64_t;
constexpr std::size_t kMaskBits = 64;
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Levels with fewer poppable cuts than this run as one chunk on the
/// calling thread: a pool round trip costs more than expanding them.
constexpr std::size_t kInlineLevel = 4096;
/// Chunks per lane on a wide level, so one slow chunk does not idle the
/// other lanes.
constexpr std::size_t kChunksPerLane = 16;

/// Bits of mask word q strictly below / strictly above slot s.
Mask below(std::size_t s, std::size_t q) {
  const std::size_t word = s / kMaskBits;
  if (q != word) return q < word ? ~Mask{0} : 0;
  return (Mask{1} << (s % kMaskBits)) - 1;
}
Mask above(std::size_t s, std::size_t q) {
  const std::size_t word = s / kMaskBits;
  if (q != word) return q > word ? ~Mask{0} : 0;
  return ~((Mask{2} << (s % kMaskBits)) - 1);
}

/// A level buffer. Every element is written before it is read, so it grows
/// without copying or zero-filling.
template <typename T>
struct Buffer {
  std::unique_ptr<T[]> data;
  std::size_t capacity = 0;
};

/// What pass 1 learned about the chunk [begin, end) of a level. `drift` is
/// Σ (d_i − 1) over the chunk's cuts before its stop (all of them when it
/// has none), and `peak` the largest such prefix over its popped cuts:
/// popping cut j of a level of m cuts leaves m + Σ_{i<j} (d_i − 1) cuts in
/// the serial queue. Lanes write neighbouring chunks, hence the alignment.
struct alignas(64) Chunk {
  std::size_t begin = 0, end = 0;
  std::size_t stop = kNone;  // level index of the stopping pop
  bool found = false;        // the stop passed the goal (else: the cap)
  std::int64_t children = 0;
  std::int64_t drift = 0;
  std::int64_t peak = 0;
  std::size_t offset = 0;  // index of the chunk's first child, next level
};

class LevelSearch {
 public:
  LevelSearch(const SlotClockTable& clocks, std::int64_t max_cuts,
              std::size_t lanes, const CutGoal& goal)
      : clocks_(clocks),
        w_(clocks.width()),
        mw_((w_ + kMaskBits - 1) / kMaskBits),
        // The serial BFS checks the cap after the goal of each pop, so even
        // a cap of 0 pops the bottom cut.
        cap_(max_cuts < 0 ? std::numeric_limits<std::int64_t>::max()
                          : std::max<std::int64_t>(max_cuts, 1)),
        lanes_(std::max<std::size_t>(lanes, 1)),
        goal_(goal) {
    if (lanes_ > 1) pool_.emplace(lanes_);
  }

  LatticeResult run();

 private:
  void pass1(Chunk& c);
  void pass2(const Chunk& c);
  template <typename Fn>
  void each_chunk(std::vector<Chunk>& chunks, const Fn& fn);
  template <typename T>
  T* fit(Buffer<T>& b, std::size_t n);
  [[nodiscard]] std::vector<std::uint32_t> least_path(
      std::span<const std::uint32_t> target) const;

  const SlotClockTable& clocks_;
  const std::size_t w_, mw_;
  const std::int64_t cap_;
  const std::size_t lanes_;
  const CutGoal& goal_;
  std::optional<common::ThreadPool> pool_;

  // The current and the next level in pop order: cut i is
  // cuts[i·w, (i+1)·w) (packed components), B(cut i) is masks[i·mw, ...).
  Buffer<std::uint32_t> cuts_, next_cuts_;
  Buffer<Mask> masks_, next_masks_;
  Buffer<Mask> cons_;  // C(cut i) of the current level, mw words each
  std::size_t capped_ = kNone;  // level index of the max_cuts-th pop
  std::int64_t bytes_ = 0;      // capacity of the buffers above
  CutStorageStats storage_;
};

/// Makes room for n elements in a level buffer (growing by at least half,
/// like CutArena), counting its growths and the capacity high-water mark.
template <typename T>
T* LevelSearch::fit(Buffer<T>& b, std::size_t n) {
  if (n > b.capacity) {
    const std::size_t cap = std::max(n, b.capacity + b.capacity / 2);
    b.data = std::make_unique_for_overwrite<T[]>(cap);
    ++storage_.heap_allocs;
    bytes_ += static_cast<std::int64_t>((cap - b.capacity) * sizeof(T));
    storage_.peak_bytes = std::max(storage_.peak_bytes, bytes_);
    b.capacity = cap;
  }
  return b.data.get();
}

/// Runs fn on every chunk: inline when there is one, else on the pool.
template <typename Fn>
void LevelSearch::each_chunk(std::vector<Chunk>& chunks, const Fn& fn) {
  if (chunks.size() == 1) {
    fn(chunks[0]);
    return;
  }
  pool_->parallel_for(
      chunks.size(),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t c = b; c < e; ++c) fn(chunks[c]);
      },
      /*grain=*/1);
}

void LevelSearch::pass1(Chunk& c) {
  const std::uint32_t* cuts = cuts_.data.get();
  const Mask* masks = masks_.data.get();
  Mask* cons = cons_.data.get();
  std::int64_t children = 0, drift = 0, peak = 0;
  std::size_t i = c.begin;
  for (; i < c.end; ++i) {
    const std::span<const std::uint32_t> cut(cuts + i * w_, w_);
    peak = std::max(peak, drift);
    if (goal_(cut)) {
      c.found = true;
      break;
    }
    if (i == capped_) break;
    Mask* ci = cons + i * mw_;
    const Mask* bi = masks + i * mw_;
    std::fill(ci, ci + mw_, Mask{0});
    for (std::size_t s = 0; s < w_; ++s)
      if (cut[s] < clocks_.num_states(s) && clocks_.advance_consistent(cut, s))
        ci[s / kMaskBits] |= Mask{1} << (s % kMaskBits);
    std::int64_t d = 0;
    for (std::size_t q = 0; q < mw_; ++q) d += std::popcount(ci[q] & ~bi[q]);
    children += d;
    drift += d - 1;
  }
  if (i < c.end) c.stop = i;
  c.children = children;
  c.drift = drift;
  c.peak = peak;
}

void LevelSearch::pass2(const Chunk& c) {
  const std::uint32_t* cuts = cuts_.data.get();
  const Mask* masks = masks_.data.get();
  const Mask* cons = cons_.data.get();
  std::uint32_t* out = next_cuts_.data.get() + c.offset * w_;
  Mask* out_masks = next_masks_.data.get() + c.offset * mw_;
  for (std::size_t i = c.begin; i < c.end; ++i) {
    const std::uint32_t* cut = cuts + i * w_;
    const Mask* ci = cons + i * mw_;
    const Mask* bi = masks + i * mw_;
    for (std::size_t q = 0; q < mw_; ++q) {
      for (Mask fresh = ci[q] & ~bi[q]; fresh != 0; fresh &= fresh - 1) {
        const std::size_t s =
            q * kMaskBits + static_cast<std::size_t>(std::countr_zero(fresh));
        std::copy(cut, cut + w_, out);
        out[s] += 1;
        for (std::size_t k = 0; k < mw_; ++k)
          out_masks[k] = (ci[k] & below(s, k)) | (bi[k] & above(s, k));
        out += w_;
        out_masks += mw_;
      }
    }
  }
}

/// The greedy least path to `target`: from the bottom cut, advance the
/// lowest slot that stays <= target and consistent. It is the target's BFS
/// path (ALGORITHMS.md §15).
std::vector<std::uint32_t> LevelSearch::least_path(
    std::span<const std::uint32_t> target) const {
  std::vector<std::uint32_t> cur(w_, 1), path;
  for (;;) {
    std::size_t s = 0;
    while (s < w_ &&
           (cur[s] == target[s] || !clocks_.advance_consistent(cur, s)))
      ++s;
    if (s == w_) break;
    cur[s] += 1;
    path.push_back(static_cast<std::uint32_t>(s));
  }
  WCP_CHECK_MSG(std::equal(cur.begin(), cur.end(), target.begin()),
                "greedy path stuck below a consistent cut");
  return path;
}

LatticeResult LevelSearch::run() {
  LatticeResult out;
  std::fill_n(fit(cuts_, w_), w_, 1u);
  std::fill_n(fit(masks_, mw_), mw_, Mask{0});
  std::vector<Chunk> chunks;
  std::int64_t popped = 0;  // pops of the levels before this one
  for (std::size_t m = 1; m > 0;) {
    // Pops of this level that can happen before the cap.
    const std::size_t limit = static_cast<std::size_t>(
        std::min<std::int64_t>(static_cast<std::int64_t>(m), cap_ - popped));
    capped_ = popped + static_cast<std::int64_t>(m) >= cap_ ? limit - 1 : kNone;
    const std::size_t parts = lanes_ == 1 || limit < kInlineLevel
                                  ? 1
                                  : std::min(lanes_ * kChunksPerLane, limit);
    chunks.assign(parts, Chunk{});
    for (std::size_t c = 0; c < parts; ++c) {
      chunks[c].begin = limit * c / parts;
      chunks[c].end = limit * (c + 1) / parts;
    }
    fit(cons_, limit * mw_);
    each_chunk(chunks, [this](Chunk& c) { pass1(c); });

    // Merge the summaries in pop order, up to the first stop.
    std::int64_t drift = 0;  // Σ (d_i − 1) over the chunks before
    std::size_t children = 0;
    for (Chunk& c : chunks) {
      out.max_frontier = std::max(
          out.max_frontier, static_cast<std::int64_t>(m) + drift + c.peak);
      if (c.stop != kNone) {
        const std::span<const std::uint32_t> cut(
            cuts_.data.get() + c.stop * w_, w_);
        out.cuts_explored = popped + static_cast<std::int64_t>(c.stop) + 1;
        // The serial queue after this pop, on top of what was popped.
        storage_.cuts_interned = out.cuts_explored +
                                 static_cast<std::int64_t>(m) + drift +
                                 c.drift - 1;
        out.detected = c.found;
        out.truncated = !c.found;
        if (c.found) {
          out.cut.assign(cut.begin(), cut.end());
          out.witness_path = least_path(cut);
        }
        out.storage = storage_;
        return out;
      }
      c.offset = children;
      children += static_cast<std::size_t>(c.children);
      drift += c.drift;
    }

    popped += static_cast<std::int64_t>(m);
    fit(next_cuts_, children * w_);
    fit(next_masks_, children * mw_);
    each_chunk(chunks, [this](const Chunk& c) { pass2(c); });
    std::swap(cuts_, next_cuts_);
    std::swap(masks_, next_masks_);
    m = children;
  }
  out.cuts_explored = popped;
  storage_.cuts_interned = popped;
  out.storage = storage_;
  return out;
}

}  // namespace

LatticeResult search_levels(const SlotClockTable& clocks,
                            std::int64_t max_cuts, std::size_t lanes,
                            const CutGoal& goal) {
  return LevelSearch(clocks, max_cuts, lanes, goal).run();
}

}  // namespace wcp::detect
