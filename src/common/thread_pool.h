// Fixed-size work-stealing thread pool — the parallel execution substrate
// for the offline detectors (level-parallel lattice BFS, parallel slice
// construction, batch sweeps).
//
// Design goals, in order:
//   1. Determinism: every collective operation merges results in submission
//      order, regardless of completion order, so parallel detectors can be
//      bit-identical to their serial counterparts.
//   2. No deadlock under nesting: the calling thread always participates in
//      its own parallel_for, so a collective completes even when every
//      worker is busy with outer-level work (help-first scheduling).
//   3. threads == 1 degenerates to plain serial execution on the calling
//      thread — the serial path IS the one-thread special case.
//
// Each worker owns a deque; submit() round-robins tasks across them, the
// owner pops from the back (LIFO, cache-friendly), and idle workers steal
// from the fronts of other queues. parallel_for additionally distributes
// chunks through a shared atomic cursor, which is itself a form of
// work stealing at chunk granularity.
//
// Pool size resolution: an explicit constructor argument wins; 0 defers to
// default_threads(), which honors the WCP_THREADS environment variable and
// falls back to std::thread::hardware_concurrency().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

namespace wcp::common {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Pool-wide parallelism including the calling thread: `threads` lanes
  /// total, i.e. `threads - 1` spawned workers. 0 = default_threads().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (spawned workers + the calling thread); >= 1.
  [[nodiscard]] std::size_t num_threads() const { return workers_.size() + 1; }

  /// WCP_THREADS env var if set, else hardware_concurrency() (else 1). The
  /// process-wide default for `threads = 0` everywhere. A set-but-invalid
  /// WCP_THREADS (non-numeric, trailing garbage, or < 1) throws
  /// std::invalid_argument instead of silently falling back — a typo in
  /// the variable must not quietly change the thread count.
  static std::size_t default_threads();

  /// Fire-and-forget task; runs on some worker (or inline when the pool
  /// has no workers). Safe to call from inside pool tasks (nested
  /// submission): the task is queued, never run synchronously on the
  /// submitting thread.
  void submit(Task task);

  /// Runs body(begin, end) over disjoint chunks covering [0, n), blocking
  /// until every chunk completed. The calling thread participates, so this
  /// never deadlocks even when nested inside another parallel_for. The
  /// first exception (by chunk order) is rethrown after all chunks finish.
  /// `grain` = max chunk width; 0 picks n / (8 * lanes), clamped to >= 1.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t grain = 0);

  /// Element-wise map with deterministic output: out[i] = fn(i), computed
  /// in parallel, returned in index (submission) order. T must be default-
  /// constructible and movable.
  template <typename T>
  std::vector<T> parallel_map(std::size_t n,
                              const std::function<T(std::size_t)>& fn,
                              std::size_t grain = 0) {
    std::vector<T> out(n);
    parallel_for(
        n,
        [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) out[i] = fn(i);
        },
        grain);
    return out;
  }

  /// Chunked reduction with deterministic merge order: each chunk folds its
  /// indices into a chunk-local accumulator (seeded from `init`), and the
  /// partials are merged left-to-right in chunk order — so the result is
  /// independent of which thread ran which chunk.
  template <typename T>
  T parallel_reduce(std::size_t n, T init,
                    const std::function<void(T&, std::size_t)>& fold,
                    const std::function<void(T&, T&)>& merge,
                    std::size_t grain = 0) {
    if (n == 0) return init;
    const std::size_t g = resolve_grain(n, grain);
    const std::size_t chunks = (n + g - 1) / g;
    std::vector<T> partial(chunks, init);
    parallel_for(
        n,
        [&](std::size_t b, std::size_t e) {
          T& acc = partial[b / g];
          for (std::size_t i = b; i < e; ++i) fold(acc, i);
        },
        g);
    T out = std::move(partial[0]);
    for (std::size_t c = 1; c < chunks; ++c) merge(out, partial[c]);
    return out;
  }

 private:
  [[nodiscard]] std::size_t resolve_grain(std::size_t n,
                                          std::size_t grain) const;
  void worker_loop(std::size_t self);
  /// Pops a task: own queue back first, then steal from other fronts.
  bool try_pop(std::size_t self, Task& out);

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<Task>> queues_;  // one per worker
  std::vector<std::thread> workers_;
  std::size_t next_queue_ = 0;  // round-robin submission cursor
  bool stop_ = false;
};

/// Work-stealing frontier for the barrier-free lattice exploration engine
/// (detect/lattice.cc): per-lane deques of 32-bit work items (cut handles),
/// steal-half load balancing, and idle-detection termination — the lb.c
/// scheme from ltsmin, layered on the ThreadPool (each lane is one
/// parallel_for chunk driving run_lane).
///
/// Item accounting: a global in-flight counter is incremented *before* an
/// item becomes visible in any deque and decremented only *after* its
/// processing completed (including any items it pushed). A lane that finds
/// every deque empty exits only when the counter reads zero — at which
/// point no item exists and none can appear, because only processing
/// creates items. There is no barrier anywhere on the hot path: lanes push,
/// pop, and steal fully independently.
///
/// Batched pops: a lane takes up to kPopBatch items off the back of its
/// own deque under one lock, processes them in LIFO order, and retires the
/// whole batch from the in-flight counter with one RMW. A held batch is
/// in flight (counted, not stealable), so the termination argument is
/// unchanged; the lane still checks for a quiesce round between items.
///
/// Quiesce rendezvous: a lane that needs a globally-exclusive operation
/// (growing the lock-free table) calls quiesce(fn) from inside its
/// process() callback. Every active lane parks at the rendezvous between
/// items; the last arriver runs fn and releases the round. Concurrent
/// requests coalesce into one round (fn runs once; callers re-check their
/// condition after). Termination cannot race the rendezvous: the
/// requester's in-flight item is not yet decremented, so the counter stays
/// positive and no lane can exit mid-round.
class WorkFrontier {
 public:
  explicit WorkFrontier(std::size_t lanes);

  WorkFrontier(const WorkFrontier&) = delete;
  WorkFrontier& operator=(const WorkFrontier&) = delete;

  [[nodiscard]] std::size_t lanes() const { return deques_.size(); }

  /// Pre-run seeding (single-threaded): enqueue `item` on lane 0.
  void seed(std::uint32_t item);

  /// Publishes a batch of new items to the lane's own deque. Called from
  /// inside process(); one lock round-trip amortized over the whole batch.
  void push_batch(std::size_t lane, std::span<const std::uint32_t> items);

  /// Lane main loop: pops (own back, LIFO) or steals (front half of a
  /// victim), runs process(item), until global quiescence. Call once per
  /// lane, one lane per thread (a ThreadPool::parallel_for over lanes with
  /// grain 1).
  void run_lane(std::size_t lane,
                const std::function<void(std::uint32_t)>& process);

  /// Globally-exclusive section, callable only from inside process(): all
  /// active lanes rendezvous, exactly one runs `fn`, all resume. Multiple
  /// concurrent requests coalesce — the caller must re-check whether its
  /// reason for quiescing still holds and, if so, call again.
  void quiesce(const std::function<void()>& fn);

  /// Successful steal operations (quiescent read).
  [[nodiscard]] std::int64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  /// Items one pop takes off the lane's own deque.
  static constexpr std::size_t kPopBatch = 8;

  struct alignas(64) Deque {
    std::mutex m;
    std::vector<std::uint32_t> q;          // guarded by m
    std::vector<std::uint32_t> steal_buf;  // scratch of the OWNER as thief
  };

  /// Fill `batch` with up to kPopBatch items (own back, LIFO order) or
  /// with one stolen item; false when there was nothing to take.
  bool try_pop(std::size_t lane, std::vector<std::uint32_t>& batch);
  bool try_steal(std::size_t lane, std::vector<std::uint32_t>& batch);
  /// Arrive at an open rendezvous round (or return if none); the last
  /// arriver runs the round's fn. Called with the flag observed set.
  void park();
  /// Runs the round (caller holds qm_ and was the last arriver).
  void complete();

  std::vector<Deque> deques_;
  std::atomic<std::int64_t> pending_{0};  // items visible or in processing
  std::atomic<std::int64_t> steals_{0};

  // Rendezvous state, guarded by qm_. quiesce_flag_ is the lock-free hint
  // lanes poll between items.
  std::atomic<bool> quiesce_flag_{false};
  std::mutex qm_;
  std::condition_variable qcv_;
  const std::function<void()>* round_fn_ = nullptr;
  bool round_open_ = false;
  std::size_t active_ = 0;   // lanes currently inside run_lane
  std::size_t arrived_ = 0;  // lanes parked at the current round
  std::uint64_t round_gen_ = 0;
};

}  // namespace wcp::common
