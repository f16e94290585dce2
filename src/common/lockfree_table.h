// Lockless open-addressing cut-interning table — the dedup half of the
// lock-free exploration engine (the storage half is SegmentedCutStore in
// common/cut_storage.h).
//
// ltsmin-style (dbs-ll) design: a flat power-of-two array of 8-byte slots,
// each an atomic {low-32 hash tag, CutHandle} pair, linear probing, and a
// single CAS as the publication point. The interning lane first *stages*
// the cut into its own store segment (plain writes, invisible to others),
// then CASes {tag, staged handle} into the first empty slot:
//   - CAS success (release) publishes the staged bytes — any lane that
//     acquires the slot value afterwards reads a fully written cut;
//   - CAS failure means another lane claimed the slot first; the failed
//     CAS re-reads the winner, and the loser either recognizes its own cut
//     (duplicate race: return the winner's handle, unstage) or probes on.
// Probing stops at the first empty slot, so the canonical position of a
// cut is serialized by the CAS — two lanes interning the same cut always
// contend on the same slot, and exactly one inserts.
//
// The table does not resize itself: when the load factor crosses the grow
// threshold (or a probe chain degenerates), intern() returns kTableFull
// and the caller is expected to rendezvous all lanes (WorkFrontier::
// quiesce) and call grow() from exactly one of them. Growth rehashes from
// the full 64-bit hashes stored per cut in the SegmentedCutStore, so the
// low-32 tags lose no placement information.
//
// Insert count. A shared fetch_add per insert would put one cache line
// that every lane writes on the hot path, so each lane counts its own
// inserts and flushes them to the shared count in blocks of kFlushBlock.
// The shared count therefore trails the true count by at most
// lanes · (kFlushBlock − 1) — the unflushed slack, which needs_grow() adds
// in full, so the load-factor gate fires no later than with an exact
// count. size() adds the per-lane remainders back and is exact whenever
// no lane is inserting.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/cut_storage.h"

namespace wcp {

class LockFreeCutTable {
 public:
  enum class Outcome : std::uint8_t {
    kInserted,   ///< the cut was new; handle is the staged (now published) one
    kFound,      ///< an equal cut was already interned; handle is its handle
    kTableFull,  ///< no insert attempted: quiesce all lanes and call grow()
  };
  struct Result {
    CutHandle handle;
    Outcome outcome;
  };

  /// `lanes` sizes the per-lane counters; `initial_slots` is rounded up to
  /// a power of two, and to at least 4× the unflushed-count slack so the
  /// load-factor gate never trips on an empty table.
  explicit LockFreeCutTable(std::size_t lanes,
                            std::size_t initial_slots = std::size_t{1} << 12);

  LockFreeCutTable(const LockFreeCutTable&) = delete;
  LockFreeCutTable& operator=(const LockFreeCutTable&) = delete;

  /// Interns `cut` (stage → CAS → publish against `store`, see file
  /// comment). Safe to call from any number of lanes concurrently; each
  /// lane must pass its own `lane` id.
  Result intern(std::size_t lane, SegmentedCutStore& store,
                std::span<const std::uint32_t> cut, std::uint64_t hash,
                std::uint32_t level, std::uint8_t false_count);

  /// True when the next intern() would report kTableFull on load factor.
  /// Lets a quiesce round skip the grow if a coalesced earlier round
  /// already performed it. Conservative: counts every lane's unflushed
  /// inserts at their worst case (see the file comment).
  [[nodiscard]] bool needs_grow() const {
    return (count_.load(std::memory_order_relaxed) + slack_ + 1) * 10 >=
           slots_.size() * 7;
  }

  /// Doubles the slot array, re-placing entries by their full stored hash.
  /// MUST run single-threaded while every lane is quiesced (the caller's
  /// rendezvous provides the ordering that makes the relaxed rebuild safe).
  void grow(const SegmentedCutStore& store);

  /// Interned cuts. Exact at quiescence; a relaxed snapshot mid-run.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  /// Total slot inspections across lanes (quiescent read).
  [[nodiscard]] std::int64_t probes() const;
  [[nodiscard]] std::int64_t growths() const { return growths_; }

  void add_stats(CutStorageStats& s) const {
    s.peak_bytes += peak_bytes_;
    s.table_probes += probes();
    s.heap_allocs += growths_;
  }

 private:
  /// Empty sentinel: a published slot's low 32 bits are a CutHandle, and
  /// SegmentedCutStore::stage guarantees handles never equal kNoCut, so
  /// all-ones is unambiguous.
  static constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

  static std::uint64_t pack(std::uint64_t hash, CutHandle h) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(hash))
            << 32) |
           h;
  }

  /// Inserts a lane counts locally before one shared fetch_add.
  static constexpr std::uint32_t kFlushBlock = 64;

  struct alignas(64) LaneCounters {
    std::int64_t probes = 0;
    /// Written only by the owning lane; atomic so size() may read it.
    std::atomic<std::uint32_t> unflushed{0};
  };

  std::vector<std::atomic<std::uint64_t>> slots_;
  std::atomic<std::size_t> count_{0};  // flushed inserts
  std::size_t slack_;                  // lanes · (kFlushBlock − 1)
  std::vector<LaneCounters> lane_counters_;
  std::int64_t peak_bytes_ = 0;  // updated at construction + grow (quiescent)
  std::int64_t growths_ = 0;
};

}  // namespace wcp
