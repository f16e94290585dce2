#include "common/lockfree_table.h"

#include <algorithm>
#include <bit>

#include "common/error.h"

namespace wcp {

LockFreeCutTable::LockFreeCutTable(std::size_t lanes,
                                   std::size_t initial_slots)
    : slots_(std::bit_ceil(std::max<std::size_t>(
          {initial_slots, 16, 4 * lanes * (kFlushBlock - 1)}))),
      slack_(lanes * (kFlushBlock - 1)),
      lane_counters_(lanes) {
  WCP_REQUIRE(lanes >= 1, "lock-free cut table needs >= 1 lane");
  for (auto& s : slots_) s.store(kEmptySlot, std::memory_order_relaxed);
  peak_bytes_ = static_cast<std::int64_t>(slots_.size() * sizeof(slots_[0]));
}

LockFreeCutTable::Result LockFreeCutTable::intern(
    std::size_t lane, SegmentedCutStore& store,
    std::span<const std::uint32_t> cut, std::uint64_t hash,
    std::uint32_t level, std::uint8_t false_count) {
  if (needs_grow()) return {kNoCut, Outcome::kTableFull};

  const std::size_t mask = slots_.size() - 1;
  const auto tag = static_cast<std::uint32_t>(hash);
  std::size_t idx = hash & mask;
  CutHandle staged = kNoCut;
  std::int64_t probes = 0;
  // The load-factor gate keeps chains short; a full sweep of the table is
  // the pathological-clustering safety net, not an expected path.
  const std::size_t probe_limit = slots_.size();

  for (std::size_t step = 0; step <= probe_limit; ++step) {
    ++probes;
    std::uint64_t cur = slots_[idx].load(std::memory_order_acquire);
    if (cur == kEmptySlot) {
      if (staged == kNoCut)
        staged = store.stage(lane, cut, hash, level, false_count);
      if (slots_[idx].compare_exchange_strong(cur, pack(hash, staged),
                                              std::memory_order_release,
                                              std::memory_order_acquire)) {
        store.publish(lane);
        LaneCounters& lc = lane_counters_[lane];
        const std::uint32_t unflushed =
            lc.unflushed.load(std::memory_order_relaxed) + 1;
        if (unflushed == kFlushBlock) {
          count_.fetch_add(kFlushBlock, std::memory_order_relaxed);
          lc.unflushed.store(0, std::memory_order_relaxed);
        } else {
          lc.unflushed.store(unflushed, std::memory_order_relaxed);
        }
        lc.probes += probes;
        return {staged, Outcome::kInserted};
      }
      // Lost the claim; `cur` now holds the winner — fall through to the
      // match check, exactly as if the load had seen it occupied.
    }
    const auto other = static_cast<CutHandle>(cur);
    if (static_cast<std::uint32_t>(cur >> 32) == tag &&
        store.hash(other) == hash &&
        std::equal(cut.begin(), cut.end(), store.cut(other).begin())) {
      if (staged != kNoCut) store.unstage(lane);
      lane_counters_[lane].probes += probes;
      return {other, Outcome::kFound};
    }
    idx = (idx + 1) & mask;
  }
  if (staged != kNoCut) store.unstage(lane);
  lane_counters_[lane].probes += probes;
  return {kNoCut, Outcome::kTableFull};
}

void LockFreeCutTable::grow(const SegmentedCutStore& store) {
  const std::size_t cap = slots_.size() * 2;
  WCP_REQUIRE(cap <= (std::size_t{1} << 32),
              "lock-free cut table slot space exhausted");
  std::vector<std::atomic<std::uint64_t>> fresh(cap);
  for (auto& s : fresh) s.store(kEmptySlot, std::memory_order_relaxed);
  const std::size_t mask = cap - 1;
  for (auto& s : slots_) {
    const std::uint64_t v = s.load(std::memory_order_relaxed);
    if (v == kEmptySlot) continue;
    // Placement by the full per-cut hash, not the 32-bit tag: the doubled
    // mask may consume bits the tag dropped.
    std::size_t idx = store.hash(static_cast<CutHandle>(v)) & mask;
    while (fresh[idx].load(std::memory_order_relaxed) != kEmptySlot)
      idx = (idx + 1) & mask;
    fresh[idx].store(v, std::memory_order_relaxed);
  }
  slots_ = std::move(fresh);
  ++growths_;
  peak_bytes_ = std::max(
      peak_bytes_, static_cast<std::int64_t>(cap * sizeof(slots_[0])));
}

std::size_t LockFreeCutTable::size() const {
  std::size_t total = count_.load(std::memory_order_relaxed);
  for (const LaneCounters& c : lane_counters_)
    total += c.unflushed.load(std::memory_order_relaxed);
  return total;
}

std::int64_t LockFreeCutTable::probes() const {
  std::int64_t total = 0;
  for (const LaneCounters& c : lane_counters_) total += c.probes;
  return total;
}

}  // namespace wcp
