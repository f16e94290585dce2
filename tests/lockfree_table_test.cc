#include "common/lockfree_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "common/cut_hash.h"
#include "common/cut_storage.h"
#include "common/rng.h"

namespace wcp {
namespace {

using PackedCut = std::vector<std::uint32_t>;

std::uint64_t zhash(std::span<const std::uint32_t> cut) {
  return ZobristCutHash{}(cut);
}

TEST(LockFreeCutTable, InternDeduplicatesSingleLane) {
  SegmentedCutStore store(3, 1);
  LockFreeCutTable table(1);
  const PackedCut c{3, 1, 4};
  const auto r1 = table.intern(0, store, c, zhash(c), 5, 0);
  ASSERT_EQ(r1.outcome, LockFreeCutTable::Outcome::kInserted);
  const auto r2 = table.intern(0, store, c, zhash(c), 5, 0);
  ASSERT_EQ(r2.outcome, LockFreeCutTable::Outcome::kFound);
  EXPECT_EQ(r1.handle, r2.handle);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(store.total_cuts(), 1u);
  EXPECT_TRUE(std::equal(c.begin(), c.end(), store.cut(r1.handle).begin()));
}

TEST(LockFreeCutTable, CollidingTagsResolveByProbing) {
  // The caller supplies the hash, so the test can force every cut onto the
  // same slot chain; distinct contents must still intern distinctly.
  SegmentedCutStore store(2, 1);
  LockFreeCutTable table(1);
  constexpr std::uint64_t kSameHash = 0xdeadbeefcafef00dULL;
  std::vector<CutHandle> handles;
  for (std::uint32_t i = 1; i <= 64; ++i) {
    const PackedCut c{i, i + 1};
    const auto r = table.intern(0, store, c, kSameHash, i, 0);
    ASSERT_EQ(r.outcome, LockFreeCutTable::Outcome::kInserted);
    handles.push_back(r.handle);
  }
  EXPECT_EQ(table.size(), 64u);
  for (std::uint32_t i = 1; i <= 64; ++i) {
    const PackedCut c{i, i + 1};
    const auto r = table.intern(0, store, c, kSameHash, i, 0);
    EXPECT_EQ(r.outcome, LockFreeCutTable::Outcome::kFound);
    EXPECT_EQ(r.handle, handles[i - 1]);
  }
}

TEST(LockFreeCutTable, GrowRehashesEveryEntry) {
  // Start tiny so the load-factor gate trips repeatedly; the single-lane
  // caller plays the quiesce round itself.
  SegmentedCutStore store(2, 1);
  LockFreeCutTable table(1, /*initial_slots=*/16);
  constexpr std::uint32_t kCount = 3000;
  std::vector<CutHandle> handles;
  for (std::uint32_t i = 1; i <= kCount; ++i) {
    const PackedCut c{i, 9000 - i};
    for (;;) {
      const auto r = table.intern(0, store, c, zhash(c), i, 0);
      if (r.outcome == LockFreeCutTable::Outcome::kTableFull) {
        table.grow(store);
        continue;
      }
      ASSERT_EQ(r.outcome, LockFreeCutTable::Outcome::kInserted);
      handles.push_back(r.handle);
      break;
    }
  }
  ASSERT_GT(table.growths(), 2);
  EXPECT_EQ(table.size(), kCount);
  EXPECT_EQ(store.total_cuts(), kCount);
  EXPECT_GT(table.slot_count(), 16u);  // doubled away from the initial size
  for (std::uint32_t i = 1; i <= kCount; ++i) {
    const PackedCut c{i, 9000 - i};
    const auto r = table.intern(0, store, c, zhash(c), i, 0);
    EXPECT_EQ(r.outcome, LockFreeCutTable::Outcome::kFound);
    EXPECT_EQ(r.handle, handles[i - 1]);
  }
}

// Inserts are counted per lane and flushed to the shared count in blocks,
// so the load-factor gate must budget for every lane's unflushed inserts.
// Four lane ids take turns on one thread (so size() is exact after every
// call), each holding a different unflushed remainder; the table must
// always grow before its true load reaches 0.7.
TEST(LockFreeCutTable, GrowsBeforeLoadFactorWithUnflushedLanes) {
  constexpr std::size_t kLanes = 4;
  SegmentedCutStore store(2, kLanes);
  LockFreeCutTable table(kLanes, /*initial_slots=*/16);
  constexpr std::uint32_t kCount = 20'000;
  for (std::uint32_t i = 1; i <= kCount; ++i) {
    // Uneven lane schedule: lane 0 inserts most, lane 3 least.
    const std::size_t lane = i % 7 < 3 ? 0 : i % 7 < 5 ? 1 : i % 7 < 6 ? 2 : 3;
    const PackedCut c{i, 2 * i};
    for (;;) {
      const auto r = table.intern(lane, store, c, zhash(c), 0, 0);
      if (r.outcome == LockFreeCutTable::Outcome::kTableFull) {
        table.grow(store);
        continue;
      }
      ASSERT_EQ(r.outcome, LockFreeCutTable::Outcome::kInserted);
      break;
    }
    ASSERT_EQ(table.size(), i);
    ASSERT_LT(table.size() * 10, table.slot_count() * 7)
        << "load factor reached 0.7 at " << i << " cuts";
  }
  EXPECT_GT(table.growths(), 2);
}

// After concurrent inserts, size() adds every lane's unflushed remainder
// back: exact at quiescence, whatever the per-lane counts are.
TEST(LockFreeCutTable, SizeExactAfterConcurrentInserts) {
  constexpr std::size_t kLanes = 4;
  constexpr std::uint32_t kShared = 3'000;  // every lane interns these
  SegmentedCutStore store(2, kLanes);
  LockFreeCutTable table(kLanes, /*initial_slots=*/1 << 15);
  std::vector<std::thread> threads;
  std::vector<std::size_t> own(kLanes);
  for (std::size_t t = 0; t < kLanes; ++t) {
    // Private counts deliberately not multiples of the flush block.
    own[t] = 1'000 + 37 * t;
    threads.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kShared; ++i) {
        const PackedCut c{i, 0};
        ASSERT_NE(table.intern(t, store, c, zhash(c), 0, 0).outcome,
                  LockFreeCutTable::Outcome::kTableFull);
      }
      for (std::uint32_t i = 0; i < own[t]; ++i) {
        const PackedCut c{i, static_cast<std::uint32_t>(t + 1)};
        ASSERT_EQ(table.intern(t, store, c, zhash(c), 0, 0).outcome,
                  LockFreeCutTable::Outcome::kInserted);
      }
    });
  }
  for (auto& th : threads) th.join();
  std::size_t expect = kShared;
  for (const std::size_t n : own) expect += n;
  EXPECT_EQ(table.size(), expect);
  EXPECT_EQ(store.total_cuts(), expect);
  EXPECT_EQ(table.growths(), 0);
}

// The satellite hammer: 8 threads intern overlapping randomized batches
// drawn from one shared pool of distinct cuts. Exact dedup — every distinct
// cut interned by exactly one CAS win, every loser handed the winner's
// handle — is checked by aggregating per-thread logs after the join.
TEST(LockFreeCutTable, EightThreadHammerExactDedup) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kWidth = 4;
  constexpr std::size_t kPool = 4096;    // distinct cuts in the universe
  constexpr std::size_t kPerThread = 20'000;  // draws per thread (overlap!)

  // Distinct cut pool (component values chosen so no two cuts collide).
  std::vector<PackedCut> pool;
  pool.reserve(kPool);
  Rng gen(0x5eed);
  std::set<PackedCut> uniq;
  while (uniq.size() < kPool) {
    PackedCut c(kWidth);
    for (auto& v : c)
      v = static_cast<std::uint32_t>(gen.uniform_int(1, 64));
    uniq.insert(c);
  }
  pool.assign(uniq.begin(), uniq.end());

  SegmentedCutStore store(kWidth, kThreads);
  // Sized so the load factor never trips: growth under contention needs the
  // engine's quiesce rendezvous, which is exercised by the differential
  // sweep — this test isolates the CAS protocol.
  LockFreeCutTable table(kThreads, /*initial_slots=*/1 << 14);

  struct ThreadLog {
    std::vector<std::uint32_t> pool_idx;
    std::vector<CutHandle> handle;
    std::vector<bool> inserted;
  };
  std::vector<ThreadLog> logs(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xabc0 + t);
      ThreadLog& log = logs[t];
      log.pool_idx.reserve(kPerThread);
      log.handle.reserve(kPerThread);
      log.inserted.reserve(kPerThread);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t pi = rng.index(kPool);
        const PackedCut& c = pool[pi];
        const auto r = table.intern(t, store, c, zhash(c),
                                    /*level=*/static_cast<std::uint32_t>(pi),
                                    /*false_count=*/0);
        ASSERT_NE(r.outcome, LockFreeCutTable::Outcome::kTableFull);
        log.pool_idx.push_back(static_cast<std::uint32_t>(pi));
        log.handle.push_back(r.handle);
        log.inserted.push_back(r.outcome ==
                               LockFreeCutTable::Outcome::kInserted);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  // Aggregate: one handle per touched pool cut, exactly one insert each.
  std::map<std::uint32_t, CutHandle> canonical;
  std::map<std::uint32_t, int> inserts;
  for (const ThreadLog& log : logs) {
    for (std::size_t i = 0; i < log.pool_idx.size(); ++i) {
      const std::uint32_t pi = log.pool_idx[i];
      const auto [it, fresh] = canonical.emplace(pi, log.handle[i]);
      if (!fresh)
        ASSERT_EQ(it->second, log.handle[i])
            << "two threads got different handles for pool cut " << pi;
      inserts[pi] += log.inserted[i] ? 1 : 0;
    }
  }
  for (const auto& [pi, n] : inserts)
    ASSERT_EQ(n, 1) << "pool cut " << pi << " won " << n << " CAS races";

  // No lost or duplicate handles: the canonical map is a bijection onto the
  // store, and every handle reads back its own content.
  std::set<CutHandle> distinct_handles;
  for (const auto& [pi, h] : canonical) {
    ASSERT_TRUE(distinct_handles.insert(h).second)
        << "handle " << h << " assigned to two distinct cuts";
    const auto got = store.cut(h);
    ASSERT_TRUE(std::equal(pool[pi].begin(), pool[pi].end(), got.begin()))
        << "handle " << h << " does not read back pool cut " << pi;
    EXPECT_EQ(store.level(h), pi);
    EXPECT_EQ(store.hash(h), zhash(pool[pi]));
  }

  // Stats consistency at quiescence.
  EXPECT_EQ(table.size(), canonical.size());
  EXPECT_EQ(store.total_cuts(), canonical.size());
  std::size_t lane_sum = 0;
  for (std::size_t t = 0; t < kThreads; ++t) lane_sum += store.lane_count(t);
  EXPECT_EQ(lane_sum, canonical.size());
  EXPECT_GE(table.probes(),
            static_cast<std::int64_t>(kThreads * kPerThread));
  EXPECT_EQ(table.growths(), 0);
  CutStorageStats s;
  table.add_stats(s);
  store.add_stats(s);
  EXPECT_EQ(s.cuts_interned, static_cast<std::int64_t>(canonical.size()));
  EXPECT_GT(s.peak_bytes, 0);
}

}  // namespace
}  // namespace wcp
