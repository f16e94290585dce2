#include "common/cut_storage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/cut_hash.h"

namespace wcp {
namespace {

using Cut = std::vector<StateIndex>;

TEST(CutArena, PushGetMaterializeRoundtrip) {
  CutArena a(3);
  const Cut c0{1, 2, 3};
  const Cut c1{4, 5, 6};
  const CutHandle h0 = a.push(c0);
  const CutHandle h1 = a.push(c1);
  EXPECT_EQ(h0, 0u);
  EXPECT_EQ(h1, 1u);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.materialize(h0), c0);
  EXPECT_EQ(a.materialize(h1), c1);
  const auto s = a.get(h1);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 4u);
  EXPECT_EQ(s[2], 6u);
}

TEST(CutArena, HandlesStayValidAcrossGrowth) {
  CutArena a(4);
  std::vector<CutHandle> handles;
  for (StateIndex i = 0; i < 500; ++i)
    handles.push_back(a.push(Cut{i, i + 1, i + 2, i + 3}));
  ASSERT_GT(a.growths(), 1);  // forced several reallocations
  for (StateIndex i = 0; i < 500; ++i)
    EXPECT_EQ(a.materialize(handles[static_cast<std::size_t>(i)]),
              (Cut{i, i + 1, i + 2, i + 3}));
}

TEST(CutArena, CopyToReusesBuffer) {
  CutArena a(3);
  a.push(Cut{1, 2, 3});
  a.push(Cut{4, 5, 6});
  Cut out;
  a.copy_to(0, out);
  EXPECT_EQ(out, (Cut{1, 2, 3}));
  a.copy_to(1, out);
  EXPECT_EQ(out, (Cut{4, 5, 6}));
}

TEST(CutArena, StatsAccumulate) {
  CutArena a(2);
  for (StateIndex i = 0; i < 50; ++i) a.push(Cut{i, i});
  CutStorageStats s;
  a.add_stats(s);
  EXPECT_EQ(s.cuts_interned, 50);
  EXPECT_GE(s.peak_bytes, a.bytes_in_use());
  EXPECT_EQ(s.heap_allocs, a.growths());
}

TEST(CutTable, InternDeduplicates) {
  CutArena a(3);
  CutTable t;
  const CutHash h;
  const Cut c{3, 1, 4};
  const auto r1 = t.intern(a, c, h(c));
  EXPECT_TRUE(r1.inserted);
  const auto r2 = t.intern(a, c, h(c));
  EXPECT_FALSE(r2.inserted);
  EXPECT_EQ(r1.handle, r2.handle);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(CutTable, FindHitAndMiss) {
  CutArena a(2);
  CutTable t;
  const CutHash h;
  const Cut in{1, 2}, out{2, 1};
  EXPECT_EQ(t.find(a, in, h(in)), kNoCut);  // empty table
  const CutHandle stored = t.intern(a, in, h(in)).handle;
  EXPECT_EQ(t.find(a, in, h(in)), stored);
  EXPECT_EQ(t.find(a, out, h(out)), kNoCut);
}

TEST(CutTable, GrowthPreservesMembership) {
  CutArena a(2);
  CutTable t;
  const CutHash h;
  std::vector<CutHandle> handles;
  for (StateIndex i = 0; i < 1000; ++i) {
    const Cut c{i, i * 7 % 101};
    handles.push_back(t.intern(a, c, h(c)).handle);
  }
  ASSERT_GT(t.growths(), 1);
  for (StateIndex i = 0; i < 1000; ++i) {
    const Cut c{i, i * 7 % 101};
    EXPECT_EQ(t.find(a, c, h(c)), handles[static_cast<std::size_t>(i)]);
    EXPECT_FALSE(t.intern(a, c, h(c)).inserted);
  }
  EXPECT_EQ(t.size(), 1000u);
  EXPECT_EQ(a.size(), 1000u);
}

TEST(CutTable, ForcedCollisionsResolveByLinearProbing) {
  // The caller supplies the hash, so the test can lie: everything collides.
  CutArena a(2);
  CutTable t;
  constexpr std::size_t kSameHash = 42;
  std::vector<CutHandle> handles;
  for (StateIndex i = 0; i < 64; ++i)
    handles.push_back(t.intern(a, Cut{i, i}, kSameHash).handle);
  for (StateIndex i = 0; i < 64; ++i) {
    EXPECT_EQ(t.find(a, Cut{i, i}, kSameHash),
              handles[static_cast<std::size_t>(i)]);
    EXPECT_FALSE(t.intern(a, Cut{i, i}, kSameHash).inserted);
  }
  EXPECT_EQ(t.size(), 64u);
}

TEST(CutTable, ProbeCounterAdvances) {
  CutArena a(1);
  CutTable t;
  t.intern(a, Cut{1}, 0);
  const std::int64_t before = t.probes();
  t.intern(a, Cut{1}, 0);  // duplicate: at least one slot inspected
  EXPECT_GT(t.probes(), before);
  CutStorageStats s;
  t.add_stats(s);
  EXPECT_EQ(s.table_probes, t.probes());
  EXPECT_GT(s.peak_bytes, 0);
}

// ---- hash overload agreement ------------------------------------------------
//
// CutTable callers hash a std::vector<StateIndex> or a span over one; both
// overloads must give the value the table stored for the same cut.

TEST(CutHashAgreement, SpanAndVectorAgree) {
  const CutHash h;
  for (StateIndex i = 0; i < 200; ++i) {
    const Cut c{i, i * 31 % 97, i * i % 1000, 4'000'000'000LL % (i + 1)};
    EXPECT_EQ(h(std::span<const StateIndex>(c)), h(c));
  }
}

}  // namespace
}  // namespace wcp
