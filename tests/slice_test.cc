// Computation slicing (src/slice): the slice's cut set must equal the
// brute-force set of satisfying consistent cuts on every randomized case,
// and the structural accessors (bottom/top/groups/contains/num_cuts) must
// agree with it.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "app/state_stream.h"
#include "slice/jil.h"
#include "slice/online_slicer.h"
#include "slice/slice.h"
#include "workload/random_workload.h"

namespace wcp::slice {
namespace {

using Cut = std::vector<StateIndex>;

/// Every consistent cut of comp's predicate processes, by odometer over the
/// full state product (small shapes only).
std::vector<Cut> brute_force_consistent(const Computation& comp) {
  const auto procs = comp.predicate_processes();
  const std::size_t n = procs.size();
  std::vector<Cut> out;
  Cut cut(n, 1);
  for (;;) {
    bool consistent = true;
    for (std::size_t s = 0; s < n && consistent; ++s)
      for (std::size_t t = s + 1; t < n && consistent; ++t)
        if (comp.happened_before(procs[s], cut[s], procs[t], cut[t]) ||
            comp.happened_before(procs[t], cut[t], procs[s], cut[s]))
          consistent = false;
    if (consistent) out.push_back(cut);
    std::size_t s = 0;
    while (s < n && cut[s] == comp.num_states(procs[s])) cut[s++] = 1;
    if (s == n) break;
    ++cut[s];
  }
  return out;
}

std::vector<Cut> brute_force_satisfying(const Computation& comp) {
  const auto procs = comp.predicate_processes();
  std::vector<Cut> out;
  for (Cut& cut : brute_force_consistent(comp)) {
    bool sat = true;
    for (std::size_t s = 0; s < procs.size() && sat; ++s)
      if (!comp.local_pred(procs[s], cut[s])) sat = false;
    if (sat) out.push_back(std::move(cut));
  }
  return out;
}

std::set<Cut> enumerate_slice(const Slice& sl) {
  std::set<Cut> out;
  sl.for_each_cut([&](const Cut& c) {
    EXPECT_TRUE(out.insert(c).second) << "duplicate cut from iterator";
    return true;
  });
  return out;
}

TEST(Slice, RandomizedCutSetMatchesBruteForce) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 4;
    spec.num_predicate = 3;
    spec.events_per_process = 6;
    spec.local_pred_prob = (seed % 2 == 0) ? 0.3 : 0.6;
    spec.ensure_detectable = false;
    spec.seed = seed;
    const auto comp = workload::make_random(spec);

    const auto expected = brute_force_satisfying(comp);
    const std::set<Cut> want(expected.begin(), expected.end());

    SliceBuildCounters ctr;
    const Slice sl = Slice::build(comp, &ctr);
    ASSERT_EQ(sl.empty(), want.empty()) << "seed " << seed;
    EXPECT_EQ(enumerate_slice(sl), want) << "seed " << seed;

    const auto cc = sl.num_cuts();
    ASSERT_FALSE(cc.saturated);
    EXPECT_EQ(cc.count, static_cast<std::int64_t>(want.size()))
        << "seed " << seed;

    // Membership agrees on EVERY consistent cut, in and out of the slice.
    for (const Cut& c : brute_force_consistent(comp))
      EXPECT_EQ(sl.contains(c), want.contains(c))
          << "seed " << seed << " cut mismatch";

    if (want.empty()) continue;
    // Bottom/top are the pointwise meet/join of the satisfying cuts.
    Cut meet = expected.front(), join = expected.front();
    for (const Cut& c : expected)
      for (std::size_t s = 0; s < c.size(); ++s) {
        meet[s] = std::min(meet[s], c[s]);
        join[s] = std::max(join[s], c[s]);
      }
    EXPECT_EQ(sl.bottom(), meet) << "seed " << seed;
    EXPECT_EQ(sl.top(), join) << "seed " << seed;
    EXPECT_EQ(sl.bottom(), *comp.first_wcp_cut()) << "seed " << seed;
  }
}

TEST(Slice, JilIsMonotoneInK) {
  workload::RandomSpec spec;
  spec.num_processes = 4;
  spec.num_predicate = 4;
  spec.events_per_process = 8;
  spec.local_pred_prob = 0.5;
  spec.seed = 7;
  const auto comp = workload::make_random(spec);
  const ComputationInput in(comp);

  for (std::size_t s = 0; s < in.num_slots(); ++s) {
    std::optional<std::vector<StateIndex>> prev;
    for (StateIndex k = 1; k <= in.num_states(s); ++k) {
      const auto j = jil(in, s, k);
      if (j) {
        ASSERT_GE((*j)[s], k);
        if (prev) {
          for (std::size_t t = 0; t < in.num_slots(); ++t)
            EXPECT_LE((*prev)[t], (*j)[t]) << "slot " << s << " k " << k;
        }
      } else {
        // Existence is a prefix property: once J_s(k) fails, all later fail.
        for (StateIndex k2 = k; k2 <= in.num_states(s); ++k2)
          EXPECT_FALSE(jil(in, s, k2).has_value());
        break;
      }
      prev = j;
    }
  }
}

TEST(Slice, EmptyWhenPredicateNeverHolds) {
  ComputationBuilder b(2);
  b.transfer(ProcessId(0), ProcessId(1));
  b.transfer(ProcessId(1), ProcessId(0));
  const auto comp = b.build();  // default pred: false everywhere

  const Slice sl = Slice::build(comp);
  EXPECT_TRUE(sl.empty());
  EXPECT_EQ(sl.num_groups(), 0);
  EXPECT_EQ(sl.num_cuts().count, 0);
  EXPECT_FALSE(sl.contains(std::vector<StateIndex>{1, 1}));
  EXPECT_FALSE(sl.cuts().next().has_value());
}

TEST(Slice, AllTruePredicatesYieldEveryConsistentCut) {
  // Two structures: fully independent (lattice = full product) and chained.
  {
    ComputationBuilder b(3);
    for (int p = 0; p < 3; ++p) {
      b.set_default_pred(ProcessId(p), true);
      b.send(ProcessId(p), ProcessId((p + 1) % 3));  // undelivered
      b.send(ProcessId(p), ProcessId((p + 1) % 3));  // undelivered
    }
    const auto comp = b.build();
    const Slice sl = Slice::build(comp);
    EXPECT_EQ(sl.num_cuts().count, 27);  // 3^3, no causality
    const auto all = brute_force_consistent(comp);
    EXPECT_EQ(enumerate_slice(sl), std::set<Cut>(all.begin(), all.end()));
  }
  {
    ComputationBuilder b(2);
    b.set_default_pred(ProcessId(0), true);
    b.set_default_pred(ProcessId(1), true);
    b.transfer(ProcessId(0), ProcessId(1));
    b.transfer(ProcessId(1), ProcessId(0));
    const auto comp = b.build();
    const Slice sl = Slice::build(comp);
    const auto all = brute_force_consistent(comp);
    EXPECT_EQ(sl.num_cuts().count, static_cast<std::int64_t>(all.size()));
    EXPECT_EQ(enumerate_slice(sl), std::set<Cut>(all.begin(), all.end()));
  }
}

TEST(Slice, UndeliveredMessagesBlowupShapeHasOneCut) {
  // The E10 shape: no cross-causality (recv_state == 0 on every message),
  // predicate true only in the last states. The full lattice has states^n
  // cuts; the slice has exactly one.
  constexpr std::size_t kN = 4;
  constexpr std::int64_t kStates = 6;
  ComputationBuilder b(kN);
  for (std::size_t p = 0; p < kN; ++p)
    for (std::int64_t k = 1; k < kStates; ++k)
      b.send(ProcessId(static_cast<int>(p)),
             ProcessId(static_cast<int>((p + 1) % kN)));
  for (std::size_t p = 0; p < kN; ++p)
    b.mark_pred(ProcessId(static_cast<int>(p)), true);
  const auto comp = b.build();

  const Slice sl = Slice::build(comp);
  ASSERT_FALSE(sl.empty());
  const Cut last(kN, kStates);
  EXPECT_EQ(sl.bottom(), last);
  EXPECT_EQ(sl.top(), last);
  EXPECT_EQ(sl.num_cuts().count, 1);
  EXPECT_TRUE(sl.contains(last));
  EXPECT_FALSE(sl.contains(Cut(kN, 1)));
}

TEST(Slice, SingleProcessSliceIsTrueStates) {
  // One predicate slot; states 1 false, 2 true, 3 false, 4 true (state
  // boundaries via undelivered sends to a second, non-predicate process).
  ComputationBuilder b2(2);
  b2.set_predicate_processes({ProcessId(0)});
  b2.send(ProcessId(0), ProcessId(1));
  b2.mark_pred(ProcessId(0), true);  // state 2
  b2.send(ProcessId(0), ProcessId(1));
  b2.send(ProcessId(0), ProcessId(1));
  b2.mark_pred(ProcessId(0), true);  // state 4
  const auto comp = b2.build();

  const Slice sl = Slice::build(comp);
  ASSERT_FALSE(sl.empty());
  EXPECT_EQ(sl.bottom(), (Cut{2}));
  EXPECT_EQ(sl.top(), (Cut{4}));
  EXPECT_EQ(enumerate_slice(sl), (std::set<Cut>{{2}, {4}}));
}

TEST(Slice, NumCutsSaturatesAtCap) {
  ComputationBuilder b(3);
  for (int p = 0; p < 3; ++p) {
    b.set_default_pred(ProcessId(p), true);
    for (int k = 0; k < 4; ++k)
      b.send(ProcessId(p), ProcessId((p + 1) % 3));  // undelivered
  }
  const auto comp = b.build();  // 5^3 = 125 satisfying cuts

  const Slice sl = Slice::build(comp);
  EXPECT_EQ(sl.num_cuts().count, 125);
  EXPECT_FALSE(sl.num_cuts(125).saturated);  // exact cap is not saturation
  const auto capped = sl.num_cuts(100);
  EXPECT_TRUE(capped.saturated);
  EXPECT_EQ(capped.count, 100);
}

TEST(Slice, IteratorYieldsLevelOrder) {
  workload::RandomSpec spec;
  spec.num_processes = 3;
  spec.num_predicate = 3;
  spec.events_per_process = 6;
  spec.local_pred_prob = 0.6;
  spec.seed = 11;
  const auto comp = workload::make_random(spec);

  const Slice sl = Slice::build(comp);
  auto it = sl.cuts();
  StateIndex prev_level = 0;
  while (const auto cut = it.next()) {
    StateIndex level = 0;
    for (StateIndex k : *cut) level += k;
    EXPECT_GE(level, prev_level);
    prev_level = level;
  }
}

// ---- parallel-vs-serial equivalence ----------------------------------------
//
// The parallel build computes per-slot J columns concurrently but interns
// serially in slot order, so the slice — group numbering, edges, bottom,
// top, cut set — and the accumulated counters must be identical for every
// thread count.

TEST(Slice, ParallelBuildMatchesSerialOnRandomSweep) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 5;
    spec.num_predicate = 4;
    spec.events_per_process = 10;
    spec.local_pred_prob = 0.5;
    spec.seed = seed;
    const auto comp = workload::make_random(spec);

    SliceBuildCounters serial_ctr;
    const Slice serial = Slice::build(comp, &serial_ctr, /*threads=*/1);
    for (std::size_t threads : {2u, 8u}) {
      SliceBuildCounters ctr;
      const Slice par = Slice::build(comp, &ctr, threads);
      ASSERT_EQ(par.empty(), serial.empty()) << "seed " << seed;
      EXPECT_EQ(par.num_groups(), serial.num_groups()) << "seed " << seed;
      EXPECT_EQ(par.num_edges(), serial.num_edges()) << "seed " << seed;
      EXPECT_EQ(par.bottom(), serial.bottom()) << "seed " << seed;
      EXPECT_EQ(par.top(), serial.top()) << "seed " << seed;
      EXPECT_EQ(ctr.jil.calls, serial_ctr.jil.calls) << "seed " << seed;
      EXPECT_EQ(ctr.jil.advances, serial_ctr.jil.advances) << "seed " << seed;
      EXPECT_EQ(ctr.jil.clock_lookups, serial_ctr.jil.clock_lookups)
          << "seed " << seed;
      // Group numbering (not just the count) must match: same group id for
      // every state, same JIL cut per group.
      for (int g = 0; g < serial.num_groups(); ++g)
        EXPECT_EQ(par.group_cut(g), serial.group_cut(g)) << "seed " << seed;
      const auto procs = comp.predicate_processes();
      for (std::size_t s = 0; s < procs.size(); ++s)
        for (StateIndex k = 1; k <= comp.num_states(procs[s]); ++k)
          EXPECT_EQ(par.group_of(s, k), serial.group_of(s, k))
              << "seed " << seed << " slot " << s << " k " << k;
      const auto sc = serial.num_cuts();
      const auto pc = par.num_cuts();
      EXPECT_EQ(pc.count, sc.count) << "seed " << seed;
      EXPECT_EQ(pc.saturated, sc.saturated) << "seed " << seed;
    }
  }
}

TEST(Slice, ParallelBuildOfEmptySlice) {
  // One slot never true: the slice is empty; the parallel path exits before
  // any fan-out and must agree.
  ComputationBuilder b(3);
  b.mark_pred(ProcessId(0), true);
  b.mark_pred(ProcessId(2), true);
  const auto comp = b.build();
  for (std::size_t threads : {1u, 2u, 8u}) {
    const Slice sl = Slice::build(comp, nullptr, threads);
    EXPECT_TRUE(sl.empty());
    EXPECT_EQ(sl.num_groups(), 0);
  }
}

/// An all-states stream over comp's predicate slots, as the coordinator
/// host receives it: position k on slot s is state k, and its clock holds
/// the predicate-slot components of (procs[s], k). `base` is every slot's
/// retention floor.
class ComputationStream final : public app::StateStream {
 public:
  ComputationStream(const Computation& comp, StateIndex base)
      : comp_(comp), procs_(comp.predicate_processes().begin(),
                            comp.predicate_processes().end()),
        base_(base) {}
  [[nodiscard]] std::size_t slots() const override { return procs_.size(); }
  [[nodiscard]] StateIndex last(std::size_t s) const override {
    return comp_.num_states(procs_[s]);
  }
  [[nodiscard]] StateIndex base(std::size_t) const override { return base_; }
  [[nodiscard]] bool eos(std::size_t) const override { return true; }
  [[nodiscard]] StateIndex clock(std::size_t s, StateIndex pos,
                                 std::size_t t) const override {
    return comp_.clock_component(procs_[s], pos, procs_[t]);
  }
  [[nodiscard]] bool pred(std::size_t s, StateIndex pos) const override {
    return comp_.local_pred(procs_[s], pos);
  }

 private:
  const Computation& comp_;
  std::vector<ProcessId> procs_;
  StateIndex base_;
};

TEST(Slice, StreamInputSlicesLikeTheComputation) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 5;
    spec.num_predicate = 3;
    spec.events_per_process = 8;
    spec.local_pred_prob = 0.5;
    spec.seed = seed;
    const auto comp = workload::make_random(spec);
    const ComputationStream stream(comp, 1);
    const auto streamed = Slice::build(StreamInput(stream));
    const auto direct = Slice::build(comp);
    EXPECT_EQ(streamed.num_groups(), direct.num_groups()) << seed;
    EXPECT_EQ(streamed.num_edges(), direct.num_edges()) << seed;
    EXPECT_EQ(streamed.bottom(), direct.bottom()) << seed;
    EXPECT_EQ(streamed.top(), direct.top()) << seed;
    // Positions are state indices only while nothing was retired.
    const ComputationStream collected(comp, 2);
    EXPECT_THROW(StreamInput{collected}, std::invalid_argument);
  }
}

}  // namespace
}  // namespace wcp::slice
