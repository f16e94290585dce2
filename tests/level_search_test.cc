// The table-free lattice search (search_levels, detect/slot_clocks.h) on
// the inputs that stress it: capped searches of wide lattices, stops in
// the middle of a level of thousands of cuts, and cut masks wider than one
// 64-bit word. Every result is checked against the reference BFS of
// ref_lattice.h at lanes 1/2/4/8.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "detect/lattice.h"
#include "detect/relational.h"
#include "predicate/program.h"
#include "ref_lattice.h"
#include "workload/random_workload.h"

namespace wcp::detect {
namespace {

constexpr std::size_t kLanes[] = {1, 2, 4, 8};

/// The E20 shape: `n` processes with no delivered message, `states` states
/// each, the local predicate true from state `first_true` on.
Computation independent(std::size_t n, std::int64_t states,
                        StateIndex first_true) {
  ComputationBuilder b(n);
  for (std::size_t p = 0; p < n; ++p) {
    const ProcessId pid(static_cast<int>(p));
    if (first_true <= 1) b.mark_pred(pid);
    for (std::int64_t k = 2; k <= states; ++k) {
      b.send(pid, ProcessId(static_cast<int>((p + 1) % n)));
      if (k >= first_true) b.mark_pred(pid);
    }
  }
  return b.build();
}

void expect_matches_reference(const Computation& comp, std::int64_t cap) {
  const auto ref = ref_detect_lattice(comp, cap);
  for (const std::size_t lanes : kLanes) {
    SCOPED_TRACE("cap " + std::to_string(cap) + ", lanes " +
                 std::to_string(lanes));
    const auto r = detect_lattice(comp, cap, lanes);
    EXPECT_EQ(r.detected, ref.detected);
    EXPECT_EQ(r.cut, ref.cut);
    EXPECT_EQ(r.cuts_explored, ref.cuts_explored);
    EXPECT_EQ(r.max_frontier, ref.max_frontier);
    EXPECT_EQ(r.truncated, ref.truncated);
    EXPECT_EQ(r.witness_path, ref.witness_path);
    EXPECT_EQ(r.storage.cuts_interned, ref.cuts_interned);
  }
}

TEST(LevelSearch, CappedSearchStaysWithinItsCap) {
  // A 16-process lattice far too large to enumerate, capped at 20000 pops:
  // the serial BFS holds 54191 cuts when it stops, and so must every lane
  // count (a search that overshoots its cap held millions).
  workload::RandomSpec spec;
  spec.num_processes = 16;
  spec.num_predicate = 16;
  spec.events_per_process = 12;
  spec.local_pred_prob = 0.0;
  spec.ensure_detectable = false;
  spec.seed = 3;
  const auto comp = workload::make_random(spec);
  for (const std::size_t lanes : kLanes) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    const auto r = detect_lattice(comp, 20'000, lanes);
    EXPECT_TRUE(r.truncated);
    EXPECT_EQ(r.cuts_explored, 20'000);
    EXPECT_EQ(r.storage.cuts_interned, 54'191);
    EXPECT_LT(r.storage.peak_bytes, std::int64_t{64} << 20);
  }
}

TEST(LevelSearch, StopsInsideAWideLevel) {
  // 10^6 cuts; the first satisfying cut (5, ..., 5) sits at level 24, one
  // of its ~56000 cuts, so the stop falls inside a level split over lanes.
  const auto comp = independent(6, 10, 5);
  expect_matches_reference(comp, -1);
  for (const std::int64_t cap : {7, 50, 123'457})
    expect_matches_reference(comp, cap);
}

TEST(LevelSearch, MasksWiderThanOneWord) {
  // 70 predicate processes: every cut's mask spans two 64-bit words.
  workload::RandomSpec spec;
  spec.num_processes = 70;
  spec.num_predicate = 70;
  spec.events_per_process = 3;
  spec.local_pred_prob = 0.97;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    spec.seed = seed;
    const auto comp = workload::make_random(spec);
    for (const std::int64_t cap : {1, 200, 6'000})
      expect_matches_reference(comp, cap);
  }
}

TEST(LevelSearch, RelationalSearchWiderThanOneWord) {
  // The relational search over all 70 processes, with phi the conjunction
  // of the local predicates, walks the conjunctive lattice.
  workload::RandomSpec spec;
  spec.num_processes = 70;
  spec.num_predicate = 70;
  spec.events_per_process = 3;
  spec.local_pred_prob = 0.97;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    spec.seed = seed;
    const auto comp = workload::make_random(spec);
    pred::VarComputation vc{comp, {}};
    for (std::size_t p = 0; p < comp.num_processes(); ++p) {
      const ProcessId pid(static_cast<int>(p));
      auto& envs = vc.state_envs.emplace_back();
      for (StateIndex k = 1; k <= comp.num_states(pid); ++k)
        envs.emplace_back().set("pred", comp.local_pred(pid, k) ? 1 : 0);
    }
    const GlobalPredicate conj = [](std::span<const pred::Env> envs) {
      return std::all_of(envs.begin(), envs.end(), [](const pred::Env& e) {
        return e.get("pred") != 0;
      });
    };
    for (const std::int64_t cap : {1, 200, 6'000}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", cap " +
                   std::to_string(cap));
      const auto ref = ref_detect_lattice(comp, cap);
      const auto r = detect_possibly_general(vc, conj, cap);
      EXPECT_EQ(r.detected, ref.detected);
      EXPECT_EQ(r.cut, ref.cut);
      EXPECT_EQ(r.cuts_explored, ref.cuts_explored);
      EXPECT_EQ(r.truncated, ref.truncated);
      EXPECT_EQ(r.storage.cuts_interned, ref.cuts_interned);
    }
  }
}

}  // namespace
}  // namespace wcp::detect
