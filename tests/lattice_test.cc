#include "detect/lattice.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "common/json.h"
#include "detect/report.h"
#include "detect/slot_clocks.h"
#include "workload/random_workload.h"

namespace wcp::detect {
namespace {

TEST(Lattice, DetectsTrivialInitialCut) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  b.mark_pred(ProcessId(1), true);
  const auto comp = b.build();
  const auto r = detect_lattice(comp);
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{1, 1}));
  EXPECT_EQ(r.cuts_explored, 1);
}

TEST(Lattice, FindsTheMinimalWcpCut) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 4;
    spec.num_predicate = 4;
    spec.events_per_process = 10;
    spec.local_pred_prob = 0.3;
    spec.seed = seed;
    const auto comp = workload::make_random(spec);
    const auto expect = comp.first_wcp_cut();
    const auto r = detect_lattice(comp);
    ASSERT_EQ(r.detected, expect.has_value()) << "seed " << seed;
    if (expect) EXPECT_EQ(r.cut, *expect) << "seed " << seed;
  }
}

TEST(Lattice, NotDetectedExploresWholeLattice) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);  // P1 never true
  b.transfer(ProcessId(0), ProcessId(1));
  const auto comp = b.build();
  const auto r = detect_lattice(comp);
  EXPECT_FALSE(r.detected);
  EXPECT_FALSE(r.truncated);
  // P0 has 2 states, P1 has 2 states; consistent cuts: (1,1),(2,1),(2,2)
  // — (1,2) is inconsistent because (0,1) -> (1,2).
  EXPECT_EQ(r.cuts_explored, 3);
}

TEST(Lattice, ExplorationBlowupOnIndependentProcesses) {
  // No communication: every cut is consistent, lattice size = (m+1)^n.
  // With the predicate true only in the last states, BFS must visit the
  // whole lattice below the top.
  ComputationBuilder b2(3);
  // Each process gets 4 states via sends that are never received (sends
  // create causality only when delivered), so all states stay concurrent.
  for (int p = 0; p < 3; ++p)
    for (int k = 0; k < 3; ++k)
      b2.send(ProcessId(p), ProcessId((p + 1) % 3));  // never received
  for (int p = 0; p < 3; ++p) b2.mark_pred(ProcessId(p), true);  // state 4
  const auto comp = b2.build();
  const auto r = detect_lattice(comp);
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{4, 4, 4}));
  // 4^3 = 64 cuts; BFS in level order visits every cut of level < 12 plus
  // the top: all 64.
  EXPECT_EQ(r.cuts_explored, 64);
}

TEST(Lattice, TruncationCapRespected) {
  ComputationBuilder b(2);
  for (int k = 0; k < 6; ++k) b.send(ProcessId(0), ProcessId(1));
  const auto comp = b.build();  // predicate never true: full exploration
  const auto r = detect_lattice(comp, /*max_cuts=*/5);
  EXPECT_FALSE(r.detected);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.cuts_explored, 5);
}

TEST(Lattice, FrontierTracked) {
  ComputationBuilder b(2);
  b.send(ProcessId(0), ProcessId(1));
  b.send(ProcessId(1), ProcessId(0));
  const auto comp = b.build();
  const auto r = detect_lattice(comp);
  EXPECT_GE(r.max_frontier, 1);
}

// ---- parallel-vs-serial equivalence ----------------------------------------
//
// The level-parallel explorer must be indistinguishable from the serial
// baseline for every thread count: same verdict, same cut, same counters —
// down to the byte in the JSON run report.

std::string lattice_record(const Computation& comp, const LatticeResult& r) {
  std::ostringstream oss;
  json::Writer w(oss, 0);
  ReportParams rp;
  rp.N = static_cast<std::int64_t>(comp.num_processes());
  rp.n = static_cast<std::int64_t>(comp.predicate_processes().size());
  rp.m = comp.max_messages_per_process();
  write_run_report(w, "test:lattice", rp,
                   {{"detected", r.detected ? 1 : 0},
                    {"cuts_explored", r.cuts_explored},
                    {"max_frontier", r.max_frontier},
                    {"truncated", r.truncated ? 1 : 0}},
                   std::nullopt, std::nullopt);
  return oss.str();
}

TEST(Lattice, ParallelMatchesSerialOnRandomSweep) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 5;
    spec.num_predicate = 4;
    spec.events_per_process = 12;
    spec.local_pred_prob = 0.3;
    spec.seed = seed;
    const auto comp = workload::make_random(spec);
    const auto serial = detect_lattice(comp, /*max_cuts=*/-1, /*threads=*/1);
    const std::string serial_rec = lattice_record(comp, serial);
    for (std::size_t threads : {2u, 8u}) {
      const auto par = detect_lattice(comp, /*max_cuts=*/-1, threads);
      EXPECT_EQ(par.detected, serial.detected) << "seed " << seed;
      EXPECT_EQ(par.cut, serial.cut) << "seed " << seed;
      EXPECT_EQ(par.cuts_explored, serial.cuts_explored) << "seed " << seed;
      EXPECT_EQ(par.max_frontier, serial.max_frontier) << "seed " << seed;
      EXPECT_EQ(par.truncated, serial.truncated) << "seed " << seed;
      EXPECT_EQ(lattice_record(comp, par), serial_rec) << "seed " << seed;
    }
  }
}

TEST(Lattice, ParallelMatchesSerialWhenNeverDetected) {
  // Predicate never true on P1: full exploration, counters must replay the
  // serial pop/push interleaving exactly.
  ComputationBuilder b(3);
  for (int k = 0; k < 4; ++k) b.send(ProcessId(0), ProcessId(1));
  for (int k = 0; k < 3; ++k) b.send(ProcessId(2), ProcessId(0));
  b.mark_pred(ProcessId(0), true);
  b.mark_pred(ProcessId(2), true);
  const auto comp = b.build();
  const auto serial = detect_lattice(comp, -1, 1);
  ASSERT_FALSE(serial.detected);
  for (std::size_t threads : {2u, 8u}) {
    const auto par = detect_lattice(comp, -1, threads);
    EXPECT_FALSE(par.detected);
    EXPECT_EQ(par.cuts_explored, serial.cuts_explored);
    EXPECT_EQ(par.max_frontier, serial.max_frontier);
  }
}

TEST(Lattice, ParallelMatchesSerialUnderTruncation) {
  ComputationBuilder b(2);
  for (int k = 0; k < 8; ++k) b.send(ProcessId(0), ProcessId(1));
  const auto comp = b.build();  // predicate never true
  for (std::int64_t cap : {1, 3, 5, 7}) {
    const auto serial = detect_lattice(comp, cap, 1);
    ASSERT_TRUE(serial.truncated);
    for (std::size_t threads : {2u, 8u}) {
      const auto par = detect_lattice(comp, cap, threads);
      EXPECT_TRUE(par.truncated) << "cap " << cap;
      EXPECT_EQ(par.cuts_explored, serial.cuts_explored) << "cap " << cap;
      EXPECT_EQ(par.max_frontier, serial.max_frontier) << "cap " << cap;
    }
  }
}

TEST(Lattice, DefinitelyParallelMatchesSerialOnRandomSweep) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    workload::RandomSpec spec;
    spec.num_processes = 4;
    spec.num_predicate = 3;
    spec.events_per_process = 10;
    spec.local_pred_prob = 0.4;
    spec.seed = seed;
    const auto comp = workload::make_random(spec);
    const auto serial = detect_definitely(comp, /*max_cuts=*/-1, /*threads=*/1);
    for (std::size_t threads : {2u, 8u}) {
      const auto par = detect_definitely(comp, /*max_cuts=*/-1, threads);
      EXPECT_EQ(par.definitely, serial.definitely) << "seed " << seed;
      EXPECT_EQ(par.cuts_explored, serial.cuts_explored) << "seed " << seed;
      EXPECT_EQ(par.truncated, serial.truncated) << "seed " << seed;
      EXPECT_EQ(par.witness, serial.witness) << "seed " << seed;
    }
  }
}

// ---- successor kernel ---------------------------------------------------
//
// Differential test of the one-direction slot-clock check (slot_clocks.h)
// against the full pairwise oracle: from every consistent cut reachable
// from the bottom, every slot advance must get the same answer from
// SlotClockTable::advance_consistent as from Computation::is_consistent_cut.
// The predicates never hold, so the engines' searches are exhaustive and
// must visit exactly the cuts enumerated here.

/// All consistent cuts over `procs` reachable from the bottom, enumerated
/// with the oracle alone; checks the kernel at every advance on the way.
std::size_t check_kernel_exhaustively(const Computation& comp,
                                      std::span<const ProcessId> procs) {
  const SlotClockTable clocks(comp, procs);
  const std::size_t w = procs.size();
  for (std::size_t s = 0; s < w; ++s) {
    EXPECT_EQ(clocks.num_states(s), comp.num_states(procs[s]));
    for (StateIndex k = 1; k <= clocks.num_states(s); ++k)
      EXPECT_EQ(clocks.pred(s, k), comp.local_pred(procs[s], k));
  }
  std::set<std::vector<StateIndex>> seen;
  std::vector<std::vector<StateIndex>> stack{std::vector<StateIndex>(w, 1)};
  seen.insert(stack.back());
  while (!stack.empty()) {
    const std::vector<StateIndex> cut = std::move(stack.back());
    stack.pop_back();
    for (std::size_t s = 0; s < w; ++s) {
      if (cut[s] == comp.num_states(procs[s])) continue;
      std::vector<StateIndex> next = cut;
      next[s] += 1;
      const bool oracle = comp.is_consistent_cut(procs, next);
      EXPECT_EQ(clocks.advance_consistent(cut, s), oracle)
          << "slot " << s << " of a " << w << "-slot cut";
      if (oracle && seen.insert(next).second) stack.push_back(next);
    }
  }
  return seen.size();
}

TEST(Lattice, SlotClockKernelMatchesPairwiseOracle) {
  struct Shape {
    std::size_t N, n;
    std::int64_t events;
  };
  for (const Shape shape : {Shape{6, 6, 3}, Shape{6, 6, 4}, Shape{5, 3, 5},
                            Shape{4, 4, 8}, Shape{3, 2, 12}}) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      workload::RandomSpec spec;
      spec.num_processes = shape.N;
      spec.num_predicate = shape.n;
      spec.random_predicate_subset = shape.N != shape.n;
      spec.events_per_process = shape.events;
      spec.local_pred_prob = 0.0;  // never holds: exhaustive searches
      spec.seed = seed;
      const auto comp = workload::make_random(spec);
      ASSERT_GT(comp.messages().size(), 0u);
      const std::size_t cuts =
          check_kernel_exhaustively(comp, comp.predicate_processes());
      for (std::size_t threads : {1u, 4u}) {
        const auto lat = detect_lattice(comp, -1, threads);
        EXPECT_FALSE(lat.detected);
        EXPECT_EQ(lat.cuts_explored, static_cast<std::int64_t>(cuts))
            << "N=" << shape.N << " n=" << shape.n << " seed " << seed;
      }
      // Over every process, as the GCP and relational searches build it
      // (non-predicate processes included).
      std::vector<ProcessId> all;
      for (std::size_t p = 0; p < shape.N; ++p)
        all.emplace_back(static_cast<int>(p));
      check_kernel_exhaustively(comp, all);
    }
  }
}

TEST(Lattice, ThreadsZeroResolvesToDefault) {
  ComputationBuilder b(2);
  b.mark_pred(ProcessId(0), true);
  b.mark_pred(ProcessId(1), true);
  const auto comp = b.build();
  const auto r = detect_lattice(comp, -1, /*threads=*/0);
  EXPECT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{1, 1}));
}

}  // namespace
}  // namespace wcp::detect
