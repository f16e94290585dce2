// Randomized equivalence suite for the flat cut storage and the table-free
// lattice search: the detectors must be observably identical to the
// pre-flat representation. The reference implementations (below and in
// ref_lattice.h) are the old std::queue +
// std::unordered_set<std::vector<StateIndex>> code paths, kept as
// test-only oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/cut_hash.h"
#include "detect/batch.h"
#include "detect/gcp.h"
#include "detect/lattice.h"
#include "detect/relational.h"
#include "detect/sliced.h"
#include "predicate/program.h"
#include "ref_lattice.h"
#include "slice/slice.h"
#include "workload/random_workload.h"

namespace wcp::detect {
namespace {

using Cut = std::vector<StateIndex>;

// ---- reference implementations (pre-flat-storage code) ----------------------

struct RefDefinitelyResult {
  bool definitely = false;
  bool truncated = false;
  std::int64_t cuts_explored = 0;
  Cut witness;
};

Cut ref_reconstruct_witness(const Computation& comp, std::size_t n,
                            const Cut& top,
                            const std::unordered_map<Cut, Cut, CutHash>&
                                parent_of) {
  std::vector<Cut> path;
  for (Cut c = top;;) {
    path.push_back(c);
    const Cut& p = parent_of.at(c);
    if (p == c) break;
    c = p;
  }
  std::reverse(path.begin(), path.end());
  Cut witness = path.front();
  if (const auto min_sat = comp.first_wcp_cut()) {
    const auto leq = [&](const Cut& a) {
      for (std::size_t s = 0; s < n; ++s)
        if (a[s] > (*min_sat)[s]) return false;
      return true;
    };
    for (const Cut& c : path)
      if (!leq(c)) {
        witness = c;
        break;
      }
  }
  return witness;
}

RefDefinitelyResult ref_detect_definitely(const Computation& comp,
                                          std::int64_t max_cuts) {
  const auto procs = comp.predicate_processes();
  const std::size_t n = procs.size();
  RefDefinitelyResult res;

  auto satisfies = [&](const Cut& cut) {
    for (std::size_t s = 0; s < n; ++s)
      if (!comp.local_pred(procs[s], cut[s])) return false;
    return true;
  };

  Cut top(n);
  for (std::size_t s = 0; s < n; ++s) top[s] = comp.num_states(procs[s]);

  Cut initial(n, 1);
  if (satisfies(initial)) {
    res.definitely = true;
    res.cuts_explored = 1;
    return res;
  }

  std::queue<Cut> frontier;
  std::unordered_map<Cut, Cut, CutHash> parent;
  frontier.push(initial);
  parent.emplace(initial, initial);

  res.definitely = true;
  while (!frontier.empty()) {
    Cut cut = std::move(frontier.front());
    frontier.pop();
    ++res.cuts_explored;
    if (cut == top) {
      res.definitely = false;
      res.witness = ref_reconstruct_witness(comp, n, cut, parent);
      return res;
    }
    if (max_cuts >= 0 && res.cuts_explored >= max_cuts) {
      res.truncated = true;
      return res;
    }
    for (std::size_t s = 0; s < n; ++s) {
      if (cut[s] + 1 > comp.num_states(procs[s])) continue;
      Cut next = cut;
      next[s] += 1;
      bool consistent = true;
      for (std::size_t t = 0; t < n && consistent; ++t) {
        if (t == s) continue;
        if (comp.happened_before(procs[s], next[s], procs[t], next[t]) ||
            comp.happened_before(procs[t], next[t], procs[s], next[s]))
          consistent = false;
      }
      if (!consistent || satisfies(next)) continue;
      if (parent.emplace(next, cut).second) frontier.push(std::move(next));
    }
  }
  return res;
}

// ---- equivalence sweeps -----------------------------------------------------

Computation random_comp(std::uint64_t seed, std::size_t N, std::size_t n,
                        std::int64_t m, double prob = 0.3) {
  workload::RandomSpec spec;
  spec.num_processes = N;
  spec.num_predicate = n;
  spec.events_per_process = m;
  spec.local_pred_prob = prob;
  spec.seed = seed;
  return workload::make_random(spec);
}

TEST(FlatStorageEquiv, LatticeMatchesReferenceAcrossThreads) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const auto comp = random_comp(seed, 5, 4, 12);
    const auto ref = ref_detect_lattice(comp, -1);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      const auto r = detect_lattice(comp, -1, threads);
      EXPECT_EQ(r.detected, ref.detected) << "seed " << seed;
      EXPECT_EQ(r.cut, ref.cut) << "seed " << seed;
      EXPECT_EQ(r.cuts_explored, ref.cuts_explored) << "seed " << seed;
      EXPECT_EQ(r.max_frontier, ref.max_frontier) << "seed " << seed;
      EXPECT_EQ(r.truncated, ref.truncated) << "seed " << seed;
    }
  }
}

TEST(FlatStorageEquiv, LatticeMatchesReferenceUnderTruncation) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto comp = random_comp(seed, 4, 4, 10, /*prob=*/0.05);
    for (const std::int64_t cap : {1, 7, 50, 400}) {
      const auto ref = ref_detect_lattice(comp, cap);
      for (const std::size_t threads : {1u, 2u, 8u}) {
        const auto r = detect_lattice(comp, cap, threads);
        EXPECT_EQ(r.detected, ref.detected) << seed << "/" << cap;
        EXPECT_EQ(r.cut, ref.cut) << seed << "/" << cap;
        EXPECT_EQ(r.cuts_explored, ref.cuts_explored) << seed << "/" << cap;
        EXPECT_EQ(r.max_frontier, ref.max_frontier) << seed << "/" << cap;
        EXPECT_EQ(r.truncated, ref.truncated) << seed << "/" << cap;
      }
    }
  }
}

TEST(FlatStorageEquiv, DefinitelyMatchesReference) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const auto comp = random_comp(seed, 4, 3, 10, /*prob=*/0.4);
    const auto ref = ref_detect_definitely(comp, -1);
    const auto r = detect_definitely(comp, -1);
    EXPECT_EQ(r.definitely, ref.definitely) << "seed " << seed;
    EXPECT_EQ(r.cuts_explored, ref.cuts_explored) << "seed " << seed;
    EXPECT_EQ(r.truncated, ref.truncated) << "seed " << seed;
    EXPECT_EQ(r.witness, ref.witness) << "seed " << seed;
  }
}

TEST(FlatStorageEquiv, GcpLatticeMatchesReferenceStructure) {
  // detect_gcp_lattice with no channel predicates explores exactly the
  // conjunctive lattice, so the lattice reference doubles as its oracle.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto comp = random_comp(seed, 4, 4, 10);
    const auto ref = ref_detect_lattice(comp, -1);
    const auto r = detect_gcp_lattice(comp, {}, -1);
    EXPECT_EQ(r.detected, ref.detected) << "seed " << seed;
    EXPECT_EQ(r.cut, ref.cut) << "seed " << seed;
    EXPECT_EQ(r.cuts_explored, ref.cuts_explored) << "seed " << seed;
  }
}

TEST(FlatStorageEquiv, GcpLatticeWithChannelsMatchesAdvanceDetector) {
  // With channel predicates the lattice oracle and the advance-candidate
  // detector must keep agreeing on the (unique minimal) satisfying cut.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto comp = random_comp(seed, 3, 3, 8);
    const auto channels = ChannelPredicate::all_channels_empty(3);
    const auto oracle = detect_gcp_lattice(comp, channels, 2'000'000);
    ASSERT_FALSE(oracle.truncated) << "seed " << seed;
    const auto fast = detect_gcp(comp, channels);
    EXPECT_EQ(oracle.detected, fast.detected) << "seed " << seed;
    if (oracle.detected) EXPECT_EQ(oracle.cut, fast.cut) << "seed " << seed;
  }
}

TEST(FlatStorageEquiv, RelationalSearchMatchesReferenceLattice) {
  // With every process a predicate process and phi the conjunction of the
  // local-predicate bits bound into each state's env, the relational
  // search walks exactly the conjunctive lattice in the same slot order.
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const auto comp = random_comp(seed, 4, 4, 10, /*prob=*/0.2);
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
    for (const std::int64_t cap : {-1, 1, 7, 50}) {
      const auto ref = ref_detect_lattice(comp, cap);
      const auto r = detect_possibly_general(vc, conj, cap);
      EXPECT_EQ(r.detected, ref.detected) << seed << "/" << cap;
      EXPECT_EQ(r.cut, ref.cut) << seed << "/" << cap;
      EXPECT_EQ(r.cuts_explored, ref.cuts_explored) << seed << "/" << cap;
      EXPECT_EQ(r.truncated, ref.truncated) << seed << "/" << cap;
    }
  }
}

TEST(FlatStorageEquiv, SliceAgreesWithReferenceLattice) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const auto comp = random_comp(seed, 4, 4, 9);
    const auto ref = ref_detect_lattice(comp, -1);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      slice::SliceBuildCounters ctr;
      const auto s = slice::Slice::build(comp, &ctr, threads);
      EXPECT_EQ(!s.empty(), ref.detected) << "seed " << seed;
      if (ref.detected)
        EXPECT_EQ(s.bottom(), ref.cut) << "seed " << seed;
      // The interning order is serial for every thread count, so even the
      // storage counters are thread-invariant (unlike the detectors').
      EXPECT_GE(ctr.storage.cuts_interned, 0) << "seed " << seed;
    }
  }
}

TEST(FlatStorageEquiv, SliceEnumerationMatchesBruteForceSatisfyingCuts) {
  // Every satisfying consistent cut, by brute force over the full cube.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto comp = random_comp(seed, 3, 3, 6);
    const auto procs = comp.predicate_processes();
    const std::size_t n = procs.size();
    std::vector<Cut> brute;
    Cut c(n, 1);
    for (;;) {
      bool consistent = true, sat = true;
      for (std::size_t s = 0; s < n && consistent; ++s) {
        if (!comp.local_pred(procs[s], c[s])) sat = false;
        for (std::size_t t = 0; t < n && consistent; ++t) {
          if (t == s) continue;
          if (comp.happened_before(procs[s], c[s], procs[t], c[t]))
            consistent = false;
        }
      }
      if (consistent && sat) brute.push_back(c);
      std::size_t s = 0;
      while (s < n && c[s] == comp.num_states(procs[s])) c[s++] = 1;
      if (s == n) break;
      c[s] += 1;
    }

    const auto slice = slice::Slice::build(comp);
    EXPECT_EQ(slice.num_cuts().count,
              static_cast<std::int64_t>(brute.size()))
        << "seed " << seed;
    auto it = slice.cuts();
    std::vector<Cut> enumerated;
    while (const auto cut = it.next()) enumerated.push_back(*cut);
    std::sort(brute.begin(), brute.end());
    std::sort(enumerated.begin(), enumerated.end());
    EXPECT_EQ(enumerated, brute) << "seed " << seed;
  }
}

// ---- thread-count differential oracle -------------------------------------
//
// The lattice search (ALGORITHMS.md §15) promises byte-identical
// observable output at every thread count: however a level is split over
// lanes, the next level is the serial BFS queue in its order. The sweep
// below drives lattice / definitely / sliced over 32 randomized traces —
// including truncation caps and witness-producing traces — at threads
// 1/2/4/8 and byte-diffs the full JSON run reports against the serial
// rows.

TEST(FlatStorageEquiv, DifferentialOracleSweepByteIdenticalReports) {
  struct TraceSpec {
    std::uint64_t seed;
    std::size_t N, n;
    std::int64_t m;
    double prob;
    std::int64_t max_cuts;
  };
  std::vector<TraceSpec> specs;
  for (std::uint64_t i = 0; i < 32; ++i) {
    TraceSpec t;
    t.seed = 100 + i;
    t.N = 4 + i % 2;
    t.n = 3 + i % 2;
    t.m = 6 + static_cast<std::int64_t>(i % 6);
    constexpr double kProbs[] = {0.05, 0.2, 0.35, 0.5};
    t.prob = kProbs[i % 4];
    // Every fifth trace gets a tiny cap to exercise the truncation path;
    // low-prob traces among the rest produce definitely=false witnesses.
    t.max_cuts = (i % 5 == 4) ? 25 : 10'000'000;
    specs.push_back(t);
  }

  const std::vector<std::string> algos = {"lattice", "lattice-sliced",
                                          "definitely", "definitely-sliced"};
  bool saw_truncation = false, saw_witness = false, saw_detection = false;
  for (const TraceSpec& ts : specs) {
    const auto comp = random_comp(ts.seed, ts.N, ts.n, ts.m, ts.prob);
    std::vector<SweepJob> jobs;
    for (const std::string& algo : algos) {
      SweepJob j;
      j.algo = algo;
      j.params.seed = ts.seed;
      j.params.max_cuts = ts.max_cuts;
      j.params.threads = 1;
      jobs.push_back(std::move(j));
    }
    const auto base = run_sweep(comp, jobs, /*threads=*/1);
    ASSERT_EQ(base.size(), algos.size());
    for (const SweepRow& row : base) {
      const Verdict& v = row.verdict;
      if (v.detected && row.algo == "lattice") saw_detection = true;
      if (!v.detected && row.algo == "definitely" && !v.cut.empty())
        saw_witness = true;
      if (row.report.find("\"truncated\":1") != std::string::npos)
        saw_truncation = true;
    }
    for (const std::size_t threads : {2u, 4u, 8u}) {
      auto tj = jobs;
      for (SweepJob& j : tj) j.params.threads = threads;
      const auto rows = run_sweep(comp, tj, /*threads=*/1);
      ASSERT_EQ(rows.size(), base.size());
      for (std::size_t k = 0; k < rows.size(); ++k) {
        EXPECT_EQ(rows[k].verdict.detected, base[k].verdict.detected)
            << algos[k] << " seed " << ts.seed << " threads " << threads;
        EXPECT_EQ(rows[k].verdict.cut, base[k].verdict.cut)
            << algos[k] << " seed " << ts.seed << " threads " << threads;
        EXPECT_EQ(rows[k].verdict.cost, base[k].verdict.cost)
            << algos[k] << " seed " << ts.seed << " threads " << threads;
        EXPECT_EQ(rows[k].report, base[k].report)
            << algos[k] << " seed " << ts.seed << " threads " << threads
            << ": JSON report not byte-identical";
      }
    }
  }
  // The spec mix must actually cover the interesting regimes.
  EXPECT_TRUE(saw_detection);
  EXPECT_TRUE(saw_witness);
  EXPECT_TRUE(saw_truncation);
}

TEST(FlatStorageEquiv, WitnessPathsByteIdenticalAcrossThreads) {
  // witness_path is not part of the sweep report; compare the full result
  // structs directly.
  for (std::uint64_t seed = 50; seed < 62; ++seed) {
    const auto comp = random_comp(seed, 4, 4, 10, /*prob=*/0.3);
    const auto bl = detect_lattice(comp, -1, 1);
    const auto ref = ref_detect_lattice(comp, -1);
    EXPECT_EQ(bl.witness_path, ref.witness_path) << seed;
    for (const std::size_t threads : {2u, 4u, 8u}) {
      const auto l = detect_lattice(comp, -1, threads);
      EXPECT_EQ(l.detected, bl.detected) << seed << "/" << threads;
      EXPECT_EQ(l.truncated, bl.truncated) << seed << "/" << threads;
      EXPECT_EQ(l.cut, bl.cut) << seed << "/" << threads;
      EXPECT_EQ(l.cuts_explored, bl.cuts_explored) << seed << "/" << threads;
      EXPECT_EQ(l.max_frontier, bl.max_frontier) << seed << "/" << threads;
      EXPECT_EQ(l.witness_path, bl.witness_path) << seed << "/" << threads;
      EXPECT_EQ(l.storage.cuts_interned, bl.storage.cuts_interned)
          << seed << "/" << threads;
      EXPECT_EQ(l.storage.peak_bytes, bl.storage.peak_bytes)
          << seed << "/" << threads;
    }
  }
}

TEST(FlatStorageEquiv, StorageStatsArePopulated) {
  const auto comp = random_comp(3, 4, 4, 10);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto r = detect_lattice(comp, -1, threads);
    EXPECT_GT(r.storage.peak_bytes, 0) << "threads " << threads;
    EXPECT_GT(r.storage.cuts_interned, 0) << "threads " << threads;
    // The search keeps no table of visited cuts, so it never probes one.
    EXPECT_EQ(r.storage.table_probes, 0) << "threads " << threads;
  }
  // Serial interned count == distinct cuts == visited-set size, which for a
  // completed exploration equals cuts explored.
  const auto serial = detect_lattice(comp, -1, 1);
  if (!serial.detected && !serial.truncated)
    EXPECT_EQ(serial.storage.cuts_interned, serial.cuts_explored);
}

}  // namespace
}  // namespace wcp::detect
