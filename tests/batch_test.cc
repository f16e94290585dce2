// The batch sweep runner (detect/batch.h): rows must be independent of the
// sweep's thread count and must match what direct detector calls produce.
#include "detect/batch.h"

#include <gtest/gtest.h>

#include "detect/lattice.h"
#include "detect/sliced.h"
#include "detect/token_vc.h"
#include "workload/random_workload.h"

namespace wcp::detect {
namespace {

Computation make_case(std::uint64_t seed) {
  workload::RandomSpec spec;
  spec.num_processes = 6;
  spec.num_predicate = 3;
  spec.events_per_process = 15;
  spec.local_pred_prob = 0.3;
  spec.ensure_detectable = true;
  spec.seed = seed;
  return workload::make_random(spec);
}

TEST(Batch, CrossJobsEnumeratesAlgosMajor) {
  const auto jobs = cross_jobs({"a", "b"}, {1, 2, 3});
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_EQ(jobs[0].algo, "a");
  EXPECT_EQ(jobs[0].params.seed, 1u);
  EXPECT_EQ(jobs[2].params.seed, 3u);
  EXPECT_EQ(jobs[3].algo, "b");
}

TEST(Batch, RowsIndependentOfThreadCount) {
  const auto comp = make_case(5);
  const auto jobs = cross_jobs(
      {"token", "dd", "lattice", "lattice-sliced", "definitely", "oracle"},
      {1, 2});
  const auto serial = run_sweep(comp, jobs, /*threads=*/1);
  ASSERT_EQ(serial.size(), jobs.size());
  for (std::size_t threads : {2u, 8u}) {
    const auto par = run_sweep(comp, jobs, threads);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(par[i].algo, serial[i].algo) << "row " << i;
      EXPECT_EQ(par[i].seed, serial[i].seed) << "row " << i;
      EXPECT_EQ(par[i].verdict.detected, serial[i].verdict.detected)
          << "row " << i;
      EXPECT_EQ(par[i].verdict.cut, serial[i].verdict.cut) << "row " << i;
      EXPECT_EQ(par[i].verdict.cost, serial[i].verdict.cost) << "row " << i;
      EXPECT_EQ(par[i].report, serial[i].report) << "row " << i;
    }
  }
}

TEST(Batch, RowsMatchDirectDetectorCalls) {
  const auto comp = make_case(7);
  const auto rows = run_sweep(
      comp, cross_jobs({"lattice", "lattice-sliced", "token"}, {3}), 2);
  ASSERT_EQ(rows.size(), 3u);

  const auto lat = detect_lattice(comp, 10'000'000);
  EXPECT_EQ(rows[0].verdict.detected, lat.detected);
  EXPECT_EQ(rows[0].verdict.cut, lat.cut);
  EXPECT_EQ(rows[0].verdict.cost, lat.cuts_explored);

  const auto sliced = detect_lattice_sliced(comp);
  EXPECT_EQ(rows[1].verdict.detected, sliced.detected);
  EXPECT_EQ(rows[1].verdict.cut, sliced.cut);

  RunOptions o;
  o.seed = 3;
  o.latency = sim::LatencyModel::uniform(1, 6);
  const auto tok = run_token_vc(comp, o);
  EXPECT_EQ(rows[2].verdict.detected, tok.detected);
  EXPECT_EQ(rows[2].verdict.cut, tok.cut);

  // The two possibly-family detectors agree on the same trace — the
  // cross-check the randomized suites lean on.
  EXPECT_EQ(rows[0].verdict.detected, rows[1].verdict.detected);
  EXPECT_EQ(rows[0].verdict.cut, rows[1].verdict.cut);
}

TEST(Batch, UnknownAlgoThrows) {
  const auto comp = make_case(1);
  EXPECT_THROW(run_sweep(comp, {SweepJob{"nope", {}}}, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace wcp::detect
