#include "detect/batch.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/json.h"
#include "common/thread_pool.h"

namespace wcp::detect {

namespace {

SweepRow run_one(const Computation& comp, const SweepJob& job) {
  SweepRow row;
  row.algo = job.algo;
  row.seed = job.params.seed;
  row.verdict = run_detector(comp, job.algo, job.params);
  std::ostringstream oss;
  json::Writer w(oss, /*indent=*/0);
  write_verdict_report(w, "sweep:" + job.algo, row.verdict,
                       /*include_wall_clock=*/false);
  row.report = oss.str();
  return row;
}

}  // namespace

std::vector<SweepRow> run_sweep(const Computation& comp,
                                const std::vector<SweepJob>& jobs,
                                std::size_t threads) {
  WCP_REQUIRE(!comp.predicate_processes().empty(), "empty predicate");
  if (jobs.empty()) return {};
  // Force the lazily built trace store into existence before the fan-out:
  // Computation materializes it on first use, which must not happen
  // concurrently.
  (void)comp.trace_store();
  common::ThreadPool pool(std::min(resolve_threads(threads), jobs.size()));
  return pool.parallel_map<SweepRow>(
      jobs.size(), [&](std::size_t i) { return run_one(comp, jobs[i]); },
      /*grain=*/1);
}

std::vector<SweepJob> cross_jobs(const std::vector<std::string>& algos,
                                 const std::vector<std::uint64_t>& seeds) {
  std::vector<SweepJob> jobs;
  jobs.reserve(algos.size() * seeds.size());
  for (const std::string& algo : algos)
    for (std::uint64_t seed : seeds) {
      SweepJob j;
      j.algo = algo;
      j.params.seed = seed;
      jobs.push_back(std::move(j));
    }
  return jobs;
}

}  // namespace wcp::detect
