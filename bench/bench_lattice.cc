// E10 — §1: general-predicate detection à la Cooper-Marzullo must search
// the global-state lattice, which blows up combinatorially (the group-
// checker decentralization of [7] has the same exponential hazard); the
// WCP-specialized algorithms stay polynomial.
//
// Workload: n processes with NO cross-causality (all sends undelivered)
// and the predicate true only in the last states — the lattice has
// (m+1)^n cuts and BFS must visit all of them; the token algorithm walks
// straight to the final cut.
//
// Counters:
//   lattice_cuts        consistent cuts the baseline explored
//   token_work          the token algorithm's total work on the same run
//   blowup              lattice_cuts / token_work
//
// BM_Lattice_Parallel sweeps detect_lattice over thread counts on the
// N=6, m=10 blowup point (the EXPERIMENTS.md E10 speedup row); the
// parallel explorer returns bit-identical results, so only wall clock
// moves. BM_Lattice_Sweep drives the detect/batch.h sweep runner.
#include "bench_common.h"
#include "detect/batch.h"
#include "detect/lattice.h"
#include "detect/token_vc.h"

namespace wcp::bench {
namespace {

Computation independent_workload(std::size_t n, std::int64_t states) {
  ComputationBuilder b(n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::int64_t k = 1; k < states; ++k)
      b.send(ProcessId(static_cast<int>(p)),
             ProcessId(static_cast<int>((p + 1) % n)));  // never delivered
  for (std::size_t p = 0; p < n; ++p)
    b.mark_pred(ProcessId(static_cast<int>(p)), true);
  return b.build();
}

void BM_Lattice_Blowup(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::int64_t states = state.range(1);
  const auto comp = independent_workload(n, states);

  detect::LatticeResult lat;
  detect::DetectionResult token;
  for (auto _ : state) {
    lat = detect::detect_lattice(comp, /*max_cuts=*/50'000'000);
    token = detect::run_token_vc(comp, default_opts());
    benchmark::DoNotOptimize(lat.detected);
  }

  state.counters["n"] = static_cast<double>(n);
  state.counters["states_per_proc"] = static_cast<double>(states);
  state.counters["lattice_cuts"] = static_cast<double>(lat.cuts_explored);
  state.counters["lattice_frontier"] = static_cast<double>(lat.max_frontier);
  state.counters["token_work"] =
      static_cast<double>(token.monitor_metrics.total_work());
  state.counters["blowup"] =
      static_cast<double>(lat.cuts_explored) /
      static_cast<double>(token.monitor_metrics.total_work());
  state.counters["peak_storage_bytes"] =
      static_cast<double>(lat.storage.peak_bytes);

  // bound = states^n, the lattice size this workload forces the general
  // baseline to explore; ratio ~1 certifies the blowup is really realized.
  // Exact saturating-uint64 arithmetic: std::pow went through double and
  // already misrounds for bounds past 2^53.
  detect::ReportParams rp;
  rp.N = static_cast<std::int64_t>(n);
  rp.n = static_cast<std::int64_t>(n);
  rp.m = states;
  const std::uint64_t bound =
      saturating_pow(static_cast<std::uint64_t>(states), n);
  report_run(state, "E10_lattice", rp,
             {{"lattice_cuts", lat.cuts_explored},
              {"lattice_frontier", lat.max_frontier},
              {"token_work", token.monitor_metrics.total_work()},
              {"blowup",
               static_cast<double>(lat.cuts_explored) /
                   static_cast<double>(token.monitor_metrics.total_work())},
              {"peak_storage_bytes", lat.storage.peak_bytes},
              {"cuts_interned", lat.storage.cuts_interned},
              {"table_probes", lat.storage.table_probes},
              {"hot_allocs", lat.storage.heap_allocs}},
             static_cast<double>(bound),
             static_cast<double>(lat.cuts_explored) /
                 static_cast<double>(bound));
}
BENCHMARK(BM_Lattice_Blowup)
    ->Args({2, 10})
    ->Args({3, 10})
    ->Args({4, 10})
    ->Args({5, 10})
    ->Args({6, 10})
    ->Args({4, 5})
    ->Args({4, 20})
    ->Args({4, 40});

// Thread sweep on the biggest square blowup point (n=6, m=10: 10^6 cuts).
// The results are identical across thread counts — the row's value is the
// wall-clock column, the EXPERIMENTS.md E10 speedup-vs-threads row.
void BM_Lattice_Parallel(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 6;
  const std::int64_t states = 10;
  const auto comp = independent_workload(n, states);

  detect::LatticeResult lat;
  for (auto _ : state) {
    lat = detect::detect_lattice(comp, /*max_cuts=*/50'000'000, threads);
    benchmark::DoNotOptimize(lat.detected);
  }

  state.counters["threads"] = static_cast<double>(threads);
  state.counters["lattice_cuts"] = static_cast<double>(lat.cuts_explored);
  state.counters["lattice_frontier"] = static_cast<double>(lat.max_frontier);
  state.counters["peak_storage_bytes"] =
      static_cast<double>(lat.storage.peak_bytes);

  detect::ReportParams rp;
  rp.N = static_cast<std::int64_t>(n);
  rp.n = static_cast<std::int64_t>(n);
  rp.m = states;
  // storage stays out of the CLI's JSON report (and so out of its
  // byte-diff gate); it is recorded in the per-thread-count rows here.
  report_run(state, "E10_lattice_par_t" + std::to_string(threads), rp,
             {{"threads", static_cast<std::int64_t>(threads)},
              {"lattice_cuts", lat.cuts_explored},
              {"lattice_frontier", lat.max_frontier},
              {"peak_storage_bytes", lat.storage.peak_bytes},
              {"cuts_interned", lat.storage.cuts_interned},
              {"table_probes", lat.storage.table_probes},
              {"hot_allocs", lat.storage.heap_allocs}},
             std::nullopt, std::nullopt);
}
BENCHMARK(BM_Lattice_Parallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Batch sweep runner (detect/batch.h): the whole one-trace × many-(algo,
// seed) grid as one call, jobs fanned out across the pool.
void BM_Lattice_Sweep(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const auto& comp = cached_random(/*N=*/8, /*n=*/4, /*events=*/25,
                                   /*seed=*/11);
  const auto jobs = detect::cross_jobs({"lattice", "lattice-sliced", "token"},
                                       {1, 2, 3, 4});

  std::vector<detect::SweepRow> rows;
  for (auto _ : state) {
    rows = detect::run_sweep(comp, jobs, threads);
    benchmark::DoNotOptimize(rows.size());
  }

  std::int64_t cost = 0;
  for (const auto& row : rows) cost += row.verdict.cost;
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["jobs"] = static_cast<double>(jobs.size());

  detect::ReportParams rp;
  rp.N = 8;
  rp.n = 4;
  rp.m = comp.max_messages_per_process();
  rp.seed = 11;
  report_run(state, "E10_sweep_t" + std::to_string(threads), rp,
             {{"threads", static_cast<std::int64_t>(threads)},
              {"jobs", static_cast<std::int64_t>(jobs.size())},
              {"total_cost", cost}},
             std::nullopt, std::nullopt);
}
BENCHMARK(BM_Lattice_Sweep)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace wcp::bench
