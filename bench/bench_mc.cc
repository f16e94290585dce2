// E20 — multicore scaling of the table-free lattice search
// (search_levels, ALGORITHMS.md §15).
//
// Workload: the E10 blowup point (n = 6 independent processes, m = 10, so
// the full 10^6-cut lattice is explored) — the largest committed
// exploration. Its levels start and end narrow: the levels below the
// search's inline threshold run on the calling thread at every K, so the
// speedup measures how well the wide middle levels split over lanes.
//
// Counters per thread count K:
//   wall_ms   best-of-iterations wall clock of detect_lattice at K threads
//   speedup   wall_ms(1) / wall_ms(K)
//   cores     std::thread::hardware_concurrency() on this runner
//
// Acceptance gate (ISSUE 8): speedup at 4 threads must reach 1.8x on a
// multicore runner. The gate is core-count aware — on a 1-core runner the
// engine cannot scale and the gate is skipped with a logged notice; on 2-3
// cores 4 lanes oversubscribe, so only a reduced 1.15x bar applies; the
// full 1.8x bar applies from 4 cores up. The CI bench-smoke job re-checks
// the recorded E20 rows with the same core-aware rule.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>

#include "bench_common.h"
#include "detect/lattice.h"

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

std::map<std::size_t, double>& wall_ms_by_threads() {
  static std::map<std::size_t, double> m;
  return m;
}

void BM_MC_Scaling(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kN = 6;
  constexpr std::int64_t kStates = 10;
  const auto comp = independent_workload(kN, kStates);
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  detect::LatticeResult lat;
  double best_ms = std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    lat = detect::detect_lattice(comp, /*max_cuts=*/50'000'000, threads);
    const auto t1 = std::chrono::steady_clock::now();
    best_ms = std::min(
        best_ms, std::chrono::duration<double, std::milli>(t1 - t0).count());
    benchmark::DoNotOptimize(lat.detected);
  }
  wall_ms_by_threads()[threads] = best_ms;

  double speedup = 0.0;
  if (const auto it = wall_ms_by_threads().find(1);
      it != wall_ms_by_threads().end() && best_ms > 0.0)
    speedup = it->second / best_ms;

  state.counters["threads"] = static_cast<double>(threads);
  state.counters["cores"] = static_cast<double>(cores);
  state.counters["wall_ms"] = best_ms;
  state.counters["speedup"] = speedup;
  state.counters["lattice_cuts"] = static_cast<double>(lat.cuts_explored);

  detect::ReportParams rp;
  rp.N = static_cast<std::int64_t>(kN);
  rp.n = static_cast<std::int64_t>(kN);
  rp.m = kStates;
  report_run(state, "E20_mc_t" + std::to_string(threads), rp,
             {{"threads", static_cast<std::int64_t>(threads)},
              {"cores", static_cast<std::int64_t>(cores)},
              {"wall_ms", best_ms},
              {"speedup", speedup},
              {"lattice_cuts", lat.cuts_explored},
              {"max_frontier", lat.max_frontier}},
             std::nullopt, std::nullopt);

  // The gate rides on the 4-thread row. speedup == 0 means the 1-thread
  // row was filtered out of this invocation; nothing to compare then.
  if (threads == 4 && speedup > 0.0) {
    if (cores < 2) {
      std::fprintf(stderr,
                   "E20 NOTICE: single-core runner (cores=%u) — scaling gate "
                   "skipped; speedup at 4 threads measured %.2fx\n",
                   cores, speedup);
    } else {
      const double gate = cores >= 4 ? 1.8 : 1.15;
      if (speedup < gate) {
        std::fprintf(stderr,
                     "E20 FAIL: speedup at 4 threads is %.2fx on %u cores "
                     "(gate %.2fx)\n",
                     speedup, cores, gate);
        std::exit(1);
      }
      std::fprintf(stderr, "E20 OK: speedup at 4 threads %.2fx on %u cores "
                   "(gate %.2fx)\n", speedup, cores, gate);
    }
  }
}
BENCHMARK(BM_MC_Scaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace wcp::bench
