// Shared helpers for the experiment benches (E1-E10, see DESIGN.md §3).
//
// Every bench regenerates one of the paper's evaluation claims: it sweeps
// the relevant parameter, runs the detector(s) on the simulator, and
// reports measured costs as benchmark counters next to the paper's
// asymptotic bound, so the ratio column should stay roughly flat if the
// implementation matches the claimed complexity.
//
// Machine-readable output: every bench also registers one run-report record
// per (bench, params) row, and the registry writes a consolidated
// BENCH_summary.json at process exit (merging with the records of benches
// run earlier, so `for b in build/bench/bench_*; do $b; done` accumulates
// the whole suite in one file). Schema: see src/detect/report.h and
// EXPERIMENTS.md. The output path defaults to ./BENCH_summary.json and can
// be overridden with the WCP_BENCH_SUMMARY environment variable.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "detect/report.h"
#include "detect/result.h"
#include "trace/computation.h"
#include "workload/mutex_workload.h"
#include "workload/random_workload.h"

namespace wcp::bench {

/// Deterministic, cached random computation for a (N, n, m, seed) shape so
/// repeated benchmark iterations measure detection, not generation.
inline const Computation& cached_random(std::size_t N, std::size_t n,
                                        std::int64_t events,
                                        std::uint64_t seed,
                                        double pred_prob = 0.3,
                                        bool ensure_detectable = true) {
  static std::map<std::tuple<std::size_t, std::size_t, std::int64_t,
                             std::uint64_t, std::uint64_t, bool>,
                  Computation>
      cache;
  static std::mutex mu;
  // Key on the exact bit pattern of pred_prob: truncating to an int (the
  // previous scheme) collided for probabilities closer than the truncation
  // step and silently returned the wrong cached computation.
  const auto key = std::make_tuple(N, n, events, seed,
                                   std::bit_cast<std::uint64_t>(pred_prob),
                                   ensure_detectable);
  std::lock_guard lock(mu);
  auto it = cache.find(key);
  if (it == cache.end()) {
    workload::RandomSpec spec;
    spec.num_processes = N;
    spec.num_predicate = n;
    spec.events_per_process = events;
    spec.local_pred_prob = pred_prob;
    spec.ensure_detectable = ensure_detectable;
    spec.seed = seed;
    it = cache.emplace(key, workload::make_random(spec)).first;
  }
  return it->second;
}

/// Worst-case detection workload: serialized mutual exclusion with the
/// violation forced into the LAST round, so every earlier candidate state
/// must be examined and eliminated. n = clients, m ~ 3*rounds per client.
inline const Computation& cached_worstcase(std::size_t clients,
                                           std::int64_t rounds,
                                           std::uint64_t seed = 1) {
  static std::map<std::tuple<std::size_t, std::int64_t, std::uint64_t>,
                  Computation>
      cache;
  static std::mutex mu;
  const auto key = std::make_tuple(clients, rounds, seed);
  std::lock_guard lock(mu);
  auto it = cache.find(key);
  if (it == cache.end()) {
    workload::MutexSpec spec;
    spec.num_clients = clients;
    spec.rounds_per_client = rounds;
    spec.force_final_violation = true;
    spec.seed = seed;
    it = cache.emplace(key, workload::make_mutex(spec).computation).first;
  }
  return it->second;
}

/// The lattice blowup workload of E10, E15 and E20: n processes with NO
/// cross-causality (every send stays undelivered), `states` states each and
/// the predicate true only in the last states, so a lattice search must
/// visit all states^n consistent cuts.
inline Computation independent_workload(std::size_t n, std::int64_t states) {
  ComputationBuilder b(n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::int64_t k = 1; k < states; ++k)
      b.send(ProcessId(static_cast<int>(p)),
             ProcessId(static_cast<int>((p + 1) % n)));  // never delivered
  for (std::size_t p = 0; p < n; ++p)
    b.mark_pred(ProcessId(static_cast<int>(p)), true);
  return b.build();
}

inline detect::RunOptions default_opts(std::uint64_t seed = 1) {
  detect::RunOptions o;
  o.seed = seed;
  o.latency = sim::LatencyModel::uniform(1, 4);
  return o;
}

/// base^exp in saturating std::uint64_t arithmetic — exact where the old
/// std::pow-based bounds silently rounded (2^53 onward) and pinned to
/// uint64 max instead of overflowing past it.
inline std::uint64_t saturating_pow(std::uint64_t base, std::uint64_t exp) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t out = 1;
  for (; exp > 0; --exp) {
    if (base != 0 && out > kMax / base) return kMax;
    out *= base;
  }
  return out;
}

// ---- unified run reporter -------------------------------------------------

inline constexpr std::string_view kSummarySchema = "wcp-bench-summary/1";

/// Collects one compact run-report line per (bench, params) row and flushes
/// them into BENCH_summary.json at process exit, merging with whatever an
/// earlier bench binary already wrote there. Records with the same key are
/// replaced (benchmark repetitions overwrite, they do not duplicate).
class SummaryRegistry {
 public:
  static SummaryRegistry& instance() {
    static SummaryRegistry registry;
    return registry;
  }

  void add(const std::string& key, std::string record) {
    std::lock_guard lock(mu_);
    auto it = records_.find(key);
    if (it == records_.end()) {
      order_.push_back(key);
      records_.emplace(key, std::move(record));
    } else {
      it->second = std::move(record);
    }
  }

  ~SummaryRegistry() { flush(); }

  SummaryRegistry(const SummaryRegistry&) = delete;
  SummaryRegistry& operator=(const SummaryRegistry&) = delete;

 private:
  SummaryRegistry() = default;

  static std::string path() {
    const char* env = std::getenv("WCP_BENCH_SUMMARY");
    return env && *env ? env : "BENCH_summary.json";
  }

  static std::string key_of(const json::Value& run) {
    std::ostringstream oss;
    const json::Value* bench = run.find("bench");
    oss << (bench ? bench->string : "?");
    if (const json::Value* params = run.find("params");
        params && params->is_object()) {
      for (const char* k : {"N", "n", "m", "seed"}) {
        const json::Value* v = params->find(k);
        oss << '|' << (v ? v->integer : 0);
      }
    }
    return oss.str();
  }

  void flush() {
    std::lock_guard lock(mu_);
    if (records_.empty()) return;
    const std::string file = path();

    // Start from the records of previously-run bench binaries.
    std::vector<std::string> keys;
    std::map<std::string, std::string> lines;
    if (std::ifstream in(file); in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      if (const auto doc = json::parse(buf.str());
          doc && doc->is_object()) {
        if (const json::Value* runs = doc->find("runs");
            runs && runs->is_array()) {
          for (const json::Value& run : runs->array) {
            std::string k = key_of(run);
            if (lines.emplace(k, run.dump(/*indent=*/0)).second)
              keys.push_back(std::move(k));
          }
        }
      }
    }
    for (const std::string& k : order_) {
      if (lines.emplace(k, records_.at(k)).second)
        keys.push_back(k);
      else
        lines[k] = records_.at(k);
    }

    std::ofstream out(file, std::ios::trunc);
    if (!out) return;  // unwritable cwd: drop the summary, not the bench
    out << "{\n  \"schema\": \"" << kSummarySchema << "\",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < keys.size(); ++i)
      out << "    " << lines.at(keys[i]) << (i + 1 < keys.size() ? ",\n" : "\n");
    out << "  ]\n}\n";
  }

  std::mutex mu_;
  std::vector<std::string> order_;
  std::map<std::string, std::string> records_;
};

inline std::string record_key(std::string_view bench,
                              const detect::ReportParams& p) {
  std::ostringstream oss;
  oss << bench << '|' << p.N << '|' << p.n << '|' << p.m << '|' << p.seed;
  return oss.str();
}

/// Reports one simulator-hosted run: attaches the standard measured
/// counters (messages, bits, work, token hops, peak buffered bytes) to the
/// benchmark row and registers the run-report record for BENCH_summary.json.
inline void report_run(benchmark::State& state, std::string_view bench,
                       const detect::ReportParams& params,
                       const detect::DetectionResult& r,
                       std::optional<double> bound,
                       std::optional<double> ratio) {
  state.counters["msgs_total"] = static_cast<double>(
      r.app_metrics.total_messages() + r.monitor_metrics.total_messages());
  state.counters["bits_total"] = static_cast<double>(
      r.app_metrics.total_bits() + r.monitor_metrics.total_bits());
  state.counters["work_total"] = static_cast<double>(
      r.app_metrics.total_work() + r.monitor_metrics.total_work());
  state.counters["hops"] = static_cast<double>(r.token_hops);
  state.counters["peak_buf_bytes"] = static_cast<double>(
      std::max(r.app_metrics.max_peak_buffered_bytes(),
               r.monitor_metrics.max_peak_buffered_bytes()));
  if (bound) state.counters["bound"] = *bound;
  if (ratio) state.counters["ratio"] = *ratio;
  SummaryRegistry::instance().add(
      record_key(bench, params),
      detect::run_report_string(bench, params, r, bound, ratio,
                                /*include_wall_clock=*/true, /*indent=*/0));
}

/// Reports one run that has no DetectionResult (adversary game, lattice
/// baseline, A-vs-B comparisons): `metrics` is written verbatim. Counters
/// passed as integers stay integers in BENCH_summary.json (no `1e+05`).
inline void report_run(
    benchmark::State& state, std::string_view bench,
    const detect::ReportParams& params,
    const std::vector<std::pair<std::string, detect::MetricValue>>& metrics,
    std::optional<double> bound, std::optional<double> ratio) {
  if (bound) state.counters["bound"] = *bound;
  if (ratio) state.counters["ratio"] = *ratio;
  std::ostringstream oss;
  json::Writer w(oss, /*indent=*/0);
  detect::write_run_report(w, bench, params, metrics, bound, ratio);
  SummaryRegistry::instance().add(record_key(bench, params), oss.str());
}

}  // namespace wcp::bench
