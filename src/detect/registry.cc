#include "detect/registry.h"

#include <iterator>
#include <ostream>

#include "common/error.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "detect/centralized.h"
#include "detect/direct_dep.h"
#include "detect/lattice.h"
#include "detect/lattice_online.h"
#include "detect/multi_token.h"
#include "detect/sliced.h"
#include "detect/token_vc.h"

namespace wcp::detect {

namespace {

RunOptions run_options(const DetectParams& p) {
  RunOptions o;
  o.seed = p.seed;
  o.latency = sim::LatencyModel::uniform(1, 6);
  o.halt_on_detect = p.halt;
  o.faults = p.faults;
  return o;
}

/// A verdict with a flat report record; the clock-store footprint joins
/// the counters when the run read clocks through the columnar store.
Verdict flat(bool detected, std::vector<StateIndex> cut, std::int64_t cost,
             std::vector<std::pair<std::string, MetricValue>> metrics,
             const TraceStoreStats& ts = {}) {
  Verdict v;
  v.detected = detected;
  v.cut = std::move(cut);
  v.cost = cost;
  v.metrics = std::move(metrics);
  if (ts.materialized()) {
    v.metrics.emplace_back("store_peak_bytes", ts.peak_bytes);
    v.metrics.emplace_back("store_delta_ratio", ts.delta_ratio);
  }
  return v;
}

Verdict from_run(DetectionResult r) {
  Verdict v = flat(r.detected, r.cut, r.monitor_metrics.total_work(), {});
  v.run = std::move(r);
  return v;
}

/// The possibly-family searches.
template <typename R>
Verdict from_search(const R& r, std::int64_t witness_len,
                    const TraceStoreStats& ts) {
  return flat(r.detected, r.cut, r.cuts_explored,
              {{"detected", r.detected ? 1 : 0},
               {"cuts_explored", r.cuts_explored},
               {"max_frontier", r.max_frontier},
               {"truncated", r.truncated ? 1 : 0},
               {"witness_len", witness_len}},
              ts);
}

Verdict from_definitely(const DefinitelyResult& r) {
  std::int64_t witness_level = 0;
  for (const StateIndex k : r.witness) witness_level += k;
  return flat(r.definitely, r.witness, r.cuts_explored,
              {{"definitely", r.definitely ? 1 : 0},
               {"cuts_explored", r.cuts_explored},
               {"truncated", r.truncated ? 1 : 0},
               {"witness_found", r.witness.empty() ? 0 : 1},
               {"witness_level", witness_level},
               {"witness_len", std::ssize(r.witness_path)}},
              r.trace_store);
}

using P = Modality;
using B = WorkBound;
using Params = const DetectParams&;

constexpr Detector kDetectors[] = {
    {"token", P::kPossibly, B::kN2M,
     [](const Computation& c, Params p) {
       return from_run(run_token_vc(c, run_options(p)));
     }},
    {"multi", P::kPossibly, B::kN2M,
     [](const Computation& c, Params p) {
       return from_run(
           run_multi_token(c, run_options(p), {.num_groups = p.groups}));
     }},
    {"dd", P::kPossibly, B::kNM,
     [](const Computation& c, Params p) {
       return from_run(run_direct_dep(c, run_options(p)));
     }},
    {"dd-par", P::kPossibly, B::kNM,
     [](const Computation& c, Params p) {
       return from_run(
           run_direct_dep(c, run_options(p), {.parallel = true}));
     }},
    {"checker", P::kPossibly, B::kN2M,
     [](const Computation& c, Params p) {
       return from_run(run_centralized(c, run_options(p)));
     }},
    {"lattice", P::kPossibly, B::kNone,
     [](const Computation& c, Params p) {
       const auto r = detect_lattice(c, p.max_cuts, p.threads);
       return from_search(r, std::ssize(r.witness_path), r.trace_store);
     }},
    {"lattice-online", P::kPossibly, B::kNone,
     [](const Computation& c, Params p) {
       // The online checker reads clocks off the wire, never the store.
       return from_search(run_lattice_online(c, run_options(p), p.max_cuts),
                          0, TraceStoreStats{});
     }},
    {"lattice-sliced", P::kPossibly, B::kNone,
     [](const Computation& c, Params) {
       const auto r = detect_lattice_sliced(c);
       return from_search(r, std::ssize(r.witness_path), r.trace_store);
     }},
    {"definitely", P::kDefinitely, B::kNone,
     [](const Computation& c, Params p) {
       return from_definitely(detect_definitely(c, p.max_cuts, p.threads));
     }},
    {"definitely-sliced", P::kDefinitely, B::kNone,
     [](const Computation& c, Params p) {
       return from_definitely(detect_definitely_sliced(c, p.max_cuts));
     }},
    {"oracle", P::kPossibly, B::kNone,
     [](const Computation& c, Params) {
       const auto cut = c.first_wcp_cut();
       return flat(cut.has_value(), cut.value_or(std::vector<StateIndex>{}),
                   0, {{"detected", cut ? 1 : 0}});
     }},
};

}  // namespace

std::span<const Detector> detectors() { return kDetectors; }

const Detector* find_detector(std::string_view name) {
  for (const Detector& d : kDetectors)
    if (d.name == name) return &d;
  return nullptr;
}

std::string detector_names(std::string_view sep) {
  std::string out;
  for (const Detector& d : kDetectors)
    out.append(out.empty() ? "" : sep).append(d.name);
  return out;
}

std::size_t resolve_threads(std::size_t threads) {
  return threads == 0 ? common::ThreadPool::default_threads() : threads;
}

Verdict run_detector(const Computation& comp, std::string_view name,
                     DetectParams params) {
  const Detector* d = find_detector(name);
  WCP_REQUIRE(d != nullptr, "unknown detector '" << name << "' (valid: "
                                                 << detector_names(", ")
                                                 << ")");
  params.threads = resolve_threads(params.threads);
  Verdict v = d->run(comp, params);
  v.detector = d;
  v.params = report_params(comp, params.seed);
  // Echo the canonical (round-tripped) spec so the report pins down the
  // exact fault schedule the run used.
  if (params.faults.enabled()) v.params.faults = params.faults.to_string();
  return v;
}

ReportParams report_params(const Computation& comp, std::uint64_t seed) {
  return {.N = static_cast<std::int64_t>(comp.num_processes()),
          .n = static_cast<std::int64_t>(comp.predicate_processes().size()),
          .m = comp.max_messages_per_process(),
          .seed = seed,
          .faults = {}};
}

void write_verdict_line(std::ostream& os, bool detected,
                        const std::vector<StateIndex>& cut) {
  json::Writer w(os);
  w.begin_object();
  w.key("schema").value("wcp-verdict/1");
  w.key("detected").value(detected);
  w.key("cut").begin_array();
  if (detected)
    for (const StateIndex k : cut) w.value(k);
  w.end_array();
  w.end_object();
  os << "\n";
}

void write_verdict_report(json::Writer& w, std::string_view bench,
                          const Verdict& v, bool include_wall_clock) {
  const auto n = static_cast<double>(v.params.n);
  const auto m = static_cast<double>(v.params.m);
  double b = 0;
  if (v.detector->work_bound == WorkBound::kN2M) b = n * n * m;
  if (v.detector->work_bound == WorkBound::kNM)
    b = static_cast<double>(v.params.N) * m;
  std::optional<double> bound, ratio;
  if (b > 0) {
    bound = b;
    ratio = static_cast<double>(v.cost) / b;
  }
  if (v.run) {
    write_run_report(w, bench, v.params, *v.run, bound, ratio,
                     include_wall_clock);
  } else {
    write_run_report(w, bench, v.params, v.metrics, bound, ratio);
  }
}

void write_verdict_text(std::ostream& os, std::string_view label,
                        const Verdict& v) {
  os << label << ": ";
  if (v.run) {
    const DetectionResult& r = *v.run;
    os << r << "\n";
    if (!r.frozen_cut.empty()) {
      os << "  frozen at: ";
      write_cut(os, r.frozen_cut);
      os << "\n";
    }
    os << "  app:     " << r.app_metrics.summary() << "\n";
    os << "  monitor: " << r.monitor_metrics.summary() << "\n";
    return;
  }
  const bool definitely = v.detector->modality == Modality::kDefinitely;
  os << (definitely ? (v.detected ? "DEFINITELY" : "not-definitely")
                    : (v.detected ? "DETECTED" : "not-detected"));
  if (!v.cut.empty()) {
    os << (definitely ? " witness=" : " cut=");
    write_cut(os, v.cut);
  }
  // The first metric restates the verdict.
  for (std::size_t i = 1; i < v.metrics.size(); ++i) {
    os << ' ' << v.metrics[i].first << '=';
    json::Writer w(os, /*indent=*/0);
    v.metrics[i].second.write(w);
  }
  os << "\n";
}

}  // namespace wcp::detect
