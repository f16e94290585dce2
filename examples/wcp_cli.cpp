// wcp_cli — command-line front end for the library.
//
// Subcommands:
//   generate <out.trace> [--N k] [--n k] [--events k] [--pred-prob p] [--seed s]
//            [--binary]
//       Generate a random computation and save it as a wcp-trace text file,
//       or with --binary as a columnar wcp-tracebin file.
//   detect <in.trace> [--algo name] [--groups g] [--seed s] [--json|--verdict]
//       Run one detector of the registry (detect/registry.h; `wcp_cli`
//       without arguments lists the names) and print the verdict + costs.
//   info <in.trace>
//       Print the trace's shape and the oracle's first WCP cut.
//
// Every command that reads a trace sniffs the magic bytes, so text and
// binary files are interchangeable inputs.
//
// Example:
//   $ wcp_cli generate /tmp/run.trace --N 8 --n 4 --events 30
//   $ wcp_cli detect /tmp/run.trace --algo dd
#include <algorithm>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "common/flags.h"
#include "common/json.h"
#include "detect/batch.h"
#include "detect/registry.h"
#include "detect/sliced.h"
#include "serve/replay.h"
#include "serve/tcp.h"
#include "slice/slice.h"
#include "trace/diagram.h"
#include "trace/dot_export.h"
#include "trace/trace_io.h"
#include "trace/trace_store.h"
#include "workload/random_workload.h"

namespace {

using namespace wcp;

struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;
};

/// Flags that never take a value (so `--json in.trace` does not swallow the
/// trace path).
bool is_boolean_flag(const std::string& key) {
  return key == "json" || key == "binary" || key == "verdict" ||
         key == "trusted";
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    if (s.rfind("--", 0) == 0) {
      const std::string key = s.substr(2);
      if (!is_boolean_flag(key) && i + 1 < argc) {
        a.flags[key] = argv[++i];
      } else {
        a.flags[key] = "";
      }
    } else {
      a.positional.push_back(std::move(s));
    }
  }
  return a;
}

/// Strict integer flag: a malformed or out-of-range value throws
/// common::FlagError (exit 2) instead of silently parsing as 0.
std::int64_t flag_int(const Args& a, const std::string& key, std::int64_t def,
                      std::int64_t lo = INT64_MIN, std::int64_t hi = INT64_MAX) {
  auto it = a.flags.find(key);
  return it == a.flags.end()
             ? def
             : common::parse_flag_int("wcp_cli", key, it->second, lo, hi);
}

/// Strict probability flag in [0, 1].
double flag_prob(const Args& a, const std::string& key, double def) {
  auto it = a.flags.find(key);
  return it == a.flags.end()
             ? def
             : common::parse_flag_double("wcp_cli", key, it->second, 0.0, 1.0);
}

/// --threads t: 0 = WCP_THREADS env or hardware (resolved by the registry).
std::size_t flag_threads(const Args& a) {
  return static_cast<std::size_t>(flag_int(a, "threads", 0, 0, 1024));
}

std::string flag_str(const Args& a, const std::string& key,
                     const std::string& def) {
  auto it = a.flags.find(key);
  return it == a.flags.end() ? def : it->second;
}

/// --trusted skips the O(file) semantic replay verification of binary
/// traces (structural validation always runs); the mmap fast path for
/// files we wrote ourselves.
TraceLoadOptions load_opts(const Args& a) {
  TraceLoadOptions opts;
  opts.verify_replay = !a.flags.contains("trusted");
  return opts;
}

int usage() {
  std::cerr <<
      "usage:\n"
      "  wcp_cli generate <out.trace> [--N k] [--n k] [--events k]\n"
      "                   [--pred-prob p] [--seed s] [--detectable 0|1]\n"
      "                   [--binary]   write wcp-tracebin instead of text\n"
      "  wcp_cli detect   <in.trace> [--algo "
            << detect::detector_names("|") << "]\n" <<
      "                   [--groups g] [--seed s] [--halt 0|1] [--json]\n"
      "                   [--threads t]   t=0: WCP_THREADS env or hardware\n"
      "                   [--faults spec]   e.g. "
      "--faults drop=0.2,dup=0.05,seed=7,crash=m1@40+30\n"
      "                   [--verdict]   print only the canonical verdict "
      "line\n"
      "  wcp_cli stream   <in.trace> [--algos token,checker,lattice-online,"
      "slicer]\n"
      "                   [--faults spec] [--reorder p] [--gc-every k]\n"
      "                   [--window w] [--connect host:port] [--json]\n"
      "  wcp_cli slice    <in.trace> [--max-cuts k] [--threads t] [--json]\n"
      "  wcp_cli sweep    <in.trace> [--algos a,b,..] [--seeds s1,s2,..]\n"
      "                   [--threads t] [--json]\n"
      "  wcp_cli info     <in.trace>\n"
      "  wcp_cli diagram  <in.trace> [--max-states k]\n"
      "  wcp_cli dot      <in.trace>\n"
      "every subcommand that reads <in.trace> also takes [--trusted]: skip\n"
      "the binary loader's replay check\n";
  return 2;
}

int cmd_generate(const Args& a) {
  if (a.positional.size() < 2) return usage();
  workload::RandomSpec spec;
  spec.num_processes = static_cast<std::size_t>(flag_int(a, "N", 8, 0));
  spec.num_predicate = static_cast<std::size_t>(flag_int(a, "n", 4, 0));
  spec.events_per_process = flag_int(a, "events", 20);
  spec.local_pred_prob = flag_prob(a, "pred-prob", 0.3);
  spec.ensure_detectable = flag_int(a, "detectable", 0) != 0;
  spec.seed = static_cast<std::uint64_t>(flag_int(a, "seed", 42));
  const auto comp = workload::make_random(spec);
  if (a.flags.contains("binary")) {
    save_tracebin_file(a.positional[1], comp);
    const auto ts = comp.trace_store_stats();
    std::cout << "wrote " << a.positional[1] << " (wcp-tracebin 1): " << comp
              << "\n  clocks=" << ts.clocks_interned
              << " delta_entries=" << ts.delta_entries
              << " delta_ratio=" << ts.delta_ratio << "\n";
  } else {
    save_trace_file(a.positional[1], comp);
    std::cout << "wrote " << a.positional[1] << ": " << comp << "\n";
  }
  return 0;
}

int cmd_info(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const auto comp = load_any_trace_file(a.positional[1], load_opts(a));
  std::cout << comp << "\n";
  std::cout << "m (max events/process): " << comp.max_messages_per_process()
            << "\n";
  detect::write_verdict_text(std::cout, "oracle",
                             detect::run_detector(comp, "oracle", {}));
  return 0;
}

int cmd_diagram(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const auto comp = load_any_trace_file(a.positional[1], load_opts(a));
  DiagramOptions opts;
  opts.max_states = flag_int(a, "max-states", 0);
  opts.message_table = true;
  if (const auto cut = comp.first_wcp_cut()) {
    opts.cut_procs.assign(comp.predicate_processes().begin(),
                          comp.predicate_processes().end());
    opts.cut = *cut;
  }
  std::cout << render_diagram(comp, opts);
  return 0;
}

int cmd_dot(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const auto comp = load_any_trace_file(a.positional[1], load_opts(a));
  DotOptions opts;
  if (const auto cut = comp.first_wcp_cut()) {
    opts.cut_procs.assign(comp.predicate_processes().begin(),
                          comp.predicate_processes().end());
    opts.cut = *cut;
  }
  export_dot(std::cout, comp, opts);
  return 0;
}

/// A detector name given to --<key> must be in the registry (usage error).
void require_detector(const std::string& key, const std::string& algo) {
  if (detect::find_detector(algo) == nullptr)
    throw common::FlagError("wcp_cli: --" + key + " must be one of " +
                            detect::detector_names(", ") + ", got \"" +
                            algo + "\"");
}

int cmd_detect(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const std::string algo = flag_str(a, "algo", "token");
  require_detector("algo", algo);
  detect::DetectParams params;
  params.seed = static_cast<std::uint64_t>(flag_int(a, "seed", 1));
  params.groups = static_cast<int>(
      flag_int(a, "groups", 2, 1, std::numeric_limits<int>::max()));
  params.threads = flag_threads(a);
  params.halt = flag_int(a, "halt", 0) != 0;
  const std::string fault_spec = flag_str(a, "faults", "");
  if (!fault_spec.empty()) params.faults = sim::FaultPlan::parse(fault_spec);

  const auto comp = load_any_trace_file(a.positional[1], load_opts(a));
  const detect::Verdict v = detect::run_detector(comp, algo, params);
  if (a.flags.contains("verdict")) {
    detect::write_verdict_line(std::cout, v.detected, v.cut);
  } else if (a.flags.contains("json")) {
    json::Writer w(std::cout);
    detect::write_verdict_report(w, "cli:" + algo, v);
    std::cout << "\n";
  } else {
    detect::write_verdict_text(std::cout, algo, v);
  }
  return 0;
}

std::vector<std::string> split_list(const std::string& csv);

int cmd_stream(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const auto comp = load_any_trace_file(a.positional[1], load_opts(a));
  const bool as_json = a.flags.contains("json");

  serve::ReplayOptions opts;
  opts.serve.gc_every =
      static_cast<std::size_t>(flag_int(a, "gc-every", 64, 0));
  opts.client.window = static_cast<std::size_t>(flag_int(a, "window", 64, 1));
  const std::string fault_spec = flag_str(a, "faults", "");
  if (!fault_spec.empty())
    opts.faults.plan = sim::FaultPlan::parse(fault_spec);
  opts.faults.reorder = flag_prob(a, "reorder", 0.0);

  std::vector<std::string> algos = split_list(
      flag_str(a, "algos", "token,checker,lattice-online,slicer"));
  for (const std::string& name : algos) {
    serve::ReplaySubscription sub;
    try {
      sub.algo = serve::stream_algo_from_string(name);
    } catch (const std::invalid_argument& e) {
      throw common::FlagError(std::string("wcp_cli: --algos: ") + e.what());
    }
    opts.subs.push_back(sub);
  }

  serve::ReplayResult r;
  const std::string connect = flag_str(a, "connect", "");
  if (!connect.empty()) {
    const auto colon = connect.rfind(':');
    if (colon == std::string::npos)
      throw common::FlagError("wcp_cli: --connect expects host:port");
    const auto port = static_cast<std::uint16_t>(common::parse_flag_int(
        "wcp_cli", "connect", connect.substr(colon + 1), 1, 65535));
    const auto t = serve::tcp_connect(connect.substr(0, colon), port);
    r = serve::replay_stream_over(comp, opts, *t);
  } else {
    r = serve::replay_stream(comp, opts);
  }

  if (as_json) {
    detect::ReportParams rp = detect::report_params(comp, 0);
    if (opts.faults.plan.enabled()) rp.faults = opts.faults.plan.to_string();
    std::vector<std::pair<std::string, detect::MetricValue>> metrics;
    for (const auto& [name, value] : r.stats.items())
      metrics.emplace_back(name, value);
    metrics.emplace_back("pipe_frames_sent", r.pipe.sent);
    metrics.emplace_back("pipe_frames_dropped", r.pipe.dropped);
    metrics.emplace_back("pipe_frames_duplicated", r.pipe.duplicated);
    metrics.emplace_back("pipe_frames_reordered", r.pipe.reordered);
    metrics.emplace_back("client_retransmits", r.retransmits);
    json::Writer w(std::cout);
    detect::write_run_report(w, "cli:stream", rp, metrics, std::nullopt,
                             std::nullopt);
    std::cout << "\n";
    return 0;
  }
  // One canonical verdict line per subscription, in subscription order —
  // byte-identical to `detect --verdict` on the same trace and algorithm.
  std::vector<serve::VerdictBody> by_sub = r.verdicts;
  std::sort(by_sub.begin(), by_sub.end(),
            [](const serve::VerdictBody& x, const serve::VerdictBody& y) {
              return x.sub_id < y.sub_id;
            });
  for (const serve::VerdictBody& v : by_sub)
    detect::write_verdict_line(std::cout, v.detected, v.cut);
  return 0;
}

int cmd_slice(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const auto comp = load_any_trace_file(a.positional[1], load_opts(a));
  const bool as_json = a.flags.contains("json");
  const std::int64_t max_cuts = flag_int(a, "max-cuts", 1'000'000);
  const std::size_t threads = detect::resolve_threads(flag_threads(a));

  slice::SliceBuildCounters ctr;
  const auto sl = slice::Slice::build(comp, &ctr, threads);
  const auto cc = sl.num_cuts(max_cuts);
  const auto possibly = detect::detect_lattice_sliced(comp);
  const auto definitely =
      detect::detect_definitely_sliced(comp, detect::kDefaultMaxCuts);

  if (as_json) {
    const detect::ReportParams rp = detect::report_params(comp, 0);
    json::Writer w(std::cout);
    detect::write_run_report(
        w, "cli:slice", rp,
        {{"possibly", possibly.detected ? 1 : 0},
         {"definitely", definitely.definitely ? 1 : 0},
         {"definitely_truncated", definitely.truncated ? 1 : 0},
         {"slice_groups", sl.num_groups()},
         {"slice_edges", sl.num_edges()},
         {"slice_cuts", cc.count},
         {"slice_cuts_saturated", cc.saturated ? 1 : 0},
         {"jil_advances", ctr.jil.advances},
         {"jil_clock_lookups", ctr.jil.clock_lookups},
         {"possibly_cuts_explored", possibly.cuts_explored},
         {"definitely_cuts_explored", definitely.cuts_explored}},
        std::nullopt, std::nullopt);
    std::cout << "\n";
    return 0;
  }

  std::cout << "slice: " << (sl.empty() ? "EMPTY" : "non-empty")
            << " groups=" << sl.num_groups() << " edges=" << sl.num_edges()
            << " satisfying_cuts=" << cc.count
            << (cc.saturated ? "+ (capped)" : "") << "\n";
  if (!sl.empty()) {
    std::cout << "  bottom: ";
    detect::write_cut(std::cout, sl.bottom());
    std::cout << "\n  top:    ";
    detect::write_cut(std::cout, sl.top());
    std::cout << "\n";
  }
  std::cout << "  possibly=" << (possibly.detected ? "yes" : "no")
            << " (cuts_explored=" << possibly.cuts_explored << ")"
            << " definitely=" << (definitely.definitely ? "yes" : "no")
            << " (cuts_explored=" << definitely.cuts_explored << ")\n";
  if (!definitely.witness.empty()) {
    std::cout << "  avoiding-observation witness: ";
    detect::write_cut(std::cout, definitely.witness);
    std::cout << "\n";
  }
  return 0;
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

int cmd_sweep(const Args& a) {
  if (a.positional.size() < 2) return usage();
  const auto comp = load_any_trace_file(a.positional[1], load_opts(a));
  const bool as_json = a.flags.contains("json");
  const std::size_t threads = flag_threads(a);

  const auto algos =
      split_list(flag_str(a, "algos", "token,dd,lattice,lattice-sliced"));
  for (const std::string& algo : algos) require_detector("algos", algo);
  std::vector<std::uint64_t> seeds;
  for (const std::string& s : split_list(flag_str(a, "seeds", "1,2,3,4")))
    seeds.push_back(static_cast<std::uint64_t>(
        common::parse_flag_int("wcp_cli", "seeds", s, 0, INT64_MAX)));
  if (algos.empty() || seeds.empty()) return usage();

  const auto rows =
      detect::run_sweep(comp, detect::cross_jobs(algos, seeds), threads);
  for (const auto& row : rows) {
    if (as_json) {
      std::cout << row.report << "\n";
    } else {
      detect::write_verdict_text(
          std::cout, row.algo + " seed=" + std::to_string(row.seed),
          row.verdict);
    }
  }
  return 0;
}

/// A subcommand and the flags its usage line accepts; any other flag is a
/// usage error (a typo must never silently fall back to a default).
struct Command {
  const char* name;
  int (*run)(const Args&);
  std::set<std::string> flags;
};

const Command kCommands[] = {
    {"generate", cmd_generate,
     {"N", "n", "events", "pred-prob", "seed", "detectable", "binary"}},
    {"detect", cmd_detect,
     {"algo", "groups", "seed", "halt", "json", "threads", "faults", "verdict",
      "trusted"}},
    {"stream", cmd_stream,
     {"algos", "faults", "reorder", "gc-every", "window", "connect", "json",
      "trusted"}},
    {"slice", cmd_slice, {"max-cuts", "threads", "json", "trusted"}},
    {"sweep", cmd_sweep, {"algos", "seeds", "threads", "json", "trusted"}},
    {"info", cmd_info, {"trusted"}},
    {"diagram", cmd_diagram, {"max-states", "trusted"}},
    {"dot", cmd_dot, {"trusted"}},
};

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.positional.empty()) return usage();
  try {
    for (const Command& cmd : kCommands) {
      if (a.positional[0] != cmd.name) continue;
      for (const auto& [key, value] : a.flags)
        if (!cmd.flags.contains(key))
          throw common::FlagError(std::string("wcp_cli ") + cmd.name +
                                  ": unknown flag --" + key);
      return cmd.run(a);
    }
    return usage();
  } catch (const common::FlagError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
