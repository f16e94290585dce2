// Trace tooling: generate a random computation (or load one), save it in
// the wcp-trace text format, reload it, and analyze it — states, causality,
// the first WCP cut, and what every detector reports. Loading sniffs the
// file's magic bytes, so wcp-tracebin binaries work as inputs too.
//
//   $ ./trace_inspector                      # generate + analyze
//   $ ./trace_inspector my.trace             # analyze an existing trace
//   $ ./trace_inspector --emit my.trace      # generate, save, analyze
#include <cstring>
#include <iostream>
#include <string>

#include "detect/registry.h"
#include "trace/diagram.h"
#include "trace/trace_io.h"
#include "trace/trace_store.h"
#include "workload/random_workload.h"

namespace {

void analyze(const wcp::Computation& comp) {
  using namespace wcp;
  const auto preds = comp.predicate_processes();
  std::cout << comp << "\n";
  std::cout << "predicate over:";
  for (ProcessId p : preds) std::cout << ' ' << p;
  std::cout << "\n\nper-process timelines:\n";
  for (std::size_t p = 0; p < comp.num_processes(); ++p) {
    const ProcessId pid(static_cast<int>(p));
    std::cout << "  " << pid << " (" << comp.num_states(pid) << " states): ";
    const StateIndex limit = std::min<StateIndex>(comp.num_states(pid), 40);
    for (StateIndex k = 1; k <= limit; ++k)
      std::cout << (comp.local_pred(pid, k) ? 'T' : '.');
    if (limit < comp.num_states(pid)) std::cout << "...";
    std::cout << "\n";
  }

  std::cout << "\nspace-time diagram (truncated):\n";
  DiagramOptions dopts;
  dopts.max_states = 8;
  if (const auto c = comp.first_wcp_cut()) {
    dopts.cut_procs.assign(comp.predicate_processes().begin(),
                           comp.predicate_processes().end());
    dopts.cut = *c;
  }
  std::cout << render_diagram(comp, dopts);

  std::cout << "\nwhat every detector reports:\n";
  for (const detect::Detector& d : detect::detectors())
    detect::write_verdict_text(std::cout, d.name,
                               detect::run_detector(comp, d.name, {}));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wcp;

  std::string path;
  bool emit = false;
  if (argc >= 3 && std::strcmp(argv[1], "--emit") == 0) {
    emit = true;
    path = argv[2];
  } else if (argc >= 2) {
    path = argv[1];
  }

  if (!path.empty() && !emit) {
    std::cout << "loading trace from " << path << "\n";
    analyze(load_any_trace_file(path));  // sniffs text vs wcp-tracebin
    return 0;
  }

  workload::RandomSpec spec;
  spec.num_processes = 6;
  spec.num_predicate = 4;
  spec.events_per_process = 18;
  spec.local_pred_prob = 0.3;
  spec.seed = 99;
  const auto comp = workload::make_random(spec);

  if (emit) {
    save_trace_file(path, comp);
    std::cout << "wrote " << path << "\n";
    // Verify round-trip.
    const auto reread = load_trace_file(path);
    std::cout << "round-trip check: "
              << (reread.first_wcp_cut() == comp.first_wcp_cut() ? "OK"
                                                                 : "MISMATCH")
              << "\n\n";
    analyze(reread);
  } else {
    analyze(comp);
  }
  return 0;
}
