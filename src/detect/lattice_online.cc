#include "detect/lattice_online.h"

#include "detect/core_host.h"
#include "detect/stream_core.h"

namespace wcp::detect {

LatticeOnlineResult run_lattice_online(const Computation& comp,
                                       const RunOptions& opts,
                                       std::int64_t max_cuts) {
  app::AppDriverOptions drv;
  drv.snapshot_all_states = true;
  const HostedRun run = run_core_host(comp, opts, drv, /*ends_on_eos=*/false,
                                      make_core<LatticeOnlineCore>(max_cuts));
  const auto& core = run.host->core<LatticeOnlineCore>();
  LatticeOnlineResult r;
  r.detected = core.detected();
  r.truncated = core.truncated();
  r.cut = core.cut();
  r.cuts_explored = core.cuts_explored();
  r.max_frontier = core.max_frontier();
  r.detect_time = run.host->detect_time();
  r.app_metrics = run.net->app_metrics();
  r.monitor_metrics = run.net->monitor_metrics();
  r.storage = core.storage();
  return r;
}

}  // namespace wcp::detect
