#include "detect/centralized.h"

#include "detect/core_host.h"
#include "detect/stream_core.h"

namespace wcp::detect {

DetectionResult run_centralized(const Computation& comp,
                                const RunOptions& opts) {
  app::AppDriverOptions drv;
  drv.compress_clocks = opts.compress_clocks;
  return run_core_host(comp, opts, drv, /*ends_on_eos=*/false,
                       make_core<CentralizedCore>())
      .result();
}

}  // namespace wcp::detect
