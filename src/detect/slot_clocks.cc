#include "detect/slot_clocks.h"

#include <limits>

#include "common/error.h"

namespace wcp::detect {

SlotClockTable::SlotClockTable(const Computation& comp,
                               std::span<const ProcessId> procs)
    : w_(procs.size()), base_(procs.size() + 1, 0) {
  for (std::size_t s = 0; s < w_; ++s) {
    const StateIndex states = comp.num_states(procs[s]);
    WCP_REQUIRE(states <= std::numeric_limits<std::uint32_t>::max(),
                "process " << procs[s] << " has more than 2^32 states");
    base_[s + 1] = base_[s] + static_cast<std::size_t>(states);
  }
  cells_.resize(base_[w_] * w_);
  for (std::size_t s = 0; s < w_; ++s) {
    for (StateIndex k = 1; k <= num_states(s); ++k) {
      std::uint32_t* r =
          cells_.data() + (base_[s] + static_cast<std::size_t>(k - 1)) * w_;
      for (std::size_t t = 0; t < w_; ++t)
        r[t] = t == s ? (comp.local_pred(procs[s], k) ? 1u : 0u)
                      : static_cast<std::uint32_t>(
                            comp.clock_component(procs[s], k, procs[t]));
    }
  }
}

}  // namespace wcp::detect
