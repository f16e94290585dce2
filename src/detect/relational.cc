#include "detect/relational.h"

#include "common/error.h"
#include "detect/slot_clocks.h"

namespace wcp::detect {

GeneralResult detect_possibly_general(const pred::VarComputation& vc,
                                      const GlobalPredicate& phi,
                                      std::int64_t max_cuts) {
  WCP_REQUIRE(phi != nullptr, "null global predicate");
  const Computation& comp = vc.computation;
  const std::size_t N = comp.num_processes();
  std::vector<ProcessId> all;
  all.reserve(N);
  for (std::size_t p = 0; p < N; ++p) all.emplace_back(static_cast<int>(p));
  const SlotClockTable clocks(comp, all);

  std::vector<pred::Env> envs(N);
  // One lane: phi runs on exactly the popped cuts, in pop order.
  const auto out = search_levels(
      clocks, max_cuts, /*lanes=*/1, [&](std::span<const std::uint32_t> cut) {
        for (std::size_t p = 0; p < N; ++p)
          envs[p] = vc.env(ProcessId(static_cast<int>(p)), cut[p]);
        return phi(envs);
      });

  GeneralResult res;
  res.detected = out.found;
  res.truncated = out.truncated;
  res.cut = out.cut;
  res.cuts_explored = out.cuts_explored;
  res.storage = out.storage;
  return res;
}

}  // namespace wcp::detect
