#include "detect/relational.h"

#include "common/cut_hash.h"
#include "common/cut_storage.h"
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

  GeneralResult res;

  std::vector<pred::Env> envs(N);
  auto satisfies = [&](const std::vector<StateIndex>& cut) {
    for (std::size_t p = 0; p < N; ++p)
      envs[p] = vc.env(ProcessId(static_cast<int>(p)), cut[p]);
    return phi(envs);
  };

  // Flat-storage BFS (common/cut_storage.h): visited-insertion order equals
  // FIFO pop order, so the frontier is the arena suffix past `head`.
  CutArena arena(N);
  CutTable visited;
  const CutHash hasher;
  std::vector<StateIndex> scratch(N, 1);
  visited.intern(arena, scratch, hasher(scratch));

  const auto fill_stats = [&] {
    arena.add_stats(res.storage);
    visited.add_stats(res.storage);
  };

  for (std::size_t head = 0; head < arena.size(); ++head) {
    arena.copy_to(static_cast<CutHandle>(head), scratch);
    ++res.cuts_explored;
    if (satisfies(scratch)) {
      res.detected = true;
      res.cut = scratch;
      fill_stats();
      return res;
    }
    if (max_cuts >= 0 && res.cuts_explored >= max_cuts) {
      res.truncated = true;
      fill_stats();
      return res;
    }
    for (std::size_t p = 0; p < N; ++p) {
      if (scratch[p] + 1 > clocks.num_states(p) ||
          !clocks.advance_consistent(scratch, p))
        continue;
      scratch[p] += 1;
      visited.intern(arena, scratch, hasher(scratch));
      scratch[p] -= 1;
    }
  }
  fill_stats();
  return res;
}

}  // namespace wcp::detect
