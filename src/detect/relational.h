// General (including relational) global predicates over program variables —
// the Cooper-Marzullo capability the paper cites ([3]; relational
// predicates are [13]).
//
// The predicate is any callback over the variable bindings of a global
// state (one Env per process). Detection is possibly(Φ): breadth-first
// search of the lattice of consistent cuts over all processes — the
// exponential cost that motivates the paper's WCP-specialized algorithms,
// but the only general technique for, e.g., x_0 + x_1 + x_2 > K. The search
// is the shared admit-all lattice search (search_levels,
// detect/slot_clocks.h) on one lane with Φ as its goal test, so it explores
// exactly the cuts, in exactly the order, that detect_lattice does over the
// same process list.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/cut_storage.h"
#include "predicate/program.h"

namespace wcp::detect {

/// Evaluated on the cut's bindings: envs[p] is process p's variables.
using GlobalPredicate = std::function<bool(std::span<const pred::Env> envs)>;

struct GeneralResult {
  bool detected = false;
  bool truncated = false;
  std::vector<StateIndex> cut;  // width N (all processes)
  std::int64_t cuts_explored = 0;
  CutStorageStats storage;  ///< measured cut-storage footprint
};

/// possibly(Φ) over the variable traces. Explores at most `max_cuts`
/// consistent cuts (<0: unbounded).
GeneralResult detect_possibly_general(const pred::VarComputation& vc,
                                      const GlobalPredicate& phi,
                                      std::int64_t max_cuts = -1);

}  // namespace wcp::detect
