#include "detect/boolean.h"

#include "common/error.h"

namespace wcp::detect {

DnfResult detect_dnf(const Computation& comp,
                     std::span<const Conjunct> disjuncts) {
  const auto preds = comp.predicate_processes();
  DnfResult res;
  res.satisfiable.assign(disjuncts.size(), false);

  for (std::size_t d = 0; d < disjuncts.size(); ++d) {
    const Conjunct& conj = disjuncts[d];
    WCP_REQUIRE(!conj.empty(), "empty conjunct " << d);

    std::vector<ProcessId> procs;
    std::vector<std::vector<StateIndex>> cand;
    std::vector<bool> seen(preds.size(), false);
    for (const Literal& lit : conj) {
      WCP_REQUIRE(lit.slot >= 0 &&
                      static_cast<std::size_t>(lit.slot) < preds.size(),
                  "literal slot " << lit.slot << " out of range");
      WCP_REQUIRE(!seen[static_cast<std::size_t>(lit.slot)],
                  "slot " << lit.slot << " repeated in conjunct " << d);
      seen[static_cast<std::size_t>(lit.slot)] = true;
      const ProcessId p = preds[static_cast<std::size_t>(lit.slot)];
      procs.push_back(p);
      std::vector<StateIndex> states;
      for (StateIndex k = 1; k <= comp.num_states(p); ++k)
        if (comp.local_pred(p, k) != lit.negated) states.push_back(k);
      cand.push_back(std::move(states));
    }

    const auto cut = comp.first_cut(procs, cand);
    res.satisfiable[d] = cut.has_value();
    if (cut && !res.detected) {
      res.detected = true;
      res.disjunct = static_cast<int>(d);
      res.procs = std::move(procs);
      res.cut = *cut;
    }
  }
  return res;
}

}  // namespace wcp::detect
