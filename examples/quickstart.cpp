// Quickstart: build a tiny distributed computation, define a weak
// conjunctive predicate over it, and detect the first cut where it holds,
// using each of the paper's algorithms and the baselines.
//
//   $ ./quickstart
#include <iostream>

#include "detect/registry.h"
#include "trace/computation.h"

int main() {
  using namespace wcp;

  // A three-process run. P0 and P1 carry local predicates ("x > 0" on P0,
  // "y > 0" on P1, say); P2 only relays messages.
  //
  //   P0:  [1:pred]  --m0-->        [2:pred]
  //   P2:  [1]  (recv m0) [2] --m1--> [3]
  //   P1:  [1]        (recv m1) [2:pred]
  //
  // (0,1) happened before (1,2) through the relay, so the first consistent
  // cut with both predicates true is {(0,2), (1,2)}.
  ComputationBuilder builder(3);
  builder.set_predicate_processes({ProcessId(0), ProcessId(1)});
  builder.mark_pred(ProcessId(0), true);             // P0 state 1
  builder.transfer(ProcessId(0), ProcessId(2));      // m0
  builder.mark_pred(ProcessId(0), true);             // P0 state 2
  builder.transfer(ProcessId(2), ProcessId(1));      // m1
  builder.mark_pred(ProcessId(1), true);             // P1 state 2
  const Computation comp = builder.build();

  std::cout << "computation: " << comp << "\n";

  // Every detector of the registry, by name — the table behind
  // `wcp_cli detect --algo`. The oracle is the offline reference: the
  // pointwise-minimal WCP cut.
  for (const detect::Detector& d : detect::detectors())
    detect::write_verdict_text(std::cout, d.name,
                               detect::run_detector(comp, d.name, {}));
  return 0;
}
