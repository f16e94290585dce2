// StateStream over the predicate processes of a recorded Computation: the
// all-states stream a coordinator would receive, read from the trace
// instead of the network. Position k on slot s is state k of
// predicate_processes()[s], its clock is that state's vector clock projected
// onto the predicate slots (the width-n clock Fig. 2 stamps on it), and
// nothing is ever retired (base 1).
//
// The stream starts empty and reveals states in order: the offline Fig. 3
// driver (detect/offline.h) appends one state at a time and feeds each to
// its core, while the slicing front ends (slice/slice.h, detect/sliced.h)
// append everything before the JIL fixpoint reads it. A slot's stream ends
// with its last state.
#pragma once

#include <span>
#include <vector>

#include "app/state_stream.h"
#include "common/error.h"
#include "trace/computation.h"

namespace wcp::app {

class ComputationStateStream final : public StateStream {
 public:
  explicit ComputationStateStream(const Computation& comp)
      : comp_(comp),
        preds_(comp.predicate_processes()),
        last_(preds_.size(), 0) {
    WCP_REQUIRE(!preds_.empty(), "empty predicate");
  }

  [[nodiscard]] std::size_t slots() const override { return preds_.size(); }
  [[nodiscard]] StateIndex last(std::size_t s) const override {
    return last_[s];
  }
  [[nodiscard]] StateIndex base(std::size_t) const override { return 1; }
  [[nodiscard]] bool eos(std::size_t s) const override {
    return last_[s] == comp_.num_states(preds_[s]);
  }
  [[nodiscard]] StateIndex clock(std::size_t s, StateIndex pos,
                                 std::size_t t) const override {
    return comp_.clock_component(preds_[s], pos, preds_[t]);
  }
  [[nodiscard]] bool pred(std::size_t s, StateIndex pos) const override {
    return comp_.local_pred(preds_[s], pos);
  }

  /// Reveals the next state of slot s.
  void append(std::size_t s) { ++last_[s]; }
  /// Reveals every remaining state of every slot.
  void append_all() {
    for (std::size_t s = 0; s < preds_.size(); ++s)
      last_[s] = comp_.num_states(preds_[s]);
  }

 private:
  const Computation& comp_;
  std::span<const ProcessId> preds_;
  std::vector<StateIndex> last_;
};

}  // namespace wcp::app
