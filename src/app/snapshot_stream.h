// StateStream view over the per-slot VcSnapshot vectors the simulator's
// coordinator host keeps (detect/core_host.h). Simulator runs never
// garbage-collect (base stays 1), so positions are plain vector indices + 1.
#pragma once

#include <vector>

#include "app/snapshot.h"
#include "app/state_stream.h"

namespace wcp::app {

class SnapshotStateStream final : public StateStream {
 public:
  /// `eos[s]` is set by the owner when slot s's stream ends (hosts that
  /// learn termination from the simulator draining never set it).
  SnapshotStateStream(const std::vector<std::vector<VcSnapshot>>& states,
                      const std::vector<bool>& eos)
      : states_(states), eos_(eos) {}

  [[nodiscard]] std::size_t slots() const override { return states_.size(); }
  [[nodiscard]] StateIndex last(std::size_t s) const override {
    return static_cast<StateIndex>(states_[s].size());
  }
  [[nodiscard]] StateIndex base(std::size_t) const override { return 1; }
  [[nodiscard]] bool eos(std::size_t s) const override { return eos_[s]; }
  [[nodiscard]] StateIndex clock(std::size_t s, StateIndex pos,
                                 std::size_t t) const override {
    return states_[s][static_cast<std::size_t>(pos - 1)].vclock[t];
  }
  [[nodiscard]] bool pred(std::size_t s, StateIndex pos) const override {
    return states_[s][static_cast<std::size_t>(pos - 1)].pred;
  }

 private:
  const std::vector<std::vector<VcSnapshot>>& states_;
  const std::vector<bool>& eos_;
};

}  // namespace wcp::app
