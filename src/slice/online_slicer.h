// Online computation slicing — incremental slice-based detection in the
// style of Chauhan et al.'s distributed abstraction algorithm: every
// predicate process streams a snapshot of EVERY local state (vector clock +
// predicate value) to one coordinator, as for the online Cooper-Marzullo
// checker (detect/lattice_online.h).
//
// Where the Cooper-Marzullo checker materializes the lattice of consistent
// cuts breadth-first (O(m^n) cuts), the online slicer maintains exactly ONE
// candidate — the least satisfying consistent cut of the states seen so
// far — and advances it past false or causally-dominated states as
// snapshots arrive (the jil.h fixpoint run incrementally, O(n^2 m) total).
// On stabilization the candidate is the same pointwise-minimal cut
// detect_lattice returns. After the run, Slice::build reads the stream the
// coordinator host received (it is an app::StateStream itself) to report
// slice-specific counters (JIL groups, quotient-DAG edges, satisfying-cut
// count) next to the baseline's cuts_explored (detect::run_slice_online,
// detect/sliced.h).
//
// The candidate fixpoint is SlicerCore, run by the simulator's coordinator
// host (detect/core_host.h) and by the streaming service (src/serve);
// SlicerCore is the cheapest core of the four — O(n) resident state,
// frontier == candidate.
#pragma once

#include <cstdint>
#include <vector>

#include "app/state_stream.h"

namespace wcp::slice {

/// The incremental candidate fixpoint over a StateStream. Maintains the
/// least consistent cut whose arrived components all satisfy the local
/// predicates; detected when stable and fully arrived, impossible when a
/// stream ends below the candidate.
class SlicerCore final : public app::StreamCore {
 public:
  SlicerCore(const app::StateStream& stream, app::CoreHooks hooks);

  void on_state(std::size_t s) override;
  void on_eos(std::size_t s) override;

  [[nodiscard]] bool done() const override { return done_; }
  [[nodiscard]] bool detected() const override { return detected_; }
  [[nodiscard]] const std::vector<StateIndex>& cut() const override {
    return detected_ ? candidate_ : empty_;
  }
  [[nodiscard]] StateIndex frontier(std::size_t s) const override {
    return done_ ? stream_.last(s) + 1 : candidate_[s];
  }
  [[nodiscard]] std::int64_t resident_bytes() const override {
    return static_cast<std::int64_t>(candidate_.size() * sizeof(StateIndex));
  }

  /// The current least-candidate cut (meaningful even before detection).
  [[nodiscard]] const std::vector<StateIndex>& candidate() const {
    return candidate_;
  }
  [[nodiscard]] std::int64_t jil_advances() const { return jil_advances_; }
  [[nodiscard]] std::int64_t clock_lookups() const { return clock_lookups_; }

 private:
  void advance();
  [[nodiscard]] std::size_t n() const { return candidate_.size(); }

  const app::StateStream& stream_;
  app::CoreHooks hooks_;
  std::vector<StateIndex> candidate_;  // the incremental candidate
  std::vector<StateIndex> empty_;
  bool done_ = false;
  bool detected_ = false;
  std::int64_t jil_advances_ = 0;
  std::int64_t clock_lookups_ = 0;
};

}  // namespace wcp::slice
