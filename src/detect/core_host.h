// Coordinator host — the one sim::Node that runs an incremental detection
// core (app::StreamCore) at the coordinator address of a simulated run.
//
// Every coordinator detector the paper compares against has the same shape:
// each predicate process streams snapshots to one checker process, and the
// checker feeds them to a state machine. The four of this repo differ only
// in the core they host and in what the application processes send:
//
//   detector                 core               stream
//   centralized checker      CentralizedCore    candidates
//   online GCP checker       CentralizedCore    candidates + channel counts
//                            + CoreHooks::veto
//   online lattice checker   LatticeOnlineCore  all states
//   online slicer            slice::SlicerCore  all states + end-of-stream
//
// The host does the simulator plumbing once: it maps each sender to its
// predicate slot, appends the snapshot to the slot's array, charges the
// snapshot's bytes to the coordinator's buffer on receipt and releases them
// through CoreHooks::released, forwards CoreHooks::work into the
// coordinator's work metric, checks all-states streams for gaps, ignores
// packets once the core is done, and stops the simulator on detection. A
// host built with `ends_on_eos` (the slicer) also feeds EndOfStream markers
// to the core and stops on any final verdict; the others never see a stream
// end and run until detection or until the replay drains.
//
// The host is itself the app::StateStream its core reads: position k on
// slot s is the k-th snapshot received from that slot, and simulator runs
// never retire state, so base is 1. After a run the same stream can be
// sliced (slice::Slice::build), as detect::run_slice_online does.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "app/app_driver.h"
#include "app/snapshot.h"
#include "app/state_stream.h"
#include "detect/result.h"
#include "sim/network.h"
#include "trace/computation.h"

namespace wcp::detect {

class CoreHost final : public sim::Node, public app::StateStream {
 public:
  /// Builds the hosted core over host.stream(). `hooks` already forwards
  /// work and releases into the coordinator's metrics; a factory may add
  /// further hooks before constructing the core.
  using MakeCore = std::function<std::unique_ptr<app::StreamCore>(
      const CoreHost& host, app::CoreHooks hooks)>;

  CoreHost(const Computation& comp, bool all_states, bool ends_on_eos,
           const MakeCore& make);

  void on_packet(sim::Packet&& p) override;

  /// The hosted core, as the concrete type the factory built.
  template <typename Core>
  [[nodiscard]] const Core& core() const {
    return static_cast<const Core&>(*core_);
  }
  [[nodiscard]] const app::StateStream& stream() const { return *this; }
  [[nodiscard]] const app::VcSnapshot& snapshot(std::size_t s,
                                                StateIndex pos) const {
    return states_[s][static_cast<std::size_t>(pos - 1)];
  }
  /// Virtual time of detection (0 unless the core detected).
  [[nodiscard]] SimTime detect_time() const { return detect_time_; }

  // --- app::StateStream over the received snapshots ---
  [[nodiscard]] std::size_t slots() const override { return states_.size(); }
  [[nodiscard]] StateIndex last(std::size_t s) const override {
    return static_cast<StateIndex>(states_[s].size());
  }
  [[nodiscard]] StateIndex base(std::size_t) const override { return 1; }
  [[nodiscard]] bool eos(std::size_t s) const override { return eos_[s]; }
  [[nodiscard]] StateIndex clock(std::size_t s, StateIndex pos,
                                 std::size_t t) const override {
    return snapshot(s, pos).vclock[t];
  }
  [[nodiscard]] bool pred(std::size_t s, StateIndex pos) const override {
    return snapshot(s, pos).pred;
  }

 private:
  [[nodiscard]] ProcessId coordinator() const {
    return ProcessId(static_cast<int>(net().num_processes()));
  }

  const Computation& comp_;
  bool all_states_;
  bool ends_on_eos_;
  std::vector<std::vector<app::VcSnapshot>> states_;  // per slot, in order
  std::vector<bool> eos_;  // set on EndOfStream (ends_on_eos hosts only)
  std::unique_ptr<app::StreamCore> core_;
  SimTime detect_time_ = 0;
};

/// Factory for a core constructed as Core(stream, hooks, args...).
template <typename Core, typename... Args>
CoreHost::MakeCore make_core(Args... args) {
  return [=](const CoreHost& host, app::CoreHooks hooks) {
    return std::make_unique<Core>(host.stream(), std::move(hooks), args...);
  };
}

/// A finished coordinator-hosted run: the network (for its metrics) and the
/// host inside it.
struct HostedRun {
  std::unique_ptr<sim::Network> net;
  const CoreHost* host = nullptr;

  /// DetectionResult of the run (verdict, times, stats, metrics, faults).
  [[nodiscard]] DetectionResult result() const;
};

/// Replays `comp` with every predicate process streaming snapshots to a
/// CoreHost at the coordinator address. `drv` selects the stream (candidates
/// or all states, channel counts, clock compression); its pacing is taken
/// from `opts`.
HostedRun run_core_host(const Computation& comp, const RunOptions& opts,
                        app::AppDriverOptions drv, bool ends_on_eos,
                        const CoreHost::MakeCore& make);

}  // namespace wcp::detect
