#include "detect/core_host.h"

#include <utility>

#include "common/error.h"

namespace wcp::detect {

CoreHost::CoreHost(const Computation& comp, bool all_states, bool ends_on_eos,
                   const MakeCore& make)
    : comp_(comp),
      all_states_(all_states),
      ends_on_eos_(ends_on_eos),
      states_(comp.predicate_processes().size()),
      eos_(states_.size(), false) {
  app::CoreHooks hooks;
  hooks.work = [this](std::int64_t units) {
    net().add_monitor_work(coordinator(), units);
  };
  hooks.released = [this](std::size_t s, StateIndex pos) {
    net().monitor_buffer_change(coordinator(), -snapshot(s, pos).bytes(), -1);
  };
  core_ = make(*this, std::move(hooks));
}

void CoreHost::on_packet(sim::Packet&& p) {
  WCP_CHECK_MSG(p.kind == MsgKind::kSnapshot || p.kind == MsgKind::kControl,
                "coordinator got unexpected " << to_string(p.kind));
  if (core_->done()) return;

  const int slot = comp_.predicate_slot(p.from.pid);
  const auto su = static_cast<std::size_t>(slot);
  if (p.kind == MsgKind::kControl) {
    if (!ends_on_eos_ || slot < 0 ||
        std::any_cast<app::EndOfStream>(&p.payload) == nullptr)
      return;
    eos_[su] = true;
    core_->on_eos(su);
  } else {
    auto snap = std::any_cast<app::VcSnapshot>(std::move(p.payload));
    // All buffering happens at the coordinator: the O(n^2 m) space
    // concentration the distributed algorithms remove (§3.4).
    net().monitor_buffer_change(coordinator(), snap.bytes(), +1);
    WCP_CHECK_MSG(slot >= 0, "snapshot from non-predicate process " << p.from);
    // FIFO app->coordinator gives states in order; in all-states streams
    // the arrival position is the state index (own clock component).
    WCP_CHECK_MSG(!all_states_ || snap.vclock[su] == last(su) + 1,
                  "state stream gap at slot " << slot);
    states_[su].push_back(std::move(snap));
    core_->on_state(su);
  }

  if (!core_->done()) return;
  if (core_->detected()) detect_time_ = net().simulator().now();
  if (core_->detected() || ends_on_eos_) net().simulator().stop();
}

DetectionResult HostedRun::result() const {
  const auto& core = host->core<app::StreamCore>();
  SharedDetection shared;
  shared.detected = core.detected();
  shared.cut = core.cut();
  shared.detect_time = host->detect_time();
  DetectionResult r;
  finish_result(r, *net, shared);
  return r;
}

HostedRun run_core_host(const Computation& comp, const RunOptions& opts,
                        app::AppDriverOptions drv, bool ends_on_eos,
                        const CoreHost::MakeCore& make) {
  HostedRun run;
  run.net = std::make_unique<sim::Network>(
      network_config(opts, comp.num_processes()));
  auto host = std::make_unique<CoreHost>(comp, drv.snapshot_all_states,
                                         ends_on_eos, make);
  run.host = host.get();
  run.net->add_node(sim::NodeAddr::coordinator(), std::move(host));

  drv.mode = app::Instrumentation::kVectorClock;
  drv.step_delay = opts.step_delay;
  app::install_app_drivers(*run.net, comp, drv, [](ProcessId) {
    return sim::NodeAddr::coordinator();
  });

  run.net->start_and_run(opts.max_events);
  return run;
}

}  // namespace wcp::detect
