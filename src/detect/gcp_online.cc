#include "detect/gcp_online.h"

#include <optional>
#include <utility>
#include <vector>

#include "common/error.h"
#include "detect/core_host.h"
#include "detect/stream_core.h"

namespace wcp::detect {

DetectionResult run_gcp_centralized(const Computation& comp,
                                    std::span<const ChannelPredicate> channels,
                                    const RunOptions& opts) {
  // Each channel predicate with its endpoints' predicate slots.
  struct Channel {
    ChannelPredicate cp;
    std::size_t from_slot;
    std::size_t to_slot;
  };
  std::vector<Channel> chans;
  for (const auto& cp : channels) {
    const int from = comp.predicate_slot(cp.from);
    const int to = comp.predicate_slot(cp.to);
    WCP_REQUIRE(from >= 0 && to >= 0, "channel endpoint of "
                                          << cp
                                          << " is not a predicate process");
    chans.push_back({cp, static_cast<std::size_t>(from),
                     static_cast<std::size_t>(to)});
  }

  // On a consistent head cut, the first violated channel predicate
  // eliminates a head: empty / at-most-k the receiver's, at-least-k the
  // sender's (only sending more can satisfy it).
  const auto make = [&chans](const CoreHost& host, app::CoreHooks hooks) {
    hooks.veto = [&chans, &host, work = hooks.work](
                     std::span<const StateIndex> heads)
        -> std::optional<std::size_t> {
      for (const Channel& c : chans) {
        work(1);
        const std::int64_t transit =
            host.snapshot(c.from_slot, heads[c.from_slot])
                .sent_to[c.cp.to.idx()] -
            host.snapshot(c.to_slot, heads[c.to_slot])
                .recv_from[c.cp.from.idx()];
        if (c.cp.holds(transit)) continue;
        return c.cp.kind == ChannelPredicate::Kind::kAtLeast ? c.from_slot
                                                             : c.to_slot;
      }
      return std::nullopt;
    };
    return std::make_unique<CentralizedCore>(host.stream(), std::move(hooks));
  };

  app::AppDriverOptions drv;
  drv.include_channel_counts = true;
  return run_core_host(comp, opts, drv, /*ends_on_eos=*/false, make).result();
}

}  // namespace wcp::detect
