#include "detect/gcp.h"

#include <algorithm>
#include <map>
#include <ostream>

#include "common/error.h"
#include "detect/slot_clocks.h"

namespace wcp::detect {

std::vector<ChannelPredicate> ChannelPredicate::all_channels_empty(
    std::size_t N) {
  std::vector<ChannelPredicate> out;
  out.reserve(N * (N - 1));
  for (std::size_t i = 0; i < N; ++i)
    for (std::size_t j = 0; j < N; ++j)
      if (i != j)
        out.push_back(empty(ProcessId(static_cast<int>(i)),
                            ProcessId(static_cast<int>(j))));
  return out;
}

std::ostream& operator<<(std::ostream& os, const ChannelPredicate& cp) {
  os << "channel(" << cp.from << "->" << cp.to << ") ";
  switch (cp.kind) {
    case ChannelPredicate::Kind::kEmpty: return os << "empty";
    case ChannelPredicate::Kind::kAtMost: return os << "<= " << cp.k;
    case ChannelPredicate::Kind::kAtLeast: return os << ">= " << cp.k;
  }
  return os;
}

namespace {

// Per-channel sorted event positions, for O(log) prefix counts.
struct ChannelCounts {
  std::vector<StateIndex> send_states;  // sorted send_state values
  std::vector<StateIndex> recv_states;  // sorted recv_state values (>0 only)

  // Messages sent by `from` while it advanced to state f: send transitions
  // s -> s+1 with s < f.
  [[nodiscard]] std::int64_t sent_before(StateIndex f) const {
    return std::lower_bound(send_states.begin(), send_states.end(), f) -
           send_states.begin();
  }
  // Messages received by `to` at state t: receive created a state r <= t.
  [[nodiscard]] std::int64_t received_at(StateIndex t) const {
    return std::upper_bound(recv_states.begin(), recv_states.end(), t) -
           recv_states.begin();
  }
};

ChannelCounts build_counts(const Computation& comp, ProcessId from,
                           ProcessId to) {
  ChannelCounts cc;
  for (const MessageRecord& m : comp.messages()) {
    if (m.from != from || m.to != to) continue;
    cc.send_states.push_back(m.send_state);
    if (m.delivered()) cc.recv_states.push_back(m.recv_state);
  }
  std::sort(cc.send_states.begin(), cc.send_states.end());
  std::sort(cc.recv_states.begin(), cc.recv_states.end());
  return cc;
}

// The GCP's process set: the computation's predicate processes plus every
// channel endpoint, in ascending id order.
std::vector<ProcessId> gcp_process_set(
    const Computation& comp, std::span<const ChannelPredicate> channels) {
  std::vector<ProcessId> procs(comp.predicate_processes().begin(),
                               comp.predicate_processes().end());
  for (const auto& cp : channels) {
    procs.push_back(cp.from);
    procs.push_back(cp.to);
  }
  std::sort(procs.begin(), procs.end());
  procs.erase(std::unique(procs.begin(), procs.end()), procs.end());
  return procs;
}

/// One channel predicate with its event counts and the cut slots of its
/// endpoints within the GCP's process set.
struct ChannelState {
  ChannelPredicate pred;
  ChannelCounts counts;
  std::size_t from_slot, to_slot;

  /// Whether the predicate holds with `from` at state f and `to` at t.
  [[nodiscard]] bool holds(StateIndex f, StateIndex t) const {
    return pred.holds(counts.sent_before(f) - counts.received_at(t));
  }
};

std::vector<ChannelState> channel_states(
    const Computation& comp, std::span<const ChannelPredicate> channels,
    std::span<const ProcessId> procs) {
  std::map<ProcessId, std::size_t> slot_of;
  for (std::size_t s = 0; s < procs.size(); ++s) slot_of[procs[s]] = s;
  std::vector<ChannelState> chans;
  chans.reserve(channels.size());
  for (const auto& cp : channels)
    chans.push_back(ChannelState{cp, build_counts(comp, cp.from, cp.to),
                                 slot_of.at(cp.from), slot_of.at(cp.to)});
  return chans;
}

}  // namespace

std::int64_t in_transit(const Computation& comp, ProcessId from,
                        StateIndex from_state, ProcessId to,
                        StateIndex to_state) {
  const auto cc = build_counts(comp, from, to);
  return cc.sent_before(from_state) - cc.received_at(to_state);
}

GcpResult detect_gcp(const Computation& comp,
                     std::span<const ChannelPredicate> channels) {
  GcpResult res;
  res.procs = gcp_process_set(comp, channels);
  const std::size_t w = res.procs.size();
  WCP_REQUIRE(w >= 1, "GCP over an empty process set");

  // Admissible states per slot: local-predicate states for predicate
  // processes, every state otherwise.
  std::vector<std::vector<StateIndex>> cand(w);
  for (std::size_t s = 0; s < w; ++s) {
    const ProcessId p = res.procs[s];
    const bool constrained = comp.predicate_slot(p) >= 0;
    for (StateIndex k = 1; k <= comp.num_states(p); ++k)
      if (!constrained || comp.local_pred(p, k)) cand[s].push_back(k);
    if (cand[s].empty()) return res;  // local predicate never holds
  }

  const auto chans = channel_states(comp, channels, res.procs);

  std::vector<std::size_t> pos(w, 0);
  auto advance = [&](std::size_t s) -> bool {
    ++res.eliminations;
    return ++pos[s] < cand[s].size();
  };

  bool changed = true;
  while (changed) {
    changed = false;
    // Consistency eliminations (ground-truth happened-before).
    for (std::size_t s = 0; s < w && !changed; ++s) {
      for (std::size_t t = 0; t < w; ++t) {
        if (s == t) continue;
        if (comp.happened_before(res.procs[s], cand[s][pos[s]], res.procs[t],
                                 cand[t][pos[t]])) {
          if (!advance(s)) return res;
          changed = true;
          break;
        }
      }
    }
    if (changed) continue;

    // Channel-predicate eliminations (linear-predicate forbidden states).
    for (const auto& ch : chans) {
      ++res.channel_evals;
      if (ch.holds(cand[ch.from_slot][pos[ch.from_slot]],
                   cand[ch.to_slot][pos[ch.to_slot]]))
        continue;
      // Violated: for receiver-monotone predicates (empty / at-most) the
      // receiver's candidate can never appear in the first satisfying cut;
      // for sender-monotone (at-least) the sender's can't (see gcp.h).
      const std::size_t victim =
          ch.pred.kind == ChannelPredicate::Kind::kAtLeast ? ch.from_slot
                                                           : ch.to_slot;
      if (!advance(victim)) return res;
      changed = true;
      break;
    }
  }

  res.detected = true;
  res.cut.resize(w);
  for (std::size_t s = 0; s < w; ++s) res.cut[s] = cand[s][pos[s]];
  return res;
}

GcpResult detect_gcp_lattice(const Computation& comp,
                             std::span<const ChannelPredicate> channels,
                             std::int64_t max_cuts) {
  GcpResult res;
  res.procs = gcp_process_set(comp, channels);
  const std::size_t w = res.procs.size();
  WCP_REQUIRE(w >= 1, "GCP over an empty process set");

  // Slots whose process carries a local predicate.
  std::vector<std::size_t> constrained;
  for (std::size_t s = 0; s < w; ++s)
    if (comp.predicate_slot(res.procs[s]) >= 0) constrained.push_back(s);
  const auto chans = channel_states(comp, channels, res.procs);
  const SlotClockTable clocks(comp, res.procs);

  // One lane: channel_evals counts the goal runs on the popped cuts only.
  const auto out = search_levels(
      clocks, max_cuts, /*lanes=*/1, [&](std::span<const std::uint32_t> cut) {
        for (const std::size_t s : constrained)
          if (!clocks.pred(s, cut[s])) return false;
        for (const auto& ch : chans) {
          ++res.channel_evals;
          if (!ch.holds(cut[ch.from_slot], cut[ch.to_slot])) return false;
        }
        return true;
      });

  res.detected = out.found;
  res.truncated = out.truncated;
  res.cut = out.cut;
  res.cuts_explored = out.cuts_explored;
  res.storage = out.storage;
  return res;
}

}  // namespace wcp::detect
