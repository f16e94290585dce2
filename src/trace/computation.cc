#include "trace/computation.h"

#include <algorithm>
#include <ostream>

#include "common/error.h"
#include "trace/trace_store.h"

namespace wcp {

Computation Computation::from_store(std::shared_ptr<const TraceStore> store) {
  WCP_REQUIRE(store != nullptr, "cannot build a computation from a null store");
  Computation c;
  const std::size_t N = store->num_processes();
  c.store_backed_ = true;
  c.store_states_.resize(N);
  for (std::size_t p = 0; p < N; ++p)
    c.store_states_[p] = store->num_states(ProcessId(static_cast<int>(p)));
  c.pred_slot_.assign(N, -1);
  for (std::uint32_t v : store->predicate_processes()) {
    const ProcessId p(static_cast<std::int32_t>(v));
    c.pred_slot_.at(p.idx()) = static_cast<int>(c.predicate_processes_.size());
    c.predicate_processes_.push_back(p);
  }
  c.store_ = std::move(store);
  return c;
}

bool Computation::local_pred(ProcessId p, StateIndex k) const {
  if (store_backed_) return store_->local_pred(p, k);
  const auto& pp = per_process_.at(p.idx());
  WCP_REQUIRE(k >= 1 && k <= static_cast<StateIndex>(pp.pred.size()),
              "state (" << p << "," << k << ") out of range");
  return pp.pred[static_cast<std::size_t>(k - 1)];
}

EventView Computation::events(ProcessId p) const {
  if (store_backed_) {
    const auto col = store_->packed_events(p);
    return EventView(col.data(), col.size());
  }
  const auto& pp = per_process_.at(p.idx());
  return EventView(pp.events.data(), pp.events.size());
}

MessageView Computation::messages() const {
  if (store_backed_) {
    const auto tbl = store_->packed_messages();
    return MessageView(tbl.data(), tbl.size() / 4);
  }
  return MessageView(messages_.data(), messages_.size());
}

MessageRecord Computation::message(MessageId id) const {
  if (store_backed_) return store_->message(id);
  return messages_.at(static_cast<std::size_t>(id));
}

std::int64_t Computation::max_messages_per_process() const {
  // events on p == states on p minus one, on both representations.
  std::int64_t mx = 0;
  for (std::size_t p = 0; p < num_processes(); ++p)
    mx = std::max(mx, static_cast<std::int64_t>(
                          num_states(ProcessId(static_cast<int>(p))) - 1));
  return mx;
}

std::int64_t Computation::total_states() const {
  std::int64_t sum = 0;
  for (std::size_t p = 0; p < num_processes(); ++p)
    sum += static_cast<std::int64_t>(num_states(ProcessId(static_cast<int>(p))));
  return sum;
}

void Computation::ensure_ground_truth() const {
  if (store_) return;
  store_ = std::make_shared<const TraceStore>(TraceStore::build(*this));
}

VectorClock Computation::ground_truth_clock(ProcessId p, StateIndex k) const {
  ensure_ground_truth();
  return store_->clock(p, k);
}

StateIndex Computation::clock_component(ProcessId p, StateIndex k,
                                        ProcessId j) const {
  ensure_ground_truth();
  return store_->clock_component(p, k, j);
}

const TraceStore& Computation::trace_store() const {
  ensure_ground_truth();
  return *store_;
}

TraceStoreStats Computation::trace_store_stats() const {
  return store_ ? store_->stats() : TraceStoreStats{};
}

void Computation::adopt_trace_store(std::shared_ptr<const TraceStore> store) {
  WCP_REQUIRE(store != nullptr, "cannot adopt a null trace store");
  WCP_REQUIRE(store->num_processes() == num_processes(),
              "trace store is for " << store->num_processes()
                                    << " processes, computation has "
                                    << num_processes());
  for (std::size_t p = 0; p < num_processes(); ++p) {
    const ProcessId pid(static_cast<int>(p));
    WCP_REQUIRE(store->num_states(pid) == num_states(pid),
                "trace store has " << store->num_states(pid)
                                   << " states on " << pid
                                   << ", computation has " << num_states(pid));
  }
  store_ = std::move(store);
}

bool Computation::happened_before(ProcessId i, StateIndex a, ProcessId j,
                                  StateIndex b) const {
  if (i == j) return a < b;
  // (i,a) -> (j,b) iff the clock of (j,b) has seen state a of P_i, i.e. a
  // message chain leaving P_i at or after state a reached (j,b). One
  // component lookup; the full clock is never reconstructed.
  return clock_component(j, b, i) >= a;
}

bool Computation::is_consistent_cut(std::span<const ProcessId> procs,
                                    std::span<const StateIndex> cut) const {
  WCP_REQUIRE(procs.size() == cut.size(), "cut width mismatch");
  for (std::size_t s = 0; s < procs.size(); ++s)
    for (std::size_t t = 0; t < procs.size(); ++t)
      if (s != t && happened_before(procs[s], cut[s], procs[t], cut[t]))
        return false;
  return true;
}

std::optional<std::vector<StateIndex>> Computation::first_cut(
    std::span<const ProcessId> procs,
    const std::vector<std::vector<StateIndex>>& candidates) const {
  const std::size_t w = procs.size();
  std::vector<std::size_t> pos(w, 0);
  for (std::size_t s = 0; s < w; ++s)
    if (candidates[s].empty()) return std::nullopt;

  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t s = 0; s < w && !changed; ++s) {
      for (std::size_t t = 0; t < w; ++t) {
        if (s == t) continue;
        if (happened_before(procs[s], candidates[s][pos[s]], procs[t],
                            candidates[t][pos[t]])) {
          if (++pos[s] >= candidates[s].size()) return std::nullopt;
          changed = true;
          break;
        }
      }
    }
  }
  std::vector<StateIndex> cut(w);
  for (std::size_t s = 0; s < w; ++s) cut[s] = candidates[s][pos[s]];
  return cut;
}

std::optional<std::vector<StateIndex>> Computation::first_wcp_cut() const {
  const auto procs = predicate_processes();
  std::vector<std::vector<StateIndex>> candidates(procs.size());
  for (std::size_t s = 0; s < procs.size(); ++s) {
    for (StateIndex k = 1; k <= num_states(procs[s]); ++k)
      if (local_pred(procs[s], k)) candidates[s].push_back(k);
  }
  return first_cut(procs, candidates);
}

std::optional<std::vector<StateIndex>>
Computation::first_wcp_cut_all_processes() const {
  std::vector<ProcessId> procs;
  procs.reserve(num_processes());
  for (std::size_t p = 0; p < num_processes(); ++p)
    procs.emplace_back(static_cast<int>(p));

  std::vector<std::vector<StateIndex>> candidates(procs.size());
  for (std::size_t s = 0; s < procs.size(); ++s) {
    const bool constrained = predicate_slot(procs[s]) >= 0;
    for (StateIndex k = 1; k <= num_states(procs[s]); ++k)
      if (!constrained || local_pred(procs[s], k)) candidates[s].push_back(k);
  }
  return first_cut(procs, candidates);
}

std::optional<Dependence> Computation::receive_dependence(ProcessId p,
                                                          StateIndex k) const {
  if (k < 2) return std::nullopt;
  const EventView evs = events(p);
  const auto t = static_cast<std::size_t>(k - 2);
  WCP_REQUIRE(t < evs.size(), "state (" << p << "," << k << ") out of range");
  const Event ev = evs[t];
  if (ev.kind != EventKind::kReceive) return std::nullopt;
  const MessageRecord mr = message(ev.msg);
  return Dependence{mr.from, mr.send_state};
}

std::ostream& operator<<(std::ostream& os, const Computation& c) {
  os << "Computation{N=" << c.num_processes() << ", n="
     << c.predicate_processes().size() << ", messages=" << c.messages().size()
     << ", states=" << c.total_states() << "}";
  return os;
}

// ---------------------------------------------------------------------------
// ComputationBuilder

ComputationBuilder::ComputationBuilder(std::size_t num_processes)
    : default_pred_(num_processes, false),
      in_flight_(num_processes),
      in_flight_head_(num_processes, 0) {
  WCP_REQUIRE(num_processes >= 1, "need at least one process");
  c_.per_process_.resize(num_processes);
  for (auto& pp : c_.per_process_) pp.pred.push_back(false);
  c_.pred_slot_.assign(num_processes, -1);
}

void ComputationBuilder::check_pid(ProcessId p) const {
  WCP_REQUIRE(p.valid() && p.idx() < c_.per_process_.size(),
              "bad process id " << p);
}

void ComputationBuilder::set_predicate_processes(std::vector<ProcessId> procs) {
  WCP_REQUIRE(!procs.empty(), "predicate must cover at least one process");
  for (ProcessId p : procs) check_pid(p);
  c_.predicate_processes_ = std::move(procs);
}

void ComputationBuilder::set_default_pred(ProcessId p, bool value) {
  check_pid(p);
  default_pred_[p.idx()] = value;
  auto& pp = c_.per_process_[p.idx()];
  // Apply to the current (still-open) state as well.
  pp.pred.back() = value;
}

void ComputationBuilder::mark_pred(ProcessId p, bool value) {
  check_pid(p);
  c_.per_process_[p.idx()].pred.back() = value;
}

MessageId ComputationBuilder::send(ProcessId from, ProcessId to) {
  check_pid(from);
  check_pid(to);
  WCP_REQUIRE(from != to, "self-messages are not modeled");
  const auto id = static_cast<MessageId>(c_.messages_.size());
  auto& pp = c_.per_process_[from.idx()];
  c_.messages_.push_back(MessageRecord{
      from, static_cast<StateIndex>(pp.pred.size()), to, /*recv_state=*/0});
  pp.events.push_back(Event{EventKind::kSend, id});
  pp.pred.push_back(default_pred_[from.idx()]);
  in_flight_[to.idx()].push_back(id);
  return id;
}

void ComputationBuilder::receive(MessageId msg) {
  WCP_REQUIRE(msg >= 0 && msg < static_cast<MessageId>(c_.messages_.size()),
              "unknown message " << msg);
  MessageRecord& mr = c_.messages_[static_cast<std::size_t>(msg)];
  WCP_REQUIRE(!mr.delivered(), "message " << msg << " received twice");
  auto& pp = c_.per_process_[mr.to.idx()];
  pp.events.push_back(Event{EventKind::kReceive, msg});
  pp.pred.push_back(default_pred_[mr.to.idx()]);
  mr.recv_state = static_cast<StateIndex>(pp.pred.size());
  // Lazily maintained FIFO view: drop the id from the in-flight queue when
  // it reaches the head (next_in_flight_to skips delivered ids).
}

MessageId ComputationBuilder::transfer(ProcessId from, ProcessId to) {
  const MessageId id = send(from, to);
  receive(id);
  return id;
}

ProcessId ComputationBuilder::message_destination(MessageId msg) const {
  WCP_REQUIRE(msg >= 0 && msg < static_cast<MessageId>(c_.messages_.size()),
              "unknown message " << msg);
  return c_.messages_[static_cast<std::size_t>(msg)].to;
}

std::size_t ComputationBuilder::in_flight_to(ProcessId to) const {
  check_pid(to);
  std::size_t count = 0;
  const auto& q = in_flight_[to.idx()];
  for (std::size_t i = in_flight_head_[to.idx()]; i < q.size(); ++i)
    if (!c_.messages_[static_cast<std::size_t>(q[i])].delivered()) ++count;
  return count;
}

std::optional<MessageId> ComputationBuilder::next_in_flight_to(
    ProcessId to) const {
  check_pid(to);
  const auto& q = in_flight_[to.idx()];
  auto& head = in_flight_head_[to.idx()];
  while (head < q.size() &&
         c_.messages_[static_cast<std::size_t>(q[head])].delivered())
    ++head;
  if (head >= q.size()) return std::nullopt;
  return q[head];
}

StateIndex ComputationBuilder::current_state(ProcessId p) const {
  check_pid(p);
  return static_cast<StateIndex>(c_.per_process_[p.idx()].pred.size());
}

Computation ComputationBuilder::build() {
  if (c_.predicate_processes_.empty()) {
    for (std::size_t p = 0; p < c_.per_process_.size(); ++p)
      c_.predicate_processes_.emplace_back(static_cast<int>(p));
  }
  c_.pred_slot_.assign(c_.per_process_.size(), -1);
  for (std::size_t s = 0; s < c_.predicate_processes_.size(); ++s) {
    ProcessId p = c_.predicate_processes_[s];
    WCP_REQUIRE(c_.pred_slot_[p.idx()] == -1,
                "process " << p << " listed twice in predicate");
    c_.pred_slot_[p.idx()] = static_cast<int>(s);
  }
  return std::move(c_);
}

}  // namespace wcp
