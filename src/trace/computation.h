// The computation (poset) model of §2.
//
// A Computation records one finite run of a distributed program of N
// processes: per-process sequences of local states separated by send/receive
// events, the message pairing between them, and the truth value of each
// process's local predicate in each state.
//
// States are numbered the way the paper's vector clocks number them
// (Fig. 2): state k on P_i is the k-th communication-free interval; the
// event between states k and k+1 is either a send or a receive. A message
// sent between states k and k+1 is said to be "sent from state k" — it
// carries the clock of state k — and a message received between states l
// and l+1 is "received into state l+1".
//
// Computation is immutable once built (via ComputationBuilder or a trace
// loader) and provides the ground-truth happened-before oracle used by
// tests, offline reference detectors, and the EXPERIMENTS harness. It is a
// thin view over one TraceStore (trace_store.h): every computation, built or
// loaded, is held as the store's packed columns.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "clock/dependence.h"
#include "clock/vector_clock.h"
#include "common/types.h"
#include "trace/trace_store_stats.h"

namespace wcp {

class TraceStore;

/// Identifier of a message within one computation.
using MessageId = std::int64_t;

/// Kind of communication event on a process timeline.
enum class EventKind : std::uint8_t { kSend, kReceive };

/// One communication event on a process. The event at position t (0-based)
/// on process p transitions local state t+1 to state t+2.
struct Event {
  EventKind kind;
  MessageId msg = -1;

  friend bool operator==(const Event&, const Event&) = default;
};

/// Message pairing: sent by `from` from state `send_state`, received by `to`
/// into state `recv_state` (i.e. the receive created state recv_state).
/// recv_state == 0 means the message was still in flight when the observed
/// run ended (allowed; it induces no dependence).
struct MessageRecord {
  ProcessId from;
  StateIndex send_state = 0;
  ProcessId to;
  StateIndex recv_state = 0;

  [[nodiscard]] bool delivered() const { return recv_state != 0; }

  friend bool operator==(const MessageRecord&, const MessageRecord&) = default;
};

/// High bit of a packed trace-store event word: set for receives; the low
/// 31 bits are the message id. This is the wcp-tracebin 1 event-column
/// encoding (trace_store.h), shared here so views can decode it in place.
inline constexpr std::uint32_t kPackedEventReceiveBit = 0x8000'0000u;

/// Decodes one packed event word.
inline Event decode_event(const std::uint32_t* w) {
  return Event{(*w & kPackedEventReceiveBit) != 0 ? EventKind::kReceive
                                                  : EventKind::kSend,
               static_cast<MessageId>(*w & ~kPackedEventReceiveBit)};
}

/// Decodes one packed {from, send_state, to, recv_state} message quad.
inline MessageRecord decode_message(const std::uint32_t* q) {
  return MessageRecord{ProcessId(static_cast<std::int32_t>(q[0])),
                       static_cast<StateIndex>(q[1]),
                       ProcessId(static_cast<std::int32_t>(q[2])),
                       static_cast<StateIndex>(q[3])};
}

/// Random-access, value-returning view of a packed TraceStore column of
/// fixed-width records, `Words` 32-bit words each, decoded on access: loops
/// walk the (possibly mmap-ed) column without materializing records.
template <class Record, std::size_t Words,
          Record (*Decode)(const std::uint32_t*)>
class PackedView {
 public:
  PackedView() = default;
  explicit PackedView(std::span<const std::uint32_t> words)
      : words_(words.data()), size_(words.size() / Words) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] Record operator[](std::size_t i) const {
    return Decode(words_ + i * Words);
  }

  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Record;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Record;

    iterator() = default;
    iterator(const PackedView* v, std::size_t i) : v_(v), i_(i) {}
    Record operator*() const { return (*v_)[i_]; }
    Record operator[](difference_type d) const {
      return (*v_)[i_ + static_cast<std::size_t>(d)];
    }
    iterator& operator++() { ++i_; return *this; }
    iterator operator++(int) { iterator t = *this; ++i_; return t; }
    iterator& operator--() { --i_; return *this; }
    iterator operator--(int) { iterator t = *this; --i_; return t; }
    iterator& operator+=(difference_type d) { i_ += static_cast<std::size_t>(d); return *this; }
    iterator& operator-=(difference_type d) { i_ -= static_cast<std::size_t>(d); return *this; }
    friend iterator operator+(iterator it, difference_type d) { return it += d; }
    friend iterator operator+(difference_type d, iterator it) { return it += d; }
    friend iterator operator-(iterator it, difference_type d) { return it -= d; }
    friend difference_type operator-(const iterator& a, const iterator& b) {
      return static_cast<difference_type>(a.i_) -
             static_cast<difference_type>(b.i_);
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.i_ == b.i_;
    }
    friend auto operator<=>(const iterator& a, const iterator& b) {
      return a.i_ <=> b.i_;
    }

   private:
    const PackedView* v_ = nullptr;
    std::size_t i_ = 0;
  };

  [[nodiscard]] iterator begin() const { return {this, 0}; }
  [[nodiscard]] iterator end() const { return {this, size_}; }

 private:
  const std::uint32_t* words_ = nullptr;
  std::size_t size_ = 0;
};

/// One process's event timeline.
using EventView = PackedView<Event, 1, decode_event>;
/// The message table.
using MessageView = PackedView<MessageRecord, 4, decode_message>;

class ComputationBuilder;

class Computation {
 public:
  /// The computation whose events, predicates, messages, and ground-truth
  /// clocks are served directly out of `store`, so a mapped store stays on
  /// disk and pages in on demand. Only O(N) shape metadata is copied.
  static Computation from_store(std::shared_ptr<const TraceStore> store);

  /// Number of processes N.
  [[nodiscard]] std::size_t num_processes() const { return pred_slot_.size(); }

  /// The n processes over which the WCP is defined, in cut order.
  [[nodiscard]] std::span<const ProcessId> predicate_processes() const {
    return predicate_processes_;
  }

  /// Position of p within predicate_processes(), or -1.
  [[nodiscard]] int predicate_slot(ProcessId p) const {
    return pred_slot_.at(p.idx());
  }

  /// Number of local states on process p (>= 1). Inline: the O(N) state
  /// counts are cached here so the hot exploration loops never call into
  /// the store for shape.
  [[nodiscard]] StateIndex num_states(ProcessId p) const {
    return states_.at(p.idx());
  }

  /// Truth of p's local predicate in state k (1-based).
  [[nodiscard]] bool local_pred(ProcessId p, StateIndex k) const;

  /// Events on process p's timeline, in order (a value-returning view over
  /// the store's packed column).
  [[nodiscard]] EventView events(ProcessId p) const;

  [[nodiscard]] MessageView messages() const;

  [[nodiscard]] MessageRecord message(MessageId id) const;

  /// m in the paper: max over processes of (sends + receives).
  [[nodiscard]] std::int64_t max_messages_per_process() const;

  /// Total number of local states, summed over processes.
  [[nodiscard]] std::int64_t total_states() const;

  // ---- Ground-truth causality (full-width vector clocks) ----------------

  /// Full-width (N-component) vector clock of state (p, k), reconstructed on
  /// demand from the store's delta-encoded clock index (built once, lazily,
  /// on the first clock read of a built computation).
  [[nodiscard]] VectorClock ground_truth_clock(ProcessId p,
                                               StateIndex k) const;

  /// Single component j of the clock of state (p, k): one interval-index
  /// binary search, no full-clock materialization. The hot path for
  /// happened_before and the slice causal-floor computation.
  [[nodiscard]] StateIndex clock_component(ProcessId p, StateIndex k,
                                           ProcessId j) const;

  /// Ground-truth happened-before between states (§2). k == 0 (pre-initial)
  /// happens before everything on other processes' positive states? No:
  /// the pre-initial placeholder never participates; requires k >= 1.
  [[nodiscard]] bool happened_before(ProcessId i, StateIndex a, ProcessId j,
                                     StateIndex b) const;

  [[nodiscard]] bool concurrent(ProcessId i, StateIndex a, ProcessId j,
                                StateIndex b) const {
    return !happened_before(i, a, j, b) && !happened_before(j, b, i, a) &&
           !(i == j && a == b);
  }

  /// True iff the cut (one state per process in `procs` order) is pairwise
  /// concurrent.
  [[nodiscard]] bool is_consistent_cut(std::span<const ProcessId> procs,
                                       std::span<const StateIndex> cut) const;

  // ---- Offline reference oracles -----------------------------------------

  /// First (pointwise-minimal) cut over predicate_processes() whose states
  /// all satisfy their local predicates and are pairwise concurrent.
  /// std::nullopt if the WCP never holds in this run.
  [[nodiscard]] std::optional<std::vector<StateIndex>> first_wcp_cut() const;

  /// First consistent cut over all N processes in which every predicate
  /// process satisfies its local predicate and every non-predicate process
  /// is unconstrained. Used to validate the direct-dependence algorithm.
  [[nodiscard]] std::optional<std::vector<StateIndex>>
  first_wcp_cut_all_processes() const;

  /// First (pointwise-minimal) pairwise-concurrent cut over `procs` that
  /// takes slot s's state from candidates[s] (admissible state indices in
  /// increasing order), by the advance-candidate strategy of the token
  /// algorithms. std::nullopt if there is none. The two oracles above call
  /// it with the states their predicates admit.
  [[nodiscard]] std::optional<std::vector<StateIndex>> first_cut(
      std::span<const ProcessId> procs,
      const std::vector<std::vector<StateIndex>>& candidates) const;

  // ---- Derived per-state instrumentation data ----------------------------

  /// Direct dependences recorded during state (p,k): one (sender, clock)
  /// pair for the receive that created state k, if any (§4.1).
  [[nodiscard]] std::optional<Dependence> receive_dependence(
      ProcessId p, StateIndex k) const;

  // ---- Columnar trace store ----------------------------------------------

  /// The columnar store holding this computation, with its clock index
  /// built (this call forces the first clock read of a built computation;
  /// callers that fan out across threads make it first).
  [[nodiscard]] const TraceStore& trace_store() const;

  /// Storage counters of the store; all-zero while the clock index of a
  /// built computation has not been needed yet.
  [[nodiscard]] TraceStoreStats trace_store_stats() const;

 private:
  // Shared by copies of this computation, so they share one clock index.
  std::shared_ptr<const TraceStore> store_;
  std::vector<ProcessId> predicate_processes_;
  std::vector<int> pred_slot_;     // process idx -> slot in predicate list, -1
  std::vector<StateIndex> states_;  // per-process state counts
};

std::ostream& operator<<(std::ostream& os, const Computation& c);

/// Incremental builder. Events must be appended in an order that is causally
/// valid (a receive may only be appended after its send). It appends the
/// wcp-tracebin 1 columns directly; build() hands them to a TraceStore,
/// which indexes the clocks on their first read.
class ComputationBuilder {
 public:
  explicit ComputationBuilder(std::size_t num_processes);

  /// Restrict the WCP to these processes (default: all N). Must be called
  /// before build(); order defines cut component order.
  void set_predicate_processes(std::vector<ProcessId> procs);

  /// Default truth value of newly created states on p (initial state
  /// included). Typically false for predicate processes, true for others.
  void set_default_pred(ProcessId p, bool value);

  /// Set the local predicate value of p's *current* (latest) state.
  void mark_pred(ProcessId p, bool value = true);

  /// Append a send event on `from`; returns the message id.
  MessageId send(ProcessId from, ProcessId to);

  /// Append the receive of `msg` on its destination process.
  void receive(MessageId msg);

  /// send() immediately followed by receive().
  MessageId transfer(ProcessId from, ProcessId to);

  /// Destination process of a previously sent message.
  [[nodiscard]] ProcessId message_destination(MessageId msg) const;

  /// Number of messages currently sent but not yet received to `to`.
  [[nodiscard]] std::size_t in_flight_to(ProcessId to) const;

  /// Pops the id of some in-flight message addressed to `to` (FIFO order).
  [[nodiscard]] std::optional<MessageId> next_in_flight_to(ProcessId to) const;

  [[nodiscard]] StateIndex current_state(ProcessId p) const;

  [[nodiscard]] std::size_t num_processes() const { return default_pred_.size(); }

  /// Finalize. The builder is left in a moved-from state.
  Computation build();

 private:
  void check_pid(ProcessId p) const;
  /// Appends an event word to p's timeline, opening a state that takes p's
  /// default predicate value.
  void append_event(ProcessId p, std::uint32_t word);
  /// Offset of message `msg`'s {from, send_state, to, recv_state} quad.
  [[nodiscard]] std::size_t quad(MessageId msg) const;

  std::vector<ProcessId> predicate_processes_;
  std::vector<bool> default_pred_;
  // The store's columns, per process until build() concatenates them.
  std::vector<std::vector<std::uint32_t>> events_;     // packed event words
  std::vector<std::vector<std::uint64_t>> pred_bits_;  // 64 states per word
  std::vector<std::uint32_t> messages_;                // quads, by message id
  std::vector<std::vector<MessageId>> in_flight_;  // per destination, FIFO
  mutable std::vector<std::size_t> in_flight_head_;
};

}  // namespace wcp
