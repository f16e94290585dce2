// Join-irreducible lattice elements (JILs) for conjunctive predicates —
// the core primitive of computation slicing (Mittal & Garg, "Techniques
// and Applications of Computation Slicing"; Chauhan et al., "A Distributed
// Abstraction Algorithm for Online Predicate Detection").
//
// For a conjunctive predicate (one local predicate per slot) the set L of
// satisfying consistent cuts is closed under pointwise meet AND join — the
// predicate is *regular* — so L is a distributive lattice. By Birkhoff's
// theorem L is determined by its join-irreducible elements, and for a
// conjunctive predicate those are exactly the cuts
//
//   J_s(k) = the least satisfying consistent cut C with C[s] >= k,
//
// computed by the standard "advance past false states" fixpoint: start every
// component at its lower bound, and repeatedly (a) advance a component
// sitting on a false state to the next true state, and (b) when component
// (s, C[s]) happened before (t, C[t]), advance C[s] past everything (t,C[t])
// has seen of s. Each advance is forced (every satisfying cut above the
// bounds must clear it), so the fixpoint is the unique least cut, or fails
// when a component runs off the end of its process.
//
// The fixpoint reads an app::StateStream directly: a slot's states are its
// positions 1..last(s), and component t of the clock at (s, k) is the
// highest state of t that happened before (s, k). So the same code slices a
// recorded trace (app::ComputationStateStream) and the all-states stream an
// online run's coordinator received (detect::CoreHost). Position k must be
// state k, so the stream must have retired nothing (base 1 on every slot;
// Slice::build checks it).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "app/state_stream.h"
#include "common/types.h"

namespace wcp::slice {

/// Work counters of the fixpoint, reported as `jil_*` bench metrics. One
/// "advance" eliminates at least one candidate state, so `advances` is the
/// slice-side analogue of the lattice baseline's `cuts_explored`.
struct JilCounters {
  std::int64_t calls = 0;          ///< fixpoint invocations
  std::int64_t advances = 0;       ///< component advances (states eliminated)
  std::int64_t clock_lookups = 0;  ///< clock component reads
};

/// Least satisfying consistent cut C with C[s] >= lower_bounds[s] for every
/// slot, or nullopt if none exists. O(n^2 m) worst case.
std::optional<std::vector<StateIndex>> least_satisfying_cut(
    const app::StateStream& in, std::span<const StateIndex> lower_bounds,
    JilCounters* counters = nullptr);

/// J_s(k): least satisfying consistent cut including state (slot, k).
std::optional<std::vector<StateIndex>> jil(const app::StateStream& in,
                                           std::size_t slot, StateIndex k,
                                           JilCounters* counters = nullptr);

/// Least *consistent* cut above the bounds, ignoring local predicates (used
/// to complete a pair of anchor states into a full witness cut).
std::optional<std::vector<StateIndex>> least_consistent_cut(
    const app::StateStream& in, std::span<const StateIndex> lower_bounds,
    JilCounters* counters = nullptr);

/// The whole J_slot(·) column: column[k-1] = J_slot(k) for k = 1..m_slot,
/// nullopt for states past the slice top (no satisfying cut includes them).
/// `bottom` must be the slice bottom (== J_slot(1) where it exists); each
/// fixpoint resumes from the previous J, so one column costs amortized
/// O(n^2 m). Columns of distinct slots are independent of one another —
/// the parallel Slice::build computes them concurrently, one task per slot.
std::vector<std::optional<std::vector<StateIndex>>> jil_column(
    const app::StateStream& in, std::size_t slot,
    const std::vector<StateIndex>& bottom, JilCounters* counters = nullptr);

}  // namespace wcp::slice
