// Centralized WCP checker — the Garg & Waldecker (TPDS'94) baseline the
// paper compares against (§1, §3.4).
//
// Every predicate process streams its candidate vector clocks to a single
// checker process, which keeps one FIFO queue per slot and repeatedly
// eliminates dominated queue heads: head_s is eliminated when it happened
// before some other head, i.e. head_t.vc[s] >= head_s.vc[s] for some t
// (an O(1) own-component test; the paper's two vector-clock properties).
// When all n heads are present and pairwise concurrent they form the first
// WCP cut.
//
// The elimination state machine is detect::CentralizedCore
// (detect/stream_core.h), shared with the streaming service; on the
// simulator it runs in the coordinator host (detect/core_host.h), which
// forwards the buffer/work accounting into the network metrics.
//
// Cost profile (E9): same O(n^2 m) total time as the token algorithm, but
// concentrated in one process, with O(n^2 m) buffer space at the checker.
#pragma once

#include "detect/result.h"
#include "trace/computation.h"

namespace wcp::detect {

/// Runs the centralized checker online over a replay of `comp`.
DetectionResult run_centralized(const Computation& comp,
                                const RunOptions& opts);

}  // namespace wcp::detect
