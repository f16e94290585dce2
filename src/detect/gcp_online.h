// Online centralized GCP checker — the detection architecture of
// reference [6] (Garg, Chase, Mitchell & Kilgore): every predicate process
// streams vector-clock snapshots extended with per-peer message counters to
// one checker, which advances the candidate cut by eliminating queue heads
// that violate either consistency (as in the WCP checker) or a linear
// channel predicate (empty / at-most-k eliminate the receiver's head,
// at-least-k the sender's).
//
// The checker is detect::CentralizedCore with a CoreHooks::veto: once the
// queue heads are pairwise concurrent, each channel predicate is evaluated
// on the head cut, and the first violated one names the head to eliminate.
// It runs in the coordinator host (detect/core_host.h) like the WCP checker.
//
// Channel endpoints must be predicate processes of the computation (their
// local predicate may be identically true); this keeps the piggybacked
// vector clocks wide enough to order every cut component.
#pragma once

#include <span>

#include "detect/gcp.h"
#include "detect/result.h"
#include "trace/computation.h"

namespace wcp::detect {

/// Runs the online centralized GCP checker over a replay of `comp`.
/// Requires every channel endpoint to be a predicate process.
DetectionResult run_gcp_centralized(const Computation& comp,
                                    std::span<const ChannelPredicate> channels,
                                    const RunOptions& opts);

}  // namespace wcp::detect
