// GCP edge cases: undelivered messages, zero-message channels, exhausted
// senders for at-least predicates, and channel predicates stacked on the
// same channel.
#include <gtest/gtest.h>

#include "detect/gcp.h"
#include "workload/termination_workload.h"

namespace wcp::detect {
namespace {

TEST(GcpEdge, UndeliveredMessagesStayInTransitForever) {
  // P0 sends a message that is never received; "channel empty" can only
  // hold before the send.
  ComputationBuilder b(2);
  b.set_default_pred(ProcessId(0), true);
  b.set_default_pred(ProcessId(1), true);
  b.send(ProcessId(0), ProcessId(1));  // in flight at end of run
  const auto c = b.build();

  const ChannelPredicate empty[] = {
      ChannelPredicate::empty(ProcessId(0), ProcessId(1))};
  const auto r = detect_gcp(c, empty);
  ASSERT_TRUE(r.detected);
  // Only (1, x) cuts qualify: the send ends P0's state 1.
  EXPECT_EQ(r.cut[0], 1);
}

TEST(GcpEdge, ZeroMessageChannelIsAlwaysEmpty) {
  ComputationBuilder b(3);
  b.set_default_pred(ProcessId(0), true);
  b.set_default_pred(ProcessId(1), true);
  b.set_default_pred(ProcessId(2), true);
  b.transfer(ProcessId(0), ProcessId(1));
  const auto c = b.build();
  // P2 never communicates: its channels are trivially empty.
  const ChannelPredicate chans[] = {
      ChannelPredicate::empty(ProcessId(2), ProcessId(0)),
      ChannelPredicate::empty(ProcessId(0), ProcessId(2))};
  const auto r = detect_gcp(c, chans);
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, (std::vector<StateIndex>{1, 1, 1}));
}

TEST(GcpEdge, AtLeastUnsatisfiableWhenSenderNeverSendsEnough) {
  ComputationBuilder b(2);
  b.set_default_pred(ProcessId(0), true);
  b.set_default_pred(ProcessId(1), true);
  b.send(ProcessId(0), ProcessId(1));  // exactly one message, undelivered
  const auto c = b.build();
  const ChannelPredicate need2[] = {
      ChannelPredicate::at_least(ProcessId(0), ProcessId(1), 2)};
  EXPECT_FALSE(detect_gcp(c, need2).detected);
}

TEST(GcpEdge, StackedPredicatesOnOneChannel) {
  // 1 <= in_transit <= 2 on P0->P1: a window predicate.
  ComputationBuilder b(2);
  b.set_default_pred(ProcessId(0), true);
  b.set_default_pred(ProcessId(1), true);
  for (int i = 0; i < 3; ++i) b.send(ProcessId(0), ProcessId(1));
  const auto c = b.build();  // P0 states 1..4; sends never received
  const ChannelPredicate window[] = {
      ChannelPredicate::at_least(ProcessId(0), ProcessId(1), 1),
      ChannelPredicate::at_most(ProcessId(0), ProcessId(1), 2)};
  const auto r = detect_gcp(c, window);
  ASSERT_TRUE(r.detected);
  // First cut with 1..2 in transit: P0 state 2 (one message sent).
  EXPECT_EQ(r.cut[0], 2);
  // Cross-check with the lattice oracle.
  const auto oracle = detect_gcp_lattice(c, window, 100'000);
  ASSERT_FALSE(oracle.truncated);
  ASSERT_TRUE(oracle.detected);
  EXPECT_EQ(r.cut, oracle.cut);
}

TEST(GcpEdge, LatticeOracleReportsTruncation) {
  // The window predicate fails at the bottom cut (nothing in transit), so a
  // one-cut cap stops the oracle before it can find the satisfying cut —
  // and must say so rather than look like "never holds".
  ComputationBuilder b(2);
  b.set_default_pred(ProcessId(0), true);
  b.set_default_pred(ProcessId(1), true);
  for (int i = 0; i < 3; ++i) b.send(ProcessId(0), ProcessId(1));
  const auto c = b.build();
  const ChannelPredicate window[] = {
      ChannelPredicate::at_least(ProcessId(0), ProcessId(1), 1),
      ChannelPredicate::at_most(ProcessId(0), ProcessId(1), 2)};
  const auto capped = detect_gcp_lattice(c, window, /*max_cuts=*/1);
  EXPECT_TRUE(capped.truncated);
  EXPECT_FALSE(capped.detected);
  EXPECT_EQ(capped.cuts_explored, 1);
  const auto full = detect_gcp_lattice(c, window);
  EXPECT_FALSE(full.truncated);
  EXPECT_TRUE(full.detected);

  // A predicate that never holds exhausts the lattice untruncated.
  const ChannelPredicate need4[] = {
      ChannelPredicate::at_least(ProcessId(0), ProcessId(1), 4)};
  const auto never = detect_gcp_lattice(c, need4);
  EXPECT_FALSE(never.truncated);
  EXPECT_FALSE(never.detected);
}

TEST(GcpEdge, TerminationWorkloadRespectsMessageCap) {
  workload::TerminationSpec spec;
  spec.num_processes = 6;
  spec.initial_work = 5;
  spec.spawn_prob = 0.95;  // would diffuse forever without the cap
  spec.max_messages = 50;
  spec.seed = 12;
  const auto t = workload::make_termination(spec);
  EXPECT_LE(t.work_messages, 50);
  // Still terminates and the GCP still pins the exact cut.
  const auto channels = ChannelPredicate::all_channels_empty(6);
  const auto r = detect_gcp(t.computation, channels);
  ASSERT_TRUE(r.detected);
  EXPECT_EQ(r.cut, t.termination_cut);
}

TEST(GcpEdge, ChannelEvalsAreCounted) {
  ComputationBuilder b(2);
  b.set_default_pred(ProcessId(0), true);
  b.set_default_pred(ProcessId(1), true);
  const auto c = b.build();
  const ChannelPredicate chan[] = {
      ChannelPredicate::empty(ProcessId(0), ProcessId(1))};
  const auto r = detect_gcp(c, chan);
  ASSERT_TRUE(r.detected);
  EXPECT_GE(r.channel_evals, 1);
  EXPECT_EQ(r.eliminations, 0);
}

}  // namespace
}  // namespace wcp::detect
