// Transport-seam and cancelable-timer suite.
//
// Covers the two contracts the TCP-transport refactor introduced:
//   * EventQueue cancelable timers: cancel destroys the handler NOW (the
//     ownership fix — captured state must not live until the deadline)
//     while the heap entry fires as a no-op at its original instant, so
//     the event timeline is bit-for-bit identical either way;
//   * the LinkChannels regression that motivated it: a delayed-ack timer
//     in flight across reset_link must be disarmed by the reset — its
//     handler destroyed, not merely staled by the epoch guard — so
//     repeated fail/heal churn cannot accumulate armed timers;
//   * SimTransport as a Transport: perfect-wire delivery order/latency and
//     the frame-handler demux.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "routing/broker_network.hpp"
#include "routing/link_channel.hpp"
#include "routing/sim_transport.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"

namespace psc {
namespace {

TEST(CancelableTimerTest, FiresLikeAPlainEvent) {
  sim::EventQueue queue;
  int fired = 0;
  const auto id = queue.schedule_cancelable_in(5.0, [&fired]() { ++fired; });
  EXPECT_NE(id, sim::EventQueue::kNoTimer);
  EXPECT_EQ(queue.armed_timer_count(), 1u);
  queue.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(queue.now(), 5.0);
  EXPECT_EQ(queue.armed_timer_count(), 0u);
}

TEST(CancelableTimerTest, CancelDestroysHandlerImmediately) {
  sim::EventQueue queue;
  auto sentinel = std::make_shared<int>(7);
  std::weak_ptr<int> watch = sentinel;
  const auto id =
      queue.schedule_cancelable_in(5.0, [keep = std::move(sentinel)]() {
        (void)*keep;
        FAIL() << "cancelled timer fired";
      });
  ASSERT_FALSE(watch.expired());
  EXPECT_TRUE(queue.cancel(id));
  // The ownership contract: cancel releases the capture NOW, not at the
  // deadline. This is exactly what leaked across reset_link epochs before.
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(queue.armed_timer_count(), 0u);
  // Idempotent: a second cancel (and kNoTimer) report false, no effect.
  EXPECT_FALSE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(sim::EventQueue::kNoTimer));
  queue.run();
}

TEST(CancelableTimerTest, CancelKeepsTimelineBitForBitIdentical) {
  // Two queues run the same schedule; one cancels its timer. Clock
  // advance, fired event counts, and tie-break sequence numbers must not
  // differ — the cancelled entry still pops as a no-op at t = 5.
  sim::EventQueue with_cancel;
  sim::EventQueue without_cancel;
  std::vector<double> fire_times_a;
  std::vector<double> fire_times_b;

  const auto id = with_cancel.schedule_cancelable_in(5.0, []() {});
  with_cancel.schedule_in(10.0, [&]() { fire_times_a.push_back(with_cancel.now()); });
  (void)without_cancel.schedule_cancelable_in(5.0, []() {});
  without_cancel.schedule_in(
      10.0, [&]() { fire_times_b.push_back(without_cancel.now()); });

  EXPECT_TRUE(with_cancel.cancel(id));
  const std::size_t events_a = with_cancel.run();
  const std::size_t events_b = without_cancel.run();
  EXPECT_EQ(events_a, events_b);  // the cancelled entry still counts a pop
  EXPECT_EQ(with_cancel.now(), without_cancel.now());
  EXPECT_EQ(fire_times_a, fire_times_b);
}

TEST(CancelableTimerTest, RescheduleFromOwnHandlerIsSafe) {
  sim::EventQueue queue;
  int fired = 0;
  sim::EventQueue::TimerId id = sim::EventQueue::kNoTimer;
  id = queue.schedule_cancelable_in(1.0, [&]() {
    ++fired;
    // Re-arming from inside the handler must produce a fresh id (the old
    // one is consumed); one more firing then stop.
    if (fired < 2) id = queue.schedule_cancelable_in(1.0, [&]() { ++fired; });
  });
  queue.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(queue.armed_timer_count(), 0u);
}

// --- the reset_link ownership regression --------------------------------

class ResetLinkTimerTest : public ::testing::Test {
 protected:
  // Perfect wire through the reliable protocol: no faults, so behavior is
  // deterministic and the only timers are RTO + delayed ack.
  routing::LinkConfig config() {
    routing::LinkConfig link;
    link.enabled = true;
    return link;
  }
};

TEST_F(ResetLinkTimerTest, ResetDisarmsInFlightAckAndRtoTimers) {
  sim::EventQueue queue;
  sim::Metrics metrics;
  int delivered = 0;
  routing::LinkChannels channels(
      queue, metrics, config(), 0.001, 42,
      [&](routing::BrokerId, routing::BrokerId, const wire::Announcement&) {
        ++delivered;
      },
      [](routing::BrokerId, routing::BrokerId) { FAIL() << "escalated"; });

  wire::Announcement msg;
  msg.kind = wire::Announcement::Kind::kUnsubscribe;
  msg.from = 0;
  msg.id = 9;
  channels.send(0, 1, msg);
  // One RTO timer armed by the send.
  EXPECT_EQ(queue.armed_timer_count(), 1u);
  // Deliver the frame: the receiver arms its delayed-ack timer.
  (void)queue.run_step();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(queue.armed_timer_count(), 2u);

  // The regression: reset_link while the delayed-ack (and RTO) timers are
  // in flight must DESTROY both handlers, not leave them armed until their
  // deadlines. Before the fix this count stayed 2 per fail/heal cycle.
  channels.reset_link(0, 1);
  EXPECT_EQ(queue.armed_timer_count(), 0u);

  // The stale heap entries still pop (timeline identity) but are no-ops:
  // no retransmit, no ack, no crash.
  (void)queue.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(channels.in_flight(), 0u);
}

TEST_F(ResetLinkTimerTest, RepeatedResetCyclesDoNotAccumulateTimers) {
  sim::EventQueue queue;
  sim::Metrics metrics;
  routing::LinkChannels channels(
      queue, metrics, config(), 0.001, 42,
      [](routing::BrokerId, routing::BrokerId, const wire::Announcement&) {},
      [](routing::BrokerId, routing::BrokerId) {});

  wire::Announcement msg;
  msg.kind = wire::Announcement::Kind::kUnsubscribe;
  msg.from = 0;
  msg.id = 1;
  for (int cycle = 0; cycle < 50; ++cycle) {
    channels.send(0, 1, msg);
    (void)queue.run_step();  // delivery arms the delayed ack
    channels.reset_link(0, 1);
    // Armed handlers must not grow with the cycle count (the leak shape:
    // one ack + one RTO handler left behind per epoch).
    EXPECT_EQ(queue.armed_timer_count(), 0u) << "cycle " << cycle;
  }
  (void)queue.run();
  EXPECT_EQ(queue.armed_timer_count(), 0u);
}

// --- SimTransport as the Transport seam ---------------------------------

TEST(SimTransportTest, PerfectWireDeliversInOrderAtLatency) {
  sim::EventQueue queue;
  sim::Metrics metrics;
  routing::LinkConfig link;  // disabled: perfect wire
  routing::SimTransport transport(queue, metrics, link, 0.5, 1,
                                  [](routing::BrokerId, routing::BrokerId) {});
  std::vector<core::SubscriptionId> seen;
  transport.set_frame_handler(
      [&](routing::BrokerId from, routing::BrokerId to,
          const wire::Announcement& msg) {
        EXPECT_EQ(from, 3u);
        EXPECT_EQ(to, 4u);
        seen.push_back(msg.id);
      });
  wire::Announcement msg;
  msg.kind = wire::Announcement::Kind::kUnsubscribe;
  msg.from = 3;
  msg.id = 11;
  transport.send_frame(3, 4, msg);
  msg.id = 22;
  transport.send_frame(3, 4, msg);
  EXPECT_FALSE(transport.lossy());
  EXPECT_EQ(transport.in_flight(), 0u);  // perfect wire: no protocol queue
  queue.run();
  EXPECT_EQ(queue.now(), 0.5);  // both hops share the injection instant
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 11u);
  EXPECT_EQ(seen[1], 22u);
}

TEST(SimTransportTest, TimerSurfaceForwardsToQueue) {
  sim::EventQueue queue;
  sim::Metrics metrics;
  routing::LinkConfig link;
  routing::SimTransport transport(queue, metrics, link, 0.001, 1,
                                  [](routing::BrokerId, routing::BrokerId) {});
  int fired = 0;
  const auto id = transport.schedule_timer_at(2.0, [&]() { ++fired; });
  const auto id2 = transport.schedule_timer_at(3.0, [&]() { ++fired; });
  transport.cancel_timer(id);
  queue.run();
  EXPECT_EQ(fired, 1);
  EXPECT_NE(id, id2);
  EXPECT_EQ(transport.now(), 3.0);
}

}  // namespace
}  // namespace psc
