// The per-layer leg (--trace=1): where the time of one op goes.
//
// It runs a short closed-loop TCP leg (for the socket-hop overhead and the
// correctness check), then replays the same op stream in process:
//
//   twin replay   — routing, wire, net: the in-process BrokerNetwork twin.
//                   Subscribe / unsubscribe are timed as whole cascades
//                   (BrokerNetwork::subscribe / unsubscribe). Publications
//                   are walked hop by hop through Broker::handle_publication
//                   (scratch form, via twin.broker(b)), never through
//                   BrokerNetwork::publish, whose delivery accounting runs a
//                   flat ground-truth scan that is oracle work, not routing.
//                   Every hop's message is encoded and decoded with the wire
//                   codec and framed as the TCP transport's NetMessages.
//                   The replay runs twice, untraced then traced; the busy
//                   time difference is the tracing overhead.
//   probe replay  — store, index, core: one `group` SubscriptionStore fed the
//                   whole stream (the busiest link's forwarded store), with
//                   IntervalIndex::box_intersect / stab and
//                   SubsumptionEngine::check called on the same candidate
//                   sets the store gathers.
//
// Spans are recorded from these files only, around the calls into each
// layer; nothing inside src/ is instrumented. They are kept in memory and
// written out at the end when a spans directory is given.
#pragma once

#include <string>

#include "tcp_run.hpp"
#include "workloads.hpp"

namespace perfbench {

struct TracedOptions {
  TcpOptions tcp;         ///< seconds = the whole leg's budget
  std::string spans_dir;  ///< empty = do not write spans
};

/// Runs the per-layer leg, prints its metrics and share table, and returns
/// the process exit code (1 when the correctness check fails).
int run_traced(const WorkloadSpec& spec, const LinkList& links,
               const OpStream& stream, const TracedOptions& options);

}  // namespace perfbench
