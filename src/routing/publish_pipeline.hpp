// PublishPipeline — the broker's staged batch publish runtime.
//
// Every Broker keeps its routed set as origin-partitioned publish lanes
// (Broker::PublishLanes): the local lane and one lane per neighbour.
// Broker::handle_publication stabs the lanes for one publication on the
// caller's thread; the pipeline does the same work for a batch, split
// into stages:
//
//                       ┌─ match ─┐   ┌ route ┐
//   publications ──────▶│ workers │──▶│ caller│──▶ routes
//                       └─────────┘   └───────┘
//        slot ring (SPSC) ▲           ▲ completion ring (SPSC)
//
//   * match: each worker owns a fixed subset of lanes (the local lane and
//     the neighbour lanes, round-robin) and stabs its lanes for every
//     publication of the slot. Because a lane is touched by exactly one
//     worker, per-store query scratch needs no locks.
//   * route: the caller hands the local lane's matches, with each
//     neighbour lane's minimum matching id, to Broker::assemble_route —
//     the one place the route-ordering rule lives, shared with
//     handle_publication.
//
// Cross-publication batching: publications move through the stages in
// slots of `batch_size`, with up to `queue_depth` slots in flight. Slot
// buffers, sort scratch, and the caller's route vectors are all reused, so
// a warm steady-state batch allocates nothing on the match/route path.
//
// Determinism contract (property-tested in tests/pipeline_test.cpp against
// a flat-scan reference, including under TSan): for every publication, the
// produced PublicationRoute is decision-for-decision identical — same
// local_matches, same destinations, same ORDER — to
// Broker::handle_publication, for every worker count, queue depth and
// batch size. Matching never mutates routing state, so pipelined batches
// interleave with membership events exactly like single-publication calls
// (tests/pipeline_churn_test.cpp).
//
// Worker sizing: `workers == 0` runs every stage inline on the caller
// thread — the configuration a one-core host gets from kAuto, where the
// pipeline's win is cross-publication batching, not parallelism. Threads
// are started lazily on first use and parked on their rings between runs.
//
// Concurrency contract: a PublishPipeline is externally single-threaded
// (one run() at a time), like the Broker it drives. One pipeline may
// serve many brokers (the BrokerNetwork shares one across all of its
// brokers); it retargets per call.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "exec/pipeline.hpp"
#include "exec/ring_queue.hpp"
#include "routing/broker.hpp"

namespace psc::routing {

struct PublishPipelineOptions {
  /// kAuto sizes match workers from the hardware (cores - 1, capped at 4;
  /// 0 on a single-core host). 0 = inline: every stage on the caller.
  static constexpr std::size_t kAuto = static_cast<std::size_t>(-1);
  std::size_t workers = kAuto;
  /// Slots in flight between the submit and completion sides. More depth
  /// hides per-slot latency jitter; memory grows linearly. Power of two
  /// is not required.
  std::size_t queue_depth = 4;
  /// Publications per slot — the cross-publication batching grain.
  std::size_t batch_size = 16;

  friend bool operator==(const PublishPipelineOptions&,
                         const PublishPipelineOptions&) = default;
};

class PublishPipeline {
 public:
  explicit PublishPipeline(PublishPipelineOptions options = {});
  ~PublishPipeline();

  PublishPipeline(const PublishPipeline&) = delete;
  PublishPipeline& operator=(const PublishPipeline&) = delete;

  [[nodiscard]] const PublishPipelineOptions& options() const noexcept {
    return options_;
  }
  /// Resolved match-worker count (kAuto applied).
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return worker_count_;
  }

  /// Routes every publication of `pubs` (all arriving from `origin`)
  /// through the staged pipeline against `broker`'s publish lanes.
  /// `out` is resized to pubs.size(); route vectors are overwritten in
  /// place (capacity kept).
  void run(const Broker& broker, std::span<const core::Publication> pubs,
           const Origin& origin, std::vector<Broker::PublicationRoute>& out);

 private:
  /// One lane of the current job: lanes_[0] is the local lane, the rest
  /// are neighbour lanes.
  struct LaneRef {
    const store::SubscriptionStore* store = nullptr;
    BrokerId neighbor = kInvalidBroker;  ///< kInvalidBroker: local lane
    bool skip = false;  ///< origin's own lane — never stabbed (never-send-back)
  };

  /// In-flight batch state. Written by the caller (pubs/count) and the
  /// owning workers (per-lane buffers); the slot ring's release/acquire
  /// edges order those writes against the route stage's reads.
  struct Slot {
    const core::Publication* pubs = nullptr;
    std::size_t count = 0;
    /// Local-lane matched ids per publication, unsorted.
    std::vector<std::vector<core::SubscriptionId>> local_ids;
    /// Minimum matching id per (neighbour lane, publication);
    /// kInvalidSubscriptionId = no match.
    std::vector<core::SubscriptionId> neighbor_min;
  };

  void prepare_job(const Broker& broker, const Origin& origin);
  void fill_slot(Slot& slot, const core::Publication* pubs, std::size_t count);
  void match_lane(Slot& slot, std::size_t lane_index);
  void match_slot_for_worker(Slot& slot, std::size_t worker);
  void route_slot(const Slot& slot, Broker::PublicationRoute* out);
  void ensure_started();

  PublishPipelineOptions options_;
  std::size_t worker_count_;

  // Job description for the current run. Written before the first slot
  // token is pushed; runs are serialized, so workers only ever read it.
  std::vector<LaneRef> lanes_;

  std::vector<Slot> slots_;
  /// Per-lane stab scratch for neighbour lanes (owner-worker access only).
  std::vector<std::vector<core::SubscriptionId>> lane_scratch_;

  /// Per-worker slot-token rings: caller → worker and worker → caller.
  std::vector<std::unique_ptr<exec::SpscRingQueue<std::uint32_t>>> ingress_;
  std::vector<std::unique_ptr<exec::SpscRingQueue<std::uint32_t>>> done_;
  exec::StageSet stages_;
  bool started_ = false;

  /// Route-stage sort scratch (Broker::assemble_route).
  std::vector<core::SubscriptionId> sort_scratch_;
  /// Destination ordering scratch: (min matching id, neighbour).
  std::vector<std::pair<core::SubscriptionId, BrokerId>> dest_scratch_;
};

}  // namespace psc::routing
