#include "routing/publish_pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace psc::routing {

using core::Publication;
using core::SubscriptionId;

namespace {

std::size_t resolve_workers(std::size_t requested) {
  if (requested != PublishPipelineOptions::kAuto) return requested;
  const std::size_t hw = std::thread::hardware_concurrency();
  if (hw <= 1) return 0;  // one core: inline staging wins, threads lose
  return std::min<std::size_t>(hw - 1, 4);
}

}  // namespace

PublishPipeline::PublishPipeline(PublishPipelineOptions options)
    : options_(options), worker_count_(resolve_workers(options.workers)) {
  if (options_.batch_size == 0) options_.batch_size = 1;
  if (options_.queue_depth == 0) options_.queue_depth = 1;
  const std::size_t slot_count =
      worker_count_ == 0 ? 1 : options_.queue_depth;
  slots_.resize(slot_count);
  for (std::size_t w = 0; w < worker_count_; ++w) {
    ingress_.push_back(
        std::make_unique<exec::SpscRingQueue<std::uint32_t>>(slot_count + 1));
    done_.push_back(
        std::make_unique<exec::SpscRingQueue<std::uint32_t>>(slot_count + 1));
  }
  for (std::size_t w = 0; w < worker_count_; ++w) {
    stages_.add_stage("match-" + std::to_string(w),
                      [this, w](const std::atomic<bool>&) {
                        std::uint32_t token = 0;
                        // pop() returns false only once the ring is closed
                        // and drained — the stage's stop condition.
                        while (ingress_[w]->pop(token)) {
                          match_slot_for_worker(slots_[token], w);
                          (void)done_[w]->push(token);
                        }
                      });
  }
  stages_.on_stop([this] {
    for (auto& ring : ingress_) ring->close();
    for (auto& ring : done_) ring->close();
  });
}

PublishPipeline::~PublishPipeline() { stages_.stop_and_join(); }

void PublishPipeline::ensure_started() {
  if (started_ || worker_count_ == 0) return;
  stages_.start();
  started_ = true;
}

void PublishPipeline::prepare_job(const Broker& broker, const Origin& origin) {
  const Broker::PublishLanes& broker_lanes = broker.publish_lanes();
  lanes_.clear();
  lanes_.push_back({&broker_lanes.local, kInvalidBroker, false});
  for (const auto& [neighbor, lane] : broker_lanes.neighbor) {
    const bool skip = !origin.local && neighbor == origin.neighbor;
    lanes_.push_back({lane.get(), neighbor, skip});
  }
  lane_scratch_.resize(lanes_.size());
  for (Slot& slot : slots_) {
    slot.local_ids.resize(options_.batch_size);
    slot.neighbor_min.resize((lanes_.size() - 1) * options_.batch_size);
  }
}

void PublishPipeline::fill_slot(Slot& slot, const Publication* pubs,
                                std::size_t count) {
  slot.pubs = pubs;
  slot.count = count;
}

void PublishPipeline::match_lane(Slot& slot, std::size_t lane_index) {
  const LaneRef& lane = lanes_[lane_index];
  if (lane_index == 0) {
    for (std::size_t p = 0; p < slot.count; ++p) {
      auto& ids = slot.local_ids[p];
      ids.clear();
      lane.store->match_active_unsorted(slot.pubs[p], ids);
    }
    return;
  }
  // Neighbour lane: the route stage only needs whether the lane matched
  // and the minimum matching id (the destination sort key). The skip flag
  // implements never-send-back at the stage boundary: the origin's own
  // lane is not even stabbed.
  const std::size_t base = (lane_index - 1) * options_.batch_size;
  auto& scratch = lane_scratch_[lane_index];
  for (std::size_t p = 0; p < slot.count; ++p) {
    SubscriptionId min_id = core::kInvalidSubscriptionId;
    if (!lane.skip) {
      scratch.clear();
      lane.store->match_active_unsorted(slot.pubs[p], scratch);
      for (const SubscriptionId id : scratch) {
        if (min_id == core::kInvalidSubscriptionId || id < min_id) min_id = id;
      }
    }
    slot.neighbor_min[base + p] = min_id;
  }
}

void PublishPipeline::match_slot_for_worker(Slot& slot, std::size_t worker) {
  // Static round-robin lane ownership: lane l belongs to worker
  // l % worker_count_, so two workers never share a store (or its
  // query scratch).
  for (std::size_t l = worker; l < lanes_.size(); l += worker_count_) {
    match_lane(slot, l);
  }
}

void PublishPipeline::route_slot(const Slot& slot,
                                 Broker::PublicationRoute* out) {
  for (std::size_t p = 0; p < slot.count; ++p) {
    Broker::PublicationRoute& route = out[p];
    route.local_matches.assign(slot.local_ids[p].begin(),
                               slot.local_ids[p].end());
    // Never-send-back was already applied via LaneRef::skip: the origin's
    // lane reports no match.
    dest_scratch_.clear();
    for (std::size_t l = 1; l < lanes_.size(); ++l) {
      const SubscriptionId min_id =
          slot.neighbor_min[(l - 1) * options_.batch_size + p];
      if (min_id == core::kInvalidSubscriptionId) continue;
      dest_scratch_.emplace_back(min_id, lanes_[l].neighbor);
    }
    Broker::assemble_route(route, sort_scratch_, dest_scratch_);
  }
}

void PublishPipeline::run(const Broker& broker,
                          std::span<const Publication> pubs,
                          const Origin& origin,
                          std::vector<Broker::PublicationRoute>& out) {
  out.resize(pubs.size());
  if (pubs.empty()) return;
  prepare_job(broker, origin);

  const std::size_t batch = options_.batch_size;
  const std::size_t batches = (pubs.size() + batch - 1) / batch;

  if (worker_count_ == 0) {
    // Inline staging: match → route collapse onto this thread, one slot
    // at a time. The pipeline win here is batching + the lane route
    // stage, not parallelism.
    Slot& slot = slots_[0];
    for (std::size_t b = 0; b < batches; ++b) {
      const std::size_t base = b * batch;
      fill_slot(slot, pubs.data() + base,
                std::min(batch, pubs.size() - base));
      for (std::size_t l = 0; l < lanes_.size(); ++l) match_lane(slot, l);
      route_slot(slot, out.data() + base);
    }
    return;
  }

  ensure_started();
  std::size_t submitted = 0;
  std::size_t completed = 0;
  while (completed < batches) {
    // Keep the slot window full: submit until queue_depth slots are in
    // flight (or the input runs out)…
    while (submitted < batches && submitted - completed < slots_.size()) {
      const auto token =
          static_cast<std::uint32_t>(submitted % slots_.size());
      const std::size_t base = submitted * batch;
      fill_slot(slots_[token], pubs.data() + base,
                std::min(batch, pubs.size() - base));
      for (auto& ring : ingress_) (void)ring->push(token);
      ++submitted;
    }
    // …then retire the oldest slot: one completion token per worker (each
    // worker's ring is FIFO, so tokens arrive in submission order).
    const auto expect =
        static_cast<std::uint32_t>(completed % slots_.size());
    for (auto& ring : done_) {
      std::uint32_t token = 0;
      if (!ring->pop(token) || token != expect) {
        throw std::logic_error("PublishPipeline: completion ring disorder");
      }
    }
    route_slot(slots_[expect], out.data() + completed * batch);
    ++completed;
  }
}

}  // namespace psc::routing
