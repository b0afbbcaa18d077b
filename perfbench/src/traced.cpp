#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <unordered_map>

#include "core/engine.hpp"
#include "index/interval_index.hpp"
#include "net/message.hpp"
#include "report.hpp"
#include "routing/flat_oracle.hpp"
#include "store/subscription_store.hpp"
#include "tracer.hpp"
#include "twin.hpp"
#include "wire/codec.hpp"

namespace perfbench {

using psc::core::DecisionPath;
using psc::core::Publication;
using psc::core::Subscription;
using psc::core::SubscriptionId;
using psc::routing::BrokerId;
using psc::routing::BrokerNetwork;
using psc::routing::Origin;
using psc::util::SampleSet;
using psc::wire::Announcement;
using psc::workload::ChurnOp;
using psc::workload::ChurnOpKind;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kPathCount = 6;  // DecisionPath values
/// Spans of the first this-many ops of each replay are written out; the
/// metrics use all of them.
constexpr std::uint64_t kWrittenOps = 2000;

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

SampleSet to_samples(const std::vector<double>& values, double scale) {
  SampleSet set;
  set.reserve(values.size());
  for (const double value : values) set.add(value * scale);
  return set;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Engine checks run so far by every link store of the twin.
std::uint64_t link_checks(const BrokerNetwork& net, const LinkList& links) {
  std::uint64_t total = 0;
  for (const auto& [a, b] : links) {
    if (const auto* store = net.broker(a).forwarded_store(b)) total += store->group_checks();
    if (const auto* store = net.broker(b).forwarded_store(a)) total += store->group_checks();
  }
  return total;
}

// --- twin replay (routing, wire, net) ------------------------------------

struct TwinReplay {
  std::size_t ops = 0;
  double busy_s = 0.0;  ///< summed op durations (outer clock, both modes)
  std::array<SampleSet, 3> op_us;  ///< op durations by OpKindIndex
  std::uint64_t sub_msgs_in_subscribes = 0;
  std::uint64_t suppressed_in_subscribes = 0;
  std::uint64_t sub_msgs_in_unsubscribes = 0;  ///< promotion re-announcements
  std::uint64_t publication_hops = 0;
  std::uint64_t hops = 0;   ///< announcements encoded (all kinds)
  std::uint64_t bytes = 0;  ///< encoded announcement bytes
  std::uint64_t cascade_checks = 0;  ///< link-store engine checks in cascades
  std::vector<std::vector<SubscriptionId>> delivered;
};

/// Encodes and decodes one hop's message the way the TCP transport does:
/// the Announcement through the wire codec, then the kData frame carrying
/// it and the kDone receipt that answers it through the net frame codec.
class HopCodec {
 public:
  HopCodec(Tracer& tracer, TwinReplay& out) : tracer_(tracer), out_(out) {}

  void hop(std::uint64_t op, const Announcement& msg,
           const std::vector<SubscriptionId>& done_ids) {
    psc::wire::ByteWriter writer;
    {
      Tracer::Scope span(tracer_, SpanName::kWireEncode, op);
      psc::wire::write_announcement(writer, msg);
    }
    std::vector<std::uint8_t> payload = writer.take();
    {
      Tracer::Scope span(tracer_, SpanName::kWireDecode, op);
      psc::wire::ByteReader reader(payload);
      (void)psc::wire::read_announcement(reader);
    }
    ++out_.hops;
    out_.bytes += payload.size();

    psc::wire::LinkFrame frame;
    frame.kind = psc::wire::LinkFrame::Kind::kData;
    frame.seq = out_.hops;
    frame.payload = std::move(payload);
    const psc::net::NetMessage data = psc::net::make_data(out_.hops, std::move(frame));
    const psc::net::NetMessage done = psc::net::make_done(out_.hops, done_ids);
    for (const psc::net::NetMessage* message : {&data, &done}) {
      std::vector<std::uint8_t> framed;
      {
        Tracer::Scope span(tracer_, SpanName::kNetFrameEncode, op);
        framed = psc::net::encode_frame(*message);
      }
      Tracer::Scope span(tracer_, SpanName::kNetFrameDecode, op);
      (void)psc::net::decode_frame(std::span<const std::uint8_t>(framed).subspan(4));
    }
  }

 private:
  Tracer& tracer_;
  TwinReplay& out_;
};

/// Walks one publication hop by hop through the twin's brokers, as the
/// brokerd cascade does, and returns its delivered set.
std::vector<SubscriptionId> walk_publication(const BrokerNetwork& twin,
                                             BrokerId source, const Publication& pub,
                                             std::uint64_t op, Tracer& tracer,
                                             HopCodec& codec, TwinReplay& out) {
  struct Visit {
    BrokerId at;
    Origin origin;
  };
  std::vector<Visit> frontier{{source, Origin{true, psc::routing::kInvalidBroker}}};
  std::vector<SubscriptionId> delivered;
  psc::routing::Broker::PublishScratch scratch;
  Announcement msg;
  msg.kind = Announcement::Kind::kPublication;
  msg.pub = pub;
  msg.token = op + 1;
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const Visit visit = frontier[i];
    const psc::routing::Broker::PublicationRoute* route = nullptr;
    {
      Tracer::Scope span(tracer, SpanName::kRoutingPublication, op);
      route = &twin.broker(visit.at).handle_publication(pub, visit.origin, scratch);
    }
    delivered.insert(delivered.end(), route->local_matches.begin(),
                     route->local_matches.end());
    if (i > 0) codec.hop(op, msg, route->local_matches);  // the hop that got here
    for (const BrokerId next : route->destinations) {
      frontier.push_back({next, Origin{false, visit.at}});
      ++out.publication_hops;
    }
    msg.from = visit.at;
  }
  std::sort(delivered.begin(), delivered.end());
  delivered.erase(std::unique(delivered.begin(), delivered.end()), delivered.end());
  return delivered;
}

/// Replays timed ops on a twin restored from `image`: at least `min_ops`,
/// then on until `budget_s` of wall time has passed (all of `min_ops` and
/// no more when `budget_s` is 0).
TwinReplay replay_twin(const WorkloadSpec& spec, const LinkList& links,
                       std::uint64_t seed, const std::vector<std::uint8_t>& image,
                       const OpStream& stream, std::size_t min_ops, double budget_s,
                       Tracer& tracer) {
  TwinReplay out;
  BrokerNetwork twin = make_twin(spec, links, seed);
  twin.restore_all(image);
  HopCodec codec(tracer, out);
  std::unordered_map<SubscriptionId, const Subscription*> subs;
  for (const ChurnOp& op : stream.preload) subs[op.sub.id()] = &op.sub;

  const auto start = Clock::now();
  for (std::size_t i = 0; i < stream.timed.size(); ++i) {
    if (i >= min_ops && elapsed_s(start) >= budget_s) break;
    const ChurnOp& op = stream.timed[i];
    const psc::sim::Metrics before = twin.metrics();
    const std::uint64_t checks_before = link_checks(twin, links);
    const auto op_start = Clock::now();
    std::size_t kind = kPublish;
    switch (op.kind) {
      case ChurnOpKind::kSubscribe: {
        kind = kSubscribe;
        subs[op.sub.id()] = &op.sub;
        Tracer::Scope span(tracer, SpanName::kOpSubscribe, i);
        {
          Tracer::Scope cascade(tracer, SpanName::kRoutingSubscribe, i);
          twin.subscribe(op.broker, op.sub);
        }
        Announcement msg;
        msg.kind = Announcement::Kind::kSubscribe;
        msg.sub = op.sub;
        const std::uint64_t sent =
            twin.metrics().subscription_messages - before.subscription_messages;
        for (std::uint64_t h = 0; h < sent; ++h) codec.hop(i, msg, {});
        break;
      }
      case ChurnOpKind::kUnsubscribe: {
        kind = kUnsubscribe;
        Tracer::Scope span(tracer, SpanName::kOpUnsubscribe, i);
        {
          Tracer::Scope cascade(tracer, SpanName::kRoutingUnsubscribe, i);
          twin.unsubscribe(op.broker, op.id);
        }
        Announcement msg;
        msg.kind = Announcement::Kind::kUnsubscribe;
        msg.id = op.id;
        const std::uint64_t sent =
            twin.metrics().unsubscription_messages - before.unsubscription_messages;
        for (std::uint64_t h = 0; h < sent; ++h) codec.hop(i, msg, {});
        // Re-announcements of promoted subscriptions: the cascade does not
        // say which ones, so a same-arity stand-in (the removed box) is
        // encoded; announcement size depends only on arity.
        msg.kind = Announcement::Kind::kSubscribe;
        msg.sub = *subs.at(op.id);
        const std::uint64_t reannounced =
            twin.metrics().subscription_messages - before.subscription_messages;
        for (std::uint64_t h = 0; h < reannounced; ++h) codec.hop(i, msg, {});
        break;
      }
      case ChurnOpKind::kPublish: {
        Tracer::Scope span(tracer, SpanName::kOpPublish, i);
        out.delivered.push_back(
            walk_publication(twin, op.broker, op.pub, i, tracer, codec, out));
        break;
      }
      default:
        break;
    }
    const double op_s = elapsed_s(op_start);
    out.busy_s += op_s;
    out.op_us[kind].add(op_s * 1e6);
    ++out.ops;

    const psc::sim::Metrics& after = twin.metrics();
    out.cascade_checks += link_checks(twin, links) - checks_before;
    if (op.kind == ChurnOpKind::kSubscribe) {
      out.sub_msgs_in_subscribes += after.subscription_messages - before.subscription_messages;
      out.suppressed_in_subscribes +=
          after.subscriptions_suppressed - before.subscriptions_suppressed;
    } else if (op.kind == ChurnOpKind::kUnsubscribe) {
      out.sub_msgs_in_unsubscribes += after.subscription_messages - before.subscription_messages;
    }
  }
  return out;
}

// --- probe replay (store, index, core) -----------------------------------

struct ProbeReplay {
  std::array<std::uint64_t, kPathCount> checks{};
  std::array<double, kPathCount> check_ns{};
  std::uint64_t rspc_checks = 0;
  std::uint64_t rspc_iterations = 0;
  std::uint64_t capped = 0;
  std::uint64_t definite = 0;
  std::uint64_t box_queries = 0;
  std::uint64_t box_candidates = 0;
  std::uint64_t stab_matches = 0;
  std::uint64_t stab_examined = 0;
  std::uint64_t inserts = 0;
  std::uint64_t covered_inserts = 0;
  std::uint64_t erases = 0;
  std::uint64_t promoted = 0;
  std::uint64_t store_checks = 0;  ///< engine checks the store ran itself
};

/// Keeps `mirror` equal to the store's active set (rebuilt when a promotion
/// demoted something the erase result does not report).
void resync(psc::index::IntervalIndex& mirror, const psc::store::SubscriptionStore& store) {
  if (mirror.size() == store.active_count()) return;
  mirror.clear();
  for (const Subscription& sub : store.active_snapshot()) mirror.insert(sub);
}

ProbeReplay replay_probe(const WorkloadSpec& spec, const OpStream& stream,
                         std::size_t ops, std::uint64_t seed, Tracer& tracer) {
  ProbeReplay out;
  psc::store::StoreConfig config;
  config.policy = psc::store::CoveragePolicy::kGroup;
  psc::store::SubscriptionStore store(config, seed ^ 0x70726f6265ULL);
  psc::index::IntervalIndex mirror(spec.churn.attribute_count);
  psc::core::SubsumptionEngine engine(config.engine, seed ^ 0x656e67696eULL);

  const auto mirror_insert = [&](const Subscription& sub,
                                  const psc::store::InsertResult& result) {
    if (result.accepted_active) mirror.insert(sub);
    for (const SubscriptionId id : result.demoted) mirror.erase(id);
  };
  for (const ChurnOp& op : stream.preload) mirror_insert(op.sub, store.insert(op.sub));
  const std::uint64_t checks_before = store.group_checks();

  std::vector<SubscriptionId> ids;
  std::vector<const Subscription*> candidates;
  for (std::size_t i = 0; i < ops; ++i) {
    const ChurnOp& op = stream.timed[i];
    switch (op.kind) {
      case ChurnOpKind::kSubscribe: {
        ids.clear();
        {
          Tracer::Scope span(tracer, SpanName::kIndexBoxIntersect, i);
          mirror.box_intersect(op.sub, ids);
        }
        ++out.box_queries;
        out.box_candidates += ids.size();
        candidates.clear();
        for (const SubscriptionId id : ids) candidates.push_back(store.find(id));
        const auto start = Clock::now();
        psc::core::SubsumptionResult result;
        {
          Tracer::Scope span(tracer, SpanName::kCoreCheck, i);
          result = engine.check(op.sub, std::span<const Subscription* const>(candidates));
        }
        const auto path = static_cast<std::size_t>(result.path);
        ++out.checks[path];
        out.check_ns[path] += elapsed_s(start) * 1e9;
        if (result.path == DecisionPath::kRspcWitness ||
            result.path == DecisionPath::kRspcProbabilistic) {
          ++out.rspc_checks;
          out.rspc_iterations += result.iterations;
        }
        if (!result.is_definite && result.iterations >= engine.config().max_iterations) {
          ++out.capped;
        }
        if (result.is_definite) ++out.definite;

        psc::store::InsertResult inserted;
        {
          Tracer::Scope span(tracer, SpanName::kStoreInsert, i);
          inserted = store.insert(op.sub);
        }
        mirror_insert(op.sub, inserted);
        ++out.inserts;
        if (inserted.covered) ++out.covered_inserts;
        break;
      }
      case ChurnOpKind::kUnsubscribe: {
        const bool was_active = store.is_active(op.id);
        psc::store::SubscriptionStore::EraseResult erased;
        {
          Tracer::Scope span(tracer, SpanName::kStoreErase, i);
          erased = store.erase_reporting(op.id);
        }
        if (was_active) mirror.erase(op.id);
        for (const SubscriptionId id : erased.promoted) {
          if (store.is_active(id) && !mirror.contains(id)) mirror.insert(*store.find(id));
        }
        resync(mirror, store);
        ++out.erases;
        out.promoted += erased.promoted.size();
        break;
      }
      case ChurnOpKind::kPublish: {
        ids.clear();
        {
          Tracer::Scope span(tracer, SpanName::kIndexStab, i);
          mirror.stab(op.pub.values(), ids);
        }
        out.stab_matches += ids.size();
        out.stab_examined += mirror.last_query_cost();
        ids.clear();
        Tracer::Scope span(tracer, SpanName::kStoreMatch, i);
        store.match(op.pub, ids);
        break;
      }
      default:
        break;
    }
  }
  out.store_checks = store.group_checks() - checks_before;
  return out;
}

// --- correctness and output ---------------------------------------------

/// Compares the TCP leg's delivered sets with the traced twin's walk (the
/// TCP prefix) and every walked set with the FlatOracle.
CheckResult check_walk(const OpStream& stream, std::size_t ops, const TcpResult& tcp,
                       const TwinReplay& twin) {
  CheckResult result;
  psc::routing::FlatOracle oracle;
  for (const ChurnOp& op : stream.preload) oracle.subscribe(op.broker, op.sub);
  std::vector<SubscriptionId> expected;
  for (std::size_t i = 0; i < ops; ++i) {
    const ChurnOp& op = stream.timed[i];
    if (op.kind == ChurnOpKind::kSubscribe) oracle.subscribe(op.broker, op.sub);
    if (op.kind == ChurnOpKind::kUnsubscribe) oracle.unsubscribe(op.broker, op.id);
    if (op.kind != ChurnOpKind::kPublish) continue;
    oracle.publish(op.pub, expected);
    const std::size_t publish = result.publishes++;
    const auto& walked = twin.delivered.at(publish);
    if (publish < tcp.delivered.size() && tcp.delivered[publish] != walked) {
      ++result.divergences;
      if (result.first_problem.empty()) {
        result.first_problem = "publish #" + std::to_string(publish) +
                               ": TCP delivered set differs from the twin walk";
      }
    }
    compare_with_oracle(walked, expected, result);
  }
  if (result.first_problem.empty() && (result.extras > 0 || result.duplicates > 0)) {
    result.first_problem = "walked delivered sets hold ids the oracle did not expect";
  }
  return result;
}

void print_share_table(const std::map<std::string, double>& self_ms) {
  double total = 0.0;
  for (const auto& [layer, ms] : self_ms) total += ms;
  std::cout << "per-layer busy share (self time, ms):\n";
  for (const auto& [layer, ms] : self_ms) {
    std::cout << "  " << std::left << std::setw(10) << layer << std::right
              << std::setw(14) << std::fixed << std::setprecision(3) << ms
              << std::setw(9) << std::setprecision(1) << 100.0 * ratio(ms, total)
              << " %\n";
  }
  std::cout.unsetf(std::ios::floatfield);
  std::cout << std::setprecision(6);
}

}  // namespace

int run_traced(const WorkloadSpec& spec, const LinkList& links, const OpStream& stream,
               const TracedOptions& options) {
  const double seconds = options.tcp.seconds;

  // 1. A short TCP leg: socket-hop overhead and the correctness reference.
  TcpOptions tcp_options = options.tcp;
  tcp_options.seconds = 0.2 * seconds;
  tcp_options.setups = 1;
  const TcpResult tcp = run_tcp(spec, links, stream, tcp_options);

  // 2. The twin, preloaded once and restored from its image per replay.
  std::vector<std::uint8_t> image;
  {
    BrokerNetwork twin = make_twin(spec, links, options.tcp.seed);
    for (const ChurnOp& op : stream.preload) twin.subscribe(op.broker, op.sub);
    image = twin.snapshot_all();
  }
  // Untraced, traced, untraced again: the two untraced replays bracket the
  // traced one, so warm-up after the restore does not count as overhead.
  Tracer untraced(false);
  // At least the TCP prefix, so every TCP publish is checked.
  const TwinReplay plain = replay_twin(spec, links, options.tcp.seed, image, stream,
                                       tcp.completed, 0.2 * seconds, untraced);
  const std::size_t ops = plain.ops;
  Tracer twin_tracer(true);
  const TwinReplay traced =
      replay_twin(spec, links, options.tcp.seed, image, stream, ops, 0.0, twin_tracer);
  const TwinReplay plain_again =
      replay_twin(spec, links, options.tcp.seed, image, stream, ops, 0.0, untraced);
  const double untraced_busy_s = 0.5 * (plain.busy_s + plain_again.busy_s);

  // 3. The probe replay of the same ops.
  Tracer probe_tracer(true);
  const ProbeReplay probe = replay_probe(spec, stream, ops, options.tcp.seed, probe_tracer);

  const CheckResult check = check_walk(stream, ops, tcp, traced);

  // --- metrics ---
  Report report;
  const auto span_samples = [](const Tracer& tracer, SpanName name, double scale) {
    return to_samples(tracer.durations(name), scale);
  };
  report.add_percentiles("routing.subscribe_cascade_us.", "",
                         span_samples(twin_tracer, SpanName::kRoutingSubscribe, 1e-3), "us");
  report.add_percentiles("routing.unsubscribe_cascade_us.", "",
                         span_samples(twin_tracer, SpanName::kRoutingUnsubscribe, 1e-3),
                         "us");
  report.add_percentiles("routing.handle_publication_us.", "",
                         span_samples(twin_tracer, SpanName::kRoutingPublication, 1e-3),
                         "us");
  const auto publishes = static_cast<double>(traced.op_us[kPublish].count());
  const auto subscribes = static_cast<double>(traced.op_us[kSubscribe].count());
  const auto unsubscribes = static_cast<double>(traced.op_us[kUnsubscribe].count());
  report.add("routing.pub_hops_per_publish",
             ratio(static_cast<double>(traced.publication_hops), publishes), "hops",
             traced.op_us[kPublish].count());
  report.add("routing.suppression_ratio",
             ratio(static_cast<double>(traced.suppressed_in_subscribes),
                   static_cast<double>(traced.suppressed_in_subscribes +
                                       traced.sub_msgs_in_subscribes)),
             "ratio", traced.op_us[kSubscribe].count());
  report.add("routing.reannounce_per_unsubscribe",
             ratio(static_cast<double>(traced.sub_msgs_in_unsubscribes), unsubscribes),
             "msgs", traced.op_us[kUnsubscribe].count());
  report.add("routing.sub_msgs_per_subscribe",
             ratio(static_cast<double>(traced.sub_msgs_in_subscribes), subscribes), "msgs",
             traced.op_us[kSubscribe].count());

  const auto add_p50 = [&](const std::string& name, const Tracer& tracer, SpanName span,
                           double scale, const std::string& unit) {
    const SampleSet samples = span_samples(tracer, span, scale);
    if (samples.count() > 0) report.add(name, samples.percentile(50.0), unit, samples.count());
  };
  add_p50("wire.encode_ns.p50", twin_tracer, SpanName::kWireEncode, 1.0, "ns");
  add_p50("wire.decode_ns.p50", twin_tracer, SpanName::kWireDecode, 1.0, "ns");
  report.add("wire.bytes_per_hop",
             ratio(static_cast<double>(traced.bytes), static_cast<double>(traced.hops)),
             "bytes", traced.hops);
  add_p50("net.frame_encode_ns.p50", twin_tracer, SpanName::kNetFrameEncode, 1.0, "ns");
  add_p50("net.frame_decode_ns.p50", twin_tracer, SpanName::kNetFrameDecode, 1.0, "ns");
  // Each hop is one kData frame plus its kDone receipt; each client op is a
  // kClientOp frame plus its kOpResult.
  report.add("net.frames_per_op",
             ratio(2.0 * static_cast<double>(traced.hops + traced.ops),
                   static_cast<double>(traced.ops)),
             "frames", traced.ops);
  for (std::size_t kind = 0; kind < kOpKindNames.size(); ++kind) {
    if (tcp.latency_us[kind].count() == 0 || plain.op_us[kind].count() == 0) continue;
    report.add(std::string("net.hop_overhead_us.") + kOpKindNames[kind],
               tcp.latency_us[kind].percentile(50.0) -
                   plain.op_us[kind].percentile(50.0),
               "us", tcp.latency_us[kind].count());
  }

  report.add_percentiles("store.insert_us.", "",
                         span_samples(probe_tracer, SpanName::kStoreInsert, 1e-3), "us");
  report.add_percentiles("store.erase_us.", "",
                         span_samples(probe_tracer, SpanName::kStoreErase, 1e-3), "us");
  report.add("store.promoted_per_erase",
             ratio(static_cast<double>(probe.promoted), static_cast<double>(probe.erases)),
             "subs", probe.erases);
  report.add("store.covered_share",
             ratio(static_cast<double>(probe.covered_inserts),
                   static_cast<double>(probe.inserts)),
             "ratio", probe.inserts);

  add_p50("index.stab_us.p50", probe_tracer, SpanName::kIndexStab, 1e-3, "us");
  report.add("index.stab_hit_ratio",
             ratio(static_cast<double>(probe.stab_matches),
                   static_cast<double>(probe.stab_examined)),
             "ratio", probe.stab_examined);
  add_p50("index.box_intersect_us.p50", probe_tracer, SpanName::kIndexBoxIntersect, 1e-3,
          "us");
  report.add("index.box_candidates_mean",
             ratio(static_cast<double>(probe.box_candidates),
                   static_cast<double>(probe.box_queries)),
             "subs", probe.box_queries);

  report.add_percentiles("core.check_us.", "",
                         span_samples(probe_tracer, SpanName::kCoreCheck, 1e-3), "us");
  std::uint64_t all_checks = 0;
  for (std::size_t path = 0; path < kPathCount; ++path) {
    const std::string name(psc::core::to_string(static_cast<DecisionPath>(path)));
    report.add("core.checks." + name, static_cast<double>(probe.checks[path]), "count",
               probe.checks[path]);
    report.add("core.busy_ms." + name, probe.check_ns[path] * 1e-6, "ms", probe.checks[path]);
    all_checks += probe.checks[path];
  }
  report.add("core.rspc_iterations_mean",
             ratio(static_cast<double>(probe.rspc_iterations),
                   static_cast<double>(probe.rspc_checks)),
             "trials", probe.rspc_checks);
  report.add("core.rspc_capped_share",
             ratio(static_cast<double>(probe.capped), static_cast<double>(all_checks)),
             "ratio", all_checks);
  report.add("core.definite_share",
             ratio(static_cast<double>(probe.definite), static_cast<double>(all_checks)),
             "ratio", all_checks);

  report.add("trace.overhead_ratio",
             ratio(traced.busy_s - untraced_busy_s, untraced_busy_s), "ratio", ops);

  // --- busy-share table ---
  // Cascade spans contain the link-store work the twin's brokers run
  // internally. The probe store times that work on one link; scaling it by
  // (engine checks inside the twin's cascades / engine checks in the probe)
  // moves it out of routing into store, index and core.
  const Tracer::Totals twin_totals = twin_tracer.totals();
  const Tracer::Totals probe_totals = probe_tracer.totals();
  const auto self_ms = [](const Tracer::Totals& totals, SpanName name) {
    return static_cast<double>(totals.self_ns[static_cast<std::size_t>(name)]) * 1e-6;
  };
  const double scale = ratio(static_cast<double>(traced.cascade_checks),
                             static_cast<double>(probe.store_checks));
  const double link_work = self_ms(probe_totals, SpanName::kStoreInsert) +
                           self_ms(probe_totals, SpanName::kStoreErase);
  const double core_ms = self_ms(probe_totals, SpanName::kCoreCheck);
  const double box_ms = self_ms(probe_totals, SpanName::kIndexBoxIntersect);
  const double cascades = self_ms(twin_totals, SpanName::kRoutingSubscribe) +
                          self_ms(twin_totals, SpanName::kRoutingUnsubscribe);
  std::map<std::string, double> shares;
  shares["routing"] = std::max(0.0, cascades - scale * link_work) +
                      self_ms(twin_totals, SpanName::kRoutingPublication);
  shares["store"] = scale * std::max(0.0, link_work - core_ms - box_ms);
  shares["index"] = scale * box_ms;
  shares["core"] = scale * core_ms;
  shares["wire"] = self_ms(twin_totals, SpanName::kWireEncode) +
                   self_ms(twin_totals, SpanName::kWireDecode);
  // Socket hops: what a TCP op costs beyond its in-process twin, per op
  // kind (mean difference), charged to net for every replayed op.
  double socket_ms = 0.0;
  for (std::size_t kind = 0; kind < kOpKindNames.size(); ++kind) {
    if (tcp.latency_us[kind].count() == 0 || plain.op_us[kind].count() == 0) continue;
    socket_ms += std::max(0.0, tcp.latency_us[kind].mean() - plain.op_us[kind].mean()) *
                 static_cast<double>(traced.op_us[kind].count()) * 1e-3;
  }
  shares["net"] = self_ms(twin_totals, SpanName::kNetFrameEncode) +
                  self_ms(twin_totals, SpanName::kNetFrameDecode) + socket_ms;
  double share_total = 0.0;
  for (const auto& [layer, ms] : shares) share_total += ms;
  for (const auto& [layer, ms] : shares) {
    report.add("share." + layer, ratio(ms, share_total), "ratio", ops);
  }

  std::cout << "traced: TCP leg " << tcp.completed << " ops; twin replay " << ops
            << " ops (untraced " << untraced_busy_s << " s busy, traced " << traced.busy_s
            << " s); probe replay " << ops << " ops; socket hops " << socket_ms
            << " ms; " << traced.cascade_checks
            << " engine checks inside twin cascades vs " << probe.store_checks
            << " in the probe store (scale " << scale << ")\n";
  print_share_table(shares);
  std::cout << "self time by span (ms):";
  for (std::size_t name = 0; name < kSpanNames.size(); ++name) {
    const bool twin_span = name <= static_cast<std::size_t>(SpanName::kNetFrameDecode);
    const Tracer::Totals& totals = twin_span ? twin_totals : probe_totals;
    if (totals.count[name] == 0) continue;
    std::cout << ' ' << kSpanNames[name] << '='
              << static_cast<double>(totals.self_ns[name]) * 1e-6;
  }
  std::cout << '\n';
  report.print_lines(std::cout);

  if (!options.spans_dir.empty()) {
    std::filesystem::create_directories(options.spans_dir);
    const std::string path = options.spans_dir + "/" + spec.name + ".jsonl";
    std::filesystem::remove(path);
    twin_tracer.write(path, "twin", kWrittenOps);
    probe_tracer.write(path, "probe", kWrittenOps);
    std::cout << "spans written to " << path << '\n';
  }

  const bool correct = check.ok() && tcp.errors == 0;
  if (!tcp.first_error.empty()) std::cout << "op error: " << tcp.first_error << '\n';
  if (!check.first_problem.empty()) std::cout << "check: " << check.first_problem << '\n';
  report.print_json(std::cout, correct, tcp.attempted + ops,
                    tcp.errors + check.divergences + check.extras + check.duplicates);
  return correct ? 0 : 1;
}

}  // namespace perfbench
