#include "replay.hpp"

#include <algorithm>
#include <any>
#include <array>
#include <cmath>
#include <memory>
#include <variant>

#include "alloc_counter.hpp"
#include "core/event_table.hpp"
#include "core/messages.hpp"
#include "core/neighborhood_table.hpp"
#include "core/wire.hpp"
#include "energy/energy.hpp"
#include "mobility/city_section.hpp"
#include "mobility/converge.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/static_mobility.hpp"
#include "mobility/street_graph.hpp"
#include "net/medium.hpp"
#include "net/spatial_index.hpp"
#include "sim/scheduler.hpp"
#include "topics/subscription_set.hpp"
#include "topics/topic.hpp"
#include "workload.hpp"

// External linkage, so results folded into it cannot be optimized away.
std::uint64_t perfbench_replay_sink = 0;

namespace perfbench {

namespace {

namespace core = frugal::core;
namespace energy = frugal::energy;
namespace mobility = frugal::mobility;
namespace net = frugal::net;
namespace sim = frugal::sim;
namespace topics = frugal::topics;
using frugal::NodeId;
using frugal::Rng;
using frugal::SimDuration;
using frugal::SimTime;
using frugal::Vec2;

using Metrics = std::vector<std::pair<std::string, double>>;

/// A mobility model built from a config's MobilitySetup. A city model
/// borrows its street graph, so the graph is declared first and outlives it.
struct World {
  std::unique_ptr<mobility::StreetGraph> graph;
  std::unique_ptr<mobility::MobilityModel> model;
};

World make_world(const core::ExperimentConfig& config, std::uint64_t seed) {
  World world;
  Rng rng{seed};
  const std::size_t n = config.node_count;
  if (const auto* fixed = std::get_if<core::StaticSetup>(&config.mobility)) {
    std::vector<Vec2> positions;
    for (std::size_t i = 0; i < n; ++i) {
      positions.push_back(
          {rng.uniform(0, fixed->width_m), rng.uniform(0, fixed->height_m)});
    }
    world.model =
        std::make_unique<mobility::StaticMobility>(std::move(positions));
  } else if (const auto* rwp =
                 std::get_if<core::RandomWaypointSetup>(&config.mobility)) {
    world.model =
        std::make_unique<mobility::RandomWaypoint>(rwp->config, n, rng);
  } else if (const auto* converge =
                 std::get_if<core::ConvergeSetup>(&config.mobility)) {
    world.model =
        std::make_unique<mobility::ConvergeDisperse>(converge->config, n, rng);
  } else {
    const auto& city = std::get<core::CitySetup>(config.mobility);
    Rng grid_rng = rng.split(1);
    world.graph = std::make_unique<mobility::StreetGraph>(
        mobility::make_campus_grid(city.grid, grid_rng));
    world.model = std::make_unique<mobility::CitySection>(
        *world.graph, city.movement, n, rng.split(2));
  }
  return world;
}

/// The workload's topic shape, drawn the way run_experiment draws it: the
/// flat ".news" pair, or subscriptions over a Zipf-weighted hierarchy.
struct TopicShape {
  std::vector<topics::SubscriptionSet> subscriptions;  ///< one per node
  std::vector<topics::Topic> event_topics;
  std::vector<double> popularity;

  [[nodiscard]] const topics::Topic& event_topic(Rng& rng) const {
    return event_topics[rng.weighted_index(popularity)];
  }
};

TopicShape make_topics(const core::ExperimentConfig& config, Rng rng) {
  TopicShape shape;
  shape.subscriptions.resize(config.node_count);
  if (!config.topic_workload.has_value()) {
    const topics::Topic news = topics::Topic::parse(".news");
    for (auto& subscriptions : shape.subscriptions) {
      if (rng.bernoulli(config.interest_fraction)) subscriptions.add(news);
    }
    shape.event_topics = {topics::Topic::parse(".news.local")};
    shape.popularity = {1.0};
    return shape;
  }
  const core::TopicHierarchyWorkload& workload = *config.topic_workload;
  const topics::Topic root = topics::Topic::parse(".t");
  const auto branches =
      topics::complete_tree_level(root, workload.branching, 1);
  const auto leaves =
      topics::complete_tree_level(root, workload.branching, workload.depth);
  for (auto& subscriptions : shape.subscriptions) {
    if (!rng.bernoulli(config.interest_fraction)) continue;
    for (std::uint32_t draw = 0; draw < workload.subscriptions_per_node;
         ++draw) {
      const auto& pool = rng.bernoulli(workload.broad_fraction) ? branches
                                                                : leaves;
      subscriptions.add(pool[rng.uniform_u64(pool.size())]);
    }
  }
  shape.event_topics = leaves;
  for (std::size_t rank = 0; rank < leaves.size(); ++rank) {
    shape.popularity.push_back(
        std::pow(static_cast<double>(rank + 1), -workload.zipf_s));
  }
  return shape;
}

/// Mean number of other nodes within radio range at t = 0, over a sample
/// of up to 256 nodes (brute force, so it does not depend on the index).
std::size_t mean_degree(const core::ExperimentConfig& config,
                        std::uint64_t seed) {
  World world = make_world(config, seed);
  const std::size_t n = config.node_count;
  std::vector<Vec2> positions(n);
  for (NodeId id = 0; id < n; ++id) {
    positions[id] = world.model->position(id, SimTime::zero());
  }
  const double range_sq = config.medium.range_m * config.medium.range_m;
  const std::size_t sample = std::min<std::size_t>(n, 256);
  std::size_t total = 0;
  for (std::size_t s = 0; s < sample; ++s) {
    const Vec2 here = positions[s * n / sample];
    for (const Vec2& there : positions) {
      if (frugal::distance_sq(here, there) <= range_sq) ++total;
    }
  }
  total -= sample;  // every node is within range of itself
  return std::max<std::size_t>(1, (total + sample / 2) / sample);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

/// Runs `batch` once to warm up, then at least three more times and until
/// `budget_s` has passed. Returns every kept sample per batch output.
template <std::size_t N, class Batch>
std::array<std::vector<double>, N> repeat(double budget_s, Batch&& batch) {
  static_cast<void>(batch());
  std::array<std::vector<double>, N> samples;
  const double started = now_s();
  while (samples[0].size() < 3 ||
         (now_s() - started < budget_s && samples[0].size() < 100000)) {
    const std::array<double, N> sample = batch();
    for (std::size_t i = 0; i < N; ++i) samples[i].push_back(sample[i]);
  }
  return samples;
}

/// Per-operation nanoseconds.
double ns_per(double seconds, std::size_t ops) {
  return seconds * 1e9 / static_cast<double>(ops);
}

// -- sim: Scheduler ---------------------------------------------------------

/// A queue as deep as the workload keeps (about two periodic tasks per
/// node). Each chunk schedules `chunk` tasks, steps `chunk` tasks, then
/// cancels `chunk` freshly scheduled ones and drains their tombstones, so
/// the depth stays put.
void scheduler_case(std::size_t nodes, Rng rng, double budget_s,
                    Metrics& out) {
  const std::size_t depth = 2 * nodes;
  const std::size_t chunk = std::min<std::size_t>(depth, 256);
  constexpr std::size_t kChunks = 32;
  sim::Scheduler scheduler;
  std::uint64_t fired = 0;
  const auto delay = [&rng] {
    return SimDuration::from_us(1 + rng.uniform_int(0, 2'000'000));
  };
  for (std::size_t i = 0; i < depth; ++i) {
    scheduler.schedule_after(delay(), [&fired] { ++fired; });
  }
  std::vector<SimDuration> delays(chunk);
  std::vector<sim::TaskHandle> handles(chunk);
  const auto samples = repeat<4>(budget_s, [&]() -> std::array<double, 4> {
    double schedule_s = 0;
    double step_s = 0;
    double cancel_s = 0;
    std::uint64_t allocs = 0;
    for (std::size_t c = 0; c < kChunks; ++c) {
      for (SimDuration& d : delays) d = delay();
      const std::uint64_t allocs_before = allocation_count();
      const double t0 = now_s();
      for (std::size_t k = 0; k < chunk; ++k) {
        scheduler.schedule_after(delays[k], [&fired, k] { fired += k; });
      }
      const double t1 = now_s();
      for (std::size_t k = 0; k < chunk; ++k) scheduler.step();
      const double t2 = now_s();
      allocs += allocation_count() - allocs_before;
      for (sim::TaskHandle& handle : handles) {
        handle = scheduler.schedule_at(scheduler.now(), [&fired] { ++fired; });
      }
      const double t3 = now_s();
      for (sim::TaskHandle& handle : handles) handle.cancel();
      scheduler.run_until(scheduler.now());
      const double t4 = now_s();
      schedule_s += t1 - t0;
      step_s += t2 - t1;
      cancel_s += t4 - t3;
    }
    const std::size_t ops = kChunks * chunk;
    return {ns_per(schedule_s, ops), ns_per(step_s, ops),
            ns_per(cancel_s, ops),
            static_cast<double>(allocs) / static_cast<double>(ops)};
  });
  perfbench_replay_sink += fired;
  out.emplace_back("sim.schedule_ns", median(samples[0]));
  out.emplace_back("sim.step_ns", median(samples[1]));
  out.emplace_back("sim.cancel_ns", median(samples[2]));
  out.emplace_back("sim.allocs_per_task", samples[3].front());
}

// -- net: Medium, SpatialIndex ----------------------------------------------

class NullClient final : public net::MediumClient {
 public:
  void on_frame(const net::Frame& frame) override {
    perfbench_replay_sink += frame.size_bytes;
  }
};

/// One heartbeat-sized frame from a random sender, issued and run to
/// completion before the next, on the workload's mobility and radio.
void medium_case(const core::ExperimentConfig& config, const TopicShape& shape,
                 std::uint64_t seed, double budget_s, Metrics& out) {
  World world = make_world(config, seed);
  sim::Scheduler scheduler;
  net::Medium medium{scheduler, *world.model, config.medium, Rng{seed + 1}};
  NullClient client;
  for (NodeId id = 0; id < config.node_count; ++id) medium.attach(id, &client);
  Rng rng{seed + 2};
  constexpr std::size_t kFrames = 256;
  std::vector<NodeId> senders(kFrames);
  std::vector<std::uint32_t> sizes(kFrames);
  std::vector<std::any> payloads(kFrames);
  const auto samples = repeat<2>(budget_s, [&]() -> std::array<double, 2> {
    for (std::size_t f = 0; f < kFrames; ++f) {
      senders[f] = static_cast<NodeId>(rng.uniform_u64(config.node_count));
      core::Heartbeat heartbeat{senders[f], shape.subscriptions[senders[f]],
                                10.0};
      sizes[f] = core::wire_size(heartbeat);
      payloads[f] = core::Message{std::move(heartbeat)};
    }
    const std::uint64_t allocs_before = allocation_count();
    const double started = now_s();
    for (std::size_t f = 0; f < kFrames; ++f) {
      medium.broadcast(senders[f], sizes[f], std::move(payloads[f]));
      scheduler.run_all();
    }
    const double elapsed = now_s() - started;
    return {ns_per(elapsed, kFrames),
            static_cast<double>(allocation_count() - allocs_before) /
                static_cast<double>(kFrames)};
  });
  out.emplace_back("net.broadcast_ns", median(samples[0]));
  out.emplace_back("net.allocs_per_frame", samples[1].front());
}

/// Range queries around random nodes, one per simulated millisecond. Query
/// centers come from a second, identically seeded model so the index's own
/// model sees only non-decreasing times.
void index_case(const core::ExperimentConfig& config, std::uint64_t seed,
                double budget_s, Metrics& out) {
  World centers = make_world(config, seed);
  World indexed = make_world(config, seed);
  net::SpatialIndex index{*indexed.model, config.medium.range_m};
  Rng rng{seed + 3};
  constexpr std::size_t kQueries = 1024;
  std::vector<Vec2> points(kQueries);
  std::vector<SimTime> times(kQueries);
  SimTime now = SimTime::zero();
  const auto samples = repeat<1>(budget_s, [&]() -> std::array<double, 1> {
    for (std::size_t q = 0; q < kQueries; ++q) {
      now += SimDuration::from_ms(1);
      times[q] = now;
      points[q] = centers.model->position(
          static_cast<NodeId>(rng.uniform_u64(config.node_count)), now);
    }
    const double started = now_s();
    for (std::size_t q = 0; q < kQueries; ++q) {
      perfbench_replay_sink +=
          index.candidates(points[q], config.medium.range_m, times[q]).size();
    }
    return {ns_per(now_s() - started, kQueries)};
  });
  out.emplace_back("net.index_query_ns", median(samples[0]));
}

// -- mobility ---------------------------------------------------------------

void position_case(const core::ExperimentConfig& config, std::uint64_t seed,
                   double budget_s, Metrics& out) {
  World world = make_world(config, seed);
  Rng rng{seed + 4};
  constexpr std::size_t kQueries = 4096;
  std::vector<NodeId> nodes(kQueries);
  SimTime now = SimTime::zero();
  const auto samples = repeat<1>(budget_s, [&]() -> std::array<double, 1> {
    for (NodeId& node : nodes) {
      node = static_cast<NodeId>(rng.uniform_u64(config.node_count));
    }
    const double started = now_s();
    for (const NodeId node : nodes) {
      now += SimDuration::from_us(100);
      const Vec2 p = world.model->position(node, now);
      perfbench_replay_sink += static_cast<std::uint64_t>(p.x + p.y);
    }
    return {ns_per(now_s() - started, kQueries)};
  });
  out.emplace_back("mobility.position_ns", median(samples[0]));
}

// -- core: EventTable, NeighborhoodTable ------------------------------------

core::Event make_event(const core::ExperimentConfig& config,
                       const TopicShape& shape, Rng& rng, std::uint32_t seq,
                       SimTime now) {
  core::Event event;
  event.id = core::EventId{static_cast<NodeId>(seq % 64), seq};
  event.topic = shape.event_topic(rng);
  event.published_at = now;
  event.validity = config.event_validity;
  event.wire_bytes = config.event_bytes;
  return event;
}

/// insert_ns: inserts into a table already full at the workload's capacity,
/// one per publish spacing, so every insert collects a victim.
/// ids_matching_ns: a table holding the workload's events (up to capacity),
/// queried with the workload's subscriptions.
void event_table_case(const core::ExperimentConfig& config,
                      const TopicShape& shape, std::uint64_t seed,
                      double budget_s, Metrics& out) {
  const std::size_t capacity = config.frugal.event_table_capacity;
  // Collection scans the table, so large capacities get fewer inserts.
  const std::size_t inserts =
      std::clamp<std::size_t>(65536 / capacity, 16, 1024);
  Rng rng{seed + 5};
  std::vector<core::Event> events(inserts);
  const auto insert_samples =
      repeat<1>(budget_s / 2, [&]() -> std::array<double, 1> {
        core::EventTable table{capacity, config.frugal.gc_policy};
        SimTime now = SimTime::zero();
        std::uint32_t seq = 0;
        for (; seq < capacity; ++seq) {
          now += config.publish_spacing;
          static_cast<void>(
              table.insert(make_event(config, shape, rng, seq, now), now));
        }
        std::vector<SimTime> times(inserts);
        for (std::size_t i = 0; i < inserts; ++i) {
          now += config.publish_spacing;
          times[i] = now;
          events[i] = make_event(config, shape, rng, seq++, now);
        }
        const double started = now_s();
        for (std::size_t i = 0; i < inserts; ++i) {
          perfbench_replay_sink +=
              table.insert(std::move(events[i]), times[i]).has_value();
        }
        return {ns_per(now_s() - started, inserts)};
      });
  out.emplace_back("core.event_table.insert_ns", median(insert_samples[0]));

  core::EventTable table{capacity, config.frugal.gc_policy};
  SimTime now = SimTime::zero();
  const std::size_t held = std::min<std::size_t>(capacity, config.event_count);
  for (std::uint32_t seq = 0; seq < held; ++seq) {
    now += config.publish_spacing;
    static_cast<void>(
        table.insert(make_event(config, shape, rng, seq, now), now));
  }
  constexpr std::size_t kQueries = 1024;
  const auto query_samples =
      repeat<1>(budget_s / 2, [&]() -> std::array<double, 1> {
        std::vector<const topics::SubscriptionSet*> interests(kQueries);
        for (auto& set : interests) {
          set = &shape.subscriptions[rng.uniform_u64(config.node_count)];
        }
        const double started = now_s();
        for (const topics::SubscriptionSet* set : interests) {
          perfbench_replay_sink += table.ids_matching(*set, now).size();
        }
        return {ns_per(now_s() - started, kQueries)};
      });
  out.emplace_back("core.event_table.ids_matching_ns",
                   median(query_samples[0]));
}

/// A table of the workload's mean one-hop degree, each row knowing the
/// workload's events: heartbeat refreshes (upsert) and the periodic
/// neighborhood GC sweep (collect, which removes nothing here).
void neighborhood_case(const core::ExperimentConfig& config,
                       const TopicShape& shape, std::size_t degree,
                       std::uint64_t seed, double budget_s, Metrics& out) {
  Rng rng{seed + 6};
  core::NeighborhoodTable table;
  SimTime now = SimTime::zero();
  for (NodeId id = 0; id < degree; ++id) {
    static_cast<void>(table.upsert(id, shape.subscriptions[id], 10.0, now));
    // Unknown expiry: collect() keeps the rows' contents identical however
    // far simulated time advances across batches.
    for (std::uint32_t e = 0; e < config.event_count; ++e) {
      table.record_event(id, core::EventId{0, e});
    }
  }
  constexpr std::size_t kUpserts = 1024;
  std::vector<NodeId> ids(kUpserts);
  const auto upsert_samples =
      repeat<1>(budget_s / 2, [&]() -> std::array<double, 1> {
        for (NodeId& id : ids) id = static_cast<NodeId>(rng.uniform_u64(degree));
        const double started = now_s();
        for (const NodeId id : ids) {
          now += SimDuration::from_ms(1);
          perfbench_replay_sink +=
              table.upsert(id, shape.subscriptions[id], 10.0, now);
        }
        return {ns_per(now_s() - started, kUpserts)};
      });
  out.emplace_back("core.neighborhood.upsert_ns", median(upsert_samples[0]));

  constexpr std::size_t kCollects = 256;
  const SimDuration max_age = SimDuration::from_seconds(1e6);
  const auto collect_samples =
      repeat<1>(budget_s / 2, [&]() -> std::array<double, 1> {
        const double started = now_s();
        for (std::size_t c = 0; c < kCollects; ++c) {
          perfbench_replay_sink += table.collect(now, max_age);
        }
        return {ns_per(now_s() - started, kCollects)};
      });
  out.emplace_back("core.neighborhood.collect_ns", median(collect_samples[0]));
}

// -- topics -----------------------------------------------------------------

/// The heartbeat admission test between random pairs of the workload's
/// subscription sets.
void overlaps_case(const core::ExperimentConfig& config,
                   const TopicShape& shape, std::uint64_t seed,
                   double budget_s, Metrics& out) {
  Rng rng{seed + 7};
  constexpr std::size_t kPairs = 4096;
  std::vector<std::pair<std::size_t, std::size_t>> pairs(kPairs);
  const auto samples = repeat<1>(budget_s, [&]() -> std::array<double, 1> {
    for (auto& [a, b] : pairs) {
      a = rng.uniform_u64(config.node_count);
      b = rng.uniform_u64(config.node_count);
    }
    const double started = now_s();
    for (const auto& [a, b] : pairs) {
      perfbench_replay_sink +=
          shape.subscriptions[a].overlaps(shape.subscriptions[b]);
    }
    return {ns_per(now_s() - started, kPairs)};
  });
  out.emplace_back("topics.overlaps_ns", median(samples[0]));
}

// -- energy -----------------------------------------------------------------

/// The listener calls one frame costs: before_tx and on_tx at the sender,
/// on_rx at each of `degree` receivers. Each batch starts a fresh model so
/// finite batteries never run dry mid-measurement.
void energy_case(const core::ExperimentConfig& config, std::size_t degree,
                 std::uint64_t seed, double budget_s, Metrics& out) {
  const energy::EnergyConfig energy_config =
      config.energy.value_or(energy::EnergyConfig{});
  Rng rng{seed + 8};
  constexpr std::size_t kFrames = 1024;
  const SimDuration airtime = SimDuration::from_us(3200);
  std::vector<NodeId> nodes(kFrames * (degree + 1));
  const auto samples = repeat<1>(budget_s, [&]() -> std::array<double, 1> {
    energy::EnergyModel model{config.node_count, energy_config};
    model.set_depletion_callback([](NodeId, SimTime) {});
    for (NodeId& node : nodes) {
      node = static_cast<NodeId>(rng.uniform_u64(config.node_count));
    }
    SimTime now = SimTime::zero();
    const double started = now_s();
    for (std::size_t f = 0; f < kFrames; ++f) {
      const NodeId* frame = &nodes[f * (degree + 1)];
      model.before_tx(frame[0], now);
      model.on_tx(frame[0], now, now + airtime);
      for (std::size_t r = 1; r <= degree; ++r) {
        if (frame[r] != frame[0]) model.on_rx(frame[r], now, now + airtime);
      }
      now += airtime + airtime;
    }
    return {ns_per(now_s() - started, kFrames * (degree + 2))};
  });
  out.emplace_back("energy.listener_ns", median(samples[0]));
}

}  // namespace

std::vector<std::pair<std::string, double>> run_replay(
    const core::ExperimentConfig& world, std::uint64_t seed, double budget_s) {
  const TopicShape shape = make_topics(world, Rng{seed + 9});
  const std::size_t degree = mean_degree(world, seed);
  const double share = budget_s / 8;
  Metrics out;
  scheduler_case(world.node_count, Rng{seed + 10}, share, out);
  medium_case(world, shape, seed, share, out);
  index_case(world, seed, share, out);
  position_case(world, seed, share, out);
  event_table_case(world, shape, seed, share, out);
  neighborhood_case(world, shape, std::min(degree, world.node_count), seed,
                    share, out);
  overlaps_case(world, shape, seed, share, out);
  energy_case(world, degree, seed, share, out);
  return out;
}

}  // namespace perfbench
