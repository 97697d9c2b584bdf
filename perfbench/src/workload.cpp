#include "workload.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <unordered_map>

#include "runner/registry.hpp"
#include "util/rng.hpp"
#include "runner/sink.hpp"

namespace perfbench {

namespace core = frugal::core;
namespace runner = frugal::runner;
namespace telemetry = frugal::telemetry;

namespace {

// Why each workload is in the set is recorded in perfbench/README.md.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"rwp_headline", "headline", {}, false},
      {"metro_city", "metro_scale", {}, false},
      {"energy_observed",
       "energy_lifetime",
       {{"protocol", {"frugal", "interests-aware-flooding", "gossip"}},
        {"battery_j", {"300", "800"}}},
       true},
      {"gc_pressure", "memory_pressure", {}, false},
  };
  return all;
}

const runner::ScenarioSpec& require_spec(const std::string& name) {
  const runner::ScenarioSpec* spec = runner::find_scenario(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: scenario %s is not registered\n",
                 name.c_str());
    std::exit(2);
  }
  return *spec;
}

runner::SweepOptions options_for(const Workload& workload,
                                 const runner::ScenarioSpec& spec,
                                 std::uint64_t seed_base) {
  runner::SweepOptions options;
  options.jobs = 1;
  // Explicit, so FRUGAL_SEEDS in the environment cannot resize the sweep.
  options.seeds = spec.default_seeds;
  options.seed_base = seed_base;
  options.telemetry = workload.telemetry;
  for (const auto& [name, labels] : workload.grid) {
    runner::Axis axis;
    axis.name = name;
    const runner::Axis* own = nullptr;
    for (const runner::Axis& candidate : spec.axes) {
      if (candidate.name == name) own = &candidate;
    }
    for (const std::string& label : labels) {
      std::optional<double> value;
      if (own != nullptr && own->parse) value = own->parse(label);
      if (!value.has_value()) value = std::strtod(label.c_str(), nullptr);
      axis.values.push_back(*value);
    }
    options.overrides.push_back(std::move(axis));
  }
  return options;
}

void add_counters(JobRecord& record, const core::RunResult& result) {
  for (const core::NodeOutcome& node : result.nodes) {
    const auto& t = node.traffic;
    record.frames += t.frames_sent + t.frames_dropped;
    record.frames_sent += t.frames_sent;
    record.intact += t.frames_delivered;
    record.receptions += t.frames_delivered + t.frames_collided +
                         t.frames_missed_busy + t.frames_missed_asleep +
                         t.frames_missed_down;
    record.gc_evictions += node.gc_evictions;
  }
  record.deliveries = result.delivered_count();
  record.node_seconds =
      static_cast<double>(result.nodes.size()) * result.run_end.seconds();
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& workload : workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

Sweep::Sweep(const Workload& workload, std::uint64_t seed_base)
    : workload_{workload}, spec_{require_spec(workload.scenario)} {
  runner::SweepOptions options = options_for(workload, spec_, seed_base);
  plan_ = runner::plan_sweep(spec_, options);
  own_tracer_ = runner::dissem_config_for(spec_, options);
  options.telemetry = true;  // the attached hub is the bounded one
  hub_config_ = runner::telemetry_config_for(spec_, options);
}

bool Sweep::observed() const {
  return workload_.telemetry || own_tracer_.has_value();
}

core::ExperimentConfig Sweep::config(std::size_t job) const {
  const auto seeds = static_cast<std::size_t>(plan_.seeds);
  return spec_.make_config(
      plan_.grid[job / seeds],
      runner::job_seed(plan_.seed_base, static_cast<int>(job % seeds)));
}

std::size_t Sweep::representative_job() const {
  std::size_t best = 0;
  std::size_t best_nodes = 0;
  for (std::size_t job = 0; job < plan_.job_count; ++job) {
    const std::size_t nodes = config(job).node_count;
    if (nodes > best_nodes) {
      best = job;
      best_nodes = nodes;
    }
  }
  return best;
}

SweepRun Sweep::run(bool profile, Observers observers) const {
  const bool hub = observers == Observers::kAttached ||
                   (observers == Observers::kOwn && workload_.telemetry);
  const bool tracer = observers == Observers::kAttached ||
                      (observers == Observers::kOwn && own_tracer_.has_value());
  const telemetry::TracerConfig tracer_config = own_tracer_.value_or(
      telemetry::TracerConfig{});
  const auto seeds = static_cast<std::size_t>(plan_.seeds);

  SweepRun out;
  out.jobs.resize(plan_.job_count);
  std::vector<std::vector<double>> job_metrics(plan_.job_count);
  const double started = now_s();
  for (std::size_t job = 0; job < plan_.job_count; ++job) {
    const double job_started = now_s();
    core::ExperimentConfig config = this->config(job);
    std::optional<telemetry::RunTelemetry> hub_instance;
    if (hub) {
      hub_instance.emplace(hub_config_);
      config.telemetry = &*hub_instance;
    }
    std::optional<telemetry::DisseminationTracer> tracer_instance;
    if (tracer) {
      tracer_instance.emplace(tracer_config);
      config.dissem_tracer = &*tracer_instance;
    }
    frugal::sim::Profiler job_profile;
    if (profile) config.profiler = &job_profile;

    const core::RunResult result = core::run_experiment(config);
    const runner::ParamPoint& point = plan_.grid[job / seeds];
    for (const runner::MetricSpec& metric : spec_.metrics) {
      job_metrics[job].push_back(metric.extract(result, point));
    }
    JobRecord& record = out.jobs[job];
    record.wall_s = now_s() - job_started;
    record.metrics = job_metrics[job];
    add_counters(record, result);
    if (profile) {
      for (const auto& [name, section] : job_profile.sections()) {
        if (name == "scheduler.task") {
          record.tasks = static_cast<std::uint64_t>(section.count);
        }
      }
      out.profile.merge(job_profile);
    }
  }
  out.wall_s = now_s() - started;
  out.csv = runner::sweep_csv(runner::aggregate_jobs(spec_, plan_, job_metrics));
  return out;
}

std::vector<double> Sweep::setup_seconds() const {
  std::vector<double> seconds;
  for (std::size_t job = 0; job < plan_.job_count; ++job) {
    core::ExperimentConfig config = this->config(job);
    config.warmup = frugal::SimDuration::from_us(1);
    config.event_validity = frugal::SimDuration::from_us(1);
    config.event_count = 1;
    const double started = now_s();
    static_cast<void>(core::run_experiment(config));
    seconds.push_back(now_s() - started);
  }
  return seconds;
}

double probe_seconds() {
  // Sattolo's shuffle: one cycle through every slot, so each load depends
  // on the last and the prefetcher cannot help.
  const auto cycle = [](std::uint32_t slots) {
    std::vector<std::uint32_t> next(slots);
    std::iota(next.begin(), next.end(), 0u);
    frugal::Rng rng{slots};
    for (std::uint32_t i = slots - 1; i > 0; --i) {
      std::swap(next[i], next[rng.uniform_u64(i)]);
    }
    return next;
  };
  static const std::vector<std::uint32_t> large = cycle(1u << 22);
  static const std::vector<std::uint32_t> small = cycle(1u << 16);
  const double started = now_s();
  std::uint32_t at = 0;
  for (int i = 0; i < (1 << 17); ++i) at = large[at];
  for (int i = 0; i < (1 << 20); ++i) at = small[at & 0xFFFFu];
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    map[(i * 0x9E3779B97F4A7C15ULL) >> 40] += at;
  }
  const double elapsed = now_s() - started;
  if (map.size() == 0) std::abort();  // keeps the work observable
  return elapsed;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string sweep_json(const SweepRun& run) {
  std::string out = "{\"wall_s\":" + json_number(run.wall_s) +
                    ",\"csv\":" + json_string(run.csv) + ",\"jobs\":[";
  for (std::size_t i = 0; i < run.jobs.size(); ++i) {
    const JobRecord& job = run.jobs[i];
    out += i == 0 ? "{" : ",{";
    // Metric columns as exact decimal strings: the gate compares them
    // byte for byte.
    out += "\"metrics\":[";
    for (std::size_t m = 0; m < job.metrics.size(); ++m) {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%.17g", job.metrics[m]);
      out += (m == 0 ? "" : ",") + json_string(buffer);
    }
    out += "],\"tasks\":" + std::to_string(job.tasks) +
           ",\"frames\":" + std::to_string(job.frames) +
           ",\"frames_sent\":" + std::to_string(job.frames_sent) +
           ",\"receptions\":" + std::to_string(job.receptions) +
           ",\"intact\":" + std::to_string(job.intact) +
           ",\"deliveries\":" + std::to_string(job.deliveries) +
           ",\"gc_evictions\":" + std::to_string(job.gc_evictions) +
           ",\"node_seconds\":" + json_number(job.node_seconds) +
           ",\"wall_s\":" + json_number(job.wall_s) + "}";
  }
  out += "],\"profile\":{";
  bool first = true;
  for (const auto& [name, section] : run.profile.sections()) {
    out += (first ? "" : ",") + json_string(name) + ":[" +
           std::to_string(section.wall_ns) + "," +
           std::to_string(section.count) + "]";
    first = false;
  }
  return out + "}}";
}

Args parse_args(int argc, char** argv) {
  Args args;
  const auto usage = [argv] {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed-base N --gate-base N "
                 "--seconds S\n",
                 argv[0]);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage();
    const char* key = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(key, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(key, "--seed-base") == 0) {
      args.seed_base = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(key, "--gate-base") == 0) {
      args.gate_base = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(key, "--seconds") == 0) {
      args.seconds = std::strtod(value, nullptr);
    } else {
      usage();
    }
  }
  if (find_workload(args.workload) == nullptr || !(args.seconds > 0)) {
    usage();
  }
  return args;
}

}  // namespace perfbench
