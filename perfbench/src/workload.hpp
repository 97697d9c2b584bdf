// The benchmark's workloads and the sweep loop both benchmark binaries share.
//
// A workload is a registered scenario plus an optional grid narrowing and
// observer setting. Sweeps run their jobs one after another on the calling
// thread (the single-worker equivalent of runner::run_sweep), keep each
// job's RunResult long enough to read the deterministic counters the
// correctness gate compares, and render the canonical CSV exactly as
// experiment_cli --format csv does.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"
#include "sim/profiler.hpp"
#include "telemetry/causal.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

struct Workload {
  std::string name;      ///< benchmark name, e.g. "rwp_headline"
  std::string scenario;  ///< registered scenario it runs
  /// --grid style narrowing: axis name -> value labels.
  std::vector<std::pair<std::string, std::vector<std::string>>> grid;
  bool telemetry = false;  ///< bounded telemetry hub on every job
};

/// nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Which observers a sweep attaches: the workload's own set, the telemetry
/// hub plus the dissemination tracer, or none.
enum class Observers { kOwn, kAttached, kDetached };

/// What one job produced: its metric columns and the deterministic counters.
struct JobRecord {
  std::vector<double> metrics;
  std::uint64_t tasks = 0;  ///< scheduler tasks; profiled sweeps only
  std::uint64_t frames = 0;  ///< frames issued (sent + dropped)
  std::uint64_t frames_sent = 0;
  std::uint64_t receptions = 0;  ///< receptions offered to receivers
  std::uint64_t intact = 0;      ///< receptions delivered intact
  std::uint64_t deliveries = 0;  ///< (subscriber, event) deliveries
  std::uint64_t gc_evictions = 0;
  double node_seconds = 0;  ///< node_count x simulated horizon
  double wall_s = 0;        ///< host seconds, observers and profiler included
};

struct SweepRun {
  double wall_s = 0;
  std::string csv;
  std::vector<JobRecord> jobs;
  frugal::sim::Profiler profile;  ///< merged over jobs; empty unless profiled
};

class Sweep {
 public:
  Sweep(const Workload& workload, std::uint64_t seed_base);

  /// Runs every job once, in canonical job order.
  [[nodiscard]] SweepRun run(bool profile, Observers observers) const;

  /// Host seconds to build each job's world: the job's config with its
  /// simulated horizon cut to a few microseconds and no observers.
  [[nodiscard]] std::vector<double> setup_seconds() const;

  /// True when the workload's own observer set is non-empty.
  [[nodiscard]] bool observed() const;

  [[nodiscard]] frugal::core::ExperimentConfig config(std::size_t job) const;

  /// The job whose world the layer replay copies: the largest node count,
  /// first in canonical order on ties.
  [[nodiscard]] std::size_t representative_job() const;

 private:
  const Workload& workload_;
  const frugal::runner::ScenarioSpec& spec_;
  frugal::runner::SweepPlan plan_;
  frugal::telemetry::TelemetryConfig hub_config_;
  std::optional<frugal::telemetry::TracerConfig> own_tracer_;
};

/// steady_clock seconds since an arbitrary epoch.
[[nodiscard]] double now_s();

/// Host seconds one fixed probe takes right now: dependent loads through
/// 16 MiB and through 256 KiB, then a hash-map fill, the cache-, branch-
/// and allocation-bound mix of the simulator's own hot paths. The probe is
/// the benchmark's own code, so no change to the simulator can move it.
[[nodiscard]] double probe_seconds();

/// JSON rendering of the pieces perfbench/run.py reads.
[[nodiscard]] std::string json_string(std::string_view text);
[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string sweep_json(const SweepRun& run);

/// Parses `--key value` pairs; aborts with usage on anything else.
struct Args {
  std::string workload;
  std::uint64_t seed_base = 1;
  std::uint64_t gate_base = 1;
  double seconds = 10;
};
[[nodiscard]] Args parse_args(int argc, char** argv);

}  // namespace perfbench
