// Traced run of one workload, separate from the timed run.
//
//   perfbench_traced --workload NAME --seed-base N --gate-base N --seconds S
//
// 1. Gate sweep at the committed seed base (profiled).
// 2. At --seed-base: a plain sweep, the same sweep with the self-profiler
//    attached (its wall time over the plain one is the tracing overhead),
//    and a profiled sweep with the other observer set (the hub and tracer
//    attached when the workload runs without them, detached when it runs
//    with them), which gives the observers' cost and self time.
// 3. Layer replay on the world of the workload's largest job, for half of
//    the time budget.
//
// Prints one JSON object with the raw results; perfbench/run.py checks and
// reduces it.
#include <cstdio>
#include <string>

#include "replay.hpp"
#include "workload.hpp"

int main(int argc, char** argv) {
  using perfbench::Observers;
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  const perfbench::Workload& workload =
      *perfbench::find_workload(args.workload);

  const perfbench::Sweep gate_sweep{workload, args.gate_base};
  const perfbench::SweepRun gate = gate_sweep.run(true, Observers::kOwn);

  const perfbench::Sweep sweep{workload, args.seed_base};
  const perfbench::SweepRun plain = sweep.run(false, Observers::kOwn);
  const perfbench::SweepRun profiled = sweep.run(true, Observers::kOwn);
  const bool observed = sweep.observed();
  const perfbench::SweepRun other = sweep.run(
      true, observed ? Observers::kDetached : Observers::kAttached);

  const auto replay = perfbench::run_replay(
      sweep.config(sweep.representative_job()), args.seed_base,
      args.seconds / 2);

  std::string out = "{\"gate\":" + perfbench::sweep_json(gate) +
                    ",\"plain\":" + perfbench::sweep_json(plain) +
                    ",\"profiled\":" + perfbench::sweep_json(profiled) +
                    ",\"other\":" + perfbench::sweep_json(other) +
                    ",\"observed\":" + (observed ? "true" : "false") +
                    ",\"replay\":{";
  for (std::size_t i = 0; i < replay.size(); ++i) {
    out += (i == 0 ? "" : ",") + perfbench::json_string(replay[i].first) +
           ":" + perfbench::json_number(replay[i].second);
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}
