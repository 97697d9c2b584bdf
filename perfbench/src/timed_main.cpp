// Timed run of one workload: tracing off, one process, one worker.
//
//   perfbench_timed --workload NAME --seed-base N --gate-base N --seconds S
//
// 1. Gate sweep at the committed seed base (profiled, so it also yields the
//    exact scheduler task count). It doubles as the warm-up, and the peak
//    RSS is read right after it.
// 2. Timed sweeps at --seed-base, repeated while another one still fits in
//    S seconds (at least twice, so every run also checks that the sweep is
//    deterministic). After each sweep, 20 set-up passes (every job's world
//    built with the horizon cut to ~0) and five host-speed probes. Spreading
//    them over the run keeps a slow spell of the host from landing on all
//    of them.
//
// Prints one JSON object with every raw sample, per job; perfbench/run.py
// checks it against the committed expected output and reduces it to the
// metrics.
#include <sys/resource.h>

#include <cstdio>
#include <string>
#include <vector>

#include "workload.hpp"

int main(int argc, char** argv) {
  using perfbench::json_number;
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  const perfbench::Workload& workload =
      *perfbench::find_workload(args.workload);

  const perfbench::Sweep gate_sweep{workload, args.gate_base};
  const perfbench::SweepRun gate =
      gate_sweep.run(/*profile=*/true, perfbench::Observers::kOwn);
  // Peak RSS so far: the gate's fixed seed base keeps it independent of
  // --seed-base.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const long gate_rss_kib = usage.ru_maxrss;

  // Five host-speed probes before the first round and after every round.
  std::vector<std::vector<double>> probes;
  const auto probe = [&probes] {
    probes.emplace_back();
    for (int i = 0; i < 5; ++i) probes.back().push_back(perfbench::probe_seconds());
  };
  probe();

  const perfbench::Sweep sweep{workload, args.seed_base};
  std::vector<perfbench::SweepRun> reps;
  std::vector<std::vector<double>> setup;
  double round_s = 0;  // the last sweep plus its set-up passes
  for (const double started = perfbench::now_s();
       reps.size() < 2 ||
       perfbench::now_s() - started + round_s <= args.seconds;) {
    const double round_started = perfbench::now_s();
    reps.push_back(sweep.run(/*profile=*/false, perfbench::Observers::kOwn));
    for (int pass = 0; pass < 20; ++pass) setup.push_back(sweep.setup_seconds());
    probe();
    round_s = perfbench::now_s() - round_started;
  }

  std::string out = "{\"gate\":" + perfbench::sweep_json(gate) + ",\"setup_s\":[";
  for (std::size_t i = 0; i < setup.size(); ++i) {
    out += i == 0 ? "[" : ",[";
    for (std::size_t job = 0; job < setup[i].size(); ++job) {
      out += (job == 0 ? "" : ",") + json_number(setup[i][job]);
    }
    out += "]";
  }
  out += "],\"probe_s\":[";
  for (std::size_t i = 0; i < probes.size(); ++i) {
    out += i == 0 ? "[" : ",[";
    for (std::size_t k = 0; k < probes[i].size(); ++k) {
      out += (k == 0 ? "" : ",") + json_number(probes[i][k]);
    }
    out += "]";
  }
  out += "],\"reps\":[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    out += (i == 0 ? "" : ",") + perfbench::sweep_json(reps[i]);
  }
  out += "],\"gate_rss_kib\":" + std::to_string(gate_rss_kib) + "}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}
