#!/usr/bin/env python3
"""Simulator benchmark: builds the benchmark binaries, runs one workload and
prints its metrics as the last line of standard output.

    python3 perfbench/run.py --workload rwp_headline --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16
    python3 perfbench/run.py --write-expected

--trace 0 is the timed run and reports the end-to-end metrics of
BENCHMARK.json; --trace 1 is the separate traced run (self-profiler, observer
comparison, layer replay) and reports the per-layer metrics. --workload all
runs every workload both ways and prints a table. --write-expected rewrites
the committed expected outputs (only after a deliberate behaviour change,
with the golden traces regenerated alongside).

Every run re-runs one committed seed base (1 for even seeds, 101 for odd
ones) and compares the canonical CSV and each job's metric columns and
deterministic counters with perfbench/expected/; every job that differs, or
that differs between sweeps of the same seed within the run, counts as
failed. See perfbench/README.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
EXPECTED = HERE / "expected"
WORKLOADS = ("rwp_headline", "metro_city", "energy_observed", "gc_pressure")
GATE_BASES = (1, 101)
RUN_TIMEOUT_S = 170
# Median time of the host-speed probe (probe_seconds in src/workload.cpp) on
# the baseline machine. Timed runs report seconds at that host speed.
PROBE_REF_S = 0.0235


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", "4",
         "--target", "perfbench_timed", "perfbench_traced"],
        check=True, stdout=sys.stderr, cwd=ROOT)


def run_binary(name, workload, seed_base, gate_base, seconds):
    """Runs one benchmark binary; returns its JSON, or None if it failed."""
    try:
        proc = subprocess.run(
            [str(BUILD / name), "--workload", workload,
             "--seed-base", str(seed_base), "--gate-base", str(gate_base),
             "--seconds", repr(float(seconds))],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {name} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_path(workload, base):
    return EXPECTED / f"{workload}-seed{base}.json"


def job_key(job, tasks):
    key = (tuple(job["metrics"]), job["frames"], job["deliveries"],
           job["gc_evictions"])
    return key + (job["tasks"],) if tasks else key


def counter_key(job):
    return (job["tasks"], job["frames"], job["deliveries"],
            job["gc_evictions"])


def mismatches(sweep, reference, key, compare_csv=True):
    """Jobs of `sweep` whose key differs from `reference`'s. A CSV that
    differs while every job matches fails the whole sweep."""
    jobs, ref = sweep["jobs"], reference["jobs"]
    if len(jobs) != len(ref):
        return len(jobs)
    bad = sum(key(a) != key(b) for a, b in zip(jobs, ref))
    if bad == 0 and compare_csv and sweep["csv"] != reference["csv"]:
        bad = len(jobs)
    return bad


def check_gate(workload, gate, base):
    path = expected_path(workload, base)
    if not path.is_file():
        print(f"perfbench: missing {path}", file=sys.stderr)
        return len(gate["jobs"])
    expected = json.loads(path.read_text())
    return mismatches(gate, expected, lambda job: job_key(job, tasks=True))


def timed_metrics(workload, raw, seed_base, gate_base):
    gate, reps = raw["gate"], raw["reps"]
    failed = check_gate(workload, gate, gate_base)
    attempted = len(gate["jobs"])
    for rep in reps:
        attempted += len(rep["jobs"])
        failed += mismatches(rep, reps[0], lambda job: job_key(job, False))
    if seed_base == gate_base:
        failed += mismatches(reps[0], gate, lambda job: job_key(job, False))
    # The host is shared and its speed drifts by tens of percent within
    # minutes. Every sweep is timed between two rounds of a fixed probe, and
    # its times are scaled to the reference host speed by the probes around
    # it (README.md has the measured spreads with and without this).
    probes = [statistics.median(p) for p in raw["probe_s"]]
    scale = [2 * PROBE_REF_S / (probes[r] + probes[r + 1])
             for r in range(len(reps))]
    # Each job's fastest repetition, summed: slow spells only ever add time.
    wall = sum(min(rep["jobs"][j]["wall_s"] * scale[r]
                   for r, rep in enumerate(reps))
               for j in range(len(reps[0]["jobs"])))
    passes_per_rep = len(raw["setup_s"]) // len(reps)
    setup = sum(statistics.median(passes[j] * scale[p // passes_per_rep]
                                  for p, passes in enumerate(raw["setup_s"]))
                for j in range(len(raw["setup_s"][0])))
    node_seconds = sum(job["node_seconds"] for job in reps[0]["jobs"])
    metrics = {
        "wall_s": wall,
        "sim_node_s_per_host_s": node_seconds / max(wall - setup, 1e-9),
        "peak_rss_mib": raw["gate_rss_kib"] / 1024.0,
        "setup_s": setup,
    }
    return metrics, attempted, failed


def traced_metrics(workload, raw, gate_base):
    gate, plain, profiled, other = (
        raw["gate"], raw["plain"], raw["profiled"], raw["other"])
    failed = check_gate(workload, gate, gate_base)
    attempted = len(gate["jobs"]) + 3 * len(plain["jobs"])
    # Profiler and observers never perturb a run: the profiled sweep must
    # match the plain one exactly, and the sweep with the other observer
    # set must match its counters (its metric columns may read observers).
    failed += mismatches(profiled, plain, lambda job: job_key(job, False))
    failed += mismatches(other, profiled, counter_key, compare_csv=False)

    attached, detached = (profiled, other) if raw["observed"] else (
        other, profiled)

    def section(sweep, name):
        return sweep["profile"].get(name, [0, 0])

    def self_s(sweep, name):
        return section(sweep, name)[0] / 1e9

    jobs = plain["jobs"]
    receptions = sum(job["receptions"] for job in jobs)
    metrics = {
        "sim.task_self_s": self_s(profiled, "scheduler.task"),
        "sim.tasks": section(profiled, "scheduler.task")[1],
        "sim.loop_self_s": self_s(profiled, "experiment.orchestrate"),
        "net.transmission_self_s": self_s(profiled, "medium.transmission"),
        "net.broadcast_self_s": self_s(profiled, "medium.broadcast"),
        "net.frames": section(profiled, "medium.broadcast")[1],
        "net.receptions_per_frame":
            receptions / max(1, sum(job["frames_sent"] for job in jobs)),
        "net.intact_ratio":
            sum(job["intact"] for job in jobs) / max(1, receptions),
        "protocol.heartbeat_self_s": self_s(profiled, "frugal.heartbeat"),
        "protocol.heartbeats": section(profiled, "frugal.heartbeat")[1],
        "protocol.retrieve_self_s": self_s(profiled, "frugal.retrieve"),
        "protocol.event_ids_self_s": self_s(profiled, "frugal.event_ids"),
        "protocol.ngc_self_s": self_s(profiled, "frugal.ngc"),
        "protocol.bundle_self_s": self_s(profiled, "frugal.bundle"),
        "telemetry.ingest_self_s": self_s(attached, "telemetry.ingest"),
        "telemetry.flush_self_s": self_s(attached, "telemetry.flush"),
        "telemetry.observer_overhead_frac":
            attached["wall_s"] / detached["wall_s"] - 1.0,
        "trace.overhead_frac": profiled["wall_s"] / plain["wall_s"] - 1.0,
    }
    metrics.update(raw["replay"])
    return metrics, attempted, failed


def metric_units(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace):
    """Returns the result object of one run, printed as the last line."""
    gate_base = GATE_BASES[seed % 2]
    units = metric_units(trace)
    binary = "perfbench_traced" if trace else "perfbench_timed"
    raw = run_binary(binary, workload, seed, gate_base, seconds)
    if raw is None:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if trace:
        values, attempted, failed = traced_metrics(workload, raw, gate_base)
    else:
        values, attempted, failed = timed_metrics(
            workload, raw, seed, gate_base)
    missing = set(units) - set(values)
    if missing:
        fail(f"no value for {sorted(missing)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def write_expected():
    EXPECTED.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        for base in GATE_BASES:
            raw = run_binary("perfbench_timed", workload, base, base, 0.001)
            if raw is None:
                fail(f"{workload} failed")
            gate = raw["gate"]
            record = {
                "workload": workload,
                "seed_base": base,
                "csv": gate["csv"],
                "jobs": [{k: job[k] for k in (
                    "metrics", "tasks", "frames", "deliveries",
                    "gc_evictions")} for job in gate["jobs"]],
            }
            path = expected_path(workload, base)
            path.write_text(json.dumps(record, indent=1) + "\n")
            print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)


def report(seed, seconds):
    """Every workload, timed and traced, as one table; the last line is the
    combined result."""
    attempted = failed = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, seed, seconds, trace)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                print(f"{workload:16} {name:34} {metric['value']:>16.6g} "
                      f"{metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return failed == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not args.write_expected and args.workload is None:
        fail("--workload is required")
    build()
    if args.write_expected:
        write_expected()
        return 0
    if args.workload == "all":
        return 0 if report(args.seed, args.seconds) else 1
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
