#!/usr/bin/env python3
"""The repository benchmark; BENCHMARK.json at the repository root names it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the library sources and
the benchmark's programs (perfbench/CMakeLists.txt) into .bench_build (or
$CARGO_TARGET_DIR); later runs only re-check the build. Each run is a fresh
process, so peak_rss_mb belongs to its workload alone.

Workloads (perfbench-sim, built from perfbench/sim_bench.cc):
  flower-2k-24h   the paper's Table 1 Flower-CDN trial
  flower-100k-1h  the same config at 100k peers for one simulated hour

--trace 0 prints every end-to-end metric; --trace 1 runs the separate
traced run and prints every per-layer metric, each with the end-to-end
metric it should move (trace.overhead_s compares it with the same trial
run untraced in another process). The last stdout line is the result
object; the line before it is the machine envelope. Exits non-zero when an
output check fails.

End-to-end metrics. Each set-up and each trial is its own perfbench-sim
process; the set-ups run one at a time, then the trials JOBS at a time, as
flowercdn-sim --jobs=JOBS runs them:
  setup_s      fastest ExperimentEnv + FlowerSystem::Setup, 21 in each of
               SETUP_PROCESSES processes
  trial_s      wall time of a usual trial (the calls RunExperiment makes)
               with the host's slow spells taken out: each trial is timed
               in 48 equal stretches of simulated time, and for each
               stretch the trials' median event count is priced at the
               least wall time per event any of the run's trials took
               there. The trial count comes from --seconds (PLAN), never
               from the wall clock: at --seconds 45, 9 trials of
               flower-2k-24h, 10 of flower-100k-1h. Each trial's stretches
               are written to .bench_out/trials-<workload>-<seed>.json
  peak_rss_mb  the trial processes' VmHWM, median
  hit_ratio, lookup_ms  the trials' simulated figures (Fig. 4), median

The trials are trials 0, 1, ... of flowercdn-sim --seed=N --trials=K. Program
bugs make a few trials untimeable: the simulator aborts on a failed
ChordNode::Join state check (flowercdn-sim --population=2000 --hours=24
--seed=31), and a trial can run away into a storm of events (trial 0 of
--seed=34 at 100k peers) or hang (trial 5 of --seed=42 at 100k peers);
perfbench-sim stops a trial at its workload's event cap, and run.py kills
one that runs for TRIAL_TIMEOUT_S. Such a trial is skipped for the next
one, and the envelope lists it.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

HERE = os.path.dirname(os.path.abspath(__file__))

BUILD_TYPE = "Release"
TARGET = "perfbench_sim"

# Workload -> wall seconds a trial takes on a 4-core x86 host. A run makes
# --seconds * JOBS / that many trials. A trial's event count varies by
# about 10% from trial to trial, so a run times many distinct trials. The
# host's speed drifts (a stretch of a trial takes up to 1.5x longer for
# seconds to minutes at a time as its other tenants come and go);
# trial_seconds filters out the spells shorter than a run.
PLAN = {"flower-2k-24h": 10.0, "flower-100k-1h": 8.5}
WORKLOADS = tuple(PLAN)
# Trials at once; two share a 4-core host without slowing each other down.
JOBS = 2
SETUP_PROCESSES = 6
MAX_SKIPPED = 6
# Several times the longest trial, runaways stopped at their event cap
# included; a trial still running then has hung (trial 5 of --seed=42 at
# 100k peers spins for minutes at a flat RSS) and is killed and skipped.
TRIAL_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s", "trial_s": "s", "peak_rss_mb": "MB", "hit_ratio": "ratio",
    "lookup_ms": "ms",
}

SIM = "flower-2k-24h, flower-100k-1h"
# Per-layer metric -> (unit, the end-to-end metric it should move and where).
PER_LAYER = {
    "simcore.events": ("count", f"trial_s on {SIM}"),
    "simcore.events_cancelled": ("count", f"trial_s on {SIM}"),
    "simcore.events_per_s": ("1/s", "trial_s, most on flower-100k-1h"),
    "sim.messages": ("count", f"trial_s on {SIM}"),
    "sim.bytes": ("B", f"trial_s on {SIM}"),
    "sim.dropped": ("count", f"trial_s on {SIM}"),
    "sim.nacks": ("count", f"trial_s on {SIM}"),
    "sim.rpc_cancelled": ("count", f"trial_s on {SIM}"),
    "chord.stabilize.msgs": ("count", f"trial_s on {SIM}"),
    "chord.stabilize.bytes": ("B", f"trial_s on {SIM}"),
    "chord.lookup.msgs": ("count", f"trial_s on {SIM}"),
    "chord.lookup.bytes": ("B", f"trial_s on {SIM}"),
    "chord.model_ratio": ("ratio", f"trial_s on {SIM}"),
    "chord.hops_p50": ("count", f"lookup_ms on {SIM}"),
    "flower.gossip.msgs": ("count", f"trial_s on {SIM}"),
    "flower.keepalive.msgs": ("count", f"trial_s on {SIM}"),
    "flower.push.msgs": ("count", f"trial_s on {SIM}"),
    "flower.query.msgs": ("count", f"trial_s on {SIM}"),
    "flower.replica.msgs": ("count", f"trial_s on {SIM}"),
    "flower.promote.msgs": ("count", f"trial_s on {SIM}"),
    "flower.model_ratio": ("ratio", f"trial_s on {SIM}"),
    "flower.queries": ("count", f"hit_ratio, lookup_ms on {SIM}"),
    "flower.summary_hits": ("count", f"hit_ratio, lookup_ms on {SIM}"),
    "flower.dir_query_timeouts": ("count", f"hit_ratio, lookup_ms on {SIM}"),
    "flower.dring_resolve_failures": ("count",
                                      f"hit_ratio, lookup_ms on {SIM}"),
    "flower.promotions": ("count", "hit_ratio, lookup_ms; trial_s on "
                                   "flower-100k-1h"),
    "flower.live_directories": ("count", f"hit_ratio, lookup_ms on {SIM}"),
    "flower.phase.dring_resolve_ms": ("ms", f"lookup_ms on {SIM}"),
    "flower.phase.dir_query_ms": ("ms", f"lookup_ms on {SIM}"),
    "flower.phase.summary_probe_ms": ("ms", f"lookup_ms on {SIM}"),
    "flower.phase.fetch_ms": ("ms", f"lookup_ms on {SIM}"),
    "storage.objects_per_peer": ("count", "peak_rss_mb on flower-100k-1h"),
    "expt.setup_env_s": ("s", f"setup_s on {SIM}"),
    "expt.setup_system_s": ("s", f"setup_s on {SIM}"),
    "expt.rss_after_setup_mb": ("MB", "peak_rss_mb on flower-100k-1h"),
    "expt.bytes_per_peer": ("B", "peak_rss_mb on flower-100k-1h"),
    "wire.encode_ns": ("ns", "none here: the sims never encode"),
    "wire.decode_ns": ("ns", "none here: the sims never encode"),
    "wire.bytes_per_msg": ("B", "none here: the sims never encode"),
    "trace.overhead_s": ("s", "none: traced minus untraced trial time"),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Configures and builds the programs; returns the build directory."""
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j4", "--target", TARGET],
                   check=True, stdout=sys.stderr)
    return build_dir


def envelope(root, args):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {"nproc": os.cpu_count(), "cpu": cpu, "build_type": BUILD_TYPE,
            "commit": commit, "command": [sys.executable] + sys.argv,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


class Skipped(Exception):
    """A trial that cannot be timed: the simulator aborted on a failed
    internal check, the trial ran away past its event cap, or it hung."""


def sim(build_dir, *args, timeout=None):
    """Runs perfbench-sim once; returns its result object."""
    cmd = [os.path.join(build_dir, "perfbench-sim"), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise Skipped(f"the trial hung: no result after {timeout:.0f} s") \
            from e
    if proc.returncode < 0 and "[FATAL" in proc.stderr:
        raise Skipped("the simulator aborted: " +
                      proc.stderr.strip().splitlines()[-1])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(args)} printed nothing: "
                           f"{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if result["runaway"]:
        raise Skipped("the trial ran away past its event cap")
    if proc.returncode != 0 and not result["notes"]:
        result["notes"] = [f"perfbench-sim exited {proc.returncode}"]
    return result


def run_trials(build_dir, base, count, skipped):
    """Runs trials 0, 1, ... JOBS at a time until `count` complete; a skipped
    trial is replaced by the next one. Returns the results by trial index,
    in index order."""
    results, pending, index = {}, {}, 0
    with ThreadPoolExecutor(JOBS) as pool:
        while len(results) < count:
            while len(results) + len(pending) < count:
                future = pool.submit(sim, build_dir, *base,
                                     f"--trial={index}",
                                     timeout=TRIAL_TIMEOUT_S)
                pending[future] = index
                index += 1
            finished, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in finished:
                i = pending.pop(future)
                try:
                    results[i] = future.result()
                    m = results[i]["metrics"]
                    log(f"trial {i}: counter digest {results[i]['digest']}, "
                        f"{m['simcore.events']:.0f} events, "
                        f"{m['trial_s']:.3f} s")
                except Skipped as e:
                    log(f"trial {i} skipped, {e}")
                    skipped.append(i)
                    if len(skipped) > MAX_SKIPPED:
                        raise RuntimeError("too many trials skipped") from e
    return dict(sorted(results.items()))


def trial_seconds(trials):
    """The sum over the trials' stretches of simulated time of their median
    event count times the least wall time per event among them: other
    tenants of the host only ever slow a stretch down."""
    total = 0.0
    for seconds, events in zip(zip(*(t["segments_s"] for t in trials)),
                               zip(*(t["segment_events"] for t in trials))):
        total += statistics.median(events) * min(
            s / max(e, 1) for s, e in zip(seconds, events))
    return total


def run_untraced(build_dir, out_dir, base, seed, seconds, workload,
                 skipped):
    setups = [sim(build_dir, *base, "--setup")
              for _ in range(SETUP_PROCESSES)]
    count = max(1, int(seconds * JOBS // PLAN[workload]))
    trials = list(run_trials(build_dir, base, count, skipped).values())
    with open(os.path.join(out_dir, f"trials-{workload}-{seed}.json"),
              "w") as f:
        json.dump(trials, f)
    metrics = dict(min(setups, key=lambda s: s["metrics"]["setup_s"])
                   ["metrics"])
    metrics["trial_s"] = trial_seconds(trials)
    metrics.update({name: statistics.median(t["metrics"][name] for t in trials)
                    for name in ("peak_rss_mb", "hit_ratio", "lookup_ms")})
    processes = setups + trials
    notes = [n for p in processes for n in p["notes"]]
    return (metrics, sum(p["attempted"] for p in processes),
            sum(p["failed"] for p in processes), notes)


def run_traced(build_dir, out_dir, base, seed, workload, skipped):
    spans = os.path.join(out_dir, f"spans-{workload}-{seed}.json")
    [(index, untraced)] = run_trials(build_dir, base, 1, skipped).items()
    traced = sim(build_dir, *base, f"--trial={index}", "--trace=1",
                 f"--spans-out={spans}")
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_s"] = (metrics.pop("trace.traced_trial_s") -
                                   untraced["metrics"]["trial_s"])
    notes = traced["notes"] + untraced["notes"]
    if traced["digest"] != untraced["digest"]:
        notes.append("traced trial's counters differ from the untraced "
                     "trial's")
    return (metrics, traced["attempted"] + untraced["attempted"],
            traced["failed"] + untraced["failed"], notes)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log("perfbench: no flowercdn sources next to perfbench/; run from a "
            "full checkout")
        return 2
    build_dir = build(root)

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    base = [f"--workload={args.workload}", f"--seed={args.seed}"]
    skipped = []
    try:
        if args.trace:
            metrics, attempted, failed, notes = run_traced(
                build_dir, out_dir, base, args.seed, args.workload, skipped)
        else:
            metrics, attempted, failed, notes = run_untraced(
                build_dir, out_dir, base, args.seed, args.seconds,
                args.workload, skipped)
    except RuntimeError as e:
        log(f"perfbench: {e}")
        return 1

    if args.trace:
        names = {n: unit for n, (unit, _) in PER_LAYER.items()}
        print(f"{'metric':34} {'value':>18} {'unit':6} moves")
        for name, (unit, moves) in PER_LAYER.items():
            value = metrics.get(name)
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"{name:34} {shown:>18} {unit:6} {moves}")
    else:
        names = END_TO_END
    notes += [f"metric {n} was not measured" for n in names
              if n not in metrics]
    for note in notes:
        log(f"check failed: {note}")
    envelope_doc = envelope(root, args)
    envelope_doc["skipped_trials"] = skipped
    print(json.dumps({"envelope": envelope_doc}))
    print(json.dumps({
        "correct": not notes,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": float(metrics[n]), "unit": u}
                    for n, u in names.items() if n in metrics},
    }))
    return 0 if not notes else 1


if __name__ == "__main__":
    sys.exit(main())
