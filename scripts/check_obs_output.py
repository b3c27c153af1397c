#!/usr/bin/env python3
"""Schema checks for the observability outputs of flowercdn-sim.

Validates that

  * a --trace-out file is well-formed Chrome trace-event JSON that
    chrome://tracing / Perfetto will accept (object form, "traceEvents"
    list, complete events with integer ts/dur) — both the simulator's
    single-process export (pid 1) and a cluster rank's export (pid
    rank+1, may carry zero-duration "remote" spans tagged with a
    trace_id), and
  * a --json-out file follows the flowercdn-runner/v6 schema, in
    particular the per-trial "overhead", "overlay" and "chaos" sections
    and the per-cell "replication" label (v4 added the "nack" traffic
    family; v5 added the replication cell key and a null — never
    fake-zero — aggregate replacement latency when no kill was ever
    replaced, and later the "refused" traffic family; v6 dropped the
    "wire_mode" cell key: bytes are always encoded lengths, so a cell
    carrying the key is rejected); every counter's per-bucket series sums to
    its total, and a Flower-CDN cell's
    aggregate dir_failures_detected / promotions_triggered are the trial
    statistics of the flower.dir_failures_detected / flower.promotions
    counter totals, and
  * a /metrics scrape is Prometheus text exposition carrying the
    promised flowercdn_* families; given two scrapes of the same rank,
    every counter must be monotone between them.

  * a BENCH_kernel.json from bench/kernel_throughput follows the
    flowercdn-kernel-bench/v2 schema: the run envelope (date, commit,
    nproc, cpu, build_type, command), ladder-queue rows with positive
    throughput everywhere, and a positive heap_bytes_per_session and
    events_pending_peak per trial.

  * with --max-events-over-median FACTOR, no trial of a runner JSON cell
    retires more than FACTOR times the median events_processed of the
    cell's trials (the seed soak's runaway-storm bound).

  * with --same-node-stats A B, two flowercdn-node --stats-out files of
    the same in-process run agree on every field the simulated schedule
    decides: the "network" block, hosted_peers, hosted_directories and
    sim_time_ms. Wall-clock, event-loop and interval fields are ignored.

Usage:
  check_obs_output.py --trace trace.json --runner out.json [--chaos]
      [--max-events-over-median FACTOR]
  check_obs_output.py --metrics scrape1.txt [scrape2.txt]
  check_obs_output.py --bench-kernel BENCH_kernel.json
  check_obs_output.py --same-node-stats a.json b.json
Either file argument may be given alone. --chaos additionally requires
at least one trial to carry an enabled chaos section (use it when the
run was driven by a --chaos scenario). Exits non-zero on the first
problem. Stdlib only — runs anywhere CI has a python3.
"""

import argparse
import json
import statistics
import sys

TRAFFIC_FAMILIES = ("chord", "gossip", "flower", "squirrel", "nack",
                    "refused", "other", "dropped", "injected_loss")
PHASE_NAMES = ("dring_resolve", "dir_query", "summary_probe", "fetch",
               "origin")


def fail(msg):
    print(f"check_obs_output: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    require(isinstance(doc, dict), "trace: top level must be an object")
    events = doc.get("traceEvents")
    require(isinstance(events, list), 'trace: missing "traceEvents" list')
    require(len(events) > 0, "trace: no events at all")

    n_complete = 0
    n_meta = 0
    pids = set()
    for i, ev in enumerate(events):
        require(isinstance(ev, dict), f"trace: event {i} is not an object")
        ph = ev.get("ph")
        require(ph in ("X", "M"), f"trace: event {i} has ph={ph!r}")
        # pid 1 is the simulator; a cluster rank exports as pid rank+1.
        require(isinstance(ev.get("pid"), int) and ev["pid"] >= 1,
                f"trace: event {i} pid must be a positive integer")
        pids.add(ev["pid"])
        if ph == "M":
            n_meta += 1
            continue
        n_complete += 1
        for key in ("name", "ts", "dur", "tid", "args"):
            require(key in ev, f"trace: event {i} lacks {key!r}")
        require(isinstance(ev["ts"], int) and ev["ts"] >= 0,
                f"trace: event {i} ts must be a non-negative integer")
        require(isinstance(ev["dur"], int) and ev["dur"] >= 0,
                f"trace: event {i} dur must be a non-negative integer")
        if ev.get("cat") == "remote":
            # A foreign-rank message arrival: instantaneous, identified by
            # the cross-rank trace id rather than a local query id.
            require(ev["dur"] == 0, f"trace: event {i} remote span has dur")
            for key in ("src", "trace_id"):
                require(key in ev["args"],
                        f"trace: remote event {i} args lack {key!r}")
            continue
        require("query" in ev["args"],
                f"trace: event {i} args lack the query id")
        if ev.get("cat") == "phase":
            require(ev["name"] in PHASE_NAMES,
                    f"trace: event {i} has unknown phase {ev['name']!r}")
    require(len(pids) >= 1, "trace: no pids")

    require(n_meta >= 1, "trace: expected a process_name metadata event")
    require(n_complete >= 1, "trace: expected at least one complete event")
    print(f"check_obs_output: trace OK "
          f"({n_complete} events, {n_meta} metadata)")


def check_dist(d, where):
    require(isinstance(d, dict), f"runner: {where} is not an object")
    for key in ("count", "min", "mean", "max", "p95"):
        require(key in d, f"runner: {where} lacks {key!r}")


def check_chaos(trial, where):
    """Validates the always-present v3 "chaos" section. Returns True when
    the trial ran with an enabled scenario."""
    chaos = trial.get("chaos")
    require(isinstance(chaos, dict), f'runner: {where} lacks "chaos"')
    require(isinstance(chaos.get("enabled"), bool),
            f"runner: {where} chaos.enabled must be a bool")
    if not chaos["enabled"]:
        require(set(chaos) == {"enabled"},
                f"runner: {where} fault-free chaos section must hold only "
                f'"enabled"')
        return False

    require(isinstance(chaos.get("scenario"), str),
            f"runner: {where} chaos lacks the scenario name")
    require(isinstance(chaos.get("actions_executed"), int) and
            chaos["actions_executed"] >= 0,
            f"runner: {where} chaos.actions_executed malformed")
    faults = chaos.get("faults")
    require(isinstance(faults, dict), f'runner: {where} chaos lacks "faults"')
    for key in ("loss_drops", "partition_drops", "delayed", "dup_copies"):
        require(isinstance(faults.get(key), int) and faults[key] >= 0,
                f"runner: {where} chaos.faults.{key} malformed")

    kills = chaos.get("directory_kills")
    require(isinstance(kills, list),
            f'runner: {where} chaos lacks "directory_kills"')
    for ki, kill in enumerate(kills):
        for key in ("website", "locality", "t_ms", "had_directory",
                    "replacement_latency_ms"):
            require(key in kill,
                    f"runner: {where} chaos kill {ki} lacks {key!r}")
        require(kill["replacement_latency_ms"] >= -1,
                f"runner: {where} chaos kill {ki}: replacement latency "
                f"must be >= -1 (-1 = never replaced)")

    partitions = chaos.get("partitions")
    require(isinstance(partitions, list),
            f'runner: {where} chaos lacks "partitions"')
    for pi, p in enumerate(partitions):
        for key in ("loc_a", "loc_b", "start_ms", "end_ms",
                    "queries_during", "hits_during", "success_during",
                    "queries_after", "hits_after", "success_after"):
            require(key in p,
                    f"runner: {where} chaos partition {pi} lacks {key!r}")
        require(p["end_ms"] >= p["start_ms"],
                f"runner: {where} chaos partition {pi}: end before start")
        for key in ("success_during", "success_after"):
            require(0.0 <= p[key] <= 1.0,
                    f"runner: {where} chaos partition {pi}: {key} "
                    f"outside [0, 1]")

    hr = chaos.get("hit_ratio")
    require(isinstance(hr, dict), f'runner: {where} chaos lacks "hit_ratio"')
    for key in ("baseline", "dip_min", "dip_min_t_ms", "recovery_ms"):
        require(key in hr, f"runner: {where} chaos.hit_ratio lacks {key!r}")
    require(hr["dip_min"] <= hr["baseline"],
            f"runner: {where} chaos.hit_ratio dip_min above baseline")
    return True


def check_trial(trial, where):
    # v4 kernel accounting: every trial reports how many events the
    # scheduler retired and how many cancellations it absorbed, and (v6)
    # the most event nodes it held at once.
    for key in ("events_processed", "events_cancelled", "events_pending_peak"):
        require(isinstance(trial.get(key), int) and trial[key] >= 0,
                f"runner: {where} {key} must be a non-negative int")
    require(trial["events_processed"] > 0,
            f"runner: {where} trial retired no events at all")
    require(trial["events_pending_peak"] > 0,
            f"runner: {where} trial never held a pending event")

    overhead = trial.get("overhead")
    require(isinstance(overhead, dict), f'runner: {where} lacks "overhead"')
    require(isinstance(overhead.get("bucket_ms"), int) and
            overhead["bucket_ms"] > 0,
            f"runner: {where} overhead.bucket_ms must be a positive int")
    families = overhead.get("families")
    require(isinstance(families, dict),
            f'runner: {where} overhead lacks "families"')
    for fam in TRAFFIC_FAMILIES:
        f = families.get(fam)
        require(isinstance(f, dict),
                f"runner: {where} overhead.families lacks {fam!r}")
        for key in ("messages", "bytes", "messages_per_bucket",
                    "bytes_per_bucket"):
            require(key in f, f"runner: {where} family {fam} lacks {key!r}")
        require(sum(f["bytes_per_bucket"]) == f["bytes"],
                f"runner: {where} family {fam}: per-bucket bytes do not sum "
                f"to the total")
    require(isinstance(overhead.get("rpc_cancelled"), int) and
            overhead["rpc_cancelled"] >= 0,
            f"runner: {where} overhead.rpc_cancelled must be a "
            f"non-negative int")
    counters = overhead.get("counters")
    require(isinstance(counters, list),
            f'runner: {where} overhead lacks "counters"')
    for c in counters:
        require(set(c) >= {"name", "total", "per_bucket"},
                f"runner: {where} counter entry malformed: {c}")
        require(sum(c["per_bucket"]) == c["total"],
                f"runner: {where} counter {c['name']}: per-bucket counts "
                f"do not sum to the total")

    overlay = trial.get("overlay")
    require(isinstance(overlay, list), f'runner: {where} lacks "overlay"')
    last_t = 0
    for s in overlay:
        for key in ("t_ms", "alive", "clients", "content_peers",
                    "directories", "max_instance"):
            require(key in s, f"runner: {where} overlay sample lacks {key!r}")
        require(s["t_ms"] > last_t,
                f"runner: {where} overlay times must be increasing")
        last_t = s["t_ms"]
        check_dist(s["dir_load"], f"{where} overlay dir_load")
        check_dist(s["petal_size"], f"{where} overlay petal_size")

    return check_chaos(trial, where)


# Flower-CDN aggregate metric -> the stats-registry counter it is read from.
FLOWER_COUNTER_METRICS = {
    "dir_failures_detected": "flower.dir_failures_detected",
    "promotions_triggered": "flower.promotions",
}


def check_counter_aggregates(cell, trials, where):
    """The aggregate protocol counts are the trial mean, min and max of the
    registry counters they are read from (an absent counter counts 0)."""
    metrics = cell["aggregate"]["metrics"]
    for metric, counter in FLOWER_COUNTER_METRICS.items():
        totals = []
        for trial in trials:
            by_name = {c["name"]: c["total"]
                       for c in trial["overhead"]["counters"]}
            totals.append(by_name.get(counter, 0))
        summary = metrics[metric]
        mean = sum(totals) / len(totals)
        require(abs(summary["mean"] - mean) <= 1e-9 * max(1.0, abs(mean)) and
                summary["min"] == min(totals) and
                summary["max"] == max(totals),
                f"runner: {where} aggregate {metric} "
                f"(mean {summary['mean']}, min {summary['min']}, "
                f"max {summary['max']}) does not match the {counter} "
                f"totals {totals}")


def check_event_bound(cells, factor):
    """No trial retires more than `factor` times the median event count of
    its cell's trials: a trial far above its siblings has run away into a
    message storm even if it finished."""
    for ci, cell in enumerate(cells):
        events = [t["events_processed"] for t in cell.get("trial_results", [])]
        if not events:
            continue
        median = statistics.median(events)
        for ti, n in enumerate(events):
            require(n <= factor * median,
                    f"runner: cell {ci} trial {ti} retired {n} events, "
                    f"above {factor:g} x the cell median {median:g}")
        print(f"check_obs_output: cell {ci} events within {factor:g} x "
              f"median {median:g} (max {max(events)}, "
              f"{len(events)} trials)")


def check_runner(path, expect_chaos=False, max_events_over_median=None):
    with open(path) as f:
        doc = json.load(f)
    require(doc.get("schema") == "flowercdn-runner/v6",
            f"runner: schema is {doc.get('schema')!r}, "
            f"want flowercdn-runner/v6")
    cells = doc.get("cells")
    require(isinstance(cells, list) and cells, "runner: no cells")
    n_trials = 0
    n_chaos = 0
    for ci, cell in enumerate(cells):
        require(isinstance(cell.get("scenario"), str),
                f'runner: cell {ci} lacks the "scenario" label')
        require("wire_mode" not in cell,
                f'runner: cell {ci} carries the pre-v6 "wire_mode" key')
        require(isinstance(cell.get("replication"), int) and
                cell["replication"] >= 1,
                f'runner: cell {ci} "replication" must be an int >= 1, '
                f"got {cell.get('replication')!r}")
        agg_chaos = cell["aggregate"].get("chaos")
        if agg_chaos is not None:
            # v5: null means "no kill was ever replaced"; a summary object
            # means at least one trial observed a real replacement.
            lat = agg_chaos.get("replacement_latency_ms", "missing")
            require(lat is None or
                    (isinstance(lat, dict) and lat.get("n", 0) >= 1),
                    f"runner: cell {ci} aggregate replacement_latency_ms "
                    f"must be null or a summary with n >= 1, got {lat!r}")
            # The mean averages replaced kills only; the counts beside it
            # say how many kills of a live directory never recovered.
            counts = {}
            for key in ("kills_replaced", "kills_unreplaced"):
                counts[key] = agg_chaos.get(key)
                require(isinstance(counts[key], int) and counts[key] >= 0,
                        f"runner: cell {ci} aggregate chaos.{key} must be "
                        f"an int >= 0, got {counts[key]!r}")
            require((lat is None) == (counts["kills_replaced"] == 0),
                    f"runner: cell {ci} aggregate replacement_latency_ms is "
                    f"{lat!r} but kills_replaced is "
                    f"{counts['kills_replaced']}")
            trials = cell.get("trial_results", [])
            if trials:
                kills = [k for t in trials
                         for k in t["chaos"].get("directory_kills", [])
                         if k["had_directory"]]
                replaced = sum(k["replacement_latency_ms"] >= 0
                               for k in kills)
                require(counts["kills_replaced"] == replaced and
                        counts["kills_unreplaced"] == len(kills) - replaced,
                        f"runner: cell {ci} aggregate kill counts "
                        f"{counts} disagree with the trials' "
                        f"{replaced} of {len(kills)} replaced")
        for hist in ("lookup_all", "lookup_hits"):
            h = cell["aggregate"]["histograms"][hist]
            require("p99" in h, f"runner: cell {ci} {hist} lacks p99")
        trials = cell.get("trial_results", [])
        if cell.get("system") == "Flower-CDN" and trials:
            check_counter_aggregates(cell, trials, f"cell {ci}")
        for ti, trial in enumerate(trials):
            chaotic = check_trial(trial, f"cell {ci} trial {ti}")
            # A labelled cell must run its scenario; the converse is not
            # required (a --chaos file may leave "name" empty).
            require(chaotic or not cell["scenario"],
                    f"runner: cell {ci} trial {ti}: scenario label set "
                    f"but chaos.enabled is false")
            n_trials += 1
            n_chaos += chaotic
    require(n_trials > 0,
            "runner: no trial_results (run without --json-aggregate-only)")
    if expect_chaos:
        require(n_chaos > 0,
                "runner: --chaos given but no trial ran with a scenario")
    if max_events_over_median is not None:
        check_event_bound(cells, max_events_over_median)
    print(f"check_obs_output: runner OK "
          f"({len(cells)} cells, {n_trials} trials, {n_chaos} with chaos)")


def check_kernel(path):
    """Validates BENCH_kernel.json (schema flowercdn-kernel-bench/v2, written
    by bench/kernel_throughput --json-out)."""
    with open(path) as f:
        doc = json.load(f)
    require(doc.get("schema") == "flowercdn-kernel-bench/v2",
            f"kernel: schema is {doc.get('schema')!r}, "
            f"want flowercdn-kernel-bench/v2")
    for key in ("date", "commit", "cpu", "build_type", "command"):
        require(isinstance(doc.get(key), str) and doc[key],
                f"kernel: envelope lacks {key!r}")
    require(isinstance(doc.get("nproc"), int) and doc["nproc"] > 0,
            "kernel: envelope lacks a positive 'nproc'")
    micro = doc.get("micro")
    require(isinstance(micro, list) and micro, 'kernel: no "micro" entries')
    for i, m in enumerate(micro):
        require(m.get("kernel") == "ladder",
                f"kernel: micro {i} has kernel {m.get('kernel')!r}")
        for key in ("pattern", "timers", "events", "wall_seconds",
                    "events_per_sec"):
            require(key in m, f"kernel: micro {i} lacks {key!r}")
        require(m["events"] > 0 and m["events_per_sec"] > 0,
                f"kernel: micro {i} measured no throughput")

    trials = doc.get("trials")
    require(isinstance(trials, list) and trials, 'kernel: no "trials"')
    for i, t in enumerate(trials):
        require(t.get("kernel") == "ladder",
                f"kernel: trial {i} has kernel {t.get('kernel')!r}")
        for key in ("population", "simulated_hours", "wall_seconds",
                    "seconds_per_trial", "events_processed",
                    "events_cancelled", "events_pending_peak",
                    "events_per_wall_second", "heap_bytes_per_session"):
            require(key in t, f"kernel: trial {i} lacks {key!r}")
        require(t["population"] > 0 and t["simulated_hours"] > 0,
                f"kernel: trial {i} workload malformed")
        require(t["events_processed"] > 0 and
                t["events_per_wall_second"] > 0,
                f"kernel: trial {i} measured no throughput")
        require(t["heap_bytes_per_session"] > 0,
                f"kernel: trial {i} measured no heap per session")
        require(t["events_pending_peak"] > 0,
                f"kernel: trial {i} reports no pending-event peak")
    print(f"check_obs_output: kernel OK ({len(micro)} micro entries, "
          f"{len(trials)} trials)")


# Families every live node's /metrics must always expose, traffic or not
# (NodeHost::RenderMetrics touches them so scrapes are schema-stable).
REQUIRED_METRIC_FAMILIES = (
    ("flowercdn_net_gateway_requests", "counter"),
    ("flowercdn_net_gateway_responses", "counter"),
    ("flowercdn_net_admin_requests", "counter"),
    ("flowercdn_net_host_hosted_peers", "gauge"),
    ("flowercdn_eventloop_polls", "counter"),
)
# Summaries: expected as quantile samples plus _sum and _count.
REQUIRED_METRIC_SUMMARIES = (
    "flowercdn_eventloop_poll_wait_seconds",
    "flowercdn_eventloop_callback_seconds",
)


def parse_exposition(path):
    """Returns ({metric_name: float_value}, {family: type})."""
    samples = {}
    types = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# TYPE "):
                parts = line.split()
                require(len(parts) == 4,
                        f"{path}:{lineno}: malformed TYPE line")
                types[parts[2]] = parts[3]
                continue
            if line.startswith("#"):
                continue
            # "<name>[{labels}] <value>"
            sp = line.rfind(" ")
            require(sp > 0, f"{path}:{lineno}: malformed sample line")
            name, value = line[:sp], line[sp + 1:]
            try:
                samples[name] = float(value)
            except ValueError:
                fail(f"{path}:{lineno}: non-numeric value {value!r}")
    require(samples, f"{path}: no samples at all")
    return samples, types


def check_metrics(paths):
    first, first_types = parse_exposition(paths[0])
    for family, kind in REQUIRED_METRIC_FAMILIES:
        require(first_types.get(family) == kind,
                f"metrics: family {family} missing or not a {kind}")
        require(family in first, f"metrics: no sample for {family}")
    for family in REQUIRED_METRIC_SUMMARIES:
        require(first_types.get(family) == "summary",
                f"metrics: family {family} missing or not a summary")
        for suffix in ("_sum", "_count"):
            require(family + suffix in first,
                    f"metrics: {family}{suffix} missing")
        require(family + '{quantile="0.99"}' in first,
                f"metrics: {family} lacks the 0.99 quantile sample")

    if len(paths) > 1:
        second, second_types = parse_exposition(paths[1])
        counters = {name for name, kind in second_types.items()
                    if kind == "counter"}
        checked = 0
        for name, value in first.items():
            family = name.split("{")[0]
            is_counter = family in counters
            is_summary_total = (second_types.get(
                family.rsplit("_", 1)[0]) == "summary" and
                (family.endswith("_sum") or family.endswith("_count")))
            if not (is_counter or is_summary_total):
                continue
            require(name in second,
                    f"metrics: {name} present in scrape 1 but not 2")
            require(second[name] >= value,
                    f"metrics: {name} went backwards "
                    f"({value} -> {second[name]})")
            checked += 1
        require(checked > 0, "metrics: no counters to compare")
        print(f"check_obs_output: metrics OK ({len(first)} samples, "
              f"{checked} counters monotone across 2 scrapes)")
    else:
        print(f"check_obs_output: metrics OK ({len(first)} samples)")


# Node stats fields fixed by the simulated schedule of an in-process run.
NODE_DETERMINISTIC_FIELDS = ("network", "hosted_peers", "hosted_directories",
                             "sim_time_ms")


def check_same_node_stats(paths):
    docs = []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for field in NODE_DETERMINISTIC_FIELDS:
            require(field in doc, f"{path}: missing {field}")
        require(doc["network"].get("messages_sent", 0) > 0,
                f"{path}: the run sent no messages")
        docs.append(doc)
    first, second = docs
    for field in NODE_DETERMINISTIC_FIELDS:
        require(first[field] == second[field],
                f"node stats: {field} differs between {paths[0]} "
                f"({first[field]}) and {paths[1]} ({second[field]})")
    print(f"check_obs_output: node stats OK ({paths[0]} and {paths[1]} "
          f"agree on {', '.join(NODE_DETERMINISTIC_FIELDS)})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="Chrome trace JSON from --trace-out")
    parser.add_argument("--runner", help="runner JSON from --json-out")
    parser.add_argument("--chaos", action="store_true",
                        help="require at least one chaos-enabled trial")
    parser.add_argument("--max-events-over-median", type=float,
                        metavar="FACTOR",
                        help="fail when a trial's events_processed exceeds "
                             "FACTOR x the median of its cell's trials")
    parser.add_argument("--metrics", nargs="+", metavar="SCRAPE",
                        help="one or two /metrics scrapes of the same rank "
                             "(two: counters must be monotone)")
    parser.add_argument("--bench-kernel",
                        help="BENCH_kernel.json from bench/kernel_throughput")
    parser.add_argument("--same-node-stats", nargs=2, metavar="STATS",
                        help="two flowercdn-node --stats-out files that "
                             "must agree on their deterministic fields")
    args = parser.parse_args()
    if not args.trace and not args.runner and not args.metrics \
            and not args.bench_kernel and not args.same_node_stats:
        parser.error("give --trace, --runner, --metrics, --bench-kernel "
                     "and/or --same-node-stats")
    if args.chaos and not args.runner:
        parser.error("--chaos needs --runner")
    if args.max_events_over_median is not None:
        if not args.runner:
            parser.error("--max-events-over-median needs --runner")
        if args.max_events_over_median <= 0:
            parser.error("--max-events-over-median must be positive")
    if args.trace:
        check_trace(args.trace)
    if args.runner:
        check_runner(args.runner, expect_chaos=args.chaos,
                     max_events_over_median=args.max_events_over_median)
    if args.metrics:
        check_metrics(args.metrics)
    if args.bench_kernel:
        check_kernel(args.bench_kernel)
    if args.same_node_stats:
        check_same_node_stats(args.same_node_stats)


if __name__ == "__main__":
    main()
