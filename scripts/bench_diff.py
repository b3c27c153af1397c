#!/usr/bin/env python3
"""Compares benchmark runs of a parent commit and a change, metric by metric.

    bench_diff.py PARENT CHANGE
    bench_diff.py --self-test

PARENT and CHANGE are each one of
  * a perfbench/run.py result line given inline (an argument starting
    with '{');
  * a file of run.py output: every line that is a result object counts
    (the envelope and other lines are skipped), so the stdout of several
    runs appended to one file makes one run per line;
  * a .bench_out/trials-<workload>-<seed>.json file of perfbench-sim
    trial results.
Run i of PARENT pairs with run i of CHANGE, so alternate the runs (parent,
change, parent, ...) to let each pair see the same host. Trials pair by
index, which is the same simulated trial at the same seed; their counter
digests are compared as well.

For every metric both sides report, prints the parent's and the change's
median with quartiles, the change in the median (absolute and relative),
how many pairs improved, and whether the median moved by more than the
interquartile range of the parent's runs. Which way is better comes from
BENCHMARK.json next to this script's parent directory ('?' for metrics it
does not list). Stdlib only.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_directions(path):
    """Metric name -> 'lower' or 'higher', from BENCHMARK.json."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer")
            for m in doc.get(key, []) if "better" in m}


def flatten(metrics):
    """run.py metrics ({name: {value, unit}}) or perfbench-sim metrics
    ({name: value}) -> ({name: value}, {name: unit})."""
    values, units = {}, {}
    for name, m in metrics.items():
        if isinstance(m, dict):
            values[name] = float(m["value"])
            units[name] = m.get("unit", "")
        else:
            values[name] = float(m)
    return values, units


def load_runs(arg):
    """Returns a list of runs, each (values, units, digest or None)."""
    if arg.lstrip().startswith("{"):
        docs = [json.loads(arg)]
    else:
        with open(arg) as f:
            text = f.read()
        try:
            whole = json.loads(text)
        except ValueError:
            whole = None
        if isinstance(whole, list):
            docs = whole
        elif isinstance(whole, dict):
            docs = [whole]
        else:
            docs = []
            for line in text.splitlines():
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    docs.append(json.loads(line))
                except ValueError:
                    continue
    runs = []
    for doc in docs:
        if not isinstance(doc, dict) or "metrics" not in doc:
            continue  # an envelope line
        values, units = flatten(doc["metrics"])
        runs.append((values, units, doc.get("digest")))
    if not runs:
        raise ValueError(f"{arg[:60]}: no perfbench result found")
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def compare(parent, change, directions):
    """Rows of (name, unit, parent stats, change stats, delta, relative,
    improved, pairs, beyond_iqr) for the metrics both sides report."""
    pairs = min(len(parent), len(change))
    parent, change = parent[:pairs], change[:pairs]
    names = [n for n in parent[0][0] if all(n in r[0] for r in parent) and
             all(n in r[0] for r in change)]
    rows = []
    for name in names:
        p = [r[0][name] for r in parent]
        c = [r[0][name] for r in change]
        unit = parent[0][1].get(name, "")
        pm, cm = statistics.median(p), statistics.median(c)
        pq, cq = quartiles(p), quartiles(c)
        delta = cm - pm
        relative = delta / pm if pm else None
        better = directions.get(name)
        if better == "lower":
            improved = sum(1 for a, b in zip(p, c) if b < a)
        elif better == "higher":
            improved = sum(1 for a, b in zip(p, c) if b > a)
        else:
            improved = None
        beyond = abs(delta) > pq[1] - pq[0]
        rows.append((name, unit, (pm, pq), (cm, cq), delta, relative,
                     improved, pairs, beyond))
    return rows


def digest_line(parent, change):
    pairs = [(a[2], b[2]) for a, b in zip(parent, change)
             if a[2] is not None and b[2] is not None]
    if not pairs:
        return None
    same = sum(1 for a, b in pairs if a == b)
    return f"counter digests: {same}/{len(pairs)} pairs identical"


def fmt(x):
    return f"{x:.6g}"


def render(rows):
    header = ("metric", "unit", "parent median [q1, q3]",
              "change median [q1, q3]", "delta", "delta %", "improved",
              "beyond IQR")
    table = [header]
    for (name, unit, (pm, pq), (cm, cq), delta, relative, improved, pairs,
         beyond) in rows:
        table.append((
            name, unit,
            f"{fmt(pm)} [{fmt(pq[0])}, {fmt(pq[1])}]",
            f"{fmt(cm)} [{fmt(cq[0])}, {fmt(cq[1])}]",
            f"{delta:+.6g}",
            "-" if relative is None else f"{100 * relative:+.1f}%",
            "?" if improved is None else f"{improved}/{pairs}",
            "yes" if beyond else "no"))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in
                               zip(row, widths)).rstrip()
                     for row in table)


def self_test():
    directions = {"trial_s": "lower", "hit_ratio": "higher"}
    parent = [({"trial_s": t, "hit_ratio": 0.4, "odd": 1.0}, {"trial_s": "s"},
               "aa") for t in (4.0, 4.2, 3.8, 4.1)]
    change = [({"trial_s": t, "hit_ratio": 0.4}, {"trial_s": "s"}, d)
              for t, d in ((3.0, "aa"), (3.1, "aa"), (4.5, "aa"),
                           (3.2, "bb"))]
    rows = {r[0]: r for r in compare(parent, change, directions)}
    assert set(rows) == {"trial_s", "hit_ratio"}, rows
    t = rows["trial_s"]
    assert abs(t[2][0] - 4.05) < 1e-9 and abs(t[3][0] - 3.15) < 1e-9, t
    assert t[6] == 3 and t[7] == 4 and t[8], t
    h = rows["hit_ratio"]
    assert h[4] == 0 and h[6] == 0 and not h[8], h
    assert digest_line(parent, change) == \
        "counter digests: 3/4 pairs identical"
    out = render(compare(parent, change, directions))
    assert "3/4" in out and "-22.2%" in out, out
    # Inputs: an inline result line, appended run.py output, trial lists.
    line = json.dumps({"correct": True, "metrics": {
        "trial_s": {"value": 3.5, "unit": "s"}}})
    assert load_runs(line)[0][0] == {"trial_s": 3.5}
    with tempfile.TemporaryDirectory() as d:
        out_path = os.path.join(d, "runs.txt")
        with open(out_path, "w") as f:
            for v in (1.0, 2.0):
                f.write(json.dumps({"envelope": {"seed": 1}}) + "\n")
                f.write(json.dumps({"metrics": {
                    "trial_s": {"value": v, "unit": "s"}}}) + "\n")
        runs = load_runs(out_path)
        assert [r[0]["trial_s"] for r in runs] == [1.0, 2.0], runs
        trials_path = os.path.join(d, "trials-w-1.json")
        with open(trials_path, "w") as f:
            json.dump([{"digest": "0f", "metrics": {"trial_s": 2.5}}], f)
        runs = load_runs(trials_path)
        assert runs == [({"trial_s": 2.5}, {}, "0f")], runs
        empty = os.path.join(d, "empty.txt")
        with open(empty, "w") as f:
            f.write(json.dumps({"envelope": {}}) + "\n")
        try:
            load_runs(empty)
        except ValueError:
            pass
        else:
            raise AssertionError("a file without results must be refused")
    print("bench_diff: self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"),
                        help="where the metrics' directions come from")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in checks and exit")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return 0
    if args.parent is None or args.change is None:
        parser.error("give PARENT and CHANGE")
    try:
        parent, change = load_runs(args.parent), load_runs(args.change)
    except (OSError, ValueError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 1
    if len(parent) != len(change):
        print(f"bench_diff: {len(parent)} parent runs, {len(change)} change "
              f"runs; pairing the first {min(len(parent), len(change))}",
              file=sys.stderr)
    print(render(compare(parent, change,
                         load_directions(args.benchmark))))
    digests = digest_line(parent, change)
    if digests:
        print(digests)
    return 0


if __name__ == "__main__":
    sys.exit(main())
