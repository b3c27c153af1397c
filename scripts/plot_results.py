#!/usr/bin/env python3
"""Plot flowercdn experiment results: runner JSON written by
`flowercdn-sim --json-out=FILE` (single trials, or multi-trial sweeps with
error bars). With --tables, print the results as text tables instead
(no matplotlib needed).

Usage:
    # Single runs:
    tools/flowercdn-sim --system=flower   --json-out=flower.json   [options]
    tools/flowercdn-sim --system=squirrel --json-out=squirrel.json [options]
    scripts/plot_results.py flower.json squirrel.json -o plots/

    # Multi-trial sweep, one JSON document, 95% CI bands:
    tools/flowercdn-sim --sweep='system=flower,squirrel;trials=8' \\
        --jobs=8 --json-out=sweep.json
    scripts/plot_results.py sweep.json -o plots/

    # Text tables for every cell of one or more runner documents:
    scripts/plot_results.py --tables sweep.json [more.json ...]

Every argument is a runner document ending in .json; every cell inside
becomes one labeled curve, error-barred when it aggregates >1 trial.

Produces the paper's three figures:
  fig3_hit_ratio.png          cumulative hit ratio per hour
  fig4_lookup_latency.png     lookup latency CDF (all queries)
  fig5_transfer_distance.png  transfer distance CDF (hits)

--tables prints four tables, one column per cell (prefixed with the file
stem when several documents are given):
  1. every aggregate metric and chaos metric as mean ±95% CI (the chaos
     kill counts as totals over trials), plus the trial mean of the
     flower.collaboration_hits counter;
  2. trial-mean messages and MB per traffic family, bytes per peer per
     second and messages per query;
  3. cumulative hit ratio per hour;
  4. lookup and transfer CDFs (all queries and hits, pooled over trials)
     at every bucket upper edge; the last row is the overflow bucket.
"""

import argparse
import json
import os
import sys


def histogram_cdf(hist):
    """Upper-edge CDF points from a runner JSON histogram (pooled counts;
    the trailing slot is the overflow bucket)."""
    counts = hist["counts"]
    total = hist["count"]
    width = hist["bucket_width"]
    edges, cdf, cum = [], [], 0
    if total == 0:
        return edges, cdf
    for i, c in enumerate(counts):
        cum += c
        edges.append(width * (i + 1))
        cdf.append(cum / total)
    return edges, cdf


def load_json_doc(path):
    with open(path) as f:
        doc = json.load(f)
    schema = doc.get("schema", "")
    if not schema.startswith("flowercdn-runner/"):
        sys.exit(f"{path}: not a flowercdn runner document (schema={schema!r})")
    return doc


def load_json_runs(path):
    """One curve per sweep cell, with 95% CI where trials > 1."""
    runs = []
    for cell in load_json_doc(path)["cells"]:
        agg = cell["aggregate"]
        series = agg["cumulative_hit_ratio"]
        lookup_edges, lookup_cdf = histogram_cdf(agg["histograms"]["lookup_all"])
        transfer_edges, transfer_cdf = histogram_cdf(
            agg["histograms"]["transfer_hits"])
        runs.append({
            "label": cell["label"],
            "hours": [h + 1 for h in range(len(series))],
            "hit_ratio": [p["mean"] for p in series],
            "hit_ratio_ci": [p["ci95"] for p in series]
            if agg["trials"] > 1 else None,
            "lookup_edges": lookup_edges,
            "lookup_cdf": lookup_cdf,
            "transfer_edges": transfer_edges,
            "transfer_cdf": transfer_cdf,
        })
    return runs


def fmt(value, ci=None, n=1):
    """A number with magnitude-dependent decimals, plus ' ±ci' when it
    summarizes more than one trial. Whole numbers print without decimals."""
    if ci is None or n <= 1:
        ci = 0.0
    if float(value).is_integer() and float(ci).is_integer():
        digits = 0
    else:
        digits = 3 if abs(value) < 10 else 1 if abs(value) < 1000 else 0
    out = f"{value:.{digits}f}"
    if n > 1:
        out += f" ±{ci:.{digits}f}"
    return out


def fmt_summary(summary):
    """A runner MetricSummary as 'mean ±ci95'; '-' when absent or null; a
    count over all trials (chaos.kills_replaced) as itself."""
    if summary is None:
        return "-"
    if isinstance(summary, int):
        return str(summary)
    return fmt(summary["mean"], summary["ci95"], summary["n"])


def trial_mean(cell, value):
    """fmt() of the mean of value(trial) over a cell's trial_results; None
    when the document was written with --json-aggregate-only."""
    trials = cell.get("trial_results")
    if not trials:
        return None
    return fmt(sum(value(t) for t in trials) / len(trials))


def counter_total(trial, name):
    for counter in trial["overhead"]["counters"]:
        if counter["name"] == name:
            return counter["total"]
    return 0


def print_table(title, header, rows):
    """Left-aligned columns two spaces apart, with a dashed rule under the
    header (the layout of the C++ TablePrinter)."""
    widths = [max(len(row[c]) for row in [header] + rows)
              for c in range(len(header))]
    print(f"\n{title}")
    lines = [header, ["-" * w for w in widths]] + rows
    for row in lines:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
              .rstrip())


def print_tables(paths):
    cells = []
    for path in paths:
        stem = os.path.splitext(os.path.basename(path))[0]
        for cell in load_json_doc(path)["cells"]:
            name = cell["label"] if len(paths) == 1 else \
                f"{stem}:{cell['label']}"
            cells.append((name, cell))
    names = [name for name, _ in cells]
    aggs = [cell["aggregate"] for _, cell in cells]

    def row(label, values):
        return [label] + ["-" if v is None else v for v in values]

    def trial_row(label, value):
        return row(label, [trial_mean(c, value) for _, c in cells])

    # 1. Aggregate metrics, chaos metrics, collaboration hits.
    rows = [row(m, [fmt_summary(a["metrics"].get(m)) for a in aggs])
            for m in aggs[0]["metrics"]]
    chaos_keys = []
    for a in aggs:
        chaos_keys += [k for k in a.get("chaos", {}) if k not in chaos_keys]
    rows += [row("chaos." + k,
                 [fmt_summary(a.get("chaos", {}).get(k)) for a in aggs])
             for k in chaos_keys]
    rows.append(trial_row("flower.collaboration_hits (trial mean)",
                          lambda t: counter_total(
                              t, "flower.collaboration_hits")))
    print_table("Table 1: aggregate metrics (mean ±95% CI over trials)",
                ["metric"] + names, rows)

    # 2. Protocol overhead per traffic family.
    families = next((list(c["trial_results"][0]["overhead"]["families"])
                     for _, c in cells if c.get("trial_results")), [])
    rows = []
    for family in families:
        rows.append(trial_row(f"{family} msgs", lambda t: t["overhead"]
                              ["families"][family]["messages"]))
        rows.append(trial_row(f"{family} MB", lambda t: t["overhead"]
                              ["families"][family]["bytes"] / 2**20))
    rows.append(trial_row("total msgs", lambda t: t["messages_sent"]))
    rows.append(trial_row("total MB", lambda t: t["bytes_sent"] / 2**20))
    rows.append(row("B/peer/s", [trial_mean(c, lambda t: t["bytes_sent"] /
                                            (c["hours"] * 3600 *
                                             c["population"]))
                                 for _, c in cells]))
    rows.append(trial_row("msgs/query", lambda t: t["messages_sent"] /
                          t["total_queries"] if t["total_queries"] else 0.0))
    print_table("Table 2: protocol overhead (trial means)",
                ["family"] + names, rows)

    # 3. Cumulative hit ratio per hour.
    hours = max(len(a["cumulative_hit_ratio"]) for a in aggs)
    rows = [row(str(h + 1),
                [fmt_summary(a["cumulative_hit_ratio"][h])
                 if h < len(a["cumulative_hit_ratio"]) else None
                 for a in aggs])
            for h in range(hours)]
    print_table("Table 3: cumulative hit ratio per hour (mean ±95% CI)",
                ["hour"] + names, rows)

    # 4. CDFs at every bucket upper edge, pooled over trials.
    for part, key, what in (("4a", "lookup_all", "lookup latency, all queries"),
                            ("4b", "lookup_hits", "lookup latency, hits"),
                            ("4c", "transfer_all",
                             "transfer distance, all queries"),
                            ("4d", "transfer_hits", "transfer distance, hits")):
        hists = [a["histograms"][key] for a in aggs]
        cdfs = [histogram_cdf(h)[1] for h in hists]
        width = hists[0]["bucket_width"]
        slots = len(hists[0]["counts"])
        rows = []
        for i in range(slots):
            edge = f"{width * (i + 1):g}" if i + 1 < slots else \
                f">{width * i:g}"
            rows.append(row(edge, [f"{cdf[i]:.3f}" if cdf else None
                                   for cdf in cdfs]))
        print_table(f"Table {part}: {what} CDF (pooled over trials)",
                    ["upper_ms"] + names, rows)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("inputs", nargs="+",
                        help="runner JSON files (flowercdn-sim --json-out=)")
    parser.add_argument("-o", "--outdir", default=".")
    parser.add_argument("--tables", action="store_true",
                        help="print text tables of runner JSON instead of "
                             "plotting")
    args = parser.parse_args()

    not_json = [p for p in args.inputs if not p.endswith(".json")]
    if not_json:
        sys.exit(f"inputs must be runner JSON: {not_json[0]}")
    if args.tables:
        print_tables(args.inputs)
        return

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("matplotlib is required: pip install matplotlib")

    runs = []
    for item in args.inputs:
        runs.extend(load_json_runs(item))
    os.makedirs(args.outdir, exist_ok=True)

    # Fig. 3: cumulative hit ratio over time (shaded 95% CI band when the
    # run aggregates multiple trials).
    fig, ax = plt.subplots(figsize=(6, 4))
    for run in runs:
        line, = ax.plot(run["hours"], run["hit_ratio"], marker="o",
                        markersize=3, label=run["label"])
        if run["hit_ratio_ci"]:
            lo = [m - c for m, c in zip(run["hit_ratio"],
                                        run["hit_ratio_ci"])]
            hi = [m + c for m, c in zip(run["hit_ratio"],
                                        run["hit_ratio_ci"])]
            ax.fill_between(run["hours"], lo, hi, alpha=0.2,
                            color=line.get_color(), linewidth=0)
    ax.set_xlabel("simulated hours")
    ax.set_ylabel("cumulative hit ratio")
    ax.set_ylim(0, 1)
    ax.legend()
    ax.grid(alpha=0.3)
    fig.tight_layout()
    fig.savefig(os.path.join(args.outdir, "fig3_hit_ratio.png"), dpi=150)

    # Fig. 4: lookup latency CDF (all queries; pooled across trials for
    # JSON runs).
    fig, ax = plt.subplots(figsize=(6, 4))
    for run in runs:
        ax.plot(run["lookup_edges"], run["lookup_cdf"], label=run["label"])
    ax.set_xlabel("lookup latency (ms)")
    ax.set_ylabel("fraction of queries")
    ax.set_ylim(0, 1)
    ax.legend()
    ax.grid(alpha=0.3)
    fig.tight_layout()
    fig.savefig(os.path.join(args.outdir, "fig4_lookup_latency.png"), dpi=150)

    # Fig. 5: transfer distance CDF (hits).
    fig, ax = plt.subplots(figsize=(6, 4))
    for run in runs:
        ax.plot(run["transfer_edges"], run["transfer_cdf"],
                label=run["label"])
    ax.set_xlabel("transfer distance (ms)")
    ax.set_ylabel("fraction of served queries")
    ax.set_ylim(0, 1)
    ax.legend()
    ax.grid(alpha=0.3)
    fig.tight_layout()
    fig.savefig(os.path.join(args.outdir, "fig5_transfer_distance.png"),
                dpi=150)

    print(f"wrote 3 figures to {args.outdir}/")


if __name__ == "__main__":
    main()
