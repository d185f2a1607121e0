"""Summarize the run records under ``perfbench/.runs/``.

    python3 perfbench/summarize.py [--since UNIX_TIME] [--write FILE]

For each workload it prints, over the untraced runs, the median and the
quartiles of every end-to-end metric and their spread (quartile distance as
a share of the median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles); over the traced runs, the median of every per-layer metric; and
the tracing overhead (traced minus untraced median of the wall time of a
batch, ``run_wall_s``; traced runs do not rescale to reference seconds). With
``--write`` the summary is also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics

HERE = pathlib.Path(__file__).resolve().parent


def quartiles(values):
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0,
                "runs": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "runs": len(values)}


def summarize(records):
    out = {}
    for wl in sorted({r["workload"] for r in records}):
        plain = [r for r in records if r["workload"] == wl and not r["trace"]]
        traced = [r for r in records if r["workload"] == wl and r["trace"]]
        doc = {"seeds": sorted({r["seed"] for r in plain}),
               "attempted": sum(r["attempted"] for r in plain + traced),
               "failed": sum(r["failed"] for r in plain + traced),
               "flags": sorted({f for r in plain + traced for f in r["flags"]})}
        if plain:
            doc["end_to_end"] = {k: quartiles(r["end_to_end"][k] for r in plain)
                                 for k in plain[0]["end_to_end"]}
            doc["named"] = {k: quartiles(r["named"][k] for r in plain)
                            for k in plain[0]["named"]}
        if traced:
            doc["per_layer"] = {
                k: statistics.median(r["layers"][k] for r in traced)
                for k in traced[0]["layers"]}
            wall = statistics.median(r["named"]["run_wall_s"] for r in traced)
            doc["traced_run_wall_s"] = wall
            if plain:
                doc["trace_overhead_s"] = wall - doc["named"]["run_wall_s"][
                    "median"]
        out[wl] = doc
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--since", type=float, default=0.0,
                   help="only records written after this UNIX time")
    p.add_argument("--write", help="also write the summary to this file")
    args = p.parse_args()
    records = [json.loads(f.read_text())
               for f in sorted((HERE / ".runs").glob("run-*.json"))]
    records = [r for r in records if r["time"] >= args.since]
    summary = summarize(records)
    for wl, doc in summary.items():
        print(f"{wl}: seeds {doc['seeds']}, failed {doc['failed']} of "
              f"{doc['attempted']}, flags {doc['flags']}")
        for group in ("end_to_end", "named"):
            for k, q in doc.get(group, {}).items():
                spread = "n/a" if q["spread"] is None else f"{q['spread']:.4f}"
                print(f"  {k:24s} median {q['median']:.6g} "
                      f"[{q['q1']:.6g}, {q['q3']:.6g}] spread {spread} "
                      f"({q['runs']} runs)")
        if "trace_overhead_s" in doc:
            print(f"  tracing overhead {doc['trace_overhead_s']:.4g} s")
    if args.write:
        pathlib.Path(args.write).write_text(
            json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
