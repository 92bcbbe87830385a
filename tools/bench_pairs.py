#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarised.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads clustered-build --pairs 10 --seed-base 9001 \\
        --label yao_stage2 --out BENCH_yao_stage2.json
    python3 tools/bench_pairs.py --merge run1.json run2.json --out BENCH_x.json

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, on one
fresh seed, each side in its own process from its own directory. The
parent goes first in odd pairs and the change in even ones, so a drift in
the host's speed falls on both sides alike. Workload i of the benchmark's
list takes seeds ``seed-base + 100 i``, ``+ 1``, ...; pick a base no run
used while writing the change.

The output file holds every run's result line and the per-pair values,
and per workload and end-to-end metric: the parent's and the change's
median and quartiles, the change of the medians relative to the parent,
the parent's interquartile range over its median, and the number of pairs
the change won (a lower time or size, a higher ``ok_frac``). A pair also
compares the digests both runs printed for the trials both ran; where
there are none to compare, ``digests_equal`` is null.

``--merge`` runs nothing: it pools the pairs of several output files of
this tool into one summary and keeps each file's record, summary
included, as ``run_1``, ``run_2``, ... in the order given.

The tool only reads the checkouts' ``perfbench`` and ``BENCHMARK.json``;
each run writes its result file under its own ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HEADER = "# proxdeg benchmark: "
DIGEST = re.compile(r"^digest trial=(\d+) (\S+) sha256=(\w+)$")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, help="checkout of the change")
    ap.add_argument("--workloads", help="comma-separated workload names")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--label")
    ap.add_argument("--what", default="", help="one line on what the change does")
    ap.add_argument("--merge", nargs="+", type=Path, metavar="FILE", help="pool these output files; run nothing")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.merge:
        return args
    missing = [f"--{k.replace('_', '-')}" for k in ("parent", "change", "workloads", "seed_base", "label")
               if getattr(args, k) is None]
    if missing:
        ap.error(f"missing {', '.join(missing)}")
    for side in (args.parent, args.change):
        if not (side / "perfbench" / "run.py").is_file():
            ap.error(f"no perfbench/run.py under {side}")
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    return args


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout ``root``: its result line, digests and
    exit status."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    digests, env = {}, None
    for line in lines:
        if line.startswith(HEADER):
            env = json.loads(line[len(HEADER):])
        m = DIGEST.match(line)
        if m:
            digests[f"{m.group(1)}:{m.group(2)}"] = m.group(3)
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {
        "rc": proc.returncode,
        "run_s": time.perf_counter() - t0,
        "result": result,
        "digests": digests,
        "env": env,
        "stderr_tail": proc.stderr.strip().splitlines()[-5:] if proc.returncode else [],
    }


def quartiles(values):
    """(q1, median, q3), quartiles by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarise(pairs, metrics) -> dict:
    """Per end-to-end metric: medians, quartiles, relative change of the
    medians, the parent's IQR over its median and the pairs the change
    won. ``metrics`` maps each name to "lower" or "higher"."""
    compared = [p["digests_equal"] for p in pairs if p["digests_compared"]]
    out = {
        "pairs": len(pairs),
        "digests_compared": sum(p["digests_compared"] for p in pairs),
        "digests_equal": all(compared) if compared else None,
    }
    for name, better in metrics.items():
        both = [(p["parent"][name], p["change"][name]) for p in pairs
                if name in p["parent"] and name in p["change"]]
        if not both:
            continue
        par = [a for a, _ in both]
        chg = [b for _, b in both]
        pq1, pmed, pq3 = quartiles(par)
        cq1, cmed, cq3 = quartiles(chg)
        won = sum((b < a) if better == "lower" else (b > a) for a, b in both)
        out[name] = {
            "parent_median": pmed, "parent_q1": pq1, "parent_q3": pq3,
            "change_median": cmed, "change_q1": cq1, "change_q3": cq3,
            "change_vs_parent": cmed / pmed - 1.0 if pmed else None,
            "parent_iqr_over_median": (pq3 - pq1) / pmed if pmed else None,
            "per_pair_change": [b / a - 1.0 if a else None for a, b in both],
            "pairs_change_won": won,
        }
    return out


def _values(run) -> dict:
    res = run["result"] or {}
    return {k: v["value"] for k, v in res.get("metrics", {}).items()}


def _metrics(bench) -> dict:
    return {m["name"]: m["better"] for m in bench["end_to_end"]}


def merge(paths, out: Path) -> int:
    """Pool the pairs of several output files into one summary."""
    parts = [json.loads(p.read_text()) for p in paths]
    metrics = _metrics(json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()))
    pairs = [pair for part in parts for pair in part["pairs"]]
    workloads = list(dict.fromkeys(pair["workload"] for pair in pairs))
    record = {
        "label": parts[0]["label"],
        "what": parts[0]["what"],
        "command": parts[0]["command"],
        "protocol": f"{len(parts)} runs of this tool pooled; 'summary' holds all their pairs, 'run_i' each run",
        "host": parts[0]["host"],
        "summary": {w: summarise([p for p in pairs if p["workload"] == w], metrics) for w in workloads},
        **{f"run_{i + 1}": part for i, part in enumerate(parts)},
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.merge:
        return merge(args.merge, args.out)
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    order = [w["name"] for w in bench["workloads"]]
    metrics = _metrics(bench)
    workloads = args.workloads.split(",")
    unknown = [w for w in workloads if w not in order]
    if unknown:
        print(f"error: unknown workloads {unknown}; the benchmark has {order}", file=sys.stderr)
        return 2
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs, pairs = [], []
    for w in workloads:
        for j in range(args.pairs):
            seed = args.seed_base + 100 * order.index(w) + j
            first = "parent" if j % 2 == 0 else "change"
            got = {}
            for side in (first, "change" if first == "parent" else "parent"):
                r = run_once(sides[side], w, seed, args.seconds)
                got[side] = r
                runs.append({"side": side, "workload": w, "seed": seed, "pair": j + 1, "first": first,
                             **{k: v for k, v in r.items() if k != "digests"}})
            common = got["parent"]["digests"].keys() & got["change"]["digests"].keys()
            pair = {
                "workload": w, "seed": seed, "first": first,
                "digests_compared": len(common),
                "digests_equal": (all(got["parent"]["digests"][k] == got["change"]["digests"][k] for k in common)
                                  if common else None),
                "parent": _values(got["parent"]),
                "change": _values(got["change"]),
            }
            pairs.append(pair)
            changes = {m: f"{pair['change'][m] / pair['parent'][m] - 1.0:+.3f}"
                       for m in ("wall_s", "yao4_trial_s", "yao8_trial_s", "peak_rss_mb")
                       if pair["parent"].get(m) and m in pair["change"]}
            print(f"{w} seed {seed} ({first} first): digests equal {pair['digests_equal']} "
                  f"over {pair['digests_compared']}; {changes}", flush=True)
    record = {
        "label": args.label,
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "protocol": (f"{args.pairs} alternating pairs per workload (parent first in odd pairs), seeds "
                     + ", ".join(f"{args.seed_base + 100 * order.index(w)}-"
                                 f"{args.seed_base + 100 * order.index(w) + args.pairs - 1} ({w})"
                                 for w in workloads)
                     + "; each side runs in its own checkout; per-pair change is change / parent - 1"),
        "host": f"{platform.platform()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "summary": {w: summarise([p for p in pairs if p["workload"] == w], metrics) for w in workloads},
        "pairs": pairs,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if all(r["rc"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
