#!/usr/bin/env python3
"""proxdeg benchmark.

    python3 perfbench/run.py --workload uniform-trials --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. The run takes trials of the workload until the next
trial would pass ``--seconds`` (always at least one). Every output is
checked after its timed span.

With ``--trace 0`` the result line carries the end-to-end metrics. Set-up
(a fresh interpreter that imports the package and warms every graph
family) is timed six times, spread between the trials. With
``--trace 1`` each trial, untraced, is followed by a replay of the same
trial with a span around every call into a library layer (at least
three such pairs), and the result line carries the per-layer metrics.

Human-readable lines go first; the last line of standard output is the
JSON result. A result file with an environment header, per-trial
digests and (when traced) the spans is written under
``perfbench/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Recorder, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# one thread per numeric library: the run uses one process, pinned to one
# CPU with its children
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_REPEATS = 6
TRACE_PAIRS = 3
WORKLOADS = ("uniform-trials", "clustered-build", "small-n-cli")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "gabriel_trial_s": "s",
    "rng_trial_s": "s",
    "yao4_trial_s": "s",
    "yao8_trial_s": "s",
    "census_trial_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
LAYER_SPANS = (
    "graphs.gabriel",
    "graphs.rng",
    "graphs.yao4",
    "graphs.yao8",
    "graphs.undirected_view",
    "witness.jewels",
    "witness.staircases",
    "witness.maxima",
    "experiment.sample",
    "geom.pointset",
    "experiment.degree",
    "experiment.edge_length",
)
LAYER_COUNTS = (
    "graphs.gabriel_edges",
    "graphs.rng_edges",
    "graphs.yao4_arcs",
    "graphs.yao8_arcs",
    "witness.jewels_hits",
    "witness.staircases_hits",
    "witness.maxima_count",
)
PER_LAYER = {
    **{name + "_s": "s" for name in LAYER_SPANS},
    **{name: "count" for name in LAYER_COUNTS},
    "trace.overhead_frac": "frac",
}
# Layers only small-n-cli calls. They are printed and written to the result
# file of that workload but kept out of the result line, whose per-layer
# metrics every workload must measure.
CLI_LAYERS = {
    "experiment.stretch_s": "s",
    "cli.overhead_s": "s",
    "cli.raw_csv_bytes": "count",
}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description="proxdeg benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _git_commit() -> str | None:
    """HEAD of the checkout; None outside a git repository. git is pointed
    at the checkout's own .git, so it never searches parent directories."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "proxdeg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _environment(args) -> dict:
    import numpy
    import scipy

    import proxdeg

    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "proxdeg": proxdeg.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_caps": {k: os.environ[k] for k in THREAD_CAPS},
    }


def _setup_once(env: dict) -> float:
    """Wall seconds of a fresh interpreter that imports the package and
    warms every family, as a user's process would on start."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import workloads; workloads.warm_up()"],
        cwd=HERE, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return wall


def _run_trials(trial_fn, seed: int, seconds: float, rec, min_trials=1, setup=None):
    """Trials 0, 1, ... until the next one, predicted to last as long as
    the previous one, would end after ``seconds`` of trial time; at least
    ``min_trials``. With ``setup`` (the subprocess environment), set-up is
    timed SETUP_REPEATS times: once before the first trial, then between
    trials whenever another even share of ``seconds`` has passed, so
    that the repeats sample the whole run and not one moment of a
    machine whose speed changes every few seconds. Set-up time does not
    count against ``seconds``."""
    outcomes, setup_walls = [], []
    spent = last = 0.0
    repeats = SETUP_REPEATS if setup is not None else 0

    def setup_due():
        done = len(setup_walls)
        return done < repeats and spent >= seconds * done / repeats

    while len(outcomes) < min_trials or spent + last <= seconds:
        while setup_due():
            setup_walls.append(_setup_once(setup))
        t0 = time.perf_counter()
        outcomes.append(trial_fn(seed, len(outcomes), rec))
        last = time.perf_counter() - t0
        spent += last
    while len(setup_walls) < repeats:
        setup_walls.append(_setup_once(setup))
    return outcomes, setup_walls


def _failed_units(outcome, units) -> int:
    """Families with a failure; a failure outside any family (input or
    checks) fails every family of the trial."""
    if any(u not in units for u in outcome.failures):
        return len(units)
    return len(outcome.failures)


def _end_to_end(rec, outcomes, setup, units, cli, ok_frac) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if cli:
        peak_kb += max((r.max_rss_kb for o in outcomes for r in o.cli.values()), default=0)
    return {
        # The fastest repeat: the machine's slow spells only ever add time,
        # and one repeat outside them measures the set-up work itself.
        "setup_s": min(setup),
        # Means, not medians: single timings here switch between a fast and
        # a slow mode every few seconds, and a median snaps to one mode
        # while the mean weighs the two by the time spent in each.
        "wall_s": statistics.mean(rec.durations("trial")),
        **{
            f"{u}_trial_s": statistics.mean(rec.durations("family." + u))
            for u in units
        },
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": ok_frac,
    }


def _per_layer(traced, outcomes, overheads: list[float]) -> dict:
    """Self seconds and counts per trial of the traced replays, and the
    median trace overhead over the (untraced, traced) pairs."""
    trials = len(outcomes)
    own = self_times(traced.spans)
    out = {name + "_s": own.get(name, 0.0) / trials for name in LAYER_SPANS}
    for name in LAYER_COUNTS:
        out[name] = traced.counts.get(name, 0) / trials
    out["trace.overhead_frac"] = statistics.median(overheads)
    return out


def _cli_layers(traced, outcomes) -> dict:
    trials = len(outcomes)
    experiments = [r for o in outcomes for r in o.cli.values() if r.elapsed_s is not None]
    return {
        "experiment.stretch_s": self_times(traced.spans).get("experiment.stretch", 0.0) / trials,
        "cli.overhead_s": sum(r.wall_s - r.elapsed_s for r in experiments) / trials,
        "cli.raw_csv_bytes": sum(r.csv_bytes for r in experiments) / trials,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "proxdeg" / "__init__.py").is_file():
        print(f"error: no proxdeg package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS)
    # one CPU for this process and its children: moving between CPUs made
    # single builds vary more
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import proxdeg

    if Path(proxdeg.__file__).resolve().parent != SRC / "proxdeg":
        print(f"error: imported proxdeg from {proxdeg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    RESULTS.mkdir(exist_ok=True)
    env = wl.cli_env(SRC)
    header = _environment(args)
    print(f"# proxdeg benchmark: {json.dumps(header, sort_keys=True)}")

    wl.warm_up()

    cli = args.workload == "small-n-cli"
    if cli:
        def trial_fn(seed, t, rec):
            return wl.cli_trial(seed, t, rec, SRC, RESULTS)
    else:
        points_fn = wl.uniform_points if args.workload == "uniform-trials" else wl.clustered_points

        def trial_fn(seed, t, rec):
            return wl.library_trial(points_fn, seed, t, rec)

    rec = Recorder(layers=False)
    setup = []
    if not args.trace:
        outcomes, setup = _run_trials(trial_fn, args.seed, args.seconds, rec, setup=env)
        attempted = len(outcomes) * len(wl.UNITS)
        failed = sum(_failed_units(o, wl.UNITS) for o in outcomes)
        metrics = _end_to_end(rec, outcomes, setup, wl.UNITS, cli, 1.0 - failed / attempted)
        units = END_TO_END
        extras = {}
        spans = []
    else:
        traced = Recorder(layers=True)
        overheads = []

        def pair_fn(seed, t, rec):
            """One trial untraced, then its traced replay; the overhead
            compares the two, without the probes, which the untraced
            trial does not make."""
            o = trial_fn(seed, t, rec)
            if cli:
                replay = wl.replay_cli(seed, t, traced, with_stretch=True)
                with o.guard("checks"):
                    wl.check_cli(o, o.cli, replay)
                # the replayed experiment runs against the library time
                # their CLI runs report; the detect run reports none
                reference = sum(r.elapsed_s for r in o.cli.values() if r.elapsed_s is not None)
                spent = traced.seconds(t, ["family." + f for f in wl.CLI_EXPERIMENTS])
            else:
                again = trial_fn(seed, t, traced)
                for unit, messages in again.failures.items():
                    o.failures.setdefault(unit, []).extend(messages)
                if again.digests != o.digests:
                    o.fail("checks", "traced replay produced different digests")
                reference = rec.seconds(t, ["trial"])
                spent = traced.seconds(t, ["trial"])
            overheads.append((spent - traced.seconds(t, probes=True)) / reference - 1.0)
            return o

        outcomes, _ = _run_trials(pair_fn, args.seed, args.seconds, rec, min_trials=TRACE_PAIRS)
        metrics = _per_layer(traced, outcomes, overheads)
        extras = _cli_layers(traced, outcomes) if cli else {}
        units = PER_LAYER
        spans = traced.as_records()
        attempted = len(outcomes) * len(wl.UNITS)
        failed = sum(_failed_units(o, wl.UNITS) for o in outcomes)

    for o in outcomes:
        for name, digest in sorted(o.digests.items()):
            print(f"digest trial={o.trial} {name} sha256={digest}")
        for unit, messages in sorted(o.failures.items()):
            for m in messages:
                print(f"FAILED trial={o.trial} {unit}: {m}", file=sys.stderr)
    if args.trace:
        for name, calls in wl.SPAN_CALLS.items():
            print(f"span {name}: {calls}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    for name, value in extras.items():
        print(f"{args.workload} {name} {value:.6g} {CLI_LAYERS[name]}")
    print(f"{args.workload} failed_frac {failed / attempted:.6g} ({failed}/{attempted})")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    record = {
        "env": header,
        "result": result,
        "setup_walls_s": setup,
        "trials": [
            {
                "trial": o.trial,
                "digests": o.digests,
                "failures": o.failures,
                "seconds": {
                    s.name: s.end - s.start
                    for s in rec.spans if s.trial == o.trial and s.parent is not None
                },
            }
            for o in outcomes
        ],
    }
    if args.trace:
        record["trace_overheads"] = overheads
        record["cli_layers"] = extras
        record["span_calls"] = wl.SPAN_CALLS
        record["spans"] = spans
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
