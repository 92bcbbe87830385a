"""Inputs, per-trial steps and output checks of the benchmark workloads.

Every workload times the same five families -- gabriel, rng, yao p=4,
yao p=8 and the witness census -- so every end-to-end metric has a value
on every workload. The workloads differ in the input and therefore in the
path each family takes through the library:

- ``uniform-trials``: 10,000 uniform points per trial. Gabriel and RNG
  run the density-grid pipeline, Yao its staged kNN path (n > 2048), the
  census scans do real work.
- ``clustered-build``: 16 clusters of 100 points, each in a 1e-3 square
  at a random spot in its own cell of a 4x4 grid, plus 5,000 uniform
  points. The grid cell comes
  from the global bounding box, so the clusters drive the Gabriel/RNG
  candidate tests towards quadratic work.
- ``small-n-cli``: ``proxdeg experiment`` subprocesses at n <= 2000, so
  graphs go through the dense Yao (n <= 2048) and small exact (n <= 64)
  paths and the quadratic stretch measure does most of the work.

The benchmark makes every input from the workload seed and hands the
library only points or command-line arguments. Outputs are checked after
the timed spans close; a failed check marks its family's unit as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Recorder

from proxdeg import (
    DiGraph,
    GraphKind,
    PearlSpec,
    PointSet,
    Rect,
    Region,
    StaircaseSpec,
    count_maxima,
    degree_histogram,
    find_jewels,
    find_staircases,
    gabriel,
    gabriel_naive,
    intersect,
    is_staircase,
    is_tiara,
    jewel_scale,
    max_degree,
    max_edge_length,
    max_out_degree,
    rng_graph,
    rng_naive,
    sample_uniform,
    staircase_scale,
    stretch_factor,
    trial_generator,
    undirected_view,
)

FAMILIES = {
    "gabriel": GraphKind("gabriel"),
    "rng": GraphKind("rng"),
    "yao4": GraphKind("yao", p=4),
    "yao8": GraphKind("yao", p=8),
}
CENSUS = "census"
UNITS = (*FAMILIES, CENSUS)

# per-layer count recorded for each built graph
EDGE_COUNTS = {
    "gabriel": "graphs.gabriel_edges",
    "rng": "graphs.rng_edges",
    "yao4": "graphs.yao4_arcs",
    "yao8": "graphs.yao8_arcs",
}

UNIT_SQUARE = Region.unit_square()
# Sizes are set so that each run holds several trials: one build is noisy
# by about 10% on a shared machine, and the mean of several is not.
UNIFORM_N = 10_000
# Sixteen clusters rather than one: the cost of one cluster varies about
# threefold with the draw, and a sum over sixteen varies little.
CLUSTER_GRID = 4
CLUSTERS = CLUSTER_GRID * CLUSTER_GRID
CLUSTER_N = 100
CLUSTER_GAP = 0.03
CLUSTER_SIDE = 1e-3
BACKGROUND_N = 5_000
# above 2048 points, so the warm-up also reaches Yao's staged kNN path
WARMUP_N = 2_500

LIBRARY_MEASURES = ("max_degree", "edge_count", "max_edge_length", "degree_histogram")
CLI_MEASURES = ("max_degree", "edge_count", "max_edge_length", "stretch", "degree_histogram")
CENSUS_MEASURES = ("jewel_count", "staircase_count", "maxima")

# family -> (graph flags, n values, measures) of its `proxdeg experiment` run
CLI_EXPERIMENTS = {
    "gabriel": (("--graph", "gabriel"), (64, 1000, 2000),
                CLI_MEASURES + ("jewel_count", "staircase_count")),
    "rng": (("--graph", "rng"), (1000,), CLI_MEASURES),
    "yao4": (("--graph", "yao", "--p", "4"), (1000,), CLI_MEASURES),
    "yao8": (("--graph", "yao", "--p", "8"), (1000, 2000), CLI_MEASURES),
}
# the census family runs `proxdeg detect --witness jewel --maxima` on the
# trial's CENSUS_N points, which the benchmark writes as the CLI's input
CENSUS_N = 2000

# span name -> the library calls it wraps (written into traced results)
SPAN_CALLS = {
    "trial": "one whole trial",
    "family.<name>": "one family's build and measures, or its `proxdeg experiment` subprocess",
    "experiment.sample": "proxdeg.sample_uniform (with proxdeg.trial_generator)",
    "geom.pointset": "proxdeg.PointSet(coords): explicit for clustered input and the detect "
                     "input; elsewhere a replay of the validation sample_uniform runs internally",
    "graphs.gabriel": "GraphKind('gabriel').build -> proxdeg.gabriel",
    "graphs.rng": "GraphKind('rng').build -> proxdeg.rng_graph",
    "graphs.yao4": "GraphKind('yao', p=4).build -> proxdeg.yao",
    "graphs.yao8": "GraphKind('yao', p=8).build -> proxdeg.yao",
    "graphs.undirected_view": "proxdeg.undirected_view(DiGraph): one canonicalization, which "
                              "max_degree and degree_histogram each repeat on a Yao digraph",
    "experiment.degree": "proxdeg.max_degree, proxdeg.degree_histogram",
    "experiment.edge_length": "proxdeg.max_edge_length",
    "experiment.stretch": "proxdeg.stretch_factor",
    "witness.jewels": "proxdeg.find_jewels (count_jewels is its length)",
    "witness.staircases": "proxdeg.find_staircases (count_staircases is its length)",
    "witness.maxima": "proxdeg.count_maxima",
}


@dataclass
class Outcome:
    """What one trial produced, apart from its timings."""

    trial: int
    digests: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    cli: dict = field(default_factory=dict)

    def fail(self, unit: str, message: str):
        self.failures.setdefault(unit, []).append(message)

    @contextmanager
    def guard(self, unit: str):
        """Record an exception from ``unit`` as its failure and go on."""
        try:
            yield
        except Exception as e:  # the benchmark counts failures, it must not stop
            self.fail(unit, "".join(traceback.format_exception_only(type(e), e)).strip())


def sha256_edges(g) -> str:
    h = hashlib.sha256(np.int64(g.n).tobytes())
    h.update(np.ascontiguousarray(g.edges, dtype=np.int64).tobytes())
    return h.hexdigest()


def sha256_points(pts: PointSet) -> str:
    return hashlib.sha256(np.ascontiguousarray(pts.coords).tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# Inputs


def uniform_points(seed: int, trial: int, rec) -> PointSet:
    with rec.layer("experiment.sample"):
        pts = sample_uniform(UNIT_SQUARE, UNIFORM_N, trial_generator(seed, trial))
    if rec.layers:
        with rec.probe("geom.pointset"):
            PointSet(pts.coords)
    return pts


def cluster_spots(gen: np.random.Generator) -> np.ndarray:
    """Lower-left corners of the cluster squares: one per cell of a 4x4
    grid over [0.1, 0.9]^2, at a random place at least CLUSTER_GAP inside
    its cell. Two clusters that nearly touch made the time and peak
    memory of one trial vary several-fold between draws; cells keep any
    two clusters at least 2 * CLUSTER_GAP apart."""
    i = np.arange(CLUSTERS)
    cell = 0.8 / CLUSTER_GRID
    corners = 0.1 + cell * np.column_stack([i // CLUSTER_GRID, i % CLUSTER_GRID])
    room = cell - 2.0 * CLUSTER_GAP - CLUSTER_SIDE
    return corners + CLUSTER_GAP + room * gen.random((CLUSTERS, 2))


def clustered_points(seed: int, trial: int, rec) -> PointSet:
    gen = trial_generator(seed, trial)
    spots = cluster_spots(gen)
    with rec.layer("experiment.sample"):
        parts = [
            sample_uniform(
                Region.rect_union([Rect(x, y, x + CLUSTER_SIDE, y + CLUSTER_SIDE)]),
                CLUSTER_N, gen,
            ).coords
            for x, y in spots.tolist()
        ]
        parts.append(sample_uniform(UNIT_SQUARE, BACKGROUND_N, gen).coords)
    with rec.layer("geom.pointset"):
        return PointSet(np.concatenate(parts))


def cli_seed(seed: int, trial: int) -> int:
    """Master seed handed to the CLI for one benchmark trial."""
    return int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Measures, spanned by layer


def measure(rec, name: str, g, pts: PointSet):
    """One measure as run_trials computes it; census measures return the
    hit indices so the checks can confirm each hit."""
    if name == "max_degree":
        with rec.layer("experiment.degree"):
            return max_degree(g)
    if name == "edge_count":
        return g.edge_count
    if name == "max_edge_length":
        with rec.layer("experiment.edge_length"):
            return max_edge_length(g, pts)
    if name == "degree_histogram":
        with rec.layer("experiment.degree"):
            return degree_histogram(g)
    if name == "stretch":
        with rec.layer("experiment.stretch"):
            return stretch_factor(g, pts)
    if name == "jewel_count":
        with rec.layer("witness.jewels"):
            hits = find_jewels(pts, 1.0, UNIT_SQUARE)
        rec.count("witness.jewels_hits", len(hits))
        return hits
    if name == "staircase_count":
        with rec.layer("witness.staircases"):
            hits = find_staircases(pts, 1.0, UNIT_SQUARE)
        rec.count("witness.staircases_hits", len(hits))
        return hits
    if name == "maxima":
        with rec.layer("witness.maxima"):
            count = count_maxima(pts)
        rec.count("witness.maxima_count", count)
        return count
    raise ValueError(f"unknown measure {name!r}")


def build(rec, family: str, pts: PointSet):
    with rec.layer("graphs." + family):
        g = FAMILIES[family].build(pts)
    rec.count(EDGE_COUNTS[family], g.edge_count)
    if rec.layers and isinstance(g, DiGraph):
        with rec.probe("graphs.undirected_view"):
            undirected_view(g)
    return g


# ---------------------------------------------------------------------------
# Checks, run outside the timed spans


def check_graphs(out: Outcome, graphs: dict, tag: str = ""):
    """Digest every graph; RNG must lie inside Gabriel and a Yao graph
    has out-degree at most p."""
    for fam, g in graphs.items():
        out.digests[f"{fam}{tag}.edges"] = sha256_edges(g)
    if "gabriel" in graphs and "rng" in graphs:
        if intersect(graphs["rng"], graphs["gabriel"]) != graphs["rng"]:
            out.fail("rng", f"rng{tag} is not a subgraph of gabriel")
    for fam in ("yao4", "yao8"):
        if fam in graphs:
            p = FAMILIES[fam].p
            if max_out_degree(graphs[fam]) > p:
                out.fail(fam, f"{fam}{tag} out-degree exceeds {p}")


def check_census(out: Outcome, pts: PointSet, jewels, stairs):
    """Re-confirm every census hit with the single-point detectors."""
    P = pts.coords
    pearl = PearlSpec(*jewel_scale(pts.n))
    for i in jewels:
        if not is_tiara(P[i], pts, pearl):
            out.fail(CENSUS, f"jewel hit {int(i)} fails is_tiara")
    step = StaircaseSpec(*staircase_scale(pts.n))
    for i in stairs:
        if not is_staircase(P[i], pts, step):
            out.fail(CENSUS, f"staircase hit {int(i)} fails is_staircase")


def check_naive(out: Outcome, pts: PointSet):
    """At small n the fast builders must equal the quadratic references."""
    if gabriel(pts) != gabriel_naive(pts):
        out.fail("gabriel", f"gabriel differs from gabriel_naive at n={pts.n}")
    if rng_graph(pts) != rng_naive(pts):
        out.fail("rng", f"rng_graph differs from rng_naive at n={pts.n}")


# ---------------------------------------------------------------------------
# Library workloads


def library_trial(points_fn, seed: int, trial: int, rec) -> Outcome:
    """One trial of uniform-trials or clustered-build: the steps run_trials
    takes for one trial of each family, called directly so the graphs
    stay available to the checks."""
    out = Outcome(trial)
    rec.trial = trial
    graphs = {}
    pts = None
    census = None
    with rec.span("trial"):
        with out.guard("input"):
            pts = points_fn(seed, trial, rec)
        if pts is not None:
            for fam in FAMILIES:
                with out.guard(fam), rec.span("family." + fam):
                    g = build(rec, fam, pts)
                    for m in LIBRARY_MEASURES:
                        measure(rec, m, g, pts)
                    graphs[fam] = g
            with out.guard(CENSUS), rec.span("family." + CENSUS):
                jewels, stairs, _ = (measure(rec, m, None, pts) for m in CENSUS_MEASURES)
                census = (jewels, stairs)
    if pts is None:
        return out
    out.digests["points"] = sha256_points(pts)
    with out.guard("checks"):
        check_graphs(out, graphs)
        if census is not None:
            check_census(out, pts, *census)
    return out


# ---------------------------------------------------------------------------
# CLI workload


@dataclass
class CliRun:
    returncode: int
    wall_s: float
    max_rss_kb: int
    error: str = ""
    elapsed_s: float | None = None
    csv_bytes: int = 0
    output_sha256: str = ""
    rows: dict = field(default_factory=dict)


def _raw_value(v) -> str:
    """A value as the CLI writes it; census hits count by their number."""
    if isinstance(v, np.ndarray):
        return str(len(v))
    if isinstance(v, tuple):
        return ";".join(str(int(x)) for x in v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{v:.17g}"


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PROXDEG_WORKERS"] = "1"
    return env


def _census_points(gen_seed: int) -> PointSet:
    return sample_uniform(UNIT_SQUARE, CENSUS_N, trial_generator(gen_seed, 0))


def run_cli(family: str, seed: int, trial: int, rec, workdir: Path, env: dict) -> CliRun:
    """Run one CLI subprocess inside the family's span and read back its
    outputs."""
    gen_seed = cli_seed(seed, trial)
    report = workdir / f"{family}.json"
    raw = workdir / f"{family}.csv"
    if family == CENSUS:
        points = workdir / "points.csv"
        points.write_text("".join(f"{x:.17g},{y:.17g}\n" for x, y in _census_points(gen_seed).coords))
        cmd = ["detect", "--points", str(points), "--witness", "jewel", "--maxima"]
    else:
        flags, ns, measures = CLI_EXPERIMENTS[family]
        cmd = [
            "experiment", *flags, "--n", ",".join(str(n) for n in ns), "--trials", "1",
            "--seed", str(gen_seed), "--workers", "1",
            *[a for m in measures for a in ("--measure", m)], "--raw-out", str(raw),
        ]
    argv = [sys.executable, "-m", "proxdeg.cli", *cmd, "--out", str(report)]
    with open(workdir / f"{family}.err", "w+") as err:
        with rec.span("family." + family) as sp:
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
            # wait4 reaps the child and returns its own resource usage
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read().strip()
    run = CliRun(proc.returncode, sp.end - sp.start, usage.ru_maxrss)
    if run.returncode != 0:
        run.error = message.splitlines()[-1] if message else "no message"
        return run
    with open(report) as f:
        payload = json.load(f)
    if family == CENSUS:
        hits = tuple(i for i, hit in enumerate(payload["per_index"]) if hit)
        row = {"jewel_count": str(payload["count"]), "jewel_indices": _raw_value(hits),
               "maxima": str(payload["maxima"])}
        run.rows = {CENSUS_N: row}
        run.output_sha256 = hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()
        return run
    data = raw.read_bytes()
    run.csv_bytes = len(data)
    run.output_sha256 = hashlib.sha256(data).hexdigest()
    run.elapsed_s = sum(r["elapsed_s"] for r in payload["results"])
    # the first line is the manifest comment, the second the header
    run.rows = {int(row["n"]): row for row in csv.DictReader(data.decode().splitlines()[1:])}
    return run


def replay_cli(seed: int, trial: int, rec, with_stretch: bool) -> dict:
    """Recompute in process what each CLI run of the trial computes,
    through the public calls run_trials and `detect` make. Returns family
    -> n -> measure -> value, with the points and graphs for the checks."""
    rec.trial = trial
    values: dict = {}
    graphs: dict = {}
    points: dict = {}
    gen_seed = cli_seed(seed, trial)
    with rec.span("trial"):
        for fam, (_, ns, measures) in CLI_EXPERIMENTS.items():
            values[fam] = {}
            with rec.span("family." + fam):
                for n in ns:
                    with rec.layer("experiment.sample"):
                        pts = sample_uniform(UNIT_SQUARE, n, trial_generator(gen_seed, 0))
                    if rec.layers:
                        with rec.probe("geom.pointset"):
                            PointSet(pts.coords)
                    points[n] = pts
                    g = build(rec, fam, pts)
                    graphs.setdefault(n, {})[fam] = g
                    values[fam][n] = {
                        m: measure(rec, m, g, pts)
                        for m in measures
                        if with_stretch or m != "stretch"
                    }
        with rec.span("family." + CENSUS):
            coords = _census_points(gen_seed).coords
            with rec.layer("geom.pointset"):
                pts = PointSet(coords)
            hits = measure(rec, "jewel_count", None, pts)
            values[CENSUS] = {CENSUS_N: {
                "jewel_count": hits,
                "jewel_indices": tuple(hits),
                "maxima": measure(rec, "maxima", None, pts),
            }}
    return {"values": values, "graphs": graphs, "points": points}


def check_cli(out: Outcome, runs: dict, replay: dict):
    """Compare every CLI output with the in-process replay and run the
    graph, census and small-n checks on the replay's results."""
    for fam, run in runs.items():
        if run.returncode != 0:
            out.fail(fam, f"exit {run.returncode}: {run.error}")
            continue
        out.digests[f"{fam}.output"] = run.output_sha256
        for n, want in replay["values"][fam].items():
            row = run.rows.get(n)
            if row is None:
                out.fail(fam, f"no output row for n={n}")
                continue
            for m, v in want.items():
                if row[m] != _raw_value(v):
                    out.fail(fam, f"n={n} {m}: CLI {row[m]} != replay {_raw_value(v)}")
            if "stretch" in row and "stretch" not in want and not float(row["stretch"]) >= 1.0:
                out.fail(fam, f"n={n} stretch {row['stretch']} is below 1")
    for n, graphs in replay["graphs"].items():
        check_graphs(out, graphs, tag=f"@{n}")
    for by_n in replay["values"].values():
        for n, vals in by_n.items():
            if "jewel_count" in vals:
                check_census(out, replay["points"][n], vals["jewel_count"],
                             vals.get("staircase_count", ()))
    for n, pts in replay["points"].items():
        if n <= 64:
            check_naive(out, pts)


def cli_trial(seed: int, trial: int, rec, src: Path, scratch: Path) -> Outcome:
    """One trial of small-n-cli: every CLI run, then the checks against an
    in-process replay without the stretch measure."""
    out = Outcome(trial)
    rec.trial = trial
    env = cli_env(src)
    runs = {}
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        with rec.span("trial"):
            for fam in UNITS:
                with out.guard(fam):
                    runs[fam] = run_cli(fam, seed, trial, rec, Path(tmp), env)
    out.cli = runs
    with out.guard("checks"):
        check_cli(out, runs, replay_cli(seed, trial, Recorder(False), with_stretch=False))
    return out


# ---------------------------------------------------------------------------
# Set-up


def warm_up():
    """One call per family on a small input, so later timings see loaded
    modules and warm caches."""
    pts = sample_uniform(UNIT_SQUARE, WARMUP_N, trial_generator(0, 0))
    rec = Recorder(False)
    for fam in FAMILIES:
        g = build(rec, fam, pts)
        for m in LIBRARY_MEASURES:
            measure(rec, m, g, pts)
    for m in CENSUS_MEASURES:
        measure(rec, m, None, pts)
    small = PointSet(pts.coords[:200])
    stretch_factor(gabriel(small), small)
