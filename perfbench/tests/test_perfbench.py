"""Tests of the benchmark's own arithmetic, inputs, checks and metric
names. Run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Recorder, Span, self_times  # noqa: E402

from proxdeg import DiGraph, Graph, PointSet, gabriel, rng_graph  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("trial", 0.0, 10.0, None, 0),
        Span("family.a", 1.0, 4.0, 0, 0),
        Span("graphs.a", 2.0, 3.0, 1, 0),
        Span("family.b", 5.0, 9.0, 0, 0),
        Span("graphs.a", 6.0, 8.5, 3, 0),
    ]
    own = self_times(spans)
    assert own["trial"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own["family.a"] == pytest.approx(3.0 - 1.0)
    assert own["family.b"] == pytest.approx(4.0 - 2.5)
    assert own["graphs.a"] == pytest.approx(1.0 + 2.5)
    # self times partition the root span
    assert sum(own.values()) == pytest.approx(10.0)


def test_recorder_nests_spans_and_skips_layers_unless_traced():
    rec = Recorder(layers=True)
    rec.trial = 3
    with rec.span("trial"):
        with rec.span("family.x"):
            with rec.layer("graphs.x"):
                pass
    assert [(s.name, s.parent, s.trial) for s in rec.spans] == [
        ("trial", None, 3), ("family.x", 0, 3), ("graphs.x", 1, 3),
    ]
    assert all(s.end >= s.start for s in rec.spans)

    quiet = Recorder(layers=False)
    with quiet.span("trial"):
        with quiet.layer("graphs.x"):
            pass
    assert [s.name for s in quiet.spans] == ["trial"]


def test_probe_time_is_summed_apart_per_trial():
    rec = Recorder(layers=True)
    for t in (0, 1):
        rec.trial = t
        with rec.span("trial"):
            with rec.layer("graphs.x"):
                pass
            with rec.probe("graphs.y"):
                pass
    spans = {(s.name, s.trial): s for s in rec.spans}
    probe = spans["graphs.y", 1]
    assert probe.probe and not spans["graphs.x", 1].probe
    assert rec.seconds(1, probes=True) == pytest.approx(probe.end - probe.start)
    trial = spans["trial", 0]
    assert rec.seconds(0, ["trial"]) == pytest.approx(trial.end - trial.start)
    quiet = Recorder(layers=False)
    with quiet.probe("graphs.y"):
        pass
    assert quiet.spans == []


def test_setup_repeats_are_spread_between_trials(monkeypatch):
    events = []
    monkeypatch.setattr(run, "_setup_once", lambda env: events.append("setup") or 1.0)

    def trial_fn(seed, t, rec):
        events.append("trial")
        time.sleep(0.01)
        return t

    outcomes, walls = run._run_trials(trial_fn, 0, 0.12, None, setup={})
    assert walls == [1.0] * run.SETUP_REPEATS
    assert outcomes == list(range(len(outcomes)))
    assert events[0] == "setup"
    # repeats after the first trial and before the last one
    inner = events[events.index("trial"):len(events) - events[::-1].index("trial")]
    assert inner.count("setup") >= run.SETUP_REPEATS // 2


def test_run_trials_keeps_the_minimum_count():
    outcomes, walls = run._run_trials(lambda seed, t, rec: t, 0, 1e-9, None, min_trials=3)
    assert outcomes == [0, 1, 2] and walls == []


def test_clustered_points_are_deterministic_per_seed():
    a = wl.clustered_points(5, 0, Recorder(False))
    b = wl.clustered_points(5, 0, Recorder(False))
    c = wl.clustered_points(6, 0, Recorder(False))
    assert a.n == wl.CLUSTERS * wl.CLUSTER_N + wl.BACKGROUND_N
    assert np.array_equal(a.coords, b.coords)
    assert not np.array_equal(a.coords, c.coords)
    spots = wl.cluster_spots(wl.trial_generator(5, 0))
    clusters = a.coords[: wl.CLUSTERS * wl.CLUSTER_N].reshape(wl.CLUSTERS, wl.CLUSTER_N, 2)
    offsets = clusters - spots[:, None, :]
    assert (offsets >= 0.0).all() and (offsets <= wl.CLUSTER_SIDE).all()
    gaps = np.abs(spots[:, None, :] - spots[None, :, :]).max(axis=2)
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() >= 2 * wl.CLUSTER_GAP + wl.CLUSTER_SIDE


def test_other_trials_of_a_seed_draw_other_points():
    a = wl.clustered_points(5, 0, Recorder(False))
    b = wl.clustered_points(5, 1, Recorder(False))
    assert not np.array_equal(a.coords, b.coords)
    assert not np.array_equal(
        wl.cluster_spots(wl.trial_generator(5, 0)), wl.cluster_spots(wl.trial_generator(5, 1))
    )
    assert wl.cli_seed(5, 0) != wl.cli_seed(5, 1)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    emitted = {**run.END_TO_END, **run.PER_LAYER}
    for name in {**emitted, **run.CLI_LAYERS}:
        assert NAME.fullmatch(name), name
    assert emitted == declared
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert set(run.CLI_LAYERS).isdisjoint(declared)


def test_checks_catch_broken_outputs():
    pts = PointSet(np.random.default_rng(0).random((60, 2)))
    g = gabriel(pts)
    r = rng_graph(pts)
    missing = set(map(tuple, g.edges.tolist())) - set(map(tuple, r.edges.tolist()))
    extra = Graph(pts.n, np.vstack([r.edges, [sorted(missing)[0]]]))
    fan = DiGraph(pts.n, [(0, v) for v in range(1, 6)])

    good = wl.Outcome(0)
    wl.check_graphs(good, {"gabriel": g, "rng": r})
    wl.check_naive(good, pts)
    assert good.failures == {}
    assert set(good.digests) == {"gabriel.edges", "rng.edges"}

    bad = wl.Outcome(0)
    wl.check_graphs(bad, {"gabriel": r, "rng": extra, "yao4": fan})
    assert set(bad.failures) == {"rng", "yao4"}


def test_failures_outside_a_family_fail_the_whole_trial():
    o = wl.Outcome(0)
    o.fail("rng", "x")
    assert run._failed_units(o, wl.UNITS) == 1
    with o.guard("checks"):
        raise ValueError("boom")
    assert run._failed_units(o, wl.UNITS) == len(wl.UNITS)
