"""Command line interface: schemas, determinism and exit codes.

Each test drives ``main(argv)`` in process; one smoke test execs the
installed console script. Exit code expectations: 0 success, 2 for
unusable command lines, 1 for runtime failures.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import proxdeg.experiment
from proxdeg import PointSet, jewel_scale, staircase_scale
from proxdeg.cli import main

from conftest import die_in_worker
from test_witness import planted_jewel_set, planted_staircase_set


def write_points(path, coords):
    with open(path, "w") as f:
        for x, y in coords:
            f.write(f"{x!r},{y!r}\n")
    return str(path)


def read_lines(path):
    with open(path) as f:
        return f.read().splitlines()


def data_lines(path):
    return [ln for ln in read_lines(path) if not ln.startswith("#")]


def manifest_of(path):
    first = read_lines(path)[0]
    assert first.startswith("# manifest: ")
    return json.loads(first[len("# manifest: "):])


SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


# ---------------------------------------------------------------------------
# generate


class TestGenerate:
    def test_writes_manifest_and_rows(self, tmp_path):
        out = str(tmp_path / "pts.csv")
        rc = main(["generate", "--n", "5", "--seed", "3", "--out", out])
        assert rc == 0
        m = manifest_of(out)
        assert m["command"] == "generate"
        assert m["n"] == 5
        assert m["seed"] == 3
        assert m["trial"] == 0
        assert m["support"] == {"kind": "unit-square"}
        rows = data_lines(out)
        assert len(rows) == 5
        for row in rows:
            x, y = (float(v) for v in row.split(","))
            assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0

    def test_byte_deterministic(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        argv = ["generate", "--n", "64", "--seed", "11", "--trial", "2"]
        assert main(argv + ["--out", a]) == 0
        assert main(argv + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_zero_points_is_manifest_only(self, tmp_path):
        out = str(tmp_path / "pts.csv")
        assert main(["generate", "--n", "0", "--seed", "1", "--out", out]) == 0
        assert data_lines(out) == []

    def test_round_trips_exactly_through_build(self, tmp_path):
        # 17 significant digits reproduce the doubles bit for bit, so a
        # graph built from the file equals one built in memory
        from proxdeg import gabriel
        from proxdeg.cli import _read_points
        from proxdeg.experiment import sample_uniform, trial_generator

        out = str(tmp_path / "pts.csv")
        assert main(["generate", "--n", "80", "--seed", "13", "--out", out]) == 0
        back = _read_points(out)
        direct = sample_uniform(
            __import__("proxdeg").Region.unit_square(), 80, trial_generator(13, 0)
        )
        assert np.array_equal(back.coords, direct.coords)
        assert gabriel(back) == gabriel(direct)

    def test_rotated_square_support(self, tmp_path):
        out = str(tmp_path / "pts.csv")
        rc = main([
            "generate", "--support", "rotated-square",
            "--n", "50", "--seed", "5", "--out", out,
        ])
        assert rc == 0
        assert manifest_of(out)["support"] == {"kind": "rotated-square"}

    def test_rect_union_needs_rects(self, tmp_path):
        rc = main([
            "generate", "--support", "rect-union", "--n", "5", "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2

    def test_rect_union_support(self, tmp_path):
        out = str(tmp_path / "pts.csv")
        rc = main([
            "generate", "--support", "rect-union",
            "--rects", "0,0,1,0.5;0,0.5,0.5,1",
            "--n", "200", "--seed", "9", "--out", out,
        ])
        assert rc == 0
        m = manifest_of(out)
        assert m["support"]["kind"] == "rect-union"
        assert len(m["support"]["rects"]) == 2
        for row in data_lines(out):
            x, y = (float(v) for v in row.split(","))
            assert (y <= 0.5 and x <= 1.0) or (y >= 0.5 and x <= 0.5)

    def test_missing_seed_is_usage_error(self, tmp_path):
        assert main(["generate", "--n", "5"]) == 2

    def test_bad_rects_are_usage_errors(self, tmp_path):
        base = ["generate", "--support", "rect-union", "--n", "5", "--seed", "1"]
        assert main(base + ["--rects", "0,0,1"]) == 2
        assert main(base + ["--rects", "0,0,one,1"]) == 2
        assert main(base + ["--rects", "1,0,0,1"]) == 2


# ---------------------------------------------------------------------------
# build


class TestBuild:
    def test_two_points_single_edge(self, tmp_path):
        pts = write_points(tmp_path / "p.csv", [(0.0, 0.0), (1.0, 0.0)])
        out = str(tmp_path / "e.txt")
        rc = main(["build", "--graph", "gabriel", "--points", pts, "--out", out])
        assert rc == 0
        assert data_lines(out) == ["0 1"]
        m = manifest_of(out)
        assert m["graph"] == {"kind": "gabriel"}
        assert m["directed"] is False
        assert m["edges"] == 1

    def test_edges_sorted_as_integer_pairs(self, tmp_path):
        rng = np.random.default_rng(2)
        pts = write_points(tmp_path / "p.csv", rng.random((40, 2)).tolist())
        out = str(tmp_path / "e.txt")
        assert main(["build", "--graph", "gabriel", "--points", pts, "--out", out]) == 0
        pairs = [tuple(int(v) for v in ln.split()) for ln in data_lines(out)]
        assert pairs == sorted(pairs)
        assert all(u < v for u, v in pairs)

    def test_naive_reference_matches_fast_builder(self, tmp_path):
        # identical edge lines; manifests differ only in the graph echo
        rng = np.random.default_rng(3)
        pts = write_points(tmp_path / "p.csv", rng.random((120, 2)).tolist())
        fast = str(tmp_path / "fast.txt")
        slow = str(tmp_path / "slow.txt")
        assert main(["build", "--graph", "gabriel", "--points", pts, "--out", fast]) == 0
        assert main(["build", "--graph", "gabriel-naive", "--points", pts, "--out", slow]) == 0
        assert data_lines(fast) == data_lines(slow)
        assert manifest_of(slow)["graph"] == {"kind": "gabriel-naive"}

    def test_directed_output_for_cone_graph(self, tmp_path):
        pts = write_points(
            tmp_path / "p.csv", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        )
        out = str(tmp_path / "e.txt")
        rc = main(["build", "--graph", "yao", "--p", "4", "--points", pts, "--out", out])
        assert rc == 0
        m = manifest_of(out)
        assert m["directed"] is True
        assert m["edges"] == len(data_lines(out))

    def test_single_point_has_no_edges(self, tmp_path):
        pts = write_points(tmp_path / "p.csv", [(0.5, 0.5)])
        out = str(tmp_path / "e.txt")
        rc = main(["build", "--graph", "yao", "--p", "6", "--points", pts, "--out", out])
        assert rc == 0
        assert data_lines(out) == []

    def test_intersection_of_kinds(self, tmp_path):
        rng = np.random.default_rng(4)
        pts = write_points(tmp_path / "p.csv", rng.random((30, 2)).tolist())
        out_g = str(tmp_path / "g.txt")
        out_i = str(tmp_path / "i.txt")
        assert main(["build", "--graph", "gabriel", "--points", pts, "--out", out_g]) == 0
        rc = main([
            "build", "--graph", "gabriel,udg", "--radius", "2.0",
            "--points", pts, "--out", out_i,
        ])
        assert rc == 0
        assert data_lines(out_i) == data_lines(out_g)
        assert manifest_of(out_i)["graph"]["kind"] == "intersection"

    def test_usage_errors(self, tmp_path):
        pts = write_points(tmp_path / "p.csv", [(0.0, 0.0), (1.0, 0.0)])
        assert main(["build", "--graph", "delaunay", "--points", pts]) == 2
        assert main(["build", "--graph", "yao", "--points", pts]) == 2
        assert main(["build", "--graph", "udg", "--points", pts]) == 2
        assert main(["build", "--points", pts]) == 2

    @pytest.mark.parametrize(
        "graph, flags",
        [
            ("gabriel", ["--offset", "1.0", "--p", "5"]),
            ("gabriel", ["--p", "4"]),
            ("rng", ["--offset", "0.0"]),
            ("gabriel-naive", ["--p", "4"]),
            ("udg", ["--radius", "0.5", "--p", "4"]),
            ("gabriel,rng", ["--offset", "0.3"]),
            ("yao", ["--p", "4", "--radius", "0.5"]),
            ("gabriel", ["--radius", "0.5"]),
        ],
    )
    def test_flag_no_listed_kind_takes(self, tmp_path, graph, flags):
        # a flag that no listed kind takes is a usage error, not dropped
        pts = write_points(tmp_path / "p.csv", [(0.0, 0.0), (1.0, 0.0), (0.3, 0.7)])
        assert main(["build", "--graph", graph, "--points", pts] + flags) == 2

    @pytest.mark.parametrize(
        "graph, flags",
        [
            ("gabriel,yao", ["--p", "4"]),
            ("yao", ["--p", "4", "--offset", "0.3"]),
            ("udg,yao", ["--radius", "2.0", "--p", "3"]),
        ],
    )
    def test_flags_of_a_listed_kind(self, tmp_path, graph, flags):
        pts = write_points(tmp_path / "p.csv", [(0.0, 0.0), (1.0, 0.0), (0.3, 0.7)])
        out = str(tmp_path / "e.csv")
        assert main(["build", "--graph", graph, "--points", pts, "--out", out] + flags) == 0

    def test_runtime_errors(self, tmp_path):
        missing = str(tmp_path / "nope.csv")
        assert main(["build", "--graph", "gabriel", "--points", missing]) == 1
        bad = tmp_path / "bad.csv"
        bad.write_text("0.1,0.2\nhello\n")
        assert main(["build", "--graph", "gabriel", "--points", str(bad)]) == 1
        dup = write_points(tmp_path / "dup.csv", [(0.1, 0.2), (0.1, 0.2)])
        assert main(["build", "--graph", "gabriel", "--points", dup]) == 1


# ---------------------------------------------------------------------------
# detect


class TestDetect:
    def test_extrema_only(self, tmp_path, capsys):
        pts = write_points(tmp_path / "p.csv", [(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)])
        rc = main(["detect", "--points", pts, "--maxima", "--minima"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "detect"
        assert payload["n"] == 3
        assert payload["maxima"] == 3
        assert payload["minima"] == 3
        assert "witness" not in payload
        assert "created" in payload

    def test_jewel_census_schema(self, tmp_path):
        pts, _ = planted_jewel_set()
        path = write_points(tmp_path / "p.csv", pts.coords.tolist())
        out = str(tmp_path / "r.json")
        rc = main(["detect", "--points", path, "--witness", "jewel", "--out", out])
        assert rc == 0
        payload = json.loads(open(out).read())
        k, r = jewel_scale(pts.n)
        assert payload["witness"] == "jewel"
        assert payload["c"] == 1.0
        assert payload["k"] == k
        assert payload["r"] == pytest.approx(r, rel=1e-15)
        assert payload["count"] == 1
        assert payload["per_index"][0] is True
        assert len(payload["per_index"]) == pts.n
        assert sum(payload["per_index"]) == 1

    def test_staircase_census_schema(self, tmp_path):
        pts, _ = planted_staircase_set()
        path = write_points(tmp_path / "p.csv", pts.coords.tolist())
        out = str(tmp_path / "r.json")
        rc = main(["detect", "--points", path, "--witness", "staircase", "--out", out])
        assert rc == 0
        payload = json.loads(open(out).read())
        k, r = staircase_scale(pts.n)
        assert payload["witness"] == "staircase"
        assert payload["k"] == k
        assert payload["count"] == 1
        assert payload["per_index"][0] is True

    def test_census_with_extrema_together(self, tmp_path, capsys):
        pts, _ = planted_jewel_set()
        path = write_points(tmp_path / "p.csv", pts.coords.tolist())
        rc = main(["detect", "--points", path, "--witness", "jewel", "--maxima"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["maxima"] >= 1

    def test_no_mode_is_usage_error(self, tmp_path):
        pts = write_points(tmp_path / "p.csv", [(0.0, 0.0), (1.0, 1.0)])
        assert main(["detect", "--points", pts]) == 2

    def test_census_on_tiny_set_is_runtime_error(self, tmp_path):
        pts = write_points(
            tmp_path / "p.csv", [(i / 20.0, 0.5) for i in range(15)]
        )
        assert main(["detect", "--points", pts, "--witness", "jewel"]) == 1

    def test_bad_witness_choice(self, tmp_path):
        pts = write_points(tmp_path / "p.csv", [(0.0, 0.0)])
        assert main(["detect", "--points", pts, "--witness", "ring"]) == 2


# ---------------------------------------------------------------------------
# experiment


class TestExperiment:
    def run_small(self, tmp_path, tag, extra=()):
        out = str(tmp_path / f"{tag}.json")
        raw = str(tmp_path / f"{tag}.csv")
        argv = [
            "experiment", "--graph", "gabriel",
            "--n", "40,60", "--trials", "3", "--seed", "21",
            "--measure", "max_degree", "--measure", "edge_count",
            "--measure", "degree_histogram",
            "--out", out, "--raw-out", raw,
        ]
        rc = main(argv + list(extra))
        assert rc == 0
        return out, raw

    def test_dead_worker_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(proxdeg.experiment, "_run_one", die_in_worker)
        rc = main([
            "experiment", "--graph", "gabriel", "--n", "40", "--trials", "2",
            "--seed", "21", "--workers", "2", "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: trial 0: worker process died")

    def test_json_report_schema(self, tmp_path):
        out, _ = self.run_small(tmp_path, "a")
        payload = json.loads(open(out).read())
        assert payload["command"] == "experiment"
        assert payload["graph_kind"] == {"kind": "gabriel"}
        assert payload["support"] == {"kind": "unit-square"}
        assert payload["n"] == [40, 60]
        assert payload["trials"] == 3
        assert payload["workers"] == 1
        assert [r["n"] for r in payload["results"]] == [40, 60]
        st = payload["results"][0]["stats"]
        assert set(st) == {"max_degree", "edge_count", "degree_histogram"}
        md = st["max_degree"]
        assert set(md) == {"mean", "sd", "min", "max", "raw"}
        assert len(md["raw"]) == 3
        assert st["degree_histogram"]["mean"] is None
        assert isinstance(st["degree_histogram"]["raw"][0], list)

    def test_raw_csv_layout(self, tmp_path):
        _, raw = self.run_small(tmp_path, "b")
        lines = read_lines(raw)
        m = json.loads(lines[0][len("# manifest: "):])
        assert m["command"] == "experiment"
        assert m["graph_kind"] == {"kind": "gabriel"}
        assert m["n"] == [40, 60]
        assert lines[1] == "n,trial,max_degree,edge_count,degree_histogram"
        rows = lines[2:]
        assert len(rows) == 6
        keys = [tuple(int(v) for v in r.split(",")[:2]) for r in rows]
        assert keys == [(40, 0), (40, 1), (40, 2), (60, 0), (60, 1), (60, 2)]
        hist = rows[0].split(",")[4]
        assert all(part.isdigit() for part in hist.split(";"))
        assert sum(int(part) for part in hist.split(";")) == 40

    def test_raw_csv_byte_deterministic(self, tmp_path):
        _, raw1 = self.run_small(tmp_path, "c")
        _, raw2 = self.run_small(tmp_path, "d")
        assert open(raw1, "rb").read() == open(raw2, "rb").read()

    def test_json_deterministic_up_to_timestamp(self, tmp_path):
        out1, _ = self.run_small(tmp_path, "e")
        out2, _ = self.run_small(tmp_path, "f")
        p1 = json.loads(open(out1).read())
        p2 = json.loads(open(out2).read())
        del p1["created"], p2["created"]
        for p in (p1, p2):
            for r in p["results"]:
                del r["elapsed_s"]
        assert p1 == p2

    def test_workers_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PROXDEG_WORKERS", "2")
        out, _ = self.run_small(tmp_path, "g")
        assert json.loads(open(out).read())["workers"] == 2

    def test_workers_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PROXDEG_WORKERS", "2")
        out, _ = self.run_small(tmp_path, "h", extra=["--workers", "1"])
        assert json.loads(open(out).read())["workers"] == 1

    def test_bad_workers_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PROXDEG_WORKERS", "many")
        rc = main([
            "experiment", "--graph", "gabriel", "--n", "20",
            "--trials", "1", "--seed", "1",
        ])
        assert rc == 1

    def test_stretch_measure_over_threshold_graph(self, tmp_path):
        out = str(tmp_path / "s.json")
        rc = main([
            "experiment", "--graph", "udg", "--radius", "0.6",
            "--n", "30", "--trials", "2", "--seed", "8",
            "--measure", "stretch", "--out", out,
        ])
        assert rc == 0
        st = json.loads(open(out).read())["results"][0]["stats"]["stretch"]
        assert st["min"] >= 1.0

    def test_usage_errors(self):
        assert main(["experiment", "--graph", "yao", "--n", "20",
                     "--trials", "1", "--seed", "1"]) == 2
        assert main(["experiment", "--graph", "gabriel", "--n", "",
                     "--trials", "1", "--seed", "1"]) == 2
        assert main(["experiment", "--graph", "gabriel", "--n", "10,abc",
                     "--trials", "1", "--seed", "1"]) == 2
        assert main(["experiment", "--graph", "gabriel", "--n", "20",
                     "--trials", "1", "--seed", "1",
                     "--measure", "entropy"]) == 2

    def test_config_errors_are_runtime(self):
        assert main(["experiment", "--graph", "gabriel", "--n", "20",
                     "--trials", "0", "--seed", "1"]) == 1
        # a census constant is checked with the config, census or not
        assert main(["experiment", "--graph", "gabriel", "--n", "20",
                     "--trials", "1", "--seed", "1", "--jewel-c", "0"]) == 1


# ---------------------------------------------------------------------------
# stretch


class TestStretchCommand:
    def square_files(self, tmp_path):
        pts = write_points(tmp_path / "p.csv", SQUARE)
        edges = tmp_path / "g.txt"
        edges.write_text("# sides only\n0 1\n1 2\n2 3\n0 3\n")
        return pts, str(edges)

    def test_from_edge_file(self, tmp_path, capsys):
        pts, edges = self.square_files(tmp_path)
        rc = main(["stretch", "--points", pts, "--graph-file", edges])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stretch"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert payload["worst_pair"] == [0, 2]
        assert payload["graph"]["kind"] == "file"
        assert "bound" not in payload

    def test_edge_file_tolerates_commas(self, tmp_path, capsys):
        pts = write_points(tmp_path / "p.csv", SQUARE)
        edges = tmp_path / "g.txt"
        edges.write_text("0,1\n1,2\n2,3\n0,3\n")
        assert main(["stretch", "--points", pts, "--graph-file", str(edges)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stretch"] == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_inline_graph_with_bound(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        pts = write_points(tmp_path / "p.csv", rng.random((60, 2)).tolist())
        rc = main(["stretch", "--points", pts, "--graph", "yao", "--p", "8"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        bound = 1.0 / (1.0 - 2.0 * math.sin(math.pi / 8.0))
        assert payload["bound"] == pytest.approx(bound, rel=1e-12)
        assert 1.0 <= payload["stretch"] <= payload["bound"]
        assert payload["graph"]["kind"] == "yao"

    def test_no_closed_form_bound_for_few_cones(self, tmp_path, capsys):
        # 1 - 2*sin(pi/p) is nonpositive up to p = 6, so no guarantee
        rng = np.random.default_rng(7)
        pts = write_points(tmp_path / "p.csv", rng.random((30, 2)).tolist())
        rc = main(["stretch", "--points", pts, "--graph", "yao", "--p", "6"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["bound"] is None

    def test_graph_source_is_exclusive(self, tmp_path):
        pts, edges = self.square_files(tmp_path)
        assert main(["stretch", "--points", pts]) == 2
        assert main([
            "stretch", "--points", pts, "--graph", "gabriel",
            "--graph-file", edges,
        ]) == 2

    def test_disconnected_graph_is_runtime_error(self, tmp_path, capsys):
        pts = write_points(tmp_path / "p.csv", SQUARE)
        edges = tmp_path / "g.txt"
        edges.write_text("0 1\n2 3\n")
        rc = main(["stretch", "--points", pts, "--graph-file", str(edges)])
        assert rc == 1
        assert "unreachable" in capsys.readouterr().err

    def test_overflowing_distance_is_runtime_error(self, tmp_path, capsys):
        # a connected star whose path 0-1-2 overflows: an error, not a
        # disconnection and not a NaN in the JSON
        pts = write_points(tmp_path / "p.csv", [(-1e308, 0.0), (0.0, 0.0), (1e308, 0.0), (0.0, 1e308)])
        edges = tmp_path / "g.txt"
        edges.write_text("1 0\n1 2\n1 3\n")
        rc = main(["stretch", "--points", pts, "--graph-file", str(edges)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "overflows" in err

    def test_bad_edge_file(self, tmp_path):
        pts = write_points(tmp_path / "p.csv", SQUARE)
        edges = tmp_path / "g.txt"
        edges.write_text("0 1 2\n")
        assert main(["stretch", "--points", pts, "--graph-file", str(edges)]) == 1
        edges.write_text("0 9\n")
        assert main(["stretch", "--points", pts, "--graph-file", str(edges)]) == 1

    def test_vertex_beyond_int64_is_runtime_error(self, tmp_path, capsys):
        pts = write_points(tmp_path / "p.csv", SQUARE)
        edges = tmp_path / "g.txt"
        edges.write_text("0 99999999999999999999\n")
        assert main(["stretch", "--points", pts, "--graph-file", str(edges)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# entry points


def test_no_subcommand_is_usage_error():
    assert main([]) == 2


def test_installed_script_reports_version():
    from proxdeg import __version__

    res = subprocess.run(
        [sys.executable, "-m", "proxdeg.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert res.stdout.strip() == f"proxdeg {__version__}"
