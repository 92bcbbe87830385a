"""Command line front end.

Subcommands: ``generate`` points, ``build`` a graph as an edge list,
``detect`` witness configurations, ``experiment`` for multi-trial
sweeps, ``stretch`` for the spanner ratio of one graph.

Output conventions: CSV outputs start with a single ``# manifest:``
comment carrying the parameters as compact JSON and are byte-for-byte
reproducible for equal inputs. JSON reports additionally carry a
``created`` timestamp. Floats are written with 17 significant digits so
values round-trip exactly.

Exit codes: 0 success, 2 usage problems, 1 runtime failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from ._version import VERSION
from .errors import ParameterError, ProxdegError
from .experiment import (
    MEASURES,
    ExperimentConfig,
    GraphKind,
    run_trials,
    sample_uniform,
    stretch_details,
    trial_generator,
)
from .geom import RECT_UNION, PointSet, Rect, Region
from .graphs import DiGraph, Graph, gabriel_naive
from .witness import (
    count_maxima,
    count_minima,
    find_jewels,
    find_staircases,
    jewel_scale,
    staircase_scale,
)

_SUPPORTS = ("unit-square", "rotated-square", "rect-union")
_GRAPHS = ("gabriel", "rng", "yao", "udg")


class _UsageError(Exception):
    """Command line is syntactically fine but semantically unusable."""


def _manifest_line(payload: dict) -> str:
    return "# manifest: " + json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _write_text(out, text: str):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as f:
            f.write(text)


def _write_json(out, payload: dict):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _write_text(out, text)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _region_from(args) -> Region:
    try:
        if args.support == "unit-square":
            return Region.unit_square()
        if args.support == "rotated-square":
            return Region.rotated_square()
        if not args.rects:
            raise _UsageError("rect-union regions need --rects 'x0,y0,x1,y1;...'")
        rects = []
        for part in args.rects.split(";"):
            vals = part.split(",")
            if len(vals) != 4:
                raise _UsageError(f"bad rectangle {part!r}, expected x0,y0,x1,y1")
            try:
                nums = [float(v) for v in vals]
            except ValueError:
                raise _UsageError(f"bad rectangle {part!r}, expected numbers") from None
            rects.append(Rect(*nums))
        return Region.rect_union(rects)
    except ParameterError as e:
        raise _UsageError(str(e)) from None


def _describe_region(region: Region) -> dict:
    d: dict = {"kind": region.kind}
    if region.kind == RECT_UNION:
        d["rects"] = [[r.xmin, r.ymin, r.xmax, r.ymax] for r in region.rects]
    return d


def _check_graph_flags(names, args):
    """A graph flag that no listed kind takes is a usage error, not a
    flag silently dropped."""
    if "yao" not in names and (args.p is not None or args.offset is not None):
        raise _UsageError("--p and --offset apply only to --graph yao")
    if "udg" not in names and args.radius is not None:
        raise _UsageError("--radius applies only to --graph udg")


def _graph_kind(args) -> GraphKind:
    names = [s.strip() for s in args.graph.split(",") if s.strip()]
    if not names:
        raise _UsageError("--graph needs at least one kind")
    _check_graph_flags(names, args)
    offset = 0.0 if args.offset is None else args.offset
    kinds = []
    try:
        for nm in names:
            if nm == "yao":
                kinds.append(GraphKind("yao", p=args.p, offset=offset))
            elif nm == "udg":
                kinds.append(GraphKind("udg", radius=args.radius))
            elif nm in ("gabriel", "rng"):
                kinds.append(GraphKind(nm))
            else:
                raise _UsageError(f"unknown graph kind {nm!r}")
        if len(kinds) == 1:
            return kinds[0]
        return GraphKind("intersection", parts=tuple(kinds))
    except ParameterError as e:
        raise _UsageError(str(e)) from None


def _read_pairs(path, split, convert, shape, what) -> list:
    """The rows of a two-column text file, blank lines and '#' comments
    skipped. ``split`` cuts a line into fields and ``convert`` reads each;
    ``shape`` and ``what`` name the fields and their type in errors."""
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = split(line)
            if len(parts) != 2:
                raise ParameterError(f"{path}:{lineno}: expected {shape!r}, got {line!r}")
            try:
                rows.append((convert(parts[0]), convert(parts[1])))
            except ValueError:
                raise ParameterError(
                    f"{path}:{lineno}: expected {what}, got {line!r}"
                ) from None
    return rows


def _read_points(path) -> PointSet:
    """Read a points CSV ('x,y' per line)."""
    return PointSet(_read_pairs(path, lambda line: line.split(","), float, "x,y", "numbers"))


def _points_text(pts: PointSet, manifest: dict) -> str:
    lines = [_manifest_line(manifest)]
    for x, y in pts.coords:
        lines.append(f"{x:.17g},{y:.17g}")
    return "\n".join(lines) + "\n"


def _edges_text(edges: np.ndarray, manifest: dict) -> str:
    lines = [_manifest_line(manifest)]
    for u, v in edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def _read_edges(path, n: int) -> Graph:
    """Read an edge-list file ('i j' per line, '#' comments skipped) as an
    undirected graph on n vertices; directed files collapse to their
    undirected view."""
    return Graph(n, _read_pairs(
        path, lambda line: line.replace(",", " ").split(), int, "i j", "integers"
    ))


def _parse_n_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(int(part))
        except ValueError:
            raise _UsageError(f"bad n value {part!r}") from None
    if not out:
        raise _UsageError("--n needs at least one value")
    return out


def _resolve_workers(args) -> int:
    if args.workers is not None:
        return args.workers
    env = os.environ.get("PROXDEG_WORKERS", "1")
    try:
        return int(env)
    except ValueError:
        raise ParameterError(f"PROXDEG_WORKERS must be an int, got {env!r}") from None


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_generate(args) -> int:
    region = _region_from(args)
    rng = trial_generator(args.seed, args.trial)
    pts = sample_uniform(region, args.n, rng)
    manifest = {
        "command": "generate",
        "n": args.n,
        "support": _describe_region(region),
        "seed": args.seed,
        "trial": args.trial,
        "version": VERSION,
    }
    _write_text(args.out, _points_text(pts, manifest))
    return 0


def _cmd_build(args) -> int:
    pts = _read_points(args.points)
    if args.graph.strip() == "gabriel-naive":
        _check_graph_flags(["gabriel-naive"], args)
        g = gabriel_naive(pts)
        kind_echo = {"kind": "gabriel-naive"}
    else:
        kind = _graph_kind(args)
        g = kind.build(pts)
        kind_echo = kind.describe()
    manifest = {
        "command": "build",
        "graph": kind_echo,
        "n": pts.n,
        "directed": isinstance(g, DiGraph),
        "edges": g.edge_count,
        "version": VERSION,
    }
    _write_text(args.out, _edges_text(g.edges, manifest))
    return 0


def _cmd_detect(args) -> int:
    if args.witness is None and not args.maxima and not args.minima:
        raise _UsageError("nothing to detect: pass --witness, --maxima, or --minima")
    pts = _read_points(args.points)
    payload: dict = {
        "command": "detect",
        "created": _now(),
        "n": pts.n,
        "version": VERSION,
    }
    if args.witness is not None:
        if args.witness == "jewel":
            idx = find_jewels(pts, args.c)
            k, r = jewel_scale(pts.n, args.c)
        else:
            idx = find_staircases(pts, args.c)
            k, r = staircase_scale(pts.n, args.c)
        hit = np.zeros(pts.n, dtype=bool)
        hit[idx] = True
        payload.update({
            "witness": args.witness,
            "c": args.c,
            "k": k,
            "r": r,
            "count": int(len(idx)),
            "per_index": [bool(b) for b in hit],
        })
    if args.maxima:
        payload["maxima"] = count_maxima(pts)
    if args.minima:
        payload["minima"] = count_minima(pts)
    _write_json(args.out, payload)
    return 0


def _raw_value(v) -> str:
    if isinstance(v, tuple):
        return ";".join(str(int(x)) for x in v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{v:.17g}"


def _cmd_experiment(args) -> int:
    kind = _graph_kind(args)
    region = _region_from(args)
    ns = _parse_n_list(args.n)
    measures = tuple(args.measure) if args.measure else ("max_degree",)
    workers = _resolve_workers(args)
    # the parameters both outputs echo
    echo = {
        "command": "experiment",
        "graph_kind": kind.describe(),
        "support": _describe_region(region),
        "n": ns,
        "trials": args.trials,
        "seed": args.seed,
        "measures": list(measures),
        "version": VERSION,
    }
    results = []
    raw_rows = []
    for n in ns:
        config = ExperimentConfig(
            graph_kind=kind,
            support=region,
            n=n,
            trials=args.trials,
            seed=args.seed,
            measures=measures,
            workers=workers,
            jewel_c=args.jewel_c,
            staircase_c=args.staircase_c,
        )
        t0 = time.perf_counter()
        res = run_trials(config)
        dt = time.perf_counter() - t0
        print(
            f"[experiment] n={n} trials={args.trials} done in {dt:.1f}s",
            file=sys.stderr,
        )
        results.append({
            "n": n,
            "elapsed_s": dt,
            "stats": {m: asdict(st) for m, st in res.stats.items()},
        })
        for t in res.trials:
            vals = ",".join(_raw_value(t.values[m]) for m in measures)
            raw_rows.append(f"{n},{t.trial},{vals}")
    if args.raw_out is not None:
        header = "n,trial," + ",".join(measures)
        lines = [_manifest_line(echo), header]
        lines.extend(raw_rows)
        _write_text(args.raw_out, "\n".join(lines) + "\n")
    payload = {
        **echo,
        "created": _now(),
        "jewel_c": args.jewel_c,
        "staircase_c": args.staircase_c,
        "workers": workers,
        "results": results,
    }
    _write_json(args.out, payload)
    return 0


def _cmd_stretch(args) -> int:
    pts = _read_points(args.points)
    if args.graph_file is not None:
        if args.graph is not None:
            raise _UsageError("pass either --graph-file or --graph, not both")
        g = _read_edges(args.graph_file, pts.n)
        kind_echo = {"kind": "file", "path": args.graph_file}
    elif args.graph is not None:
        kind = _graph_kind(args)
        g = kind.build(pts)
        kind_echo = kind.describe()
    else:
        raise _UsageError("stretch needs --graph-file or inline --graph flags")
    val, (u, v) = stretch_details(g, pts)
    payload = {
        "command": "stretch",
        "graph": kind_echo,
        "n": pts.n,
        "stretch": val,
        "worst_pair": [u, v],
        "version": VERSION,
    }
    if args.p is not None:
        # the closed-form guarantee only exists for p >= 7; testing the
        # denominator's sign instead would leak a bogus bound at p = 6,
        # where 1 - 2*sin(pi/6) rounds to a sliver above zero
        if args.p >= 7:
            payload["bound"] = 1.0 / (1.0 - 2.0 * math.sin(math.pi / args.p))
        else:
            payload["bound"] = None
    _write_json(args.out, payload)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_support_flags(sp):
    sp.add_argument("--support", choices=_SUPPORTS, default="unit-square",
                    help="sampling support (default unit-square)")
    sp.add_argument("--rects", default=None,
                    help="rect-union geometry: 'x0,y0,x1,y1;x0,y0,x1,y1;...'")


def _add_graph_flags(sp, required=True, naive=False):
    kinds = _GRAPHS + ("gabriel-naive",) if naive else _GRAPHS
    sp.add_argument("--graph", required=required, default=None,
                    help="graph kind, or comma-joined kinds for their intersection: "
                         + ", ".join(kinds))
    sp.add_argument("--p", type=int, default=None, help="cone count for yao")
    sp.add_argument("--offset", type=float, default=None,
                    help="cone offset angle in [0, 2*pi) for yao (default 0)")
    sp.add_argument("--radius", type=float, default=None,
                    help="threshold distance for udg")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxdeg",
        description="proximity graphs over random planar point sets: "
                    "builders, witness detectors, Monte Carlo experiments",
    )
    parser.add_argument("--version", action="version", version=f"proxdeg {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("generate", help="sample points and write a CSV")
    _add_support_flags(sp)
    sp.add_argument("--n", type=int, required=True, help="number of points")
    sp.add_argument("--seed", type=int, required=True, help="master seed")
    sp.add_argument("--trial", type=int, default=0, help="trial index (default 0)")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.set_defaults(fn=_cmd_generate)

    sp = sub.add_parser("build", help="build a graph over a points CSV")
    _add_graph_flags(sp, naive=True)
    sp.add_argument("--points", required=True, help="points CSV path")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.set_defaults(fn=_cmd_build)

    sp = sub.add_parser("detect", help="witness configurations and extrema counts")
    sp.add_argument("--points", required=True, help="points CSV path")
    sp.add_argument("--witness", choices=("jewel", "staircase"), default=None,
                    help="witness census to run (needs n >= 16, unit-square data)")
    sp.add_argument("--c", type=float, default=1.0,
                    help="scale constant in the witness size (default 1.0)")
    sp.add_argument("--maxima", action="store_true",
                    help="also count coordinatewise maximal points")
    sp.add_argument("--minima", action="store_true",
                    help="also count coordinatewise minimal points")
    sp.add_argument("--out", default=None, help="JSON report path (default stdout)")
    sp.set_defaults(fn=_cmd_detect)

    sp = sub.add_parser("experiment", help="multi-trial measurement sweep")
    _add_graph_flags(sp)
    _add_support_flags(sp)
    sp.add_argument("--n", required=True,
                    help="point counts, comma separated, e.g. 1000,10000")
    sp.add_argument("--trials", type=int, required=True, help="trials per n")
    sp.add_argument("--seed", type=int, required=True, help="master seed")
    sp.add_argument("--measure", action="append", choices=MEASURES, default=None,
                    help="measure to record, repeatable (default max_degree)")
    sp.add_argument("--jewel-c", type=float, default=1.0, dest="jewel_c")
    sp.add_argument("--staircase-c", type=float, default=1.0, dest="staircase_c")
    sp.add_argument("--workers", type=int, default=None,
                    help="process count (default $PROXDEG_WORKERS or 1)")
    sp.add_argument("--out", default=None, help="JSON report path (default stdout)")
    sp.add_argument("--raw-out", default=None, dest="raw_out",
                    help="also write per-trial values as a deterministic CSV")
    sp.set_defaults(fn=_cmd_experiment)

    sp = sub.add_parser("stretch", help="spanner ratio of one graph")
    _add_graph_flags(sp, required=False)
    sp.add_argument("--points", required=True, help="points CSV path")
    sp.add_argument("--graph-file", default=None, dest="graph_file",
                    help="edge-list file to read instead of building a graph")
    sp.add_argument("--out", default=None, help="JSON output path (default stdout)")
    sp.set_defaults(fn=_cmd_stretch)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.fn(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ProxdegError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
