"""In-memory spans and counters recorded around the benchmark's calls
into the library.

A span holds its name, start and end (``time.perf_counter`` seconds),
the index of the span that was open when it started, and the trial it
belongs to. Spans are kept in a list and written out when the run ends.

Two kinds of span share one recorder. ``span`` is always recorded: the
benchmark times whole trials and whole graph families with it, which
gives the end-to-end figures. ``layer`` is recorded only by a traced
recorder: it wraps a single call into one library layer, which gives the
per-layer self times. ``probe`` is a layer span around a call the
benchmark makes only when tracing, to time work the library does inside
another call; the trace overhead leaves probe time out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

_NO_SPAN = nullcontext()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trial: int | None
    probe: bool = False


class Recorder:
    """Collects spans and counts for one pass over the trials."""

    def __init__(self, layers: bool):
        self.layers = layers
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.trial: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, probe: bool = False):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        rec = Span(name, time.perf_counter(), float("nan"), parent, self.trial, probe)
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def layer(self, name: str):
        """A span around one call into a library layer; a no-op unless
        this recorder traces layers."""
        return self.span(name) if self.layers else _NO_SPAN

    def probe(self, name: str):
        """A layer span around a call made only because this recorder
        traces layers."""
        return self.span(name, probe=True) if self.layers else _NO_SPAN

    def count(self, name: str, value: int):
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def seconds(self, trial: int, names=None, probes: bool = False) -> float:
        """Summed duration of one trial's spans: those named in ``names``,
        or the probes when ``probes`` is set."""
        return sum(
            s.end - s.start for s in self.spans
            if s.trial == trial and (s.probe if probes else s.name in names)
        )

    def as_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of its direct children. A grandchild is already inside its
    parent's duration, so it is subtracted once, from its own parent."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered[i]
    return out
