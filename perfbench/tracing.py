"""Traced in-process run of ``iccflow analyze`` with per-layer spans.

The run calls the public ``parser``/``icc`` functions in the order the
``analyze`` command does, then ``taint.analyze`` with the names it looks up
in its module globals wrapped, so every app window records a span per layer
without any analysis code being reimplemented. The wrapped names are put
back when the run ends, whatever happens.

Spans and counters are kept in memory. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from iccflow import taint
from iccflow.icc import TOP, match_links, resolve_intent_values
from iccflow.parser import corpus_files, load_corpus
from iccflow.taint import load_config, render_report

# Layers with a self time, in pipeline order; "analyze" is the orchestration
# inside taint.analyze and "window" that of one app window.
LAYERS = ("parse", "resolve", "match", "split", "merge", "instrument", "build_cfg",
          "propagate", "extract_paths", "render", "analyze", "window")
FRONT_END = ("parse", "resolve", "match")
COUNTERS = ("parse.apps", "parse.stmts", "resolve.sites", "resolve.sites_top", "match.links",
            "match.links_fuzzy", "match.links_cross_app", "split.windows",
            "split.window_apps", "instrument.stmts_out", "build_cfg.nodes",
            "build_cfg.edges", "propagate.facts", "propagate.sink_hits",
            "analyze.diagnostics", "analyze.paths")

# Names taint.analyze looks up at call time -> layer of the span around them.
WRAPPED = {
    "build_iac_graph": "split",
    "split_graph": "split",
    "_analyze_set": "window",
    "combine": "merge",
    "instrument_model": "instrument",
    "build_cfg": "build_cfg",
    "propagate": "propagate",
    "extract_paths": "extract_paths",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    window: Optional[int] = None


@dataclass
class Trace:
    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)
    _windows: int = 0  # window spans opened so far
    _window: Optional[int] = None  # id of the open window span

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if name == "window":
            self._window = self._windows
            self._windows += 1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, window=self._window))
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()
            if name == "window":
                self._window = None

    def wrap(self, fn: Callable, name: str, after: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``after(result)`` counts in a "count" span of
        its own, so the cost of counting shows as tracing overhead."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                with self.span("count"):
                    after(result)
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out: Counter = Counter()
        for s, c in zip(self.spans, covered):
            out[s.name] += (s.end - s.start) - c
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        """Spans (times relative to the first) and counters, as JSON."""
        t0 = self.spans[0].start if self.spans else 0.0
        spans = [[s.name, s.start - t0, s.end - t0, s.parent, s.window] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "window"],
                                    "spans": spans, "counters": dict(self.counters)}))


@dataclass
class TracedRun:
    stdout: str
    wall_s: float
    trace: Trace


def _instrumented(trace: Trace, model) -> None:
    trace.counters["instrument.stmts_out"] += sum(1 for _ in model.iter_stmts())


def _cfg(trace: Trace, cfg) -> None:
    trace.counters["build_cfg.nodes"] += len(
        set(cfg.succ) | {m for outs in cfg.succ.values() for m, _ in outs}
    )
    trace.counters["build_cfg.edges"] += sum(len(v) for v in cfg.succ.values())


def _propagated(trace: Trace, result) -> None:
    trace.counters["propagate.facts"] += len(result.preds)
    trace.counters["propagate.sink_hits"] += len(result.hits)


def _windows(trace: Trace, windows) -> None:
    trace.counters["split.windows"] += len(windows)
    trace.counters["split.window_apps"] += sum(len(w) for w in windows)


def _paths(trace: Trace, paths) -> None:
    trace.counters["window.pairs"] += len(paths)
    trace.counters["window.useful"] += bool(paths)


AFTER = {
    "split_graph": _windows,
    "instrument_model": _instrumented,
    "build_cfg": _cfg,
    "propagate": _propagated,
    "extract_paths": _paths,
}


@contextmanager
def patched(trace: Trace):
    """Wrap the names in ``WRAPPED`` inside ``iccflow.taint``; restore them."""
    saved = {name: getattr(taint, name) for name in WRAPPED}
    try:
        for name, layer in WRAPPED.items():
            after = AFTER.get(name)
            hook = functools.partial(after, trace) if after else None
            setattr(taint, name, trace.wrap(saved[name], layer, hook))
        yield
    finally:
        for name, fn in saved.items():
            setattr(taint, name, fn)


def traced_analyze(corpus_dir: str, config_path: str, max_len: int) -> TracedRun:
    """One traced ``analyze`` with default flags apart from ``max_len``.

    Returns the report text the command would print on standard output.
    """
    trace = Trace()
    config = load_config(config_path)
    started = time.perf_counter()
    with trace.span("parse"):
        files = sorted(dict.fromkeys(corpus_files(corpus_dir)))
        apps, diags = load_corpus(files)
    if any(d.severity == "error" for d in diags):
        raise ValueError(f"{corpus_dir}: corpus does not parse: {diags[0]}")
    if len({a.app_id for a in apps}) != len(apps):
        raise ValueError(f"{corpus_dir}: duplicate app ids")
    c = trace.counters
    with trace.span("count"):
        c["parse.apps"] = len(apps)
        c["parse.stmts"] = sum(1 for a in apps for _ in a.iter_stmts())

    with trace.span("resolve"):
        values = {app.app_id: resolve_intent_values(app) for app in apps}
    with trace.span("count"):
        sites = [v for per_app in values.values() for v in per_app.values()]
        c["resolve.sites"] = len(sites)
        c["resolve.sites_top"] = sum(
            1 for v in sites if TOP in (v.targets, v.actions, v.categories, v.data_types)
        )

    with trace.span("match"):
        links = match_links(values, apps)
    with trace.span("count"):
        c["match.links"] = len(links.links)
        c["match.links_fuzzy"] = sum(1 for link in links.links if not link.exact)
        c["match.links_cross_app"] = sum(1 for link in links.links if link.cross_app)

    with patched(trace), trace.span("analyze"):
        report = taint.analyze(apps, links.links, config, max_len=max_len)
    c["analyze.diagnostics"] = len(links.diagnostics) + len(report.diagnostics)
    c["analyze.paths"] = len(report.paths)

    with trace.span("render"):
        text = render_report(report, "text")
    return TracedRun(text, time.perf_counter() - started, trace)


def layer_metrics(run: TracedRun) -> dict[str, float]:
    """Per-layer numbers of one traced run, named as in BENCHMARK.json."""
    c = run.trace.counters
    self_s = run.trace.self_times()
    out: dict[str, float] = {f"{name}.s": self_s.get(name, 0.0) for name in LAYERS}
    out.update({name: float(c[name]) for name in COUNTERS})
    windows = c["split.windows"]
    out["split.reanalysis"] = c["split.window_apps"] / max(c["parse.apps"], 1)
    out["window.paths_unique_frac"] = c["analyze.paths"] / max(c["window.pairs"], 1)
    out["window.useful_frac"] = c["window.useful"] / max(windows, 1)
    out["window.s_max"] = max(run.trace.durations("window"), default=0.0)
    out["trace.count_s"] = self_s.get("count", 0.0)
    out["trace.wall_s"] = run.wall_s
    out["trace.unattributed_s"] = run.wall_s - sum(self_s.values())
    out["frontend.share"] = sum(self_s.get(n, 0.0) for n in FRONT_END) / run.wall_s
    return out
