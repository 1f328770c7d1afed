"""Reusing a source's tabulation across app windows.

``analyze`` skips a source statement in a window when an earlier window
already covers it. These tests check the two facts that make the skip leave
every report unchanged: suppressing sources leaves every other source's
tabulation as it was, and a skipped source finds nothing an earlier window
did not already report, also where its taint went into a component of
another app that reads none of the intent's extras it lies under: a deaf
one reads none, others read only literal keys (``taint._reads``).
"""

import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from iccflow import taint
from iccflow.combine import build_iac_graph, combine, holders, split_graph
from iccflow.icc import links_by_app, match_links, resolve_corpus
from iccflow.instrument import INTENT_FIELD, instrument_model
from iccflow.ir import IccCall, SetResult
from iccflow.parser import load_corpus, parse_app
from iccflow.taint import (
    ZERO,
    AnalysisReport,
    _analyze_set,
    analyze,
    build_cfg,
    extract_paths,
    load_config,
    propagate,
    render_report,
)

# The benchmark's corpus generator builds the shared-string mixes below.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
CONFIG = load_config(REPO / "corpus" / "sources_sinks.conf")


def _mix(progen_n, seed, fanout=True):
    """Apps of progen corpora and one bench copy under renamed app ids, with
    action and category strings shared, so implicit links cross replicas."""
    shape = workloads.Shape(progen=progen_n, bench=1, shared=True, max_len=2)
    saved = workloads.SHAPES.get("mix")
    workloads.SHAPES["mix"] = shape
    try:
        corpus = workloads.generate("mix", seed)
    finally:
        if saved is None:
            del workloads.SHAPES["mix"]
        else:
            workloads.SHAPES["mix"] = saved
    if not fanout:
        corpus.replicas = [r for r in corpus.replicas if r.source != workloads.FANOUT_CASE]
    return [parse_app(text).app for text in corpus.files().values()]


def _bench():
    apps, diags = load_corpus([str(REPO / "corpus" / "bench")])
    assert not diags
    return apps


def _edges(preds):
    """``propagate``'s path edges but the ``ZERO`` ones, with their records."""
    return {k: rec for k, rec in preds.items() if k[3] is not ZERO}


def _node_records(preds):
    """``propagate``'s records as they were keyed by (node, fact): the first
    non-``ZERO`` edge at a (node, fact) gives it its record, with each edge
    in the record written as its (node, fact), and a ``gen`` record's as its
    node."""
    out = {}
    for (_, _, n, d), rec in preds.items():
        if rec is not None:
            tag, *edges = rec
            old = (tag, edges[0][2]) if tag == "gen" else (tag, *(x for e in edges for x in e[2:]))
            out.setdefault((n, d), old)
    return out


# ---------------------------------------------------------------------------
# origin independence: suppressing sources leaves the others as they were
# ---------------------------------------------------------------------------


def whole_window(models, by_app):
    """A window's model instrumented whole: its apps combined, with every
    link whose call site lies in them (links to other apps stay out)."""
    merged = models[0] if len(models) == 1 else combine(models)
    return instrument_model(merged, [link for m in models for link in by_app.get(m.app_id, ())])


@lru_cache(maxsize=None)
def _window_cfgs(corpus, max_len):
    apps = _bench() if corpus == "bench" else _mix(30, 3)
    links = match_links(resolve_corpus(apps), apps).links
    by_id = {a.app_id: a for a in apps}
    held = holders(apps)
    by_app = links_by_app(links, held)
    out = []
    for window in split_graph(build_iac_graph(apps, links, held), max_len):
        cfg = build_cfg(whole_window([by_id[a] for a in sorted(window)], by_app))
        out.append((cfg, propagate(cfg, CONFIG)))
    return out


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
@pytest.mark.parametrize("corpus, max_len", [("bench", 3), ("mix", 3), ("mix", 2)])
def test_suppressing_sources_leaves_the_other_sources_alone(corpus, max_len, seed):
    rng = random.Random(seed)
    windows = _window_cfgs(corpus, max_len)
    assert len(windows) > 10
    for cfg, full in windows:
        sources = sorted({d.origin for _, d in _node_records(full.preds)})
        skip = frozenset(rng.sample(sources, len(sources) // 2))
        part = propagate(cfg, CONFIG, skip)
        records = _node_records(full.preds)
        assert _node_records(part.preds) == {k: v for k, v in records.items() if k[1].origin not in skip}
        assert _edges(part.preds) == {k: v for k, v in _edges(full.preds).items() if k[3].origin not in skip}
        assert part.hits == [h for h in full.hits if h.fact.origin not in skip]
        kept = [p for p in extract_paths(full, cfg) if p.source not in skip]
        assert extract_paths(part, cfg) == kept


def test_a_suppressed_source_generates_nothing():
    cfg, full = next(w for w in _window_cfgs("bench", 3) if w[1].hits)
    sources = frozenset(d.origin for _, d in _node_records(full.preds))
    part = propagate(cfg, CONFIG, sources)
    assert part.preds == {} and part.hits == []


# ---------------------------------------------------------------------------
# analyze against a first-window-wins merge with nothing skipped
# ---------------------------------------------------------------------------


def _check_against_full_merge(monkeypatch, apps, max_len):
    """``analyze`` reports what running every window in full, in order, first
    window wins, reports; every pair a skipped source finds in full was
    reported by an earlier window, and a window ``analyze`` found idle finds
    no diagnostic in full. Returns each window's skipped sources."""
    links = match_links(resolve_corpus(apps), apps).links
    windows, skips, idle = [], [], []
    real_window, real_idle = taint._Reuse.window, taint._Reuse.idle

    def window(reuse, app_ids):
        out = real_window(reuse, app_ids)
        windows.append(app_ids)
        skips.append(out.skip)
        idle.append(False)
        return out

    def idle_(reuse, window, sources):
        idle[-1] = real_idle(reuse, window, sources)
        return idle[-1]

    with monkeypatch.context() as m:
        m.setattr(taint._Reuse, "window", window)
        m.setattr(taint._Reuse, "idle", idle_)
        got = analyze(apps, links, CONFIG, max_len)

    assert windows == got.sets
    by_id = {a.app_id: a for a in apps}
    by_app = links_by_app(links, holders(apps))
    want = AnalysisReport()
    for window, skip, was_idle in zip(windows, skips, idle):
        paths, diags, _ = _analyze_set(window, by_id, by_app, CONFIG)
        reported = {(p.source, p.sink) for p in want.paths}
        for p in paths:
            if p.source in skip:
                assert (p.source, p.sink) in reported, f"{window}: {p.source} -> {p.sink}"
        assert not (was_idle and diags), window
        want.diagnostics.extend(diags)
        want.paths.extend(p for p in paths if (p.source, p.sink) not in reported)
    want.paths.sort(key=lambda p: (p.source, p.sink))
    assert render_report(got, "tsv") == render_report(want, "tsv")
    assert render_report(got, "text") == render_report(want, "text")
    assert got.diagnostics == want.diagnostics
    return skips


@pytest.mark.parametrize("max_len", [2, 3, 4])
def test_bench_report_matches_a_full_merge(monkeypatch, max_len):
    _check_against_full_merge(monkeypatch, _bench(), max_len)


@pytest.mark.parametrize(
    "progen_n, seed, max_len, fanout",
    [(60, 1, 2, True), (60, 2, 3, True), (60, 3, 2, False)],
)
def test_shared_mix_report_matches_a_full_merge(monkeypatch, progen_n, seed, max_len, fanout):
    apps = _mix(progen_n, seed, fanout)
    assert any("_SA4" in a.app_id for a in apps) == fanout
    skips = _check_against_full_merge(monkeypatch, apps, max_len)
    real = taint._reads
    with monkeypatch.context() as m:
        # the same with no component's read set known: every link takes
        # taint out of its app
        m.setattr(taint, "_reads", lambda comp: None)
        linked_out = _check_against_full_merge(monkeypatch, apps, max_len)
        # and with only deaf components known: a link is harmless whole or not
        m.setattr(taint, "_reads", lambda comp: None if real(comp) else real(comp))
        deaf_only = _check_against_full_merge(monkeypatch, apps, max_len)
    assert sum(map(len, linked_out)) > 0
    assert sum(len(a - b) for a, b in zip(skips, linked_out)) > 0  # harmless links
    assert sum(map(len, skips)) > sum(map(len, deaf_only))  # harmless per extra key


@pytest.mark.parametrize("fanout", [True, False])
@pytest.mark.parametrize("max_len", [2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_small_shared_mixes_report_what_a_full_merge_reports(monkeypatch, seed, max_len, fanout):
    _check_against_full_merge(monkeypatch, _mix(40, seed, fanout), max_len)


# ---------------------------------------------------------------------------
# hand-made app triples: each way a later window can differ from the first
# ---------------------------------------------------------------------------
#
# App A holds the source. It shares window (A, M) with M first and window
# (A, Z) with Z second; the second window must still report the pair.

STARTER = """
app "%s" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      i = new_intent
      %s
      icc %s i
    }
%s  }
}
"""

ROUTED_HELPER = """
app "A" {
  component activity Front {
    filter { action "com.a.FRONT"; }
    method onCreate(this) {
      x = call Util.get()
    }
  }
  component activity Back {
    method onCreate(this) {
      y = call Util.get()
      sink "writeLog" y
    }
  }
  class Util {
    method get() {
      s = source "getDeviceId"
      return s
    }
  }
}
"""

RESULT_CALLBACK = """
app "A" {
  component activity Main {
    filter { action "com.a.MAIN"; }
    method onCreate(this) {
      i = new_intent
      set_action i "com.z.ASK"
      icc start_activity_for_result i
      y = this.f
      sink "writeLog" y
    }
    method onActivityResult(this, r) {
      x = source "getDeviceId"
      this.f = x
    }
  }
}
"""

ASKED = """
app "Z" {
  component activity Asked {
    filter { action "%s"; }
    method onCreate(this) {
      j = new_intent
      set_result j
    }
  }
  component activity Pinged {
    filter { action "com.z.PING"; }
  }
}
"""

CALLBACK_KILL = """
app "A" {
  component activity Main {
    filter { action "com.a.MAIN"; }
    method onCreate(this) {
      x = source "getDeviceId"
      this.f = x
      i = new_intent
      set_action i "com.m.ASK"
      icc start_activity_for_result i
      y = this.f
      sink "writeLog" y
    }
    method onActivityResult(this, r) {
      c = "clean"
      this.f = c
    }
  }
  component activity Other {
    filter { action "com.a.OTHER"; }
    method onCreate(this) {
      i = new_intent
      set_action i "com.z.PING"
      icc start_activity i
    }
  }
}
"""

ECHO = """
app "A" {
  component activity Echo {
    filter { action "com.a.ECHO"; }
    method onCreate(this) {
      x = source "getDeviceId"
      j = new_intent
      put_extra j "k" x
      set_result j
    }
  }
}
"""

SINK_RESULT = """    method onActivityResult(this, r) {
      v = get_extra r "k"
      sink "writeLog" v
    }
"""

SHARED_UTIL = """
app "A" {
  component activity Main {
    filter { action "com.a.MAIN"; }
    method onCreate(this) {
      x = call Util.get()
    }
  }
  class Util {
    method get() {
      s = source "getDeviceId"
      return s
    }
  }
}
"""

QUALIFIED_CALLER = """
app "Z" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      v = call "A/Util".get()
      sink "writeLog" v
      i = new_intent
      set_action i "com.a.MAIN"
      icc start_activity i
    }
  }
}
"""

# A's source leaves A by a call into Z's class, which sinks it
CALLS_OUT = """
app "A" {
  component activity Main {
    filter { action "com.a.MAIN"; }
    method onCreate(this) {
      x = source "getDeviceId"
      call "Z/Util".leak(x)
    }
  }
}
""", """
app "Z" {
  class Util {
    method leak(v) {
      sink "writeLog" v
    }
  }
}
"""

STORED_INTENT = """
app "A" {
  component activity D {
    filter { action "com.a.D"; }
    method onCreate(this) {
      s = source "getDeviceId"
      t = new_obj "A/C"
      t.intent_for_ipc = s
      call "A/C".foo(t)
    }
  }
  component activity C {
    filter { action "com.a.C"; }
    method foo(this) {
      j = get_intent
      sink "writeLog" j
    }
  }
}
"""

# S's intent reaches D by an intra-app link; D hands its own object, which
# holds that intent, to C.foo, whose get_intent reads it once Z's link
# gives C a getIntent
PASSED_INTENT = """
app "A" {
  component activity S {
    filter { action "com.a.S"; }
    method onCreate(this) {
      x = source "getDeviceId"
      i = new_intent
      set_target i "A/D"
      put_extra i "k" x
      icc start_activity i
    }
  }
  component activity D {
    method onCreate(this) {
      call "A/C".foo(this)
    }
  }
  component activity C {
    filter { action "com.a.C"; }
    method foo(this) {
      j = get_intent
      v = get_extra j "k"
      sink "writeLog" v
    }
  }
}
"""

# C's own method taints its object under a variable extra key, a WILD
# selector, which C's get_intent reads once Z's link gives C a getIntent:
# no store to intent_for_ipc and no call from another class
WILD_THIS = """
app "A" {
  component activity B {
    filter { action "com.a.B"; }
  }
  component activity C {
    filter { action "com.a.C"; }
    method onCreate(this) {
      x = source "getDeviceId"
      k = "any"
      put_extra this k x
      j = get_intent
      sink "writeLog" j
    }
  }
}
"""

HIDDEN = """
app "A" {
  component activity Front {
    filter { action "com.a.FRONT"; }
  }
  component activity Hidden {
    method onCreate(this) {
      x = source "getDeviceId"
      sink "writeLog" x
    }
  }
}
"""

# Echo keeps its source's intent in a field of its own; getIntentFAR reads
# intent_for_ar back for a caller that asked for a result
KEPT = """
app "A" {
  component activity Echo {
    filter { action "com.a.ECHO"; }
    method onCreate(this) {
      x = source "getDeviceId"
      j = new_intent
      put_extra j "k" x
      this.%s = j
    }
  }
}
"""


def _kept(fld):
    return [KEPT % fld,
            STARTER % ("M", 'set_action i "com.a.ECHO"', "start_activity", ""),
            STARTER % ("Z", 'set_action i "com.a.ECHO"', "start_activity_for_result", SINK_RESULT)]


TRIPLES = {
    # Z starts a component that only other apps root
    "new_entry": (
        [ROUTED_HELPER,
         STARTER % ("M", 'set_action i "com.a.FRONT"', "start_activity", ""),
         STARTER % ("Z", 'set_target i "A/Back"', "start_activity", "")],
        ("A/Util/get/b0/0", "A/Back/onCreate/b0/1"),
    ),
    # Z's result comes back into A, whose callback the source taints
    "result_entry": (
        [RESULT_CALLBACK,
         STARTER % ("M", 'set_action i "com.a.MAIN"', "start_activity", ""),
         ASKED % "com.z.ASK"],
        ("A/Main/onActivityResult/b0/0", "A/Main/onCreate/b0/4"),
    ),
    # A's result callback, run on M's result, cleans the field the source
    # taints; without M the field stays tainted, so a window that linked the
    # site out records nothing for the source (the whole-corpus oracle finds
    # no leak here: window (A, Z) leaves the site unlinked; the reuse keeps
    # what the windows report)
    "callback_kill": (
        [CALLBACK_KILL,
         ASKED.replace('"Z"', '"M"') % "com.m.ASK",
         ASKED % "com.z.ASK"],
        ("A/Main/onCreate/b0/0", "A/Main/onCreate/b0/6"),
    ),
    # the source leaves A through set_result to whichever app asked
    "set_result": (
        [ECHO,
         STARTER % ("M", 'set_action i "com.a.ECHO"', "start_activity_for_result", ""),
         STARTER % ("Z", 'set_action i "com.a.ECHO"', "start_activity_for_result", SINK_RESULT)],
        ("A/Echo/onCreate/b0/0", "Z/Main/onActivityResult/b0/1"),
    ),
    # Z enters C, whose driver does not reach D's source, but the entry
    # gives C the getIntent that D's direct call to C.foo then reads
    "entry_reads_a_stored_intent": (
        [STORED_INTENT,
         STARTER % ("M", 'set_action i "com.a.D"', "start_activity", ""),
         STARTER % ("Z", 'set_action i "com.a.C"', "start_activity", "")],
        ("A/D/onCreate/b0/0", "A/C/foo/b0/1"),
    ),
    # Z enters C, which D's call hands an object holding the intent S sent
    "entry_reads_a_passed_intent": (
        [PASSED_INTENT,
         STARTER % ("M", 'set_action i "com.a.S"', "start_activity", ""),
         STARTER % ("Z", 'set_action i "com.a.C"', "start_activity", "")],
        ("A/S/onCreate/b0/0", "A/C/foo/b0/2"),
    ),
    # Z enters C, whose own object carries the source under a WILD selector
    "entry_reads_a_wild_this": (
        [WILD_THIS,
         STARTER % ("M", 'set_action i "com.a.B"', "start_activity", ""),
         STARTER % ("Z", 'set_action i "com.a.C"', "start_activity", "")],
        ("A/C/onCreate/b0/0", "A/C/onCreate/b0/4"),
    ),
    # Z roots Hidden, which holds the source and has no filter
    "new_root": (
        [HIDDEN,
         STARTER % ("M", 'set_action i "com.a.FRONT"', "start_activity", ""),
         STARTER % ("Z", 'set_target i "A/Hidden"', "start_activity", "")],
        ("A/Hidden/onCreate/b0/0", "A/Hidden/onCreate/b0/1"),
    ),
    # Z asks Echo for a result, which Echo's own store into intent_for_ar holds
    "kept_result": (_kept("intent_for_ar"), ("A/Echo/onCreate/b0/0", "Z/Main/onActivityResult/b0/1")),
    # A calls into Z by qualified class name, and no link joins the two
    "call_out": (
        [CALLS_OUT[0], STARTER % ("M", 'set_action i "com.a.MAIN"', "start_activity", ""), CALLS_OUT[1]],
        ("A/Main/onCreate/b0/0", "Z/Util/leak/b0/0"),
    ),
    # Z calls into A by qualified class name
    "qualified_call": (
        [SHARED_UTIL,
         STARTER % ("M", 'set_action i "com.a.MAIN"', "start_activity", ""),
         QUALIFIED_CALLER],
        ("A/Util/get/b0/0", "Z/Main/onCreate/b0/1"),
    ),
}


@pytest.mark.parametrize("case", sorted(TRIPLES))
def test_a_later_window_that_differs_reports_the_pair(monkeypatch, case):
    texts, (source, sink) = TRIPLES[case]
    apps = [parse_app(text).app for text in texts]
    links = match_links(resolve_corpus(apps), apps).links
    report = analyze(apps, links, CONFIG, 2)
    assert report.sets == [("A", "M"), ("A", "Z")]
    assert (source, sink) in {(str(p.source), str(p.sink)) for p in report.paths}
    _check_against_full_merge(monkeypatch, apps, 2)


def test_a_result_link_reads_back_only_intent_for_ar(monkeypatch):
    """Echo's source reaches its driver's exit only under ``this.f``, which
    no ``getIntentFAR`` reads, so window (A, Z) skips it."""
    apps = [parse_app(text).app for text in _kept("f")]
    links = match_links(resolve_corpus(apps), apps).links
    assert analyze(apps, links, CONFIG, 2).paths == []
    skips = _check_against_full_merge(monkeypatch, apps, 2)
    assert [sorted(map(str, s)) for s in skips] == [[], ["A/Echo/onCreate/b0/0"]]


# ---------------------------------------------------------------------------
# harmless links: a target that never reads its intent keeps the taint in
# ---------------------------------------------------------------------------
#
# A's source rides an intent into M's Quiet first: Quiet is deaf, so window
# (A, M) records the source. Z's Loud, which the same site starts, reads the
# intent in one way each, so window (A, Z) must tabulate the source again.

SENDER = """
app "A" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      x = source "getDeviceId"
      i = new_intent
      set_action i "com.x.GO"
      put_extra i "k" x
      icc start_activity i
    }
  }
}
"""

QUIET = """
app "%s" {
  component activity Quiet {
    filter { action "com.x.GO"; }
    method onCreate(this) {
      c = "calm"
      this.g = c
      call hush(this)
    }
    method hush(this) {
      d = this.g
    }
  }
}
"""

LOUD = """
app "Z" {
  component activity Loud {
    filter { action "com.x.GO"; }
%s  }
%s}
"""

READS = {
    "get_intent": (
        """    method onCreate(this) {
      j = get_intent
      v = get_extra j "k"
      sink "writeLog" v
    }
""", "", "Z/Loud/onCreate/b0/2"),
    "sink_this": (
        """    method onCreate(this) {
      sink "writeLog" this
    }
""", "", "Z/Loud/onCreate/b0/0"),
    # Loud's own leak would be harmless; Util's is not
    "other_class": (
        """    method onCreate(this) {
      call Util.leak(this)
    }
    method leak(this) {
      d = this.g
    }
""", """  class Util {
    method leak(o) {
      sink "writeLog" o
    }
  }
""", "Z/Util/leak/b0/0"),
    "callee_renames_this": (
        """    method onCreate(this) {
      call leak(this)
    }
    method leak(o) {
      sink "writeLog" o
    }
""", "", "Z/Loud/leak/b0/0"),
    "return_this": (
        """    method onCreate(this) {
      o = call me(this)
      sink "writeLog" o
    }
    method me(this) {
      return this
    }
""", "", "Z/Loud/onCreate/b0/1"),
    "intent_field": (
        """    method onCreate(this) {
      j = this.intent_for_ipc
      v = get_extra j "k"
      sink "writeLog" v
    }
""", "", "Z/Loud/onCreate/b0/2"),
    "stored_this": (
        """    method onCreate(this) {
      this.g = this
      o = this.g
      v = get_extra o "k"
      sink "writeLog" v
    }
""", "", "Z/Loud/onCreate/b0/3"),
    "this_not_first": (
        """    method onCreate(u, this) {
      sink "writeLog" this
    }
""", "", "Z/Loud/onCreate/b0/0"),
    # Loud's own result call hands Loud to its callback's first parameter
    "far_callback": (
        """    method onCreate(this) {
      j = new_intent
      set_action j "com.z.BACK"
      icc start_activity_for_result j
    }
    method onActivityResult(r, this) {
      sink "writeLog" r
    }
""", """  component activity Back {
    filter { action "com.z.BACK"; }
  }
""", "Z/Loud/onActivityResult/b0/0"),
}


def _reads(case):
    if case == "result_link":
        # M's Asked is deaf, but a result link runs A's callback, which an
        # unlinked site does not: see the callback_kill triple
        return TRIPLES["callback_kill"]
    methods, classes, sink = READS[case]
    return [SENDER, QUIET % "M", LOUD % (methods, classes)], ("A/Main/onCreate/b0/0", sink)


@pytest.mark.parametrize("case", sorted(READS) + ["result_link"])
def test_a_target_that_reads_the_intent_keeps_the_source_live(monkeypatch, case):
    texts, (source, sink) = _reads(case)
    apps = [parse_app(text).app for text in texts]
    deaf = {c.qualified_name for a in apps for c in a.components if taint._reads(c) == frozenset()}
    assert ("M/Asked" if case == "result_link" else "M/Quiet") in deaf
    assert "Z/Loud" not in deaf
    links = match_links(resolve_corpus(apps), apps).links
    report = analyze(apps, links, CONFIG, 2)
    assert report.sets == [("A", "M"), ("A", "Z")]
    assert (source, sink) in {(str(p.source), str(p.sink)) for p in report.paths}
    assert _check_against_full_merge(monkeypatch, apps, 2) == [frozenset(), frozenset()]


def test_a_source_that_meets_only_deaf_targets_is_skipped(monkeypatch):
    apps = [parse_app(text).app for text in (SENDER, QUIET % "M", QUIET % "Z")]
    assert all(taint._reads(c) == frozenset() for c in apps[1].components + apps[2].components)
    skips = _check_against_full_merge(monkeypatch, apps, 2)
    assert [sorted(map(str, s)) for s in skips] == [[], ["A/Main/onCreate/b0/0"]]


# ---------------------------------------------------------------------------
# harmless per extra key: a target that reads other keys keeps the taint in
# ---------------------------------------------------------------------------
#
# A's source rides its intent under "tok", as the extra itself or inside a
# nested intent (two selectors, which the target sees cut to a wildcard).
# M's Reader, which the site starts first, reads only "loc", so window
# (A, M) records the flat source. Z's Reader reads "tok" in one way each,
# or only "loc" too, which is the one case where window (A, Z) may skip it.

KEYED_SENDER = """
app "A" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      x = source "getDeviceId"
      n = new_intent
      put_extra n "in" x
      i = new_intent
      set_action i "com.x.GO"
      put_extra i "tok" %s
      icc %s i
    }
  }
}
"""

READER = """
app "%s" {
  component activity Reader {
    filter { action "com.x.GO"; }
%s  }
}
"""

READ_LOC = """    method onCreate(this) {
      j = get_intent
      v = get_extra j "loc"
      sink "writeLog" v
    }
"""

# Z's Reader: its methods, its read set, and the statement that sinks "tok"
KEY_READS = {
    "loc_only": (READ_LOC, frozenset({"loc"}), None),
    "tok": (READ_LOC.replace('"loc"', '"tok"'), frozenset({"tok"}), "Z/Reader/onCreate/b0/2"),
    "variable_key": ("""    method onCreate(this) {
      j = get_intent
      k = "tok"
      v = get_extra j k
      sink "writeLog" v
    }
""", None, "Z/Reader/onCreate/b0/3"),
    "copy": ("""    method onCreate(this) {
      j = get_intent
      c = j
      v = get_extra c "tok"
      sink "writeLog" v
    }
""", None, "Z/Reader/onCreate/b0/3"),
    "helper": ("""    method onCreate(this) {
      j = get_intent
      call peek(this, j)
    }
    method peek(this, c) {
      v = get_extra c "tok"
      sink "writeLog" v
    }
""", None, "Z/Reader/peek/b0/1"),
    "intent_field": ("""    method onCreate(this) {
      j = this.intent_for_ipc
      v = get_extra j "tok"
      sink "writeLog" v
    }
""", None, "Z/Reader/onCreate/b0/2"),
    "on_resume": (READ_LOC + """    method onResume(this) {
      j = get_intent
      v = get_extra j "tok"
      sink "writeLog" v
    }
""", frozenset({"loc", "tok"}), "Z/Reader/onResume/b0/2"),
    "stored": ("""    method onCreate(this) {
      j = get_intent
      this.g = j
    }
    method onResume(this) {
      o = this.g
      v = get_extra o "tok"
      sink "writeLog" v
    }
""", None, "Z/Reader/onResume/b0/2"),
}


def _keyed(case, nested, kind):
    """The triple's texts and the pairs it must report: the flat extra
    reaches only a read of "tok", the nested one every read."""
    methods, _, tok = KEY_READS[case]
    texts = [KEYED_SENDER % ("n" if nested else "x", kind), READER % ("M", READ_LOC), READER % ("Z", methods)]
    sinks = {tok} - {None}
    if nested:
        sinks |= {"M/Reader/onCreate/b0/2"} | ({"Z/Reader/onCreate/b0/2"} if READ_LOC in methods else set())
    return texts, {("A/Main/onCreate/b0/0", sink) for sink in sinks}


@pytest.mark.parametrize("kind", ["start_activity", "start_activity_for_result"])
@pytest.mark.parametrize("nested", [False, True])
@pytest.mark.parametrize("case", sorted(KEY_READS))
def test_a_source_is_skipped_only_where_no_target_reads_its_key(monkeypatch, case, nested, kind):
    texts, want = _keyed(case, nested, kind)
    apps = [parse_app(text).app for text in texts]
    assert [taint._reads(a.components[0]) for a in apps[1:]] == [frozenset({"loc"}), KEY_READS[case][1]]
    links = match_links(resolve_corpus(apps), apps).links
    report = analyze(apps, links, CONFIG, 2)
    assert report.sets == [("A", "M"), ("A", "Z")]
    assert {(str(p.source), str(p.sink)) for p in report.paths} == want
    skips = _check_against_full_merge(monkeypatch, apps, 2)
    assert skips[0] == frozenset()
    skipped = case == "loc_only" and not nested and kind == "start_activity"
    assert sorted(map(str, skips[1])) == (["A/Main/onCreate/b0/0"] if skipped else [])


def _far_reaching(cfg, hits, preds, comp):
    """The facts from another app than ``comp``'s that reach, in ``comp``, a
    sink hit, a ``set_result``, an ICC site, a redirect call or a call into
    another class, as (statement, fact), among the ``hits`` and the path
    edges of ``preds``. A result redirect's ``caller`` is left out: it
    carries the component into its own callback."""
    mine = (comp.origin_app, comp.name)
    out = [(h.sink, h.fact) for h in hits
           if (h.sink.app, h.sink.cls) == mine and h.fact.origin.app != comp.origin_app]
    for node, fact in _node_records(preds):
        if node[0] != "stmt" or (node[1].app, node[1].cls) != mine or fact.origin.app == comp.origin_app:
            continue
        sid, stmt = node[1], cfg.stmts[node[1]]
        info = cfg.calls.get(sid)
        if info is not None and info.callee[:2] != mine:
            reaches = any(a == fact.base and p != "caller" for a, p in zip(info.args, info.params))
        else:
            reaches = isinstance(stmt, (SetResult, IccCall)) and fact.base == stmt.intent
        if reaches:
            out.append((sid, fact))
    return out


def _unread(d1, comp, keys):
    """Whether ``d1`` is another app's fact on ``comp``'s object under one
    extra key of the intent it holds, not one of ``keys``."""
    chain = () if d1 is ZERO else d1.chain
    return (
        d1 is not ZERO and d1.base == "this" and d1.origin.app != comp.origin_app
        and len(chain) == 2 and chain[0] == ("f", INTENT_FIELD) and chain[1][0] == "e"
        and chain[1][1] not in keys
    )


@pytest.mark.parametrize("corpus, max_len", [("bench", 2), ("bench", 3), ("bench", 4), ("mix", 2), ("mix", 3)])
def test_no_taint_from_another_app_gets_out_of_a_deaf_component(corpus, max_len):
    """Nor out of a component with a read set, under a key it does not read:
    in a context that such a fact enters, no fact reaches anything far."""
    windows = _window_cfgs(corpus, max_len)
    apps = _bench() if corpus == "bench" else _mix(30, 3)
    comps = [c for a in apps for c in a.components if c.kind.is_component]
    deaf = [c for c in comps if taint._reads(c) == frozenset()]
    readers = [(c, taint._reads(c)) for c in comps if taint._reads(c)]
    assert deaf and readers
    entered = 0  # deaf components that taint from another app enters
    unread = 0  # components with a read set that a key they do not read enters
    for cfg, res in windows:
        present = {(c.origin_app, c.name) for c in cfg.model.components}
        foreign = {n[1][:2] for n, d in _node_records(res.preds)
                   if n[0] == "entry" and d.origin.app != n[1][0]}
        for comp in deaf:
            if (comp.origin_app, comp.name) in present:
                assert _far_reaching(cfg, res.hits, res.preds, comp) == []
                entered += (comp.origin_app, comp.name) in foreign
        for comp, keys in readers:
            mine = (comp.origin_app, comp.name)
            contexts = {k[1] for k in res.preds if k[0][:2] == mine and _unread(k[1], comp, keys)}
            if contexts:
                preds = {k: rec for k, rec in res.preds.items() if k[1] in contexts}
                hits = [h for h in res.hits if h.edge[1] in contexts]
                assert _far_reaching(cfg, hits, preds, comp) == []
                unread += 1
    assert entered > 0
    assert unread > 0 or corpus == "bench"  # no bench window enters one so


# ---------------------------------------------------------------------------
# known defect: a result callback outside the window is left out
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "max_len",
    [
        pytest.param(2, marks=pytest.mark.xfail(
            strict=True,
            reason="window (A, Z) leaves A's result call to M opaque, so the "
                   "callback that cleans this.f never runs (ROADMAP Known defects)",
        )),
        3,
    ],
)
def test_callback_kill_reports_only_oracle_pairs(max_len):
    texts, _ = TRIPLES["callback_kill"]
    apps = [parse_app(text).app for text in texts]
    links = match_links(resolve_corpus(apps), apps).links
    got = {(p.source, p.sink) for p in analyze(apps, links, CONFIG, max_len).paths}
    assert got <= oracle.oracle_pairs(apps, CONFIG)
