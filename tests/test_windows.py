"""Window models built from per-app parts against whole-window instrumentation.

``analyze`` instruments an app that lies in several windows once, with its
intra-app links, and gives each of its windows only the cross-app links on
top (``instrument.link_window``). The window it gets must be the one
``instrument_model`` builds from the combined apps with all their links, up
to the names of synthetic statements: the same CFG size, the same sink hits
and facts, and the same witness paths.
"""

import gc
import weakref
from functools import lru_cache

import pytest

from iccflow import taint
from iccflow.combine import combine, holders
from iccflow.icc import links_by_app, match_links, resolve_corpus
from iccflow.instrument import instrument_model, link_window
from iccflow.parser import parse_app
from iccflow.taint import analyze, build_cfg, extract_paths, propagate
from test_reuse import CONFIG, _bench, _mix, whole_window


def _windows(apps, max_len):
    """Each window ``analyze`` runs, with its skipped sources and the CFG of
    its model laid out in full (None for an idle window, which builds no
    model), and the number of windows built from parts. ``analyze`` itself
    gets the CFG scoped to the window's live sources."""
    links = match_links(resolve_corpus(apps), apps).links
    out = []
    overlays = []
    real_window, real_idle = taint._Reuse.window, taint._Reuse.idle
    real_cfg, real_link = taint.build_cfg, taint.link_window

    def window(reuse, app_ids):
        got = real_window(reuse, app_ids)
        out.append([app_ids, got.skip, None])
        return got

    def idle(reuse, *args):
        was_idle = real_idle(reuse, *args)
        out[-1].append(was_idle)
        return was_idle

    def cfg_of(model, *args):
        out[-1][2] = real_cfg(model)
        return real_cfg(model, *args)

    def link_window_(*args):
        overlays.append(args)
        return real_link(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(taint._Reuse, "window", window)
        m.setattr(taint._Reuse, "idle", idle)
        m.setattr(taint, "build_cfg", cfg_of)
        m.setattr(taint, "link_window", link_window_)
        analyze(apps, links, CONFIG, max_len)
    # a window is built exactly when it is not idle
    assert all((cfg is None) == was_idle for _, _, cfg, was_idle in out)
    return [(app_ids, skip, cfg) for app_ids, skip, cfg, _ in out], links_by_app(links, holders(apps)), len(overlays)


def _shape(cfg):
    """What the two window models must agree on."""
    res = propagate(cfg, CONFIG)
    nodes = set(cfg.succ) | {m for outs in cfg.succ.values() for m, _ in outs}
    paths = [
        (p.source, p.sink, p.klass, p.apps, len(p.stmts),
         [s for s in p.stmts if not cfg.stmts[s].synthetic])
        for p in extract_paths(res, cfg)
    ]
    return len(nodes), sum(len(v) for v in cfg.succ.values()), res.hits, len(res.preds), paths


def _assert_windows_match(apps, max_len):
    windows, by_app, overlays = _windows(apps, max_len)
    by_id = {a.app_id: a for a in apps}
    for app_ids, skip, cfg in windows:
        whole = whole_window([by_id[a] for a in app_ids], by_app)
        want = build_cfg(whole)
        if cfg is not None:
            assert _shape(cfg) == _shape(want), app_ids
        else:  # idle: whole instrumentation warns of nothing and finds nothing
            assert not want.diagnostics, app_ids
            assert not propagate(build_cfg(whole, CONFIG, skip), CONFIG, skip).preds, app_ids
    return windows, overlays


@lru_cache(maxsize=None)
def _corpus(name):
    return _bench() if name == "bench" else _mix(30, 3)


@pytest.mark.parametrize(
    "corpus, max_len", [("bench", 2), ("bench", 3), ("bench", 4), ("mix", 2), ("mix", 3)]
)
def test_every_window_matches_whole_window_instrumentation(corpus, max_len):
    windows, overlays = _assert_windows_match(_corpus(corpus), max_len)
    assert sum(len(app_ids) > 1 for app_ids, _, _ in windows) > 5
    assert overlays > (5 if corpus == "mix" else 0)


def _apps(*texts):
    out = []
    for text in texts:
        r = parse_app(text)
        assert r.ok, [str(d) for d in r.diagnostics]
        out.append(r.app)
    return out


def _overlay(texts):
    """The CFG of one window of all the apps as ``analyze`` builds it when
    they lie in other windows too, checked against whole instrumentation."""
    apps = _apps(*texts)
    links = match_links(resolve_corpus(apps), apps).links
    by_app = links_by_app(links, holders(apps))
    parts = [
        instrument_model(a, [link for link in by_app.get(a.app_id, ()) if not link.cross_app])
        for a in apps
    ]
    cross = [link for link in links if link.cross_app]
    cfg = build_cfg(link_window(combine(parts), apps, cross))
    assert _shape(cfg) == _shape(build_cfg(whole_window(apps, by_app)))
    return cfg


def _redirect_callees(cfg, app, cls, method):
    """The helper class each redirect call of one method reaches."""
    return sorted(
        info.callee[:2] for sid, info in cfg.calls.items()
        if sid.method_key == (app, cls, method) and info.callee[1] == "IpcSC"
    )


# Main has one intra-app and one cross-app linked site
MIXED_METHOD = ("""
app "A" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      x = source "getDeviceId"
      i = new_intent
      set_target i "Inner"
      put_extra i "k" x
      icc start_activity i
      j = new_intent
      set_target j "B/Outer"
      put_extra j "k" x
      icc start_activity j
    }
  }
  component activity Inner {
    method onCreate(this) {
      g = get_intent
      v = get_extra g "k"
      sink "writeLog" v
    }
  }
}
""", """
app "B" {
  component activity Outer {
    method onCreate(this) {
      g = get_intent
      v = get_extra g "k"
      sink "sendTextMessage" v
    }
  }
}
""")

# one site whose implicit intent reaches a component of each app
BOTH_KINDS = ("""
app "A" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      x = source "getDeviceId"
      i = new_intent
      set_action i "SHARE"
      put_extra i "k" x
      icc start_activity i
    }
  }
  component activity Local {
    filter { action "SHARE"; }
    method onCreate(this) {
      g = get_intent
      v = get_extra g "k"
      sink "writeLog" v
    }
  }
}
""", """
app "B" {
  component activity Remote {
    filter { action "SHARE"; }
    method onCreate(this) {
      g = get_intent
      v = get_extra g "k"
      sink "sendTextMessage" v
    }
  }
}
""")

# A asks B's Picker for a result; B's own Main starts Picker too
FOR_RESULT = ("""
app "A" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      x = source "getDeviceId"
      i = new_intent
      set_action i "PICK"
      put_extra i "k" x
      icc start_activity_for_result i
    }
    method onActivityResult(this, data) {
      v = get_extra data "r"
      sink "writeLog" v
    }
  }
}
""", """
app "B" {
  component activity BMain {
    filter { action "B_MAIN"; }
    method onCreate(this) {
      i = new_intent
      set_target i "Picker"
      icc start_activity i
    }
  }
  component activity Picker {
    filter { action "PICK"; }
    method onCreate(this) {
      g = get_intent
      d = get_extra g "k"
      r = new_intent
      put_extra r "r" d
      set_result r
    }
  }
}
""")


def test_a_method_with_an_intra_app_and_a_cross_app_site():
    cfg = _overlay(MIXED_METHOD)
    # each redirect call reaches its own helper: A's, and the window's
    assert _redirect_callees(cfg, "A", "Main", "onCreate") == [("A", "IpcSC"), ("A+B", "IpcSC")]
    _, _, _, _, paths = _shape(cfg)
    assert {(str(p[1]), p[2]) for p in paths} == {
        ("A/Inner/onCreate/b0/2", "ICC"), ("B/Outer/onCreate/b0/2", "IAC")
    }


def test_one_site_with_an_intra_app_and_a_cross_app_link():
    cfg = _overlay(BOTH_KINDS)
    assert _redirect_callees(cfg, "A", "Main", "onCreate") == [("A", "IpcSC"), ("A+B", "IpcSC")]
    main = next(c for c in cfg.model.components if c.qualified_name == "A/Main")
    labels = [b.label for b in main.lifecycle["onCreate"].blocks]
    assert labels == ["b0", "icc0_r0", "icc0_r1", "icc0_cont"]
    _, _, _, _, paths = _shape(cfg)
    assert {p[2] for p in paths} == {"ICC", "IAC"}


def test_a_result_link_into_a_component_intra_app_links_target():
    cfg = _overlay(FOR_RESULT)
    picker = next(c for c in cfg.model.components if c.qualified_name == "B/Picker")
    assert {"ctor", "getIntent", "setResult", "getIntentFAR"} <= {m.name for m in picker.methods()}
    # B's part keeps the accessors its intra-app link needs, no more
    b_part = next(c for c in cfg.model.components if c.qualified_name == "B/IpcSC")
    assert [m.name for m in b_part.helpers] == ["redirect0"]
    (app_b,) = _apps(FOR_RESULT[1])
    bare = instrument_model(app_b, match_links(resolve_corpus([app_b]), [app_b]).links)
    assert bare.component("Picker").find_method("setResult") is None
    _, _, _, _, paths = _shape(cfg)
    assert [(str(p[0]), str(p[1]), p[2]) for p in paths] == [
        ("A/Main/onCreate/b0/0", "A/Main/onActivityResult/b0/1", "IAC")
    ]


# no root reaches Hidden, so Spy runs only because a link makes it a root
UNREACHED_CALLER = ("""
app "A" {
  component activity Hidden {
    method onCreate(this) {
      i = new_intent
      set_target i "B/Spy"
      icc start_activity i
    }
  }
}
""", """
app "B" {
  component activity Spy {
    method onCreate(this) {
      s = source "getDeviceId"
      sink "writeLog" s
    }
  }
}
""")


def test_a_cross_app_target_is_a_root():
    cfg = _overlay(UNREACHED_CALLER)
    assert ("entry", ("B", "Spy", "dummyMain")) in cfg.roots
    _, _, _, _, paths = _shape(cfg)
    assert [(str(p[0]), p[2]) for p in paths] == [("B/Spy/onCreate/b0/0", "Intra")]


def _chain_app(app, nxt):
    """An app whose Main leaks the intent it gets, and its own source, to
    the next app's Main."""
    send = f"""
      i = new_intent
      set_target i "{nxt}/Main"
      put_extra i "k" x
      icc start_activity i""" if nxt else ""
    return f"""
app "{app}" {{
  component activity Main {{
    filter {{ action "{app}_MAIN"; }}
    method onCreate(this) {{
      g = get_intent
      v = get_extra g "k"
      sink "writeLog" v
      x = source "getDeviceId"{send}
    }}
  }}
}}
"""


def test_an_app_is_instrumented_once_and_freed_after_its_last_window(monkeypatch):
    apps = _apps(_chain_app("A", "B"), _chain_app("B", "C"), _chain_app("C", None))
    parts: dict[str, weakref.ref] = {}
    alive_after: list[dict[str, bool]] = []
    real_model, real_set = taint.instrument_model, taint._analyze_set

    def instrument_model(model, links):
        assert model.app_id not in parts, f"{model.app_id} instrumented twice"
        out = real_model(model, links)
        parts[model.app_id] = weakref.ref(out)
        return out

    def analyze_set(*args):
        result = real_set(*args)
        gc.collect()
        alive_after.append({app: ref() is not None for app, ref in parts.items()})
        return result

    monkeypatch.setattr(taint, "instrument_model", instrument_model)
    monkeypatch.setattr(taint, "_analyze_set", analyze_set)
    links = match_links(resolve_corpus(apps), apps).links
    report = analyze(apps, links, CONFIG, 2)
    assert report.sets == [("A", "B"), ("B", "C")]
    # B lives on from its first window to its last; A and C go after theirs
    assert alive_after == [{"A": False, "B": True}, {"A": False, "B": False, "C": False}]
    assert [(str(p.source), str(p.sink)) for p in report.paths] == [
        ("A/Main/onCreate/b0/3", "B/Main/onCreate/b0/2"),
        ("B/Main/onCreate/b0/3", "C/Main/onCreate/b0/2"),
    ]
