"""Which app holds a class: the app that declares it, not its origin app.

A ``.cir`` component may be declared ``from`` another app, as in a corpus
of apps combined into one. The window plan, the links an app instruments,
source reuse across windows and window instrumentation must all read the
app that holds a class from ``combine.holders``; reading it off the origin
in a qualified name loses leaks or fails. Each shape below checks
``analyze`` against the concrete interpreter in ``oracle``.
"""

from __future__ import annotations

from dataclasses import replace

import oracle
import progen
from iccflow.cli import main
from iccflow.combine import combine, holders
from iccflow.icc import links_by_app, match_links, resolve_corpus
from iccflow.instrument import instrument_model, link_window
from iccflow.ir import Call, ComponentKind
from iccflow.parser import parse_app, serialize_app
from iccflow.taint import _analyze_set, analyze, build_cfg
from test_reuse import whole_window
from test_windows import _assert_windows_match, _shape

CONFIG = progen.config()


def _from(origin):
    return f' from "{origin}"' if origin else ""


def _sender(name="S", origin=None, also=""):
    """An activity that sends a source on a ``go`` intent, then runs ``also``."""
    return (
        f"  component activity {name}{_from(origin)} {{\n"
        '    filter { action "MAIN"; }\n'
        "    method onCreate(this) {\n"
        '      x = source "getDeviceId"\n'
        "      i = new_intent\n"
        '      set_action i "go"\n'
        '      put_extra i "k" x\n'
        "      icc start_activity i\n"
        f"{also}    }}\n  }}\n"
    )


def _receiver(origin=None, also=""):
    """``Recv``, which accepts ``go`` and sinks the extra, then runs ``also``."""
    return (
        f"  component activity Recv{_from(origin)} {{\n"
        '    filter { action "go"; }\n'
        "    method onCreate(this) {\n"
        "      g = get_intent\n"
        '      d = get_extra g "k"\n'
        '      sink "writeLog" d\n'
        f"{also}    }}\n  }}\n"
    )


def _app(app_id, *components):
    return f'app "{app_id}" {{\n' + "".join(components) + "}\n"


OTHER = '  component activity Other {\n    filter { action "other"; }\n  }\n'
START_OTHER = '      j = new_intent\n      set_action j "other"\n      icc start_activity j\n'
LOCAL_LEAK = '      y = source "getLocation"\n      sink "writeLog" y\n'

# A and C send to B's Recv, declared from "Z"
SHAPE_1 = [_app("A", _sender()), _app("B", _receiver("Z")), _app("C", _sender())]
# ... and C also starts B's own Other, so window B+C exists either way
SHAPE_2 = [_app("A", _sender()), _app("B", _receiver("Z"), OTHER), _app("C", _sender(also=START_OTHER))]
# one app holds both ends, each from its own origin
SHAPE_3 = [_app("AB", _sender(origin="A"), _receiver("B"))]
# B holds a class of A's origin, which A's S starts
SHAPE_4 = [_app("A", _sender()), _app("B", _receiver("A"))]
# B, in windows A+B and B+C, calls a class that C holds from "Z"
SHAPE_5 = [
    _app("A", '  component activity S {\n    filter { action "MAIN"; }\n    method onCreate(this) {\n'
         '      i = new_intent\n      set_action i "toB"\n      icc start_activity i\n    }\n  }\n'),
    _app("B", '  component activity MB {\n    filter { action "toB"; }\n    method onCreate(this) {\n'
         '      x = source "getDeviceId"\n      i = new_intent\n      set_action i "toC"\n'
         '      icc start_activity i\n      call "Z/Util".leak(x)\n    }\n  }\n'),
    _app("C", '  component activity MC {\n    filter { action "toC"; }\n  }\n'
         '  class Util from "Z" {\n    method leak(v) {\n      sink "writeLog" v\n    }\n  }\n'),
]


def _parse(texts):
    out = []
    for text in texts:
        r = parse_app(text)
        assert r.ok, [str(d) for d in r.diagnostics]
        out.append(r.app)
    return out


def _report(apps, max_len=2):
    links = match_links(resolve_corpus(apps), apps).links
    return analyze(apps, links, CONFIG, max_len)


def _assert_oracle(texts, pairs):
    apps = _parse(texts)
    report = _report(apps)
    got = {(p.source, p.sink) for p in report.paths}
    assert got == oracle.oracle_pairs(apps, CONFIG)
    assert len(got) == pairs
    assert not [d for d in report.diagnostics if d.severity == "error"]
    return report


def _cli(tmp_path, capsys, texts, *argv):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for n, text in enumerate(texts):
        (corpus / f"app{n}.cir").write_text(text)
    (tmp_path / "conf").write_text(progen.CONFIG_TEXT)
    status = main([argv[0], str(corpus), *argv[1:]])
    out = capsys.readouterr()
    return status, out.out, out.err


def test_a_link_into_a_class_from_another_origin_pairs_the_holders(tmp_path, capsys):
    report = _assert_oracle(SHAPE_1, 2)
    assert report.sets == [("A", "B"), ("B", "C")]
    assert _cli(tmp_path, capsys, SHAPE_1, "combine")[1] == "A+B\nB+C\n"


def test_a_window_realizes_a_link_into_a_class_from_another_origin():
    report = _assert_oracle(SHAPE_2, 2)
    assert ("A", "B") in report.sets and ("B", "C") in report.sets
    _assert_windows_match(_parse(SHAPE_2), 2)


def test_a_source_in_a_shared_app_from_another_origin_is_recorded():
    """B lies in two windows and holds a source of origin Z."""
    texts = [_app("A", _sender()), _app("B", _receiver("Z", LOCAL_LEAK)), _app("C", _sender())]
    _assert_oracle(texts, 3)
    _assert_windows_match(_parse(texts), 2)


def test_instrument_groups_links_by_the_app_holding_the_site(tmp_path, capsys):
    _assert_oracle(SHAPE_3, 1)
    status, out, err = _cli(tmp_path, capsys, SHAPE_3, "instrument")
    assert status == 0 and err == ""
    assert "icc start_activity" not in out
    assert "call IpcSC.redirect0(i)" in out


def test_a_class_held_away_from_its_origin_is_linked_not_lost(tmp_path, capsys):
    _assert_oracle(SHAPE_4, 1)
    status, out, err = _cli(tmp_path, capsys, SHAPE_4, "analyze", "--config", str(tmp_path / "conf"))
    assert status == 0 and "error:" not in err
    assert out.endswith("1 tainted path\n")


def test_a_call_into_a_class_from_another_origin_is_a_boundary():
    _assert_oracle(SHAPE_5, 1)
    apps = _parse(SHAPE_5)
    links = match_links(resolve_corpus(apps), apps).links
    by_id = {a.app_id: a for a in apps}
    paths, _ = _analyze_set(("B", "C"), by_id, links_by_app(links, holders(apps)), CONFIG)
    assert {(p.source, p.sink) for p in paths} == oracle.oracle_pairs(apps, CONFIG)


def test_link_window_takes_each_base_from_the_app_holding_it():
    """Window B+C of shape 2, each app instrumented with its own links."""
    apps = _parse(SHAPE_2)[1:]
    held = holders(apps)
    links = match_links(resolve_corpus(apps), apps).links
    by_app = links_by_app(links, held)
    parts = [instrument_model(a, [x for x in by_app.get(a.app_id, ()) if held[x.to] == a.app_id]) for a in apps]
    between = [x for x in links if held[x.to] != held[x.from_stmt.qualified_cls]]
    assert {x.to for x in between} == {"Z/Recv", "B/Other"}
    cfg = build_cfg(link_window(combine(parts), apps, between))
    assert _shape(cfg) == _shape(build_cfg(whole_window(apps, by_app)))


# ---------------------------------------------------------------------------
# moving a component into an app of its own leaves the report as it was
# ---------------------------------------------------------------------------

MOVABLE = (ComponentKind.ACTIVITY, ComponentKind.SERVICE, ComponentKind.RECEIVER)


def _moves(apps):
    """Each corpus with one component moved into a new app ``Host``, which
    declares it ``from`` its origin. Only components that call no class
    move: a call by an unqualified class name between two apps makes no
    window."""
    for app in apps:
        if len(app.components) < 2:
            continue
        for comp in app.components:
            calls = (s for m in comp.methods() for b in m.blocks for s in b.stmts if isinstance(s, Call))
            if comp.kind not in MOVABLE or any(s.cls for s in calls):
                continue
            left = replace(app, components=[c for c in app.components if c is not comp])
            host = replace(app, app_id="Host", components=[comp], source_path=None)
            assert f'from "{app.app_id}"' in serialize_app(host)
            rest = [a for a in apps if a is not app]
            yield comp.qualified_name, rest + _parse([serialize_app(left), serialize_app(host)])


def test_moving_a_component_into_a_host_app_keeps_every_pair():
    moved, differ = 0, []
    for seed in range(40):
        apps = progen.gen_apps(seed)
        want = {(p.source, p.sink) for p in _report(apps, 8).paths}
        for name, corpus in _moves(apps):
            moved += 1
            report = _report(corpus, 8)
            errors = [d for d in report.diagnostics if d.severity == "error"]
            if {(p.source, p.sink) for p in report.paths} != want or errors:
                differ.append(f"seed {seed}: {name}")
    assert moved > 50
    assert differ == []
