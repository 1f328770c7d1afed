from pathlib import Path
from unittest import mock

import pytest

import oracle
import progen
from iccflow.cli import main
from iccflow.combine import build_iac_graph, holders, split_graph
from iccflow.icc import links_by_app, match_links, resolve_corpus
from iccflow.ir import (
    AppModel,
    Assign,
    Call,
    Component,
    ComponentKind,
    Const,
    FieldLoad,
    FieldStore,
    Finish,
    GetExtra,
    GetIntent,
    IccCall,
    Lit,
    Method,
    NewIntent,
    NewObj,
    PutExtra,
    SetAction,
    SetCategory,
    SetDataType,
    SetResult,
    SetTarget,
    SinkCall,
    SourceCall,
    StmtId,
    Var,
)
from iccflow.parser import corpus_files, load_corpus, parse_app, serialize_app
from iccflow.taint import (
    WILD,
    CallInfo,
    Cfg,
    Fact,
    _analyze_set,
    _call_info_for,
    _MethodShape,
    _stmt_flow,
    analyze,
    parse_config,
    render_report,
)
from test_propagate import _realizable, _walks

CONF = parse_config(
    """
    source getDeviceId
    source getLocation
    source getSimSerialNumber
    sink writeLog
    sink sendTextMessage
    sink sendToUrl
    """
)


def _apps(*texts):
    out = []
    for t in texts:
        r = parse_app(t)
        assert r.ok, [str(d) for d in r.diagnostics]
        out.append(r.app)
    return out


def run(*texts):
    apps = _apps(*texts)
    links = match_links(resolve_corpus(apps), apps).links
    return analyze(apps, links, CONF)


def pairs(report):
    return {(str(p.source), str(p.sink)) for p in report.paths}


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------


def test_parse_config_ignores_comments_and_blanks():
    conf = parse_config("# banner\n\nsource a  # trailing\nsink b\n")
    assert conf.sources == {"a"}
    assert conf.sinks == {"b"}


def test_parse_config_reports_position():
    with pytest.raises(ValueError, match=r"rules\.conf:2"):
        parse_config("source ok\nsinks b\n", path="rules.conf")


# ---------------------------------------------------------------------------
# single-method flows
# ---------------------------------------------------------------------------

INTRA = """
app "A" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      x = source "getDeviceId"
      sink "writeLog" x
    }
  }
}
"""


def test_intra_leak_with_endpoints():
    rep = run(INTRA)
    assert len(rep.paths) == 1
    p = rep.paths[0]
    assert p.klass == "Intra"
    assert (p.source_name, p.sink_name) == ("getDeviceId", "writeLog")
    assert str(p.source) == "A/Main/onCreate/b0/0"
    assert str(p.sink) == "A/Main/onCreate/b0/1"
    assert p.stmts[0] == p.source and p.stmts[-1] == p.sink
    assert p.apps == ("A",)


def test_constant_overwrite_kills():
    rep = run(INTRA.replace('sink "writeLog" x', 'x = "safe"\n      sink "writeLog" x'))
    assert rep.paths == []


def test_unconfigured_names_are_inert():
    text = INTRA.replace("getDeviceId", "getInstallId").replace("writeLog", "printDebug")
    assert run(text).paths == []


def test_unrooted_component_never_runs():
    # no filter, nothing targets it: the leak inside is unreachable
    assert run(INTRA.replace('filter { action "MAIN"; }\n    ', "")).paths == []


# ---------------------------------------------------------------------------
# extras: field sensitivity on intents
# ---------------------------------------------------------------------------

TWO_KEYS = """
app "A" {{
  component activity Main {{
    filter {{ action "MAIN"; }}
    method onCreate(this) {{
      id = source "getDeviceId"
      ok = "benign"
      i = new_intent
      set_target i "Recv"
      put_extra i "imei" id
      put_extra i "note" ok
      icc start_activity i
    }}
  }}
  component activity Recv {{
    method onCreate(this) {{
      g = get_intent
      v = get_extra g {key}
      sink "sendTextMessage" v
    }}
  }}
}}
"""


def test_extra_keys_are_independent():
    assert pairs(run(TWO_KEYS.format(key='"imei"'))) == {
        ("A/Main/onCreate/b0/0", "A/Recv/onCreate/b0/2")
    }
    assert run(TWO_KEYS.format(key='"note"')).paths == []


def test_variable_key_reads_any_extra():
    # a non-literal key cannot be proven disjoint from "imei"
    text = TWO_KEYS.format(key="k").replace(
        "g = get_intent", 'k = "note"\n      g = get_intent'
    )
    assert pairs(run(text)) == {("A/Main/onCreate/b0/0", "A/Recv/onCreate/b0/3")}


def test_literal_reput_is_a_strong_kill():
    text = TWO_KEYS.format(key='"imei"').replace(
        "icc start_activity i", 'put_extra i "imei" ok\n      icc start_activity i'
    )
    assert run(text).paths == []


def test_variable_key_write_is_a_weak_update():
    # overwriting through an unknown key must not kill "imei"
    text = TWO_KEYS.format(key='"imei"').replace(
        "icc start_activity i",
        'k = "note"\n      put_extra i k ok\n      icc start_activity i',
    )
    assert pairs(run(text)) == {("A/Main/onCreate/b0/0", "A/Recv/onCreate/b0/2")}


# ---------------------------------------------------------------------------
# fields on this, across lifecycle methods
# ---------------------------------------------------------------------------


def test_field_carries_taint_between_lifecycle_methods():
    text = """
app "A" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      x = source "getLocation"
      this.stash = x
    }
    method onResume(this) {
      y = this.stash
      sink "sendToUrl" y
    }
  }
}
"""
    assert pairs(run(text)) == {("A/Main/onCreate/b0/0", "A/Main/onResume/b0/1")}


def test_field_store_kills_previous_value():
    text = """
app "A" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      x = source "getLocation"
      this.stash = x
      c = "clean"
      this.stash = c
    }
    method onResume(this) {
      y = this.stash
      sink "sendToUrl" y
    }
  }
}
"""
    assert run(text).paths == []


# ---------------------------------------------------------------------------
# transfer rules, one statement and one fact at a time
# ---------------------------------------------------------------------------

ORIGIN = StmtId("A", "C", "m", "b0", 0)


def F(base, *chain):
    return Fact(base, chain, ORIGIN)


EK, EJ, FA, FB = ("e", "k"), ("e", "j"), ("f", "a"), ("f", "b")
PUT_K = PutExtra(intent="i", key=Lit("k"), value="v")
PUT_VAR = PutExtra(intent="i", key=Var("k"), value="v")
GET_K = GetExtra(dst="x", intent="i", key=Lit("k"))
GET_VAR = GetExtra(dst="x", intent="i", key=Var("k"))
LOAD_A = FieldLoad(dst="x", obj="o", fld="a")
STORE_A = FieldStore(obj="o", fld="a", src="v")


@pytest.mark.parametrize("stmt, fact, want", [
    # a literal selector's store kills only what lies under that selector
    (PUT_K, F("i", EK), []),
    (PUT_K, F("i", EJ), [F("i", EJ)]),
    (PUT_K, F("i", WILD), [F("i", WILD)]),
    (PUT_K, F("i"), [F("i")]),
    (PUT_K, F("v"), [F("v"), F("i", EK)]),
    (PUT_K, F("v", FA, FB), [F("v", FA, FB), F("i", EK, WILD)]),
    (STORE_A, F("o", FA), []),
    (STORE_A, F("o", FB), [F("o", FB)]),
    (STORE_A, F("v", EK, FB), [F("v", EK, FB), F("o", FA, WILD)]),
    (FieldStore(obj="o", fld="a", src="o"), F("o", FA), [F("o", FA, FA)]),
    # a variable key's store kills nothing and stores under WILD
    (PUT_VAR, F("i", EK), [F("i", EK)]),
    (PUT_VAR, F("i", WILD), [F("i", WILD)]),
    (PUT_VAR, F("v"), [F("v"), F("i", WILD)]),
    (PUT_VAR, F("v", FA), [F("v", FA), F("i", WILD, FA)]),
    # loads
    (GET_K, F("i", WILD), [F("i", WILD), F("x"), F("x", WILD)]),
    (GET_K, F("i", EK, FA), [F("i", EK, FA), F("x", FA)]),
    (GET_K, F("i", EJ), [F("i", EJ)]),
    (GET_K, F("i"), [F("i")]),
    (GET_K, F("x", EK), []),
    (GET_VAR, F("i", EJ), [F("i", EJ), F("x")]),
    (GET_VAR, F("i", FA), [F("i", FA)]),
    (GET_VAR, F("i", WILD, FA), [F("i", WILD, FA), F("x"), F("x", WILD)]),
    (LOAD_A, F("o", FB), [F("o", FB)]),
    (LOAD_A, F("o", EK), [F("o", EK)]),
    (LOAD_A, F("o", FA, EK), [F("o", FA, EK), F("x", EK)]),
    (LOAD_A, F("o", WILD), [F("o", WILD), F("x"), F("x", WILD)]),
    (FieldLoad(dst="o", obj="o", fld="a"), F("o", FA), [F("o")]),
    # copies
    (Assign(dst="x", src="x"), F("x", FA), [F("x", FA)]),
    (Assign(dst="y", src="x"), F("x"), [F("x"), F("y")]),
    (Assign(dst="y", src="x"), F("y", FA), []),
    # every other statement that writes a dst kills the facts on it
    (Const(dst="x", value="c"), F("x", FA), []),
    (Const(dst="x", value="c"), F("y"), [F("y")]),
    (NewIntent(dst="x"), F("x"), []),
    (NewObj(dst="x", cls="C"), F("x", FA), []),
    (SourceCall(dst="x", source="getLocation"), F("x"), []),
    (GetIntent(dst="x"), F("x", EK), []),
    (Call(dst="x", method="m", args=("x",)), F("x"), []),
    (Call(dst="x", method="m", args=("y",)), F("y", FA), [F("y", FA)]),
    (Call(method="m", args=("x",)), F("x", FA), [F("x", FA)]),
    # the rest pass facts through
    (SinkCall(sink="writeLog", var="x"), F("x"), [F("x")]),
    (SetTarget(intent="i", value=Var("x")), F("i", EK), [F("i", EK)]),
    (SetAction(intent="i", value=Var("x")), F("x"), [F("x")]),
    (SetCategory(intent="i", value=Lit("c")), F("i"), [F("i")]),
    (SetDataType(intent="i", value=Var("i")), F("i", WILD), [F("i", WILD)]),
    (IccCall(kind="start_activity", intent="i"), F("i", EK), [F("i", EK)]),
    (Finish(), F("x"), [F("x")]),
    (SetResult(intent="i"), F("i", EK), [F("i", EK)]),
])
def test_stmt_flow_rules(stmt, fact, want):
    assert _stmt_flow(stmt, fact) == want


def _accessor_class(*methods):
    return Component(name="C", kind=ComponentKind.ACTIVITY, origin_app="A", helpers=list(methods))


def test_accessors_gain_call_wiring_once_synthesized():
    get_intent, set_result = GetIntent(dst="x"), SetResult(intent="i")
    comp = _accessor_class(
        Method("getIntent", ("this",), synthetic=True),
        Method("setResult", ("this", "r"), synthetic=True),
    )
    cfg = Cfg(model=AppModel("A", [comp]))
    assert _call_info_for(cfg, comp, get_intent, {}, {}) == CallInfo(
        ("A", "C", "getIntent"), ("this",), ("this",), "x"
    )
    assert _call_info_for(cfg, comp, set_result, {}, {}) == CallInfo(
        ("A", "C", "setResult"), ("this", "i"), ("this", "r"), None
    )
    for bare in (_accessor_class(), _accessor_class(Method("getIntent"), Method("setResult"))):
        assert _call_info_for(cfg, bare, get_intent, {}, {}) is None
        assert _call_info_for(cfg, bare, set_result, {}, {}) is None
    assert cfg.diagnostics == []


# ---------------------------------------------------------------------------
# calls: context sensitivity
# ---------------------------------------------------------------------------

SHARED_HELPER = """
app "A" {
  component activity Hot {
    filter { action "MAIN"; }
    method onCreate(this) {
      x = source "getDeviceId"
      y = call Util.pass(x)
      sink "writeLog" y
    }
  }
  component activity Cold {
    filter { action "OTHER"; }
    method onCreate(this) {
      c = "nothing"
      d = call Util.pass(c)
      sink "sendToUrl" d
    }
  }
  class Util {
    method pass(x) {
      return x
    }
  }
}
"""


def test_shared_helper_keeps_callers_apart():
    got = pairs(run(SHARED_HELPER))
    assert got == {("A/Hot/onCreate/b0/0", "A/Hot/onCreate/b0/2")}
    # in particular, Cold's sink stays clean even though the helper was
    # summarized while tainted under Hot


def test_deleting_one_caller_leaves_the_other_alone():
    lines = SHARED_HELPER.splitlines()
    start = next(i for i, l in enumerate(lines) if "Cold" in l)
    without_cold = "\n".join(lines[:start] + lines[start + 8 :])
    assert pairs(run(without_cold)) == pairs(run(SHARED_HELPER))


def test_unknown_callee_result_is_clean():
    text = SHARED_HELPER.replace("call Util.pass", "call Mystery.launder")
    assert run(text).paths == []


HELPER_CLASS = """
  class Util0 {
    method pass(x) {
      return x
    }
  }
"""

VIEWER = """
app "ViewerApp" {
  component activity Viewer {
    filter { action "com.x.VIEW"; }
    method onCreate(this) {
      g = get_intent
      v = get_extra g "id"
      sink "writeLog" v
    }
  }
%s}
"""

SENDER = """
app "%s" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      id = source "getDeviceId"
      v = call Util0.pass(id)
      i = new_intent
      set_action i "com.x.VIEW"
      put_extra i "id" v
      icc start_activity i
    }
  }
%s}
"""


def test_unqualified_helper_class_resolves_in_the_callers_app():
    apps = _apps(SENDER % ("SenderApp", HELPER_CLASS), VIEWER % HELPER_CLASS)
    links = match_links(resolve_corpus(apps), apps).links
    rep = analyze(apps, links, CONF)
    assert [(p.klass, p.apps) for p in rep.paths] == [("IAC", ("SenderApp", "ViewerApp"))]
    assert not any("ambiguous" in d.message for d in rep.diagnostics)
    assert {(p.source, p.sink) for p in rep.paths} == oracle.oracle_pairs(apps, CONF)


def test_helper_class_declared_only_by_two_other_apps_is_unknown():
    other = SENDER.replace("MAIN", "OTHER") % ("OtherApp", HELPER_CLASS)
    apps = _apps(SENDER % ("SenderApp", ""), VIEWER % HELPER_CLASS, other)
    links = match_links(resolve_corpus(apps), apps).links
    rep = analyze(apps, links, CONF, max_len=3)
    assert any(
        "call to unknown class 'Util0' at SenderApp/" in d.message for d in rep.diagnostics
    )
    assert not any(p.source.app == "SenderApp" for p in rep.paths)


HELPER_OWNER = """
app "CApp" {
  component activity Relay {
    filter { action "com.x.RELAY"; }
    method onCreate(this) {
      v = "clean"
      i = new_intent
      set_action i "com.x.VIEW"
      put_extra i "id" v
      icc start_activity i
    }
  }
%s}
""" % HELPER_CLASS

RELAY_STARTER = """
app "DApp" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      i = new_intent
      set_action i "com.x.RELAY"
      icc start_activity i
    }
  }
}
"""


@pytest.mark.parametrize("max_len", [2, 3, 4])
def test_helper_class_of_another_app_is_unknown_in_every_window(max_len):
    # AApp calls Util0, which only CApp declares. AApp and CApp both start
    # ViewerApp and DApp starts CApp: at max-len 4 one window holds all four
    # apps, and the call must not resolve there either.
    apps = _apps(SENDER % ("AApp", ""), HELPER_OWNER, VIEWER % "", RELAY_STARTER)
    links = match_links(resolve_corpus(apps), apps).links
    rep = analyze(apps, links, CONF, max_len=max_len)
    assert rep.paths == []
    assert {d.message for d in rep.diagnostics} == {
        "call to unknown class 'Util0' at AApp/Main/onCreate/b0/1"
    }
    assert oracle.oracle_pairs(apps, CONF) == set()


# ---------------------------------------------------------------------------
# path classification
# ---------------------------------------------------------------------------


def test_icc_and_iac_classification(corpus_root):
    icc_rep = run(TWO_KEYS.format(key='"imei"'))
    assert [p.klass for p in icc_rep.paths] == ["ICC"]

    sender = """
app "A" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      x = source "getDeviceId"
      i = new_intent
      set_action i "com.x.PING"
      put_extra i "imei" x
      icc send_broadcast i
    }
  }
}
"""
    receiver = """
app "B" {
  component receiver Ear {
    filter { action "com.x.PING"; }
    method onReceive(this) {
      g = get_intent
      v = get_extra g "imei"
      sink "sendTextMessage" v
    }
  }
}
"""
    iac_rep = run(sender, receiver)
    assert [p.klass for p in iac_rep.paths] == ["IAC"]
    assert iac_rep.paths[0].apps == ("A", "B")


def test_one_witness_per_origin_sink_pair():
    # two routes (branch arms) from one source to one sink: a single path
    text = """
app "A" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      x = source "getDeviceId"
      branch bl br
    bl:
      a = x
      goto bj
    br:
      b = x
      goto bj
    bj:
      sink "writeLog" x
    }
  }
}
"""
    rep = run(text)
    assert len(rep.paths) == 1


# ---------------------------------------------------------------------------
# long chains: graph walks must not recurse per link
# ---------------------------------------------------------------------------


def test_long_chain_of_empty_goto_blocks():
    hops = "".join(f"    g{i}:\n      goto g{i + 1}\n" for i in range(3000))
    text = f"""
app "A" {{
  component activity Main {{
    filter {{ action "MAIN"; }}
    method onCreate(this) {{
      goto g0
{hops}    g3000:
      x = source "getDeviceId"
      sink "writeLog" x
    }}
  }}
}}
"""
    with mock.patch.object(Method, "successors", autospec=True, side_effect=Method.successors) as succ:
        assert pairs(run(text)) == {("A/Main/onCreate/g3000/0", "A/Main/onCreate/g3000/1")}
    # each walk through the chain keeps what it found: linear, not quadratic
    assert succ.call_count < 10 * 3000


def test_empty_goto_cycle_is_walked_once():
    hops = "".join(f"    g{i}:\n      goto g{(i + 1) % 3000}\n" for i in range(3000))
    head = 'app "A" {\n  component activity Main {\n    method onCreate(this) {\n'
    (app,) = _apps(f"{head}{hops}    }}\n  }}\n}}\n")
    method = app.component("Main").lifecycle["onCreate"]
    shape = _MethodShape(("A", "Main", "onCreate"), method)
    with mock.patch.object(Method, "successors", autospec=True, side_effect=Method.successors) as succ:
        assert all(shape.first_real(block.label) == [] for block in method.blocks)
    # the first walk finds no node, so every label it walked keeps []
    assert succ.call_count <= 2 * len(method.blocks)


LOOP_OF_EMPTY_BLOCKS = """
app "L" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      a = "clean"
      goto l1
    l1:
      branch l2 l3
    l2:
      goto l1
    l3:
      sink "writeLog" a
      a = source "getDeviceId"
      goto l2
    }
  }
}
"""


def test_jump_back_into_a_loop_of_empty_blocks_keeps_its_edge():
    # The first walk from l1 meets l1 again below l2; l2's first node, read
    # later from l3, must still include l3.
    assert pairs(run(LOOP_OF_EMPTY_BLOCKS)) == {("L/Main/onCreate/l3/1", "L/Main/onCreate/l3/0")}


# An empty cycle c -> l -> a -> c with two exits, x from c and b from l.
CYCLE_WITH_TWO_EXITS = """
app "C" {
  component activity Main {
    method onCreate(this) {
    s:
      goto c
    c:
      branch l x
    l:
      branch a b
    a:
      goto c
    b:
      y = "b"
      return
    x:
      z = "x"
      return
    }
  }
}
"""


def test_first_real_matches_a_fresh_walk(repo_root):
    """On every method of ``corpus/``, progen seeds 0-9 and the two methods
    above, whichever labels were walked before."""
    texts = [Path(p).read_text(encoding="utf-8") for p in corpus_files(str(repo_root / "corpus"))]
    texts += [text for seed in range(10) for text in progen.gen_corpus(seed)]
    checked = 0
    for app in _apps(*texts, LOOP_OF_EMPTY_BLOCKS, CYCLE_WITH_TWO_EXITS):
        for comp, method in app.iter_methods():
            mk = (app.app_id, comp.name, method.name)
            labels = [b.label for b in method.blocks]
            for order in (labels, labels[::-1]):
                shape = _MethodShape(mk, method)
                for label in order:
                    assert shape.first_real(label) == _MethodShape(mk, method).first_real(label), (mk, label)
                    checked += 1
    assert checked > 200


def test_long_chain_of_helper_calls():
    helpers = "".join(
        f"    method h{i}(x) {{\n      y = call H.h{i + 1}(x)\n      return y\n    }}\n"
        for i in range(1200)
    )
    text = f"""
app "A" {{
  component activity Main {{
    filter {{ action "MAIN"; }}
    method onCreate(this) {{
      x = source "getDeviceId"
      y = call H.h0(x)
      sink "writeLog" y
    }}
  }}
  class H {{
{helpers}    method h1200(x) {{
      return x
    }}
  }}
}}
"""
    rep = run(text)
    assert pairs(rep) == {("A/Main/onCreate/b0/0", "A/Main/onCreate/b0/2")}
    # the witness descends through every helper down to the last call
    assert [str(s) for s in rep.paths[0].stmts if s.cls == "H"] == [
        f"A/H/h{i}/b0/0" for i in range(1200)
    ]


# g's source reaches f through a recursive call whose outer call passed no
# taint; f hands it back, and so does every return up to onCreate.
RECURSIVE_RETURN = """
app "A" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      c = "clean"
      x = call R.f(c)
      sink "writeLog" x
    }
  }
  class R {
    method f(n) {
      branch ret rec
    ret:
      return n
    rec:
      y = call R.g(n)
      return y
    }
    method g(n) {
      s = source "getDeviceId"
      z = call R.f(s)
      return z
    }
  }
}
"""


def test_a_source_returned_through_recursion_is_reported(tmp_path, capsys):
    # stated by hand: the oracle runs out of call depth on the recursion
    with _walks() as walks:
        rep = run(RECURSIVE_RETURN)
    assert pairs(rep) == {("A/R/g/b0/0", "A/Main/onCreate/b0/2")}
    stmts = rep.paths[0].stmts
    assert str(stmts[0]) == "A/R/g/b0/0" and str(stmts[-1]) == "A/Main/onCreate/b0/2"
    # g -> f -> g -> f -> onCreate: f returns to g's call, which returns
    # into the f that made it, which returns into onCreate
    (walk,) = walks
    assert _realizable(walk)
    assert [str(n[1]) for n in walk if n[0] == "ret"] == [
        "A/R/g/b0/1", "A/R/f/rec/0", "A/Main/onCreate/b0/1"
    ]
    (tmp_path / "r.cir").write_text(RECURSIVE_RETURN, encoding="utf-8")
    (tmp_path / "r.conf").write_text("source getDeviceId\nsink writeLog\n", encoding="utf-8")
    code = main(["analyze", str(tmp_path / "r.cir"), "--config", str(tmp_path / "r.conf")])
    assert code == 0
    assert "A/R/g/b0/0 -> writeLog @ A/Main/onCreate/b0/2" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_reports_are_deterministic_across_runs_and_jobs():
    """Two analyses of the same corpus give the same report and windows."""
    texts = []
    for seed in (5, 21):
        texts.extend(progen.gen_corpus(seed))
    # distinct app ids per seed batch
    fixed = []
    for n, t in enumerate(texts):
        fixed.append(t.replace('app "App', f'app "S{n}App'))
    base = run(*fixed)
    again = run(*fixed)
    assert render_report(base, "tsv") == render_report(again, "tsv")
    assert base.sets == again.sets


def test_windows_do_not_share_state(bench_root, default_config):
    """startActivity4's app sits in every 3-app window of the bench; running
    the windows in reverse order gives each the same result, and no window
    changes an input app."""
    apps, diags = load_corpus([str(bench_root)])
    assert not diags
    links = match_links(resolve_corpus(apps), apps).links
    texts = [serialize_app(a) for a in apps]
    graph = build_iac_graph([a.app_id for a in apps], links, holders(apps))
    windows = [tuple(sorted(s)) for s in split_graph(graph, 3)]
    assert any(sum(a.app_id in w for w in windows) > 1 for a in apps)
    by_id = {a.app_id: a for a in apps}
    by_app = links_by_app(links, holders(apps))

    def results(order):
        return {w: _analyze_set(w, by_id, by_app, default_config)[:2] for w in order}

    assert results(windows) == results(reversed(windows))
    assert [serialize_app(a) for a in apps] == texts


def test_render_formats():
    rep = run(INTRA)
    tsv = render_report(rep, "tsv")
    assert tsv.startswith("class\tsource_stmt\tsink_stmt")
    assert "Intra\tA/Main/onCreate/b0/0" in tsv
    text = render_report(rep, "text")
    assert "getDeviceId" in text and "writeLog" in text
    empty = run(INTRA.replace('x = source "getDeviceId"', 'x = "nope"'))
    assert render_report(empty, "text") == "no tainted paths\n"


# ---------------------------------------------------------------------------
# differential spot check against the concrete interpreter
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(0, 60))
def test_engine_matches_interpreter(seed):
    apps = progen.gen_apps(seed)
    config = progen.config()
    links = match_links(resolve_corpus(apps), apps).links
    rep = analyze(apps, links, config)
    engine = {(p.source, p.sink) for p in rep.paths}
    concrete = oracle.oracle_pairs(apps, config)
    assert engine == concrete, (
        f"seed {seed}: engine-only {sorted(map(str, engine - concrete))}, "
        f"oracle-only {sorted(map(str, concrete - engine))}"
    )
