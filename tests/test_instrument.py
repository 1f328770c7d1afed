from pathlib import Path

import pytest

from iccflow.combine import combine
from iccflow.icc import IccLink, match_links, resolve_corpus
from iccflow.instrument import (
    INTENT_FIELD,
    RESULT_FIELD,
    InstrumentError,
    instrument_model,
    synthesize_dummy_main,
)
from iccflow.ir import Branch, Call, ComponentKind, Goto, IccCall, Return, StmtId
from iccflow.parser import load_app, parse_app, serialize_app
from iccflow.taint import build_cfg

GOLDEN = Path(__file__).parent / "golden" / "listing1_instrumented.cir"
DRIVERS_GOLDEN = Path(__file__).parent / "golden" / "drivers_instrumented.cir"


def _app(text):
    r = parse_app(text)
    assert r.ok, [str(d) for d in r.diagnostics]
    return r.app


def _resolve(*apps):
    return match_links(resolve_corpus(list(apps)), list(apps)).links


SINGLE = """
app "A" {
  component activity Main {
    filter { action "M"; }
    method onCreate(this) {
      v = source "getDeviceId"
      i = new_intent
      set_target i "Second"
      put_extra i "k" v
      icc start_activity i
      sink "writeLog" v
    }
  }
  component activity Second {
    method onCreate(this) {
      g = get_intent
      d = get_extra g "k"
      sink "sendTextMessage" d
    }
  }
}
"""


def test_single_link_is_replaced_in_place():
    app = _app(SINGLE)
    out = instrument_model(app, _resolve(app))
    block = out.component("Main").lifecycle["onCreate"].blocks[0]
    kinds = [type(s).__name__ for s in block.stmts]
    assert kinds == ["SourceCall", "NewIntent", "SetTarget", "PutExtra", "Call", "SinkCall"]
    redirect = block.stmts[4]
    assert redirect.cls == "IpcSC" and redirect.method == "redirect0"
    assert redirect.args == ("i",)
    assert redirect.synthetic
    # the replacement statement keeps the site's id; the tail is untouched
    assert redirect.sid == StmtId("A", "Main", "onCreate", "b0", 4)
    assert block.stmts[5].sid.index == 5


def test_an_unknown_icc_kind_is_a_warning_and_its_site_is_skipped():
    # a parsed model cannot hold such a kind; a hand-edited one can
    app = _app(SINGLE)
    for _, _, _, stmt in app.iter_stmts():
        if isinstance(stmt, IccCall):
            stmt.kind = "bogus"
    result = match_links(resolve_corpus([app]), [app])
    assert result.links == []
    assert [(d.severity, d.message) for d in result.diagnostics] == [
        ("warning", "unknown icc kind 'bogus' at A/Main/onCreate/b0/4")
    ]


def test_target_gains_receiving_helpers():
    app = _app(SINGLE)
    out = instrument_model(app, _resolve(app))
    second = out.component("Second")
    ctor = second.find_method("ctor")
    get_intent = second.find_method("getIntent")
    assert ctor is not None and ctor.synthetic
    assert get_intent is not None and get_intent.synthetic
    body = serialize_app(out)
    assert INTENT_FIELD in body
    # not a for-result target: no result plumbing
    assert second.find_method("setResult") is None
    assert second.find_method("getIntentFAR") is None
    assert RESULT_FIELD not in body


def test_helper_class_is_synthetic_and_carries_no_filters():
    app = _app(SINGLE)
    out = instrument_model(app, _resolve(app))
    helper = out.component("IpcSC")
    assert helper is not None
    assert helper.kind is ComponentKind.CLASS
    assert helper.synthetic and not helper.filters
    assert [m.name for m in helper.helpers] == ["redirect0"]


def _roots(model):
    """The components whose ``dummyMain`` is a root of the model's flow graph."""
    return [mk[1] for _, mk in build_cfg(model).roots if mk[2] == "dummyMain"]


def test_rooted_flags():
    app = _app(
        SINGLE.replace(
            "component activity Second {",
            'component provider Store {\n    filter { action "S"; }\n  }\n  component activity Second {',
        )
    )
    out = instrument_model(app, _resolve(app))
    # Main has a filter, Second is a link target; a provider that declares a
    # filter gets no driver, and IpcSC is a plain class: no driver at all
    assert _roots(out) == ["Main", "Second"]
    assert out.component("Store").filters and out.component("Store").find_method("dummyMain") is None
    assert out.component("IpcSC").find_method("dummyMain") is None


def test_unlinked_unfiltered_component_is_not_rooted():
    app = _app(
        SINGLE.replace(
            'component activity Second {',
            'component activity Orphan {\n  }\n  component activity Second {',
        )
    )
    out = instrument_model(app, _resolve(app))
    assert _roots(out) == ["Main", "Second"]
    assert out.component("Orphan").find_method("dummyMain") is not None


FAN = """
app "A" {
  component activity Main {
    filter { action "M"; }
    method onCreate(this) {
      v = source "getDeviceId"
      i = new_intent
      set_action i "PING"
      put_extra i "k" v
      icc send_broadcast i
      sink "writeLog" v
    }
  }
  component receiver R1 {
    filter { action "PING"; }
  }
  component receiver R2 {
    filter { action "PING"; }
  }
  component receiver R3 {
    filter { action "PING"; }
  }
}
"""


def test_fanout_splits_the_block_into_a_chooser_chain():
    app = _app(FAN)
    out = instrument_model(app, _resolve(app))
    method = out.component("Main").lifecycle["onCreate"]
    labels = [b.label for b in method.blocks]
    assert labels == ["b0", "icc0_c0", "icc0_r0", "icc0_r1", "icc0_r2", "icc0_cont"]

    head = method.blocks[0]
    assert isinstance(head.term, Branch)
    assert (head.term.left, head.term.right) == ("icc0_r0", "icc0_c0")
    assert len(head.stmts) == 4  # prefix keeps its statements and ids

    chooser = method.blocks[1]
    assert isinstance(chooser.term, Branch)
    assert (chooser.term.left, chooser.term.right) == ("icc0_r1", "icc0_r2")
    assert chooser.stmts == []

    for i, label in enumerate(("icc0_r0", "icc0_r1", "icc0_r2")):
        blk = next(b for b in method.blocks if b.label == label)
        (call,) = blk.stmts
        assert isinstance(call, Call) and call.method == f"redirect{i}"
        assert isinstance(blk.term, Goto) and blk.term.label == "icc0_cont"

    cont = method.blocks[-1]
    assert [type(s).__name__ for s in cont.stmts] == ["SinkCall"]
    # tail statements keep their original (pre-split) ids
    assert cont.stmts[0].sid == StmtId("A", "Main", "onCreate", "b0", 5)


def test_redirect_bodies_drive_the_target():
    app = _app(FAN)
    out = instrument_model(app, _resolve(app))
    helper = out.component("IpcSC")
    assert [m.name for m in helper.helpers] == ["redirect0", "redirect1", "redirect2"]
    for method in helper.helpers:
        names = [type(s).__name__ for s in method.blocks[0].stmts]
        assert names == ["NewObj", "Call", "Call"]  # ctor then dummyMain
        assert isinstance(method.blocks[0].term, Return)


FOR_RESULT = """
app "A" {
  component activity Main {
    filter { action "M"; }
    method onCreate(this) {
      i = new_intent
      set_target i "Child"
      icc start_activity_for_result i
    }
    method onActivityResult(this, r) {
      d = get_extra r "out"
      sink "writeLog" d
    }
  }
  component activity Child {
    method onCreate(this) {
      s = source "getLocation"
      k = new_intent
      put_extra k "out" s
      set_result k
    }
  }
}
"""


def test_for_result_link_wires_the_result_path():
    app = _app(FOR_RESULT)
    out = instrument_model(app, _resolve(app))
    child = out.component("Child")
    assert child.find_method("setResult") is not None
    assert child.find_method("getIntentFAR") is not None

    (redirect,) = out.component("IpcSC").helpers
    assert redirect.params == ("caller", "i")
    names = [(type(s).__name__, getattr(s, "method", "")) for s in redirect.blocks[0].stmts]
    assert names == [
        ("NewObj", ""),
        ("Call", "ctor"),
        ("Call", "dummyMain"),
        ("Call", "getIntentFAR"),
        ("Call", "onActivityResult"),
    ]
    site = out.component("Main").lifecycle["onCreate"].blocks[0].stmts[-1]
    assert site.args == ("this", "i")


def test_for_result_without_handler_skips_the_callback():
    text = FOR_RESULT.replace(
        """    method onActivityResult(this, r) {
      d = get_extra r "out"
      sink "writeLog" d
    }
""",
        "",
    )
    app = _app(text)
    out = instrument_model(app, _resolve(app))
    (redirect,) = out.component("IpcSC").helpers
    called = [getattr(s, "method", "") for s in redirect.blocks[0].stmts]
    assert "onActivityResult" not in called
    assert "getIntentFAR" in called  # result is still collected


SENDER = """
app "S" {
  component activity Main {
    filter { action "M"; }
    method onCreate(this) {
      v = source "getDeviceId"
      i = new_intent
      set_action i "PING"
      put_extra i "k" v
      icc send_broadcast i
    }
  }
}
"""

RECEIVER = """
app "R" {
  component receiver Rx {
    filter { action "PING"; }
  }
}
"""


def _shape(apps):
    """What instrumenting could change in place: text and method counts of
    every component."""
    return [
        (
            serialize_app(app),
            [(len(c.lifecycle), len(c.callbacks), len(c.helpers)) for c in app.components],
        )
        for app in apps
    ]


def test_instrument_does_not_mutate_the_input():
    """Copy on write: instrumenting leaves every input as it was, and the
    same model instrumented again gives the same output."""
    cases = {
        "in-place": [SINGLE],
        "fan-out": [FAN],
        "for-result": [FOR_RESULT],
        "combined": [SENDER, RECEIVER],
    }
    for name, texts in cases.items():
        apps = [_app(t) for t in texts]
        model = apps[0] if len(apps) == 1 else combine(apps)
        links = _resolve(*apps)
        before = _shape([*apps, model])
        first = serialize_app(instrument_model(model, links))
        assert first != serialize_app(model), name
        assert _shape([*apps, model]) == before, name
        assert serialize_app(instrument_model(model, links)) == first, name
        assert _shape([*apps, model]) == before, name

    # each case has the shape its name says
    fan = _resolve(_app(FAN))
    assert len({link.from_stmt for link in fan}) == 1 and len(fan) == 3
    app = _app(FOR_RESULT)
    (link,) = _resolve(app)
    assert link.kind == "start_activity_for_result"
    assert app.component("Main").find_method("onActivityResult") is not None
    (link,) = _resolve(_app(SENDER), _app(RECEIVER))
    assert link.cross_app


# ---------------------------------------------------------------------------
# dummyMain shapes
# ---------------------------------------------------------------------------


def test_dummy_main_activity_shape():
    app = _app(
        """
app "A" {
  component activity Main {
    filter { action "M"; }
    method onCreate(this) {
      finish
    }
    method onResume(this) {
      finish
    }
    method onDestroy(this) {
      finish
    }
    callback onClick(this) {
      finish
    }
  }
}
"""
    )
    dm = synthesize_dummy_main(app.component("Main"))
    assert dm.name == "dummyMain" and dm.synthetic
    text_calls = [
        s.method for b in dm.blocks for s in b.stmts if isinstance(s, Call)
    ]
    # lifecycle prefix in order, the callback reachable from the loop, suffix after
    assert text_calls.index("onCreate") < text_calls.index("onResume")
    assert "onClick" in text_calls
    assert text_calls.index("onDestroy") > text_calls.index("onClick")
    labels = [b.label for b in dm.blocks]
    assert "dm_loop" in labels and "dm_exit" in labels
    loop = next(b for b in dm.blocks if b.label == "dm_loop")
    assert isinstance(loop.term, Branch) and loop.term.left == "dm_exit"


def test_dummy_main_service_branches_between_entries():
    app = _app(
        """
app "A" {
  component service S {
    filter { action "M"; }
    method onCreate(this) {
      finish
    }
    method onStartCommand(this) {
      finish
    }
    method onBind(this) {
      finish
    }
  }
}
"""
    )
    dm = synthesize_dummy_main(app.component("S"))
    labels = {b.label for b in dm.blocks}
    assert {"dm_sc", "dm_bd"} <= labels
    branch = next(
        b.term
        for b in dm.blocks
        if isinstance(b.term, Branch) and {b.term.left, b.term.right} == {"dm_sc", "dm_bd"}
    )
    assert branch is not None


def test_dummy_main_receiver_and_empty_component():
    app = _app(
        """
app "A" {
  component receiver R {
    filter { action "M"; }
    method onReceive(this) {
      finish
    }
  }
  component activity Empty {
  }
}
"""
    )
    dm = synthesize_dummy_main(app.component("R"))
    calls = [s.method for b in dm.blocks for s in b.stmts if isinstance(s, Call)]
    assert calls == ["onReceive"]

    empty = synthesize_dummy_main(app.component("Empty"))
    assert len(empty.blocks) == 1
    assert empty.blocks[0].stmts == []
    assert isinstance(empty.blocks[0].term, Return)


def _component(kind, name, *members):
    """Component text; each member ``(keyword, name, params)`` is a method
    or callback whose body is ``finish``."""
    body = "".join(f"    {kw} {m}({params}) {{\n      finish\n    }}\n" for kw, m, params in members)
    return f"  component {kind} {name} {{\n{body}  }}\n"


# one component per driver shape: every lifecycle slot, extra parameters in
# each part of the driver (so the dm_u numbering order shows), a one-of pair
# with and without a loop after it, each single slot, and an empty driver
DRIVERS = (
    'app "D" {\n'
    + _component(
        "activity", "Full",
        ("method", "onCreate", "this, state"), ("method", "onStart", "this"),
        ("method", "onResume", "this"), ("method", "onPause", "this"),
        ("method", "onStop", "this"), ("method", "onDestroy", "this, reason"),
        ("method", "onActivityResult", "this, data"),
        ("callback", "onClick", "this, view"), ("callback", "onLongClick", "this"),
    )
    + _component("activity", "ResultOnly", ("method", "onActivityResult", "this, data"))
    + _component(
        "service", "Both",
        ("method", "onCreate", "this"), ("method", "onStartCommand", "this, i, flags"),
        ("method", "onBind", "this, i"), ("method", "onDestroy", "this, reason"),
    )
    + _component(
        "service", "BothLooping",
        ("method", "onStartCommand", "this, i"), ("method", "onBind", "this"),
        ("callback", "onTick", "this, n"),
    )
    + _component("service", "Started", ("method", "onStartCommand", "this, i"))
    + _component("service", "Bound", ("method", "onBind", "this, i"))
    + _component("service", "Destroyed", ("method", "onDestroy", "this"))
    + _component("service", "CallbackOnly", ("callback", "onTick", "this"))
    + _component(
        "receiver", "Radio",
        ("method", "onReceive", "this, ctx, i"), ("callback", "onTimeout", "this, t"),
    )
    + _component("activity", "Empty")
    + "}\n"
)


def test_every_driver_shape_matches_its_golden_dump():
    out = instrument_model(_app(DRIVERS), [])
    assert serialize_app(out) == DRIVERS_GOLDEN.read_text(encoding="utf-8")


def test_dummy_main_refuses_providers_and_classes():
    app = _app(
        """
app "A" {
  component provider P {
  }
  class Util {
  }
}
"""
    )
    with pytest.raises(InstrumentError):
        synthesize_dummy_main(app.component("P"))
    with pytest.raises(InstrumentError):
        synthesize_dummy_main(app.component("Util"))


# ---------------------------------------------------------------------------
# Errors and scoping
# ---------------------------------------------------------------------------


def test_instrumenting_twice_is_an_error():
    app = _app(SINGLE)
    once = instrument_model(app, _resolve(app))
    with pytest.raises(InstrumentError):
        instrument_model(once, [])


def test_link_into_provider_is_an_error():
    app = _app(SINGLE)
    bad = IccLink(
        StmtId("A", "Main", "onCreate", "b0", 4),
        "start_activity",
        "A/Store",
        True,
        False,
    )
    app.components.append(
        _app('app "A" {\n  component provider Store {\n  }\n}\n').components[0]
    )
    with pytest.raises(InstrumentError):
        instrument_model(app, [bad])


def test_link_from_missing_statement_is_an_error():
    app = _app(SINGLE)
    ghost = IccLink(
        StmtId("A", "Main", "onCreate", "b0", 99),
        "start_activity",
        "A/Second",
        True,
        False,
    )
    with pytest.raises(InstrumentError):
        instrument_model(app, [ghost])


def test_links_to_components_outside_the_model_are_skipped():
    # when analyzing one window of a larger corpus, foreign targets are simply
    # out of scope: the call site stays as it is
    app = _app(SINGLE)
    foreign = IccLink(
        StmtId("A", "Main", "onCreate", "b0", 4),
        "start_activity",
        "OtherApp/Elsewhere",
        True,
        True,
    )
    out = instrument_model(app, [foreign])
    block = out.component("Main").lifecycle["onCreate"].blocks[0]
    assert type(block.stmts[4]).__name__ == "IccCall"
    assert out.component("IpcSC") is None


def test_golden_instrumented_dump(repo_root):
    r = load_app(str(repo_root / "corpus" / "motivating" / "listing1.cir"))
    assert r.ok
    links = _resolve(r.app)
    out = instrument_model(r.app, links)
    assert serialize_app(out) == GOLDEN.read_text(encoding="utf-8")


def test_golden_contains_the_expected_artifacts():
    text = GOLDEN.read_text(encoding="utf-8")
    assert "class IpcSC" in text
    assert "redirect0" in text and "redirect1" in text
    assert INTENT_FIELD in text and RESULT_FIELD in text
    assert text.count("method dummyMain") == 3  # one driver per component


def _layout(method):
    """Each block of the method as ``label: terminator``, in block order."""

    def term(t):
        if isinstance(t, Goto):
            return f"goto {t.label}"
        if isinstance(t, Branch):
            return f"branch {t.left} {t.right}"
        return "return" if isinstance(t, Return) else "fallthrough"

    return [f"{b.label}: {term(b.term)}" for b in method.blocks]


LOOP = "dm_loop: branch dm_exit"
DO = [f"dm_do{i}: goto dm_loop" for i in range(4)]


@pytest.mark.parametrize("n, chain", [
    (1, [f"{LOOP} dm_do0"]),
    (2, [f"{LOOP} dm_c0", "dm_c0: branch dm_do0 dm_do1"]),
    (3, [f"{LOOP} dm_c0", "dm_c0: branch dm_do0 dm_c1", "dm_c1: branch dm_do1 dm_do2"]),
    (4, [f"{LOOP} dm_c0", "dm_c0: branch dm_do0 dm_c1", "dm_c1: branch dm_do1 dm_c2",
         "dm_c2: branch dm_do2 dm_do3"]),
])
def test_dummy_main_chooses_among_its_options_through_a_branch_chain(n, chain):
    callbacks = "".join(f"    callback on{i}(this) {{\n      finish\n    }}\n" for i in range(n))
    app = _app(f'app "A" {{\n  component activity Main {{\n{callbacks}  }}\n}}\n')
    dm = synthesize_dummy_main(app.component("Main"))
    assert _layout(dm) == ["dm0: goto dm_loop", *chain, *DO[:n], "dm_exit: return"]
    for i in range(n):
        (call,) = dm.block(f"dm_do{i}").stmts
        assert isinstance(call, Call) and call.method == f"on{i}"


@pytest.mark.parametrize("n, chain", [
    (2, ["b0: branch icc0_r0 icc0_r1"]),
    (3, ["b0: branch icc0_r0 icc0_c0", "icc0_c0: branch icc0_r1 icc0_r2"]),
    (4, ["b0: branch icc0_r0 icc0_c0", "icc0_c0: branch icc0_r1 icc0_c1",
         "icc0_c1: branch icc0_r2 icc0_r3"]),
])
def test_fanout_chooses_among_its_redirects_through_a_branch_chain(n, chain):
    receivers = "".join(
        f'  component receiver R{i} {{\n    filter {{ action "PING"; }}\n  }}\n' for i in range(n)
    )
    app = _app(FAN[: FAN.index("  component receiver R1")] + receivers + "}\n")
    method = instrument_model(app, _resolve(app)).component("Main").lifecycle["onCreate"]
    redirects = [f"icc0_r{i}: goto icc0_cont" for i in range(n)]
    assert _layout(method) == [*chain, *redirects, "icc0_cont: fallthrough"]
    for i in range(n):
        (call,) = method.block(f"icc0_r{i}").stmts
        assert isinstance(call, Call) and call.method == f"redirect{i}"
