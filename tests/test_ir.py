import dataclasses

import pytest

from iccflow.ir import (
    ICC_KINDS,
    LIFECYCLE,
    LIFECYCLE_SLOTS,
    PROVIDER_ICC_KINDS,
    RESERVED_CLASSES,
    RESERVED_METHODS,
    STMT_FORMS,
    Assign,
    Block,
    Branch,
    Call,
    ComponentKind,
    Const,
    Fallthrough,
    FieldLoad,
    FieldStore,
    Finish,
    GetExtra,
    GetIntent,
    Goto,
    IccCall,
    Lit,
    Method,
    NewIntent,
    NewObj,
    PutExtra,
    Return,
    SetAction,
    SetCategory,
    SetDataType,
    SetResult,
    SetTarget,
    SinkCall,
    SourceCall,
    Stmt,
    StmtId,
    Var,
    _stmt_uses,
    validate,
)
from iccflow.parser import parse_app

APP = """
app "A" {
  component activity Main {
    filter { action "GO"; }
    method onCreate(this) {
      i = new_intent
      set_target i "Other"
      icc start_activity i
    }
  }
  component activity Other {
    method onCreate(this) {
      g = get_intent
      v = get_extra g "k"
      sink "writeLog" v
    }
  }
}
"""


def _app(text):
    r = parse_app(text)
    assert r.ok, [str(d) for d in r.diagnostics]
    return r.app


def test_stmt_id_round_trip():
    sid = StmtId("A", "Main", "onCreate", "b0", 2)
    assert str(sid) == "A/Main/onCreate/b0/2"
    assert sid.method_key == ("A", "Main", "onCreate")


def test_stmt_ids_are_stamped_in_order():
    app = _app(APP)
    main = app.component("Main")
    stmts = main.lifecycle["onCreate"].blocks[0].stmts
    assert [s.sid.index for s in stmts] == [0, 1, 2]
    assert all(s.sid.app == "A" and s.sid.cls == "Main" for s in stmts)


def test_component_lookup_and_qualified_names():
    app = _app(APP)
    other = app.component("Other")
    assert other.qualified_name == "A/Other"
    assert app.find_qualified("A/Other") is other
    assert other.find_method("onCreate") is other.lifecycle["onCreate"]
    assert other.find_method("nope") is None


def test_kind_tables():
    assert ComponentKind.CLASS.is_component is False
    assert all(k.is_component for k in ComponentKind if k is not ComponentKind.CLASS)
    # print order: the driver's first, one-of and last slots, then its loop's
    assert LIFECYCLE_SLOTS == {
        ComponentKind.ACTIVITY: (
            "onCreate", "onStart", "onResume", "onPause", "onStop", "onDestroy", "onActivityResult",
        ),
        ComponentKind.SERVICE: ("onCreate", "onStartCommand", "onBind", "onDestroy"),
        ComponentKind.RECEIVER: ("onReceive",),
        ComponentKind.PROVIDER: ("onQuery", "onInsert", "onDelete", "onUpdate"),
        ComponentKind.CLASS: (),
    }
    assert set(LIFECYCLE) == set(ComponentKind)
    for kind, (first, one_of, loop, last) in LIFECYCLE.items():
        names = first + one_of + loop + last
        assert len(names) == len(set(names)), kind
        assert len(one_of) <= 2, kind  # the driver branches to dm_sc or dm_bd
    assert ICC_KINDS["send_broadcast"] is ComponentKind.RECEIVER
    assert PROVIDER_ICC_KINDS == {
        "provider_query",
        "provider_insert",
        "provider_delete",
        "provider_update",
    }
    assert "dummyMain" in RESERVED_METHODS and "IpcSC" in RESERVED_CLASSES


def test_validate_rejects_duplicate_component():
    app = _app(APP)
    app.components.append(app.components[0])
    msgs = [d.message for d in validate(app)]
    assert any("duplicate component" in m for m in msgs)


def test_validate_rejects_wrong_lifecycle_slot():
    # the parser never files onReceive under an activity's lifecycle (it
    # becomes a helper), but hand-built models can get this wrong
    app = _app(APP)
    main = app.component("Main")
    main.lifecycle["onReceive"] = main.lifecycle["onCreate"]
    msgs = [d.message for d in validate(app)]
    assert any("not valid for kind activity" in m for m in msgs)


def test_validate_rejects_undeclared_variable_use():
    r = parse_app(
        """
app "A" {
  component activity Main {
    method onCreate(this) {
      sink "writeLog" ghost
    }
  }
}
"""
    )
    assert not r.ok
    assert any("undeclared variable 'ghost'" in d.message for d in r.diagnostics)


def test_validate_confines_receive_side_statements_to_component_methods():
    r = parse_app(
        """
app "A" {
  class Util {
    method grab(x) {
      g = get_intent
      return g
    }
  }
}
"""
    )
    assert not r.ok
    assert any("only legal inside component methods" in d.message for d in r.diagnostics)


def test_validate_requires_filter_action():
    r = parse_app(
        """
app "A" {
  component activity Main {
    filter { category "C"; }
    method onCreate(this) {
      finish
    }
  }
}
"""
    )
    assert not r.ok
    assert any("no action" in d.message for d in r.diagnostics)


USES = [
    (Assign(dst="a", src="b"), ["b"]),
    (Const(dst="a", value="c"), []),
    (SourceCall(dst="a", source="getDeviceId"), []),
    (SinkCall(sink="writeLog", var="v"), ["v"]),
    (NewIntent(dst="i"), []),
    (SetTarget(intent="i", value=Var("t")), ["i", "t"]),
    (SetAction(intent="i", value=Lit("A")), ["i"]),
    (SetCategory(intent="i", value=Var("c")), ["i", "c"]),
    (SetDataType(intent="i", value=Lit("text/plain")), ["i"]),
    (PutExtra(intent="i", key=Var("k"), value="v"), ["i", "k", "v"]),
    (PutExtra(intent="i", key=Lit("k"), value="v"), ["i", "v"]),
    (GetExtra(dst="e", intent="i", key=Var("k")), ["i", "k"]),
    (GetExtra(dst="e", intent="i", key=Lit("k")), ["i"]),
    (GetIntent(dst="g"), []),
    (SetResult(intent="i"), ["i"]),
    (Finish(), []),
    (IccCall(kind="start_activity", intent="i"), ["i"]),
    (Call(dst="r", cls="C", method="m", args=("a", "b")), ["a", "b"]),
    (Call(method="m"), []),
    (FieldStore(obj="o", fld="f", src="s"), ["o", "s"]),
    (FieldLoad(dst="d", obj="o", fld="f"), ["o"]),
    (NewObj(dst="o", cls="Util"), []),
]


@pytest.mark.parametrize("stmt, uses", USES, ids=[type(stmt).__name__ for stmt, _ in USES])
def test_stmt_uses(stmt, uses):
    assert _stmt_uses(stmt) == uses


def test_stmt_uses_cases_cover_every_statement_class():
    assert {type(stmt) for stmt, _ in USES} == set(Stmt.__subclasses__())


def test_stmt_forms_list_each_class_field_in_order():
    # the parser builds a form's statement from its field values by position
    for form in STMT_FORMS.values():
        names = [f.name for f in dataclasses.fields(form.cls) if not f.kw_only]
        assert names == ["dst"] * form.dst + [attr for attr, _, _ in form.fields]


@pytest.mark.parametrize("terms, idx, want", [
    ((Goto("b1"), Return()), 0, ["b1"]),
    ((Branch("b1", "b0"), Return()), 0, ["b1", "b0"]),
    ((Return("x"), Return()), 0, []),
    ((Fallthrough(), Return()), 0, ["b1"]),
    ((Goto("b1"), Fallthrough()), 1, []),
])
def test_successors_per_terminator(terms, idx, want):
    method = Method("m", blocks=[Block(f"b{i}", [], t) for i, t in enumerate(terms)])
    assert method.successors(idx) == want


def test_validate_checks_every_branch_target():
    text = APP.replace("icc start_activity i", "icc start_activity i\n      branch b0 nowhere")
    diags = parse_app(text).diagnostics
    assert [d.message for d in diags] == ["Main.onCreate: branch target 'nowhere' names no block"]
