import sys
from pathlib import Path

import pytest

from iccflow.icc import (
    TOP,
    UNSET,
    IccLink,
    IntentValue,
    LinkResult,
    _analyze_method,
    _entry_methods,
    _filter_matches,
    _join_vals,
    _ValueSink,
    join_sets,
    match_links,
    resolve_corpus,
    resolve_intent_values,
)
from iccflow.ir import ICC_KINDS, PROVIDER_ICC_KINDS, IccCall, StmtId, warning
from iccflow.parser import load_corpus, parse_app

# The benchmark's corpus generator builds the replicated corpora below.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _app(text):
    r = parse_app(text)
    assert r.ok, [str(d) for d in r.diagnostics]
    return r.app


def _links(*apps):
    return match_links(resolve_corpus(list(apps)), list(apps))


# ---------------------------------------------------------------------------
# Value lattice
# ---------------------------------------------------------------------------


def test_join_sets_top_absorbs():
    assert join_sets(TOP, frozenset({"a"})) is TOP
    assert join_sets(frozenset({"a"}), TOP) is TOP
    assert join_sets(frozenset({"a"}), frozenset({"b"})) == {"a", "b"}


def test_intent_value_join_keeps_option_sets():
    set_path = IntentValue(targets=frozenset({"Second"}))
    unset_path = IntentValue()  # fresh: target unset
    joined = set_path.join(unset_path)
    assert joined.targets == {"Second", UNSET}
    assert joined.explicit_targets == ["Second"]
    assert joined.may_be_implicit  # the unset path can still match filters


def test_intent_value_top_is_absorbing():
    v = IntentValue.top().join(IntentValue(actions=frozenset({"A"})))
    assert v.targets is TOP and v.actions is TOP


def test_transfer_of_each_intent_statement():
    app = _app(
        """
app "T" {
  component activity Main {
    method onCreate(this) {
      i = new_intent
      set_target i "A"
      set_target i "B"
      set_action i "a1"
      set_action i "a2"
      set_data_type i "t1"
      set_data_type i "t2"
      set_category i "c1"
      set_category i "c2"
      v = "x"
      put_extra i "k" v
      icc start_activity i
      put_extra i v v
      icc start_activity i
      g = get_intent
      icc start_activity g
      m = "s"
      branch str intent
    str:
      goto join
    intent:
      m = new_intent
    join:
      set_action m "z"
      icc start_activity m
    }
  }
}
"""
    )
    values = resolve_intent_values(app)
    written, opaque_key, received, merged = (
        values[StmtId("T", "Main", "onCreate", block, index)]
        for block, index in (("b0", 11), ("b0", 13), ("b0", 15), ("join", 1))
    )
    # target, action and data type keep the last write; categories add up
    assert written == IntentValue(
        targets=frozenset({"B"}),
        actions=frozenset({"a2"}),
        categories=frozenset({"c1", "c2"}),
        data_types=frozenset({"t2"}),
    )
    # extras are not matched: even a key the analysis cannot name changes nothing
    assert opaque_key == written
    assert received == IntentValue.top()
    # a string on one path and an intent on the other join to the Top intent
    assert merged == IntentValue(TOP, frozenset({"z"}), TOP, TOP)


# ---------------------------------------------------------------------------
# Resolution and matching
# ---------------------------------------------------------------------------


def test_bare_explicit_target_stays_in_the_senders_app():
    a = _app(
        """
app "A" {
  component activity Main {
    filter { action "M"; }
    method onCreate(this) {
      i = new_intent
      set_target i "Second"
      icc start_activity i
    }
  }
  component activity Second {
  }
}
"""
    )
    b = _app(
        """
app "B" {
  component activity Second {
  }
}
"""
    )
    res = _links(a, b)
    assert [(l.to, l.exact, l.cross_app) for l in res.links] == [("A/Second", True, False)]


def test_qualified_explicit_target_crosses_apps():
    a = _app(
        """
app "A" {
  component activity Main {
    filter { action "M"; }
    method onCreate(this) {
      i = new_intent
      set_target i "B/Worker"
      icc start_service i
    }
  }
}
"""
    )
    b = _app(
        """
app "B" {
  component service Worker {
  }
}
"""
    )
    res = _links(a, b)
    (link,) = res.links
    assert link.to == "B/Worker" and link.cross_app and link.exact


def test_kind_mismatch_is_a_diagnostic_not_a_link():
    a = _app(
        """
app "A" {
  component activity Main {
    filter { action "M"; }
    method onCreate(this) {
      i = new_intent
      set_target i "Helper"
      icc start_service i
    }
  }
  component activity Helper {
  }
}
"""
    )
    res = _links(a)
    assert res.links == []
    assert any("does not accept start_service" in d.message for d in res.diagnostics)


def test_missing_explicit_target_is_a_diagnostic():
    a = _app(
        """
app "A" {
  component activity Main {
    filter { action "M"; }
    method onCreate(this) {
      i = new_intent
      set_target i "Ghost"
      icc start_activity i
    }
  }
}
"""
    )
    res = _links(a)
    assert res.links == []
    assert any("no such component" in d.message for d in res.diagnostics)


def test_implicit_matching_rules():
    a = _app(
        """
app "A" {
  component activity Main {
    filter { action "M"; }
    method onCreate(this) {
      i = new_intent
      set_action i "VIEW"
      set_category i "BROWSABLE"
      icc start_activity i
    }
  }
  component activity Yes {
    filter { action "VIEW"; category "BROWSABLE"; category "DEFAULT"; }
  }
  component activity NoCategory {
    filter { action "VIEW"; }
  }
  component activity NoAction {
    filter { action "EDIT"; category "BROWSABLE"; }
  }
  component service WrongKind {
    filter { action "VIEW"; category "BROWSABLE"; }
  }
}
"""
    )
    res = _links(a)
    # categories must be a subset of the filter's; action must be present
    assert sorted(l.to for l in res.links) == ["A/Yes"]
    assert all(l.exact for l in res.links)


def test_data_type_must_match_declared_filter_types():
    a = _app(
        """
app "A" {
  component activity Main {
    filter { action "M"; }
    method onCreate(this) {
      i = new_intent
      set_action i "VIEW"
      set_data_type i "image/png"
      icc start_activity i
    }
  }
  component activity TextOnly {
    filter { action "VIEW"; data_type "text/plain"; }
  }
  component activity Untyped {
    filter { action "VIEW"; }
  }
  component activity Png {
    filter { action "VIEW"; data_type "image/png"; }
  }
}
"""
    )
    res = _links(a)
    assert sorted(l.to for l in res.links) == ["A/Png"]


def test_untyped_intent_matches_only_untyped_filters():
    a = _app(
        """
app "A" {
  component activity Main {
    filter { action "M"; }
    method onCreate(this) {
      i = new_intent
      set_action i "VIEW"
      icc start_activity i
    }
  }
  component activity TextOnly {
    filter { action "VIEW"; data_type "text/plain"; }
  }
  component activity Untyped {
    filter { action "VIEW"; }
  }
}
"""
    )
    res = _links(a)
    assert sorted(l.to for l in res.links) == ["A/Untyped"]


def test_branch_merged_actions_link_both_targets_exactly():
    a = _app(
        """
app "C" {
  component activity Main {
    filter { action "M"; }
    method onCreate(this) {
      i = new_intent
      branch one two
    one:
      set_action i "GO_ONE"
      goto send
    two:
      set_action i "GO_TWO"
      goto send
    send:
      icc start_activity i
    }
  }
  component activity T1 {
    filter { action "GO_ONE"; }
  }
  component activity T2 {
    filter { action "GO_TWO"; }
  }
}
"""
    )
    res = _links(a)
    assert sorted((l.to, l.exact) for l in res.links) == [("C/T1", True), ("C/T2", True)]


def test_variable_action_degrades_to_fuzzy_fanout():
    a = _app(
        """
app "B" {
  component activity Main {
    filter { action "M"; }
    callback onChoice(this, choice) {
      i = new_intent
      set_action i choice
      icc start_activity i
    }
  }
  component activity V1 {
    filter { action "ONE"; }
  }
  component service S1 {
    filter { action "TWO"; }
  }
}
"""
    )
    res = _links(a)
    # every kind-compatible component, all marked fuzzy; the service is spared
    assert sorted((l.to, l.exact) for l in res.links) == [
        ("B/Main", False),
        ("B/V1", False),
    ]


def test_intent_passed_through_helper_parameter_still_resolves():
    a = _app(
        """
app "A" {
  component activity Main {
    filter { action "M"; }
    method onCreate(this) {
      i = new_intent
      set_target i "Second"
      call fire(this, i)
    }
    method fire(this, j) {
      icc start_activity j
    }
  }
  component activity Second {
  }
}
"""
    )
    res = _links(a)
    (link,) = res.links
    assert link.to == "A/Second" and link.exact
    assert link.from_stmt.method == "fire"


def test_provider_calls_never_resolve():
    a = _app(
        """
app "A" {
  component activity Main {
    filter { action "M"; }
    method onCreate(this) {
      i = new_intent
      set_target i "Store"
      icc provider_insert i
    }
  }
  component provider Store {
  }
}
"""
    )
    res = _links(a)
    assert res.links == []


def test_long_fallthrough_chain_resolves_its_site():
    # Every block but the one with the icc falls through to the next; the
    # action is set halfway along, so the value has to follow the block order.
    hops = "".join(
        f"    f{i}:\n" + ('      set_action i "GO"\n' if i == 1500 else "")
        for i in range(3000)
    )
    a = _app(
        f"""
app "A" {{
  component activity Main {{
    filter {{ action "MAIN"; }}
    method onCreate(this) {{
      i = new_intent
{hops}    last:
      icc start_activity i
    }}
  }}
  component activity Target {{
    filter {{ action "GO"; }}
  }}
}}
"""
    )
    res = _links(a)
    assert res.links == [
        IccLink(StmtId("A", "Main", "onCreate", "last", 0), "start_activity", "A/Target", True, False)
    ]
    assert res.diagnostics == []


# ---------------------------------------------------------------------------
# One case per resolution rule
# ---------------------------------------------------------------------------

RULES_APP = """
app "R" {
  component activity Main {
    filter { action "MAIN"; }
    callback onPick(this, choice) {
%s
    }
  }
  component activity One {
    filter { action "ONE"; }
  }
  component activity Two {
    filter { action "TWO"; }
  }
  component activity Typed {
    filter { action "ONE"; data_type "text/plain"; }
  }
}
"""

EVERY_ACTIVITY = [("R/Main", False), ("R/One", False), ("R/Two", False), ("R/Typed", False)]

RULE_CASES = {
    # a copy carries a string and an intent alike
    "copy": (
        """
      i = new_intent
      s = "ONE"
      t = s
      set_action i t
      j = i
      icc start_activity j""",
        [("R/One", True)],
    ),
    # a string where an intent is expected is the Top intent
    "string_sent": (
        """
      s = "ONE"
      icc start_activity s""",
        EVERY_ACTIVITY,
    ),
    # the loop is walked until its head's environment stops changing
    "loop": (
        """
      i = new_intent
      set_action i "ONE"
      goto head
    head:
      icc start_activity i
      set_action i "TWO"
      branch head out
    out:
      return""",
        [("R/One", True), ("R/Two", True)],
    ),
    # a site that neither pass reaches still gets a value: Top
    "unreached": (
        """
      i = new_intent
      set_action i "ONE"
      return
    dead:
      icc start_activity i""",
        EVERY_ACTIVITY,
    ),
    # a Top data type matches every filter that the action matches, fuzzily
    "top_data_type": (
        """
      i = new_intent
      set_action i "ONE"
      set_data_type i choice
      icc start_activity i""",
        [("R/One", False), ("R/Typed", False)],
    ),
    # put_extra makes its variable an intent: the string it held is lost
    "extra_on_string": (
        """
      i = new_intent
      s = "ONE"
      v = "x"
      put_extra s "k" v
      set_action i s
      icc start_activity i""",
        [("R/Main", False), ("R/One", False), ("R/Two", False)],
    ),
}


@pytest.mark.parametrize("body, want", RULE_CASES.values(), ids=list(RULE_CASES))
def test_each_resolution_rule(body, want):
    res = _links(_app(RULES_APP % body))
    assert sorted((l.to, l.exact) for l in res.links) == want
    assert res.diagnostics == []


def test_a_variable_read_before_it_is_assigned_is_the_empty_string():
    body = """
      i = new_intent
      set_action i s
      icc start_activity i
      s = "ONE"
"""
    (value,) = resolve_intent_values(_app(RULES_APP % body)).values()
    fields = (value.targets, value.actions, value.categories, value.data_types)
    assert fields == (frozenset({UNSET}), frozenset({""}), frozenset(), frozenset({UNSET}))


# ---------------------------------------------------------------------------
# The kind/action index against a nested-loop reference
# ---------------------------------------------------------------------------


def _reference_match_links(values_by_app, corpus):
    """The matcher the index replaced: every implicit site is tested against
    the filters of every component of the corpus."""
    components = []
    by_qualified = {}
    kinds = {}
    for app in corpus:
        for _c, _m, _b, stmt in app.iter_stmts():
            if isinstance(stmt, IccCall):
                kinds[stmt.sid] = stmt.kind
        for comp in app.components:
            components.append(comp)
            by_qualified[comp.qualified_name] = comp

    result = LinkResult()
    links = set()
    for app_id in sorted(values_by_app):
        for sid in sorted(values_by_app[app_id]):
            value = values_by_app[app_id][sid]
            kind = kinds.get(sid)
            if kind is None or kind in PROVIDER_ICC_KINDS:
                continue
            want = ICC_KINDS[kind]
            for qname in value.explicit_targets:
                if "/" not in qname:
                    qname = f"{sid.app}/{qname}"
                target = by_qualified.get(qname)
                if target is None or target.kind is not want:
                    reason = "no such component" if target is None else (
                        f"kind {target.kind.value} does not accept {kind}"
                    )
                    result.diagnostics.append(
                        warning(f"unresolved link: {sid} -> {qname!r} ({reason})")
                    )
                    continue
                links.add(IccLink(sid, kind, qname, True, target.origin_app != sid.app))
            if value.may_be_implicit:
                for comp in components:
                    if comp.kind is not want:
                        continue
                    cross = comp.origin_app != sid.app
                    if value.targets is TOP:
                        links.add(IccLink(sid, kind, comp.qualified_name, False, cross))
                        continue
                    best = None
                    for flt in comp.filters:
                        m = _filter_matches(value, flt)
                        if m is not None:
                            best = m if best is None else (best or m)
                    if best is not None:
                        links.add(IccLink(sid, kind, comp.qualified_name, best, cross))
    result.links = sorted(links)
    return result


def _same_as_reference(apps):
    values = resolve_corpus(apps)
    got = match_links(values, apps)
    want = _reference_match_links(values, apps)
    assert got.links == want.links
    assert got.diagnostics == want.diagnostics
    return got


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "prefixed"])
@pytest.mark.parametrize("seed", [1, 2])
def test_index_matches_reference_on_replicated_corpora(monkeypatch, shared, seed):
    # Twelve progen corpora (generator seeds 0..11) and two copies of the
    # bench, each under renamed app ids; "prefixed" also renames every action
    # and category per replica, "shared" keeps them, so links cross replicas.
    monkeypatch.setitem(
        workloads.SHAPES, "tiny", workloads.Shape(progen=12, bench=2, shared=shared, max_len=2)
    )
    corpus = workloads.generate("tiny", seed)
    apps = [_app(text) for text in corpus.files().values()]
    res = _same_as_reference(apps)
    assert any(l.exact for l in res.links)

    def replica(app_id):
        return app_id.split("_", 1)[0]

    crossing = [l for l in res.links if replica(l.from_stmt.app) != replica(l.to)]
    assert bool(crossing) == shared
    # startActivity4's Top action is only in the shared form.
    assert any(not l.exact for l in res.links) == shared


def test_index_matches_reference_on_the_bench(bench_root):
    apps, diags = load_corpus([str(bench_root)])
    assert diags == []
    values = resolve_corpus(apps)
    # startActivity4's action is Top: its site scans every activity.
    assert any(v.actions is TOP for per_app in values.values() for v in per_app.values())
    res = _same_as_reference(apps)
    assert any(not l.exact for l in res.links)


def test_index_matches_reference_on_hand_cases():
    a = _app(
        """
app "H" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      n = new_intent
      icc start_activity n
      s = new_intent
      set_action s "SHARED"
      icc start_activity s
      v = new_intent
      set_action v "SHARED"
      icc start_service v
      e = new_intent
      set_action e "ONE"
      set_category e "C"
      icc start_activity e
      x = new_intent
      set_target x "Nowhere"
      icc start_activity x
    }
    callback onPick(this, choice) {
      t = new_intent
      set_target t choice
      icc start_activity t
      f = new_intent
      branch one two
    one:
      set_action f "ONE"
      goto send
    two:
      set_action f "TWO"
      goto send
    send:
      set_category f choice
      icc start_activity f
    }
  }
  component activity Both {
    filter { action "ONE"; category "C"; }
    filter { action "TWO"; }
  }
  component activity Act {
    filter { action "SHARED"; }
  }
  component service Svc {
    filter { action "SHARED"; }
  }
}
"""
    )
    b = _app(
        """
app "I" {
  component activity Far {
    filter { action "SHARED"; }
    filter { action "ONE"; }
  }
}
"""
    )
    res = _same_as_reference([a, b])
    assert [d.message for d in res.diagnostics] == [
        "unresolved link: H/Main/onCreate/b0/14 -> 'H/Nowhere' (no such component)"
    ]
    got = {(l.from_stmt.method, l.from_stmt.block, l.from_stmt.index, l.kind, l.to, l.exact) for l in res.links}
    activities = ["H/Main", "H/Both", "H/Act", "I/Far"]
    assert got == {
        # no action: no candidates, no link
        # one action declared by an activity and a service: each kind its own
        ("onCreate", "b0", 4, "start_activity", "H/Act", True),
        ("onCreate", "b0", 4, "start_activity", "I/Far", True),
        ("onCreate", "b0", 7, "start_service", "H/Svc", True),
        # the first filter of Both matches exactly, the second not at all
        ("onCreate", "b0", 11, "start_activity", "H/Both", True),
        # Top target: every activity, fuzzily
        *{("onPick", "b0", 2, "start_activity", q, False) for q in activities},
        # Top category: Both is listed under ONE and TWO, both filters match
        ("onPick", "send", 1, "start_activity", "H/Both", False),
        ("onPick", "send", 1, "start_activity", "I/Far", False),
    }


# ---------------------------------------------------------------------------
# Intent value resolution against the two passes over every method
# ---------------------------------------------------------------------------


def _reference_resolve(app):
    """The resolver before it ran only the methods each pass reads: the first
    pass runs every method, the second every method again."""
    pass1 = _ValueSink()
    for comp, method in app.iter_methods():
        _analyze_method(method, {p: IntentValue.top() for p in method.params}, pass1)
    pass2 = _ValueSink()
    for comp, method in app.iter_methods():
        init = {}
        is_entry = method.name in _entry_methods(comp)
        for i, param in enumerate(method.params):
            bound = None
            for cls_key in (comp.name, comp.qualified_name, None):
                b = pass1.arg_bindings.get((cls_key, method.name, i))
                if b is not None:
                    bound = b if bound is None else _join_vals(bound, b)
            init[param] = IntentValue.top() if is_entry or bound is None else bound
        _analyze_method(method, init, pass2)
    values = dict(pass2.icc_values)
    for _c, _m, _b, stmt in app.iter_stmts():
        if isinstance(stmt, IccCall) and stmt.sid not in values:
            values[stmt.sid] = IntentValue.top()
    return values


CALLER_BINDS = """
app "R" {
  component activity Main {
    filter { action "M"; }
    method onCreate(this) {
      i = new_intent
      set_action i "GO"
      call fire(this, i)
    }
    method fire(this, k) {
      icc start_activity k
      n = new_intent
      icc start_service n
    }
    callback onTap(this) {
      c = "idle"
    }
  }
}
"""


@pytest.mark.parametrize("corpus", ["caller_binds", "bench", "prefixed", "shared"])
def test_resolution_matches_the_two_full_passes(monkeypatch, bench_root, corpus):
    # "caller_binds": the call that binds an intent lies in a method with no ICC
    # site; "prefixed": twelve progen corpora kept apart; "shared": twelve
    # progen corpora and two bench copies whose strings are shared
    if corpus == "caller_binds":
        apps = [_app(CALLER_BINDS)]
    elif corpus == "bench":
        apps, diags = load_corpus([str(bench_root)])
        assert diags == []
    else:
        shape = workloads.Shape(progen=12, bench=2 * (corpus == "shared"), shared=corpus == "shared", max_len=2)
        monkeypatch.setitem(workloads.SHAPES, "tiny", shape)
        apps = [_app(text) for text in workloads.generate("tiny", 3).files().values()]
    helped = 0
    for app in apps:
        got, want = resolve_intent_values(app), _reference_resolve(app)
        assert list(got.items()) == list(want.items()), app.app_id
        helped += any(v != IntentValue.top() for v in got.values())
    assert helped > 0
