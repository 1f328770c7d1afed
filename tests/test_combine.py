import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from iccflow.combine import (
    CombineError,
    IacGraph,
    _components_of,
    build_iac_graph,
    combine,
    holders,
    split_graph,
)
from iccflow.icc import IccLink, links_by_app, match_links, resolve_corpus
from iccflow.ir import AppModel, Component, ComponentKind, StmtId
from iccflow.parser import load_corpus, parse_app
from iccflow.taint import AnalysisReport, _analyze_set, analyze, render_report

# The benchmark's corpus generator builds the shared-string mixes below.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _model(app_id, *comp_names):
    return AppModel(
        app_id=app_id,
        components=[
            Component(name=n, kind=ComponentKind.ACTIVITY, origin_app=app_id)
            for n in comp_names
        ],
    )


def _link(src_app, dst_app, n=0, kind="start_activity"):
    return IccLink(
        StmtId(src_app, "Main", "onCreate", "b0", n),
        kind,
        f"{dst_app}/Target",
        True,
        src_app != dst_app,
    )


# ---------------------------------------------------------------------------
# combine
# ---------------------------------------------------------------------------


def test_combine_merges_sorted_and_shares_components():
    b = _model("B", "X")
    a = _model("A", "Y", "Z")
    merged = combine([b, a])
    assert merged.app_id == "A+B"
    assert [c.name for c in merged.components] == ["Y", "Z", "X"]
    # shared, not copied: instrumentation copies later, on its own
    assert merged.components[0] is a.components[0]
    assert merged.find_qualified("B/X") is b.components[0]


def test_combine_rejects_duplicates_and_emptiness():
    with pytest.raises(CombineError, match="duplicate"):
        combine([_model("A"), _model("A")])
    with pytest.raises(CombineError):
        combine([])


# ---------------------------------------------------------------------------
# IAC graph
# ---------------------------------------------------------------------------


def test_graph_keeps_only_cross_app_edges():
    links = [
        _link("A", "A", 0),  # in-app: ignored
        _link("A", "B", 1),
        _link("B", "A", 2),  # same pair, other direction
        _link("A", "C", 3),
        _link("A", "Ghost", 4),  # unknown endpoint: ignored
    ]
    held = {f"{app}/{cls}": app for app in "ABC" for cls in ("Main", "Target")}
    g = build_iac_graph([_model(app) for app in "CBA"], links, held)
    assert g.nodes == ["A", "B", "C"]
    assert sorted(g.edges) == [("A", "B"), ("A", "C"), ("B", "A")]
    assert g.edges[("A", "B")] == [links[1]] and g.edges[("B", "A")] == [links[2]]  # one edge per direction
    assert sorted(b for a, b in g.edges if a == "A") == ["B", "C"]
    assert [a for a, b in g.edges if b == "C"] == ["A"]
    # an edge joins the apps that hold the ends, not the ends' origin apps
    one_holder = {"A/Main": "AB", "B/Target": "AB"}
    assert build_iac_graph([_model("AB")], [_link("A", "B")], one_holder).edges == {}
    two_holders = {"A/Main": "A", "A/Target": "B"}
    assert build_iac_graph([_model("A"), _model("B")], [_link("A", "A")], two_holders).edges == {
        ("A", "B"): [_link("A", "A")]
    }


def _graph(nodes, pairs, for_result=()):
    """One link per (caller, target) pair; those in ``for_result`` are
    ``start_activity_for_result`` links."""
    g = IacGraph(nodes=sorted(nodes))
    for a, b in pairs:
        kind = "start_activity_for_result" if (a, b) in for_result else "start_activity"
        g.edges.setdefault((a, b), []).append(_link(a, b, kind=kind))
    return g


# ---------------------------------------------------------------------------
# split_graph
# ---------------------------------------------------------------------------


def test_small_groups_are_emitted_whole():
    g = _graph(["A", "B", "C", "D"], [("A", "B")])
    out = split_graph(g, max_len=3)
    assert out == sorted([frozenset({"A", "B"}), frozenset({"C"}), frozenset({"D"})], key=sorted)


def test_chain_of_ten_with_window_five():
    apps = [f"A{i}" for i in range(10)]
    g = _graph(apps, [(apps[i], apps[i + 1]) for i in range(9)])
    out = split_graph(g, max_len=5)
    # a path graph has exactly n-k+1 connected induced k-subsets
    assert len(out) == 6
    assert frozenset({"A2", "A3", "A4", "A5", "A6"}) in out
    assert all(len(s) == 5 for s in out)


def test_triangle_with_window_two():
    g = _graph(["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "C")])
    out = split_graph(g, max_len=2)
    assert sorted(sorted(s) for s in out) == [["A", "B"], ["A", "C"], ["B", "C"]]


def test_max_len_must_be_positive():
    with pytest.raises(ValueError):
        split_graph(_graph(["A"], []), max_len=0)


def test_isolated_apps_become_singletons():
    g = _graph(["A", "B"], [])
    assert split_graph(g, max_len=2) == [frozenset({"A"}), frozenset({"B"})]


def test_fan_in_gives_one_pair_per_caller():
    # A -> B <- C <- D: no walk covers A and C together
    g = _graph(["A", "B", "C", "D"], [("A", "B"), ("C", "B"), ("D", "C")])
    assert split_graph(g, max_len=3) == [frozenset("AB"), frozenset("BCD")]
    g = _graph(["A", "B", "C"], [("A", "B"), ("C", "B")])
    assert split_graph(g, max_len=2) == [frozenset("AB"), frozenset("BC")]
    assert split_graph(g, max_len=3) == [frozenset("ABC")]  # small group: whole


def test_result_back_edge_makes_a_walk():
    # A starts B, C and D; only a result from B returns the walk to A
    pairs = [("A", "B"), ("A", "C"), ("A", "D")]
    plain = _graph(["A", "B", "C", "D"], pairs)
    assert split_graph(plain, max_len=3) == [frozenset("AB"), frozenset("AC"), frozenset("AD")]
    g = _graph(["A", "B", "C", "D"], pairs, for_result={("A", "B")})
    assert split_graph(g, max_len=3) == [frozenset("ABC"), frozenset("ABD")]


def test_a_set_two_apps_inside_a_walk_is_not_emitted():
    # A -> C, and A -> B -> D -> C or E: no walk adds just one app to {A, C},
    # yet {A, C} lies inside {A, B, C, D}
    pairs = [("A", "C"), ("A", "B"), ("B", "D"), ("D", "C"), ("D", "E")]
    g = _graph(["A", "B", "C", "D", "E"], pairs)
    assert split_graph(g, max_len=4) == [frozenset("ABCD"), frozenset("ABDE")]


def test_hub_gives_one_pair_per_leaf():
    # connected 3-subsets would be C(2000, 2) = 1,999,000 sets
    leaves = [f"L{i:04d}" for i in range(2000)]
    g = _graph(["H"] + leaves, [("H", leaf) for leaf in leaves])
    assert split_graph(g, max_len=3) == [frozenset(["H", leaf]) for leaf in leaves]


# ---------------------------------------------------------------------------
# the plan against brute force and against the connected-subset reference
# ---------------------------------------------------------------------------


def _adj_of(g):
    adj = {n: set() for n in g.nodes}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _random_graph(rng, n_nodes, edge_p):
    """Each linked pair gets a link one way, the other way, both ways, or a
    ``start_activity_for_result`` link."""
    nodes = [f"N{i}" for i in range(n_nodes)]
    pairs, for_result = [], set()
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if rng.random() < edge_p:
                shape = rng.choice(("ab", "ba", "both", "result"))
                if shape != "ba":
                    pairs.append((a, b))
                if shape in ("ba", "both"):
                    pairs.append((b, a))
                if shape == "result":
                    for_result.add((a, b))
    return _graph(nodes, pairs, for_result)


def _reference_ksubsets(nodes, adj, k):
    """The enumerator the walk plan replaced: every connected induced subset
    of exactly k nodes."""
    found = set()
    visited = set()

    def grow(sub):
        if len(sub) == k:
            found.add(sub)
            return
        boundary = set()
        for v in sub:
            boundary |= adj[v]
        for w in sorted(boundary - sub):
            nxt = sub | {w}
            if nxt not in visited:
                visited.add(nxt)
                grow(nxt)

    for v in nodes:
        seed = frozenset([v])
        visited.add(seed)
        grow(seed)
    return found


def _reference_plan(g, max_len):
    adj = _adj_of(g)
    out = []
    for group in _components_of(g.nodes, adj):
        if len(group) <= max_len:
            out.append(frozenset(group))
        else:
            out.extend(_reference_ksubsets(group, adj, max_len))
    return sorted(out, key=sorted)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=4),
)
def test_every_walk_is_covered_by_a_set(seed, n_nodes, max_len):
    rng = random.Random(seed)
    g = _random_graph(rng, n_nodes, rng.choice((0.15, 0.35, 0.6)))
    sets = split_graph(g, max_len=max_len)
    links = [link for group in g.edges.values() for link in group]
    walks = oracle.walk_covered_sets(g.nodes, links, max_len)

    for walk in walks:
        assert any(walk <= s for s in sets), f"walk {sorted(walk)} not inside any set"
    groups = _components_of(g.nodes, _adj_of(g))
    assert sum(len([s for s in sets if s <= set(group)]) for group in groups) == len(sets)
    for group in groups:
        mine = [s for s in sets if s <= set(group)]
        if len(group) <= max_len:
            assert mine == [frozenset(group)]
            continue
        for s in mine:
            assert s in walks, f"set {sorted(s)} is not walk-covered"
            assert not any(s < t for t in mine), f"set {sorted(s)} is not maximal"
    if max_len <= 2:  # every edge is a walk: the plan is the reference plan
        assert sets == _reference_plan(g, max_len)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_windows_never_mix_disconnected_groups(seed):
    rng = random.Random(seed)
    g = _random_graph(rng, rng.randint(2, 7), 0.3)
    adj = _adj_of(g)
    for w in split_graph(g, max_len=rng.randint(1, 3)):
        for a in w:
            for b in w:
                if a == b:
                    continue
                # a and b must be connected inside the full graph
                stack, seen = [a], {a}
                while stack:
                    v = stack.pop()
                    for m in adj[v]:
                        if m not in seen:
                            seen.add(m)
                            stack.append(m)
                assert b in seen


# ---------------------------------------------------------------------------
# analyze on the plan against a first-window-wins merge over the reference
# ---------------------------------------------------------------------------


def _same_report_as_reference(apps, config, max_len):
    """``analyze`` reports what running every connected ``max_len``-subset
    in order, first window wins, reports; returns both plans' sizes."""
    links = match_links(resolve_corpus(apps), apps).links
    got = analyze(apps, links, config, max_len)
    windows = _reference_plan(build_iac_graph(apps, links, holders(apps)), max_len)
    by_id = {a.app_id: a for a in apps}
    by_app = links_by_app(links, holders(apps))
    want = AnalysisReport()
    seen = set()
    for window in windows:
        paths, diags = _analyze_set(tuple(sorted(window)), by_id, by_app, config)
        want.diagnostics.extend(diags)
        for p in paths:
            if (p.source, p.sink) not in seen:
                seen.add((p.source, p.sink))
                want.paths.append(p)
    want.paths.sort(key=lambda p: (p.source, p.sink))
    assert render_report(got, "tsv") == render_report(want, "tsv")
    assert got.diagnostics == want.diagnostics
    assert any(p.klass == "IAC" for p in got.paths)
    return len(got.sets), len(windows)


@pytest.mark.parametrize("max_len", [3, 4])
def test_bench_report_matches_the_reference_plan(bench_root, default_config, max_len):
    apps, diags = load_corpus([str(bench_root)])
    assert not diags
    sets, windows = _same_report_as_reference(apps, default_config, max_len)
    assert sets < windows


@pytest.mark.parametrize("progen_n, seed", [(8, 1), (16, 2)])
def test_shared_mix_report_matches_the_reference_plan(monkeypatch, default_config, progen_n, seed):
    # progen corpora and one bench copy under renamed app ids, with action
    # and category strings shared, so implicit links cross replicas
    monkeypatch.setitem(
        workloads.SHAPES, "mix", workloads.Shape(progen=progen_n, bench=1, shared=True, max_len=3)
    )
    texts = workloads.generate("mix", seed).files().values()
    apps = [parse_app(text).app for text in texts]
    sets, windows = _same_report_as_reference(apps, default_config, 3)
    assert sets * 5 < windows


@pytest.mark.parametrize("max_len, windows", [(2, 50), (3, 53)])
def test_shared_progen_pairs_are_the_oracle_pairs_of_the_windows(
    monkeypatch, default_config, max_len, windows
):
    # 40 progen corpora with shared action strings: implicit links cross
    # replicas, and the engine finds what a concrete run of each window finds.
    # No bench replica: startActivity4's fuzzy links, the bench's one false
    # warning, reach every activity, which no concrete run does
    monkeypatch.setitem(
        workloads.SHAPES, "progen", workloads.Shape(progen=40, bench=0, shared=True, max_len=max_len)
    )
    apps = [parse_app(text).app for text in workloads.generate("progen", 1).files().values()]
    by_id = {app.app_id: app for app in apps}
    links = match_links(resolve_corpus(apps), apps).links
    report = analyze(apps, links, default_config, max_len)
    assert (len(apps), len(report.sets)) == (54, windows) and not report.diagnostics
    got = {(p.source, p.sink) for p in report.paths}
    want = set().union(*(oracle.oracle_pairs([by_id[a] for a in s], default_config) for s in report.sets))
    assert got == want
    assert len(got) == 66 and sum(p.klass == "IAC" for p in report.paths) == 10


# ---------------------------------------------------------------------------
# a qualified call between two apps joins them, both ways
# ---------------------------------------------------------------------------

LEAKS_BY_CALL = """
app "A" {
  component activity Main {
    filter { action "com.a.MAIN"; }
    method onCreate(this) {
      x = source "getDeviceId"
      call "B/Util".leak(x)
    }
  }
}
""", """
app "B" {
  class Util {
    method leak(v) {
      sink "writeLog" v
    }
  }
}
"""

# B's source returns into A, whose intent takes it on to X; A's intent also
# starts Y, so the four apps need walks, and only B -> A -> X covers the leak
RETURNS_BY_CALL = """
app "A" {
  component activity Main {
    filter { action "com.a.MAIN"; }
    method onCreate(this) {
      x = call "B/Util".get()
      i = new_intent
      set_action i "com.x.GO"
      put_extra i "k" x
      icc start_activity i
    }
  }
}
""", """
app "B" {
  class Util {
    method get() {
      s = source "getDeviceId"
      return s
    }
  }
}
""", """
app "X" {
  component activity Recv {
    filter { action "com.x.GO"; }
    method onCreate(this) {
      j = get_intent
      v = get_extra j "k"
      sink "writeLog" v
    }
  }
}
""", """
app "Y" {
  component activity Deaf {
    filter { action "com.x.GO"; }
  }
}
"""


@pytest.mark.parametrize("texts, max_len, sets, pair", [
    (LEAKS_BY_CALL, 2, [("A", "B")], ("A/Main/onCreate/b0/0", "B/Util/leak/b0/0")),
    (RETURNS_BY_CALL, 3, [("A", "B", "X"), ("A", "B", "Y")], ("B/Util/get/b0/0", "X/Recv/onCreate/b0/2")),
])
def test_a_qualified_call_between_two_apps_joins_them(default_config, texts, max_len, sets, pair):
    apps = [parse_app(text).app for text in texts]
    links = match_links(resolve_corpus(apps), apps).links
    graph = build_iac_graph(apps, links, holders(apps))
    assert graph.edges[("A", "B")] == graph.edges[("B", "A")] == []
    report = analyze(apps, links, default_config, max_len)
    assert report.sets == sets
    assert report.diagnostics == []
    got = {(p.source, p.sink) for p in report.paths}
    assert {(str(a), str(b)) for a, b in got} == {pair}
    assert got == oracle.oracle_pairs(apps, default_config)
