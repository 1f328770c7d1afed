import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iccflow.combine import (
    CombineError,
    IacGraph,
    build_iac_graph,
    combine,
    split_graph,
)
from iccflow.icc import IccLink
from iccflow.ir import AppModel, Component, ComponentKind, StmtId


def _model(app_id, *comp_names):
    return AppModel(
        app_id=app_id,
        components=[
            Component(name=n, kind=ComponentKind.ACTIVITY, origin_app=app_id)
            for n in comp_names
        ],
    )


def _link(src_app, dst_app, n=0):
    return IccLink(
        StmtId(src_app, "Main", "onCreate", "b0", n),
        "start_activity",
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
    g = build_iac_graph(["A", "B", "C"], links)
    assert g.nodes == ["A", "B", "C"]
    assert sorted(g.edges) == [("A", "B"), ("A", "C")]
    assert len(g.edges[("A", "B")]) == 2  # both directions annotate one edge
    assert sorted(b for a, b in g.edges if a == "A") == ["B", "C"]
    assert [a for a, b in g.edges if b == "C"] == ["A"]


def _graph(nodes, pairs):
    g = IacGraph(nodes=sorted(nodes))
    for a, b in pairs:
        key = (a, b) if a < b else (b, a)
        g.edges.setdefault(key, []).append(_link(a, b))
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


# ---------------------------------------------------------------------------
# coverage property against a brute-force path enumerator
# ---------------------------------------------------------------------------


def _simple_paths_upto(adj, k):
    """All simple paths with at most k nodes (as node sets)."""
    out = set()

    def walk(path):
        out.add(frozenset(path))
        if len(path) == k:
            return
        for n in sorted(adj[path[-1]]):
            if n not in path:
                walk(path + [n])

    for start in adj:
        walk([start])
    return out


def _adj_of(g):
    adj = {n: set() for n in g.nodes}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _random_graph(rng, n_nodes, edge_p):
    nodes = [f"N{i}" for i in range(n_nodes)]
    pairs = [
        (a, b)
        for i, a in enumerate(nodes)
        for b in nodes[i + 1 :]
        if rng.random() < edge_p
    ]
    return _graph(nodes, pairs)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=4),
)
def test_every_short_path_is_covered_by_a_window(seed, n_nodes, max_len):
    rng = random.Random(seed)
    g = _random_graph(rng, n_nodes, rng.choice((0.15, 0.35, 0.6)))
    windows = split_graph(g, max_len=max_len)
    adj = _adj_of(g)

    # every window is connected and within bounds (or a whole small group)
    for w in windows:
        sub = sorted(w)
        seen = {sub[0]}
        stack = [sub[0]]
        while stack:
            v = stack.pop()
            for m in adj[v] & w:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        assert seen == set(w), f"window {sub} is not connected"

    covered = set(windows)
    for path_nodes in _simple_paths_upto(adj, max_len):
        assert any(
            path_nodes <= w for w in covered
        ), f"path {sorted(path_nodes)} not inside any window"


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
