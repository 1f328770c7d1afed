"""Merging apps into one analyzable model and scoping work via an IAC graph.

Links between apps only matter when both endpoints are analyzed together, so
the corpus is first reduced to a graph whose nodes are apps and whose edges
are induced by those links, each joining the apps that hold its ends
(``holders``): a ``.cir`` class may be declared ``from`` another origin app.
Each connected piece is an analysis unit; a piece larger than ``max_len`` apps
is covered by the maximal app sets of at most ``max_len`` apps that one
directed walk covers (DidFail composes flows along the same directed intent
graph). A walk goes from a link's call-site app to its target app, and back
for ``start_activity_for_result``, whose result returns to the caller; these
are the ways an intent carries a leak chain between apps, so every such chain
through at most ``max_len`` apps lies inside an emitted set. A call that
names a class another app holds joins the two apps both ways, since the
call returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .icc import IccLink
from .ir import AppModel, Call


class CombineError(Exception):
    pass


def combine(apps: list[AppModel]) -> AppModel:
    """Merge several apps into one model; components keep their origin app.

    Component objects are shared with the inputs, not copied;
    ``instrument_model`` and ``link_window`` copy on write and never mutate
    them. The instrumenter's ``redirects`` are merged too.
    """
    ids = [a.app_id for a in apps]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise CombineError(f"duplicate app id(s): {', '.join(dupes)}")
    if not apps:
        raise CombineError("nothing to combine")
    merged = AppModel(app_id="+".join(sorted(ids)))
    for app in sorted(apps, key=lambda a: a.app_id):
        merged.components.extend(app.components)
        merged.redirects.update(app.redirects)
    return merged


def holders(apps: list[AppModel]) -> dict[str, str]:
    """Each qualified class name -> the id of the one app that declares it (see ``load_corpus``)."""
    return {c.qualified_name: app.app_id for app in apps for c in app.components}


@dataclass
class IacGraph:
    """App graph; an edge means a link or a call between two apps."""

    nodes: list[str] = field(default_factory=list)
    # key is the (call-site holder, target holder) pair; links sorted (a
    # call's edges may hold none)
    edges: dict[tuple[str, str], list[IccLink]] = field(default_factory=dict)
    # (caller app, call, callee app) for each call to a class another app holds
    calls: list[tuple[str, Call, str]] = field(default_factory=list)


def build_iac_graph(apps: list[AppModel], links: list[IccLink], held: dict[str, str]) -> IacGraph:
    """Join the two apps that hold a link's call site and its target; a link
    one app holds both ends of, or no app in ``apps`` holds an end of, joins
    none. A call to a class that another app in ``apps`` holds joins the two
    both ways."""
    graph = IacGraph(nodes=sorted(a.app_id for a in apps))
    known = set(graph.nodes)
    for link in sorted(links):
        a, b = held.get(link.from_stmt.qualified_cls), held.get(link.to)
        if a != b and a in known and b in known:
            graph.edges.setdefault((a, b), []).append(link)
    for app in apps:
        for comp in app.components:
            for method in comp.methods():
                for block in method.blocks:
                    for stmt in block.stmts:
                        if type(stmt) is Call and held.get(stmt.cls, app.app_id) != app.app_id:
                            graph.calls.append((app.app_id, stmt, held[stmt.cls]))
    for a, _, b in graph.calls:
        if b in known:
            graph.edges.setdefault((a, b), [])
            graph.edges.setdefault((b, a), [])
    return graph


def _components_of(nodes: list[str], adj: dict[str, set[str]]) -> list[list[str]]:
    seen: set[str] = set()
    out: list[list[str]] = []
    for start in nodes:
        if start in seen:
            continue
        stack, group = [start], []
        seen.add(start)
        while stack:
            n = stack.pop()
            group.append(n)
            for m in sorted(adj[n]):
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        out.append(sorted(group))
    return out


def _walk_sets(group: list[str], succ: dict[str, set[str]], k: int) -> set[frozenset[str]]:
    """The maximal app sets of at most k apps that one directed walk covers."""
    states = {(v, frozenset([v])) for v in group}
    stack = list(states)
    covered: set[frozenset[str]] = set()
    while stack:
        app, apps = stack.pop()
        covered.add(apps)
        for nxt in succ[app]:
            state = (nxt, apps | {nxt})
            if len(state[1]) <= k and state not in states:
                states.add(state)
                stack.append(state)
    # every proper subset of a covered set, each generated once, level by level
    inside: set[frozenset[str]] = set()
    level = covered
    while level:
        level = {s - {v} for s in level for v in s} - inside
        inside |= level
    return covered - inside


def split_graph(graph: IacGraph, max_len: int = 2) -> list[frozenset[str]]:
    """Split into connected app groups, bounding each emitted set's size.

    Groups of at most ``max_len`` apps are emitted whole. A larger group is
    covered by the maximal sets of at most ``max_len`` apps that one walk
    along link direction covers: caller app to target app, and target back
    to caller for ``start_activity_for_result``. Any leak chain through at
    most ``max_len`` apps is then fully contained in at least one emitted
    set. At ``max_len`` 2 or less the sets are the group's edges or apps.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    adj: dict[str, set[str]] = {n: set() for n in graph.nodes}
    succ: dict[str, set[str]] = {n: set() for n in graph.nodes}
    for (a, b), links in graph.edges.items():
        adj[a].add(b)
        adj[b].add(a)
        succ[a].add(b)
        if any(link.kind == "start_activity_for_result" for link in links):
            succ[b].add(a)
    out: list[frozenset[str]] = []
    for group in _components_of(graph.nodes, adj):
        if len(group) <= max_len:
            out.append(frozenset(group))
        else:
            out.extend(_walk_sets(group, succ, max_len))
    return sorted(out, key=sorted)
