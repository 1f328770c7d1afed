"""Flow-, field- and context-sensitive taint propagation over instrumented code.

The engine is an IFDS-style tabulation: dataflow facts are access paths (a
variable plus a bounded selector chain), transfer functions are distributive,
and procedures are summarized per entry fact so a callee analyzed under one
caller's fact is reused at every other call site with the same fact — never
merged across distinct entry facts. That per-entry-fact reuse is what keeps
two components sharing a helper from contaminating each other.

Facts carry their originating source statement, and every path edge
records the edge it came from, so each reported (origin, sink) pair comes
with a witness: CFG-connected statements whose calls return where they
were made.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Container, Iterable, NamedTuple, Optional

from .combine import IacGraph, build_iac_graph, combine, holders, split_graph
from .icc import IccLink, links_by_app
from .instrument import INTENT_FIELD, RESULT_FIELD, InstrumentError, instrument_model, link_window
from .instrument import _already_instrumented, _locate
from .ir import (
    AppModel,
    Assign,
    Call,
    Component,
    ComponentKind,
    Diagnostic,
    FieldLoad,
    FieldStore,
    StmtId,
    GetExtra,
    IccCall,
    GetIntent,
    Method,
    PutExtra,
    Return,
    SetResult,
    SinkCall,
    SourceCall,
    Stmt,
    _stmt_defs,
    _stmt_uses,
    warning,
)

# ---------------------------------------------------------------------------
# Source/sink configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceSinkConfig:
    sources: frozenset[str] = frozenset()
    sinks: frozenset[str] = frozenset()


def parse_config(text: str, path: Optional[str] = None) -> SourceSinkConfig:
    sources, sinks = set(), set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] not in ("source", "sink"):
            where = f"{path or '<config>'}:{lineno}"
            raise ValueError(f"{where}: expected 'source <name>' or 'sink <name>', got {raw.strip()!r}")
        (sources if parts[0] == "source" else sinks).add(parts[1])
    return SourceSinkConfig(frozenset(sources), frozenset(sinks))


def load_config(path: str) -> SourceSinkConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise ValueError(f"cannot read {path}: not UTF-8 text") from None
    return parse_config(text, path)


# ---------------------------------------------------------------------------
# Inter-component control-flow graph
# ---------------------------------------------------------------------------
#
# Node shapes (all plain tuples, mk = (app, class, method)):
#   ("entry", mk)           procedure entry
#   ("exit", mk)            procedure exit
#   ("stmt", sid)           one statement
#   ("ret", sid)            return site of a call statement
#   ("retval", (mk, label)) a block's return terminator (binds @ret)
#
# Every edge is intraprocedural ("normal"). A call statement has none:
# ``propagate`` steps from it into the callee named in ``Cfg.calls`` and to
# its return site, whose edges lead on.

Node = tuple
MethodKey = tuple[str, str, str]


@dataclass
class CallInfo:
    """Argument/parameter wiring for one call-like statement."""

    callee: MethodKey
    args: tuple[str, ...]
    params: tuple[str, ...]
    dst: Optional[str]


@dataclass
class Cfg:
    """``succ`` and ``retvar`` hold the methods ``build_cfg`` laid out."""

    model: AppModel
    succ: dict[Node, list[tuple[Node, str]]] = field(default_factory=dict)
    roots: list[Node] = field(default_factory=list)
    stmts: dict[StmtId, Stmt] = field(default_factory=dict)
    calls: dict[StmtId, CallInfo] = field(default_factory=dict)
    retvar: dict[tuple[MethodKey, str], Optional[str]] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    live: dict[tuple[frozenset, frozenset], set[MethodKey]] = field(default_factory=dict)

    def add_edge(self, a: Node, b: Node) -> None:
        self.succ.setdefault(a, []).append((b, "normal"))


def _join(parts: Iterable[list[Node]]) -> list[Node]:
    """The nodes of ``parts``, left part first, each once."""
    out: list[Node] = []
    for part in parts:
        out += [n for n in part if n not in out]
    return out


class _MethodShape:
    """Per-method node layout with empty-block elision."""

    def __init__(self, mk: MethodKey, method: Method):
        self.method = method
        self.mk = mk
        self.index = {b.label: i for i, b in enumerate(method.blocks)}
        self._first: dict[str, list[Node]] = {}

    def first_real(self, label: str) -> list[Node]:
        """First actual node(s) reached when control enters the block.

        Empty blocks are walked through depth-first, left branch first, with
        an explicit stack; a label met again within one walk (an empty
        cycle) contributes nothing. A label's list is kept for later walks
        only if its own walk met no label already walked: the labels under
        it then form a tree, but for those that reach no node, so a later
        walk reads the list as a fresh walk would. If the whole walk found
        no node, none of the labels it walked reaches one, and each keeps
        ``[]``.
        """
        if label in self._first:
            return self._first[label]
        found: set[str] = set()
        results: list[tuple[list[Node], bool]] = []  # (nodes, met a label already walked)
        # (label, 0) visits a block; (label, n) joins the results its n
        # successors left on top of ``results``.
        stack: list[tuple[str, int]] = [(label, 0)]
        while stack:
            lbl, n = stack.pop()
            met = False
            if n:
                out = _join(nodes for nodes, _ in results[-n:])
                met = any(m for _, m in results[-n:])
                del results[-n:]
            elif lbl in self._first:
                results.append((self._first[lbl], False))
                continue
            elif lbl in found:
                results.append(([], True))
                continue
            elif lbl not in self.index:
                results.append(([], False))
                continue
            else:
                found.add(lbl)
                idx = self.index[lbl]
                block = self.method.blocks[idx]
                succs = self.method.successors(idx)
                if block.stmts:
                    out = [("stmt", block.stmts[0].sid)]
                elif not succs:
                    out = [("retval", (self.mk, lbl))]
                else:
                    stack.append((lbl, len(succs)))
                    stack += [(s, 0) for s in reversed(succs)]
                    continue
            if not met:
                self._first[lbl] = out
            results.append((out, met))
        out = results.pop()[0]
        if not out:
            self._first.update(dict.fromkeys(found, out))
        return out


def _resolve_callee(
    diagnostics: list[Diagnostic],
    comp: Component,
    stmt: Call,
    by_name: dict[str, list[Component]],
    by_qualified: dict[str, Component],
) -> Optional[tuple[Component, Method]]:
    if stmt.cls is None:
        target: Optional[Component] = comp
    elif "/" in stmt.cls:
        target = by_qualified.get(stmt.cls)
    else:
        # an unqualified class lies in the caller's own app, or is the
        # instrumenter's helper of a combined model
        named = by_name.get(stmt.cls, ())
        target = next((c for c in named if c.origin_app == comp.origin_app), None) or next(
            (c for c in named if c.synthetic), None
        )
    if target is None:
        diagnostics.append(
            warning(f"call to unknown class {stmt.cls!r} at {stmt.sid}")
        )
        return None
    m = target.find_method(stmt.method)
    if m is None:
        diagnostics.append(
            warning(f"call to unknown method {target.name}.{stmt.method} at {stmt.sid}")
        )
        return None
    return target, m


# The methods the instrumenter synthesizes for get_intent and set_result.
_ACCESSORS = {GetIntent: "getIntent", SetResult: "setResult"}


def _call_info_for(
    diagnostics: list[Diagnostic],
    comp: Component,
    stmt: Stmt,
    by_name: dict[str, list[Component]],
    by_qualified: dict[str, Component],
) -> Optional[CallInfo]:
    """Call wiring for a statement, or None when it is opaque.

    get_intent / set_result keep their surface syntax but gain call semantics
    once the instrumenter has synthesized the receiving methods; before that
    they are opaque (get_intent yields a clean value, set_result is a no-op).
    """
    if isinstance(stmt, Call):
        resolved = _resolve_callee(diagnostics, comp, stmt, by_name, by_qualified)
        if resolved is None:
            return None
        target, m = resolved
        return CallInfo(
            (target.origin_app, target.name, m.name), stmt.args, m.params, stmt.dst
        )
    name = _ACCESSORS.get(type(stmt))
    if name is None:
        return None
    m = comp.find_method(name)
    if m is None or not m.synthetic:
        return None
    args = ("this", *_stmt_uses(stmt))
    dst = getattr(stmt, "dst", None)
    return CallInfo((comp.origin_app, comp.name, m.name), args, m.params, dst)


def _by_name(model: AppModel) -> tuple[dict[str, list[Component]], dict[str, Component]]:
    """The model's components by name and by qualified name, for ``_resolve_callee``."""
    by_name: dict[str, list[Component]] = {}
    for comp in model.components:
        by_name.setdefault(comp.name, []).append(comp)
    return by_name, {comp.qualified_name: comp for comp in model.components}


def _rooted(components: Iterable[Component], targets: set[str]) -> set[str]:
    """The qualified names of the components whose driver is an entry point:
    those that declare a filter, which the framework can start, and
    ``targets``, which a link starts through its redirect."""
    return {c.qualified_name for c in components if c.filters} | targets


def build_cfg(
    model: AppModel, config: Optional[SourceSinkConfig] = None, skip: frozenset[StmtId] = frozenset()
) -> Cfg:
    """Per-method flow graphs plus the call wiring of each call statement.

    Roots are the dummyMain entries of the components ``_rooted`` names, with
    the targets of the links the model realized (its ``redirects``), plus any
    method literally named ``main``.

    Every statement is resolved, in method order, into ``stmts``, ``calls``
    and the diagnostics. With a ``config``, only the methods that calls reach
    from a root in ``_live`` (``skip`` holds dead sources) are laid out, else
    all. ``propagate`` with that config and skip enters a method only at a
    root it seeds, which lies in ``_live``, or from a call in a method it
    entered, so each node it reaches keeps its successors, and a call's
    edges leave its ``ret`` node as the complete ``calls`` says. Of two
    methods under one key (classes ``from`` one origin app), only the last counts.
    """
    cfg = Cfg(model=model)
    by_name, by_qualified = _by_name(model)
    methods: dict[MethodKey, tuple[Component, Method]] = {}
    for comp in model.components:
        for method in comp.methods():
            methods[(comp.origin_app, comp.name, method.name)] = (comp, method)

    # call wiring first, then the intra-method edges of the methods in scope
    callees: dict[MethodKey, list[MethodKey]] = {}
    for mk, (comp, method) in methods.items():
        for block in method.blocks:
            for stmt in block.stmts:
                cfg.stmts[stmt.sid] = stmt
                info = _call_info_for(cfg.diagnostics, comp, stmt, by_name, by_qualified)
                if info is not None:
                    cfg.calls[stmt.sid] = info
                    callees.setdefault(mk, []).append(info.callee)

    rooted = _rooted(model.components, {link.to for link in model.redirects})
    for comp in model.components:
        if comp.qualified_name in rooted and comp.kind.is_component:
            dm = comp.find_method("dummyMain")
            if dm is not None:
                cfg.roots.append(("entry", (comp.origin_app, comp.name, dm.name)))
        for method in comp.methods():
            if method.name == "main":
                cfg.roots.append(("entry", (comp.origin_app, comp.name, method.name)))

    scope: Container[MethodKey] = methods
    if config is not None:
        live = _live(cfg, config.sources, skip)
        scope = _closure([root[1] for root in cfg.roots if root[1] in live], callees)

    for mk, (comp, method) in methods.items():
        if mk not in scope:
            continue
        shape = _MethodShape(mk, method)
        entry: Node = ("entry", mk)
        exit_: Node = ("exit", mk)
        cfg.succ.setdefault(entry, [])
        cfg.succ.setdefault(exit_, [])
        if method.blocks:
            for n in shape.first_real(method.blocks[0].label):
                cfg.add_edge(entry, n)
        for i, block in enumerate(method.blocks):
            succs = method.successors(i)
            if succs:
                targets = _join(shape.first_real(s) for s in succs)
            else:
                rv: Node = ("retval", (mk, block.label))
                cfg.retvar[(mk, block.label)] = getattr(block.term, "var", None)
                cfg.add_edge(rv, exit_)
                targets = [rv]
            nodes = [("stmt", s.sid) for s in block.stmts]
            for j, n in enumerate(nodes):
                # a call's edges leave its return site
                tail = ("ret", n[1]) if n[1] in cfg.calls else n
                for m in nodes[j + 1 : j + 2] or targets:
                    cfg.add_edge(tail, m)
    return cfg


def _closure(todo: list[MethodKey], edges: dict[MethodKey, list[MethodKey]]) -> set[MethodKey]:
    """The methods in ``todo`` and those its ``edges`` lead to."""
    out: set[MethodKey] = set()
    while todo:
        mk = todo.pop()
        if mk not in out:
            out.add(mk)
            todo += edges.get(mk, ())
    return out


def _live(cfg: Cfg, sources: frozenset[str], skip: frozenset[StmtId]) -> set[MethodKey]:
    """Methods from whose entry a live source (configured, not in ``skip``)
    can be reached through calls; a statement id names its method. Kept in
    ``cfg.live``, so ``propagate`` reuses the set ``build_cfg`` scoped by."""
    key = (sources, skip)
    if key not in cfg.live:
        todo = [
            sid.method_key
            for sid, stmt in cfg.stmts.items()
            if type(stmt) is SourceCall and stmt.source in sources and sid not in skip
        ]
        callers: dict[MethodKey, list[MethodKey]] = {}
        for sid, info in cfg.calls.items() if todo else ():
            callers.setdefault(info.callee, []).append(sid.method_key)
        cfg.live[key] = _closure(todo, callers)
    return cfg.live[key]


# ---------------------------------------------------------------------------
# Facts and transfer functions
# ---------------------------------------------------------------------------

K = 2  # access-path bound: base plus at most K selectors
WILD = ("*",)  # wildcard selector; matches any selector and any extension


class Fact(NamedTuple):
    """Taint on an access path: base variable + selector chain + origin."""

    base: str
    chain: tuple
    origin: Optional[StmtId]


ZERO = Fact("@zero", (), None)
RET = "@ret"  # pseudo-variable binding a method's returned value


def _truncate(chain: tuple) -> tuple:
    if len(chain) > K:
        return chain[: K - 1] + (WILD,)
    return chain


def _access(stmt: Stmt) -> tuple[str, tuple]:
    """The object and selector a store or load reaches: a field, a literal
    extra key, or ``WILD`` for a variable extra key."""
    if isinstance(stmt, (FieldStore, FieldLoad)):
        return stmt.obj, ("f", stmt.fld)
    if stmt.key.is_literal:
        return stmt.intent, ("e", stmt.key.text)
    return stmt.intent, WILD


def _stmt_flow(stmt: Stmt, f: Fact) -> list[Fact]:
    """Distributive transfer for one non-call statement and one fact.

    A store (field store, ``put_extra``) kills the facts under its selector
    unless that is ``WILD``, and puts the stored value's facts there, cut to
    ``K`` selectors. Any other statement kills the facts on its ``dst``; a
    copy gens its source's facts there, and a load (field load, ``get_extra``)
    those under its selector, where a ``WILD`` head gives two facts and a
    variable extra key reads any extra. A source gens from ``ZERO`` in
    ``propagate``; an opaque call's result is clean.
    """
    if isinstance(stmt, (FieldStore, PutExtra)):
        obj, sel = _access(stmt)
        killed = sel != WILD and f.base == obj and f.chain[:1] == (sel,)
        out = [] if killed else [f]
        if f.base == _stmt_uses(stmt)[-1]:  # the stored value
            out.append(Fact(obj, _truncate((sel,) + f.chain), f.origin))
        return out

    dst = getattr(stmt, "dst", None)
    out = [] if f.base == dst else [f]
    if isinstance(stmt, Assign) and f.base == stmt.src:
        out.append(Fact(dst, f.chain, f.origin))
    elif isinstance(stmt, (FieldLoad, GetExtra)):
        obj, sel = _access(stmt)
        if f.base == obj and f.chain:
            head = f.chain[0]
            if head == WILD:
                out.append(Fact(dst, (), f.origin))
                out.append(Fact(dst, (WILD,), f.origin))
            elif head == sel or sel == WILD and head[0] == "e":
                out.append(Fact(dst, f.chain[1:], f.origin))
    return out


# ---------------------------------------------------------------------------
# Tabulation
# ---------------------------------------------------------------------------


@dataclass
class SinkHit:
    """A tainted fact at a configured sink, with the path edge it lies on."""

    fact: Fact
    sink: StmtId
    edge: tuple
    sink_name: str


@dataclass
class TaintResult:
    """``preds`` maps each path edge (method, entry fact, node, fact) to its
    record (see ``propagate``), in the order the edges arose."""

    hits: list[SinkHit] = field(default_factory=list)
    preds: dict = field(default_factory=dict)


def _map_into(d: Fact, info: CallInfo) -> list[Fact]:
    out = []
    for a, p in zip(info.args, info.params):
        if d.base == a:
            out.append(Fact(p, d.chain, d.origin))
    return out


def _map_back(d: Fact, info: CallInfo) -> list[Fact]:
    out = []
    if d.base == RET:
        if info.dst is not None:
            out.append(Fact(info.dst, d.chain, d.origin))
        return out
    for a, p in zip(info.args, info.params):
        # empty-chain param facts are the callee's own value binding and die
        # with the frame; only field/extra extensions travel back
        if d.base == p and d.chain:
            out.append(Fact(a, d.chain, d.origin))
    return out


def propagate(
    cfg: Cfg, config: SourceSinkConfig, skip: frozenset[StmtId] = frozenset()
) -> TaintResult:
    """Worklist tabulation with per-entry-fact procedure summaries.

    ``preds`` maps each path edge ``(method, entry fact, node, fact)`` to
    its record, and a key missing from it marks a new edge. A record is
    ``None`` for a ``ZERO`` edge, else ``("flow", edge before)``, ``("xfer",
    caller's call edge)`` at an entry, ``("summary", caller's call edge,
    callee's exit edge)`` at a return site, or ``("gen", the ZERO edge at
    the source)``. Records are written in the FIFO order of each edge's
    first insertion, as when they were keyed by (node, fact), so where a
    (node, fact) arises in one context only, witnesses take the records
    they took then, and reports do not move.

    The source statements in ``skip`` generate no facts. That leaves every
    other source's tabulation as it was, step for step. Each work item
    carries one origin: its entry fact ``d1`` is ``ZERO`` or has the origin
    of its fact ``d2``. An item of one origin yields only items of that
    origin, and a ``ZERO`` item yields the same items of the other origins
    whether or not a skipped origin's facts exist. So the items that remain
    keep their FIFO order, each of their edges keeps its record, and their
    sink hits keep their order.

    ``ZERO`` does one job: at a live source (configured, not skipped) it
    generates a fact. So it is seeded only at roots, and passed only into
    callees, from whose entry a live source can be reached through calls.
    That leaves the result exact. The items left out are ``ZERO`` items,
    and they yield only further such items: they reach no live source and
    no sink. They write only ``None`` records and no hit, and a ``ZERO`` exit
    maps back to nothing, so no summary leaves a callee they would enter.
    So every remaining item keeps its FIFO position and its record, in the
    methods ``build_cfg`` lays out for this config and skip.
    """
    result = TaintResult()
    preds = result.preds
    hits = result.hits
    stmts, calls, succ, retvar = cfg.stmts, cfg.calls, cfg.succ, cfg.retvar
    sources, sinks = config.sources, config.sinks

    live = _live(cfg, sources, skip)

    work: deque[tuple] = deque()
    push = work.append
    end_summary: dict[tuple, list[tuple]] = {}  # (callee, entry fact) -> exit edges
    incoming: dict[tuple, list[tuple]] = {}  # (callee, entry fact) -> call edges

    for root in cfg.roots:
        key = (root[1], ZERO, root, ZERO)
        if root[1] in live and key not in preds:
            preds[key] = None
            push(key)

    def apply_summary(call: tuple, exit_: tuple) -> None:
        mk, d1, n, _ = call
        ret_node: Node = ("ret", n[1])
        rec = ("summary", call, exit_)
        for dr in _map_back(exit_[3], calls[n[1]]):
            key = (mk, d1, ret_node, dr)
            if key not in preds:
                preds[key] = rec
                push(key)

    while work:
        edge = work.popleft()
        mk, d1, n, d2 = edge
        kind = n[0]

        if kind == "stmt":
            sid = n[1]
            info = calls.get(sid)
            if info is not None:
                callee = info.callee
                if d2 is ZERO:
                    mapped = [ZERO] if callee in live else []
                else:
                    mapped = _map_into(d2, info)
                for dp in mapped:
                    key = (callee, dp, ("entry", callee), dp)
                    if key not in preds:
                        preds[key] = None if dp is ZERO else ("xfer", edge)
                        push(key)
                    ckey = (callee, dp)
                    incoming.setdefault(ckey, []).append(edge)
                    for exit_ in end_summary.get(ckey, ()):
                        apply_summary(edge, exit_)
                # call_to_return: facts not entering the callee flow around it
                if d2 is not ZERO and (
                    (info.dst is not None and d2.base == info.dst)  # result overwrites dst
                    or (d2.base in info.args and d2.chain)  # mapped back at exit
                ):
                    continue
                key = (mk, d1, ("ret", sid), d2)
                if key not in preds:
                    preds[key] = None if d2 is ZERO else ("flow", edge)
                    push(key)
                continue
            stmt = stmts[sid]
        elif kind == "exit":
            if d2 is not ZERO:  # ZERO maps back to nothing
                end_summary.setdefault((mk, d1), []).append(edge)
                for call in incoming.get((mk, d1), ()):
                    apply_summary(call, edge)
            continue

        if d2 is ZERO:
            # per successor: ZERO, then the fact a live source generates
            gen = None
            if (
                kind == "stmt"
                and type(stmt) is SourceCall
                and stmt.source in sources
                and sid not in skip
            ):
                gen = Fact(stmt.dst, (), sid)
            for m, _ in succ.get(n, ()):
                key = (mk, d1, m, ZERO)
                if key not in preds:
                    preds[key] = None
                    push(key)
                if gen is not None:
                    key = (mk, d1, m, gen)
                    if key not in preds:
                        preds[key] = ("gen", edge)
                        push(key)
            continue

        if kind == "stmt":
            if type(stmt) is SinkCall and stmt.sink in sinks and d2.base == stmt.var:
                hits.append(SinkHit(d2, sid, edge, stmt.sink))
            outs = _stmt_flow(stmt, d2)
        elif kind == "retval":
            outs = [d2]
            rv = retvar.get(n[1])
            if rv is not None and d2.base == rv:
                outs.append(Fact(RET, d2.chain, d2.origin))
        else:  # entry, ret
            outs = [d2]
        rec = ("flow", edge)
        for m, _ in succ.get(n, ()):
            for f in outs:
                key = (mk, d1, m, f)
                if key not in preds:
                    preds[key] = rec
                    push(key)

    return result


# ---------------------------------------------------------------------------
# Path extraction and classification
# ---------------------------------------------------------------------------


@dataclass
class TaintedPath:
    stmts: tuple[StmtId, ...]
    source: StmtId
    sink: StmtId
    source_name: str
    sink_name: str
    klass: str  # "Intra" | "ICC" | "IAC"
    apps: tuple[str, ...]


def _trace(edge: tuple, preds: dict) -> list[Node]:
    """The source-first nodes of the witness that ends at path edge ``edge``.

    The walk follows each edge's record back, in the edge's own context. A
    summary pushes the caller's call edge and descends into the callee's
    exit edge, whose entry fact is the one that call passed in. At the
    callee's entry the walk pops that call edge when one is pending, and
    otherwise follows the ``xfer`` record up to the caller that entered the
    context first. So every call the witness enters, it returns from to the
    same call.
    """
    out = [edge[2]]
    calls: list[tuple] = []
    while True:
        rec = preds[edge]
        tag = rec[0]
        if tag == "gen":
            out.append(rec[1][2])
            return out[::-1]
        if tag == "summary":
            calls.append(rec[1])
            edge = rec[2]
        elif tag == "xfer" and calls:
            edge = calls.pop()
        else:  # flow, xfer
            edge = rec[1]
        out.append(edge[2])


def classify_path(
    stmt_ids: Iterable[StmtId], comp_of: dict[tuple[str, str], Component]
) -> tuple[str, tuple[str, ...]]:
    """The path's class and the sorted origin apps of its components.

    IAC when statements span two origin apps, ICC when two components.
    Statements in plain helper classes (the synthesized ICC helper lives in
    one) carry no app or component weight of their own; a path that lies
    in no component names the origin apps of its non-synthetic classes.
    ``comp_of`` maps (origin app, class name) to the model's component.
    """
    apps: set[str] = set()
    class_apps: set[str] = set()
    comps: set[tuple[str, str]] = set()
    for sid in stmt_ids:
        comp = comp_of.get((sid.app, sid.cls))
        if comp is None:
            continue
        if comp.kind.is_component:
            apps.add(comp.origin_app)
            comps.add((comp.origin_app, comp.name))
        elif not comp.synthetic:
            class_apps.add(comp.origin_app)
    if len(apps) >= 2:
        klass = "IAC"
    elif len(comps) >= 2:
        klass = "ICC"
    else:
        klass = "Intra"
    return klass, tuple(sorted(apps or class_apps))


def extract_paths(result: TaintResult, cfg: Cfg, seen: Container = frozenset()) -> list[TaintedPath]:
    """One witness path per distinct (origin, sink) pair not in ``seen``, in sorted order."""
    paths: dict[tuple[StmtId, StmtId], TaintedPath] = {}
    comp_of = {(c.origin_app, c.name): c for c in cfg.model.components}
    for hit in result.hits:
        assert hit.fact.origin is not None
        key = (hit.fact.origin, hit.sink)
        if key in paths or key in seen:
            continue
        nodes = _trace(hit.edge, result.preds)
        sids = [n[1] for n in nodes if n[0] == "stmt"]
        source_stmt = cfg.stmts[sids[0]]
        assert isinstance(source_stmt, SourceCall) and sids[0] == hit.fact.origin
        klass, apps = classify_path(sids, comp_of)
        paths[key] = TaintedPath(
            stmts=tuple(sids),
            source=hit.fact.origin,
            sink=hit.sink,
            source_name=source_stmt.source,
            sink_name=hit.sink_name,
            klass=klass,
            apps=apps,
        )
    return [paths[k] for k in sorted(paths)]


# ---------------------------------------------------------------------------
# Pipeline orchestration
# ---------------------------------------------------------------------------


@dataclass
class AnalysisReport:
    paths: list[TaintedPath] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    sets: list[tuple[str, ...]] = field(default_factory=list)


class _Window(NamedTuple):
    """How one window's apps reach each other, as ``_Reuse`` sees it."""

    apps: tuple[str, ...]
    entries: dict[str, frozenset]  # app -> its entries from the window's other apps
    out: set  # boundary keys the window links to another app
    skip: frozenset[StmtId]  # sources an earlier window already covers
    links: list[IccLink]  # links between two of its apps


def _reads(comp: Component) -> Optional[frozenset[str]]:
    """The literal extra keys the input component reads of the intent it
    receives, or None when it may read more. A *deaf* component reads none.

    In each method, ``this`` is only the object of a field store or of a
    load of a field but ``INTENT_FIELD`` (not reserved), or an argument of a
    call with no class bound to its callee's ``this``. Each variable a
    ``get_intent`` defines is used only as the intent of a ``get_extra``
    with a literal key, which the read set holds. There is no ``return
    this``, and no result call unless ``onActivityResult`` binds its first
    argument (the caller) to ``this``.
    """
    own = {m.name: m for m in comp.methods()}
    back = own.get("onActivityResult")
    far_ok = back is None or back.params[:1] in ((), ("this",))
    keys: set[str] = set()
    for method in own.values():
        got: set[str] = set()  # get_intent results
        held: set[str] = set()  # variables used but as a literal get_extra's intent
        reads: list[tuple[str, str]] = []  # (intent, key) of each literal get_extra
        for block in method.blocks:
            if isinstance(block.term, Return) and block.term.var is not None:
                if block.term.var == "this":
                    return None
                held.add(block.term.var)
            for stmt in block.stmts:
                far = isinstance(stmt, IccCall) and stmt.kind == "start_activity_for_result"
                if far and not far_ok:
                    return None
                used = _stmt_uses(stmt) + _stmt_defs(stmt)
                if isinstance(stmt, FieldStore) or isinstance(stmt, FieldLoad) and stmt.fld != INTENT_FIELD:
                    used.remove(stmt.obj)
                elif isinstance(stmt, Call) and stmt.cls is None and stmt.method in own:
                    params = own[stmt.method].params
                    used = [a for k, a in enumerate(stmt.args) if params[k : k + 1] != ("this",)]
                    used += _stmt_defs(stmt)
                if "this" in used:
                    return None
                if isinstance(stmt, GetIntent):
                    got.add(stmt.dst)
                elif isinstance(stmt, GetExtra) and stmt.key.is_literal:
                    reads.append((stmt.intent, stmt.key.text))
                else:
                    held.update(_stmt_uses(stmt))
        if not got.isdisjoint(held):
            return None
        keys.update(key for intent, key in reads if intent in got)
    return frozenset(keys)


class _Reuse:
    """What a window need not redo: instrumentation, and source statements.

    An app that lies in several windows is instrumented once with the links
    it holds both ends of, kept until its last window; each window adds the
    links between its apps' parts, ``IacGraph.edges`` by holder pair.

    Each window records the source statements it did not skip, of each of
    its apps that lies in a later window too. A record holds the source
    app's *entries*, what the window's other apps add to the app's model
    that its part does not have: ``(C, "root")`` for a component ``C`` they
    link into that has no filter and no intra-app link into it, and
    ``(site, "result")`` for an ICC site whose ``start_activity_for_result``
    result another app returns. It also holds the *boundary* keys where the
    source's facts could leave that app, or meet code that another window
    adds:

    * an ICC site, by its original statement id ``site`` (also when it was
      split into redirect branches), reached by a fact on its intent, or on
      ``this`` for a result call, whose callback gets the caller; a fact on
      the intent under one literal extra key ``k`` and no more keys
      ``(site, k)`` and ``(site, WILD)`` instead;
    * a component, reached by a fact on the intent or on ``this`` at one of
      its ``set_result`` statements, or at its driver's exit by a fact on
      ``this`` under ``("f", RESULT_FIELD)`` or a ``WILD`` head, the only
      facts that a result link's ``getIntentFAR`` reads back;
    * a call naming a class another app holds, reached by a fact on an argument;
    * ``(C, INTENT_FIELD)``, reached at a ``get_intent`` of component ``C`` by
      a fact on ``this`` under ``("f", INTENT_FIELD)`` or a ``WILD`` head,
      which a ``getIntent`` would read. A window links it out when another
      app links into ``C`` and no intra-app link gives ``C`` its
      ``ctor``/``getIntent``, so ``get_intent`` reads the field there and
      yields a clean value elsewhere.

    A link's kind adds no entry: a result link's ``setResult`` runs only at
    a ``set_result`` of ``C`` and its ``getIntentFAR`` reads only ``C``'s
    exit, both keyed ``C``, which a result link links out. Its redirect runs
    ``C.dummyMain`` on an object holding another app's intent: the source's
    facts there are those of the ``ZERO`` context a root already has, and
    at the exit they fall on that object. ``getIntent`` is a key, not an
    entry, since which objects reach ``C``'s code as ``this`` is up to the
    app: ``D``, started by the app's own intent, may pass its object to
    ``call "A/C".foo(this)``, and ``C`` may put the source on ``this`` under
    a variable extra key (a ``WILD`` head), with no store to
    ``INTENT_FIELD`` and no call from another class.

    A window records a source only if it linked none of its keys to another
    app, so the source's taint stayed in its app. A source the window never
    reached gets a record with no keys.

    A later window skips the source if one record's entries cover the
    window's entries into that app, the window links none of the record's
    keys to another app, and no other app in it calls into that app. The
    source's facts then meet the same code as in the recording window: they
    reach no place where the two windows differ, and every way into the app
    that the later window has, the recording window had too, so it reaches
    the source only if the recording window did. So the source finds no
    pair the recording window did not report. Nothing is scanned or
    recorded when no app lies in two windows.

    A cross-app link that is not a result link, into a component ``C``
    with a read set (``_reads``), passes on only the extras ``C`` reads: the
    window links ``site`` out, and ``(site, k)`` for each key ``k`` that
    ``C`` reads, unless ``C`` is *deaf* and reads none, which makes the link
    *harmless*. A result link, or a target with no read set, links ``site``
    and ``(site, WILD)`` out: every key. Its redirect runs ``t = new_obj C;
    C.ctor(t, i); C.dummyMain(t)``, which writes no ``i``, and facts do not
    alias, so the caller's facts after the site are those of an opaque
    site. In ``C`` the caller's taint lies only on the component object,
    under the first selector ``("f", INTENT_FIELD)``, which ``_truncate``
    keeps, and ``dummyMain`` binds the object by the name ``this``. Such
    facts reach nothing unless ``C`` reads that field or lets ``this`` reach
    a sink, an intent, another object's field, a return value or another
    class, which ``C`` does not but through ``get_intent``. Nor do its
    synthetic parts: the setters store into ``this``, ``getIntentFAR``
    loads another field, ``getIntent`` runs only at a ``get_intent``, and a
    non-result redirect is not passed ``this``. A ``get_intent`` result holds
    the caller's facts with the first selector cut, and ``C`` uses it only
    as the intent of a ``get_extra`` with a literal key it reads. A fact
    under one selector ``("e", k)`` arrives as ``(("f", INTENT_FIELD), ("e",
    k))``, within ``K``, so ``get_intent`` gives it the chain ``(("e", k),)``
    exactly, which a ``get_extra`` of another literal key does not match.
    So a source whose facts reach the site only under keys that no target
    there reads finds no pair in ``C``, and in its own app what the
    recording window found. A longer chain is cut to a ``WILD`` second
    selector, which every ``get_extra`` matches, so it keys ``site``, as do
    a ``WILD`` head, the empty chain and a fact on ``this``.

    An *idle* window, with no live source (configured, not skipped) and
    only *quiet* apps, is not built: ``propagate`` would seed no root, and
    ``record`` writes what it writes for no path edge. A quiet app owns its
    components, is not instrumented yet, links only from its own ICC calls
    to no provider, and resolves each call alone, so in no window does it
    fail or warn: there its components only gain methods, share no origin
    with another app's, and synthetic calls name methods made with them.
    """

    def __init__(
        self, apps: list[AppModel], by_app: dict[str, list[IccLink]], windows: list[tuple[str, ...]],
        held: dict[str, str], graph: IacGraph,
    ):
        self.left = Counter(app for window in windows for app in window)
        self.shared = {app for app, n in self.left.items() if n > 1}
        self.parts: dict[str, Optional[AppModel]] = {}  # None: it failed
        self.cross = graph.edges  # by (call-site app, target app)
        self.intra = {a.app_id: [x for x in by_app.get(a.app_id, ()) if held.get(x.to) == a.app_id] for a in apps}
        self.fed = {x.to for links in self.intra.values() for x in links}  # a part's ctor/getIntent
        self.rooted = _rooted((c for a in apps for c in a.components), self.fed)  # its parts' roots
        # app -> boundary node -> (key, the fact bases that leave there, the
        # ICC site's intent, whose one-extra facts are keyed per key, the
        # field a fact on ``this`` leaves under, or with a ``WILD`` head)
        self.boundary: dict[str, dict[Node, tuple[object, frozenset[str], Optional[str], Optional[str]]]] = {}
        self.calls_out: dict[str, list[tuple[Call, str]]] = {}  # ``IacGraph.calls`` by caller app
        for app_id, call, callee_app in graph.calls:
            self.calls_out.setdefault(app_id, []).append((call, callee_app))
        self.sources: dict[str, list[tuple[StmtId, str]]] = {}  # (statement, source name)
        self.records: dict[str, dict[StmtId, list[tuple[frozenset, frozenset]]]] = {}
        self.reads: dict[str, Optional[frozenset[str]]] = {}  # component -> ``_reads``
        self.quiet: set[str] = set()
        if self.shared:
            providers = {
                c.qualified_name for a in apps for c in a.components if c.kind is ComponentKind.PROVIDER
            }
            for app in apps:
                self._scan(app, by_app.get(app.app_id, []), providers)

    def _scan(self, app: AppModel, sent: list[IccLink], providers: set[str]) -> None:
        nodes = self.boundary[app.app_id] = {}
        self.reads.update((c.qualified_name, _reads(c)) for c in app.components)
        sources = self.sources[app.app_id] = []
        warned, (by_name, by_qualified) = [], _by_name(app)
        this = frozenset(("this",))
        for comp in app.components:
            qname = comp.qualified_name
            nodes[("exit", (comp.origin_app, comp.name, "dummyMain"))] = (qname, this, None, RESULT_FIELD)
            for method in comp.methods():
                for block in method.blocks:
                    for stmt in block.stmts:
                        node = ("stmt", stmt.sid)
                        if isinstance(stmt, SourceCall):
                            sources.append((stmt.sid, stmt.source))
                        elif isinstance(stmt, IccCall):
                            far = stmt.kind == "start_activity_for_result"
                            bases = (stmt.intent, "this") if far else (stmt.intent,)
                            nodes[node] = (stmt.sid, frozenset(bases), stmt.intent, None)
                        elif isinstance(stmt, SetResult):
                            nodes[node] = (qname, frozenset((stmt.intent, "this")), None, None)
                        elif isinstance(stmt, GetIntent):
                            nodes[node] = ((qname, INTENT_FIELD), this, None, INTENT_FIELD)
                        elif isinstance(stmt, Call):
                            _resolve_callee(warned, comp, stmt, by_name, by_qualified)
        calls = self.calls_out.get(app.app_id, [])
        nodes.update((("stmt", c.sid), (c.sid, frozenset(c.args), None, None)) for c, _ in calls)
        sites = [_locate(app, sid) for sid in {link.from_stmt for link in sent}]
        if not (calls or warned or _already_instrumented(app)) and all(
            [c.origin_app == app.app_id for c in app.components]
            + [link.to not in providers for link in sent]
            + [site is not None and isinstance(site[2].stmts[site[3]], IccCall) for site in sites]
        ):
            self.quiet.add(app.app_id)

    def idle(self, window: _Window, sources: frozenset[str]) -> bool:
        """Whether the window holds only quiet apps and no live source."""
        live = (sid for app in window.apps for sid, name in self.sources[app] if name in sources)
        return self.quiet.issuperset(window.apps) and all(sid in window.skip for sid in live)

    def window(self, app_ids: tuple[str, ...]) -> _Window:
        """The window's entries, its boundary keys linked to another app, the
        sources it skips and its cross-app links."""
        for app in app_ids:
            self.left[app] -= 1
        entries: dict[str, set] = {a: set() for a in app_ids}
        out: set = set()
        called: set[str] = set()
        links: list[IccLink] = []
        for caller in app_ids:
            for call, callee_app in self.calls_out.get(caller, ()):
                if callee_app in entries:
                    out.add(call.sid)
                    called.add(callee_app)
            for target in app_ids:
                for link in self.cross.get((caller, target), ()):
                    links.append(link)
                    if link.to not in self.rooted:
                        entries[target].add((link.to, "root"))
                    if link.to not in self.fed:
                        out.add((link.to, INTENT_FIELD))  # its get_intent now reads the field
                    site, reads = link.from_stmt, self.reads.get(link.to)  # None: any key
                    if link.kind == "start_activity_for_result":
                        out.add(link.to)
                        entries[caller].add((site, "result"))
                        reads = None  # the callback gets the caller
                    if reads != frozenset():  # else harmless
                        out.add(site)
                        out.update((site, k) for k in ((WILD,) if reads is None else reads))
        frozen = {a: frozenset(e) for a, e in entries.items()}
        skip = frozenset(
            source
            for app in app_ids
            if app not in called
            for source, records in self.records.get(app, {}).items()
            if any(frozen[app] <= e and keys.isdisjoint(out) for e, keys in records)
        )
        return _Window(app_ids, frozen, out, skip, links)

    def instrument(self, window: _Window, by_id: dict[str, AppModel]) -> AppModel:
        """The window's instrumented model: its apps' parts with the links
        between them on top, or, when none of its apps lies in another
        window, the window instrumented whole."""
        shared = not self.shared.isdisjoint(window.apps)
        parts = [self._part(a, by_id) for a in window.apps] if shared else []
        if not shared or None in parts:  # whole; a failed part fails here too
            models = [by_id[a] for a in window.apps]
            links = [link for a in window.apps for link in self.intra.get(a, ())]
            merged = models[0] if len(models) == 1 else combine(models)
            return instrument_model(merged, sorted(links + window.links))
        return link_window(combine(parts), [by_id[a] for a in window.apps], window.links)

    def _part(self, app: str, by_id: dict[str, AppModel]) -> Optional[AppModel]:
        """The app instrumented with its intra-app links (None if that
        fails), built at its first window and dropped after its last."""
        if app not in self.parts:
            try:
                self.parts[app] = instrument_model(by_id[app], self.intra.get(app, []))
            except InstrumentError:
                self.parts[app] = None
        return self.parts[app] if self.left[app] else self.parts.pop(app)

    def record(self, window: _Window, preds: dict, sites: dict[StmtId, StmtId]) -> None:
        """Record the window's sources but the skipped ones, read off the
        (node, fact) of each path edge ``propagate`` left in ``preds``.
        ``sites`` maps each redirect call to the ICC site it replaced."""
        keep = {a for a in window.apps if self.left[a] > 0}
        for app in set(window.apps) - keep:
            self.parts.pop(app, None)  # its last window; an idle one builds none
        if not keep:
            return
        nodes: dict[Node, tuple] = {}
        for app in keep:
            nodes.update(self.boundary[app])
        for call, site in sites.items():
            if call != site and ("stmt", site) in nodes:
                nodes[("stmt", call)] = nodes[("stmt", site)]
        reached: dict[StmtId, tuple[str, set]] = {
            s: (app, set()) for app in keep for s, _ in self.sources[app] if s not in window.skip
        }
        for _, _, n, d in preds:
            if n in nodes and d.origin in reached:
                key, bases, intent, fld = nodes[n]
                if d.base == intent and len(d.chain) == 1 and d.chain[0][0] == "e":
                    reached[d.origin][1].update(((key, d.chain[0][1]), (key, WILD)))
                elif d.base in bases and (fld is None or d.chain[:1] in ((("f", fld),), (WILD,))):
                    reached[d.origin][1].add(key)
        for source, (app, keys) in reached.items():
            if not keys.isdisjoint(window.out):
                continue
            rec = (window.entries[app], frozenset(keys))
            records = self.records.setdefault(app, {}).setdefault(source, [])
            if rec not in records:
                records.append(rec)


def _analyze_set(
    app_ids: tuple[str, ...],
    by_id: dict[str, AppModel],
    by_app: dict[str, list[IccLink]],
    config: SourceSinkConfig,
    reuse: Optional[_Reuse] = None,
    seen: Container[tuple[StmtId, StmtId]] = frozenset(),  # pairs not to trace
) -> tuple[list[TaintedPath], list[Diagnostic]]:
    if reuse is None:  # a window on its own
        apps = [by_id[a] for a in app_ids]
        held = holders(apps)
        graph = build_iac_graph(apps, [x for a in app_ids for x in by_app.get(a, ())], held)
        reuse = _Reuse(apps, by_app, [app_ids], held, graph)
    window = reuse.window(app_ids)
    if reuse.idle(window, config.sources):
        reuse.record(window, {}, {})
        return [], []
    try:
        inst = reuse.instrument(window, by_id)
    except InstrumentError as exc:
        return [], [Diagnostic("error", str(exc))]
    cfg = build_cfg(inst, config, window.skip)
    res = propagate(cfg, config, window.skip)
    reuse.record(window, res.preds, {call.sid: link.from_stmt for link, call in inst.redirects.items()})
    paths = extract_paths(res, cfg, seen)
    return paths, list(cfg.diagnostics)


def analyze(
    apps: list[AppModel],
    links: list[IccLink],
    config: SourceSinkConfig,
    max_len: int = 2,
) -> AnalysisReport:
    """Scope, combine, instrument and propagate over a whole corpus.

    The corpus is split into app windows (``split_graph``): a connected
    group of at most ``max_len`` apps, or else the largest sets of at most
    ``max_len`` apps that one walk along link direction covers. Windows run
    in order, and results merge deterministically: overlapping windows may
    rediscover the same (origin, sink) pair, which is reported once, with the
    first window's path; a later window does not trace it again.

    Windows share work without changing the report (see ``_Reuse``). An app
    that lies in several windows is instrumented once, and each window adds
    only the links between its apps: its model is the one instrumenting the
    window whole builds, up to the names of synthetic statements. A window
    does not tabulate a source statement again when an earlier window covers
    it, also where its taint reaches other apps only through links that do
    not ask for a result, into components that read none of the intent's
    extras it lies under (see ``_reads``). Skipping a source leaves every
    other source's tabulation, and so its witness paths, as it was (see
    ``propagate``), and each pair the skipped source would find here, the
    recording window reported. An *idle* window (no live source, no app
    that can warn or fail) is skipped.
    """
    report = AnalysisReport()
    held = holders(apps)
    graph = build_iac_graph(apps, links, held)
    report.sets = [tuple(sorted(s)) for s in split_graph(graph, max_len)]
    by_id = {a.app_id: a for a in apps}
    by_app = links_by_app(links, held)
    reuse = _Reuse(apps, by_app, report.sets, held, graph)
    seen: set[tuple[StmtId, StmtId]] = set()
    merged_paths: list[TaintedPath] = []
    for group in report.sets:
        paths, diags = _analyze_set(group, by_id, by_app, config, reuse, seen)
        report.diagnostics.extend(diags)
        seen.update((p.source, p.sink) for p in paths)
        merged_paths += paths
    report.paths = sorted(merged_paths, key=lambda p: (p.source, p.sink))
    return report


def render_report(report: AnalysisReport, fmt: str = "text") -> str:
    if fmt == "tsv":
        lines = ["class\tsource_stmt\tsink_stmt\tpath_len\tapps"]
        for p in report.paths:
            lines.append(
                f"{p.klass}\t{p.source}\t{p.sink}\t{len(p.stmts)}\t{','.join(p.apps)}"
            )
        return "\n".join(lines) + "\n"
    if not report.paths:
        return "no tainted paths\n"
    lines = []
    for p in report.paths:
        lines.append(
            f"[{p.klass}] {p.source_name} @ {p.source} -> "
            f"{p.sink_name} @ {p.sink} ({len(p.stmts)} stmts, apps: {','.join(p.apps)})"
        )
    plural = "" if len(report.paths) == 1 else "s"
    lines.append(f"{len(report.paths)} tainted path{plural}")
    return "\n".join(lines) + "\n"
