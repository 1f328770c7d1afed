"""Rewriting ICC calls into ordinary calls so components connect directly.

For every resolved link, the ICC call statement is replaced by a call to a
synthesized ``redirectN`` method on a per-model helper class ``IpcSC``. The
redirect constructs the target component, hands it the intent (stored in the
``intent_for_ipc`` field, returned by a synthesized ``getIntent``), and runs
the target's ``dummyMain`` driver. ``start_activity_for_result`` links
additionally route the target's stored result (``intent_for_ar``) back into
the caller's ``onActivityResult`` — the caller instance is passed into the
redirect explicitly, so two components sharing a listener can never be
confused with each other.

``dummyMain`` walks each component kind's lifecycle in ``ir.LIFECYCLE`` as a
nondeterministic state machine with a callback loop, so the downstream
dataflow analysis sees every possible ordering of callbacks without any fixed
iteration bound.

Statements that are not ICC calls survive with their ids unchanged; ICC call
sites with several links fan out into a nondeterministic branch over all
their redirects, and call sites with no links at all are left in place (a
dead call keeps an unlinked component exactly as unreachable as it was).

The input model is never modified. The output copies on write: components
are shallow copies with their own method containers, each method holding a
linked site is copied down to its statement lists, and the rest is shared.
So an app instrumented with its intra-app links serves all its app windows;
``link_window`` adds each window's cross-app links on top.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from .icc import IccLink
from .ir import (
    AppModel,
    Block,
    Branch,
    Call,
    Component,
    ComponentKind,
    Const,
    FieldLoad,
    FieldStore,
    Goto,
    IccCall,
    LIFECYCLE,
    Method,
    NewIntent,
    NewObj,
    RESERVED_CLASSES,
    RESERVED_METHODS,
    Return,
    Stmt,
    StmtId,
    Terminator,
)

INTENT_FIELD = "intent_for_ipc"
RESULT_FIELD = "intent_for_ar"


class InstrumentError(Exception):
    pass


def _stamp(method: Method, origin_app: str, cls_name: str) -> None:
    for block in method.blocks:
        for i, stmt in enumerate(block.stmts):
            stmt.sid = StmtId(origin_app, cls_name, method.name, block.label, i)
            stmt.synthetic = True


def _straight(name: str, params: tuple[str, ...], stmts: list[Stmt], ret: Optional[str]) -> Method:
    return Method(
        name=name,
        params=params,
        blocks=[Block("b0", stmts, Return(ret))],
        synthetic=True,
    )


def _call(method: str, args: tuple[str, ...], cls: Optional[str] = None, dst: Optional[str] = None) -> Call:
    return Call(dst=dst, cls=cls, method=method, args=args)


# ---------------------------------------------------------------------------
# dummyMain synthesis
# ---------------------------------------------------------------------------


def _block(label: str, methods: list[Method], term: Terminator, counter: list[int]) -> Block:
    """A block calling each lifecycle/callback method in order, making up
    dummy arguments for any parameter beyond the component instance."""
    block = Block(label, [], term)
    for method in methods:
        args: list[str] = []
        for param in method.params:
            if param == "this":
                args.append("this")
            else:
                var = f"dm_u{counter[0]}"
                counter[0] += 1
                if method.name == "onActivityResult":
                    block.stmts.append(NewIntent(dst=var))
                else:
                    block.stmts.append(Const(dst=var, value=""))
                args.append(var)
        block.stmts.append(_call(method.name, tuple(args)))
    return block


def _choose(first: Block, labels: list[str], prefix: str) -> list[Block]:
    """End ``first`` in a nondeterministic choice among two or more labels,
    encoded as a chain of two-way branches: ``first`` and each chooser take
    one label or the next chooser. Returns the choosers ``<prefix>i``."""
    choosers = [Block(f"{prefix}{i}") for i in range(len(labels) - 2)]
    for i, block in enumerate([first] + choosers):
        rest = choosers[i].label if i < len(choosers) else labels[-1]
        block.term = Branch(labels[i], rest)
    return choosers


def _loop_blocks(options: list[Method], exit_label: str, counter: list[int]) -> list[Block]:
    """A loop head choosing exit or one option's block; every option block
    jumps back to the head."""
    head = Block("dm_loop")
    do_labels = [f"dm_do{i}" for i in range(len(options))]
    blocks = [head] + _choose(head, [exit_label] + do_labels, "dm_c")
    for label, option in zip(do_labels, options):
        blocks.append(_block(label, [option], Goto("dm_loop"), counter))
    return blocks


def synthesize_dummy_main(component: Component) -> Method:
    """Build the per-component driver by walking the kind's ``LIFECYCLE``.

    ``dm0`` runs the present ``first`` methods and, when only one ``one_of``
    method is present, that one; when two are, it branches to ``dm_sc`` and
    ``dm_bd``, one each. The loop over the callbacks and the present
    ``loop`` methods follows, and ``dm_exit`` runs ``last``. Missing methods
    are skipped. Providers get no driver at all.
    """
    if component.kind is ComponentKind.PROVIDER:
        raise InstrumentError(
            f"{component.qualified_name}: provider components get no driver"
        )
    if component.kind is ComponentKind.CLASS:
        raise InstrumentError(f"{component.name}: plain classes get no driver")

    counter = [0]
    life = component.lifecycle
    first, one_of, loop, last = (
        [life[n] for n in names if n in life] for names in LIFECYCLE[component.kind]
    )
    options = list(component.callbacks) + loop
    after = "dm_loop" if options else "dm_exit"
    if len(one_of) == 2:
        entry = _block("dm0", first, Branch("dm_sc", "dm_bd"), counter)
        mid = [
            _block("dm_sc", one_of[:1], Goto(after), counter),
            _block("dm_bd", one_of[1:], Goto(after), counter),
        ]
    else:
        entry = _block("dm0", first + one_of, Goto(after), counter)
        mid = []
    exit_block = _block("dm_exit", last, Return(), counter)
    loop_blocks = _loop_blocks(options, "dm_exit", counter) if options else []

    method = Method(name="dummyMain", params=("this",), synthetic=True)
    if not (entry.stmts or mid or loop_blocks or exit_block.stmts):
        method.blocks = [Block("dm0", [], Return())]
    else:
        method.blocks = [entry] + mid + loop_blocks + [exit_block]
    _stamp(method, component.origin_app, component.name)
    return method


# ---------------------------------------------------------------------------
# Link instrumentation
# ---------------------------------------------------------------------------


def _already_instrumented(model: AppModel) -> bool:
    for comp in model.components:
        if comp.synthetic or comp.name in RESERVED_CLASSES:
            return True
        for method in comp.methods():
            if method.synthetic or method.name in RESERVED_METHODS:
                return True
            for block in method.blocks:
                if any(s.synthetic for s in block.stmts):
                    return True
    return False


def _ensure_accessors(target: Component, fld: str, setter: str, getter: str) -> None:
    """Give the target a setter storing an intent in ``fld`` and a getter
    reading it back, each unless the target already has it."""
    for name, params, stmt, ret in (
        (setter, ("this", "i"), FieldStore(obj="this", fld=fld, src="i"), None),
        (getter, ("this",), FieldLoad(dst="r", obj="this", fld=fld), "r"),
    ):
        if target.find_method(name) is None:
            method = _straight(name, params, [stmt], ret)
            _stamp(method, target.origin_app, target.name)
            target.helpers.append(method)


def _redirect_body(
    n: int, link: IccLink, caller: Component, target: Component
) -> Method:
    """One straight-line redirect method per link; the target gets the
    accessors the redirect calls, unless it has them."""
    qname = target.qualified_name
    _ensure_accessors(target, INTENT_FIELD, "ctor", "getIntent")
    stmts: list[Stmt] = [
        NewObj(dst="t", cls=qname),
        _call("ctor", ("t", "i"), cls=qname),
        _call("dummyMain", ("t",), cls=qname),
    ]
    if link.kind == "start_activity_for_result":
        _ensure_accessors(target, RESULT_FIELD, "setResult", "getIntentFAR")
        params = ("caller", "i")
        stmts.append(_call("getIntentFAR", ("t",), cls=qname, dst="res"))
        if caller.find_method("onActivityResult") is not None:
            stmts.append(
                _call("onActivityResult", ("caller", "res"), cls=caller.qualified_name)
            )
    else:
        params = ("i",)
    return _straight(f"redirect{n}", params, stmts, None)


def _locate(model: AppModel, sid: StmtId):
    for comp in model.components:
        if comp.origin_app != sid.app or comp.name != sid.cls:
            continue
        method = comp.find_method(sid.method)
        if method is None:
            return None
        for block in method.blocks:
            for i, stmt in enumerate(block.stmts):
                if stmt.sid == sid:
                    return comp, method, block, i
    return None


def _replace_site(
    method: Method, block: Block, index: int, calls: list[Call], site: int
) -> None:
    """Swap one ICC call for its redirect call(s).

    A single link replaces the statement in place; several links split the
    block and fan out through a nondeterministic branch so each redirect
    stays on its own feasible path.
    """
    old = block.stmts[index]
    if len(calls) == 1:
        call = calls[0]
        call.sid = old.sid
        call.synthetic = True
        block.stmts[index] = call
        return

    tail = block.stmts[index + 1 :]
    tail_term = block.term
    del block.stmts[index:]
    cont = Block(f"icc{site}_cont", tail, tail_term)
    r_labels = [f"icc{site}_r{i}" for i in range(len(calls))]
    new_blocks = _choose(block, r_labels, f"icc{site}_c")
    for i, call in enumerate(calls):
        call.synthetic = True
        call.sid = old.sid._replace(block=r_labels[i], index=0)
        new_blocks.append(Block(r_labels[i], [call], Goto(cont.label)))
    pos = method.blocks.index(block) + 1
    method.blocks[pos:pos] = new_blocks + [cont]


def _own(
    comp: Component, touched: set[tuple[str, str, str]], base: Optional[Component] = None
) -> Component:
    """A shallow copy of the component with its own method containers;
    methods in ``touched`` also get their own blocks and statement lists,
    copied from ``base``'s method of the same name when given."""

    def own(m: Method) -> Method:
        if (comp.origin_app, comp.name, m.name) not in touched:
            return m
        if base is not None:
            m = base.find_method(m.name)
        return replace(m, blocks=[replace(b, stmts=list(b.stmts)) for b in m.blocks])

    return replace(
        comp,
        lifecycle={k: own(m) for k, m in comp.lifecycle.items()},
        callbacks=[own(m) for m in comp.callbacks],
        helpers=[own(m) for m in comp.helpers],
    )


def _group(model: AppModel, links: list[IccLink]) -> dict[StmtId, list[IccLink]]:
    """The links whose site's class and target are both in the model, by call site."""
    kinds = {c.qualified_name: c.kind for c in model.components}
    groups: dict[StmtId, list[IccLink]] = {}
    for link in links:
        kind = kinds.get(link.to)
        if kind is None or link.from_stmt.qualified_cls not in kinds:
            continue  # an end outside the model: a window left its app out
        if kind is ComponentKind.PROVIDER:
            raise InstrumentError(f"link into provider component {link.to!r} rejected")
        groups.setdefault(link.from_stmt, []).append(link)
    return groups


def _redirect_sites(
    out: AppModel, groups: dict[StmtId, list[IccLink]], known: dict, cls: str
) -> None:
    """Replace each linked site of ``out`` with a call per link, sites and
    links in sorted order.

    A link in ``known`` gets a copy of its call there. Any other link gets a
    redirect on a new helper class ``IpcSC`` of ``out``, which its call names
    as ``cls``; its target gets the accessors the redirect uses.
    """
    by_qualified = {c.qualified_name: c for c in out.components}
    helper = Component(name="IpcSC", kind=ComponentKind.CLASS, synthetic=True, origin_app=out.app_id)
    site_counters: dict[int, int] = {}
    for sid in sorted(groups):
        located = _locate(out, sid)
        if located is None:
            raise InstrumentError(f"link source statement {sid} no longer exists")
        comp, method, block, index = located
        stmt = block.stmts[index]
        if not isinstance(stmt, IccCall):
            raise InstrumentError(f"link source statement {sid} is not an icc call")
        links = sorted(groups[sid])
        calls: list[Call] = []
        for link in links:
            if link in known:
                calls.append(replace(known[link]))
                continue
            redirect = _redirect_body(len(helper.helpers), link, comp, by_qualified[link.to])
            _stamp(redirect, out.app_id, "IpcSC")
            helper.helpers.append(redirect)
            far = link.kind == "start_activity_for_result"
            args = ("this", stmt.intent) if far else (stmt.intent,)
            calls.append(_call(redirect.name, args, cls=cls))
        key = id(method)
        site = site_counters.get(key, 0)
        site_counters[key] = site + 1
        _replace_site(method, block, index, calls, site)
        out.redirects.update(zip(links, calls))
    if helper.helpers:
        out.components.append(helper)


def instrument_model(model: AppModel, links: list[IccLink]) -> AppModel:
    """Return a copy on write of the model with redirects and drivers.

    Only components, their method containers and the methods holding a
    linked site are copied; the rest is shared with the input, which is
    never modified. The model realizes the links whose both endpoints live
    inside it; links that point outside (a split window dropped the partner
    app) leave the call site untouched. The output's ``redirects`` maps
    each realized link to the call that replaced its ICC site. A model
    showing any synthetic marker or reserved name is rejected rather than
    instrumented twice.
    """
    if _already_instrumented(model):
        raise InstrumentError(
            f"{model.app_id}: model is already instrumented "
            "(synthetic markers or reserved names present)"
        )
    groups = _group(model, links)
    touched = {sid.method_key for sid in groups}
    components = [_own(c, touched) for c in model.components]
    out = replace(model, components=components, redirects={})
    _redirect_sites(out, groups, {}, "IpcSC")
    for comp in out.components:
        if comp.kind not in (ComponentKind.CLASS, ComponentKind.PROVIDER):
            comp.helpers.append(synthesize_dummy_main(comp))
    return out


def link_window(model: AppModel, apps: list[AppModel], links: list[IccLink]) -> AppModel:
    """Add cross-app links to ``model``, a ``combine`` of apps each of which
    ``instrument_model`` instrumented with its intra-app links.

    ``apps`` are those apps' input models. The output copies on write.
    Each method holding a cross-linked site is instrumented again from its
    input method with all its links; an intra-app link keeps its call to its
    app's ``IpcSC``, and the cross-app redirects go on the window's, named
    qualified. So the output is ``instrument_model`` of the combined input
    apps, up to the names of synthetic statements.
    """
    groups = _group(model, links)
    touched = {sid.method_key for sid in groups}
    # the cross-app targets and the callers
    copied = {link.to for ls in groups.values() for link in ls} | {sid.qualified_cls for sid in groups}
    for link in model.redirects:
        if link.from_stmt.method_key in touched:
            groups.setdefault(link.from_stmt, []).append(link)
    base = {c.qualified_name: c for app in apps for c in app.components if c.qualified_name in copied}
    components = [
        _own(c, touched, base[c.qualified_name]) if c.qualified_name in copied else c
        for c in model.components
    ]
    out = replace(model, components=components, redirects=dict(model.redirects))
    _redirect_sites(out, groups, model.redirects, f"{out.app_id}/IpcSC")
    return out
