"""Concrete reference interpreter used as a differential oracle.

Executes an *uninstrumented* corpus outright, enumerating every
nondeterministic choice the runtime could make: branch arms, which callback
fires while a component is alive, the service entry alternative, and which
component receives a dispatch when several match. Taint origins ride on the
concrete values, so the set of (source stmt, sink stmt) pairs observed at
sinks is ground truth for the program family the generator emits.

This is not a general interpreter. It assumes the restrictions ``progen``
guarantees (loop-free bodies, string-valued extras and fields, no aliasing
of intents through assignment, acyclic dispatch) and unrolls the callback
loop twice, which is exhaustive for write-then-read field protocols.

``walk_covered_sets`` is the brute-force reference for the app-window plan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from iccflow.ir import (
    ICC_KINDS,
    PROVIDER_ICC_KINDS,
    AppModel,
    Assign,
    Branch,
    Call,
    Component,
    ComponentKind,
    Const,
    FieldLoad,
    FieldStore,
    Finish,
    GetExtra,
    GetIntent,
    Goto,
    IccCall,
    IntentFilter,
    Method,
    NewIntent,
    NewObj,
    Operand,
    PutExtra,
    Return,
    SetAction,
    SetCategory,
    SetDataType,
    SetResult,
    SetTarget,
    SinkCall,
    SourceCall,
    StmtId,
)
from iccflow.taint import SourceSinkConfig


class OracleError(Exception):
    """The interpreter ran out of budget (the program broke a generator rule)."""


# ---------------------------------------------------------------------------
# Runtime values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SVal:
    """A string value carrying the statement ids of the sources it came from."""

    text: str = ""
    taint: frozenset = frozenset()


CLEAN = SVal()


@dataclass
class OIntent:
    target: Optional[str] = None
    action: Optional[str] = None
    categories: set = field(default_factory=set)
    data_type: Optional[str] = None
    extras: dict = field(default_factory=dict)


@dataclass
class OObj:
    cls: str = ""
    fields: dict = field(default_factory=dict)


@dataclass
class OInstance(OObj):
    """A live component: an object plus its received/result intent slots."""

    comp: Optional[Component] = None
    received: Optional[OIntent] = None
    result: Optional[OIntent] = None


def taint_of(value, _seen: Optional[set] = None) -> frozenset:
    if isinstance(value, SVal):
        return value.taint
    if _seen is None:
        _seen = set()
    if id(value) in _seen:
        return frozenset()
    _seen.add(id(value))
    out = frozenset()
    if isinstance(value, OIntent):
        for v in value.extras.values():
            out |= taint_of(v, _seen)
    elif isinstance(value, OObj):
        for v in value.fields.values():
            out |= taint_of(v, _seen)
    return out


# ---------------------------------------------------------------------------
# Exhaustive choice enumeration
# ---------------------------------------------------------------------------


class Chooser:
    """Replays a script of choices, defaulting to 0 past its end."""

    def __init__(self, script):
        self.script = tuple(script)
        self.trace: list[tuple[int, int]] = []

    def pick(self, arity: int) -> int:
        pos = len(self.trace)
        choice = self.script[pos] if pos < len(self.script) else 0
        if not 0 <= choice < arity:
            raise OracleError("stale choice script")
        self.trace.append((choice, arity))
        return choice


def explore(run, *, max_runs: int = 150000) -> int:
    """Call ``run(chooser)`` once per leaf of the decision tree.

    Each run extends its script with zeros; the positions beyond the script
    spawn the remaining alternatives, so every leaf is visited exactly once.
    Returns the number of runs.
    """
    pending: list[tuple[int, ...]] = [()]
    runs = 0
    while pending:
        script = pending.pop()
        ch = Chooser(script)
        run(ch)
        runs += 1
        if runs > max_runs:
            raise OracleError("decision space exceeds run budget")
        taken = [c for c, _ in ch.trace]
        for i in range(len(script), len(ch.trace)):
            choice, arity = ch.trace[i]
            for alt in range(choice + 1, arity):
                pending.append(tuple(taken[:i]) + (alt,))
    return runs


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------


def _accepts(intent: OIntent, flt: IntentFilter) -> bool:
    """Concrete intent-filter matching (same rules as the static resolver)."""
    if intent.action is None or intent.action not in flt.actions:
        return False
    if not set(intent.categories) <= flt.categories:
        return False
    if intent.data_type is None:
        return not flt.data_types
    return intent.data_type in flt.data_types


class _World:
    def __init__(self, apps: list[AppModel], config: SourceSinkConfig):
        self.config = config
        self.components = [c for a in apps for c in a.components]
        self.by_qualified = {c.qualified_name: c for c in self.components}
        self.by_name: dict[str, list[Component]] = {}
        for c in self.components:
            self.by_name.setdefault(c.name, []).append(c)

    def roots(self) -> list[Component]:
        return [
            c
            for c in self.components
            if c.kind.is_component
            and c.kind is not ComponentKind.PROVIDER
            and c.filters
        ]


_ACT_PRE = ("onCreate", "onStart", "onResume")
_ACT_POST = ("onPause", "onStop", "onDestroy")
_LOOP_TICKS = 2


class _Run:
    def __init__(self, world: _World, chooser: Chooser, max_steps: int, max_hops: Optional[int] = None):
        self.w = world
        self.ch = chooser
        self.max_steps = max_steps
        self.max_hops = max_hops
        self.hops = 0  # dispatches on the current chain
        self.steps = 0
        self.depth = 0
        self.pairs: set[tuple[StmtId, StmtId]] = set()

    # -- driving ----------------------------------------------------------

    def lifecycle(self, comp: Component, inst: OInstance) -> None:
        lc = comp.lifecycle
        if comp.kind is ComponentKind.ACTIVITY:
            for name in _ACT_PRE:
                self._slot(comp, inst, name)
            options = list(comp.callbacks)
            if "onActivityResult" in lc:
                options.append(lc["onActivityResult"])
            self._ticks(comp, inst, options)
            for name in _ACT_POST:
                self._slot(comp, inst, name)
        elif comp.kind is ComponentKind.SERVICE:
            self._slot(comp, inst, "onCreate")
            sc = lc.get("onStartCommand")
            bd = lc.get("onBind")
            if sc is not None and bd is not None:
                entry = sc if self.ch.pick(2) == 0 else bd
                self.invoke(comp, entry, self._dummy_args(entry, inst))
            elif sc is not None or bd is not None:
                entry = sc if sc is not None else bd
                self.invoke(comp, entry, self._dummy_args(entry, inst))
            self._ticks(comp, inst, list(comp.callbacks))
            self._slot(comp, inst, "onDestroy")
        elif comp.kind is ComponentKind.RECEIVER:
            self._slot(comp, inst, "onReceive")
            self._ticks(comp, inst, list(comp.callbacks))
        # providers and plain classes are never driven

    def _slot(self, comp: Component, inst: OInstance, name: str) -> None:
        m = comp.lifecycle.get(name)
        if m is not None:
            self.invoke(comp, m, self._dummy_args(m, inst))

    def _ticks(self, comp: Component, inst: OInstance, options: list[Method]) -> None:
        if not options:
            return
        for _ in range(_LOOP_TICKS):
            c = self.ch.pick(len(options) + 1)
            if c == 0:
                return
            m = options[c - 1]
            self.invoke(comp, m, self._dummy_args(m, inst))

    def _dummy_args(self, method: Method, inst: OInstance) -> list:
        args: list = [inst]
        for i in range(1, len(method.params)):
            if method.name == "onActivityResult" and i == 1:
                args.append(OIntent())
            else:
                args.append(CLEAN)
        return args

    # -- execution --------------------------------------------------------

    def invoke(self, comp: Component, method: Method, args: list):
        self.depth += 1
        if self.depth > 40:
            raise OracleError("call depth exceeded (dispatch cycle?)")
        try:
            env = dict(zip(method.params, args))
            if not method.blocks:
                return CLEAN
            return self._exec(comp, method, env)
        finally:
            self.depth -= 1

    def _exec(self, comp: Component, method: Method, env: dict):
        by_label = {b.label: b for b in method.blocks}
        index_of = {b.label: i for i, b in enumerate(method.blocks)}
        block = method.blocks[0]
        while True:
            for stmt in block.stmts:
                self.steps += 1
                if self.steps > self.max_steps:
                    raise OracleError("step budget exceeded")
                self._stmt(comp, stmt, env)
            term = block.term
            if isinstance(term, Return):
                return env.get(term.var, CLEAN) if term.var else CLEAN
            if isinstance(term, Goto):
                block = by_label[term.label]
            elif isinstance(term, Branch):
                label = term.left if self.ch.pick(2) == 0 else term.right
                block = by_label[label]
            else:  # fallthrough
                nxt = index_of[block.label] + 1
                if nxt >= len(method.blocks):
                    return CLEAN
                block = method.blocks[nxt]

    def _text(self, op: Operand, env: dict) -> str:
        if op.is_literal:
            return op.text
        v = env.get(op.text, CLEAN)
        return v.text if isinstance(v, SVal) else ""

    def _stmt(self, comp: Component, stmt, env: dict) -> None:
        if isinstance(stmt, Assign):
            env[stmt.dst] = env.get(stmt.src, CLEAN)
        elif isinstance(stmt, Const):
            env[stmt.dst] = SVal(stmt.value)
        elif isinstance(stmt, SourceCall):
            if stmt.source in self.w.config.sources:
                env[stmt.dst] = SVal("~" + stmt.source, frozenset({stmt.sid}))
            else:
                env[stmt.dst] = CLEAN
        elif isinstance(stmt, SinkCall):
            if stmt.sink in self.w.config.sinks:
                for origin in taint_of(env.get(stmt.var, CLEAN)):
                    self.pairs.add((origin, stmt.sid))
        elif isinstance(stmt, NewIntent):
            env[stmt.dst] = OIntent()
        elif isinstance(stmt, SetTarget):
            v = env.get(stmt.intent)
            if isinstance(v, OIntent):
                v.target = self._text(stmt.value, env)
        elif isinstance(stmt, SetAction):
            v = env.get(stmt.intent)
            if isinstance(v, OIntent):
                v.action = self._text(stmt.value, env)
        elif isinstance(stmt, SetCategory):
            v = env.get(stmt.intent)
            if isinstance(v, OIntent):
                v.categories.add(self._text(stmt.value, env))
        elif isinstance(stmt, SetDataType):
            v = env.get(stmt.intent)
            if isinstance(v, OIntent):
                v.data_type = self._text(stmt.value, env)
        elif isinstance(stmt, PutExtra):
            v = env.get(stmt.intent)
            if isinstance(v, OIntent):
                v.extras[self._text(stmt.key, env)] = env.get(stmt.value, CLEAN)
        elif isinstance(stmt, GetExtra):
            v = env.get(stmt.intent)
            if isinstance(v, OIntent):
                env[stmt.dst] = v.extras.get(self._text(stmt.key, env), CLEAN)
            else:
                env[stmt.dst] = CLEAN
        elif isinstance(stmt, GetIntent):
            this = env.get("this")
            if isinstance(this, OInstance) and this.received is not None:
                env[stmt.dst] = this.received
            else:
                env[stmt.dst] = OIntent()
        elif isinstance(stmt, SetResult):
            this = env.get("this")
            v = env.get(stmt.intent)
            if isinstance(this, OInstance) and isinstance(v, OIntent):
                this.result = v
        elif isinstance(stmt, Finish):
            pass
        elif isinstance(stmt, IccCall):
            self._icc(stmt, env)
        elif isinstance(stmt, Call):
            self._call(comp, stmt, env)
        elif isinstance(stmt, FieldStore):
            obj = env.get(stmt.obj)
            if isinstance(obj, OObj):
                obj.fields[stmt.fld] = env.get(stmt.src, CLEAN)
        elif isinstance(stmt, FieldLoad):
            obj = env.get(stmt.obj)
            if isinstance(obj, OObj):
                env[stmt.dst] = obj.fields.get(stmt.fld, CLEAN)
            else:
                env[stmt.dst] = CLEAN
        elif isinstance(stmt, NewObj):
            env[stmt.dst] = OObj(cls=stmt.cls)

    def _call(self, comp: Component, stmt: Call, env: dict) -> None:
        resolved = self._resolve(comp, stmt)
        if resolved is None:
            if stmt.dst:
                env[stmt.dst] = CLEAN
            return
        tcomp, method = resolved
        args = [env.get(a, CLEAN) for a in stmt.args]
        ret = self.invoke(tcomp, method, args)
        if stmt.dst:
            env[stmt.dst] = ret

    def _resolve(self, comp: Component, stmt: Call):
        if stmt.cls is None:
            target = comp
        elif "/" in stmt.cls:
            target = self.w.by_qualified.get(stmt.cls)
        else:
            # an unqualified class lies in the caller's own app
            target = next(
                (c for c in self.w.by_name.get(stmt.cls, []) if c.origin_app == comp.origin_app),
                None,
            )
        if target is None:
            return None
        m = target.find_method(stmt.method)
        if m is None:
            return None
        return target, m

    def _icc(self, stmt: IccCall, env: dict) -> None:
        v = env.get(stmt.intent)
        if not isinstance(v, OIntent) or stmt.kind in PROVIDER_ICC_KINDS:
            return
        want = ICC_KINDS[stmt.kind]
        if v.target is not None:
            qname = v.target if "/" in v.target else f"{stmt.sid.app}/{v.target}"
            comp = self.w.by_qualified.get(qname)
            matches = [comp] if comp is not None and comp.kind is want else []
        else:
            matches = [
                c
                for c in self.w.components
                if c.kind is want and any(_accepts(v, f) for f in c.filters)
            ]
        if not matches or self.hops == self.max_hops:
            return
        choice = self.ch.pick(len(matches)) if len(matches) > 1 else 0
        target = matches[choice]
        inst = OInstance(cls=target.qualified_name, comp=target, received=v)
        self.hops += 1
        self.lifecycle(target, inst)
        self.hops -= 1
        if stmt.kind == "start_activity_for_result":
            owner = self.w.by_qualified.get(f"{stmt.sid.app}/{stmt.sid.cls}")
            oar = owner.lifecycle.get("onActivityResult") if owner else None
            if oar is not None:
                result = inst.result if inst.result is not None else OIntent()
                self.invoke(owner, oar, [env.get("this", CLEAN), result])


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def oracle_pairs(
    apps: list[AppModel],
    config: SourceSinkConfig,
    *,
    max_runs: int = 150000,
    max_steps: int = 200000,
    max_hops: Optional[int] = None,
) -> set[tuple[StmtId, StmtId]]:
    """All (source stmt, sink stmt) pairs any concrete execution can realize.

    With ``max_hops``, a chain of dispatches from a root stops after that
    many: an ICC call past it starts nothing. That bounds cyclic dispatch,
    which the interpreter cannot unroll, and keeps only the pairs such
    chains realize.
    """
    world = _World(apps, config)
    pairs: set[tuple[StmtId, StmtId]] = set()

    for root in world.roots():

        def drive(ch: Chooser, _root: Component = root) -> None:
            run = _Run(world, ch, max_steps, max_hops)
            run.lifecycle(_root, OInstance(cls=_root.qualified_name, comp=_root))
            pairs.update(run.pairs)

        explore(drive, max_runs=max_runs)
    return pairs


# ---------------------------------------------------------------------------
# Window plan
# ---------------------------------------------------------------------------


def walk_covered_sets(nodes: list[str], links: list, k: int) -> set[frozenset[str]]:
    """Every set of at most ``k`` apps that one walk along cross-app links
    covers, by brute force over orders of each set.

    A walk steps from a link's call-site app to its target app, and back for
    ``start_activity_for_result``. A set is covered when some order of its
    apps lets each app reach the next without leaving the set.
    """
    steps: dict[str, set[str]] = {n: set() for n in nodes}
    for link in links:
        a, b = link.from_stmt.app, link.to.rsplit("/", 1)[0]
        steps[a].add(b)
        if link.kind == "start_activity_for_result":
            steps[b].add(a)

    def reaches(inside: set[str], a: str, b: str) -> bool:
        seen, todo = {a}, [a]
        while todo:
            for m in steps[todo.pop()] & inside:
                if m not in seen:
                    seen.add(m)
                    todo.append(m)
        return b in seen

    out: set[frozenset[str]] = set()
    for size in range(1, k + 1):
        for combo in itertools.combinations(sorted(nodes), size):
            inside = set(combo)
            if any(
                all(reaches(inside, a, b) for a, b in zip(order, order[1:]))
                for order in itertools.permutations(combo)
            ):
                out.add(frozenset(combo))
    return out
