"""Intent value resolution and ICC link matching.

For every ICC call statement this module computes an abstract description of
the intent flowing into it (explicit target, action, categories and data
type: what filter matching reads), joined over all CFG paths that reach the
call. The values are then matched against intent filters, corpus-wide, to
produce resolved links. Matching draws its candidates from an index of
components by kind and by the actions their filters declare; only a site
whose action or target is Top scans every component of the wanted kind.

Interprocedural precision is one call level deep (k=1): a method that
receives an intent argument is re-analyzed under the join of all values its
callers pass; anything flowing further degrades to Top. Lifecycle methods and
callbacks are framework entry points, so their parameters always include Top.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Union

from .ir import (
    AppModel,
    Assign,
    Call,
    Component,
    ComponentKind,
    Const,
    Diagnostic,
    GetIntent,
    ICC_KINDS,
    IccCall,
    Method,
    NewIntent,
    PROVIDER_ICC_KINDS,
    PutExtra,
    SetAction,
    SetCategory,
    SetDataType,
    SetTarget,
    Stmt,
    StmtId,
    warning,
)


class _TopType:
    """Lattice top for string-set attributes; ``TOP`` is its one instance."""

    def __repr__(self) -> str:
        return "TOP"


TOP = _TopType()

#: Marker inside the targets set for "no explicit target set on this path";
#: marker inside the data-types set for "no data type set on this path".
UNSET = None

StrSet = Union[frozenset, _TopType]


def join_sets(a: StrSet, b: StrSet) -> StrSet:
    if a is TOP or b is TOP:
        return TOP
    return a | b


@dataclass(frozen=True)
class IntentValue:
    """Abstract value of one intent at one program point.

    ``targets`` and ``data_types`` are option sets: the ``None`` element
    stands for "unset on some path". ``Top`` on any attribute means the
    attribute was written from a value the analysis cannot bound.
    """

    targets: StrSet = frozenset({UNSET})
    actions: StrSet = frozenset()
    categories: StrSet = frozenset()
    data_types: StrSet = frozenset({UNSET})

    @staticmethod
    def top() -> "IntentValue":
        return IntentValue(TOP, TOP, TOP, TOP)

    def join(self, other: "IntentValue") -> "IntentValue":
        return IntentValue(
            join_sets(self.targets, other.targets),
            join_sets(self.actions, other.actions),
            join_sets(self.categories, other.categories),
            join_sets(self.data_types, other.data_types),
        )

    @property
    def explicit_targets(self) -> list:
        if self.targets is TOP:
            return []
        return sorted(t for t in self.targets if t is not None)

    @property
    def may_be_implicit(self) -> bool:
        return self.targets is TOP or UNSET in self.targets


@dataclass(frozen=True, order=True)
class IccLink:
    """A resolved edge from one ICC call statement to a target component."""

    from_stmt: StmtId
    kind: str
    to: str  # qualified component name "app/Component"
    exact: bool
    cross_app: bool  # the two ends' origin apps differ


def links_by_app(links: list[IccLink], held: dict[str, str]) -> dict[str, list[IccLink]]:
    """The links by the app holding their call site (``combine.holders``), in input order."""
    by_app: dict[str, list[IccLink]] = {}
    for link in links:
        app = held.get(link.from_stmt.qualified_cls)
        if app is not None:
            by_app.setdefault(app, []).append(link)
    return by_app


@dataclass
class LinkResult:
    links: list[IccLink] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Abstract values for variables
# ---------------------------------------------------------------------------
#
# A variable holds either a string abstraction (a ``StrSet``: the set of
# possible constants, or Top) or an ``IntentValue``. Objects and anything
# else are opaque; using an opaque value where an intent is expected degrades
# to the Top intent, never to a failure.

AbsVal = Union[StrSet, IntentValue]

#: Reading a never-assigned variable yields the empty string at runtime.
_UNASSIGNED: StrSet = frozenset({""})

#: The intent attribute each setter writes; ``set_category`` adds to it.
_SETTERS = {SetTarget: "targets", SetAction: "actions",
            SetCategory: "categories", SetDataType: "data_types"}


def _join_vals(a: AbsVal, b: AbsVal) -> AbsVal:
    if isinstance(a, IntentValue) and isinstance(b, IntentValue):
        return a.join(b)
    if isinstance(a, IntentValue) or isinstance(b, IntentValue):
        # Mixed string/intent merge: nothing useful can be said.
        return IntentValue.top()
    return join_sets(a, b)


def _join_into(d: dict, key, value: AbsVal) -> None:
    """Join ``value`` into ``d[key]``, the entry's existing value first."""
    if key in d:
        d[key] = _join_vals(d[key], value)
    else:
        d[key] = value


def _as_str_set(val: Optional[AbsVal]) -> StrSet:
    if val is None:
        return _UNASSIGNED
    if isinstance(val, IntentValue):
        return TOP  # an intent used as a string: unknowable
    return val


def _as_intent(val: Optional[AbsVal]) -> IntentValue:
    if isinstance(val, IntentValue):
        return val
    return IntentValue.top()


def _operand_strings(env: dict, operand) -> StrSet:
    if operand.is_literal:
        return frozenset({operand.text})
    return _as_str_set(env.get(operand.text))


def _apply_stmt(stmt: Stmt, env: dict, sink: "_ValueSink") -> None:
    """Transfer function of one statement over the variable environment."""
    if isinstance(stmt, Const):
        env[stmt.dst] = frozenset({stmt.value})
    elif isinstance(stmt, Assign):
        env[stmt.dst] = env.get(stmt.src, _UNASSIGNED)
    elif isinstance(stmt, GetIntent):
        # The received intent is unknown before instrumentation connects the
        # sender; relaying it onward must over-approximate.
        env[stmt.dst] = IntentValue.top()
    elif isinstance(stmt, NewIntent):
        env[stmt.dst] = IntentValue()
    elif type(stmt) in _SETTERS:
        attr = _SETTERS[type(stmt)]
        iv = _as_intent(env.get(stmt.intent))
        written = _operand_strings(env, stmt.value)
        if isinstance(stmt, SetCategory):
            written = join_sets(iv.categories, written)
        env[stmt.intent] = replace(iv, **{attr: written})
    elif isinstance(stmt, PutExtra):
        # Extras are not matched, but the variable now holds an intent.
        env[stmt.intent] = _as_intent(env.get(stmt.intent))
    elif isinstance(stmt, IccCall):
        _join_into(sink.icc_values, stmt.sid, _as_intent(env.get(stmt.intent)))
    elif isinstance(stmt, Call):
        for i, arg in enumerate(stmt.args):
            _join_into(sink.arg_bindings, (stmt.cls, stmt.method, i), env.get(arg, _UNASSIGNED))
        if stmt.dst:
            env[stmt.dst] = TOP
    else:
        # source, get_extra, new_obj, field ops, sink/finish/set_result: no
        # effect on intents visible to this analysis.
        if getattr(stmt, "dst", None):
            env[stmt.dst] = TOP


class _ValueSink:
    """Collects icc-site values and call-site argument bindings."""

    def __init__(self) -> None:
        self.icc_values: dict[StmtId, IntentValue] = {}
        self.arg_bindings: dict[tuple, AbsVal] = {}


def _analyze_method(method: Method, init_env: dict, sink: _ValueSink) -> None:
    """Per-method fixpoint over block environments (join over paths)."""
    position = {b.label: i for i, b in enumerate(method.blocks)}
    in_envs: dict[str, dict] = {method.entry.label: dict(init_env)}
    work = deque([method.entry.label])
    queued = {method.entry.label}
    while work:
        label = work.popleft()
        queued.discard(label)
        idx = position[label]
        env = dict(in_envs[label])
        for stmt in method.blocks[idx].stmts:
            _apply_stmt(stmt, env, sink)
        for succ in method.successors(idx):
            if succ not in position:
                continue
            joined = dict(in_envs.get(succ, {}))
            for var, val in env.items():
                _join_into(joined, var, val)
            if joined == in_envs.get(succ):
                continue
            in_envs[succ] = joined
            if succ not in queued:
                queued.add(succ)
                work.append(succ)


def _entry_methods(comp: Component) -> set:
    """Methods whose parameters the framework controls (Top bindings)."""
    names = set(comp.lifecycle)
    names.update(m.name for m in comp.callbacks)
    return names


def resolve_intent_values(app: AppModel) -> dict[StmtId, IntentValue]:
    """Abstract intent value at every ICC call statement of one app.

    Two passes: the first runs every method holding a call with Top
    parameters and collects the joined argument bindings of every call site;
    the second re-runs each method holding an ICC call under those bindings
    (one level of call depth). Framework entry points (lifecycle methods,
    callbacks) and methods that are never called keep Top parameters.
    """
    methods = [(c, m, {type(s) for b in m.blocks for s in b.stmts}) for c, m in app.iter_methods()]
    pass1 = _ValueSink()
    for comp, method in [(c, m) for c, m, kinds in methods if Call in kinds]:
        init = {p: IntentValue.top() for p in method.params}
        _analyze_method(method, init, pass1)

    pass2 = _ValueSink()
    for comp, method in [(c, m) for c, m, kinds in methods if IccCall in kinds]:
        init: dict[str, AbsVal] = {}
        is_entry = method.name in _entry_methods(comp)
        for i, param in enumerate(method.params):
            bound: Optional[AbsVal] = None
            # A call may name the class explicitly or rely on same-class
            # resolution; join bindings recorded under both forms.
            for cls_key in (comp.name, comp.qualified_name, None):
                b = pass1.arg_bindings.get((cls_key, method.name, i))
                if b is not None:
                    bound = b if bound is None else _join_vals(bound, b)
            if is_entry or bound is None:
                init[param] = IntentValue.top()
            else:
                init[param] = bound
        _analyze_method(method, init, pass2)

    # Every icc_call statement gets a value, even in unreachable code.
    values = dict(pass2.icc_values)
    for _c, _m, _b, stmt in app.iter_stmts():
        if isinstance(stmt, IccCall) and stmt.sid not in values:
            values[stmt.sid] = IntentValue.top()
    return values


# ---------------------------------------------------------------------------
# Filter matching
# ---------------------------------------------------------------------------


def _filter_matches(value: IntentValue, flt) -> Optional[bool]:
    """Does an implicit intent with this value match the filter?

    Returns None for no match; True for an exact match (no Top attribute
    involved); False for a match that rests on a Top over-approximation.
    """
    exact = True

    if value.actions is TOP:
        exact = False
    elif not (value.actions & flt.actions):
        return None

    if value.categories is TOP:
        exact = False
    elif not (value.categories <= flt.categories):
        return None

    if value.data_types is TOP:
        exact = False
    else:
        declared = value.data_types - {UNSET}
        ok = bool(declared & flt.data_types)
        if UNSET in value.data_types and not flt.data_types:
            ok = True
        if not ok:
            return None

    return exact


def match_links(
    values_by_app: dict[str, dict[StmtId, IntentValue]],
    corpus: Iterable[AppModel],
) -> LinkResult:
    """Match every resolved intent value against the filters that can accept it.

    Explicit targets resolve directly by qualified name (filters are never
    consulted). Implicit intents match action/category/data-type against
    kind-compatible components corpus-wide. The candidates come from an index
    of components by kind and by (kind, action declared in a filter): a site
    with concrete actions tests only the components that declare one of them,
    and only a site whose action or target is Top scans every component of
    its kind. Provider calls resolve to nothing by design. Missing explicit
    targets become diagnostics, not errors.
    """
    by_qualified: dict[str, Component] = {}
    by_kind: dict[ComponentKind, list[Component]] = {}
    by_action: dict[tuple[ComponentKind, str], list[Component]] = {}
    kinds: dict[StmtId, str] = {}
    for app in corpus:
        for _c, _m, _b, stmt in app.iter_stmts():
            if isinstance(stmt, IccCall):
                kinds[stmt.sid] = stmt.kind
        for comp in app.components:
            by_qualified[comp.qualified_name] = comp
            by_kind.setdefault(comp.kind, []).append(comp)
            declared = set().union(*(flt.actions for flt in comp.filters))
            for action in declared:
                by_action.setdefault((comp.kind, action), []).append(comp)

    result = LinkResult()
    links: set[IccLink] = set()
    for app_id in sorted(values_by_app):
        for sid in sorted(values_by_app[app_id]):
            value = values_by_app[app_id][sid]
            kind = kinds.get(sid)
            if kind is not None and kind not in ICC_KINDS:
                result.diagnostics.append(warning(f"unknown icc kind {kind!r} at {sid}"))
            if kind not in ICC_KINDS or kind in PROVIDER_ICC_KINDS:
                continue
            want = ICC_KINDS[kind]

            def link(comp: Component, exact: bool) -> None:
                links.add(IccLink(sid, kind, comp.qualified_name, exact, comp.origin_app != sid.app))

            for qname in value.explicit_targets:
                if "/" not in qname:
                    # bare names target the sender's own app
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
                link(target, True)

            if not value.may_be_implicit:
                continue
            if value.targets is TOP:
                for comp in by_kind.get(want, ()):
                    link(comp, False)
                continue
            if value.actions is TOP:
                candidates = by_kind.get(want, ())
            else:
                # A filter matches only if it declares one of the actions.
                candidates = {
                    id(comp): comp
                    for action in value.actions
                    for comp in by_action.get((want, action), ())
                }.values()
            for comp in candidates:
                best: Optional[bool] = None
                for flt in comp.filters:
                    m = _filter_matches(value, flt)
                    if m is not None:
                        best = m if best is None else (best or m)
                if best is not None:
                    link(comp, best)

    result.links = sorted(links)
    return result


def resolve_corpus(apps: list[AppModel]) -> dict[str, dict[StmtId, IntentValue]]:
    return {app.app_id: resolve_intent_values(app) for app in apps}

