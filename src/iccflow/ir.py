"""Component IR: applications, components, intent filters, methods, statements.

This is the object model every other stage (parsing, link resolution,
instrumentation, taint propagation, benchmarking) operates on. An application
is a flat list of classes. Four class kinds are runtime components with
lifecycle methods and optional intent filters; the fifth kind, ``CLASS``, is a
plain helper class with ordinary methods only (used e.g. for the synthesized
ICC helper).

Statements carry a ``StmtId`` assigned once at parse time and carried
unchanged through every later transformation, so reports and ground-truth
files can name statements stably even after instrumentation has moved them
between blocks. The id is positional *at parse time* only; it is a stamp, not
a live coordinate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Union


class ComponentKind(enum.Enum):
    ACTIVITY = "activity"
    SERVICE = "service"
    RECEIVER = "receiver"
    PROVIDER = "provider"
    CLASS = "class"

    @property
    def is_component(self) -> bool:
        """True for the four runtime component kinds (not plain classes)."""
        return self is not ComponentKind.CLASS


#: Each kind's lifecycle as ``(first, one_of, loop, last)``: a driver runs
#: ``first`` in order, then one method of ``one_of`` (at most two), then a
#: loop over the callbacks and ``loop``, then ``last``. No driver runs a
#: provider's slots.
LIFECYCLE: dict[ComponentKind, tuple[tuple[str, ...], ...]] = {
    ComponentKind.ACTIVITY: (
        ("onCreate", "onStart", "onResume"),
        (),
        ("onActivityResult",),
        ("onPause", "onStop", "onDestroy"),
    ),
    ComponentKind.SERVICE: (("onCreate",), ("onStartCommand", "onBind"), (), ("onDestroy",)),
    ComponentKind.RECEIVER: (("onReceive",), (), (), ()),
    ComponentKind.PROVIDER: (("onQuery", "onInsert", "onDelete", "onUpdate"), (), (), ()),
    ComponentKind.CLASS: ((), (), (), ()),
}

#: Valid lifecycle slot names per component kind, in print order.
LIFECYCLE_SLOTS: dict[ComponentKind, tuple[str, ...]] = {
    kind: first + one_of + last + loop for kind, (first, one_of, loop, last) in LIFECYCLE.items()
}

#: ICC call kinds and the component kind each one targets. Provider kinds are
#: modeled in the IR but never resolved into links (see the icc module).
ICC_KINDS: dict[str, ComponentKind] = {
    "start_activity": ComponentKind.ACTIVITY,
    "start_activity_for_result": ComponentKind.ACTIVITY,
    "start_service": ComponentKind.SERVICE,
    "bind_service": ComponentKind.SERVICE,
    "send_broadcast": ComponentKind.RECEIVER,
    "provider_query": ComponentKind.PROVIDER,
    "provider_insert": ComponentKind.PROVIDER,
    "provider_delete": ComponentKind.PROVIDER,
    "provider_update": ComponentKind.PROVIDER,
}

PROVIDER_ICC_KINDS = frozenset(
    k for k, v in ICC_KINDS.items() if v is ComponentKind.PROVIDER
)

#: Method/class names reserved for the instrumenter. Their presence in a model
#: marks it as already instrumented.
RESERVED_METHODS = frozenset(
    {"dummyMain", "ctor", "getIntent", "setResult", "getIntentFAR"}
)
RESERVED_CLASSES = frozenset({"IpcSC"})


class StmtId(NamedTuple):
    """Stable statement identity: (app, class, method, block, index)."""

    app: str
    cls: str
    method: str
    block: str
    index: int

    def __str__(self) -> str:
        return f"{self.app}/{self.cls}/{self.method}/{self.block}/{self.index}"

    @property
    def method_key(self) -> tuple[str, str, str]:
        return (self.app, self.cls, self.method)

    @property
    def qualified_cls(self) -> str:
        return f"{self.app}/{self.cls}"


@dataclass(frozen=True)
class Operand:
    """A statement operand that is either a variable name or a string literal."""

    text: str
    is_literal: bool


def Lit(text: str) -> Operand:
    return Operand(text, True)


def Var(name: str) -> Operand:
    return Operand(name, False)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    sid: Optional[StmtId] = field(default=None, kw_only=True)
    synthetic: bool = field(default=False, kw_only=True)
    tag: Optional[str] = field(default=None, kw_only=True)


@dataclass
class Assign(Stmt):
    dst: str = ""
    src: str = ""


@dataclass
class Const(Stmt):
    dst: str = ""
    value: str = ""


@dataclass
class SourceCall(Stmt):
    dst: str = ""
    source: str = ""


@dataclass
class SinkCall(Stmt):
    sink: str = ""
    var: str = ""


@dataclass
class NewIntent(Stmt):
    dst: str = ""


@dataclass
class SetTarget(Stmt):
    intent: str = ""
    value: Operand = field(default_factory=lambda: Lit(""))


@dataclass
class SetAction(Stmt):
    intent: str = ""
    value: Operand = field(default_factory=lambda: Lit(""))


@dataclass
class SetCategory(Stmt):
    intent: str = ""
    value: Operand = field(default_factory=lambda: Lit(""))


@dataclass
class SetDataType(Stmt):
    intent: str = ""
    value: Operand = field(default_factory=lambda: Lit(""))


@dataclass
class PutExtra(Stmt):
    intent: str = ""
    key: Operand = field(default_factory=lambda: Lit(""))
    value: str = ""


@dataclass
class GetExtra(Stmt):
    dst: str = ""
    intent: str = ""
    key: Operand = field(default_factory=lambda: Lit(""))


@dataclass
class GetIntent(Stmt):
    dst: str = ""


@dataclass
class SetResult(Stmt):
    intent: str = ""


@dataclass
class Finish(Stmt):
    pass


@dataclass
class IccCall(Stmt):
    kind: str = ""
    intent: str = ""


@dataclass
class Call(Stmt):
    dst: Optional[str] = None
    cls: Optional[str] = None  # None = same class; else class/component name
    method: str = ""
    args: tuple[str, ...] = ()


@dataclass
class FieldStore(Stmt):
    obj: str = ""
    fld: str = ""
    src: str = ""


@dataclass
class FieldLoad(Stmt):
    dst: str = ""
    obj: str = ""
    fld: str = ""


@dataclass
class NewObj(Stmt):
    dst: str = ""
    cls: str = ""


class StmtForm(NamedTuple):
    """A statement written ``[dst =] keyword field ...``; see ``STMT_FORMS``."""

    cls: type
    dst: bool  # written after ``dst =``
    fields: tuple[tuple[str, str, str], ...]


_INTENT = ("intent", "var", "intent variable")
_SET_FIELDS = (_INTENT, ("value", "op", "attribute value"))

#: Each statement form a keyword names, read by the parser, the printer and
#: the use lists (``call``, field access, constants and copies are written
#: by hand). A field is ``(attribute, kind, what)``: kind ``var`` is a
#: variable, ``op`` a variable or a string literal (an ``Operand``), ``str`` a
#: string literal and ``kind`` an ICC kind; ``what`` names the field in parse
#: errors. Fields follow ``dst``, if any, in the class's field order.
STMT_FORMS: dict[str, StmtForm] = {
    "sink": StmtForm(
        SinkCall, False, (("sink", "str", "sink name string"), ("var", "var", "variable name"))
    ),
    "set_target": StmtForm(SetTarget, False, _SET_FIELDS),
    "set_action": StmtForm(SetAction, False, _SET_FIELDS),
    "set_category": StmtForm(SetCategory, False, _SET_FIELDS),
    "set_data_type": StmtForm(SetDataType, False, _SET_FIELDS),
    "put_extra": StmtForm(
        PutExtra, False, (_INTENT, ("key", "op", "extra key"), ("value", "var", "value variable"))
    ),
    "set_result": StmtForm(SetResult, False, (_INTENT,)),
    "finish": StmtForm(Finish, False, ()),
    "icc": StmtForm(IccCall, False, (("kind", "kind", "icc kind"), _INTENT)),
    "source": StmtForm(SourceCall, True, (("source", "str", "source name string"),)),
    "new_intent": StmtForm(NewIntent, True, ()),
    "new_obj": StmtForm(NewObj, True, (("cls", "str", "class name string"),)),
    "get_intent": StmtForm(GetIntent, True, ()),
    "get_extra": StmtForm(GetExtra, True, (_INTENT, ("key", "op", "extra key"))),
}

#: The keyword of each statement class in ``STMT_FORMS``.
STMT_KEYWORDS: dict[type, str] = {form.cls: kw for kw, form in STMT_FORMS.items()}


# ---------------------------------------------------------------------------
# Terminators and blocks
# ---------------------------------------------------------------------------


@dataclass
class Fallthrough:
    pass


@dataclass
class Goto:
    label: str = ""


@dataclass
class Branch:
    """Nondeterministic two-way branch: both successors are always feasible."""

    left: str = ""
    right: str = ""


@dataclass
class Return:
    var: Optional[str] = None


Terminator = Union[Fallthrough, Goto, Branch, Return]


@dataclass
class Block:
    label: str
    stmts: list[Stmt] = field(default_factory=list)
    term: Terminator = field(default_factory=Fallthrough)


@dataclass
class Method:
    name: str
    params: tuple[str, ...] = ()
    blocks: list[Block] = field(default_factory=list)
    synthetic: bool = False

    @property
    def entry(self) -> Block:
        return self.blocks[0]

    def block(self, label: str) -> Optional[Block]:
        for b in self.blocks:
            if b.label == label:
                return b
        return None

    def successors(self, idx: int) -> list[str]:
        """Labels control may reach after block ``idx``: none when it returns
        or falls off the method's end, else its targets in branch order."""
        term = self.blocks[idx].term
        if isinstance(term, Goto):
            return [term.label]
        if isinstance(term, Branch):
            return [term.left, term.right]
        if isinstance(term, Fallthrough) and idx + 1 < len(self.blocks):
            return [self.blocks[idx + 1].label]
        return []


@dataclass
class IntentFilter:
    actions: frozenset[str] = frozenset()
    categories: frozenset[str] = frozenset()
    data_types: frozenset[str] = frozenset()


@dataclass
class Component:
    """One class of an application; four kinds are runtime components."""

    name: str
    kind: ComponentKind
    filters: list[IntentFilter] = field(default_factory=list)
    lifecycle: dict[str, Method] = field(default_factory=dict)
    callbacks: list[Method] = field(default_factory=list)
    helpers: list[Method] = field(default_factory=list)
    synthetic: bool = False
    origin_app: str = ""

    @property
    def qualified_name(self) -> str:
        return f"{self.origin_app}/{self.name}"

    def methods(self) -> Iterator[Method]:
        yield from self.lifecycle.values()
        yield from self.callbacks
        yield from self.helpers

    def find_method(self, name: str) -> Optional[Method]:
        for m in self.methods():
            if m.name == name:
                return m
        return None


@dataclass
class AppModel:
    """One application (or a combined group of applications)."""

    app_id: str
    components: list[Component] = field(default_factory=list)
    source_path: Optional[str] = field(default=None, compare=False)
    # Set by the instrumenter: each realized link's call; its target is a root.
    redirects: dict[object, Call] = field(default_factory=dict, compare=False, repr=False)

    def component(self, name: str) -> Optional[Component]:
        for c in self.components:
            if c.name == name:
                return c
        return None

    def find_qualified(self, qualified_name: str) -> Optional[Component]:
        for c in self.components:
            if c.qualified_name == qualified_name:
                return c
        return None

    def iter_methods(self) -> Iterator[tuple[Component, Method]]:
        for c in self.components:
            for m in c.methods():
                yield c, m

    def iter_stmts(self) -> Iterator[tuple[Component, Method, Block, Stmt]]:
        for c, m in self.iter_methods():
            for b in m.blocks:
                for s in b.stmts:
                    yield c, m, b, s


@dataclass
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    file: Optional[str] = None
    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        where = self.file or "<input>"
        if self.line:
            where = f"{where}:{self.line}:{self.column}"
        return f"{where}: {self.severity}: {self.message}"


def error(message: str, file: Optional[str] = None, line: int = 0, column: int = 0) -> Diagnostic:
    return Diagnostic("error", message, file, line, column)


def warning(message: str, file: Optional[str] = None, line: int = 0, column: int = 0) -> Diagnostic:
    return Diagnostic("warning", message, file, line, column)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _stmt_uses(stmt: Stmt) -> list[str]:
    """Variable names a statement reads."""
    uses: list[str] = []
    keyword = STMT_KEYWORDS.get(type(stmt))
    if keyword is not None:
        for attr, kind, _what in STMT_FORMS[keyword].fields:
            value = getattr(stmt, attr)
            if kind == "var":
                uses.append(value)
            elif kind == "op" and not value.is_literal:
                uses.append(value.text)
    elif isinstance(stmt, Assign):
        uses.append(stmt.src)
    elif isinstance(stmt, Call):
        uses.extend(stmt.args)
    elif isinstance(stmt, FieldStore):
        uses.extend((stmt.obj, stmt.src))
    elif isinstance(stmt, FieldLoad):
        uses.append(stmt.obj)
    return uses


def _stmt_defs(stmt: Stmt) -> list[str]:
    dst = getattr(stmt, "dst", None)
    return [dst] if dst else []


def _is_component_method(comp: Component, method: Method) -> bool:
    return (
        comp.kind.is_component
        and len(method.params) >= 1
        and method.params[0] == "this"
    )


def validate(app: AppModel) -> list[Diagnostic]:
    """Check every model invariant; returns all violations as diagnostics.

    An empty result means the model is analyzable. Diagnostics carry the
    statement id in the message (source positions belong to the parser).
    """
    diags: list[Diagnostic] = []
    seen_names: dict[str, Component] = {}
    path = app.source_path

    for comp in app.components:
        if comp.name in seen_names:
            diags.append(
                error(
                    f"duplicate component name {comp.name!r} in app {app.app_id!r}",
                    path,
                )
            )
        else:
            seen_names[comp.name] = comp

        slots = LIFECYCLE_SLOTS[comp.kind]
        for slot in comp.lifecycle:
            if slot not in slots:
                diags.append(
                    error(
                        f"{comp.name}: lifecycle slot {slot!r} is not valid for "
                        f"kind {comp.kind.value}",
                        path,
                    )
                )
        if comp.kind is ComponentKind.CLASS and (comp.filters or comp.callbacks):
            diags.append(
                error(f"{comp.name}: plain classes take no filters or callbacks", path)
            )

        for flt in comp.filters:
            if not flt.actions:
                diags.append(
                    error(
                        f"{comp.name}: intent filter with no action matches nothing",
                        path,
                    )
                )

        method_names: set[str] = set()
        for method in comp.methods():
            if method.name in method_names:
                diags.append(
                    error(f"{comp.name}: duplicate method {method.name!r}", path)
                )
            method_names.add(method.name)
            diags.extend(_validate_method(app, comp, method, path))

    return diags


def _at(where: str, stmt: Stmt) -> str:
    """The place a statement's diagnostic names: its method and its id."""
    return f"{where} [{stmt.sid}]" if stmt.sid else where


def _validate_method(
    app: AppModel, comp: Component, method: Method, path: Optional[str]
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    where = f"{comp.name}.{method.name}"

    labels: set[str] = set()
    for block in method.blocks:
        if block.label in labels:
            diags.append(error(f"{where}: duplicate block label {block.label!r}", path))
        labels.add(block.label)

    declared: set[str] = set(method.params)
    for block in method.blocks:
        for stmt in block.stmts:
            declared.update(_stmt_defs(stmt))

    in_component_method = _is_component_method(comp, method)
    for idx, block in enumerate(method.blocks):
        for stmt in block.stmts:
            for used in _stmt_uses(stmt):
                if used not in declared:
                    diags.append(error(f"{_at(where, stmt)}: use of undeclared variable {used!r}", path))
            if isinstance(stmt, (GetIntent, SetResult, Finish)) and not in_component_method:
                diags.append(
                    error(
                        f"{_at(where, stmt)}: {STMT_KEYWORDS[type(stmt)]} is only legal inside component methods "
                        "(first parameter 'this' of an activity/service/"
                        "receiver/provider)",
                        path,
                    )
                )
            if (
                isinstance(stmt, IccCall)
                and stmt.kind == "start_activity_for_result"
                and not in_component_method
            ):
                diags.append(
                    error(
                        f"{_at(where, stmt)}: start_activity_for_result needs a component "
                        "method context (the result is delivered back to the "
                        "calling component)",
                        path,
                    )
                )

        term = block.term
        if isinstance(term, Return) and term.var is not None:
            if term.var not in declared:
                diags.append(
                    error(f"{where}: return of undeclared variable {term.var!r}", path)
                )
        for t in method.successors(idx):
            if t not in labels:
                diags.append(error(f"{where}: branch target {t!r} names no block", path))

    return diags
