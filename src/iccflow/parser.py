"""Text format for component-IR programs (`.cir` files).

The format is line-oriented and brace-delimited: one statement per line,
``#`` comments to end of line, string literals double-quoted with backslash
escapes. A trailing comment of the form ``# @tag name`` attaches a stable tag
to the statement on that line; ground-truth files reference statements by
these tags so they survive instrumentation and edits.

Parsing collects as many diagnostics as it can (statement-level errors skip
to the next line) and never raises on arbitrary input. Serialization emits a
canonical form that reparses to a structurally identical model.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Optional

from .ir import (
    AppModel,
    Assign,
    Block,
    Branch,
    Call,
    Component,
    ComponentKind,
    Const,
    Diagnostic,
    FieldLoad,
    FieldStore,
    Finish,
    GetExtra,
    GetIntent,
    Goto,
    ICC_KINDS,
    IccCall,
    IntentFilter,
    LIFECYCLE_SLOTS,
    Lit,
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
    Stmt,
    StmtId,
    Var,
    error,
    validate,
)

_KEYWORDS = frozenset(
    """app component class synthetic from filter action category data_type
       method callback source sink new_intent new_obj set_target set_action
       set_category set_data_type put_extra get_extra get_intent set_result
       finish icc call goto branch return activity service receiver
       provider""".split()
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TAG_RE = re.compile(r"@tag\s+([A-Za-z_][A-Za-z0-9_]*)")

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


@dataclass
class Token:
    kind: str  # "ident" | "string" | "punct" | "end"
    text: str
    col: int


@dataclass
class Line:
    number: int
    tokens: list[Token]
    comment: str = ""

    @property
    def tag(self) -> Optional[str]:
        m = _TAG_RE.search(self.comment)
        return m.group(1) if m else None


class _LineLexer:
    """Tokenizes one source line; string-literal errors become diagnostics."""

    def __init__(self, path: Optional[str]):
        self.path = path
        self.diags: list[Diagnostic] = []

    def lex(self, text: str, number: int) -> Line:
        tokens: list[Token] = []
        comment = ""
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch in " \t\r":
                i += 1
                continue
            if ch == "#":
                comment = text[i + 1 :]
                break
            col = i + 1
            if ch == '"':
                value, i, ok = self._lex_string(text, i, number, col)
                if not ok:
                    break
                tokens.append(Token("string", value, col))
                continue
            m = _IDENT_RE.match(text, i)
            if m:
                tokens.append(Token("ident", m.group(0), col))
                i = m.end()
                continue
            if ch in "{}()=:.,;":
                tokens.append(Token("punct", ch, col))
                i += 1
                continue
            self.diags.append(
                error(f"unexpected character {ch!r}", self.path, number, col)
            )
            i += 1
        return Line(number, tokens, comment)

    def _lex_string(self, text: str, i: int, number: int, col: int):
        out: list[str] = []
        i += 1
        while i < len(text):
            ch = text[i]
            if ch == '"':
                return "".join(out), i + 1, True
            if ch == "\\":
                if i + 1 < len(text) and text[i + 1] in _ESCAPES:
                    out.append(_ESCAPES[text[i + 1]])
                    i += 2
                    continue
                self.diags.append(
                    error("bad string escape", self.path, number, i + 1)
                )
                return "", i, False
            out.append(ch)
            i += 1
        self.diags.append(error("unterminated string literal", self.path, number, col))
        return "", i, False


class _Cursor:
    """Token cursor over one line."""

    def __init__(self, line: Line, path: Optional[str]):
        self.line = line
        self.path = path
        self.pos = 0

    def peek(self) -> Token:
        if self.pos < len(self.line.tokens):
            return self.line.tokens[self.pos]
        return Token("end", "", len(self.line.tokens) + 1)

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def at_end(self) -> bool:
        return self.pos >= len(self.line.tokens)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    def fail(self, message: str) -> "ParseError":
        tok = self.peek()
        col = tok.col if tok.kind != "end" else 1
        return ParseError(error(message, self.path, self.line.number, col))

    def expect(self, kind: str, text: Optional[str] = None, what: str = "") -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            got = self.peek()
            shown = got.text if got.kind != "end" else "end of line"
            raise self.fail(f"expected {what or text or kind}, got {shown!r}")
        return tok

    def expect_done(self) -> None:
        if not self.at_end():
            raise self.fail("trailing tokens on line")


class ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


@dataclass
class ParseResult:
    app: Optional[AppModel]
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.app is not None


def parse_app(text: str, path: Optional[str] = None) -> ParseResult:
    """Parse one `.cir` source into a validated model.

    Returns the model plus all diagnostics; the model is None whenever any
    error-severity diagnostic was produced.
    """
    parser = _Parser(text, path)
    app = parser.parse()
    diags = parser.diags
    if app is not None:
        diags = diags + validate(app)
    if any(d.severity == "error" for d in diags):
        app = None
    return ParseResult(app, diags)


class _Parser:
    def __init__(self, text: str, path: Optional[str]):
        self.path = path
        lexer = _LineLexer(path)
        self.lines: list[Line] = []
        for idx, raw in enumerate(text.splitlines(), start=1):
            line = lexer.lex(raw, idx)
            if line.tokens or line.comment:
                self.lines.append(line)
        self.diags = lexer.diags
        self.idx = 0

    # -- line stream ------------------------------------------------------

    def _next_line(self) -> Optional[Line]:
        while self.idx < len(self.lines):
            line = self.lines[self.idx]
            self.idx += 1
            if line.tokens:
                return line
        return None

    def _err(self, message: str, line: Optional[Line]) -> None:
        number = line.number if line else 0
        self.diags.append(error(message, self.path, number, 1))

    def _skip_block(self, depth: int = 1) -> None:
        """Skip lines until the currently open braces are balanced."""
        while depth > 0:
            line = self._next_line()
            if line is None:
                return
            for tok in line.tokens:
                if tok.kind == "punct" and tok.text == "{":
                    depth += 1
                elif tok.kind == "punct" and tok.text == "}":
                    depth -= 1

    @staticmethod
    def _is_close(line: Line) -> bool:
        return (
            len(line.tokens) == 1
            and line.tokens[0].kind == "punct"
            and line.tokens[0].text == "}"
        )

    # -- grammar ----------------------------------------------------------

    def parse(self) -> Optional[AppModel]:
        line = self._next_line()
        if line is None:
            self._err("empty input: expected 'app \"name\" {'", None)
            return None
        cur = _Cursor(line, self.path)
        try:
            cur.expect("ident", "app")
            name = cur.expect("string", what="app name string").text
            cur.expect("punct", "{")
            cur.expect_done()
        except ParseError as exc:
            self.diags.append(exc.diagnostic)
            return None
        app = AppModel(app_id=name, source_path=self.path)

        while True:
            line = self._next_line()
            if line is None:
                self._err("unexpected end of input: unclosed 'app' block", None)
                return app
            if self._is_close(line):
                break
            comp = self._parse_class(line, app.app_id)
            if comp is not None:
                app.components.append(comp)

        extra = self._next_line()
        if extra is not None:
            self._err("content after closing '}' of app block", extra)
        return app

    def _parse_class(self, line: Line, app_id: str) -> Optional[Component]:
        cur = _Cursor(line, self.path)
        try:
            synthetic = cur.accept("ident", "synthetic") is not None
            if cur.accept("ident", "class"):
                kind = ComponentKind.CLASS
            else:
                cur.expect("ident", "component", what="'component' or 'class'")
                kind_tok = cur.expect("ident", what="component kind")
                try:
                    kind = ComponentKind(kind_tok.text)
                except ValueError:
                    raise cur.fail(f"unknown component kind {kind_tok.text!r}")
                if kind is ComponentKind.CLASS:
                    raise cur.fail("use 'class Name' for plain classes")
            name = cur.expect("ident", what="class name").text
            origin = app_id
            if cur.accept("ident", "from"):
                origin = cur.expect("string", what="origin app string").text
            cur.expect("punct", "{")
            cur.expect_done()
        except ParseError as exc:
            self.diags.append(exc.diagnostic)
            self._skip_block()
            return None

        comp = Component(name=name, kind=kind, synthetic=synthetic, origin_app=origin)
        while True:
            body_line = self._next_line()
            if body_line is None:
                self._err(f"unclosed block for {name!r}", line)
                return comp
            if self._is_close(body_line):
                return comp
            self._parse_member(body_line, comp)

    def _parse_member(self, line: Line, comp: Component) -> None:
        cur = _Cursor(line, self.path)
        synthetic = cur.accept("ident", "synthetic") is not None
        head = cur.peek()
        if head.kind == "ident" and head.text == "filter":
            try:
                comp.filters.append(self._parse_filter(cur))
            except ParseError as exc:
                self.diags.append(exc.diagnostic)
            return
        if head.kind == "ident" and head.text in ("method", "callback"):
            is_callback = head.text == "callback"
            cur.next()
            try:
                name = cur.expect("ident", what="method name").text
                cur.expect("punct", "(")
                params: list[str] = []
                if not cur.accept("punct", ")"):
                    while True:
                        params.append(cur.expect("ident", what="parameter name").text)
                        if cur.accept("punct", ")"):
                            break
                        cur.expect("punct", ",")
                cur.expect("punct", "{")
                cur.expect_done()
            except ParseError as exc:
                self.diags.append(exc.diagnostic)
                self._skip_block()
                return
            method = Method(name=name, params=tuple(params), synthetic=synthetic)
            self._parse_body(method, comp)
            if is_callback:
                comp.callbacks.append(method)
            elif name in LIFECYCLE_SLOTS[comp.kind]:
                comp.lifecycle[name] = method
            else:
                comp.helpers.append(method)
            return
        self._err(
            f"expected 'filter', 'method' or 'callback', got {head.text!r}", line
        )

    def _parse_filter(self, cur: _Cursor) -> IntentFilter:
        cur.expect("ident", "filter")
        cur.expect("punct", "{")
        actions: set[str] = set()
        categories: set[str] = set()
        data_types: set[str] = set()
        while not cur.accept("punct", "}"):
            key = cur.expect("ident", what="'action', 'category' or 'data_type'")
            if key.text not in ("action", "category", "data_type"):
                raise cur.fail(f"unknown filter entry {key.text!r}")
            value = cur.expect("string", what="filter value string").text
            {"action": actions, "category": categories, "data_type": data_types}[
                key.text
            ].add(value)
            cur.accept("punct", ";")
        cur.expect_done()
        return IntentFilter(
            frozenset(actions), frozenset(categories), frozenset(data_types)
        )

    # -- method bodies ------------------------------------------------------

    def _parse_body(self, method: Method, comp: Component) -> None:
        blocks: list[Block] = []
        current: Optional[Block] = None
        terminated = False

        def close_current() -> None:
            nonlocal current, terminated
            if current is not None:
                blocks.append(current)
            current = None
            terminated = False

        while True:
            line = self._next_line()
            if line is None:
                self._err(f"unclosed body of {comp.name}.{method.name}", None)
                break
            if self._is_close(line):
                break
            # Label line: IDENT ':'
            if (
                len(line.tokens) == 2
                and line.tokens[0].kind == "ident"
                and line.tokens[0].text not in _KEYWORDS
                and line.tokens[1].kind == "punct"
                and line.tokens[1].text == ":"
            ):
                close_current()
                current = Block(label=line.tokens[0].text)
                continue
            if current is None:
                current = Block(label="b0")
            cur = _Cursor(line, self.path)
            try:
                if terminated:
                    raise cur.fail("statement after terminator needs a block label")
                term = self._try_terminator(cur)
                if term is not None:
                    current.term = term
                    terminated = True
                    continue
                stmt = self._parse_stmt(cur, line)
                current.stmts.append(stmt)
            except ParseError as exc:
                self.diags.append(exc.diagnostic)
        close_current()
        if not blocks:
            blocks.append(Block(label="b0", term=Return()))
        method.blocks = blocks
        self._stamp_ids(method, comp)

    def _stamp_ids(self, method: Method, comp: Component) -> None:
        for block in method.blocks:
            for i, stmt in enumerate(block.stmts):
                stmt.sid = StmtId(
                    comp.origin_app, comp.name, method.name, block.label, i
                )

    def _try_terminator(self, cur: _Cursor):
        head = cur.peek()
        if head.kind != "ident":
            return None
        if head.text == "goto":
            cur.next()
            label = cur.expect("ident", what="block label").text
            cur.expect_done()
            return Goto(label)
        if head.text == "branch":
            cur.next()
            left = cur.expect("ident", what="block label").text
            right = cur.expect("ident", what="block label").text
            cur.expect_done()
            return Branch(left, right)
        if head.text == "return":
            cur.next()
            var = None
            tok = cur.accept("ident")
            if tok is not None:
                var = tok.text
            cur.expect_done()
            return Return(var)
        return None

    def _operand(self, cur: _Cursor, what: str) -> Operand:
        tok = cur.peek()
        if tok.kind == "string":
            cur.next()
            return Lit(tok.text)
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            cur.next()
            return Var(tok.text)
        raise cur.fail(f"expected {what} (variable or string literal)")

    def _var(self, cur: _Cursor, what: str = "variable name") -> str:
        tok = cur.peek()
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            cur.next()
            return tok.text
        raise cur.fail(f"expected {what}")

    def _parse_stmt(self, cur: _Cursor, line: Line) -> Stmt:
        synthetic = cur.accept("ident", "synthetic") is not None
        stmt = self._parse_stmt_inner(cur)
        cur.expect_done()
        stmt.synthetic = synthetic
        stmt.tag = line.tag
        return stmt

    def _parse_stmt_inner(self, cur: _Cursor) -> Stmt:
        head = cur.peek()
        if head.kind != "ident":
            raise cur.fail("expected a statement")

        if head.text == "sink":
            cur.next()
            name = cur.expect("string", what="sink name string").text
            var = self._var(cur)
            return SinkCall(sink=name, var=var)
        if head.text in ("set_target", "set_action", "set_category", "set_data_type"):
            cls = {
                "set_target": SetTarget,
                "set_action": SetAction,
                "set_category": SetCategory,
                "set_data_type": SetDataType,
            }[head.text]
            cur.next()
            intent = self._var(cur, "intent variable")
            value = self._operand(cur, "attribute value")
            return cls(intent=intent, value=value)
        if head.text == "put_extra":
            cur.next()
            intent = self._var(cur, "intent variable")
            key = self._operand(cur, "extra key")
            value = self._var(cur, "value variable")
            return PutExtra(intent=intent, key=key, value=value)
        if head.text == "set_result":
            cur.next()
            intent = self._var(cur, "intent variable")
            return SetResult(intent=intent)
        if head.text == "finish":
            cur.next()
            return Finish()
        if head.text == "icc":
            cur.next()
            kind = cur.expect("ident", what="icc kind").text
            if kind not in ICC_KINDS:
                raise cur.fail(f"unknown icc kind {kind!r}")
            intent = self._var(cur, "intent variable")
            return IccCall(kind=kind, intent=intent)
        if head.text == "call":
            return self._parse_call(cur, dst=None)

        # Assignment or field store: starts with a variable name.
        first = self._var(cur, "statement")
        if cur.accept("punct", "."):
            fld = self._var(cur, "field name")
            cur.expect("punct", "=", what="'='")
            src = self._var(cur, "value variable")
            return FieldStore(obj=first, fld=fld, src=src)
        cur.expect("punct", "=", what="'='")
        rhs = cur.peek()
        if rhs.kind == "string":
            cur.next()
            return Const(dst=first, value=rhs.text)
        if rhs.kind != "ident":
            raise cur.fail("expected an expression after '='")
        if rhs.text == "source":
            cur.next()
            name = cur.expect("string", what="source name string").text
            return SourceCall(dst=first, source=name)
        if rhs.text == "new_intent":
            cur.next()
            return NewIntent(dst=first)
        if rhs.text == "new_obj":
            cur.next()
            cls = cur.expect("string", what="class name string").text
            return NewObj(dst=first, cls=cls)
        if rhs.text == "get_intent":
            cur.next()
            return GetIntent(dst=first)
        if rhs.text == "get_extra":
            cur.next()
            intent = self._var(cur, "intent variable")
            key = self._operand(cur, "extra key")
            return GetExtra(dst=first, intent=intent, key=key)
        if rhs.text == "call":
            return self._parse_call(cur, dst=first)
        src = self._var(cur, "variable name")
        if cur.accept("punct", "."):
            fld = self._var(cur, "field name")
            return FieldLoad(dst=first, obj=src, fld=fld)
        return Assign(dst=first, src=src)

    def _parse_call(self, cur: _Cursor, dst: Optional[str]) -> Call:
        cur.expect("ident", "call")
        tok = cur.peek()
        cls: Optional[str] = None
        if tok.kind == "string":
            cur.next()
            cls = tok.text
            cur.expect("punct", ".", what="'.'")
            method = self._var(cur, "method name")
        else:
            name = self._var(cur, "method name")
            if cur.accept("punct", "."):
                cls = name
                method = self._var(cur, "method name")
            else:
                method = name
        cur.expect("punct", "(")
        args: list[str] = []
        if not cur.accept("punct", ")"):
            while True:
                args.append(self._var(cur, "argument variable"))
                if cur.accept("punct", ")"):
                    break
                cur.expect("punct", ",")
        return Call(dst=dst, cls=cls, method=method, args=tuple(args))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _quote(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{out}"'


def _fmt_operand(op: Operand) -> str:
    return _quote(op.text) if op.is_literal else op.text


def _fmt_callee(stmt: Call) -> str:
    if stmt.cls is None:
        return stmt.method
    if _IDENT_RE.fullmatch(stmt.cls):
        return f"{stmt.cls}.{stmt.method}"
    return f"{_quote(stmt.cls)}.{stmt.method}"


def _fmt_stmt(stmt: Stmt) -> str:
    if isinstance(stmt, Assign):
        body = f"{stmt.dst} = {stmt.src}"
    elif isinstance(stmt, Const):
        body = f"{stmt.dst} = {_quote(stmt.value)}"
    elif isinstance(stmt, SourceCall):
        body = f"{stmt.dst} = source {_quote(stmt.source)}"
    elif isinstance(stmt, SinkCall):
        body = f"sink {_quote(stmt.sink)} {stmt.var}"
    elif isinstance(stmt, NewIntent):
        body = f"{stmt.dst} = new_intent"
    elif isinstance(stmt, SetTarget):
        body = f"set_target {stmt.intent} {_fmt_operand(stmt.value)}"
    elif isinstance(stmt, SetAction):
        body = f"set_action {stmt.intent} {_fmt_operand(stmt.value)}"
    elif isinstance(stmt, SetCategory):
        body = f"set_category {stmt.intent} {_fmt_operand(stmt.value)}"
    elif isinstance(stmt, SetDataType):
        body = f"set_data_type {stmt.intent} {_fmt_operand(stmt.value)}"
    elif isinstance(stmt, PutExtra):
        body = f"put_extra {stmt.intent} {_fmt_operand(stmt.key)} {stmt.value}"
    elif isinstance(stmt, GetExtra):
        body = f"{stmt.dst} = get_extra {stmt.intent} {_fmt_operand(stmt.key)}"
    elif isinstance(stmt, GetIntent):
        body = f"{stmt.dst} = get_intent"
    elif isinstance(stmt, SetResult):
        body = f"set_result {stmt.intent}"
    elif isinstance(stmt, Finish):
        body = "finish"
    elif isinstance(stmt, IccCall):
        body = f"icc {stmt.kind} {stmt.intent}"
    elif isinstance(stmt, Call):
        args = ", ".join(stmt.args)
        call = f"call {_fmt_callee(stmt)}({args})"
        body = f"{stmt.dst} = {call}" if stmt.dst else call
    elif isinstance(stmt, FieldStore):
        body = f"{stmt.obj}.{stmt.fld} = {stmt.src}"
    elif isinstance(stmt, FieldLoad):
        body = f"{stmt.dst} = {stmt.obj}.{stmt.fld}"
    elif isinstance(stmt, NewObj):
        body = f"{stmt.dst} = new_obj {_quote(stmt.cls)}"
    else:  # pragma: no cover - exhaustive over statement kinds
        raise TypeError(f"unknown statement {stmt!r}")
    if stmt.synthetic:
        body = f"synthetic {body}"
    if stmt.tag:
        body = f"{body}  # @tag {stmt.tag}"
    return body


def _fmt_filter(flt: IntentFilter) -> str:
    parts = []
    for action in sorted(flt.actions):
        parts.append(f"action {_quote(action)};")
    for cat in sorted(flt.categories):
        parts.append(f"category {_quote(cat)};")
    for dt in sorted(flt.data_types):
        parts.append(f"data_type {_quote(dt)};")
    inner = " ".join(parts)
    return f"filter {{ {inner} }}" if inner else "filter { }"


def _fmt_method(method: Method, keyword: str, out: list[str], indent: str) -> None:
    prefix = "synthetic " if method.synthetic else ""
    params = ", ".join(method.params)
    out.append(f"{indent}{prefix}{keyword} {method.name}({params}) {{")
    body_indent = indent + "    "
    for block in method.blocks:
        out.append(f"{indent}  {block.label}:")
        for stmt in block.stmts:
            out.append(f"{body_indent}{_fmt_stmt(stmt)}")
        term = block.term
        if isinstance(term, Goto):
            out.append(f"{body_indent}goto {term.label}")
        elif isinstance(term, Branch):
            out.append(f"{body_indent}branch {term.left} {term.right}")
        elif isinstance(term, Return):
            out.append(
                f"{body_indent}return {term.var}" if term.var else f"{body_indent}return"
            )
    out.append(f"{indent}}}")


def serialize_app(app: AppModel) -> str:
    """Render a model to canonical `.cir` text that reparses equal.

    Note the canonical form is positional: a freshly parsed model serializes
    and reparses to identical statement ids. Models that were transformed
    in memory (instrumented) still serialize to valid text, but reparsing
    assigns new positional ids.
    """
    out: list[str] = [f"app {_quote(app.app_id)} {{"]
    for comp in app.components:
        prefix = "synthetic " if comp.synthetic else ""
        origin = ""
        if comp.origin_app and comp.origin_app != app.app_id:
            origin = f" from {_quote(comp.origin_app)}"
        if comp.kind is ComponentKind.CLASS:
            head = f"  {prefix}class {comp.name}{origin} {{"
        else:
            head = f"  {prefix}component {comp.kind.value} {comp.name}{origin} {{"
        out.append(head)
        for flt in comp.filters:
            out.append(f"    {_fmt_filter(flt)}")
        for slot in LIFECYCLE_SLOTS[comp.kind]:
            if slot in comp.lifecycle:
                _fmt_method(comp.lifecycle[slot], "method", out, "    ")
        for cb in comp.callbacks:
            _fmt_method(cb, "callback", out, "    ")
        for helper in comp.helpers:
            _fmt_method(helper, "method", out, "    ")
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Corpus loading
# ---------------------------------------------------------------------------


def load_app(path: str) -> ParseResult:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return ParseResult(None, [error(f"cannot read {path}: {exc.strerror}", path)])
    except UnicodeDecodeError:
        return ParseResult(None, [error(f"cannot read {path}: not UTF-8 text", path)])
    return parse_app(text, path)


def corpus_files(root: str) -> list[str]:
    """All `.cir` files under a directory (or the file itself), sorted."""
    if os.path.isfile(root):
        return [root]
    found: list[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".cir"):
                found.append(os.path.join(dirpath, name))
    return found


def load_corpus(paths: list[str]) -> tuple[list[AppModel], list[Diagnostic]]:
    """Parse every `.cir` file under the given paths (files or directories)."""
    apps: list[AppModel] = []
    diags: list[Diagnostic] = []
    for root in paths:
        files = corpus_files(root)
        if not files:
            diags.append(error(f"no .cir files under {root!r}", root))
        for file in files:
            result = load_app(file)
            diags.extend(result.diagnostics)
            if result.app is not None:
                apps.append(result.app)
    return apps, diags
