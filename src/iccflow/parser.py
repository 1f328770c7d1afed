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
    STMT_FORMS,
    STMT_KEYWORDS,
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
    Goto,
    ICC_KINDS,
    IntentFilter,
    LIFECYCLE_SLOTS,
    Lit,
    Method,
    Operand,
    Return,
    Stmt,
    StmtForm,
    StmtId,
    Var,
    error,
    validate,
)

_KEYWORDS = frozenset(
    """app component class synthetic from filter action category data_type
       method callback call goto branch return activity service receiver
       provider""".split()
) | STMT_FORMS.keys()

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TAG_RE = re.compile(r"@tag\s+([A-Za-z_][A-Za-z0-9_]*)")

# One group per token kind, named as ``Match.lastgroup`` reports it. A
# string literal with no closing quote ended at a bad escape or at the end
# of the line. Blanks match nothing, so ``finditer`` skips them.
_TOKEN_RE = re.compile(
    r'#(?P<comment>.*)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[{}()=:.,;])'
    r'|(?P<string>"(?P<body>(?:[^"\\]|\\[nt"\\])*)(?P<close>")?)|(?P<other>[^ \t\r])'
)
_ESCAPE_RE = re.compile(r"\\(.)")
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
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            col = m.start() + 1
            if kind == "string":
                if m.group("close") is None:
                    if m.end() < len(text):  # stopped at a backslash
                        self.diags.append(error("bad string escape", self.path, number, m.end() + 1))
                    else:
                        self.diags.append(error("unterminated string literal", self.path, number, col))
                    break
                value = m.group("body")
                if "\\" in value:
                    value = _ESCAPE_RE.sub(lambda e: _ESCAPES[e.group(1)], value)
                tokens.append(Token("string", value, col))
            elif kind == "other":
                self.diags.append(error(f"unexpected character {m.group(kind)!r}", self.path, number, col))
            elif kind == "comment":
                comment = m.group(kind)
                break
            else:
                tokens.append(Token(kind, m.group(kind), col))
        return Line(number, tokens, comment)


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
        if self.pos < len(self.line.tokens):
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
                params = self._names(cur, lambda: cur.expect("ident", what="parameter name").text)
                cur.expect("punct", "{")
                cur.expect_done()
            except ParseError as exc:
                self.diags.append(exc.diagnostic)
                self._skip_block()
                return
            method = Method(name=name, params=params, synthetic=synthetic)
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
        entries: dict[str, set[str]] = {"action": set(), "category": set(), "data_type": set()}
        while not cur.accept("punct", "}"):
            key = cur.expect("ident", what="'action', 'category' or 'data_type'")
            if key.text not in entries:
                raise cur.fail(f"unknown filter entry {key.text!r}")
            entries[key.text].add(cur.expect("string", what="filter value string").text)
            cur.accept("punct", ";")
        cur.expect_done()
        return IntentFilter(*(frozenset(values) for values in entries.values()))

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
        for block in method.blocks:
            for i, stmt in enumerate(block.stmts):
                stmt.sid = StmtId(
                    comp.origin_app, comp.name, method.name, block.label, i
                )

    def _try_terminator(self, cur: _Cursor):
        head = cur.peek()
        if head.kind != "ident" or head.text not in ("goto", "branch", "return"):
            return None
        cur.next()
        if head.text == "goto":
            term = Goto(cur.expect("ident", what="block label").text)
        elif head.text == "branch":
            left = cur.expect("ident", what="block label").text
            right = cur.expect("ident", what="block label").text
            term = Branch(left, right)
        else:
            var = None
            tok = cur.accept("ident")
            if tok is not None:
                var = tok.text
            term = Return(var)
        cur.expect_done()
        return term

    def _operand(self, cur: _Cursor, what: str) -> Operand:
        tok = cur.peek()
        if tok.kind == "string":
            cur.next()
            return Lit(tok.text)
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            cur.next()
            return Var(tok.text)
        raise cur.fail(f"expected {what} (variable or string literal)")

    def _var(self, cur: _Cursor, what: str) -> str:
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
        form = STMT_FORMS.get(head.text)
        if form is not None and not form.dst:
            cur.next()
            return form.cls(*self._fields(cur, form))
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
        form = STMT_FORMS.get(rhs.text)
        if form is not None and form.dst:
            cur.next()
            return form.cls(first, *self._fields(cur, form))
        if rhs.text == "call":
            return self._parse_call(cur, dst=first)
        src = self._var(cur, "variable name")
        if cur.accept("punct", "."):
            fld = self._var(cur, "field name")
            return FieldLoad(dst=first, obj=src, fld=fld)
        return Assign(dst=first, src=src)

    def _fields(self, cur: _Cursor, form: StmtForm) -> list:
        """The values of a table form's fields, in order."""
        values: list = []
        for _attr, kind, what in form.fields:
            if kind == "var":
                values.append(self._var(cur, what))
            elif kind == "op":
                values.append(self._operand(cur, what))
            else:
                tok = cur.expect("string" if kind == "str" else "ident", what=what)
                if kind == "kind" and tok.text not in ICC_KINDS:
                    raise cur.fail(f"unknown icc kind {tok.text!r}")
                values.append(tok.text)
        return values

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
        args = self._names(cur, lambda: self._var(cur, "argument variable"))
        return Call(dst=dst, cls=cls, method=method, args=args)

    @staticmethod
    def _names(cur: _Cursor, read) -> tuple[str, ...]:
        """A parenthesized, comma-separated list, each item read by ``read``."""
        cur.expect("punct", "(")
        names: list[str] = []
        if not cur.accept("punct", ")"):
            while True:
                names.append(read())
                if cur.accept("punct", ")"):
                    break
                cur.expect("punct", ",")
        return tuple(names)


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


_FMT_FIELD = {"var": str, "kind": str, "op": _fmt_operand, "str": _quote}


def _fmt_stmt(stmt: Stmt) -> str:
    keyword = STMT_KEYWORDS.get(type(stmt))
    if keyword is not None:
        form = STMT_FORMS[keyword]
        body = " ".join([keyword] + [_FMT_FIELD[k](getattr(stmt, a)) for a, k, _ in form.fields])
        if form.dst:
            body = f"{stmt.dst} = {body}"
    elif isinstance(stmt, Assign):
        body = f"{stmt.dst} = {stmt.src}"
    elif isinstance(stmt, Const):
        body = f"{stmt.dst} = {_quote(stmt.value)}"
    elif isinstance(stmt, Call):
        args = ", ".join(stmt.args)
        call = f"call {_fmt_callee(stmt)}({args})"
        body = f"{stmt.dst} = {call}" if stmt.dst else call
    elif isinstance(stmt, FieldStore):
        body = f"{stmt.obj}.{stmt.fld} = {stmt.src}"
    elif isinstance(stmt, FieldLoad):
        body = f"{stmt.dst} = {stmt.obj}.{stmt.fld}"
    else:  # pragma: no cover - exhaustive over statement kinds
        raise TypeError(f"unknown statement {stmt!r}")
    if stmt.synthetic:
        body = f"synthetic {body}"
    if stmt.tag:
        body = f"{body}  # @tag {stmt.tag}"
    return body


def _fmt_filter(flt: IntentFilter) -> str:
    entries = (("action", flt.actions), ("category", flt.categories), ("data_type", flt.data_types))
    parts = [f"{key} {_quote(value)};" for key, values in entries for value in sorted(values)]
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
    """Parse each `.cir` file under the given paths (files or directories)
    once, in sorted order. A path with none under it, two apps with one id
    (only the first is kept), or two apps declaring one class (the same name
    of the same origin app), are errors.
    """
    found: dict[str, bool] = {}  # file, or path with no file under it
    for root in paths:
        files = corpus_files(root)
        found.update(dict.fromkeys(files, True) if files else {root: False})
    apps: list[AppModel] = []
    diags: list[Diagnostic] = []
    for file in sorted(found):
        if not found[file]:
            diags.append(error(f"no .cir files under {file!r}", file))
        else:
            result = load_app(file)
            diags.extend(result.diagnostics)
            if result.app is not None:
                apps.append(result.app)
    seen: dict[str, str] = {}
    owner: dict[str, str] = {}  # qualified class name -> the app declaring it
    unique: list[AppModel] = []
    for app in apps:
        if app.app_id in seen:
            diags.append(
                error(
                    f"duplicate app id {app.app_id!r} "
                    f"(already defined in {seen[app.app_id]})",
                    app.source_path,
                )
            )
            continue
        seen[app.app_id] = app.source_path or "<input>"
        unique.append(app)
        for comp in app.components:
            first = owner.setdefault(comp.qualified_name, app.app_id)
            if first != app.app_id:
                msg = f"class {comp.qualified_name!r} declared by apps {first!r} and {app.app_id!r}"
                diags.append(error(msg, app.source_path))
    return unique, diags
