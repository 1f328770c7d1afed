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
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

from .ir import (
    STMT_FORMS,
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


def _intent_filter(entries) -> IntentFilter:
    """The filter of ``(key, value)`` entries; a key is action, category or data_type."""
    values: dict[str, set[str]] = {"action": set(), "category": set(), "data_type": set()}
    for key, value in entries:
        values[key].add(value)
    return IntentFilter(*(frozenset(v) for v in values.values()))


def _unquote(literal: str) -> str:
    """The value of a closed string literal."""
    body = literal[1:-1]
    return _ESCAPE_RE.sub(lambda e: _ESCAPES[e.group(1)], body) if "\\" in body else body


def _quote(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{out}"'


def _fmt_operand(op: Operand) -> str:
    return _quote(op.text) if op.is_literal else op.text


def _tag(comment: Optional[str]) -> Optional[str]:
    m = _TAG_RE.search(comment) if comment else None
    return m.group(1) if m else None


@dataclass
class Token:
    kind: str  # "ident" | "string" | "punct" | "end"
    text: str
    col: int


class Line(NamedTuple):
    """A line that holds tokens: its kind and value, as the fast path or a
    token reader read them, or (``kind`` "") its tokens and comment."""

    kind: str
    value: object
    number: int
    text: str
    tokens: Sequence[Token] = ()
    comment: str = ""


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
                tokens.append(Token("string", _unquote(m.group(kind)), col))
            elif kind == "other":
                self.diags.append(error(f"unexpected character {m.group(kind)!r}", self.path, number, col))
            elif kind == "comment":
                comment = m.group(kind)
                break
            else:
                tokens.append(Token(kind, m.group(kind), col))
        return Line("", None, number, text, tokens, comment)


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


# ---------------------------------------------------------------------------
# Fast path
# ---------------------------------------------------------------------------
#
# ``_read_line`` reads a line in two matches. ``_HEAD`` takes the blanks, a
# ``synthetic`` prefix and a ``dst =``, and looks ahead to the word (or
# character) that picks the form: the word after ``=``, else the first. The
# form's anchored pattern reads the rest, and its groups build the
# statement, terminator, label or header. The patterns match only text the
# lexer reads without error. A line they do not match, or that uses a
# keyword as a name or ``synthetic`` where the token parser rejects it, is
# declined and parsed from tokens, which emit every diagnostic.

_B = r"[ \t\r]*+"  # the blanks the lexer skips
_NAME = r"[A-Za-z_][A-Za-z0-9_]*+"  # possessive, so two names need a blank between them
_STR = r'"[^"\\]*+(?:\\[nt"\\][^"\\]*+)*+"'
_LIST = rf"\({_B}((?:{_NAME}{_B}(?:,{_B}{_NAME}{_B})*+)?)\)"  # names in parentheses
# ``synthetic`` is a prefix only before a word; the final lookahead always
# matches, and gives "" on a blank line.
_HEAD = re.compile(
    rf"{_B}(?:(synthetic)[ \t\r]++(?=[A-Za-z_]))?(?:({_NAME}){_B}={_B})?(?=({_NAME}|[\"}}]|))"
)
_ENTRY_RE = re.compile(rf"(action|category|data_type){_B}({_STR})")
_FIELD_RE = {"var": _NAME, "op": f"{_NAME}|{_STR}", "str": _STR,
             "kind": f"(?:{'|'.join(ICC_KINDS)})(?![A-Za-z0-9_])"}
_FIELD_READ = {"str": _unquote, "op": lambda text: Lit(_unquote(text)) if text[0] == '"' else Var(text)}
_FIELD_SHOW = {"var": "{s.%s}", "kind": "{s.%s}", "str": "{_quote(s.%s)}", "op": "{_fmt_operand(s.%s)}"}
_SYNTHETIC = frozenset({"stmt", "method", "callback", "class"})  # may follow ``synthetic``


def _printer(text: str) -> Callable[[Stmt], str]:
    """The printer of a statement form: ``text`` as an f-string over the
    statement ``s``, compiled once, as ``dataclasses`` compiles methods."""
    return eval(f"lambda s: f{text!r}", {"_quote": _quote, "_fmt_operand": _fmt_operand})


def _fmt_call(s: Call) -> str:
    callee = s.method
    if s.cls is not None:
        callee = f"{s.cls if _IDENT_RE.fullmatch(s.cls) else _quote(s.cls)}.{s.method}"
    call = f"call {callee}({', '.join(s.args)})"
    return f"{s.dst} = {call}" if s.dst else call


#: How each statement is printed, by its class.
_PRINTERS: dict[type, Callable[[Stmt], str]] = {
    Assign: _printer("{s.dst} = {s.src}"),
    Const: _printer("{s.dst} = {_quote(s.value)}"),
    FieldStore: _printer("{s.obj}.{s.fld} = {s.src}"),
    FieldLoad: _printer("{s.dst} = {s.obj}.{s.fld}"),
    Call: _fmt_call,
}


def _table_form(keyword: str, form: StmtForm):
    """A table form's pattern (from its keyword on; forms with alike fields
    share it) and builder; records its printer."""
    reads = [(i, _FIELD_READ[kind]) for i, (_, kind, _) in enumerate(form.fields) if kind in _FIELD_READ]
    words = ["{s.dst} =" if form.dst else "", keyword, *(_FIELD_SHOW[kind] % attr for attr, kind, _ in form.fields)]
    _PRINTERS[form.cls] = _printer(" ".join(words).lstrip())

    def build(dst, *texts):
        values = list(texts)
        for i, read in reads:
            values[i] = read(values[i])
        return "stmt", form.cls(dst, *values) if dst else form.cls(*values)

    return _B.join([_NAME] + [f"({_FIELD_RE[kind]})" for _, kind, _ in form.fields]), build


def _call(dst, quoted, cls, method, args):
    args = tuple(_IDENT_RE.findall(args))
    cls = _unquote(quoted) if quoted else cls
    return ("stmt", Call(dst=dst, cls=cls, method=method, args=args)) if _KEYWORDS.isdisjoint(args) else None


def _class(_, kind, name, origin):
    """A class header; its origin app stays None unless written."""
    kind = ComponentKind(kind or "class")
    return "class", Component(name=name, kind=kind, origin_app=origin and _unquote(origin))


_CALL = (rf"call{_B}(?:(?:({_STR})|({_NAME})){_B}\.{_B})?({_NAME}){_B}{_LIST}", _call)
_CLASS = (rf"(?:class|component{_B}(activity|service|receiver|provider)(?![A-Za-z0-9_]))"
          rf"{_B}({_NAME})(?:{_B}from{_B}({_STR}))?{_B}\{{", _class)
_METHOD = (rf"(method|callback){_B}({_NAME}){_B}{_LIST}{_B}\{{",
           lambda _, keyword, name, params: (keyword, Method(name, tuple(_IDENT_RE.findall(params)))))


def _compiled(forms: dict) -> dict:
    """``forms`` with each pattern compiled; the comment is its last group."""
    return {key: (re.compile(rf"{pattern}{_B}(?:#(.*))?"), build) for key, (pattern, build) in forms.items()}


#: Each form's pattern and builder, looked up by the word after ``dst =``,
#: else by the first word ("" on a blank line); None stands for a name that
#: is not listed, which starts a copy or a load after ``=``, else a field
#: store or a label.
_AFTER_EQ = _compiled({kw: _table_form(kw, form) for kw, form in STMT_FORMS.items() if form.dst} | {
    "call": _CALL,
    '"': (f"({_STR})", lambda dst, text: ("stmt", Const(dst=dst, value=_unquote(text)))),
    None: (rf"({_NAME})(?:{_B}\.{_B}({_NAME}))?", lambda dst, src, fld: (
        "stmt", Assign(dst=dst, src=src) if fld is None else FieldLoad(dst=dst, obj=src, fld=fld))),
})
_LEADING = _compiled({kw: _table_form(kw, form) for kw, form in STMT_FORMS.items() if not form.dst} | {
    "call": _CALL,
    "goto": (rf"goto{_B}({_NAME})", lambda _, label: ("term", Goto(label))),
    "branch": (rf"branch{_B}({_NAME}){_B}({_NAME})", lambda _, left, right: ("term", Branch(left, right))),
    "return": (rf"return(?:{_B}({_NAME}))?", lambda _, var: ("term", Return(var))),
    "method": _METHOD,
    "callback": _METHOD,
    "filter": (rf"filter{_B}\{{((?:{_B}(?:action|category|data_type){_B}{_STR}{_B};?)*+){_B}\}}",
               lambda _, body: ("filter", _intent_filter(
                   (key, _unquote(value)) for key, value in _ENTRY_RE.findall(body)))),
    "class": _CLASS,
    "component": _CLASS,
    "app": (rf"app{_B}({_STR}){_B}\{{", lambda _, name: ("app", _unquote(name))),
    "}": (r"\}", lambda _: ("}", None)),
    "": ("", lambda _: ("", None)),
    None: (rf"({_NAME}){_B}(?:(:)|\.{_B}({_NAME}){_B}={_B}({_NAME}))", lambda _, name, colon, fld, src: (
        ("label", name) if colon else ("stmt", FieldStore(obj=name, fld=fld, src=src)))),
})


def _read_line(text: str) -> Optional[tuple[str, object]]:
    """The fast path: ``(kind, value)`` read from one line, or None to leave
    the line to the token path. ``kind`` is "stmt", "term", "label", "}",
    "method", "callback", "filter", "class", "app", or "" for a blank line."""
    head = _HEAD.match(text)
    syn, dst, key = head.groups()
    forms = _AFTER_EQ if dst else _LEADING
    pattern, build = forms.get(key) or forms[None]
    m = pattern.fullmatch(text, head.end())
    if m is None or dst in _KEYWORDS:
        return None
    *groups, comment = m.groups()
    read = build(dst, *groups)
    if read is None:
        return None
    kind, value = read
    if kind in ("stmt", "label") and not _KEYWORDS.isdisjoint(groups):
        return None  # a keyword as a name; strings start with '"', and no ICC kind is a keyword
    if kind == "stmt" and comment:
        value.tag = _tag(comment)
    if syn:
        if kind not in _SYNTHETIC:
            return None
        value.synthetic = True
    return read


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
        self.lexer = _LineLexer(path)
        self.diags = self.lexer.diags
        self.lines: list[Line] = []  # the lines that hold tokens
        for idx, raw in enumerate(text.splitlines(), start=1):
            read = _read_line(raw)
            if read is None:
                line = self.lexer.lex(raw, idx)
                if line.tokens:
                    self.lines.append(line)
            elif read[0]:  # not a blank or comment-only line
                self.lines.append(Line(*read, idx, raw))
        self.idx = 0

    # -- line stream ------------------------------------------------------

    def _next_line(self) -> Optional[Line]:
        if self.idx == len(self.lines):
            return None
        line = self.lines[self.idx]
        self.idx += 1
        return line

    def _read(self, reader: Callable[[_Cursor], tuple[str, object]], *kinds: str) -> Optional[Line]:
        """The next line with its ``(kind, value)``, or None at the end.

        A line the fast path read as one of ``kinds`` comes as it read it.
        Any other is lexed (the fast path's lines lex clean, and the lines it
        declined were lexed up front). A line holding only a brace then reads
        as "}" where ``kinds`` take it, and any other line as ``reader``
        reads its tokens; a ``ParseError`` becomes a diagnostic and kind "".
        """
        line = self._next_line()
        if line is None or line.kind in kinds:
            return line
        if line.kind:
            line = self.lexer.lex(line.text, line.number)
        if "}" in kinds and [(tok.kind, tok.text) for tok in line.tokens] == [("punct", "}")]:
            return line._replace(kind="}")
        try:
            kind, value = reader(_Cursor(line, self.path))
        except ParseError as exc:
            self.diags.append(exc.diagnostic)
            kind, value = "", None
        return line._replace(kind=kind, value=value)

    def _err(self, message: str, line: Optional[Line]) -> None:
        number = line.number if line else 0
        self.diags.append(error(message, self.path, number, 1))

    def _skip_block(self) -> None:
        """Skip lines until the currently open brace is balanced. The braces
        are counted by a lexer whose diagnostics are dropped: each line was
        lexed up front or lexes clean."""
        depth = 1
        while depth > 0:
            line = self._next_line()
            if line is None:
                return
            for tok in _LineLexer(self.path).lex(line.text, line.number).tokens:
                if tok.kind == "punct" and tok.text == "{":
                    depth += 1
                elif tok.kind == "punct" and tok.text == "}":
                    depth -= 1

    # -- grammar ----------------------------------------------------------

    def parse(self) -> Optional[AppModel]:
        line = self._read(self._app_header, "app")
        if line is None:
            self._err("empty input: expected 'app \"name\" {'", None)
            return None
        if line.kind != "app":
            return None
        app = AppModel(app_id=line.value, source_path=self.path)

        while True:
            line = self._read(self._class_header, "}", "class")
            if line is None:
                self._err("unexpected end of input: unclosed 'app' block", None)
                return app
            if line.kind == "}":
                break
            if line.kind == "class":
                app.components.append(self._parse_class(line, app.app_id))

        extra = self._next_line()
        if extra is not None:
            self._err("content after closing '}' of app block", extra)
        return app

    def _app_header(self, cur: _Cursor) -> tuple[str, object]:
        cur.expect("ident", "app")
        name = cur.expect("string", what="app name string").text
        cur.expect("punct", "{")
        cur.expect_done()
        return "app", name

    def _class_header(self, cur: _Cursor) -> tuple[str, object]:
        """A class header; a bad one skips its block."""
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
            origin = None
            if cur.accept("ident", "from"):
                origin = cur.expect("string", what="origin app string").text
            cur.expect("punct", "{")
            cur.expect_done()
        except ParseError:
            self._skip_block()
            raise
        return "class", Component(name=name, kind=kind, synthetic=synthetic, origin_app=origin)

    def _parse_class(self, line: Line, app_id: str) -> Component:
        comp = line.value
        if comp.origin_app is None:
            comp.origin_app = app_id
        while True:
            member = self._read(self._member, "}", "method", "callback", "filter")
            if member is None:
                self._err(f"unclosed block for {comp.name!r}", line)
                return comp
            if member.kind == "}":
                return comp
            if member.kind == "filter":
                comp.filters.append(member.value)
            elif member.kind in ("method", "callback"):
                method = member.value
                self._parse_body(method, comp)
                if member.kind == "callback":
                    comp.callbacks.append(method)
                elif method.name in LIFECYCLE_SLOTS[comp.kind]:
                    comp.lifecycle[method.name] = method
                else:
                    comp.helpers.append(method)

    def _member(self, cur: _Cursor) -> tuple[str, object]:
        """A filter, or a method or callback header; a bad header skips its
        block."""
        synthetic = cur.accept("ident", "synthetic") is not None
        head = cur.peek()
        if head.kind == "ident" and head.text == "filter":
            if synthetic:
                raise cur.fail("a filter cannot be synthetic")
            cur.next()
            cur.expect("punct", "{")
            entries: list[tuple[str, str]] = []
            while not cur.accept("punct", "}"):
                key = cur.expect("ident", what="'action', 'category' or 'data_type'")
                if key.text not in ("action", "category", "data_type"):
                    raise cur.fail(f"unknown filter entry {key.text!r}")
                entries.append((key.text, cur.expect("string", what="filter value string").text))
                cur.accept("punct", ";")
            cur.expect_done()
            return "filter", _intent_filter(entries)
        if head.kind != "ident" or head.text not in ("method", "callback"):
            shown = head.text if head.kind != "end" else "end of line"
            message = f"expected 'filter', 'method' or 'callback', got {shown!r}"
            raise ParseError(error(message, self.path, cur.line.number, 1))
        keyword = cur.next().text
        try:
            name = cur.expect("ident", what="method name").text
            params = self._names(cur, lambda: cur.expect("ident", what="parameter name").text)
            cur.expect("punct", "{")
            cur.expect_done()
        except ParseError:
            self._skip_block()
            raise
        return keyword, Method(name=name, params=params, synthetic=synthetic)

    # -- method bodies ------------------------------------------------------

    def _parse_body(self, method: Method, comp: Component) -> None:
        blocks: list[Block] = []
        current: Optional[Block] = None
        terminated = False
        after_terminator = partial(self._body_line, terminated=True)

        while True:
            if terminated:
                line = self._read(after_terminator, "}", "label")
            else:
                line = self._read(self._body_line, "}", "label", "stmt", "term")
            if line is None:
                self._err(f"unclosed body of {comp.name}.{method.name}", None)
                break
            if line.kind == "}":
                break
            if line.kind == "label":
                if current is not None:
                    blocks.append(current)
                current, terminated = Block(label=line.value), False
                continue
            if current is None:
                current = Block(label="b0")
            if line.kind == "stmt":
                current.stmts.append(line.value)
            elif line.kind == "term":
                current.term, terminated = line.value, True
        if current is not None:
            blocks.append(current)
        if not blocks:
            blocks.append(Block(label="b0", term=Return()))
        method.blocks = blocks
        for block in method.blocks:
            for i, stmt in enumerate(block.stmts):
                stmt.sid = StmtId(
                    comp.origin_app, comp.name, method.name, block.label, i
                )

    def _body_line(self, cur: _Cursor, terminated: bool = False) -> tuple[str, object]:
        """A label, a terminator or a statement; after a terminator, only a
        label."""
        label = cur.accept("ident")
        if label and label.text not in _KEYWORDS and cur.accept("punct", ":") and cur.peek().kind == "end":
            return "label", label.text
        cur.pos = 0
        if terminated:
            raise cur.fail("statement after terminator needs a block label")
        if cur.accept("ident", "goto"):
            term = Goto(cur.expect("ident", what="block label").text)
        elif cur.accept("ident", "branch"):
            left = cur.expect("ident", what="block label").text
            right = cur.expect("ident", what="block label").text
            term = Branch(left, right)
        elif cur.accept("ident", "return"):
            var = cur.accept("ident")
            term = Return(var.text if var else None)
        else:
            return "stmt", self._parse_stmt(cur)
        cur.expect_done()
        return "term", term

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

    def _parse_stmt(self, cur: _Cursor) -> Stmt:
        synthetic = cur.accept("ident", "synthetic") is not None
        stmt = self._parse_stmt_inner(cur)
        cur.expect_done()
        stmt.synthetic = synthetic
        stmt.tag = _tag(cur.line.comment)
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


def _fmt_stmt(stmt: Stmt) -> str:
    body = _PRINTERS[type(stmt)](stmt)
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
