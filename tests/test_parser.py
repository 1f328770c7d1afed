import hashlib
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import progen
from iccflow import parser
from iccflow.ir import ICC_KINDS, STMT_FORMS
from iccflow.parser import corpus_files, load_app, load_corpus, parse_app, serialize_app

GOOD = """
# top comment
app "Demo" {
  component activity Main {
    filter { action "MAIN"; category "LAUNCHER"; }
    method onCreate(this) {
      id = source "getDeviceId"  # @tag the_source
      i = new_intent
      set_target i "Second"
      put_extra i "k" id
      icc start_activity i
    }
    callback onClick(this) {
      v = "lit"
      sink "writeLog" v
    }
    method helperThing(x) {
      return x
    }
  }
  component activity Second {
    method onCreate(this) {
      g = get_intent
      d = get_extra g "k"
      sink "sendTextMessage" d  # @tag the_sink
    }
  }
  class Util {
    method pass(x) {
      return x
    }
  }
}
"""


def test_parse_classifies_methods():
    r = parse_app(GOOD)
    assert r.ok
    main = r.app.component("Main")
    assert set(main.lifecycle) == {"onCreate"}
    assert [cb.name for cb in main.callbacks] == ["onClick"]
    assert [h.name for h in main.helpers] == ["helperThing"]
    util = r.app.component("Util")
    assert util.kind.value == "class"


def test_parse_captures_tags():
    r = parse_app(GOOD)
    tags = {s.tag for _, _, _, s in r.app.iter_stmts() if s.tag}
    assert tags == {"the_source", "the_sink"}


def test_parse_filter_fields():
    r = parse_app(GOOD)
    (flt,) = r.app.component("Main").filters
    assert flt.actions == {"MAIN"}
    assert flt.categories == {"LAUNCHER"}
    assert flt.data_types == frozenset()


def test_serialize_parse_round_trip():
    first = parse_app(GOOD)
    assert first.ok
    text = serialize_app(first.app)
    second = parse_app(text)
    assert second.ok
    assert serialize_app(second.app) == text
    assert second.app == first.app


def test_round_trip_of_shipped_corpus(corpus_root):
    paths = corpus_files(str(corpus_root))
    assert paths, "corpus should not be empty"
    for path in paths:
        r = load_app(path)
        assert r.ok, (path, [str(d) for d in r.diagnostics])
        again = parse_app(serialize_app(r.app), path=path)
        assert again.ok
        assert serialize_app(again.app) == serialize_app(r.app)


# One canonical line per STMT_FORMS entry, with every field kind and escape.
FORM_LINES = {
    "sink": 'sink "say \\"hi\\"\\n\\t\\\\" v',
    "set_target": 'set_target i "Other"',
    "set_action": "set_action i v",
    "set_category": 'set_category i "C"',
    "set_data_type": 'set_data_type i "text/plain"',
    "put_extra": 'put_extra i "k" v',
    "set_result": "set_result i",
    "finish": "finish",
    "icc": "icc start_activity_for_result i",
    "source": 'w = source "getDeviceId"',
    "new_intent": "j = new_intent",
    "new_obj": 'o = new_obj "Util"',
    "get_intent": "g = get_intent",
    "get_extra": "e = get_extra g k",
}


def test_every_statement_form_round_trips():
    assert FORM_LINES.keys() == STMT_FORMS.keys()
    body = "".join(f"        {line}\n" for line in FORM_LINES.values())
    text = (
        'app "A" {\n  component activity Main {\n    method onCreate(this, i, v, k) {\n'
        f"      b0:\n{body}    }}\n  }}\n}}\n"
    )
    first = parse_app(text)
    assert first.ok, [str(d) for d in first.diagnostics]
    stmts = first.app.component("Main").lifecycle["onCreate"].entry.stmts
    assert [type(s) for s in stmts] == [form.cls for form in STMT_FORMS.values()]
    assert serialize_app(first.app) == text
    assert parse_app(serialize_app(first.app)).app == first.app


def test_load_corpus_reports_errors_with_positions(tmp_path):
    bad = tmp_path / "bad.cir"
    bad.write_text('app "X" {\n  component activity A {\n    method onCreate(this) {\n      zap qux\n    }\n  }\n}\n')
    apps, diags = load_corpus([str(bad)])
    assert apps == []
    assert any(d.severity == "error" and d.line == 4 for d in diags)


def test_load_corpus_loads_each_file_once_in_sorted_order(tmp_path):
    (tmp_path / "z").mkdir()
    (tmp_path / "empty").mkdir()
    (tmp_path / "z" / "a.cir").write_text('app "ZA" {\n}\n')
    (tmp_path / "b.cir").write_text('app "B" {\n}\n')
    paths = [tmp_path / "missing", tmp_path / "b.cir", tmp_path, tmp_path / "empty"]
    apps, diags = load_corpus([str(p) for p in paths])
    assert [a.app_id for a in apps] == ["B", "ZA"]
    empty = [str(tmp_path / "empty"), str(tmp_path / "missing")]
    assert [(d.file, d.message) for d in diags] == [(p, f"no .cir files under {p!r}") for p in empty]


def test_unterminated_app_is_an_error():
    r = parse_app('app "X" {\n  component activity A {\n')
    assert not r.ok


def test_statement_after_terminator_needs_label():
    r = parse_app(
        """
app "X" {
  component activity A {
    method onCreate(this) {
      goto out
      finish
    out:
      return
    }
  }
}
"""
    )
    assert not r.ok
    assert any("terminator" in d.message for d in r.diagnostics)


def test_old_style_component_keyword_is_required():
    r = parse_app('app "X" {\n  activity A {\n  }\n}\n')
    assert not r.ok


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_programs_round_trip(seed):
    for text in progen.gen_corpus(seed):
        r = parse_app(text)
        assert r.ok, [str(d) for d in r.diagnostics]
        dumped = serialize_app(r.app)
        r2 = parse_app(dumped)
        assert r2.ok
        assert serialize_app(r2.app) == dumped


@settings(max_examples=80, deadline=None)
@given(st.text(max_size=400))
def test_fuzzed_input_never_crashes(text):
    r = parse_app(text)
    # any outcome is fine as long as it is a ParseResult, not an exception
    assert isinstance(r.ok, bool)
    for d in r.diagnostics:
        assert d.severity in ("error", "warning")


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=5_000), st.data())
def test_line_mutations_never_crash(seed, data):
    texts = progen.gen_corpus(seed)
    lines = texts[0].splitlines()
    i = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    mutation = data.draw(
        st.sampled_from(["", "}", "{", "garbage here", 'icc bogus_kind i', "x ="])
    )
    lines[i] = mutation
    r = parse_app("\n".join(lines))
    assert isinstance(r.ok, bool)


def test_corpus_files_finds_cir_recursively(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.cir").write_text('app "A" {\n}\n')
    (tmp_path / "sub" / "b.cir").write_text('app "B" {\n}\n')
    (tmp_path / "noise.txt").write_text("not a model")
    found = corpus_files(str(tmp_path))
    names = [Path(p).name for p in found]
    assert names == sorted(names)
    assert set(names) == {"a.cir", "b.cir"}


GOLDEN = Path(__file__).parent / "golden" / "parse_mutations.txt"

# The head of every diagnostic the lexer and the statement parser can emit.
PARSER_DIAGNOSTICS = (
    "unexpected character", "bad string escape", "unterminated string literal",
    "expected a statement", "expected statement", "expected '='",
    "expected an expression after '='", "expected variable name",
    "expected field name", "expected value variable", "expected intent variable",
    "expected attribute value (variable or string literal)",
    "expected extra key (variable or string literal)", "expected sink name string",
    "expected source name string", "expected class name string",
    "expected icc kind", "unknown icc kind", "expected '.'", "expected method name",
    "expected (", "expected argument variable", "expected ,",
    "trailing tokens on line", "statement after terminator needs a block label",
    "expected block label",
)


def mutation_inputs(repo: Path) -> list[str]:
    """300 seeded line mutations of the shipped corpus and progen seeds 0-9."""
    texts = [Path(p).read_text(encoding="utf-8") for p in corpus_files(str(repo / "corpus"))]
    texts += [text for seed in range(10) for text in progen.gen_corpus(seed)]
    return progen.line_mutations(texts, 300, seed=12)


def parse_dump(texts: list[str]) -> str:
    """Each input's diagnostics and a digest of its serialized model.

    Regenerate the golden file with
    ``PYTHONPATH=src:tests python -c "import test_parser as t; from pathlib import Path;
    print(t.parse_dump(t.mutation_inputs(Path('.'))), end='')" > tests/golden/parse_mutations.txt``.
    """
    out = []
    for n, text in enumerate(texts):
        r = parse_app(text)
        digest = hashlib.sha256(serialize_app(r.app).encode()).hexdigest()[:16] if r.ok else "-"
        out.append(f"input {n} model {digest}")
        out += [f"  {d.line}:{d.column} {d.severity}: {d.message}" for d in r.diagnostics]
    return "\n".join(out) + "\n"


def test_parse_of_line_mutations_matches_golden(repo_root):
    assert parse_dump(mutation_inputs(repo_root)) == GOLDEN.read_text(encoding="utf-8")


def test_golden_mutations_cover_every_parser_diagnostic():
    messages = [line.split(": ", 1)[1] for line in GOLDEN.read_text().splitlines()
                if line.startswith("  ")]
    assert [h for h in PARSER_DIAGNOSTICS if not any(m.startswith(h) for m in messages)] == []


# The diagnostics of the app, class and body structure, which line mutations
# rarely produce: (line, column, message) of each, in order.
@pytest.mark.parametrize("text, diags", [
    ("", [(0, 1, "empty input: expected 'app \"name\" {'")]),
    ("# nothing\n\n", [(0, 1, "empty input: expected 'app \"name\" {'")]),
    ("app X {\n}\n", [(1, 5, "expected app name string, got 'X'")]),
    ("}\n", [(1, 1, "expected app, got '}'")]),
    ('app "A" {\n  class C {\n', [
        (2, 1, "unclosed block for 'C'"), (0, 1, "unexpected end of input: unclosed 'app' block")]),
    ('app "A" {\n  class C {\n    method m() {\n      x = "a"\n', [
        (0, 1, "unclosed body of C.m"), (2, 1, "unclosed block for 'C'"),
        (0, 1, "unexpected end of input: unclosed 'app' block")]),
    ('app "A" {\n  component class X {\n    method m() {\n    }\n  }\n  class Y {\n  }\n}\n',
     [(2, 19, "use 'class Name' for plain classes")]),
    ('app "A" {\n  class X from Y {\n  }\n}\n', [(2, 16, "expected origin app string, got 'Y'")]),
    ('app "A" {\n  class C {\n    synthetic\n  }\n}\n',
     [(3, 1, "expected 'filter', 'method' or 'callback', got 'end of line'")]),
])
def test_structural_diagnostics(text, diags):
    assert [(line, col, msg) for line, col, _, msg in _raw_parse(text)[1]] == diags


def test_bad_headers_skip_their_block_and_a_bad_filter_skips_nothing():
    text = """app "A" {
  component widget W {
    method m() {
    }
  }
  class C {
    method bad(,) {
      x = "a"
    }
    filter { sink "a"; }
    method good() {
    }
  }
}
"""
    app, diags = _raw_parse(text)
    assert [(line, col, msg) for line, col, _, msg in diags] == [
        (2, 20, "unknown component kind 'widget'"),
        (7, 16, "expected parameter name, got ','"),
        (10, 19, "unknown filter entry 'sink'"),
    ]
    assert [(c.name, [m.name for m in c.methods()], c.filters) for c in app.components] == [("C", ["good"], [])]


# -- the fast path -------------------------------------------------------------

def _raw_parse(text: str):
    """The parser's model before validation, and its diagnostics."""
    p = parser._Parser(text, "a.cir")
    return p.parse(), [(d.line, d.column, d.severity, d.message) for d in p.diags]


def _token_parse(text: str):
    """``_raw_parse`` with every line left to the token path."""
    with mock.patch.object(parser, "_read_line", lambda line: None):
        return _raw_parse(text)


# Where a line can stand: in a method body, in one after a terminator, among
# a class's members, among an app's classes, and first.
PLACES = (
    'app "A" {{\n  component activity Main {{\n    method onCreate(this) {{\n{}\n'
    "      return\n    }}\n  }}\n}}\n",
    'app "A" {{\n  component activity Main {{\n    method onCreate(this) {{\n      return\n{}\n'
    "    }}\n  }}\n}}\n",
    'app "A" {{\n  component activity Main {{\n{}\n  }}\n}}\n',
    'app "A" {{\n{}\n}}\n',
    "{}\n}}\n",
)

# Plain names weigh most; the rest are keywords, near-keywords and ICC kinds.
_NAMES = ["x", "a1", "_T", "v"] * 3 + ["sink", "call", "goto", "synthetic", "from", "class",
                                       "app", "return", "method", "action", "sinkx",
                                       "start_activity", "activity"]


@st.composite
def _string(draw):
    parts = draw(st.lists(st.sampled_from(["a", " ", "#", "{", "/", '\\"', "\\\\", "\\n",
                                           "\\t", "\\q", '"']), max_size=4))
    return '"' + "".join(parts) + '"' if draw(st.integers(0, 9)) else '"' + "".join(parts)


@st.composite
def _form_atoms(draw):
    """The words of one line of some form, before blanks are put between them."""
    name = st.sampled_from(_NAMES)
    operand = st.one_of(name, _string())
    names = st.lists(name, max_size=3).map(lambda ns: [a for n in ns for a in (n, ",")][:-1])
    kind = draw(st.sampled_from(["table", "call", "copy", "load", "const", "store", "label",
                                 "goto", "branch", "return", "close", "method", "filter",
                                 "class", "component", "app"]))
    if kind == "table":
        keyword = draw(st.sampled_from(sorted(STMT_FORMS)))
        form = STMT_FORMS[keyword]
        field = {"var": name, "op": operand, "str": _string(),
                 "kind": st.sampled_from(sorted(ICC_KINDS) + ["bogus", "sink"])}
        atoms = [keyword] + [draw(field[k]) for _, k, _ in form.fields]
        return [draw(name), "="] + atoms if form.dst else atoms
    if kind == "call":
        callee = draw(st.sampled_from([[], ["A", "."], ["sink", "."]]) | _string().map(lambda s: [s, "."]))
        atoms = ["call", *callee, draw(name), "(", *draw(names), ")"]
        return [draw(name), "="] + atoms if draw(st.booleans()) else atoms
    rest = {
        "copy": lambda: [draw(name), "=", draw(name)],
        "load": lambda: [draw(name), "=", draw(name), ".", draw(name)],
        "const": lambda: [draw(name), "=", draw(_string())],
        "store": lambda: [draw(name), ".", draw(name), "=", draw(name)],
        "label": lambda: [draw(name), ":"],
        "goto": lambda: ["goto", draw(name)],
        "branch": lambda: ["branch", draw(name), draw(name)],
        "return": lambda: ["return"] + draw(st.lists(name, max_size=1)),
        "close": lambda: ["}"],
        "method": lambda: [draw(st.sampled_from(["method", "callback"])), draw(name), "(",
                           *draw(names), ")", "{"],
        "filter": lambda: ["filter", "{", *[a for _ in range(draw(st.integers(0, 2))) for a in (
            draw(st.sampled_from(["action", "category", "data_type", "sink"])), draw(_string()),
            *draw(st.sampled_from([[], [";"], [";", ";"]])))], "}"],
        "class": lambda: ["class", draw(name)] + draw(st.sampled_from([[], ["from", '"O"']])) + ["{"],
        "component": lambda: ["component", draw(st.sampled_from(["activity", "service", "class", "x"])),
                              draw(name)] + draw(st.sampled_from([[], ["from", '"O"']])) + ["{"],
        "app": lambda: ["app", draw(_string()), "{"],
    }
    return rest[kind]()


@st.composite
def fast_path_lines(draw):
    """One line of any form: keywords as names, escapes and '#' in strings,
    tabs and carriage returns, glued punctuation, ``synthetic`` and a
    trailing tag, sometimes with one word dropped or replaced."""
    atoms = draw(_form_atoms())
    edit = draw(st.integers(0, 5))
    if edit < 2 and atoms:
        i = draw(st.integers(0, len(atoms) - 1))
        atoms[i:i + 1] = [] if edit else [draw(st.sampled_from(_NAMES + ["=", ".", ":", "(", ",", "{"]))]
    if draw(st.booleans()):
        atoms.insert(0, "synthetic")
    blank = st.sampled_from(["", " ", " ", " ", "  ", "\t", "\r", " \t"])
    line = draw(blank) + "".join(atom + draw(blank) for atom in atoms)
    return line + draw(st.sampled_from(["", "# @tag t1", "  # @tag t2 # x", "#@tag", "# note"]))


@settings(max_examples=800, deadline=None)
@given(fast_path_lines())
@example("component class X {")
@example('filter { action "a";; }')
@example('synthetic filter { category "c" data_type "t"; }')
@example('call "A/C" m()')
@example('return "x"')
def test_fast_path_reads_a_line_as_the_token_path_does(line):
    """The fast path declines a line, or builds what the token parser builds:
    the same statement, terminator, label or header (type, fields,
    ``synthetic`` and tag), and so the same model and diagnostics."""
    for place in PLACES:
        text = place.format(line)
        assert _raw_parse(text) == _token_parse(text), text


@pytest.mark.parametrize("line, kind", [
    ("x = sink", None), ("return sink", "term"), ("goto call", "term"),
    ("synthetic return", None), ("synthetic l1:", None), ('x = "a#b"  # @tag t', "stmt"),
    ('call "A/C".m()', "stmt"), ("a.f=b", "stmt"), ("\tx\r=\ty", "stmt"), ('x = "a\\q"', None),
    ('synthetic filter { action "a"; }', None),
])
def test_fast_path_reads_or_declines(line, kind):
    read = parser._read_line(line)
    assert (read and read[0]) == kind


def test_fast_path_reads_every_shipped_and_generated_line(repo_root):
    """No line of ``corpus/`` or of progen seeds 0-9 reaches the token path,
    so a pattern that drifts fails here rather than running slower."""
    texts = [Path(p).read_text(encoding="utf-8") for p in corpus_files(str(repo_root / "corpus"))]
    texts += [text for seed in range(10) for text in progen.gen_corpus(seed)]
    with mock.patch.object(parser._LineLexer, "lex", side_effect=AssertionError) as lex:
        for text in texts:
            assert parse_app(text).ok
    assert lex.call_count == 0
    assert sum(len(text.splitlines()) for text in texts) > 500
