from fractions import Fraction
from pathlib import Path

from iccflow.bench import (
    CaseResult,
    Metrics,
    parse_truth,
    render_bench,
    run_bench,
    run_case,
    score,
)

SENDER = """
app "X" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      x = source "getDeviceId"  # @tag src
      sink "writeLog" x  # @tag snk
    }
  }
}
"""


# ---------------------------------------------------------------------------
# truth parsing
# ---------------------------------------------------------------------------


def test_truth_basic_and_comments():
    truth, diags = parse_truth("# header\nleak a b\nleak c d class IAC\n")
    assert diags == []
    assert [(p.source_tag, p.sink_tag, p.klass) for p in truth.pairs] == [
        ("a", "b", None),
        ("c", "d", "IAC"),
    ]
    assert not truth.no_leaks


def test_truth_no_leaks():
    truth, diags = parse_truth("no_leaks\n")
    assert truth.no_leaks and not truth.pairs and diags == []


def test_truth_rejections():
    bad = {
        "leak a b class Wat\n": "bad leak qualifier",
        "leak a b\nleak a b\n": "duplicate leak line",
        "leek a b\n": "unrecognized truth line",
        "no_leaks\nleak a b\n": "mixes no_leaks",
        "# nothing\n": "declares nothing",
    }
    for text, needle in bad.items():
        truth, diags = parse_truth(text)
        assert truth is None, text
        assert any(needle in d.message for d in diags), (text, diags)


def test_truth_positions_survive():
    _, diags = parse_truth("leak a b\nwhat\n", path="t")
    assert diags[0].line == 2 and diags[0].file == "t"


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metrics_fractions_and_rendering():
    m = Metrics(19, 1, 4)
    assert m.precision == Fraction(19, 20)
    assert m.recall == Fraction(19, 23)
    assert m.f1 == Fraction(38, 43)
    rep = score([CaseResult(name="only", hits=19, fp=1, fn=4)])
    text = render_bench(rep)
    assert "Precision: 95.0%" in text
    assert "Recall: 82.6%" in text
    assert "F1: 0.88" in text


def test_metrics_weak_detector_rendering():
    rep = score([CaseResult(name="only", hits=16, fp=51, fn=7)])
    text = render_bench(rep)
    assert "Precision: 23.9%" in text
    assert "Recall: 69.6%" in text
    assert "F1: 0.36" in text


def test_metrics_zero_denominators():
    m = Metrics(0, 0, 0)
    assert m.precision is None and m.recall is None and m.f1 is None
    assert "n/a" in render_bench(score([CaseResult(name="empty")]))


# ---------------------------------------------------------------------------
# run_case on synthetic directories
# ---------------------------------------------------------------------------


def _case(tmp_path, name, cir, truth):
    d = tmp_path / name
    d.mkdir()
    (d / "app.cir").write_text(cir, encoding="utf-8")
    (d / "truth").write_text(truth, encoding="utf-8")
    return str(d)


def test_case_hit(tmp_path, default_config):
    r = run_case(_case(tmp_path, "hit", SENDER, "leak src snk class Intra\n"), default_config)
    assert (r.hits, r.fp, r.fn) == (1, 0, 0)
    assert r.valid and r.marks == "o"


def test_case_miss_and_false_warning(tmp_path, default_config):
    r = run_case(
        _case(tmp_path, "swap", SENDER, "leak snk src\n"),  # tags reversed: never matches
        default_config,
    )
    assert (r.hits, r.fp, r.fn) == (0, 1, 1)
    assert r.marks == "*x"


def test_case_class_qualifier_must_match(tmp_path, default_config):
    r = run_case(_case(tmp_path, "cls", SENDER, "leak src snk class IAC\n"), default_config)
    assert (r.hits, r.fp, r.fn) == (0, 1, 1)


def test_case_no_leaks_with_clean_app(tmp_path, default_config):
    clean = SENDER.replace('x = source "getDeviceId"  # @tag src', 'x = "none"  # @tag src')
    r = run_case(_case(tmp_path, "clean", clean, "no_leaks\n"), default_config)
    assert (r.hits, r.fp, r.fn) == (0, 0, 0)
    assert r.valid and r.marks == ""


def test_case_invalid_truth(tmp_path, default_config):
    r = run_case(_case(tmp_path, "bad", SENDER, "gibberish\n"), default_config)
    assert not r.valid
    assert (r.hits, r.fp, r.fn) == (0, 0, 0)
    undecodable = _case(tmp_path, "binary", SENDER, "")
    (Path(undecodable) / "truth").write_bytes(b"\xff\xfeleak")
    r = run_case(undecodable, default_config)
    assert not r.valid
    assert any("cannot read truth file" in d.message for d in r.diagnostics)


def test_case_tag_must_be_unique(tmp_path, default_config):
    doubled = SENDER.replace(
        'sink "writeLog" x  # @tag snk',
        'sink "writeLog" x  # @tag snk\n      sink "sendToUrl" x  # @tag snk',
    )
    r = run_case(_case(tmp_path, "dup", doubled, "leak src snk\n"), default_config)
    assert not r.valid
    assert any("resolves to 2" in d.message for d in r.diagnostics)


def test_case_missing_tag(tmp_path, default_config):
    r = run_case(_case(tmp_path, "gone", SENDER, "leak src nothere\n"), default_config)
    assert not r.valid
    assert any("resolves to 0" in d.message for d in r.diagnostics)


# ---------------------------------------------------------------------------
# scoring and discovery
# ---------------------------------------------------------------------------


def test_score_sorts_and_counts_valid_only():
    rep = score(
        [
            CaseResult(name="zeta", hits=2, fp=1, fn=0),
            CaseResult(name="alpha", hits=1, fp=0, fn=1),
            CaseResult(name="broken", valid=False, hits=9, fp=9, fn=9),
        ]
    )
    assert [c.name for c in rep.cases] == ["alpha", "broken", "zeta"]
    assert (rep.metrics.hits, rep.metrics.fp, rep.metrics.fn) == (3, 1, 1)


def test_run_bench_discovers_cases(tmp_path, default_config):
    _case(tmp_path, "one", SENDER, "leak src snk\n")
    _case(tmp_path, "two", SENDER, "no_leaks\n")
    (tmp_path / "notacase").mkdir()  # no truth file: skipped
    (tmp_path / "loose.cir").write_text(SENDER, encoding="utf-8")
    rep = run_bench(str(tmp_path), default_config)
    assert [c.name for c in rep.cases] == ["one", "two"]
    assert (rep.metrics.hits, rep.metrics.fp) == (1, 1)


def test_bench_rendering_is_stable(tmp_path, default_config):
    _case(tmp_path, "b", SENDER, "leak src snk\n")
    _case(tmp_path, "a", SENDER, "no_leaks\n")
    one = render_bench(run_bench(str(tmp_path), default_config))
    two = render_bench(run_bench(str(tmp_path), default_config))
    assert one == two
    assert one.index("a ") < one.index("b ")
    assert "Sum" in one and "Legend" in one


def test_tsv_rendering(tmp_path, default_config):
    _case(tmp_path, "c", SENDER, "leak src snk\n")
    out = render_bench(run_bench(str(tmp_path), default_config), fmt="tsv")
    lines = out.splitlines()
    assert lines[0] == "case\tmarks\thits\tfp\tfn"
    assert lines[1] == "c\to\t1\t0\t0"
    assert lines[2] == "Sum\t\t1\t0\t0"
    assert lines[3] == "precision\t100.0"
    assert lines[-1] == "f1\t1.00"


def test_adding_a_clean_decoy_changes_nothing(tmp_path, default_config):
    _case(tmp_path, "real", SENDER, "leak src snk\n")
    before = run_bench(str(tmp_path), default_config).metrics
    clean = SENDER.replace('source "getDeviceId"', '"benign"').replace('"X"', '"Y"')
    _case(tmp_path, "decoy", clean, "no_leaks\n")
    after = run_bench(str(tmp_path), default_config).metrics
    assert (before.hits, before.fp, before.fn) == (after.hits, after.fp, after.fn)
