"""Reports pinned byte for byte, witness path lengths included.

The files under ``golden/`` hold ``analyze`` reports of a checked-in
corpus and of a generated shared-string mix. A change in how windows are
instrumented, or in tabulation order, moves witness paths, and so the
``(N stmts, ...)`` counts, before it moves any pair. At this commit every
``--max-len`` below gives the same report, so one file serves them all.
"""

from pathlib import Path

import pytest

from iccflow.cli import main
from iccflow.icc import match_links, resolve_corpus
from iccflow.taint import analyze, render_report
from test_reuse import CONFIG, _mix

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("tsv", "tsv")])
@pytest.mark.parametrize("max_len", [2, 3, 4])
def test_bench_corpus_report(capsys, repo_root, max_len, fmt, suffix):
    code = main([
        "analyze", str(repo_root / "corpus" / "bench"),
        "--config", str(repo_root / "corpus" / "sources_sinks.conf"),
        "--max-len", str(max_len), "--format", fmt,
    ])
    cap = capsys.readouterr()
    assert code == 0
    assert cap.err == ""
    assert cap.out == (GOLDEN / f"bench_analyze.{suffix}").read_text(encoding="utf-8")


@pytest.mark.parametrize("max_len", [2, 3])
def test_shared_mix_report(max_len):
    apps = _mix(60, 1)
    links = match_links(resolve_corpus(apps), apps).links
    report = analyze(apps, links, CONFIG, max_len)
    assert report.diagnostics == []
    want = (GOLDEN / "mix60_seed1_analyze.txt").read_text(encoding="utf-8")
    assert render_report(report, "text") == want
