"""Self-tests of the benchmark harness: corpus generation, answer check and
traced run. Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _p in (ROOT / "src", ROOT / "tests", HERE):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import answers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from iccflow import cli, taint  # noqa: E402
from iccflow.parser import parse_app  # noqa: E402

TINY = workloads.Shape(progen=4, bench=1, shared=True, max_len=2)
CONFIG = str(ROOT / "corpus" / "sources_sinks.conf")


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """A four-replica shared-shape corpus on disk, with its answer key."""
    monkeypatch.setitem(workloads.SHAPES, "tiny", TINY)
    corpus = workloads.generate("tiny", 7)
    corpus.write(tmp_path / "corpus")
    key = answers.answer_key(corpus, tmp_path / "cache")
    return corpus, key, str(tmp_path / "corpus")


def _cli_stdout(capsys, corpus_dir: str, max_len: int) -> str:
    capsys.readouterr()
    code = cli.main(["analyze", corpus_dir, "--config", CONFIG, "--max-len", str(max_len)])
    assert code in (0, 1)
    return capsys.readouterr().out


@pytest.mark.parametrize("workload", sorted(workloads.SHAPES))
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    a, b = workloads.generate(workload, 1), workloads.generate(workload, 1)
    assert a.files() == b.files()
    assert workloads.generate(workload, 2).digest() != a.digest()


def test_seeds_rename_the_same_work():
    a, b = workloads.generate("widen", 1), workloads.generate("widen", 2)
    assert sorted(r.source for r in a.replicas if not r.is_bench) == list(range(22))
    assert {r.tag: r.source for r in a.replicas} != {r.tag: r.source for r in b.replicas}

    def stmts(corpus):
        return sum(1 for n, t in corpus.files().items()
                   for _ in parse_app(t, path=n).app.iter_stmts())

    assert stmts(a) == stmts(b)


def test_pinned_digests_match_the_generator():
    pinned = json.loads((HERE / "digests.json").read_text())
    assert pinned == {w: workloads.generate(w, 0).digest() for w in workloads.SHAPES}


def test_renaming_keeps_helpers_and_prefixes_routing_strings():
    text = ('app "AppA" {\n  component activity C0 {\n'
            '    filter { action "com.x.ACT0"; category "com.x.CAT0"; }\n'
            '    method onCreate(this) {\n      i = new_intent\n'
            '      set_target i "AppB/C1"\n      set_action i "com.x.ACT1"\n'
            '      v = call Util0.pass(x)\n    }\n  }\n}\n')
    out = workloads.rename(text, {"AppA": "P3_AppA"}, "P3", prefix_strings=True)
    assert 'app "P3_AppA"' in out and 'set_target i "AppB/C1"' in out
    assert 'action "p3.com.x.ACT0"; category "p3.com.x.CAT0";' in out
    assert 'set_action i "p3.com.x.ACT1"' in out and "Util0.pass" in out


def test_checker_accepts_the_engine_report(tiny, capsys):
    _corpus, key, corpus_dir = tiny
    verdict = key.check(answers.report_pairs(_cli_stdout(capsys, corpus_dir, 2)))
    assert verdict.ok, verdict
    assert verdict.missed_provider == 4 and verdict.allowed_fanout == 1


def test_checker_flags_a_removed_pair(tiny, capsys):
    _corpus, key, corpus_dir = tiny
    report = answers.report_pairs(_cli_stdout(capsys, corpus_dir, 2))
    found = sorted(p for p in report if p in key.expected)
    del report[found[0]]
    verdict = key.check(report)
    assert not verdict.ok and verdict.missed_other == 1


def test_checker_flags_an_unexplained_pair(tiny, capsys):
    _corpus, key, corpus_dir = tiny
    report = answers.report_pairs(_cli_stdout(capsys, corpus_dir, 2))
    src, snk = sorted(p for p in report if p in key.expected)[0]
    bogus = (snk, src)  # same app, so it cannot pass as a cross-replica flow
    assert bogus not in key.expected
    report[bogus] = (src.split("/", 1)[0],)
    verdict = key.check(report)
    assert not verdict.ok and verdict.unexplained == [bogus]


def test_traced_run_reproduces_cli_bytes_and_unpatches(tiny, capsys):
    _corpus, _key, corpus_dir = tiny
    before = {name: getattr(taint, name) for name in tracing.WRAPPED}
    for max_len in (2, 3):
        run = tracing.traced_analyze(corpus_dir, CONFIG, max_len)
        assert run.stdout == _cli_stdout(capsys, corpus_dir, max_len)
    assert {name: getattr(taint, name) for name in tracing.WRAPPED} == before
    m = tracing.layer_metrics(run)
    assert m["split.windows"] >= 1 and m["propagate.facts"] > 0
    assert abs(m["trace.unattributed_s"]) < 0.1 * m["trace.wall_s"] + 0.01


def test_wrapped_names_are_restored_after_an_error():
    before = {name: getattr(taint, name) for name in tracing.WRAPPED}
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Trace()):
            assert taint.propagate is not before["propagate"]
            raise RuntimeError("boom")
    assert {name: getattr(taint, name) for name in tracing.WRAPPED} == before


def test_self_time_excludes_child_spans():
    trace = tracing.Trace()
    with trace.span("outer"):
        with trace.span("inner"):
            sum(range(10000))
        sum(range(10000))
    self_s = trace.self_times()
    outer = trace.durations("outer")[0]
    assert self_s["inner"] == pytest.approx(trace.durations("inner")[0])
    assert self_s["outer"] + self_s["inner"] == pytest.approx(outer)
    assert trace.spans[1].parent == 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_runner_times_a_process_by_its_cpu_time(tiny, tmp_path):
    import run

    _corpus, _key, corpus_dir = tiny
    runner = run.Runner(tmp_path, deadline=run.time.perf_counter() + 60)
    p = runner.run(["check", corpus_dir], lambda p: p.code == 0)
    assert (runner.attempted, runner.failed) == (1, 0)
    assert p.stdout.startswith("ok: ")
    assert 0 < p.cpu_s <= p.wall_s and p.scaled_s > 0 and p.rss_mb > 0
