"""Answers pinned by digest, so any moved byte fails tier-1 without a base
checkout to compare against.

``golden/digests.json`` holds SHA-256 digests of

* ``iccflow instrument`` on ``corpus/bench`` and on ``corpus/motivating``;
* each benchmark workload at seed 1, built by ``perfbench/workloads.py``
  (``dense`` and ``sparse`` at ``--max-len 2``, ``widen`` at 3): the
  ``analyze`` text report, then one line per path in report order with its
  source, sink and every witness statement;
* ``iccflow links`` on the same three workloads: the links on standard
  output, then the link diagnostics on standard error.

It also checks that ``analyze``, ``links``, ``combine`` and ``bench`` on
``corpus/bench`` print the same exit status, standard output and standard
error under two hash seeds.

Print the current digests with ``PYTHONPATH=src python3 tests/test_pins.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from iccflow.cli import main
from iccflow.icc import match_links, resolve_corpus
from iccflow.parser import load_corpus
from iccflow.taint import analyze, load_config, render_report
from test_cli import _subprocess_env

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent
if str(REPO / "perfbench") not in sys.path:
    sys.path.append(str(REPO / "perfbench"))

import workloads  # noqa: E402

GOLDEN = TESTS / "golden" / "digests.json"
CONFIG = REPO / "corpus" / "sources_sinks.conf"
WORKLOADS = {"dense": 2, "sparse": 2, "widen": 3}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def instrument_digest(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "iccflow.cli", "instrument", str(REPO / "corpus" / name)],
        capture_output=True, text=True, env=_subprocess_env(), check=True,
    )
    assert proc.stderr == ""
    return _sha(proc.stdout)


def workload_digest(name: str, directory: Path) -> str:
    workloads.generate(name, 1).write(directory)
    apps, diags = load_corpus([str(directory)])
    assert diags == []
    links = match_links(resolve_corpus(apps), apps).links
    report = analyze(apps, links, load_config(str(CONFIG)), WORKLOADS[name])
    lines = [" ".join(map(str, (p.source, p.sink, *p.stmts))) + "\n" for p in report.paths]
    return _sha(render_report(report, "text") + "".join(lines))


def links_digest(name: str, directory: Path) -> str:
    workloads.generate(name, 1).write(directory)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        main(["links", str(directory)])
    return _sha(out.getvalue() + err.getvalue())


def _pinned() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["bench", "motivating"])
def test_instrument_output_is_pinned(name):
    assert instrument_digest(name) == _pinned()[f"instrument corpus/{name}"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_report_and_witnesses_are_pinned(name, tmp_path):
    assert workload_digest(name, tmp_path / name) == _pinned()[f"analyze {name} seed 1"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_links_are_pinned(name, tmp_path):
    assert links_digest(name, tmp_path / name) == _pinned()[f"links {name} seed 1"]


def test_analyze_prints_the_same_bytes_under_any_hash_seed():
    bench, config = str(REPO / "corpus" / "bench"), str(CONFIG)
    for args in (["analyze", bench, "--config", config], ["links", bench], ["combine", bench],
                 ["bench", bench, "--config", config]):
        runs = []
        for seed in ("0", "1"):
            env = {**_subprocess_env(), "PYTHONHASHSEED": seed}
            proc = subprocess.run([sys.executable, "-m", "iccflow.cli", *args], capture_output=True, env=env)
            runs.append((proc.returncode, proc.stdout, proc.stderr))
        assert runs[0] == runs[1], args[0]
        assert runs[0][0] == 0 and runs[0][1].count(b"\n") > 10, args[0]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {f"instrument corpus/{n}": instrument_digest(n) for n in ("bench", "motivating")}
        digests.update(
            {f"analyze {n} seed 1": workload_digest(n, Path(tmp) / n) for n in sorted(WORKLOADS)}
        )
        digests.update(
            {f"links {n} seed 1": links_digest(n, Path(tmp) / "links" / n) for n in sorted(WORKLOADS)}
        )
    print(json.dumps(digests, indent=2))
