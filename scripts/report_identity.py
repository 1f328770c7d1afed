#!/usr/bin/env python3
"""Check that ``iccflow analyze``, ``links``, ``combine``, ``bench``,
``instrument`` and the parser report the same as a base checkout does.

    python3 scripts/report_identity.py --base ../iccflow-base [--head .]

Runs ``python -m iccflow.cli`` from each checkout's ``src`` on the same
inputs and compares standard output, exit status, and standard error.
Older checkouts' ``analyze`` also printed a ``[time]`` line per window to
standard error; those lines are dropped before comparing, which matters
only for a base checkout that old. The inputs are the benchmark corpora
``dense`` and ``sparse`` (``--max-len 2``) and ``widen`` (``--max-len 3``),
seeds 1 and 2, and ``dense`` seed 3, built with the head's
``perfbench/workloads.py``;
``corpus/bench`` at ``--max-len`` 2, 3 and 4, as text and as TSV;
``corpus/warnings``, whose analysis warns of unknown callees, at
``--max-len`` 2 and 3; both of these again, at ``--max-len`` 2 and 3, with
a config that names no source they hold, so no window holds a live source
and every window whose apps cannot warn is idle (not built), while the
others must still warn once per window; ``bench corpus/bench`` as text and
as TSV;
``instrument`` on ``corpus/bench``, ``corpus/motivating`` and the three
seed-1 workload corpora, so every ``dummyMain`` they get is compared;
``links``, the resolved intent links, on every workload corpus and on
``corpus/bench``; and ``combine``, the window plan, on the three seed-1
workload corpora at ``--max-len`` 2 and 3 and on ``corpus/bench`` at 2, 3
and 4.
Reports show only a path's length, so it also compares every path's full
statement list, printed by ``WITNESSES`` in-process against each
checkout's ``src``, on each of those workload corpora and on
``corpus/bench`` at ``--max-len 3``. ``PARSES`` does the same for the
parser: the diagnostics and serialized model of every ``corpus/`` file,
every ``progen`` corpus of seeds 0-59, 2,000 seeded line mutations of
them (``progen.line_mutations``), every prefix of every ``corpus/`` file
(cut after each of its lines, so its blocks are left unclosed), and every
file of the three seed-1 workload corpora, so a parse that ``analyze``
does not show, such as a lost ``synthetic`` flag or tag, differs too.
Prints one line per case, then, for each differing stream of a case, the
first lines of its ``difflib.unified_diff`` (no context lines), and exits 1
if any case differs.
"""

from __future__ import annotations

import argparse
import difflib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = (("dense", 2), ("sparse", 2), ("widen", 3))
# (seed, workload): which source a window may skip depends on the window
# order, and each seed shuffles the app ids, so dense runs a third seed
RUNS = tuple((seed, w) for seed in (1, 2) for w in WORKLOADS) + ((3, WORKLOADS[0]),)
DIFF_LINES = 40  # diff lines printed per differing stream

# argv: corpus directory, --max-len, config; one line per path, in report order
WITNESSES = """
import sys
from iccflow.icc import match_links, resolve_corpus
from iccflow.parser import corpus_files, load_corpus
from iccflow.taint import analyze, load_config
corpus, max_len, config = sys.argv[1:]
apps, _ = load_corpus(corpus_files(corpus))
links = match_links(resolve_corpus(apps), apps).links
for p in analyze(apps, links, load_config(config), int(max_len)).paths:
    print(p.source, p.sink, *p.stmts)
"""

# argv: a directory of .cir texts; per file, its diagnostics and its model
PARSES = """
import sys
from pathlib import Path
from iccflow.parser import parse_app, serialize_app
for path in sorted(Path(sys.argv[1]).iterdir()):
    r = parse_app(path.read_text(encoding="utf-8"))
    print("==", path.name)
    for d in r.diagnostics:
        print(d.line, d.column, d.severity, d.message)
    if r.ok:
        print(serialize_app(r.app), end="")
"""


def _run(checkout: Path, argv: list[str]) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=600,
    )
    err = "".join(line for line in proc.stderr.splitlines(True) if not line.startswith("[time]"))
    return proc.returncode, proc.stdout, err


def _diff(part: str, want: str, got: str) -> list[str]:
    """The first ``DIFF_LINES`` lines of the base-to-head diff of one
    stream, indented, and how many more there are."""
    lines = difflib.unified_diff(want.splitlines(), got.splitlines(), f"base {part}",
                                 f"head {part}", n=0, lineterm="")
    shown = [f"    {line}" for line in itertools.islice(lines, DIFF_LINES)]
    rest = sum(1 for _ in lines)
    return shown + [f"    ... {rest} more diff lines"] if rest else shown


def _write_texts(directory: Path, texts: list[str]) -> str:
    """Write each text to a numbered ``.cir`` file of a new directory."""
    directory.mkdir()
    for n, text in enumerate(texts):
        (directory / f"{n:04d}.cir").write_text(text, encoding="utf-8")
    return str(directory)


def cases(head: Path, work: Path) -> list[tuple[str, list[str]]]:
    """(name, Python arguments) of every compared run; writes the corpora."""
    sys.path[:0] = [str(head / "src"), str(head / "tests"), str(head / "perfbench")]
    import progen
    import workloads

    config = str(head / "corpus" / "sources_sinks.conf")
    out, snippets = [], []
    for seed, (name, max_len) in RUNS:
        corpus = work / f"{name}-{seed}"
        workloads.generate(name, seed).write(corpus)
        out.append((f"{name} seed {seed}",
                    ["analyze", str(corpus), "--max-len", str(max_len), "--config", config]))
        out.append((f"{name} seed {seed} links", ["links", str(corpus)]))
        snippets.append((f"{name} seed {seed} witnesses", [WITNESSES, str(corpus), str(max_len), config]))
        if seed == 1:
            out.append((f"instrument {name} seed {seed}", ["instrument", str(corpus)]))
            out += [(f"combine {name} seed {seed} max-len {n}", ["combine", str(corpus), "--max-len", str(n)])
                    for n in (2, 3)]
            snippets.append((f"{name} seed {seed} parse", [PARSES, str(corpus)]))
    bench = str(head / "corpus" / "bench")
    snippets.append(("corpus/bench max-len 3 witnesses", [WITNESSES, bench, "3", config]))
    for max_len in (2, 3, 4):
        out.append((f"combine corpus/bench max-len {max_len}", ["combine", bench, "--max-len", str(max_len)]))
        for fmt in ("text", "tsv"):
            out.append((f"corpus/bench max-len {max_len} {fmt}",
                        ["analyze", bench, "--max-len", str(max_len), "--format", fmt,
                         "--config", config]))
    warnings = str(head / "corpus" / "warnings")
    for max_len in (2, 3):
        out.append((f"corpus/warnings max-len {max_len}",
                    ["analyze", warnings, "--max-len", str(max_len), "--config", config]))
    no_sources = work / "no_sources.conf"
    no_sources.write_text("source getNothing\n" + "".join(
        line for line in Path(config).read_text(encoding="utf-8").splitlines(True)
        if line.startswith("sink ")), encoding="utf-8")
    for name, corpus in (("warnings", warnings), ("bench", bench)):
        for max_len in (2, 3):
            out.append((f"corpus/{name} max-len {max_len} no live source",
                        ["analyze", corpus, "--max-len", str(max_len), "--config", str(no_sources)]))
    for fmt in ("text", "tsv"):
        out.append((f"bench corpus/bench {fmt}", ["bench", bench, "--format", fmt, "--config", config]))
    out.append(("links corpus/bench", ["links", bench]))
    for name in ("bench", "motivating"):
        out.append((f"instrument corpus/{name}", ["instrument", str(head / "corpus" / name)]))
    shipped = [p.read_text(encoding="utf-8") for p in sorted((head / "corpus").rglob("*.cir"))]
    texts = shipped + [text for seed in range(60) for text in progen.gen_corpus(seed)]
    parses = _write_texts(work / "parses", texts + progen.line_mutations(texts, 2000, seed=1))
    snippets.append(("parse of corpus texts and line mutations", [PARSES, parses]))
    lines = [text.splitlines(True) for text in shipped]
    cuts = ["".join(ls[:n]) for ls in lines for n in range(1, len(ls) + 1)]
    prefixes = _write_texts(work / "prefixes", cuts)
    snippets.append(("parse of corpus prefixes", [PARSES, prefixes]))
    return [(name, ["-m", "iccflow.cli", *args]) for name, args in out] + [
        (name, ["-c", *args]) for name, args in snippets
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="base checkout")
    parser.add_argument("--head", default=Path.cwd(), type=Path, help="checkout under test")
    args = parser.parse_args()
    base, head = args.base.resolve(), args.head.resolve()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in cases(head, Path(tmp)):
            want, got = _run(base, argv), _run(head, argv)
            parts = [(part, a, b) for part, a, b in zip(("exit status", "stdout", "stderr"), want, got)
                     if a != b]
            differ += bool(parts)
            differs = "differs in " + ", ".join(part for part, _, _ in parts)
            print(f"{name}: {differs if parts else 'identical'}"
                  f" (exit {got[0]}, {got[1].count(chr(10))} lines)")
            for part, a, b in parts:
                for line in _diff(part, str(a), str(b)):
                    print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
