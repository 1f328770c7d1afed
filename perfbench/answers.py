"""Answers for a generated corpus that the engine under test did not produce.

Expected pairs come from the concrete interpreter in ``tests/oracle.py`` run
on each progen replica on its own, and from the ``truth`` file of each bench
replica. The check compares a report's (source, sink) pairs against them and
sorts every difference into a documented class or into ``unexplained``.

Oracle answers are cached per progen seed under the work directory, keyed by
a digest of the code they depend on, so each seed is interpreted once per
checkout however many runs use it.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import progen
from iccflow.bench import parse_truth
from iccflow.ir import PROVIDER_ICC_KINDS, Call, IccCall, SourceCall
from iccflow.parser import parse_app
from workloads import FANOUT_CASE, ROOT, Corpus, Replica

Pair = tuple[str, str]  # (source stmt id, sink stmt id) as printed

_REPORT_LINE = re.compile(r"^\[\w+\] \S+ @ (\S+) -> \S+ @ (\S+) \(\d+ stmts, apps: ([^)]*)\)$")


def report_pairs(text: str) -> dict[Pair, tuple[str, ...]]:
    """(source, sink) -> apps on the witness path, from ``analyze`` text."""
    pairs: dict[Pair, tuple[str, ...]] = {}
    lines = text.splitlines()
    for line in lines[:-1]:
        m = _REPORT_LINE.match(line)
        if m is None:
            raise ValueError(f"unexpected report line: {line!r}")
        pairs[(m.group(1), m.group(2))] = tuple(a for a in m.group(3).split(",") if a)
    if not lines or not re.fullmatch(r"no tainted paths|\d+ tainted paths?", lines[-1]):
        raise ValueError("report has no summary line")
    return pairs


def _code_digest() -> str:
    h = hashlib.sha256()
    for path in [ROOT / "tests" / "progen.py", ROOT / "tests" / "oracle.py",
                 *sorted((ROOT / "src" / "iccflow").glob("*.py"))]:
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _oracle_pairs(pseed: int, cache: Path) -> list[Pair]:
    """Oracle pairs of one un-renamed progen corpus, cached on disk."""
    path = cache / f"{pseed}.tsv"
    if path.exists():
        return [tuple(line.split("\t")) for line in path.read_text().splitlines()]
    found = oracle.oracle_pairs(progen.gen_apps(pseed), progen.config())
    pairs = sorted((str(a), str(b)) for a, b in found)
    tmp = path.with_suffix(".tmp")
    tmp.write_text("".join(f"{a}\t{b}\n" for a, b in pairs))
    tmp.replace(path)
    return pairs


@dataclass
class Verdict:
    missed: list[Pair] = field(default_factory=list)
    missed_provider: int = 0  # bench provider cases: not modelled by design
    missed_helper: int = 0  # shared shapes: flows through an ambiguous helper
    allowed_fanout: int = 0  # the documented startActivity4 false warning
    cross_replica: int = 0  # shared shapes: witness path spans replicas
    unexplained: list[Pair] = field(default_factory=list)

    @property
    def missed_other(self) -> int:
        return len(self.missed) - self.missed_provider - self.missed_helper

    @property
    def ok(self) -> bool:
        return not self.unexplained and self.missed_other == 0


@dataclass
class AnswerKey:
    corpus: Corpus
    expected: dict[Pair, Replica] = field(default_factory=dict)
    provider: set[Pair] = field(default_factory=set)
    fanout: set[Pair] = field(default_factory=set)
    replica_of: dict[str, Replica] = field(default_factory=dict)  # by app id

    def check(self, report: dict[Pair, tuple[str, ...]]) -> Verdict:
        v = Verdict()
        shared = self.corpus.shape.shared
        helpers = _shared_helpers(self.corpus) if shared else set()
        for pair, rep in sorted(self.expected.items()):
            if pair in report:
                continue
            v.missed.append(pair)
            if pair in self.provider:
                v.missed_provider += 1
            elif not rep.is_bench and _through_helper(pair, rep, helpers):
                v.missed_helper += 1
        for pair, apps in sorted(report.items()):
            if pair in self.expected:
                continue
            owners = [self.replica_of.get(a) for a in apps]
            if pair in self.fanout:
                v.allowed_fanout += 1
            elif shared and None not in owners and len({id(o) for o in owners}) > 1:
                # a flow through another replica's code: the per-replica
                # oracle cannot judge it
                v.cross_replica += 1
            else:
                v.unexplained.append(pair)
        return v


def answer_key(corpus: Corpus, cache_root: Path) -> AnswerKey:
    cache = cache_root / f"oracle-{_code_digest()}"
    cache.mkdir(parents=True, exist_ok=True)
    key = AnswerKey(corpus)
    for rep in corpus.replicas:
        key.replica_of.update((app_id, rep) for app_id in rep.texts)
        if rep.is_bench:
            _bench_answers(rep, key)
        else:
            for src, snk in _oracle_pairs(rep.source, cache):
                key.expected[(f"{rep.tag}_{src}", f"{rep.tag}_{snk}")] = rep
    return key


def _bench_answers(rep: Replica, key: AnswerKey) -> None:
    case_dir = ROOT / "corpus" / "bench" / rep.source
    truth, diags = parse_truth((case_dir / "truth").read_text(encoding="utf-8"))
    if truth is None:
        raise ValueError(f"{case_dir}: bad truth file: {diags}")
    tags: dict[str, str] = {}
    provider = False
    for app_id, text in rep.texts.items():
        app = parse_app(text, path=app_id).app
        for _c, _m, _b, stmt in app.iter_stmts():
            if stmt.tag:
                tags[stmt.tag] = str(stmt.sid)
            provider |= isinstance(stmt, IccCall) and stmt.kind in PROVIDER_ICC_KINDS
    for p in truth.pairs:
        pair = (tags[p.source_tag], tags[p.sink_tag])
        key.expected[pair] = rep
        if provider:
            key.provider.add(pair)
    if rep.source == FANOUT_CASE:
        key.fanout.add((tags["src"], tags["snk"]))


def _shared_helpers(corpus: Corpus) -> set[str]:
    """Helper class names declared by more than one app of the corpus."""
    seen: dict[str, int] = {}
    for rep in corpus.replicas:
        for text in rep.texts.values():
            for name in set(re.findall(r"^\s*class\s+(\w+)", text, re.M)):
                seen[name] = seen.get(name, 0) + 1
    return {name for name, n in seen.items() if n > 1}


def _through_helper(pair: Pair, rep: Replica, helpers: set[str]) -> bool:
    """Whether the source's value is passed to one of ``helpers``, which a
    window merging two apps that declare it cannot resolve."""
    app_id, cls, method, block, index = pair[0].split("/")
    app = parse_app(rep.texts[app_id], path=app_id).app
    meth = next(c for c in app.components if c.name == cls).find_method(method)
    src = meth.block(block).stmts[int(index)]
    return isinstance(src, SourceCall) and any(
        isinstance(s, Call) and s.cls in helpers and src.dst in s.args
        for b in meth.blocks for s in b.stmts
    )
