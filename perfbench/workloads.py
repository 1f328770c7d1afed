"""Seeded corpora for the iccflow benchmark.

A corpus is a set of replicas, each a copy of in-repo material under app ids
renamed for that replica:

* progen replicas: one ``tests/progen.py`` corpus each, from generator
  seeds ``0 .. progen - 1``;
* bench replicas: every ``corpus/bench`` case, with its ``truth`` file.

The workload seed shuffles which tag each progen replica gets, and so every
app id, file name and the order in which the program meets the apps. It
leaves the amount of work alone: every seed gives different bytes, and the
same cost, so times taken on different seeds compare.

In the *sparse* shape every action and category string is prefixed per
replica, so implicit intents only reach their own replica. In the *shared*
shape the strings stay as written, so implicit and fuzzy intents fan out
across replicas as in a market-scale corpus. Helper class names (``Util0``,
...) are never renamed: merging two apps that declare the same helper is a
behaviour of the engine the benchmark has to keep visible.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import progen  # tests/ must be on sys.path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "corpus" / "bench"

# The one bench case whose action is unresolvable: its fuzzy link reaches
# every activity in the corpus, so it only belongs in the shared shapes.
FANOUT_CASE = "startActivity4"


@dataclass(frozen=True)
class Shape:
    progen: int  # progen replicas
    bench: int  # corpus/bench replicas
    shared: bool  # action/category strings shared across replicas
    max_len: int  # the analyze --max-len flag


SHAPES = {
    "sparse": Shape(progen=1200, bench=8, shared=False, max_len=2),
    "dense": Shape(progen=250, bench=3, shared=True, max_len=2),
    "widen": Shape(progen=22, bench=1, shared=True, max_len=3),
}


@dataclass
class Replica:
    tag: str  # "P12" or "B3": prefix of every app id in the replica
    source: object  # progen seed (int) or bench case name (str)
    texts: dict[str, str] = field(default_factory=dict)  # renamed app id -> text

    @property
    def is_bench(self) -> bool:
        return isinstance(self.source, str)

    def app_id(self, original: str) -> str:
        return f"{self.tag}_{original}"


@dataclass
class Corpus:
    shape: Shape
    replicas: list[Replica]

    def files(self) -> dict[str, str]:
        """File name -> text, one file per app."""
        out: dict[str, str] = {}
        for rep in self.replicas:
            for app_id, text in rep.texts.items():
                out[f"{app_id}.cir"] = text
        return dict(sorted(out.items()))

    def digest(self) -> str:
        h = hashlib.sha256()
        for name, text in self.files().items():
            h.update(name.encode() + b"\0" + text.encode() + b"\0")
        return h.hexdigest()

    def write(self, directory: Path) -> None:
        """Write the .cir files into a directory that does not exist yet."""
        directory.mkdir(parents=True, exist_ok=False)
        for name, text in self.files().items():
            (directory / name).write_text(text, encoding="utf-8")


_APP_DECL = re.compile(r'^(\s*app\s+)"([^"]+)"', re.M)
_QUALIFIED_TARGET = re.compile(r'(set_target\s+\w+\s+)"([^"/]+)/')
_ROUTING = re.compile(r'((?:set_action|set_category)\s+\w+\s+|(?:action|category)\s+)"([^"]*)"')


def rename(text: str, ids: dict[str, str], tag: str, prefix_strings: bool) -> str:
    """Rename the app ids in ``ids`` where ``text`` declares them or names
    them in a qualified target; optionally prefix every action and category
    with the replica tag."""

    def app_decl(m: re.Match) -> str:
        return f'{m.group(1)}"{ids.get(m.group(2), m.group(2))}"'

    def target(m: re.Match) -> str:
        return f'{m.group(1)}"{ids.get(m.group(2), m.group(2))}/'

    def routing(m: re.Match) -> str:
        return f'{m.group(1)}"{tag.lower()}.{m.group(2)}"'

    text = _APP_DECL.sub(app_decl, text)
    text = _QUALIFIED_TARGET.sub(target, text)
    if prefix_strings:
        text = _ROUTING.sub(routing, text)
    return text


def _split_apps(text: str) -> dict[str, str]:
    """One generated or case file may hold several apps; key each by id."""
    starts = [m.start() for m in _APP_DECL.finditer(text)]
    out = {}
    for a, b in zip(starts, starts[1:] + [len(text)]):
        chunk = text[a:b]
        out[_APP_DECL.match(chunk).group(2)] = chunk.rstrip("\n") + "\n"
    return out


def _bench_cases(shared: bool) -> list[str]:
    cases = sorted(d.name for d in BENCH_DIR.iterdir() if (d / "truth").is_file())
    return cases if shared else [c for c in cases if c != FANOUT_CASE]


def _fill(rep: Replica, texts: list[str], prefix_strings: bool) -> None:
    ids: dict[str, str] = {}
    for text in texts:
        for old in _split_apps(text):
            ids[old] = rep.app_id(old)
    for text in texts:
        renamed = rename(text, ids, rep.tag, prefix_strings)
        rep.texts.update(_split_apps(renamed))


def generate(workload: str, seed: int) -> Corpus:
    """The corpus of one workload for one seed; the same seed gives the same
    bytes."""
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    prefix = not shape.shared
    replicas: list[Replica] = []
    tags = list(range(shape.progen))
    rng.shuffle(tags)
    for pseed, n in enumerate(tags):
        rep = Replica(tag=f"P{n}", source=pseed)
        _fill(rep, progen.gen_corpus(pseed), prefix)
        replicas.append(rep)
    cases = _bench_cases(shape.shared)
    for k in range(shape.bench):
        for case in cases:
            rep = Replica(tag=f"B{k}", source=case)
            texts = [p.read_text(encoding="utf-8") for p in sorted((BENCH_DIR / case).glob("*.cir"))]
            _fill(rep, texts, prefix)
            replicas.append(rep)
    return Corpus(shape, replicas)
