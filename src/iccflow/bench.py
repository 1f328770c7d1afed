"""Benchmark harness: run labeled test cases and score against ground truth.

Each case is a directory holding one or more ``.cir`` files plus a ``truth``
file. Truth lines are::

    leak <source-tag> <sink-tag> [class Intra|ICC|IAC]
    no_leaks

where tags are ``@tag`` annotations on statements in the case's sources, so
the truth survives edits and instrumentation. Reported pairs that match no
truth line are false warnings; truth lines no report matches are misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_UP
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .icc import match_links, resolve_corpus
from .ir import Diagnostic, StmtId
from .parser import load_corpus
from .taint import SourceSinkConfig, analyze

_CLASSES = ("Intra", "ICC", "IAC")


@dataclass(frozen=True)
class TruthPair:
    source_tag: str
    sink_tag: str
    klass: Optional[str] = None  # constrain the path class when present


@dataclass
class GroundTruth:
    pairs: list[TruthPair] = field(default_factory=list)
    no_leaks: bool = False


def parse_truth(text: str, path: str = "truth") -> tuple[Optional[GroundTruth], list[Diagnostic]]:
    truth = GroundTruth()
    diags: list[Diagnostic] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "no_leaks" and len(parts) == 1:
            truth.no_leaks = True
        elif parts[0] == "leak" and len(parts) in (3, 5):
            klass = None
            if len(parts) == 5:
                if parts[3] != "class" or parts[4] not in _CLASSES:
                    diags.append(Diagnostic("error", f"bad leak qualifier: {raw.strip()!r}", path, lineno))
                    continue
                klass = parts[4]
            pair = TruthPair(parts[1], parts[2], klass)
            if pair in truth.pairs:
                diags.append(Diagnostic("error", f"duplicate leak line: {raw.strip()!r}", path, lineno))
                continue
            truth.pairs.append(pair)
        else:
            diags.append(Diagnostic("error", f"unrecognized truth line: {raw.strip()!r}", path, lineno))
    if truth.no_leaks and truth.pairs:
        diags.append(Diagnostic("error", "truth file mixes no_leaks with leak lines", path))
    if not truth.no_leaks and not truth.pairs:
        diags.append(Diagnostic("error", "truth file declares nothing", path))
    if any(d.severity == "error" for d in diags):
        return None, diags
    return truth, diags


@dataclass
class CaseResult:
    name: str
    valid: bool = True
    hits: int = 0
    fp: int = 0
    fn: int = 0
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def marks(self) -> str:
        """Table cell: o per found leak, * per false warning, x per miss."""
        return "o" * self.hits + "*" * self.fp + "x" * self.fn


def run_case(case_dir: str, config: SourceSinkConfig) -> CaseResult:
    case = Path(case_dir)
    result = CaseResult(name=case.name)

    truth_path = case / "truth"
    try:
        truth_text = truth_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        result.valid = False
        result.diagnostics.append(Diagnostic("error", f"cannot read truth file: {exc}"))
        return result
    truth, diags = parse_truth(truth_text, str(truth_path))
    result.diagnostics.extend(diags)
    if truth is None:
        result.valid = False
        return result

    apps, diags = load_corpus([str(cir) for cir in sorted(case.glob("*.cir"))])
    result.diagnostics.extend(diags)
    if any(d.severity == "error" for d in diags):
        result.valid = False
        return result
    if not apps:
        result.valid = False
        result.diagnostics.append(Diagnostic("error", f"{case.name}: no .cir files"))
        return result

    tags: dict[str, list[StmtId]] = {}
    for app in apps:
        for _c, _m, _b, stmt in app.iter_stmts():
            if stmt.tag:
                tags.setdefault(stmt.tag, []).append(stmt.sid)
    for pair in truth.pairs:
        for tag in (pair.source_tag, pair.sink_tag):
            if len(tags.get(tag, ())) != 1:
                result.valid = False
                result.diagnostics.append(
                    Diagnostic("error", f"truth tag {tag!r} resolves to {len(tags.get(tag, ()))} statements")
                )
    if not result.valid:
        return result

    links = match_links(resolve_corpus(apps), apps)
    report = analyze(apps, links.links, config)

    tag_of: dict[StmtId, str] = {}
    for tag, sids in tags.items():
        for sid in sids:
            tag_of[sid] = tag

    unmatched = list(truth.pairs)
    for path in report.paths:
        src_tag = tag_of.get(path.source)
        snk_tag = tag_of.get(path.sink)
        match = None
        for pair in unmatched:
            if (
                pair.source_tag == src_tag
                and pair.sink_tag == snk_tag
                and (pair.klass is None or pair.klass == path.klass)
            ):
                match = pair
                break
        if match is not None:
            unmatched.remove(match)
            result.hits += 1
        else:
            result.fp += 1
    result.fn = len(unmatched)
    return result


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Metrics:
    hits: int
    fp: int
    fn: int

    @property
    def precision(self) -> Optional[Fraction]:
        d = self.hits + self.fp
        return Fraction(self.hits, d) if d else None

    @property
    def recall(self) -> Optional[Fraction]:
        d = self.hits + self.fn
        return Fraction(self.hits, d) if d else None

    @property
    def f1(self) -> Optional[Fraction]:
        d = 2 * self.hits + self.fp + self.fn
        return Fraction(2 * self.hits, d) if d else None


def _pct(value: Optional[Fraction], suffix: str = "%") -> str:
    if value is None:
        return "n/a"
    scaled = Decimal(value.numerator) * 100 / Decimal(value.denominator)
    return str(scaled.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)) + suffix


def _ratio(value: Optional[Fraction]) -> str:
    if value is None:
        return "n/a"
    scaled = Decimal(value.numerator) / Decimal(value.denominator)
    return str(scaled.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


@dataclass
class BenchReport:
    cases: list[CaseResult] = field(default_factory=list)
    metrics: Metrics = Metrics(0, 0, 0)

    @property
    def diagnostics(self) -> list[Diagnostic]:
        out = []
        for case in self.cases:
            out.extend(case.diagnostics)
        return out


def score(cases: list[CaseResult]) -> BenchReport:
    """Totals over valid cases; metrics left undefined on zero denominators."""
    ordered = sorted(cases, key=lambda c: c.name)
    hits = sum(c.hits for c in ordered if c.valid)
    fp = sum(c.fp for c in ordered if c.valid)
    fn = sum(c.fn for c in ordered if c.valid)
    return BenchReport(cases=ordered, metrics=Metrics(hits, fp, fn))


def run_bench(corpus_root: str, config: SourceSinkConfig) -> BenchReport:
    root = Path(corpus_root)
    case_dirs = sorted(str(d) for d in root.iterdir() if d.is_dir() and (d / "truth").exists())
    return score([run_case(d, config) for d in case_dirs])


def render_bench(report: BenchReport, fmt: str = "text") -> str:
    m = report.metrics
    if fmt == "tsv":
        lines = ["case\tmarks\thits\tfp\tfn"]
        for case in report.cases:
            cell = case.marks if case.valid else "invalid"
            lines.append(f"{case.name}\t{cell}\t{case.hits}\t{case.fp}\t{case.fn}")
        lines.append(f"Sum\t\t{m.hits}\t{m.fp}\t{m.fn}")
        lines.append(f"precision\t{_pct(m.precision, '')}")
        lines.append(f"recall\t{_pct(m.recall, '')}")
        lines.append(f"f1\t{_ratio(m.f1)}")
        return "\n".join(lines) + "\n"

    width = max([len("Case")] + [len(c.name) for c in report.cases])
    mwidth = max([len("Marks")] + [len(c.marks) for c in report.cases])
    lines = [f"{'Case':<{width}}  {'Marks':<{mwidth}}  Hits  FP  FN"]
    for case in report.cases:
        cell = case.marks if case.valid else "invalid"
        lines.append(
            f"{case.name:<{width}}  {cell:<{mwidth}}  {case.hits:>4}  {case.fp:>2}  {case.fn:>2}"
        )
    lines.append(f"{'Sum':<{width}}  {'':<{mwidth}}  {m.hits:>4}  {m.fp:>2}  {m.fn:>2}")
    lines.append(
        f"Precision: {_pct(m.precision)}  Recall: {_pct(m.recall)}  F1: {_ratio(m.f1)}"
    )
    lines.append("Legend: o = leak found, * = false warning, x = missed leak")
    return "\n".join(lines) + "\n"
