"""Command-line front end for the whole pipeline.

Subcommands: check, links, instrument, combine, analyze, bench. Reports go
to standard output and diagnostics to standard error, both byte-identical
across runs. Exit status 0 on success, 1 when analysis-level diagnostics
were produced, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .combine import build_iac_graph, holders, split_graph
from .icc import links_by_app, match_links, resolve_corpus
from .instrument import InstrumentError, instrument_model
from .ir import AppModel, Diagnostic
from .parser import load_corpus, serialize_app
from .taint import SourceSinkConfig, analyze, load_config, render_report


class _Failed(Exception):
    """Ends a command with exit status 1; its reasons are already on stderr."""


def _print_diags(diags: list[Diagnostic]) -> None:
    for d in diags:
        print(str(d), file=sys.stderr)


def _load_models(paths: list[str]) -> list[AppModel]:
    """Load the inputs and print their diagnostics; fail on any error."""
    apps, diags = load_corpus(paths)
    _print_diags(diags)
    if any(d.severity == "error" for d in diags):
        raise _Failed
    return apps


def _read_config(path: str) -> SourceSinkConfig:
    try:
        return load_config(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise _Failed from None


def _cmd_check(args) -> int:
    apps = _load_models(args.paths)
    components = sum(len(a.components) for a in apps)
    print(f"ok: {len(apps)} app(s), {components} component(s)")
    return 0


def _cmd_links(args) -> int:
    apps = _load_models(args.paths)
    result = match_links(resolve_corpus(apps), apps)
    for link in result.links:
        flavor = "exact" if link.exact else "fuzzy"
        scope = "cross-app" if link.cross_app else "in-app"
        print(f"{link.from_stmt}\t{link.kind}\t{link.to}\t{flavor}\t{scope}")
    _print_diags(result.diagnostics)
    return 1 if result.diagnostics else 0


def _cmd_instrument(args) -> int:
    apps = _load_models(args.paths)
    result = match_links(resolve_corpus(apps), apps)
    _print_diags(result.diagnostics)
    status = 1 if result.diagnostics else 0
    by_app = links_by_app(result.links, holders(apps))
    outputs = [
        instrument_model(app, by_app.get(app.app_id, []))
        for app in sorted(apps, key=lambda a: a.app_id)
    ]
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        for app in outputs:
            dest = os.path.join(args.output, f"{app.app_id}.cir")
            with open(dest, "w", encoding="utf-8") as fh:
                fh.write(serialize_app(app))
    else:
        print("\n".join(serialize_app(app) for app in outputs), end="")
    return status


def _cmd_combine(args) -> int:
    apps = _load_models(args.paths)
    result = match_links(resolve_corpus(apps), apps)
    _print_diags(result.diagnostics)
    graph = build_iac_graph(apps, result.links, holders(apps))
    for group in split_graph(graph, args.max_len):
        print("+".join(sorted(group)))
    return 1 if result.diagnostics else 0


def _cmd_analyze(args) -> int:
    apps = _load_models(args.paths)
    config = _read_config(args.config)
    result = match_links(resolve_corpus(apps), apps)
    _print_diags(result.diagnostics)
    report = analyze(apps, result.links, config, max_len=args.max_len)
    _print_diags(report.diagnostics)
    sys.stdout.write(render_report(report, args.format))
    return 1 if (result.diagnostics or report.diagnostics) else 0


def _cmd_bench(args) -> int:
    from .bench import render_bench, run_bench  # only bench needs the harness

    report = run_bench(args.root, _read_config(args.config))
    _print_diags(report.diagnostics)
    sys.stdout.write(render_bench(report, args.format))
    return 1 if any(not c.valid for c in report.cases) else 0


def _max_len(text: str) -> int:
    """argparse type of --max-len: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iccflow",
        description="Inter-component privacy-leak analysis over .cir programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("paths", nargs="+", help=".cir files or directories")
        p.set_defaults(func=func)
        return p

    add_command("check", _cmd_check, "parse and validate models")
    add_command("links", _cmd_links, "resolve ICC links")

    p = add_command("instrument", _cmd_instrument, "rewrite ICC calls into direct calls")
    p.add_argument("-o", "--output", help="directory for instrumented .cir files")

    p = add_command("combine", _cmd_combine, "print the combined-analysis plan")
    p.add_argument("--max-len", type=_max_len, default=2, help="max apps per analyzed set")

    p = add_command("analyze", _cmd_analyze, "run the full leak analysis")
    p.add_argument("--config", required=True, help="source/sink configuration file")
    p.add_argument("--max-len", type=_max_len, default=2, help="max apps per analyzed set")
    p.add_argument("--format", choices=("text", "tsv"), default="text")

    p = sub.add_parser("bench", help="run a labeled corpus and score it")
    p.add_argument("root", help="corpus root containing case directories")
    p.add_argument("--config", required=True, help="source/sink configuration file")
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InstrumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _Failed:
        return 1
    except OSError as exc:  # an unreadable corpus root or an unwritable -o
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
