#!/usr/bin/env python3
"""Benchmark of ``iccflow analyze`` on seeded market-shaped corpora.

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 30 --trace 0

Run from the root of an iccflow checkout. One run generates the workload's
corpus for the seed, computes its answers with the oracle, times ``iccflow
check`` several times (``setup_s``), then runs ``iccflow analyze`` as a
closed loop of one client for ``--seconds``, checking every report. The
benchmark and its processes are pinned to one CPU; while a process runs,
the benchmark times two short fixed loops on that CPU every 0.1 s, and
scales the process's CPU time by the speed of the CPU that they saw. With
``--trace 1`` each analyze process is followed by a traced in-process run
of the same analysis, and the per-layer numbers are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name and unit, and the answer check's verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CONFIG = "corpus/sources_sinks.conf"
NEEDED = ("BENCHMARK.json", "src/iccflow/cli.py", "tests/progen.py", "tests/oracle.py",
          "corpus/bench", CONFIG)

RUN_LIMIT_S = 170  # a run starts no process that could end after this
PROC_TIMEOUT_S = 60  # one iccflow process
MIN_RUNS = 3  # analyze processes per run, however short --seconds is
MIN_TRACED_RUNS = 2  # the same with --trace 1, where each is run twice
SETUP_RUNS = 5  # check processes per run, and at least
SETUP_MIN_S = 4.0  # seconds of them; setup_s is their median
PROBE_LOOPS = 20_000  # iterations of the probe's in-cache loop
PROBE_WALK = 8_000  # steps of its walk through RING
# the two parts' times on an uncontended core of a 2-core Xeon VM
LOOP_NOMINAL_S = 0.0035
WALK_NOMINAL_S = 0.0026
PROBE_EVERY_S = 0.1  # while a process runs
# A random cycle through 300,000 ints, about 11 MB with the int objects: a
# walk through it misses the caches as the analysis of a large corpus does.
RING = list(range(300_000))
random.Random(0).shuffle(RING)


@dataclass
class Spec:
    """Metric names and units, as BENCHMARK.json lists them."""

    end_to_end: list[str]
    per_layer: list[str]
    units: dict[str, str]

    @staticmethod
    def load() -> "Spec":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = spec["end_to_end"] + spec["per_layer"]
        return Spec([m["name"] for m in spec["end_to_end"]],
                    [m["name"] for m in spec["per_layer"]],
                    {m["name"]: m["unit"] for m in metrics})


def probe_s() -> tuple[float, float]:
    """Times of two fixed pure-Python loops that share no code with iccflow:
    one that stays in the caches and one that walks RING. Together they say
    how fast the CPU runs Python at this moment. On a shared host that speed
    drifts by up to a factor of two within seconds, as other tenants load the
    core, its sibling and the shared cache; the in-cache loop follows the
    small corpora of ``widen`` closely, the walk the larger ``dense`` one."""
    started = time.perf_counter()
    d: dict[int, int] = {}
    s = 0
    for i in range(PROBE_LOOPS):
        d[i % 1000] = d.get(i % 1000, 0) + i
        s += i * 3 % 7
    middle = time.perf_counter()
    j = 0
    for _ in range(PROBE_WALK):
        j = RING[j]
    return middle - started, time.perf_counter() - middle


def slowdown(probes: list[tuple[float, float]]) -> float:
    """How many times slower than on an uncontended core the probes ran: the
    geometric mean of the two parts' median times over their nominal ones."""
    loop = statistics.median(p[0] for p in probes)
    walk = statistics.median(p[1] for p in probes)
    return math.sqrt(loop / LOOP_NOMINAL_S * walk / WALK_NOMINAL_S)


def pin_to_one_cpu() -> None:
    """Run the benchmark and every process it starts on one CPU, so that the
    probes measure the CPU the process under test runs on."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control: measure unpinned
        pass


@dataclass
class Proc:
    wall_s: float
    cpu_s: float  # user + system time of the process
    scaled_s: float  # cpu_s on an uncontended core: cpu_s / slowdown
    rss_mb: float
    code: int  # negative: killed by that signal, a timeout among them
    stdout: str
    stderr: str

    def failed(self, reference: Optional[str]) -> bool:
        """Crashed, timed out, printed a traceback, exited with anything but
        0 or 1 (1 is documented: analysis diagnostics were printed), or
        printed a report other than the first run's."""
        return (
            self.code not in (0, 1)
            or "Traceback (most recent call last)" in self.stderr
            or (reference is not None and self.stdout != reference)
        )


class Runner:
    """Runs iccflow one process at a time, never past the run's deadline,
    and counts the attempts and failures."""

    def __init__(self, scratch: Path, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def room_for(self, seconds: float) -> bool:
        return time.perf_counter() + seconds < self.deadline

    def run(self, argv: list[str], ok: Callable[[Proc], bool]) -> Proc:
        """One ``python -m iccflow.cli`` process from the checkout root,
        timed from outside, with its own peak RSS."""
        timeout = min(PROC_TIMEOUT_S, max(self.deadline - time.perf_counter(), 1.0))
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            probes = [probe_s()]
            started = time.perf_counter()
            # at the lowest priority, so that a probe is not cut short
            proc = subprocess.Popen([sys.executable, "-m", "iccflow.cli", *argv],
                                    cwd=ROOT, env=env, stdout=out, stderr=err,
                                    preexec_fn=lambda: os.nice(19))
            try:
                usage = _wait_probing(proc, started + timeout, probes)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - started
        cpu = usage.ru_utime + usage.ru_stime
        scaled = cpu / slowdown(probes)
        p = Proc(wall, cpu, scaled, usage.ru_maxrss / 1024, proc.returncode,
                 out_path.read_text(encoding="utf-8", errors="replace"),
                 err_path.read_text(encoding="utf-8", errors="replace"))
        self.attempted += 1
        self.failed += not ok(p)
        return p

    def traced(self, corpus_dir: Path, max_len: int):
        """One traced in-process analysis; None, counted as a failure, if
        the analysis raised."""
        import tracing

        self.attempted += 1
        try:
            return tracing.traced_analyze(str(ROOT / corpus_dir), str(ROOT / CONFIG), max_len)
        except Exception:  # the program under test failed; keep measuring
            traceback.print_exc()
            self.failed += 1
            return None


def _wait_probing(proc: subprocess.Popen, kill_at: float,
                  probes: list[tuple[float, float]]):
    """Reap ``proc``, killing it at ``kill_at``; until it ends, run the probe
    every PROBE_EVERY_S on the CPU it runs on. Its CPU time does not include
    the probes'."""
    fd = os.pidfd_open(proc.pid)
    try:
        while not select.select([fd], [], [], PROBE_EVERY_S)[0]:
            if time.perf_counter() > kill_at:
                proc.kill()
            else:
                probes.append(probe_s())
    finally:
        os.close(fd)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    pin_to_one_cpu()

    missing = [p for p in NEEDED if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: {ROOT} is not an iccflow checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    for p in (ROOT / "src", ROOT / "tests", HERE):
        sys.path.insert(0, str(p))
    import answers
    import workloads

    if args.workload not in workloads.SHAPES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    pinned = json.loads((HERE / "digests.json").read_text())[args.workload]
    if workloads.generate(args.workload, 0).digest() != pinned:
        print(f"perfbench: the {args.workload} corpus for seed 0 no longer matches its pinned "
              "digest; the generator or its material (tests/progen.py, corpus/bench) changed",
              file=sys.stderr)
        return 3

    corpus = workloads.generate(args.workload, args.seed)
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        corpus_dir = run_dir / "corpus"
        corpus.write(corpus_dir)
        key = answers.answer_key(corpus, WORK / "cache")
        result = measure(args, Spec.load(), corpus, key, Runner(run_dir, deadline),
                         corpus_dir.relative_to(ROOT))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


def measure(args, spec: Spec, corpus, key, runner: Runner, corpus_dir: Path) -> Optional[dict]:
    import answers

    from iccflow.parser import parse_app

    max_len = corpus.shape.max_len
    apps = [parse_app(t, path=n).app for n, t in corpus.files().items()]
    stmts = sum(1 for a in apps for _ in a.iter_stmts())
    print(f"workload {args.workload} seed {args.seed}: {len(apps)} apps, {stmts} statements, "
          f"--max-len {max_len}")

    setup: list[float] = []
    checked = f"ok: {len(apps)} app(s)"
    while (len(setup) < SETUP_RUNS or sum(setup) < SETUP_MIN_S) and runner.room_for(
            max(setup, default=0.0)):
        p = runner.run(["check", str(corpus_dir)],
                       lambda p: not p.failed(None) and p.code == 0 and p.stdout.startswith(checked))
        setup.append(p.scaled_s)

    argv = ["analyze", str(corpus_dir), "--config", CONFIG, "--max-len", str(max_len)]
    least = MIN_TRACED_RUNS if args.trace else MIN_RUNS
    runs: list[Proc] = []
    traced = []
    reference: Optional[str] = None
    started = time.perf_counter()
    while True:
        p = runner.run(argv, lambda p: not p.failed(reference))
        runs.append(p)
        if reference is None and not p.failed(None):
            reference = p.stdout
        if args.trace:
            traced.append(runner.traced(corpus_dir, max_len))
        elapsed = time.perf_counter() - started
        per_run = elapsed / len(runs)
        if not runner.room_for(per_run) or (len(runs) >= least and elapsed + per_run > args.seconds):
            break

    verdict = None
    if reference is not None:
        try:
            verdict = key.check(answers.report_pairs(reference))
        except ValueError as exc:
            print(f"unreadable report: {exc}")
    correct = verdict is not None and verdict.ok
    if args.trace:
        same = sum(t is not None and t.stdout == reference for t in traced)
        print(f"traced runs reproducing the CLI report byte for byte: {same} of {len(runs)}")
        correct &= same == len(runs)

    analyze_s = statistics.median(p.scaled_s for p in runs)
    e2e = {
        "analyze_s": analyze_s,
        "stmts_per_s": stmts / analyze_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p.rss_mb for p in runs),
        # with no readable report, every expected pair is missed
        "leaks_missed": float(len(verdict.missed) if verdict else len(key.expected)),
        # always 0 on a correct program, so not in BENCHMARK.json: they reach
        # the result as "correct" and "failed"
        "leaks_unexplained": float(len(verdict.unexplained) if verdict else 0),
        "fail_frac": runner.failed / runner.attempted,
    }
    units = dict(spec.units, leaks_unexplained="count", fail_frac="ratio")
    print(f"analyze processes: {len(runs)}, cpu s: {' '.join(f'{p.cpu_s:.3f}' for p in runs)}"
          f"; scaled s: {' '.join(f'{p.scaled_s:.3f}' for p in runs)}")
    print(f"check processes: {len(setup)}, scaled s: {' '.join(f'{s:.3f}' for s in setup)}")
    for name, value in e2e.items():
        print(f"  {name:<20} {value:>14.4f} {units[name]}")
    print_verdict(verdict, key, correct)

    names, values = spec.end_to_end, e2e
    if args.trace:
        traced = [t for t in traced if t is not None]
        if not traced:
            print("perfbench: every traced run failed", file=sys.stderr)
            return None
        trace_file = WORK / "traces" / f"{args.workload}-{args.seed}.json"
        traced[-1].trace.write(trace_file)
        print(f"spans and counters of the last traced run: {trace_file.relative_to(ROOT)}")
        cpu_s = statistics.median(p.cpu_s for p in runs)
        names, values = spec.per_layer, layer_summary(traced, cpu_s)
        values["check.cross_replica_pairs"] = float(verdict.cross_replica if verdict else 0)
        for name in names:
            print(f"  {name:<28} {values[name]:>14.4f} {units[name]}")
    return {
        "correct": bool(correct),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }


def print_verdict(verdict, key, correct: bool) -> None:
    if verdict is None:
        print("verdict: WRONG: no analyze process printed a readable report")
        return
    print(f"verdict: {'correct' if correct else 'WRONG'}: {len(key.expected)} expected pairs; "
          f"missed {len(verdict.missed)} (provider {verdict.missed_provider}, ambiguous "
          f"helper {verdict.missed_helper}, other {verdict.missed_other}); unexplained "
          f"{len(verdict.unexplained)}; allowed: startActivity4 {verdict.allowed_fanout}, "
          f"cross-replica {verdict.cross_replica}")
    for pair in verdict.unexplained[:10]:
        print(f"  unexplained: {pair[0]} -> {pair[1]}")


def layer_summary(traced: list, analyze_cpu_s: float) -> dict[str, float]:
    """Median of each per-layer number over the run's traced runs; the
    overhead is against the analyze processes' unscaled CPU time."""
    import tracing

    runs = [tracing.layer_metrics(t) for t in traced]
    out = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
    out["trace.overhead_s"] = out["trace.wall_s"] - analyze_cpu_s
    return out


if __name__ == "__main__":
    sys.exit(main())
