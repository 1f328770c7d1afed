"""Acceptance gate: the eight shipping criteria, one visible line each.

Each test prints ``[acceptance] criterion N: PASS/FAIL — detail`` before
asserting, so a plain ``pytest -v`` run shows one status line per criterion
(via the test name) and ``-s`` adds the measured detail.
"""

import random
import time
from pathlib import Path

import oracle
import progen
from iccflow.bench import Metrics, render_bench, run_bench, score, CaseResult
from iccflow.combine import IacGraph, combine, split_graph
from iccflow.icc import IccLink, match_links, resolve_corpus
from iccflow.instrument import instrument_model
from iccflow.ir import Const, StmtId
from iccflow.parser import load_app, parse_app, serialize_app
from iccflow.taint import analyze

PROVIDER_CASES = {"delete1", "insert1", "query1", "update1"}


def check(n, ok, detail):
    print(f"[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


def _pairs(apps, links, config):
    return {(p.source, p.sink) for p in analyze(apps, links, config).paths}


def _full(apps, config):
    links = match_links(resolve_corpus(apps), apps).links
    return _pairs(apps, links, config)


# ---------------------------------------------------------------------------


def test_criterion_1_benchmark_totals(bench_root, default_config):
    started = time.perf_counter()
    report = run_bench(str(bench_root), default_config)
    elapsed = time.perf_counter() - started
    m = report.metrics
    fp_cases = {c.name for c in report.cases if c.fp}
    fn_cases = {c.name for c in report.cases if c.fn}
    rendered = render_bench(report)
    ok = (
        (m.hits, m.fp, m.fn) == (19, 1, 4)
        and fp_cases == {"startActivity4"}
        and fn_cases == PROVIDER_CASES
        and all(c.valid for c in report.cases)
        and len(report.cases) == 23
        and "Precision: 95.0%" in rendered
        and "Recall: 82.6%" in rendered
        and "F1: 0.88" in rendered
        and elapsed < 10.0
    )
    check(
        1,
        ok,
        f"23 cases -> {m.hits} hits / {m.fp} false warning / {m.fn} missed; "
        f"95.0% / 82.6% / 0.88 in {elapsed:.2f}s",
    )


def test_criterion_2_metric_formulas():
    strong = score([CaseResult(name="s", hits=19, fp=1, fn=4)])
    weak = score([CaseResult(name="w", hits=16, fp=51, fn=7)])
    st, wt = render_bench(strong), render_bench(weak)
    from fractions import Fraction

    ok = (
        "Precision: 95.0%" in st
        and "Recall: 82.6%" in st
        and "F1: 0.88" in st
        and strong.metrics.f1 == Fraction(38, 43)
        and "Precision: 23.9%" in wt
        and "Recall: 69.6%" in wt
        and "F1: 0.36" in wt
    )
    check(2, ok, "score({19,1,4}) -> 95.0/82.6/0.88 and score({16,51,7}) -> 23.9/69.6/0.36")


def test_criterion_3_motivating_example(repo_root, default_config):
    path = repo_root / "corpus" / "motivating" / "listing1.cir"
    parsed = load_app(str(path))
    assert parsed.ok, parsed.diagnostics
    app = parsed.app
    links = match_links(resolve_corpus([app]), [app]).links
    report = analyze([app], links, default_config)

    tags = {s.sid: s.tag for _c, _m, _b, s in app.iter_stmts() if s.tag}
    flows = {(tags.get(p.source), tags.get(p.sink)) for p in report.paths}
    instrumented = serialize_app(instrument_model(app, links))
    golden = (repo_root / "tests" / "golden" / "listing1_instrumented.cir").read_text(
        encoding="utf-8"
    )
    ok = (
        len(report.paths) == 2
        and all(p.klass == "ICC" for p in report.paths)
        and flows == {("device_id", "sms_sink"), ("sim_serial", "log_sink")}
        and instrumented == golden
        and "class IpcSC" in instrumented
        and "redirect0" in instrumented
        and "intent_for_ipc" in instrumented
        and "intent_for_ar" in instrumented
        and instrumented.count("method dummyMain") == 3  # one per component
    )
    check(3, ok, f"2 ICC paths {sorted(flows)}; instrumented dump matches golden snapshot")


def test_criterion_4_oracle_equivalence():
    config = progen.config()
    mismatches = []
    total_pairs = 0
    started = time.perf_counter()
    for seed in range(500):
        apps = progen.gen_apps(seed)
        links = match_links(resolve_corpus(apps), apps).links
        engine = _pairs(apps, links, config)
        concrete = oracle.oracle_pairs(apps, config)
        total_pairs += len(concrete)
        if engine != concrete:
            mismatches.append(seed)
    elapsed = time.perf_counter() - started
    check(
        4,
        not mismatches,
        f"500 generated programs, {total_pairs} concrete leak pairs, "
        f"{len(mismatches)} mismatches in {elapsed:.1f}s"
        + (f" (seeds {mismatches[:5]})" if mismatches else ""),
    )


FIG8_HOT = """
  component activity Hot {
    filter { action "HOT"; }
    method onCreate(this) {
      x = source "getDeviceId"
      i = new_intent
      set_target i "Echo"
      put_extra i "v" x
      icc start_activity_for_result i
    }
    method onActivityResult(this, r) {
      d = get_extra r "v"
      sink "writeLog" d
    }
  }
"""

FIG8_COLD = FIG8_HOT.replace("Hot", "Cold").replace('"HOT"', '"COLD"').replace(
    'x = source "getDeviceId"', 'x = "benign"'
).replace('sink "writeLog" d', 'sink "sendTextMessage" d')

FIG8_ECHO = """
  component activity Echo {
    method onCreate(this) {
      g = get_intent
      v = get_extra g "v"
      k = new_intent
      put_extra k "v" v
      set_result k
      finish
    }
  }
"""


def _fig8(*parts):
    r = parse_app('app "F" {' + "".join(parts) + "}")
    assert r.ok, [str(d) for d in r.diagnostics]
    return r.app


def test_criterion_5_shared_listener(default_config):
    both = _full([_fig8(FIG8_HOT, FIG8_COLD, FIG8_ECHO)], default_config)
    hot_only = _full([_fig8(FIG8_HOT, FIG8_ECHO)], default_config)
    cold_only = _full([_fig8(FIG8_COLD, FIG8_ECHO)], default_config)

    hot_pair = (
        StmtId("F", "Hot", "onCreate", "b0", 0),
        StmtId("F", "Hot", "onActivityResult", "b0", 1),
    )
    of_hot = {p for p in both if p[1].cls == "Hot"}
    of_cold = {p for p in both if p[1].cls == "Cold"}
    ok = (
        both == {hot_pair}  # the one real leak, nothing cross-caller
        and of_cold == set()  # Cold's sink never pairs with Hot's source
        and of_hot == hot_only  # deleting Cold leaves Hot untouched
        and cold_only == set()  # deleting Hot leaves Cold untouched
    )
    check(
        5,
        ok,
        "two callers sharing one result-echoing target: "
        f"{len(both)} pair(s), zero cross-caller, deletion-stable",
    )


def _case_dirs(bench_root):
    return sorted(d for d in Path(bench_root).iterdir() if (d / "truth").exists())


def _load_case(case):
    apps = []
    for f in sorted(case.glob("*.cir")):
        r = load_app(str(f))
        assert r.ok, (case, r.diagnostics)
        apps.append(r.app)
    return apps


def test_criterion_6_combiner_equivalence(bench_root, default_config):
    two_app = []
    for case in _case_dirs(bench_root):
        apps = _load_case(case)
        if len(apps) == 2:
            two_app.append((case.name, apps))
    assert len(two_app) >= 3, "expected the cross-app cases to be present"

    unequal = []
    for name, apps in two_app:
        links = match_links(resolve_corpus(apps), apps).links
        split_run = _pairs(apps, links, default_config)
        merged_run = _pairs([combine(apps)], links, default_config)
        if split_run != merged_run:
            unequal.append(name)

    # window coverage versus a brute-force walk enumerator: every app set
    # that one walk along link direction covers lies inside an emitted set
    rng = random.Random(0xC0FFEE)
    uncovered = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        nodes = [f"N{i}" for i in range(n)]
        g = IacGraph(nodes=sorted(nodes))
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                if rng.random() < rng.choice((0.15, 0.4)):
                    src, dst = (a, b) if rng.random() < 0.5 else (b, a)
                    kind = rng.choice(("start_activity", "start_activity_for_result"))
                    g.edges.setdefault((src, dst), []).append(
                        IccLink(StmtId(src, "M", "m", "b0", 0), kind, f"{dst}/T", True, True)
                    )
        max_len = rng.randint(1, 4)
        windows = split_graph(g, max_len=max_len)
        links = [link for group in g.edges.values() for link in group]
        for walk in oracle.walk_covered_sets(nodes, links, max_len):
            if not any(walk <= w for w in windows):
                uncovered += 1
    ok = not unequal and uncovered == 0
    check(
        6,
        ok,
        f"{len(two_app)} two-app cases combine-equivalent; "
        f"200 random graphs fully walk-covered"
        + (f" (unequal: {unequal})" if unequal else ""),
    )


def _with_kill(apps, origin):
    """Copies of ``apps`` with a clean reassignment right after ``origin``."""
    out = []
    for app in apps:
        copy = parse_app(serialize_app(app), path=app.source_path).app
        assert copy is not None
        if app.app_id == origin.app:
            comp = copy.find_qualified(f"{origin.app}/{origin.cls}")
            method = comp.find_method(origin.method)
            block = next(b for b in method.blocks if b.label == origin.block)
            src = block.stmts[origin.index]
            block.stmts.insert(origin.index + 1, Const(dst=src.dst, value="overwritten"))
            reparsed = parse_app(serialize_app(copy), path=app.source_path).app
            assert reparsed is not None
            copy = reparsed
        out.append(copy)
    return out


def _shift(sid, origin):
    if (
        (sid.app, sid.cls, sid.method, sid.block)
        == (origin.app, origin.cls, origin.method, origin.block)
        and sid.index > origin.index
    ):
        return StmtId(sid.app, sid.cls, sid.method, sid.block, sid.index + 1)
    return sid


def test_criterion_7_flow_sensitivity(repo_root, bench_root, default_config):
    cases = [_load_case(c) for c in _case_dirs(bench_root)]
    cases.append([load_app(str(repo_root / "corpus" / "motivating" / "listing1.cir")).app])

    leaks = 0
    broken = []
    for apps in cases:
        before = _full(apps, default_config)
        for origin, sink in sorted(before):
            leaks += 1
            killed = _full(_with_kill(apps, origin), default_config)
            expected = {
                (_shift(s, origin), _shift(k, origin))
                for s, k in before
                if s != origin
            }
            if killed != expected:
                broken.append(("kill", str(origin)))
                continue
            restored = _full(apps, default_config)  # the kill removed, verbatim rerun
            if (origin, sink) not in restored or restored != before:
                broken.append(("restore", str(origin)))
    ok = not broken and leaks >= 20
    check(
        7,
        ok,
        f"{leaks} corpus leaks: killing after the source removes exactly that "
        f"origin's pairs, reverting restores them" + (f" (broken: {broken[:3]})" if broken else ""),
    )


def test_criterion_8_market_scale_excluded():
    note = (
        "market-scale analysis (thousands of apps, ~100 wall-clock hours) is "
        "intentionally out of scope for this artifact; the randomized equivalence "
        "and property suites of criteria 4-7 stand in for it"
    )
    check(8, True, note)
