"""Idle windows: a window with no live source and only quiet apps is not built.

``analyze`` must report exactly what it reports when every window runs in
full: the same paths with the same witnesses, the same diagnostics in the
same order, and the same windows. The full path is forced by patching the
idle decision, ``_Reuse.idle``, to answer ``False``.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

import progen
from iccflow import taint
from iccflow.icc import IccLink, match_links, resolve_corpus
from iccflow.ir import StmtId
from iccflow.parser import load_corpus, parse_app
from iccflow.taint import SourceSinkConfig, analyze
from test_reuse import CONFIG, REPO, _mix

# names every sink of CONFIG and no source: every window holds no live source
NO_SOURCES = SourceSinkConfig(frozenset(), CONFIG.sinks)


def _run(apps, config, max_len, full=False, extra=()):
    """The report, each window's idle decision, and the number of
    ``build_cfg`` calls; with ``full``, no window is idle. ``extra`` links
    are analyzed on top of the matched ones."""
    links = match_links(resolve_corpus(apps), apps).links + list(extra)
    decisions, built = [], []
    real_idle, real_cfg = taint._Reuse.idle, taint.build_cfg

    def idle(reuse, *args):
        decisions.append(False if full else real_idle(reuse, *args))
        return decisions[-1]

    def cfg_of(*args):
        built.append(args)
        return real_cfg(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(taint._Reuse, "idle", idle)
        m.setattr(taint, "build_cfg", cfg_of)
        report = analyze(apps, links, config, max_len)
    return report, decisions, len(built)


def _assert_idle_is_exact(apps, config, max_len, extra=()):
    """Returns the number of idle windows."""
    got, decisions, built = _run(apps, config, max_len, extra=extra)
    want, _, built_in_full = _run(apps, config, max_len, full=True, extra=extra)
    assert got.paths == want.paths  # witness statement lists included
    assert got.diagnostics == want.diagnostics
    assert got.sets == want.sets
    assert built_in_full - built == sum(decisions)  # only the idle windows skip build_cfg
    return sum(decisions)


@lru_cache(maxsize=None)
def _corpus(name):
    if name == "mix":
        return _mix(30, 3)
    apps, diags = load_corpus([str(REPO / "corpus" / name)])
    assert not diags
    return apps


@pytest.mark.parametrize("config", [CONFIG, NO_SOURCES], ids=["config", "no_sources"])
@pytest.mark.parametrize(
    "corpus, max_len",
    [("bench", 2), ("bench", 3), ("bench", 4), ("warnings", 2), ("warnings", 3), ("mix", 2), ("mix", 3)],
)
def test_idle_windows_report_what_the_full_path_reports(corpus, max_len, config):
    idle = _assert_idle_is_exact(_corpus(corpus), config, max_len)
    if corpus == "mix" or corpus == "bench" and config is NO_SOURCES:
        assert idle > 0


@pytest.mark.parametrize("seed", range(10))
def test_idle_windows_on_generated_corpora(seed):
    apps = progen.gen_apps(seed)
    for max_len in (2, 3):
        _assert_idle_is_exact(apps, progen.config(), max_len)


def _apps(*texts):
    out = []
    for text in texts:
        r = parse_app(text)
        assert r.ok, [str(d) for d in r.diagnostics]
        out.append(r.app)
    return out


def _activity(app, action, body, sends=()):
    """One app of one activity that accepts ``action``, runs ``body`` in
    ``onCreate`` and then starts an implicit intent per action in ``sends``."""
    lines = [f"      {line}" for line in body]
    for n, sent in enumerate(sends):
        lines += [f"      i{n} = new_intent", f'      set_action i{n} "{sent}"', f"      icc start_activity i{n}"]
    return (
        f'app "{app}" {{\n  component activity Main {{\n    filter {{ action "{action}"; }}\n'
        "    method onCreate(this) {\n" + "\n".join(lines) + "\n    }\n  }\n}\n"
    )


# H holds a live source; Q and R hold none, and R is started by Q only
HUB = _activity("H", "toH", ['x = source "getDeviceId"', 'sink "writeLog" x'])
QUIET_Q = _activity("Q", "toQ", ["g = get_intent"], sends=["toR"])
QUIET_R = _activity("R", "toR", ["g = get_intent"])


def test_an_app_that_warns_warns_in_its_idle_and_its_live_window():
    loud = _activity("Loud", "MAIN", ['c = "clean"', "v = call Nowhere.run(c)"], sends=["toH", "toQ"])
    apps = _apps(HUB, loud, QUIET_Q, QUIET_R)
    report, decisions, built = _run(apps, CONFIG, 2)
    assert report.sets == [("H", "Loud"), ("Loud", "Q"), ("Q", "R")]
    # (Loud, Q) holds no live source, but Loud is not quiet
    assert decisions == [False, False, True] and built == 2
    warned = [str(d) for d in report.diagnostics]
    assert warned == ["<input>: warning: call to unknown class 'Nowhere' at Loud/Main/onCreate/b0/1"] * 2
    _assert_idle_is_exact(apps, CONFIG, 2)


def test_an_app_that_fails_instrumentation_reports_it_in_its_idle_window():
    bad = _activity("Bad", "MAIN", ['c = "clean"'], sends=["toH", "toQ"])
    bad = bad.replace("\n  }\n}\n", "\n    method ctor(this) {\n    }\n  }\n}\n")
    apps = _apps(HUB, bad, QUIET_Q, QUIET_R)
    report, decisions, built = _run(apps, CONFIG, 2)
    assert report.sets == [("Bad", "H"), ("Bad", "Q"), ("Q", "R")]
    assert decisions == [False, False, True] and built == 0
    # each window is instrumented whole, once Bad's own part failed
    failed = "model is already instrumented (synthetic markers or reserved names present)"
    errors = [(d.severity, d.message) for d in report.diagnostics]
    assert errors == [("error", f"Bad+H: {failed}"), ("error", f"Bad+Q: {failed}")]
    _assert_idle_is_exact(apps, CONFIG, 2)


def test_a_window_whose_sources_are_all_unconfigured_is_idle():
    decoy = f'x = source "{progen.DECOY_SOURCE}"'
    apps = _apps(
        _activity("A", "MAIN", [decoy, 'sink "writeLog" x'], sends=["toB", "toC"]),
        _activity("B", "toB", [decoy, 'sink "writeLog" x']),
        _activity("C", "toC", ["g = get_intent"]),
    )
    report, decisions, built = _run(apps, CONFIG, 2)
    assert report.sets == [("A", "B"), ("A", "C")]
    assert decisions == [True, True] and built == 0
    assert not report.paths and not report.diagnostics
    # with the decoy configured, the first window reports A's and B's
    # leaks, and the second skips A's source, which stays in A: idle again
    live = SourceSinkConfig(CONFIG.sources | {progen.DECOY_SOURCE}, CONFIG.sinks)
    report, decisions, built = _run(apps, live, 2)
    assert decisions == [False, True] and built == 1 and len(report.paths) == 2
    _assert_idle_is_exact(apps, live, 2)


@pytest.mark.parametrize(
    "site, error",
    [
        (StmtId("A", "Main", "onCreate", "b0", 0), "is not an icc call"),
        (StmtId("A", "Main", "onCreate", "b0", 99), "no longer exists"),
    ],
    ids=["not_icc", "missing"],
)
def test_an_idle_window_does_not_swallow_an_instrumentation_error(site, error):
    """A link from a statement that is no ICC call, or from none at all,
    fails each window its app lies in, though no window holds a source."""
    sender = _activity("A", "-", ['x = "s"'], sends=["GO"]).replace('    filter { action "-"; }\n', "")
    apps = _apps(sender, _activity("B", "GO", ["g = get_intent"]), _activity("C", "GO", ["g = get_intent"]))
    assert not apps[0].components[0].filters
    report, decisions, built = _run(apps, NO_SOURCES, 2)
    assert report.sets == [("A", "B"), ("A", "C")]
    assert decisions == [True, True] and not report.diagnostics
    bad = IccLink(site, "start_activity", "A/Main", True, False)
    report, decisions, built = _run(apps, NO_SOURCES, 2, extra=[bad])
    assert report.sets == [("A", "B"), ("A", "C")]
    assert decisions == [False, False] and built == 0
    message = f"link source statement {site} {error}"
    assert [(d.severity, d.message) for d in report.diagnostics] == [("error", message)] * 2
    _assert_idle_is_exact(apps, NO_SOURCES, 2, extra=[bad])
