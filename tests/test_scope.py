"""CFGs laid out only where a live source can reach, against full layouts.

``analyze`` has ``build_cfg`` lay out only the methods that calls reach from
a root from which a source the window does not skip can be reached. On that
CFG, ``propagate`` with the window's skipped sources must find exactly what
it finds on the CFG of every method: the same ``preds`` in the same order,
the same sink hits, the same witness paths, and the same diagnostics.
"""

from functools import lru_cache

import pytest

from iccflow import taint
from iccflow.icc import match_links, resolve_corpus
from iccflow.parser import load_corpus
from iccflow.taint import analyze, extract_paths, propagate
from test_reuse import CONFIG, REPO, _bench, _mix


def _warnings():
    apps, diags = load_corpus([str(REPO / "corpus" / "warnings")])
    assert not diags
    return apps


CORPORA = {"bench": _bench, "mix": lambda: _mix(30, 3), "mix60": lambda: _mix(60, 5),
           "warnings": _warnings}


def _laid_out(cfg):
    """The methods whose nodes ``cfg`` lays out."""
    return {n[1] for n in cfg.succ if n[0] == "entry"}


@lru_cache(maxsize=None)
def _scoped_windows(corpus, max_len):
    """Run ``analyze``, checking in each window that the scoped CFG gives
    what the full one gives; (window, skipped sources, methods laid out,
    methods) per window."""
    apps = CORPORA[corpus]()
    links = match_links(resolve_corpus(apps), apps).links
    real_cfg = taint.build_cfg
    out = []

    def cfg_of(model, config, skip):
        scoped, full = real_cfg(model, config, skip), real_cfg(model)
        keys = [(c.origin_app, c.name, m.name) for c in model.components for m in c.methods()]
        assert len(set(keys)) == len(keys) and _laid_out(full) == set(keys)
        got, want = propagate(scoped, config, skip), propagate(full, config, skip)
        assert list(got.preds.items()) == list(want.preds.items()), model.app_id
        assert got.hits == want.hits, model.app_id
        assert extract_paths(got, scoped) == extract_paths(want, full), model.app_id
        assert scoped.diagnostics == full.diagnostics, model.app_id
        out.append((model.app_id, skip, len(_laid_out(scoped)), len(keys)))
        return scoped

    with pytest.MonkeyPatch.context() as m:
        m.setattr(taint, "build_cfg", cfg_of)
        analyze(apps, links, CONFIG, max_len)
    return out


CASES = [("bench", 2), ("bench", 3), ("bench", 4), ("mix", 2), ("mix", 3), ("mix60", 2),
         ("warnings", 2), ("warnings", 3)]


@pytest.mark.parametrize("corpus, max_len", CASES)
def test_scoped_cfg_propagates_as_the_full_one(corpus, max_len):
    assert len(_scoped_windows(corpus, max_len)) > 1


def test_scoping_lays_out_less():
    sizes = [(n, total) for case in CASES for _, _, n, total in _scoped_windows(*case)]
    assert any(n == 0 for n, _ in sizes)
    assert any(0 < n < total for n, total in sizes)
    mix = [(n, total) for _, _, n, total in _scoped_windows("mix60", 2)]
    assert sum(n for n, _ in mix) < sum(total for _, total in mix)


def test_a_window_that_skips_every_source_still_warns():
    windows = _scoped_windows("warnings", 2)
    skipping = [(app_id, n) for app_id, skip, n, _ in windows if skip]
    assert ("WCaller+WHub", 0) in skipping
    apps = _warnings()
    rep = analyze(apps, match_links(resolve_corpus(apps), apps).links, CONFIG, 2)
    assert rep.sets == [("WBoot", "WHub"), ("WCaller", "WHub"), ("WHub", "WRelay")]
    assert [(d.severity, d.message) for d in rep.diagnostics] == [
        ("warning", "call to unknown method Util.missing at WHub/Main/onCreate/b0/2"),
        ("warning", "call to unknown class 'Nowhere' at WCaller/Main/onCreate/b0/1"),
        ("warning", "call to unknown method Util.missing at WHub/Main/onCreate/b0/2"),
        ("warning", "call to unknown method Util.missing at WHub/Main/onCreate/b0/2"),
        ("warning", "call to unknown method Util.launder at WRelay/Main/onCreate/b0/1"),
    ]
    assert [(str(p.source), str(p.sink)) for p in rep.paths] == [
        ("WBoot/Boot/main/b0/0", "WBoot/Boot/main/b0/2"),
        ("WHub/Main/onCreate/b0/0", "WHub/Main/onCreate/b0/1"),
    ]
