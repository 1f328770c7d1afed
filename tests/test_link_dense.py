"""The cost of the link-dense shape, pinned as deterministic counts.

``progen.gen_link_dense(n)`` links every app to every app, so at
``--max-len k`` every set of ``k`` apps is a window, and every window
tabulates every source again: no link into a component that reads its
intent is harmless. The counts below are what ``analyze`` does today: the
windows, the windows that call ``build_cfg``, and the path edges
``propagate`` records, summed over windows. A change that lowers them on
purpose updates them here.
"""

from __future__ import annotations

from math import comb

import pytest

import oracle
import progen
from iccflow import taint
from iccflow.icc import match_links, resolve_corpus
from iccflow.parser import parse_app

# (n, max_len) -> (windows, windows calling build_cfg, path edges)
COUNTS = {
    (8, 2): (28, 28, 9_352),
    (8, 3): (56, 56, 40_488),
    (12, 2): (66, 66, 22_044),
    (12, 3): (220, 220, 159_060),
}


@pytest.mark.parametrize("n, max_len", sorted(COUNTS))
def test_link_dense_cost_and_report(n, max_len):
    apps = [parse_app(text).app for text in progen.gen_link_dense(n)]
    links = match_links(resolve_corpus(apps), apps).links
    built, edges = [], []
    real_cfg, real_propagate = taint.build_cfg, taint.propagate

    def cfg_of(*args):
        built.append(args)
        return real_cfg(*args)

    def propagate(*args):
        result = real_propagate(*args)
        edges.append(len(result.preds))
        return result

    with pytest.MonkeyPatch.context() as m:
        m.setattr(taint, "build_cfg", cfg_of)
        m.setattr(taint, "propagate", propagate)
        report = taint.analyze(apps, links, progen.config(), max_len)
    assert len(report.sets) == comb(n, max_len)
    assert (len(report.sets), len(built), sum(edges)) == COUNTS[n, max_len]
    # each pair needs one link, so the oracle may stop chains after one
    # dispatch: every app's source reaches every app's sink
    want = oracle.oracle_pairs(apps, progen.config(), max_hops=1)
    assert len(want) == n * n
    assert {(p.source, p.sink) for p in report.paths} == want
    assert not report.diagnostics
