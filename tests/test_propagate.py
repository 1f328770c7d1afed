"""``propagate`` against the tabulation it replaced, and its witnesses.

``propagate`` seeds ``ZERO`` only at roots, and passes it only into callees,
from whose entry a live source (configured, not skipped) can be reached. It
keeps one record per path edge. The reference below is the tabulation before
those changes: it seeds every root, enters every callee under ``ZERO``, and
keys its records by (node, fact). Both must leave the same non-``ZERO`` path
edges, the same records keyed by (node, fact) in insertion order, and the
same sink hits in the same order, since witness paths and the merge of
windows read them. Every witness must be realizable: each call it enters,
it returns from to the same call.
"""

import itertools
import random
from collections import deque
from contextlib import contextmanager
from functools import lru_cache

import pytest

from iccflow import taint
from iccflow.icc import match_links, resolve_corpus
from iccflow.ir import SinkCall, SourceCall
from iccflow.parser import parse_app
from iccflow.taint import (
    RET,
    ZERO,
    Fact,
    SinkHit,
    TaintResult,
    _map_back,
    _map_into,
    _stmt_flow,
    analyze,
    extract_paths,
    propagate,
)
from test_reuse import CONFIG, _bench, _mix, _node_records, _window_cfgs


def _reference_propagate(cfg, config, skip=frozenset()):
    """The tabulation without pruning, every root seeded and every callee
    entered under ``ZERO``: its result, records keyed by (node, fact), and
    its path edges."""
    result = TaintResult()
    preds = result.preds
    path_edges = set()
    work = deque()
    end_summary = {}
    incoming = {}

    def prop(mk, d1, n, d2, pred):
        key = (mk, d1, n, d2)
        if key in path_edges:
            return
        path_edges.add(key)
        if pred is not None:
            preds.setdefault((n, d2), pred)
        work.append(key)

    for root in cfg.roots:
        prop(root[1], ZERO, root, ZERO, None)

    def apply_summary(caller_mk, caller_d1, call_node, d_at_call, info, exit_node, d_exit):
        ret_node = ("ret", call_node[1])
        for dr in _map_back(d_exit, info):
            prop(caller_mk, caller_d1, ret_node, dr,
                 ("summary", call_node, d_at_call, exit_node, d_exit))

    while work:
        mk, d1, n, d2 = work.popleft()
        kind = n[0]

        if kind == "stmt":
            sid = n[1]
            stmt = cfg.stmts[sid]
            if (
                isinstance(stmt, SinkCall)
                and stmt.sink in config.sinks
                and d2 is not ZERO
                and d2.base == stmt.var
            ):
                result.hits.append(SinkHit(d2, sid, (mk, d1, n, d2), stmt.sink))

            info = cfg.calls.get(sid)
            if info is not None:
                callee = info.callee
                mapped = [ZERO] if d2 is ZERO else _map_into(d2, info)
                for dp in mapped:
                    prop(callee, dp, ("entry", callee), dp,
                         ("xfer", n, d2) if dp is not ZERO else None)
                    ckey = (callee, dp)
                    waiters = incoming.setdefault(ckey, [])
                    item = (n, d2, mk, d1)
                    if item not in waiters:
                        waiters.append(item)
                    for d_exit in end_summary.get(ckey, ()):
                        apply_summary(mk, d1, n, d2, info, ("exit", callee), d_exit)
                if d2 is ZERO:
                    prop(mk, d1, ("ret", sid), ZERO, None)
                elif info.dst is not None and d2.base == info.dst:
                    pass
                elif d2.base in info.args and d2.chain:
                    pass
                else:
                    prop(mk, d1, ("ret", sid), d2, ("flow", n, d2))
                continue

        if kind == "exit":
            skey = (mk, d1)
            sums = end_summary.setdefault(skey, {})
            if d2 in sums:
                continue
            sums[d2] = None
            for call_node, d_at_call, caller_mk, caller_d1 in list(incoming.get(skey, ())):
                info = cfg.calls[call_node[1]]
                apply_summary(caller_mk, caller_d1, call_node, d_at_call, info, n, d2)
            continue

        if kind == "stmt":
            stmt = cfg.stmts[n[1]]
            if d2 is ZERO:
                outs = [(ZERO, None)]
                if (
                    isinstance(stmt, SourceCall)
                    and stmt.source in config.sources
                    and stmt.sid not in skip
                ):
                    outs.append((Fact(stmt.dst, (), stmt.sid), ("gen", n)))
            else:
                outs = [(f, ("flow", n, d2)) for f in _stmt_flow(stmt, d2)]
        elif kind == "retval":
            if d2 is ZERO:
                outs = [(ZERO, None)]
            else:
                outs = [(d2, ("flow", n, d2))]
                rv = cfg.retvar.get(n[1])
                if rv is not None and d2.base == rv:
                    outs.append((Fact(RET, d2.chain, d2.origin), ("flow", n, d2)))
        else:  # entry, ret
            outs = [(d2, ("flow", n, d2) if d2 is not ZERO else None)]
        for m, _ in cfg.succ.get(n, ()):
            for f, pred in outs:
                prop(mk, d1, m, f, pred)

    return result, path_edges


def _assert_same(cfg, skip):
    got = propagate(cfg, CONFIG, skip)
    want, want_edges = _reference_propagate(cfg, CONFIG, skip)
    assert list(_node_records(got.preds).items()) == list(want.preds.items())
    assert {k for k in got.preds if k[3] is not ZERO} == {k for k in want_edges if k[3] is not ZERO}
    assert got.hits == want.hits
    return got


def _realizable(nodes):
    """Whether each exit -> ret step of a witness walk returns to the call
    of the call -> entry step it matches, when the walk made one."""
    pending = []
    for a, b in zip(nodes, nodes[1:]):
        if b[0] == "entry":
            pending.append((a[1], b[1]))
        elif a[0] == "exit" and pending and pending.pop() != (b[1], a[1]):
            return False
    return True


@contextmanager
def _walks():
    """Collect the node walk of every witness ``extract_paths`` builds."""
    walks, real = [], taint._trace

    def trace(edge, preds):
        walks.append(real(edge, preds))
        return walks[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(taint, "_trace", trace)
        yield walks


def _sources(cfg):
    return sorted(
        sid for sid, stmt in cfg.stmts.items()
        if isinstance(stmt, SourceCall) and stmt.source in CONFIG.sources
    )


def _windows(apps, max_len):
    """Each window's CFG with the sources ``analyze`` skipped in it, and the
    node walks of the witnesses it built."""
    links = match_links(resolve_corpus(apps), apps).links
    out = []
    real = taint.propagate

    def record(cfg, config, skip=frozenset()):
        out.append((cfg, skip))
        return real(cfg, config, skip)

    with pytest.MonkeyPatch.context() as m, _walks() as walks:
        m.setattr(taint, "propagate", record)
        analyze(apps, links, CONFIG, max_len)
    return out, walks


@lru_cache(maxsize=None)
def _corpus_windows(corpus, max_len):
    return _windows(_bench() if corpus == "bench" else _mix(30, 3), max_len)


CORPORA = [("bench", 2), ("bench", 3), ("bench", 4), ("mix", 2), ("mix", 3)]


@pytest.mark.parametrize("corpus, max_len", CORPORA)
def test_every_witness_analyze_builds_is_realizable(corpus, max_len):
    _, walks = _corpus_windows(corpus, max_len)
    assert len(walks) > 10
    assert [w for w in walks if not _realizable(w)] == []


@pytest.mark.parametrize("corpus, max_len", CORPORA)
def test_matches_the_reference_with_the_skips_analyze_makes(corpus, max_len):
    windows, _ = _corpus_windows(corpus, max_len)
    assert len(windows) > 10
    for cfg, skip in windows:
        _assert_same(cfg, skip)
    if corpus == "mix":
        assert any(skip for _, skip in windows)


@pytest.mark.parametrize("corpus, max_len", CORPORA)
def test_matches_the_reference_with_half_the_sources_skipped(corpus, max_len):
    rng = random.Random(f"{corpus}-{max_len}")
    for cfg, _ in _window_cfgs(corpus, max_len):
        sources = _sources(cfg)
        _assert_same(cfg, frozenset(rng.sample(sources, len(sources) // 2)))


# ---------------------------------------------------------------------------
# hand cases: each way a live source can sit behind calls
# ---------------------------------------------------------------------------

HELPER_TWO_SITES = """
app "A" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      x = call Util.get()
      sink "writeLog" x
      y = call Util.get()
      sink "sendToUrl" y
    }
  }
  class Util {
    method get() {
      s = source "getDeviceId"
      return s
    }
  }
}
"""

# both calls pass the same fact into one callee context, which the first
# call entered: the second sink's witness must return to the second call
IDENTITY_TWO_SITES = """
app "A" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      x = source "getDeviceId"
      a = call Util.id(x)
      sink "writeLog" a
      b = call Util.id(x)
      sink "sendToUrl" b
    }
  }
  class Util {
    method id(v) {
      return v
    }
  }
}
"""

# A holds no source: B's source reaches A only through the redirect call
# that stands for A's result call, which A's onCreate makes under ZERO
ASKER = """
app "A" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      i = new_intent
      set_target i "B/Echo"
      icc start_activity_for_result i
    }
    method onActivityResult(this, r) {
      v = get_extra r "k"
      sink "writeLog" v
    }
  }
}
"""

ECHO = """
app "B" {
  component activity Echo {
    method onCreate(this) {
      x = source "getDeviceId"
      j = new_intent
      put_extra j "k" x
      set_result j
    }
  }
}
"""

CALL_CHAIN = """
app "A" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      x = call Mid.get()
      sink "writeLog" x
    }
  }
  class Mid {
    method get() {
      y = call Leaf.get()
      return y
    }
  }
  class Leaf {
    method get() {
      s = source "getDeviceId"
      return s
    }
  }
}
"""

RECURSION = """
app "A" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      c = "clean"
      x = call R.f(c)
      sink "writeLog" x
    }
  }
  class R {
    method f(n) {
      s = source "getDeviceId"
      branch go stop
    go:
      y = call R.g(s)
      return y
    stop:
      return s
    }
    method g(n) {
      z = call R.f(n)
      return z
    }
  }
}
"""

# A's taint reaches B; B and C have sources of their own
SENDER = """
app "A" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      x = source "getDeviceId"
      i = new_intent
      set_target i "B/Recv"
      put_extra i "k" x
      icc start_activity i
    }
  }
}
"""

RECEIVER = """
app "B" {
  component activity Recv {
    method onCreate(this) {
      i = get_intent
      v = get_extra i "k"
      sink "writeLog" v
      w = source "getLocation"
      sink "sendToUrl" w
    }
  }
}
"""

LONER = """
app "C" {
  component activity Solo {
    filter { action "com.c.SOLO"; }
    method onCreate(this) {
      x = source "getSimSerialNumber"
      sink "writeLog" x
    }
  }
}
"""

# a source statement with two successors: per successor, ZERO is pushed
# before the generated fact, which decides whether the right arm's own
# source is met before the left arm's taint moves on
BRANCHING_SOURCE = """
app "A" {
  component activity Main {
    filter { action "MAIN"; }
    method onCreate(this) {
      x = source "getDeviceId"
      branch bl br
    bl:
      a = x
      sink "writeLog" a
      return
    br:
      y = source "getLocation"
      sink "sendToUrl" y
    }
  }
}
"""

HAND = {
    "helper_two_sites": (
        [HELPER_TWO_SITES],
        {("A/Util/get/b0/0", "A/Main/onCreate/b0/1"), ("A/Util/get/b0/0", "A/Main/onCreate/b0/3")},
    ),
    "identity_two_sites": (
        [IDENTITY_TWO_SITES],
        {("A/Main/onCreate/b0/0", "A/Main/onCreate/b0/2"),
         ("A/Main/onCreate/b0/0", "A/Main/onCreate/b0/4")},
    ),
    "redirect_only": (
        [ASKER, ECHO],
        {("B/Echo/onCreate/b0/0", "A/Main/onActivityResult/b0/1")},
    ),
    "call_chain": ([CALL_CHAIN], {("A/Leaf/get/b0/0", "A/Main/onCreate/b0/1")}),
    "recursion": ([RECURSION], {("A/R/f/b0/0", "A/Main/onCreate/b0/2")}),
    "skipped_app": (
        [SENDER, RECEIVER, LONER],
        {
            ("A/Main/onCreate/b0/0", "B/Recv/onCreate/b0/2"),
            ("B/Recv/onCreate/b0/3", "B/Recv/onCreate/b0/4"),
            ("C/Solo/onCreate/b0/0", "C/Solo/onCreate/b0/1"),
        },
    ),
    "branching_source": (
        [BRANCHING_SOURCE],
        {("A/Main/onCreate/b0/0", "A/Main/onCreate/bl/1"),
         ("A/Main/onCreate/br/0", "A/Main/onCreate/br/1")},
    ),
}


@pytest.mark.parametrize("case", sorted(HAND))
def test_hand_case_matches_the_reference_under_every_skip(case):
    texts, want = HAND[case]
    apps = [parse_app(text).app for text in texts]
    found = set()
    windows, walks = _windows(apps, 3)
    for cfg, _ in windows:
        sources = _sources(cfg)
        for k in range(len(sources) + 1):
            for skip in itertools.combinations(sources, k):
                res = _assert_same(cfg, frozenset(skip))
                with _walks() as more:
                    paths = extract_paths(res, cfg)
                walks += more
                if not skip:
                    found |= {(str(p.source), str(p.sink)) for p in paths}
    assert found == want
    assert walks and [w for w in walks if not _realizable(w)] == []


def test_an_app_whose_sources_are_all_skipped_seeds_nothing_of_its_own():
    apps = [parse_app(text).app for text in (SENDER, RECEIVER)]
    ((cfg, _),), _ = _windows(apps, 2)
    res = _assert_same(cfg, frozenset(s for s in _sources(cfg) if s.app == "B"))
    # A's taint still reaches B's sink
    assert {(str(p.source), str(p.sink)) for p in extract_paths(res, cfg)} == {
        ("A/Main/onCreate/b0/0", "B/Recv/onCreate/b0/2")
    }
