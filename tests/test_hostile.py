"""The cost of hostile shapes, pinned as deterministic counts.

Each case pins what ``analyze`` does today on a shape that stresses one
part of it, by events rather than seconds: the path edges ``propagate``
records, summed over windows, or the windows ``split_graph`` makes. Each
runs in about a second or less.

* A block of copies ``x1 = x0; ...; xn = xn-1`` from a source to a sink.
  Its path edges grow with the square of ``n`` (504,513 at ``n = 1,000``):
  each copy's fact is carried to the end of the block, though only the
  next statement reads it. Dropping dead facts
  in ``propagate`` (the roadmap's direction 2) is expected to lower this
  count on purpose, and then updates it here.
* A chain of 5,000 helper calls from a source to a sink, one frame each.
* The window plan of ``progen.gen_link_dense(30)``, where every app links
  to every app, so every set of ``--max-len`` apps is a window.
"""

from __future__ import annotations

from math import comb

import pytest

import progen
from iccflow import taint
from iccflow.combine import build_iac_graph, holders, split_graph
from iccflow.icc import match_links, resolve_corpus
from iccflow.parser import parse_app
from test_taint import CONF


def _copies(n: int) -> str:
    body = "".join(f"      x{i} = x{i - 1}\n" for i in range(1, n + 1))
    return f"""
app "A" {{
  component activity Main {{
    filter {{ action "MAIN"; }}
    method onCreate(this) {{
      x0 = source "getDeviceId"
{body}      sink "writeLog" x{n}
    }}
  }}
}}
"""


def _helpers(n: int) -> str:
    helpers = "".join(
        f"    method h{i}(x) {{\n      y = call H.h{i + 1}(x)\n      return y\n    }}\n"
        for i in range(n)
    )
    return f"""
app "A" {{
  component activity Main {{
    filter {{ action "MAIN"; }}
    method onCreate(this) {{
      x = source "getDeviceId"
      y = call H.h0(x)
      sink "writeLog" y
    }}
  }}
  class H {{
{helpers}    method h{n}(x) {{
      return x
    }}
  }}
}}
"""


def _path_edges(text: str) -> tuple[int, int]:
    """(pairs reported, path edges summed over windows) of one app."""
    apps = [parse_app(text).app]
    links = match_links(resolve_corpus(apps), apps).links
    edges = []
    real = taint.propagate

    def propagate(*args):
        result = real(*args)
        edges.append(len(result.preds))
        return result

    with pytest.MonkeyPatch.context() as m:
        m.setattr(taint, "propagate", propagate)
        report = taint.analyze(apps, links, CONF)
    assert not report.diagnostics
    return len(report.paths), sum(edges)


def test_a_block_of_copies():
    assert _path_edges(_copies(300)) == (1, 46_363)


def test_a_deep_chain_of_helper_calls():
    assert _path_edges(_helpers(5_000)) == (1, 45_025)


@pytest.mark.parametrize("max_len, windows", [(2, 435), (3, 4_060)])
def test_the_window_plan_of_a_link_dense_corpus(max_len, windows):
    apps = [parse_app(text).app for text in progen.gen_link_dense(30)]
    links = match_links(resolve_corpus(apps), apps).links
    plan = split_graph(build_iac_graph(apps, links, holders(apps)), max_len)
    assert len(plan) == windows == comb(30, max_len)
