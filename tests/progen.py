"""Seeded generator of small corpora for differential testing.

Emits program text in the component IR, constrained so the static analysis
is *exact* on the result: every intent's routing attributes are set once,
straight-line, with literal values, before the send; extras and fields only
ever hold strings; intents are never aliased through assignment nor relayed
onward after being received; dispatch is acyclic; fields are read and
written only through ``this``. Under these restrictions the analysis and the
concrete interpreter in ``oracle`` must report identical (source, sink)
pairs, which is what the differential test checks.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Optional

from iccflow.ir import AppModel
from iccflow.parser import parse_app
from iccflow.taint import SourceSinkConfig, parse_config

SOURCES = ("getDeviceId", "getLocation", "getSimSerialNumber")
SINKS = ("sendTextMessage", "writeLog", "sendToUrl")
DECOY_SOURCE = "getInstallId"  # not in the config: always clean
DECOY_SINK = "printDebug"  # not in the config: never reports
KEYS = ("imei", "loc", "tok", "pay")

CONFIG_TEXT = "".join(f"source {s}\n" for s in SOURCES) + "".join(
    f"sink {s}\n" for s in SINKS
)

STMT_BUDGET = 54  # keeps generated corpora comfortably inside the oracle's reach


def config() -> SourceSinkConfig:
    return parse_config(CONFIG_TEXT)


@dataclass
class _MethodPlan:
    decl: str  # "method" | "callback"
    name: str
    params: tuple[str, ...]
    prefix: list[str] = field(default_factory=list)
    arm_a: Optional[list[str]] = None
    arm_b: Optional[list[str]] = None
    join: list[str] = field(default_factory=list)
    counter: int = 0
    intent_var: Optional[str] = None  # var holding get_intent, if any

    def fresh(self, stem: str = "v") -> str:
        self.counter += 1
        return f"{stem}{self.counter}"

    def emit(self, out: list[str], ind: str) -> None:
        out.append(f"{ind}{self.decl} {self.name}({', '.join(self.params)}) {{")
        if self.arm_a is None:
            for s in self.prefix + self.join:
                out.append(f"{ind}  {s}")
        else:
            for s in self.prefix:
                out.append(f"{ind}  {s}")
            out.append(f"{ind}  branch bl br")
            out.append(f"{ind}bl:")
            for s in self.arm_a:
                out.append(f"{ind}  {s}")
            out.append(f"{ind}  goto bj")
            out.append(f"{ind}br:")
            for s in self.arm_b or []:
                out.append(f"{ind}  {s}")
            out.append(f"{ind}  goto bj")
            out.append(f"{ind}bj:")
            for s in self.join:
                out.append(f"{ind}  {s}")
        out.append(f"{ind}}}")


@dataclass
class _CompPlan:
    app: str
    name: str
    kind: str  # activity | service | receiver
    action: Optional[str] = None  # filter action; None = unfiltered
    f_category: Optional[str] = None
    f_dtype: Optional[str] = None
    live: bool = False
    methods: dict[str, _MethodPlan] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    inbound: list[tuple[str, str]] = field(default_factory=list)  # (icc kind, key)
    inbound_kinds: set = field(default_factory=set)
    reply_key: Optional[str] = None
    field_n: int = 0

    def method(self, decl: str, name: str, params: tuple[str, ...]) -> _MethodPlan:
        if name not in self.methods:
            self.methods[name] = _MethodPlan(decl, name, params)
            self.order.append(name)
        return self.methods[name]


@dataclass
class _Send:
    sender: int
    target: int
    kind: str
    host: str  # method name on the sender
    explicit: bool
    target_ref: Optional[str] = None  # explicit: name or qualified name
    action: Optional[str] = None
    category: Optional[str] = None
    dtype: Optional[str] = None
    extras: list[tuple[str, str]] = field(default_factory=list)  # (key, plan)
    overwrite: Optional[str] = None  # key strongly re-put with a constant
    wants_reply: bool = False


class _Gen:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.count = 0
        self.comps: list[_CompPlan] = []
        self.sends: list[_Send] = []
        self.utils: dict[str, str] = {}  # app -> helper class name

    def coin(self, p: float) -> bool:
        return self.rng.random() < p

    def room(self, need: int) -> bool:
        return self.count + need <= STMT_BUDGET

    def add(self, lines: list[str], text: str) -> None:
        lines.append(text)
        self.count += 1

    # -- planning -----------------------------------------------------------

    def plan(self) -> None:
        rng = self.rng
        apps = ["AppA", "AppB"][: 1 if self.coin(0.6) else 2]
        ncomp = rng.randint(2, 4)
        for i in range(ncomp):
            if i == 0:
                kind, app, filtered = "activity", apps[0], True
            else:
                kind = rng.choice(("activity", "activity", "service", "receiver"))
                app = apps[1] if (len(apps) == 2 and i == 1) else rng.choice(apps)
                filtered = self.coin(0.45)
            comp = _CompPlan(app=app, name=f"C{i}", kind=kind)
            if filtered:
                comp.action = f"com.x.ACT{i}"
                comp.live = True
                if self.coin(0.35):
                    comp.f_category = f"com.x.CAT{i}"
                if self.coin(0.25):
                    comp.f_dtype = rng.choice(("text/plain", "image/png"))
            self.comps.append(comp)

        total_sends = 0
        for i, comp in enumerate(self.comps):
            if not comp.live or total_sends >= 4:
                continue
            cands = list(range(i + 1, ncomp))
            rng.shuffle(cands)
            for j in cands[: rng.randint(0, 2)]:
                if total_sends >= 4:
                    break
                self.sends.append(self._plan_send(i, j))
                self.comps[j].live = True
                total_sends += 1

    def _plan_send(self, i: int, j: int) -> _Send:
        rng = self.rng
        sender, target = self.comps[i], self.comps[j]
        if target.kind == "activity":
            kind = "start_activity"
            if sender.kind == "activity" and self.coin(0.35):
                kind = "start_activity_for_result"
        elif target.kind == "service":
            kind = rng.choice(("start_service", "bind_service"))
        else:
            kind = "send_broadcast"

        if kind == "start_activity_for_result":
            host = rng.choice(("onCreate", "onResume"))
        elif sender.kind == "receiver":
            host = "onReceive"
        elif sender.kind == "service":
            host = "onCreate"
        else:
            host = rng.choice(("onCreate", "onCreate", "onResume", "cb"))

        send = _Send(i, j, kind, host, explicit=target.action is None or self.coin(0.4))
        if send.explicit:
            if sender.app == target.app and self.coin(0.6):
                send.target_ref = target.name
            else:
                send.target_ref = f"{target.app}/{target.name}"
        else:
            send.action = target.action
            if target.f_category and self.coin(0.6):
                send.category = target.f_category
            if target.f_dtype:
                # omitting the type makes the send dead (filter declares types)
                send.dtype = target.f_dtype if self.coin(0.85) else None
            elif self.coin(0.1):
                send.dtype = "text/plain"  # dead: filter declares no types

        for key in rng.sample(KEYS, rng.randint(1, 2)):
            plan = rng.choices(
                ("source", "const", "killed", "decoy", "helper"),
                weights=(50, 15, 10, 10, 15),
            )[0]
            send.extras.append((key, plan))
        if send.extras and self.coin(0.12):
            send.overwrite = send.extras[-1][0]
        send.wants_reply = kind == "start_activity_for_result" and self.coin(0.85)
        target.inbound.extend((kind, k) for k, _ in send.extras)
        target.inbound_kinds.add(kind)
        return send

    # -- body construction ---------------------------------------------------

    def build(self) -> None:
        for send in self.sends:
            self._emit_send(send)
        for idx, comp in enumerate(self.comps):
            self._emit_receive(comp)
        for comp in self.comps:
            if self.coin(0.25) and self.room(2):
                m = self._host(comp, "onStart" if comp.kind == "activity" else None)
                v = m.fresh()
                self.add(m.prefix, f'{v} = source "{self.rng.choice(SOURCES)}"')
                sink = self.rng.choice(SINKS + (DECOY_SINK,))
                self.add(m.prefix, f'sink "{sink}" {v}')
            if comp.kind != "receiver" and self.coin(0.2) and self.room(4):
                self._field_protocol(comp)

    def _host(self, comp: _CompPlan, slot: Optional[str]) -> _MethodPlan:
        if slot is None:
            slot = {"service": "onCreate", "receiver": "onReceive"}.get(
                comp.kind, "onCreate"
            )
        if slot == "cb":
            return comp.method("callback", "cbSend", ("this",))
        return comp.method("method", slot, ("this",))

    def _util(self, app: str) -> str:
        if app not in self.utils:
            self.utils[app] = f"Util{len(self.utils)}"
        return self.utils[app]

    def _emit_send(self, send: _Send) -> None:
        sender = self.comps[send.sender]
        target = self.comps[send.target]
        m = self._host(sender, send.host)
        iv = m.fresh("i")
        branching = (
            m.arm_a is None
            and len(send.extras) >= 1
            and self.coin(0.3)
            and self.room(len(send.extras) * 3 + 8)
        )
        self.add(m.prefix, f"{iv} = new_intent")
        if send.explicit:
            self.add(m.prefix, f'set_target {iv} "{send.target_ref}"')
        else:
            self.add(m.prefix, f'set_action {iv} "{send.action}"')
            if send.category:
                self.add(m.prefix, f'set_category {iv} "{send.category}"')
            if send.dtype:
                self.add(m.prefix, f'set_data_type {iv} "{send.dtype}"')

        if branching:
            m.arm_a, m.arm_b = [], []
        sink_lines = m.join if branching else m.prefix
        for n, (key, plan) in enumerate(send.extras):
            lines = m.arm_a if branching and n == 0 else sink_lines
            v = m.fresh()
            if plan == "source":
                self.add(lines, f'{v} = source "{self.rng.choice(SOURCES)}"')
            elif plan == "const":
                self.add(lines, f'{v} = "fixed"')
            elif plan == "killed":
                self.add(lines, f'{v} = source "{self.rng.choice(SOURCES)}"')
                self.add(lines, f'{v} = "scrubbed"')
            elif plan == "decoy":
                self.add(lines, f'{v} = source "{DECOY_SOURCE}"')
            else:  # helper: launder a source through an identity call
                raw = m.fresh()
                util = self._util(sender.app)
                self.add(lines, f'{raw} = source "{self.rng.choice(SOURCES)}"')
                self.add(lines, f"{v} = call {util}.pass({raw})")
            self.add(lines, f'put_extra {iv} "{key}" {v}')
            if branching and n == 0:
                alt = m.fresh()
                self.add(m.arm_b, f'{alt} = "other"')
                self.add(m.arm_b, f'put_extra {iv} "{key}" {alt}')
        if send.overwrite:
            z = m.fresh()
            self.add(sink_lines, f'{z} = "wiped"')
            self.add(sink_lines, f'put_extra {iv} "{send.overwrite}" {z}')
        self.add(sink_lines, f"icc {send.kind} {iv}")

        if send.wants_reply:
            target.reply_key = target.reply_key or self.rng.choice(KEYS)
            oar = sender.method("method", "onActivityResult", ("this", "r"))
            d = oar.fresh("d")
            self.add(oar.prefix, f'{d} = get_extra r "{target.reply_key}"')
            sink = self.rng.choice(SINKS if self.coin(0.8) else (DECOY_SINK,))
            self.add(oar.prefix, f'sink "{sink}" {d}')

    def _entry_slots(self, comp: _CompPlan) -> list[str]:
        if comp.kind == "activity":
            return ["onCreate"]
        if comp.kind == "receiver":
            return ["onReceive"]
        slots = []
        if "start_service" in comp.inbound_kinds:
            slots.append("onStartCommand")
        if "bind_service" in comp.inbound_kinds:
            slots.append("onBind")
        return slots or ["onCreate"]

    def _emit_receive(self, comp: _CompPlan) -> None:
        if not comp.inbound:
            return
        slot = self._entry_slots(comp)[0]
        m = comp.method("method", slot, ("this",))
        if m.intent_var is None:
            m.intent_var = m.fresh("g")
            self.add(m.prefix, f"{m.intent_var} = get_intent")
        g = m.intent_var
        seen = []
        for _, key in comp.inbound:
            if key not in seen:
                seen.append(key)
        for key in seen[:2]:
            if not self.room(2):
                break
            x = m.fresh("x")
            self.add(m.prefix, f'{x} = get_extra {g} "{key}"')
            roll = self.rng.random()
            if roll < 0.6:
                self.add(m.prefix, f'sink "{self.rng.choice(SINKS)}" {x}')
            elif roll < 0.75:
                self.add(m.prefix, f'sink "{DECOY_SINK}" {x}')
            elif comp.kind != "receiver" and self.room(3):
                fld = f"st{comp.field_n}"
                comp.field_n += 1
                self.add(m.prefix, f"this.{fld} = {x}")
                done = comp.method("method", "onDestroy", ("this",))
                y = done.fresh("y")
                self.add(done.prefix, f"{y} = this.{fld}")
                self.add(done.prefix, f'sink "{self.rng.choice(SINKS)}" {y}')
            else:
                self.add(m.prefix, f'sink "{self.rng.choice(SINKS)}" {x}')
        if self.coin(0.2) and self.room(2):
            x = m.fresh("x")
            self.add(m.prefix, f'{x} = get_extra {g} "unsent"')
            self.add(m.prefix, f'sink "{self.rng.choice(SINKS)}" {x}')

        if comp.reply_key is not None and self.room(4):
            k = m.fresh("k")
            self.add(m.prefix, f"{k} = new_intent")
            if seen and self.coin(0.5):
                e = m.fresh("e")
                self.add(m.prefix, f'{e} = get_extra {g} "{seen[0]}"')
                val = e
            else:
                val = m.fresh()
                self.add(m.prefix, f'{val} = source "{self.rng.choice(SOURCES)}"')
            self.add(m.prefix, f'put_extra {k} "{comp.reply_key}" {val}')
            self.add(m.prefix, f"set_result {k}")
            if self.coin(0.5):
                self.add(m.prefix, "finish")

    def _field_protocol(self, comp: _CompPlan) -> None:
        fld = f"sh{comp.field_n}"
        comp.field_n += 1
        w = comp.method("callback", "cbWrite", ("this",))
        v = w.fresh()
        self.add(w.prefix, f'{v} = source "{self.rng.choice(SOURCES)}"')
        self.add(w.prefix, f"this.{fld} = {v}")
        r = comp.method("callback", "cbRead", ("this",))
        y = r.fresh("y")
        self.add(r.prefix, f"{y} = this.{fld}")
        self.add(r.prefix, f'sink "{self.rng.choice(SINKS)}" {y}')

    # -- emission -------------------------------------------------------------

    def texts(self) -> list[str]:
        apps = []
        for app_id in dict.fromkeys(c.app for c in self.comps):
            out = [f'app "{app_id}" {{']
            for comp in self.comps:
                if comp.app != app_id:
                    continue
                out.append(f"  component {comp.kind} {comp.name} {{")
                if comp.action:
                    flt = [f'action "{comp.action}";']
                    if comp.f_category:
                        flt.append(f'category "{comp.f_category}";')
                    if comp.f_dtype:
                        flt.append(f'data_type "{comp.f_dtype}";')
                    out.append(f"    filter {{ {' '.join(flt)} }}")
                for name in comp.order:
                    comp.methods[name].emit(out, "    ")
                out.append("  }")
            util = self.utils.get(app_id)
            if util is not None:
                out.append(f"  class {util} {{")
                out.append("    method pass(x) {")
                out.append("      return x")
                out.append("    }")
                out.append("  }")
            out.append("}")
            apps.append("\n".join(out) + "\n")
        return apps


def gen_corpus(seed: int) -> list[str]:
    """Generate one corpus (one .cir text per app) for the given seed."""
    g = _Gen(seed)
    g.plan()
    g.build()
    return g.texts()


def gen_apps(seed: int) -> list[AppModel]:
    """Generate and parse a corpus; raises if the generator emitted bad text."""
    apps = []
    for n, text in enumerate(gen_corpus(seed)):
        result = parse_app(text, path=f"<gen:{seed}:{n}>")
        if not result.ok:
            msgs = "; ".join(str(d) for d in result.diagnostics)
            raise AssertionError(f"generator produced unparsable text: {msgs}\n{text}")
        apps.append(result.app)
    total = sum(1 for a in apps for _ in a.iter_stmts())
    if total > 60:
        raise AssertionError(f"generator exceeded statement budget: {total}")
    return apps


_LINK_DENSE_APP = """app "APP" {
  component activity Main {
    filter { action "go"; }
    method onCreate(this) {
      x = source "getDeviceId"
      i = new_intent
      set_action i "go"
      put_extra i "k" x
      icc start_activity i
      g = get_intent
      y = get_extra g "k"
      sink "writeLog" y
    }
  }
}
"""


def gen_link_dense(n: int) -> list[str]:
    """The link-dense shape: ``n`` apps of one activity each. Every activity
    accepts the implicit action ``go``, sends its source on a ``go`` intent,
    and sinks the extra of the intent it was started with. So each app's
    source reaches each app's sink, its own too, over one link, and each
    set of ``max_len`` apps is a window. Dispatch is cyclic, so the oracle
    needs ``oracle_pairs``'s ``max_hops``."""
    return [_LINK_DENSE_APP.replace("APP", f"L{k:02d}") for k in range(n)]


# Tokens a line mutation may insert: every statement keyword, punctuation, a
# literal, plain names, characters the lexer rejects, and a bad escape and an
# open quote for the string-literal diagnostics.
_MUTANT_TOKENS = (
    "sink source new_intent new_obj set_target set_action set_category "
    "set_data_type put_extra get_extra get_intent set_result finish icc call "
    "goto branch return synthetic start_activity bogus_kind x this b0 "
    "= . ( ) , { } : ; @ $ ! 7"
).split() + ['"s"', '"a\\q"', '"open', '"C".m']

# Whole lines a mutation may put in place of another: one of each statement
# form and terminator, so forms land where they are not legal, and a few
# lines that break the rarer statement-parser rules.
_MUTANT_LINES = (
    'v = source "getDeviceId"', 'sink "writeLog" x', "i = new_intent",
    'o = new_obj "Util"', 'set_action i "A"', "put_extra i k x",
    'x = get_extra i "k"', "g = get_intent", "set_result i", "finish",
    "icc start_activity_for_result i", "call m(x)", 'r = call "C".m(x, y)',
    "this.f = x", "x = this.f", 'x = "c"', "x = y", "goto b9", "branch b0 b1",
    "return x", "b1:", 'o = new_obj C', 'r = call "C" m(x)', "call m(x,)",
    "x = y.", "x = source y",
)

_TOKEN_RE = re.compile(r'"(?:[^"\\]|\\.)*"|[A-Za-z_][A-Za-z0-9_]*|\S')


def mutate_line(line: str, rng: random.Random) -> str:
    """One seeded token-level edit of a `.cir` line, indentation kept."""
    indent = line[: len(line) - len(line.lstrip())]
    toks = _TOKEN_RE.findall(line)
    op = rng.randrange(7) if toks else 4
    i = rng.randrange(len(toks)) if toks else 0
    if op == 0:
        del toks[i]
    elif op == 1:
        toks.insert(i, toks[i])
    elif op == 2 and len(toks) > 1:
        i = min(i, len(toks) - 2)
        toks[i], toks[i + 1] = toks[i + 1], toks[i]
    elif op == 3:
        toks[i] = rng.choice(_MUTANT_TOKENS)
    elif op == 4:
        toks.insert(i, rng.choice(_MUTANT_TOKENS))
    elif op == 5:
        toks = [rng.choice(_MUTANT_LINES)]
    else:  # op 6, or a swap on a one-token line: cut the line before token i
        toks = toks[:i]
    return indent + " ".join(toks)


def line_mutations(texts: list[str], count: int, seed: int) -> list[str]:
    """``count`` texts, each one of ``texts`` with one line mutated."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        lines = rng.choice(texts).splitlines()
        i = rng.randrange(len(lines))
        lines[i] = mutate_line(lines[i], rng)
        out.append("\n".join(lines) + "\n")
    return out


if __name__ == "__main__":
    import sys

    for s in [int(a) for a in sys.argv[1:]] or [0]:
        for t in gen_corpus(s):
            print(t)
