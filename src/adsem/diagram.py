"""Activity diagram abstract syntax, concrete `.ad` syntax, and validation.

A diagram is a set of named nodes connected pin-to-pin by transitions.
Every node carries a role; every pin carries a type (control pins carry
none, written as the pseudo-type ``control``).  The text syntax is
line-oriented::

    activity Name {
        initial start out s;
        action Work role Worker in x: Thing out y: Thing effect "...";
        decisionmerge D in v out p guard "ok", q guard "bad";
        final done in z;
        start.s -> Work.x;
        Work.y -> D.v;           // pins may be elided: "Work -> D;"
    }

Pin-elided edges get synthesized control pins so the parsed diagram is
always pin-complete.
"""

from __future__ import annotations

import enum
import re
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

DEFAULT_ROLE = "unassigned"


class NodeKind(enum.Enum):
    ACTION = "action"
    INITIAL = "initial"
    FINAL = "final"
    FORKJOIN = "forkjoin"
    DECISIONMERGE = "decisionmerge"


class PinKind(enum.Enum):
    CONTROL = "control"
    TOP = "top"
    DATA = "data"


@dataclass(frozen=True)
class PinType:
    kind: PinKind
    data_name: str | None = None

    def __str__(self) -> str:
        if self.kind is PinKind.DATA:
            return self.data_name or "?"
        return "any" if self.kind is PinKind.TOP else "control"


CONTROL = PinType(PinKind.CONTROL)
TOP = PinType(PinKind.TOP)


def data_type(name: str) -> PinType:
    return PinType(PinKind.DATA, name)


def compatible(a: PinType, b: PinType) -> bool:
    """Nominal compatibility: the token sets of the two types intersect."""
    if a.kind is PinKind.TOP or b.kind is PinKind.TOP:
        return True
    if a.kind is PinKind.CONTROL or b.kind is PinKind.CONTROL:
        return a.kind == b.kind
    return a.data_name == b.data_name


@dataclass(frozen=True)
class Node:
    kind: NodeKind
    name: str
    in_pins: tuple[str, ...] = ()
    out_pins: tuple[str, ...] = ()
    effect: str = ""


@dataclass(frozen=True)
class Transition:
    src: str
    out_pin: str
    dst: str
    in_pin: str

    @cached_property
    def key(self) -> str:
        return f"{self.src}.{self.out_pin}->{self.dst}.{self.in_pin}"


@dataclass(frozen=True)
class EdgeLayout:
    """A diagram's transitions, one per key (two declarations of one pinned
    edge are one edge), and per node, in the order of `nodes`, its incoming
    and outgoing transitions as positions among them, in declaration order."""
    transitions: tuple[Transition, ...]
    ins: tuple[tuple[int, ...], ...]
    outs: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ActivityDiagram:
    name: str
    nodes: tuple[Node, ...]
    transitions: tuple[Transition, ...]
    role_of: dict[str, str]
    pin_types: dict[tuple[str, str], PinType]
    guards: dict[tuple[str, str], str]

    @cached_property
    def _index(self) -> dict[str, tuple[Node, tuple[Transition, ...], tuple[Transition, ...]]]:
        """Node name -> (node, incoming, outgoing), transitions in declaration
        order and the first of duplicate names winning; built once per instance."""
        index = {n.name: (n, [], []) for n in reversed(self.nodes)}
        for t in self.transitions:
            if t.dst in index:
                index[t.dst][1].append(t)
            if t.src in index:
                index[t.src][2].append(t)
        return {name: (n, tuple(ins), tuple(outs)) for name, (n, ins, outs) in index.items()}

    @cached_property
    def layout(self) -> EdgeLayout:
        by_key = {t.key: t for t in self.transitions}
        position = {k: i for i, k in enumerate(by_key)}

        def positions(ts: tuple[Transition, ...]) -> tuple[int, ...]:
            return tuple(dict.fromkeys(position[t.key] for t in ts))
        return EdgeLayout(tuple(by_key.values()),
                          tuple(positions(self._index[n.name][1]) for n in self.nodes),
                          tuple(positions(self._index[n.name][2]) for n in self.nodes))

    def node(self, name: str) -> Node:
        if name not in self._index:
            raise DiagramError(f"unknown node {name!r} in activity {self.name!r}")
        return self._index[name][0]

    def has_node(self, name: str) -> bool:
        return name in self._index

    def pin_type(self, node: str, pin: str) -> PinType:
        try:
            return self.pin_types[(node, pin)]
        except KeyError:
            raise DiagramError(f"unknown pin {node}.{pin}") from None

    def guard(self, node: str, pin: str) -> str:
        return self.guards.get((node, pin), "true")

    @property
    def roles(self) -> tuple[str, ...]:
        seen: list[str] = []
        for n in self.nodes:
            r = self.role_of[n.name]
            if r not in seen:
                seen.append(r)
        return tuple(seen)


class DiagramError(Exception):
    """A diagram was queried or constructed inconsistently."""


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    code: str
    location: str
    message: str

    def to_json(self) -> dict:
        return {
            "severity": self.severity.value,
            "code": self.code,
            "location": self.location,
            "message": self.message,
        }


class ParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(d.message for d in diagnostics))


def incoming(ad: ActivityDiagram, node: Node | str) -> tuple[Transition, ...]:
    """All transitions ending at the node, in declaration order."""
    name = node if isinstance(node, str) else node.name
    if not ad.has_node(name):
        raise DiagramError(f"unknown node {name!r}")
    return ad._index[name][1]


def outgoing(ad: ActivityDiagram, node: Node | str) -> tuple[Transition, ...]:
    """All transitions starting at the node, in declaration order."""
    name = node if isinstance(node, str) else node.name
    if not ad.has_node(name):
        raise DiagramError(f"unknown node {name!r}")
    return ad._index[name][2]


# ---------------------------------------------------------------------------
# Lexer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<arrow>->)
  | (?P<punct>[{};:,.])
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_KINDS = {k.value: k for k in NodeKind}
_KEYWORDS = {"activity", "role", "in", "out", "effect", "guard"} | set(_KINDS)


class _Tok(NamedTuple):
    text: str
    kind: str
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, line_start = 1, 0  # line_start: offset of the current line's first character
    for m in _TOKEN_RE.finditer(text):
        kind, raw, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            at = f"{line}:{pos - line_start + 1}"
            raise ParseError([Diagnostic(Severity.ERROR, "syntax-error", at,
                                         f"unexpected character {raw!r} at {at}")])
        if kind not in ("ws", "comment"):
            toks.append(_Tok(raw, kind, line, pos - line_start + 1))
        if "\n" in raw:  # only whitespace and strings span lines
            line += raw.count("\n")
            line_start = pos + raw.rfind("\n") + 1
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.i = 0
        self.diags: list[Diagnostic] = []

    def _err(self, code: str, message: str, tok: _Tok | None = None) -> ParseError:
        if tok is None:
            tok = self.toks[self.i] if self.i < len(self.toks) else None
        loc = f"{tok.line}:{tok.col}" if tok else "end of input"
        self.diags.append(Diagnostic(Severity.ERROR, code, loc, f"{message} at {loc}"))
        return ParseError(self.diags)

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self) -> _Tok:
        tok = self.peek()
        if tok is None:
            raise self._err("syntax-error", "unexpected end of input")
        self.i += 1
        return tok

    def expect(self, text: str) -> _Tok:
        tok = self.peek()
        if tok is None or tok.text != text:
            got = tok.text if tok else "end of input"
            raise self._err("syntax-error", f"expected {text!r}, got {got!r}")
        return self.take()

    def name(self, what: str) -> _Tok:
        tok = self.peek()
        if tok is None or tok.kind != "name":
            got = tok.text if tok else "end of input"
            raise self._err("syntax-error", f"expected {what}, got {got!r}")
        return self.take()

    def string(self) -> str:
        tok = self.peek()
        if tok is None or tok.kind != "string":
            got = tok.text if tok else "end of input"
            raise self._err("syntax-error", f"expected string, got {got!r}")
        self.take()
        body = tok.text[1:-1]
        return body.replace('\\"', '"').replace("\\\\", "\\")

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text


@dataclass
class _PinDecl:
    name: str
    ptype: PinType
    guard: str | None


def _parse_pins(p: _Parser) -> list[_PinDecl]:
    pins = [_parse_pin(p)]
    while p.at(","):
        p.take()
        pins.append(_parse_pin(p))
    return pins


def _parse_pin(p: _Parser) -> _PinDecl:
    name = p.name("pin name").text
    ptype = CONTROL
    guard: str | None = None
    if p.at(":"):
        p.take()
        tname = p.name("pin type").text
        ptype = TOP if tname == "any" else data_type(tname)
    if p.at("guard"):
        p.take()
        guard = p.string()
    return _PinDecl(name, ptype, guard)


def parse(text: str) -> ActivityDiagram:
    """Parse `.ad` text into a pin-complete diagram.

    Raises ParseError carrying located diagnostics on malformed input,
    duplicate names, or edges referencing unknown nodes/pins.
    """
    p = _Parser(text)
    p.expect("activity")
    ad_name = p.name("activity name").text
    p.expect("{")

    nodes: list[Node] = []
    role_of: dict[str, str] = {}
    pin_types: dict[tuple[str, str], PinType] = {}
    guards: dict[tuple[str, str], str] = {}
    edges: list[tuple[_Tok, str, str | None, str, str | None]] = []

    while not p.at("}"):
        tok = p.peek()
        if tok is None:
            raise p._err("syntax-error", "unexpected end of input, missing '}'")
        if tok.text in _KINDS:
            _parse_node_decl(p, nodes, role_of, pin_types, guards)
        elif tok.kind == "name":
            _parse_edge_decl(p, edges)
        else:
            raise p._err("syntax-error", f"expected node or edge declaration, got {tok.text!r}")
    p.expect("}")
    if p.peek() is not None:
        raise p._err("syntax-error", f"trailing input after '}}'")

    return _complete(p, ad_name, nodes, role_of, pin_types, guards, edges)


def _parse_node_decl(p: _Parser, nodes, role_of, pin_types, guards) -> None:
    kind_tok = p.take()
    kind = _KINDS[kind_tok.text]
    name_tok = p.name("node name")
    name = name_tok.text
    if any(n.name == name for n in nodes):
        raise p._err("duplicate-node", f"duplicate node name {name!r}", name_tok)

    role = DEFAULT_ROLE
    in_pins: list[_PinDecl] = []
    out_pins: list[_PinDecl] = []
    effect = ""
    while not p.at(";"):
        tok = p.peek()
        if tok is None:
            raise p._err("syntax-error", "unexpected end of input in node declaration")
        if tok.text == "role":
            p.take()
            role = p.name("role name").text
        elif tok.text == "in":
            p.take()
            in_pins = _parse_pins(p)
        elif tok.text == "out":
            p.take()
            out_pins = _parse_pins(p)
        elif tok.text == "effect":
            p.take()
            effect = p.string()
        else:
            raise p._err("syntax-error", f"unexpected token {tok.text!r} in node declaration")
    p.expect(";")

    seen_pins: set[str] = set()
    for decl in in_pins + out_pins:
        if decl.name in seen_pins:
            raise p._err("duplicate-pin", f"duplicate pin {name}.{decl.name}", name_tok)
        seen_pins.add(decl.name)
        pin_types[(name, decl.name)] = decl.ptype
    for decl in in_pins:
        if decl.guard is not None:
            raise p._err("syntax-error", f"guard on input pin {name}.{decl.name}", name_tok)
    for decl in out_pins:
        guards[(name, decl.name)] = decl.guard if decl.guard is not None else "true"

    nodes.append(Node(
        kind=kind,
        name=name,
        in_pins=tuple(d.name for d in in_pins),
        out_pins=tuple(d.name for d in out_pins),
        effect=effect,
    ))
    role_of[name] = role


def _parse_edge_decl(p: _Parser, edges) -> None:
    src_tok = p.name("source node")
    src_pin: str | None = None
    if p.at("."):
        p.take()
        src_pin = p.name("source pin").text
    p.expect("->")
    dst = p.name("destination node").text
    dst_pin: str | None = None
    if p.at("."):
        p.take()
        dst_pin = p.name("destination pin").text
    p.expect(";")
    if (src_pin is None) != (dst_pin is None):
        raise p._err("syntax-error", "edge must name pins on both ends or neither", src_tok)
    edges.append((src_tok, src_tok.text, src_pin, dst, dst_pin))


def _complete(p: _Parser, ad_name, nodes, role_of, pin_types, guards, edges) -> ActivityDiagram:
    """Pin completion: synthesize control pins for pin-elided edges."""
    by_name = {n.name: n for n in nodes}
    synth_out: dict[str, int] = {}
    synth_in: dict[str, int] = {}
    transitions: list[Transition] = []

    def fresh(node: Node, counter: dict[str, int], prefix: str, taken: tuple[str, ...]) -> str:
        counter[node.name] = counter.get(node.name, 0)
        while True:
            counter[node.name] += 1
            cand = f"{prefix}{counter[node.name]}"
            if cand not in taken and (node.name, cand) not in pin_types:
                return cand

    for tok, src, src_pin, dst, dst_pin in edges:
        for endpoint in (src, dst):
            if endpoint not in by_name:
                raise p._err("unknown-node", f"edge references unknown node {endpoint!r}", tok)
        src_node, dst_node = by_name[src], by_name[dst]
        if src_pin is None:
            src_pin = fresh(src_node, synth_out, "_o", src_node.out_pins)
            by_name[src] = src_node = replace(src_node, out_pins=src_node.out_pins + (src_pin,))
            pin_types[(src, src_pin)] = CONTROL
            guards[(src, src_pin)] = "true"
        elif src_pin not in src_node.out_pins:
            raise p._err("unknown-pin", f"edge references unknown output pin {src}.{src_pin}", tok)
        if dst_pin is None:
            dst_pin = fresh(dst_node, synth_in, "_i", dst_node.in_pins)
            by_name[dst] = dst_node = replace(dst_node, in_pins=dst_node.in_pins + (dst_pin,))
            pin_types[(dst, dst_pin)] = CONTROL
        elif dst_pin not in dst_node.in_pins:
            raise p._err("unknown-pin", f"edge references unknown input pin {dst}.{dst_pin}", tok)
        transitions.append(Transition(src, src_pin, dst, dst_pin))

    return ActivityDiagram(
        name=ad_name,
        nodes=tuple(by_name[n.name] for n in nodes),
        transitions=tuple(transitions),
        role_of=role_of,
        pin_types=pin_types,
        guards=guards,
    )


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def to_text(ad: ActivityDiagram) -> str:
    """Canonical text; parse(to_text(ad)) == ad (all pins explicit)."""
    lines = [f"activity {ad.name} {{"]
    for n in ad.nodes:
        parts = [n.kind.value, n.name]
        if ad.role_of[n.name] != DEFAULT_ROLE:
            parts.append(f"role {ad.role_of[n.name]}")
        if n.in_pins:
            parts.append("in " + ", ".join(_pin_text(ad, n.name, pin, False) for pin in n.in_pins))
        if n.out_pins:
            parts.append("out " + ", ".join(_pin_text(ad, n.name, pin, True) for pin in n.out_pins))
        if n.effect:
            parts.append(f'effect "{_escape(n.effect)}"')
        lines.append("    " + " ".join(parts) + ";")
    for t in ad.transitions:
        lines.append(f"    {t.src}.{t.out_pin} -> {t.dst}.{t.in_pin};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _pin_text(ad: ActivityDiagram, node: str, pin: str, is_out: bool) -> str:
    ptype = ad.pin_type(node, pin)
    text = pin
    if ptype.kind is PinKind.DATA:
        text += f": {ptype.data_name}"
    elif ptype.kind is PinKind.TOP:
        text += ": any"
    if is_out:
        g = ad.guard(node, pin)
        if g != "true":
            text += f' guard "{_escape(g)}"'
    return text


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


# ---------------------------------------------------------------------------
# Validator
# ---------------------------------------------------------------------------

def validate(ad: ActivityDiagram, profile: str = "general") -> list[Diagnostic]:
    """Context conditions; profile "variant1" adds the single-thread
    syntactic restrictions (no fork/join, no roles, no data pins, at most
    one output pin on non-decision nodes)."""
    if profile not in ("general", "variant1"):
        raise DiagramError(f"unknown validation profile {profile!r}")
    diags: list[Diagnostic] = []
    names = [n.name for n in ad.nodes]
    for name in sorted({x for x in names if names.count(x) > 1}):
        diags.append(Diagnostic(Severity.ERROR, "duplicate-node", f"node {name}",
                                f"duplicate node name {name!r}"))
    for n in ad.nodes:
        pins = list(n.in_pins) + list(n.out_pins)
        for pin in sorted({x for x in pins if pins.count(x) > 1}):
            diags.append(Diagnostic(Severity.ERROR, "duplicate-pin", f"pin {n.name}.{pin}",
                                    f"duplicate pin name {pin!r} on node {n.name!r}"))
        if n.name not in ad.role_of:
            diags.append(Diagnostic(Severity.ERROR, "missing-role", f"node {n.name}",
                                    f"no role assigned to node {n.name!r}"))
        for pin in pins:
            if (n.name, pin) not in ad.pin_types:
                diags.append(Diagnostic(Severity.ERROR, "missing-pin-type", f"pin {n.name}.{pin}",
                                        f"no type declared for pin {n.name}.{pin}"))
        if n.kind is NodeKind.INITIAL and n.in_pins:
            diags.append(Diagnostic(Severity.ERROR, "initial-has-inputs", f"node {n.name}",
                                    f"initial node {n.name!r} declares input pins"))
        if n.kind is NodeKind.FINAL and n.out_pins:
            diags.append(Diagnostic(Severity.ERROR, "final-has-outputs", f"node {n.name}",
                                    f"final node {n.name!r} declares output pins"))
        if n.kind is not NodeKind.DECISIONMERGE:
            for pin in n.out_pins:
                if ad.guards.get((n.name, pin), "true") != "true":
                    diags.append(Diagnostic(
                        Severity.WARNING, "guard-on-non-decision", f"pin {n.name}.{pin}",
                        f"guard on {n.name}.{pin} is never consulted "
                        f"({n.kind.value} nodes do not branch)"))

    repeated = Counter(t.key for t in ad.transitions)
    for key in sorted(k for k, count in repeated.items() if count > 1):
        diags.append(Diagnostic(Severity.ERROR, "duplicate-transition", f"transition {key}",
                                f"transition {key} is declared {repeated[key]} times"))

    node_names = set(names)
    for t in ad.transitions:
        loc = f"transition {t.key}"
        missing = False
        for endpoint in (t.src, t.dst):
            if endpoint not in node_names:
                diags.append(Diagnostic(Severity.ERROR, "unknown-node", loc,
                                        f"transition references unknown node {endpoint!r}"))
                missing = True
        if missing:
            continue
        src_node, dst_node = ad.node(t.src), ad.node(t.dst)
        if t.out_pin not in src_node.out_pins:
            diags.append(Diagnostic(Severity.ERROR, "unknown-pin", loc,
                                    f"{t.src} has no output pin {t.out_pin!r}"))
            continue
        if t.in_pin not in dst_node.in_pins:
            diags.append(Diagnostic(Severity.ERROR, "unknown-pin", loc,
                                    f"{t.dst} has no input pin {t.in_pin!r}"))
            continue
        out_type = ad.pin_type(t.src, t.out_pin)
        in_type = ad.pin_type(t.dst, t.in_pin)
        if not compatible(out_type, in_type):
            diags.append(Diagnostic(
                Severity.ERROR, "incompatible-pin-types", loc,
                f"pin types {out_type} and {in_type} admit no common token"))

    if profile == "variant1":
        diags.extend(_validate_variant1(ad))
    return diags


def _validate_variant1(ad: ActivityDiagram) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for n in ad.nodes:
        if n.kind is NodeKind.FORKJOIN:
            diags.append(Diagnostic(Severity.ERROR, "v1-forkjoin", f"node {n.name}",
                                    f"fork/join node {n.name!r} not allowed: a single "
                                    f"thread cannot branch"))
        if ad.role_of[n.name] != DEFAULT_ROLE:
            diags.append(Diagnostic(Severity.ERROR, "v1-role", f"node {n.name}",
                                    f"role {ad.role_of[n.name]!r} on {n.name!r}: roles "
                                    f"have no meaning in a single method"))
        for pin in list(n.in_pins) + list(n.out_pins):
            ptype = ad.pin_type(n.name, pin)
            if ptype.kind is not PinKind.CONTROL:
                diags.append(Diagnostic(Severity.ERROR, "v1-data-pin", f"pin {n.name}.{pin}",
                                        f"pin type {ptype}: only control flow is modeled"))
        if n.kind is not NodeKind.DECISIONMERGE and len(n.out_pins) > 1:
            diags.append(Diagnostic(Severity.ERROR, "v1-multi-output", f"node {n.name}",
                                    f"{n.name!r} has {len(n.out_pins)} output pins; "
                                    f"sequential execution allows one"))
    return diags


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

_DOT_SHAPE = {
    NodeKind.ACTION: 'shape=box, style=rounded',
    NodeKind.INITIAL: 'shape=circle, style=filled, fillcolor=black, label="", width=0.2',
    NodeKind.FINAL: 'shape=doublecircle, style=filled, fillcolor=black, label="", width=0.15',
    NodeKind.FORKJOIN: 'shape=box, style=filled, fillcolor=black, label="", height=0.08',
    NodeKind.DECISIONMERGE: "shape=diamond",
}


def to_dot(ad: ActivityDiagram) -> str:
    """Render as a DOT digraph with one cluster per role and guard labels
    on decision branches."""
    lines = [f'digraph "{ad.name}" {{', "    rankdir=TB;"]
    for i, role in enumerate(ad.roles):
        lines.append(f'    subgraph cluster_{i} {{')
        lines.append(f'        label="{role}";')
        for n in ad.nodes:
            if ad.role_of[n.name] == role:
                attrs = _DOT_SHAPE[n.kind]
                if "label=" not in attrs:
                    attrs += f', label="{n.name}"'
                lines.append(f'        "{n.name}" [{attrs}];')
        lines.append("    }")
    for t in ad.transitions:
        g = ad.guard(t.src, t.out_pin)
        label = f' [label="[{g}]"]' if g != "true" else ""
        lines.append(f'    "{t.src}" -> "{t.dst}"{label};')
    lines.append("}")
    return "\n".join(lines) + "\n"
