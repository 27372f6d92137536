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
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property

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

    def __contains__(self, token: object) -> bool:
        """The type as its token set: `any` admits every token, `control` the control
        token (a `semantics.Token` whose `type_name` is None), a data type the tokens
        of its name; what has no `type_name` is no token."""
        name = getattr(token, "type_name", ...)
        return name is not ... and (self.kind is PinKind.TOP or name == self.data_name)


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


@dataclass(frozen=True, init=False)
class Transition:
    src: str
    out_pin: str
    dst: str
    in_pin: str
    key: str = field(init=False, repr=False, compare=False)

    def __init__(self, src: str, out_pin: str, dst: str, in_pin: str):  # the key is made here, once
        self.__dict__.update(src=src, out_pin=out_pin, dst=dst, in_pin=in_pin,
                             key=f"{src}.{out_pin}->{dst}.{in_pin}")


@dataclass(frozen=True)
class EdgeLayout:
    """A diagram's only adjacency: its transitions, one per key (two declarations of one
    pinned edge are one edge), and per node, in the order of `nodes`, its incoming and
    outgoing transitions as positions among them, in declaration order.  `position` maps
    each key to its position, `index` each node name to its first node's index, and
    `reader` and `writer` each position to the index of the node it enters and leaves
    (None if no node has that name)."""
    transitions: tuple[Transition, ...]
    ins: tuple[tuple[int, ...], ...]
    outs: tuple[tuple[int, ...], ...]
    position: dict[str, int]
    index: dict[str, int]
    reader: tuple[int | None, ...]
    writer: tuple[int | None, ...]


@dataclass(frozen=True)
class ActivityDiagram:
    name: str
    nodes: tuple[Node, ...]
    transitions: tuple[Transition, ...]
    role_of: dict[str, str]
    pin_types: dict[tuple[str, str], PinType]
    guards: dict[tuple[str, str], str]

    @cached_property
    def layout(self) -> EdgeLayout:
        """Built on first use, in one pass over the transitions."""
        index = {n.name: i for i, n in reversed(tuple(enumerate(self.nodes)))}
        position: dict[str, int] = {}
        by_key: dict[str, Transition] = {}
        ins: defaultdict[str, dict[int, None]] = defaultdict(dict)  # by node name, positions as keys
        outs: defaultdict[str, dict[int, None]] = defaultdict(dict)
        for t in self.transitions:
            p = position.setdefault(t.key, len(position))
            by_key[t.key] = t
            ins[t.dst][p] = outs[t.src][p] = None
        ts = tuple(by_key.values())
        return EdgeLayout(ts, tuple(tuple(ins[n.name]) for n in self.nodes),
                          tuple(tuple(outs[n.name]) for n in self.nodes), position, index,
                          tuple(index.get(t.dst) for t in ts), tuple(index.get(t.src) for t in ts))

    def node(self, name: str) -> Node:
        i = self.layout.index.get(name)
        if i is None:
            raise DiagramError(f"unknown node {name!r} in activity {self.name!r}")
        return self.nodes[i]

    def has_node(self, name: str) -> bool:
        return name in self.layout.index

    def pin_type(self, node: str, pin: str) -> PinType:
        try:
            return self.pin_types[(node, pin)]
        except KeyError:
            raise DiagramError(f"unknown pin {node}.{pin}") from None

    def guard(self, node: str, pin: str) -> str:
        return self.guards.get((node, pin), "true")

    def carried(self, t: Transition) -> str | None:
        """The type name of a token produced on `t`: the output pin's data type, else the
        input pin's, else None (the control token)."""
        return (self.pin_type(t.src, t.out_pin).data_name
                or self.pin_type(t.dst, t.in_pin).data_name)

    @property
    def roles(self) -> tuple[str, ...]:
        seen: list[str] = []
        for n in self.nodes:
            r = self.role_of[n.name]
            if r not in seen:
                seen.append(r)
        return tuple(seen)


class AdsemError(Exception):
    """Base of the errors that `adsem` reports as usage errors (exit 3)."""


class DiagramError(AdsemError):
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
    """The transitions ending at the node, each key once, in declaration order."""
    return _adjacent(ad, node, ad.layout.ins)


def outgoing(ad: ActivityDiagram, node: Node | str) -> tuple[Transition, ...]:
    """The transitions starting at the node, each key once, in declaration order."""
    return _adjacent(ad, node, ad.layout.outs)


def _adjacent(ad: ActivityDiagram, node: Node | str, sides: tuple[tuple[int, ...], ...]
              ) -> tuple[Transition, ...]:
    name = node if isinstance(node, str) else node.name
    i = ad.layout.index.get(name)
    if i is None:
        raise DiagramError(f"unknown node {name!r}")
    return tuple(ad.layout.transitions[p] for p in sides[i])


# ---------------------------------------------------------------------------
# Lexer / parser
# ---------------------------------------------------------------------------

# One match per token, skipping the whitespace and comments before it.
# Group 1 is the token, group 2 is set on a name and group 3 on a character
# that starts no token; at the end of input group 1 matches empty, so the
# token list ends with "".  Each match succeeds where the last one ended (a
# non-space character is at worst bad), so the scan skips no text and never
# backtracks into whitespace or a comment.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|//[^\n]*)*
    (   "(?:[^"\\]|\\.)*" | -> | [{};:,.]
      | ([A-Za-z_][A-Za-z0-9_]*)
      | (\S)
      | \Z )
    """,
    re.VERBOSE,
)

_KINDS = {k.value: k for k in NodeKind}


def _lex(text: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The tokens' texts, ending with "" at the end of input, and beside
    them the same text where the token is a name, else ""."""
    toks, names, bad = zip(*_TOKEN_RE.findall(text))
    if any(bad):
        i = next(i for i, b in enumerate(bad) if b)
        raise _error(text, i, "syntax-error", f"unexpected character {bad[i]!r}")
    return toks, names


def _error(text: str, i: int, code: str, message: str) -> ParseError:
    """A diagnostic at the i-th token.  Tokens carry no location: it is
    found here by scanning the text again, as `line:col` of the token's
    first character, or "end of input"."""
    for k, m in enumerate(_TOKEN_RE.finditer(text)):
        if k == i:
            break
    if m.group(1):
        pos = m.start(1)
        line, line_start = text.count("\n", 0, pos) + 1, text.rfind("\n", 0, pos) + 1
        loc = f"{line}:{pos - line_start + 1}"
    else:
        loc = "end of input"
    return ParseError([Diagnostic(Severity.ERROR, code, loc, f"{message} at {loc}")])


def _expected(text: str, toks: tuple[str, ...], i: int, what: str) -> ParseError:
    return _error(text, i, "syntax-error", f"expected {what}, got {toks[i] or 'end of input'!r}")


def parse(text: str) -> ActivityDiagram:
    """Parse `.ad` text into a pin-complete diagram.

    Raises ParseError carrying located diagnostics on malformed input,
    duplicate names, or edges referencing unknown nodes/pins.  The parser
    walks the token list by index; a real token is always followed by one
    more, the final "".
    """
    toks, names = _lex(text)
    if toks[0] != "activity":
        raise _expected(text, toks, 0, "'activity'")
    if not names[1]:
        raise _expected(text, toks, 1, "activity name")
    if toks[2] != "{":
        raise _expected(text, toks, 2, "'{'")
    nodes: list[tuple] = []
    role_of: dict[str, str] = {}
    pin_types: dict[tuple[str, str], PinType] = {}
    guards: dict[tuple[str, str], str] = {}
    edges: list[tuple[int, str, str | None, str, str | None]] = []
    i = 3
    while (tok := toks[i]) != "}":
        if tok in _KINDS:
            i = _node_decl(text, toks, names, i, nodes, role_of, pin_types, guards)
        elif names[i]:
            i = _edge_decl(text, toks, names, i, edges)
        elif tok:
            raise _error(text, i, "syntax-error", f"expected node or edge declaration, got {tok!r}")
        else:
            raise _error(text, i, "syntax-error", "unexpected end of input, missing '}'")
    if toks[i + 1]:
        raise _error(text, i + 1, "syntax-error", "trailing input after '}'")
    return _complete(text, names[1], nodes, role_of, pin_types, guards, edges)


def _node_decl(text, toks, names, i, nodes, role_of, pin_types, guards) -> int:
    """Read the node declaration at token i; return the index after it.
    Each of its clauses may appear once."""
    kind, at, name = _KINDS[toks[i]], i + 1, names[i + 1]
    if not name:
        raise _expected(text, toks, at, "node name")
    if name in role_of:
        raise _error(text, at, "duplicate-node", f"duplicate node name {name!r}")
    clauses: dict = {}
    i += 2
    while (tok := toks[i]) != ";":
        if tok in clauses:
            raise _error(text, i, "syntax-error", f"repeated {tok!r} clause in node declaration")
        if tok == "role":
            if not names[i + 1]:
                raise _expected(text, toks, i + 1, "role name")
            clauses[tok], i = names[i + 1], i + 2
        elif tok == "in" or tok == "out":
            clauses[tok], i = _pins(text, toks, names, i + 1)
        elif tok == "effect":
            clauses[tok], i = _string(text, toks, i + 1)
        elif tok:
            raise _error(text, i, "syntax-error", f"unexpected token {tok!r} in node declaration")
        else:
            raise _error(text, i, "syntax-error", "unexpected end of input in node declaration")
    ins, outs = clauses.get("in", []), clauses.get("out", [])
    for pin, ptype, _ in ins + outs:
        if (name, pin) in pin_types:
            raise _error(text, at, "duplicate-pin", f"duplicate pin {name}.{pin}")
        pin_types[(name, pin)] = ptype
    for pin, _, guard in ins:
        if guard is not None:
            raise _error(text, at, "syntax-error", f"guard on input pin {name}.{pin}")
    for pin, _, guard in outs:
        guards[(name, pin)] = "true" if guard is None else guard
    nodes.append((kind, name, [p[0] for p in ins], [p[0] for p in outs], clauses.get("effect", "")))
    role_of[name] = clauses.get("role", DEFAULT_ROLE)
    return i + 1


def _pins(text, toks, names, i) -> tuple[list[tuple[str, PinType, str | None]], int]:
    """Read the pin list at token i as (name, type, guard or None); return
    it and the index after it."""
    pins = []
    while True:
        pin, ptype, guard = names[i], CONTROL, None
        if not pin:
            raise _expected(text, toks, i, "pin name")
        i += 1
        if toks[i] == ":":
            if not (tname := names[i + 1]):
                raise _expected(text, toks, i + 1, "pin type")
            ptype = TOP if tname == "any" else data_type(tname)
            i += 2
        if toks[i] == "guard":
            guard, i = _string(text, toks, i + 1)
        pins.append((pin, ptype, guard))
        if toks[i] != ",":
            return pins, i
        i += 1


def _string(text, toks, i) -> tuple[str, int]:
    if toks[i][:1] != '"':
        raise _expected(text, toks, i, "string")
    return toks[i][1:-1].replace('\\"', '"').replace("\\\\", "\\"), i + 1


def _edge_decl(text, toks, names, i, edges) -> int:
    """Read the edge declaration at token i; return the index after it."""
    at, src, src_pin, dst_pin = i, toks[i], None, None
    i += 1
    if toks[i] == ".":
        if not (src_pin := names[i + 1]):
            raise _expected(text, toks, i + 1, "source pin")
        i += 2
    if toks[i] != "->":
        raise _expected(text, toks, i, "'->'")
    if not (dst := names[i + 1]):
        raise _expected(text, toks, i + 1, "destination node")
    i += 2
    if toks[i] == ".":
        if not (dst_pin := names[i + 1]):
            raise _expected(text, toks, i + 1, "destination pin")
        i += 2
    if toks[i] != ";":
        raise _expected(text, toks, i, "';'")
    if (src_pin is None) != (dst_pin is None):
        raise _error(text, at, "syntax-error", "edge must name pins on both ends or neither")
    edges.append((at, src, src_pin, dst, dst_pin))
    return i + 1


def _complete(text, ad_name, nodes, role_of, pin_types, guards, edges) -> ActivityDiagram:
    """Pin completion: a pin-elided edge gets a fresh control pin at each
    end, appended to its node's pins in edge order and numbered per node
    and side (`_o1`, `_o2`, ...; `_i1`, ...) past every name taken."""
    pins = {name: (ins, outs) for _, name, ins, outs, _ in nodes}
    last: dict[tuple[str, str], int] = {}
    transitions: list[Transition] = []

    def fresh(node: str, prefix: str) -> str:
        k = last.get((node, prefix), 0) + 1
        while (node, f"{prefix}{k}") in pin_types:
            k += 1
        last[(node, prefix)] = k
        pin_types[(node, f"{prefix}{k}")] = CONTROL
        return f"{prefix}{k}"

    for at, src, src_pin, dst, dst_pin in edges:
        for endpoint in (src, dst):
            if endpoint not in pins:
                raise _error(text, at, "unknown-node", f"edge references unknown node {endpoint!r}")
        outs, ins = pins[src][1], pins[dst][0]
        if src_pin is None:
            src_pin = fresh(src, "_o")
            outs.append(src_pin)
            guards[(src, src_pin)] = "true"
        elif src_pin not in outs:
            raise _error(text, at, "unknown-pin", f"edge references unknown output pin {src}.{src_pin}")
        if dst_pin is None:
            dst_pin = fresh(dst, "_i")
            ins.append(dst_pin)
        elif dst_pin not in ins:
            raise _error(text, at, "unknown-pin", f"edge references unknown input pin {dst}.{dst_pin}")
        transitions.append(Transition(src, src_pin, dst, dst_pin))

    return ActivityDiagram(
        name=ad_name,
        nodes=tuple(Node(kind, name, tuple(ins), tuple(outs), effect)
                    for kind, name, ins, outs, effect in nodes),
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
    text = pin if ptype == CONTROL else f"{pin}: {ptype}"
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
    if not any(n.kind is NodeKind.INITIAL for n in ad.nodes):
        diags.append(Diagnostic(Severity.ERROR, "missing-initial", f"activity {ad.name}",
                                f"activity {ad.name!r} has no initial node"))
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
