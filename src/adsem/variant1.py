"""Variant 1: the whole diagram is one method body of atomic actions.

The running instance is a single method execution: one frame, one
thread, and a program counter that walks the diagram.  A transition
holds the (only) control token exactly when the frame's pc equals the
pc assigned to the transition's destination, so the buffers are a pure
function of the control store.

Decision/merge nodes are crossed within the step of the node that feeds
them: the pc only ever rests on action nodes (and the final node), and
the branch is chosen by evaluating guards against the post-state store.
Resting the pc on a merge would put tokens on all of its incoming
transitions at once, which no step predicate could then clear.

Effects and guards use a small integer action language:
``attr := expr``, ``local x := expr``, and comparison guards over
attributes and locals (exact integer arithmetic with + - *).

The shape restriction this variant needs: every action and final node
has at most one incoming transition (merges belong on decision/merge
nodes) and non-decision nodes have at most one outgoing transition.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import Callable

from .diagram import ActivityDiagram, AdsemError, Node, NodeKind, PinKind, PinType, Transition
from .semantics import CONTROL_TOKEN, Token, VariationBinding
from .sysmodel import Frame, SystemState, Trace, Value, new_state, top_frame


class ActionLanguageError(ValueError):
    """Text that does not parse or evaluate; `check-trace` locates a `ValueError`."""


class VariantError(AdsemError):
    pass


# ---------------------------------------------------------------------------
# Action language
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class NameRef:
    name: str


@dataclass(frozen=True)
class Arith:
    op: str  # + - *
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Compare:
    op: str  # < <= = != >= >
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class BoolLit:
    value: bool


Expr = IntLit | NameRef | Arith
GuardExpr = Compare | BoolLit


@dataclass(frozen=True)
class SetAttr:
    name: str
    expr: Expr


@dataclass(frozen=True)
class SetLocal:
    name: str
    expr: Expr


@dataclass(frozen=True)
class Skip:
    pass


Stmt = SetAttr | SetLocal | Skip

_AL_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<op>:=|<=|>=|!=|==|[-+*<>=()]))")


def _al_lex(text: str) -> list[str]:
    toks: list[str] = []
    pos = 0
    while pos < len(text):
        m = _AL_TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ActionLanguageError(f"bad character {text[pos:].strip()[0]!r} in {text!r}")
            break
        toks.append(m.group("int") or m.group("name") or m.group("op"))
        pos = m.end()
    return toks


class _AL:
    def __init__(self, text: str):
        self.text = text
        self.toks = _al_lex(text)
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ActionLanguageError(f"expected {expected or 'more input'} in {self.text!r}")
        self.i += 1
        return tok

    def atom(self) -> Expr:
        tok = self.take()
        if tok.isdigit():
            return IntLit(int(tok))
        if tok == "(":
            e = self.sum()
            self.take(")")
            return e
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            return NameRef(tok)
        raise ActionLanguageError(f"unexpected {tok!r} in {self.text!r}")

    def term(self) -> Expr:
        e = self.atom()
        while self.peek() == "*":
            self.take()
            e = Arith("*", e, self.atom())
        return e

    def sum(self) -> Expr:
        e = self.term()
        while self.peek() in ("+", "-"):
            e = Arith(self.take(), e, self.term())
        return e

    def done(self) -> None:
        if self.peek() is not None:
            raise ActionLanguageError(f"trailing input {self.peek()!r} in {self.text!r}")


def parse_statement(text: str) -> Stmt:
    """``attr := expr`` or ``local name := expr``; empty text is a skip."""
    if not text.strip():
        return Skip()
    p = _AL(text)
    first = p.take()
    is_local = first == "local" and p.peek() != ":="
    name = p.take() if is_local else first
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        raise ActionLanguageError(f"bad assignment target in {text!r}")
    p.take(":=")
    expr = p.sum()
    p.done()
    return SetLocal(name, expr) if is_local else SetAttr(name, expr)


def parse_guard(text: str) -> GuardExpr:
    """A comparison, or the literals ``true`` / ``false``."""
    stripped = text.strip()
    if stripped == "true":
        return BoolLit(True)
    if stripped == "false":
        return BoolLit(False)
    p = _AL(text)
    left = p.sum()
    op = p.take()
    if op == "==":
        op = "="
    if op not in ("<", "<=", "=", "!=", ">=", ">"):
        raise ActionLanguageError(f"guard needs a comparison, got {op!r} in {text!r}")
    right = p.sum()
    p.done()
    return Compare(op, left, right)


@lru_cache(maxsize=4096)
def _guard(text: str) -> Callable[[dict[str, Value], dict[str, Value]], bool]:
    """`parse_guard`, compiled once per text; text that does not parse raises when called."""
    try:
        return _compiled(parse_guard(text))
    except ActionLanguageError:
        return lambda attrs, locals_: _compiled(parse_guard(text))(attrs, locals_)


@lru_cache(maxsize=4096)
def _effect(text: str) -> Stmt:
    """`parse_statement` once per text; the parsed value is frozen, so callers share it."""
    return parse_statement(text)


_ARITH = {"+": operator.add, "-": operator.sub}  # any other operator multiplies
_CMP = {"<": operator.lt, "<=": operator.le, "=": operator.eq, "!=": operator.ne,
        ">=": operator.ge, ">": operator.gt}


@lru_cache(maxsize=4096)
def _compiled(e: Expr | GuardExpr) -> Callable[[dict[str, Value], dict[str, Value]], int | bool]:
    """An expression or guard as a closure over (attrs, locals_), once per distinct AST.  A
    name reads the local before the attribute, as an `int`; the left operand runs first."""
    if isinstance(e, (IntLit, BoolLit)):
        return lambda attrs, locals_, value=e.value: value
    if isinstance(e, NameRef):
        def read(attrs: dict[str, Value], locals_: dict[str, Value], name: str = e.name) -> int:
            if name in locals_:
                return int(locals_[name])
            if name in attrs:
                return int(attrs[name])
            raise ActionLanguageError(f"unknown attribute or local {name!r}")
        return read
    if not isinstance(e, (Arith, Compare)):
        raise ActionLanguageError(f"cannot evaluate {e!r}")
    op = _ARITH.get(e.op, operator.mul) if isinstance(e, Arith) else _CMP[e.op]
    left, right = _compiled(e.left), _compiled(e.right)
    return lambda attrs, locals_: op(left(attrs, locals_), right(attrs, locals_))


def eval_expr(expr: Expr, attrs: dict[str, Value], locals_: dict[str, Value]) -> int:
    return _compiled(expr)(attrs, locals_)


def eval_guard_expr(g: GuardExpr, attrs: dict[str, Value], locals_: dict[str, Value]) -> bool:
    return _compiled(g)(attrs, locals_)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodExecutionInstance:
    """One method execution: the diagram is the method body."""
    ad: ActivityDiagram
    caller: str
    meth: str
    params: tuple[str, ...]
    callee: str
    pc_map: dict[str, str]
    thread: str

    @cached_property
    def _node_of_pc(self) -> dict[str, str]:
        """pc -> the first node name in `pc_map` that has it; built once per instance."""
        return {pc: name for name, pc in reversed(self.pc_map.items())}

    def node_at(self, pc: str) -> Node | None:
        name = self._node_of_pc.get(pc)
        return None if name is None else self.ad.node(name)

    def to_json(self) -> dict:
        return {"caller": self.caller, "meth": self.meth, "params": list(self.params),
                "callee": self.callee, "pc_map": dict(self.pc_map), "thread": self.thread}

    @staticmethod
    def from_json(ad: ActivityDiagram, d: dict) -> "MethodExecutionInstance":
        """Raises ValueError unless `pc_map` gives each node of `ad` a pc of its own
        and `caller`, `meth`, `callee` and `thread` are strings."""
        pc_map, names = dict(d["pc_map"]), {n.name for n in ad.nodes}
        pcs = list(pc_map.values())
        shared = sorted({pc for pc in pcs if pcs.count(pc) > 1}, key=str)
        if pc_map.keys() != names or shared:
            raise ValueError(f"pc_map does not give each node a pc of its own: missing "
                             f"{sorted(names - pc_map.keys())}, unknown "
                             f"{sorted(pc_map.keys() - names)}, shared {shared}")
        bad = {k: d[k] for k in ("caller", "meth", "callee", "thread") if type(d[k]) is not str}
        if bad:
            raise ValueError(f"instance fields are not strings: {bad}")
        return MethodExecutionInstance(
            ad=ad, caller=d["caller"], meth=d["meth"], params=tuple(d.get("params", ())),
            callee=d["callee"], pc_map=pc_map, thread=d["thread"])


def method_instance(ad: ActivityDiagram) -> MethodExecutionInstance:
    """Standard instance: one pc per node, named after it."""
    pc_map = {n.name: f"pc:{n.name}" for n in ad.nodes}
    return MethodExecutionInstance(ad=ad, caller="obj:caller", meth=f"m:{ad.name}",
                                   params=(), callee="obj:callee", pc_map=pc_map,
                                   thread="th0")


# ---------------------------------------------------------------------------
# Statement semantics (a checker over state pairs)
# ---------------------------------------------------------------------------

def _frames_isolated(s0: SystemState, s1: SystemState, oid: str, thread: str,
                     allow_locals: bool) -> bool:
    """The step touched nothing but the top frame of (oid, thread): same
    stack shape, same frame identity fields, pc changed, and locals only
    when allowed."""
    st0, st1 = s0.stack(oid, thread), s1.stack(oid, thread)
    if not st0 or not st1 or len(st0) != len(st1) or st0[1:] != st1[1:]:
        return False
    f0, f1 = st0[0], st1[0]
    if (f0.callee, f0.mname, f0.caller) != (f1.callee, f1.mname, f1.caller):
        return False
    if f0.pc == f1.pc:
        return False
    if not allow_locals and f0.vars != f1.vars:
        return False
    for o in set(s0.control_store) | set(s1.control_store):
        for th in set(s0.control_store.get(o, {})) | set(s1.control_store.get(o, {})):
            if (o, th) != (oid, thread) and s0.stack(o, th) != s1.stack(o, th):
                return False
    return s0.event_store == s1.event_store


def _stores_equal_except(s0: SystemState, s1: SystemState, oid: str,
                         changed: dict[str, Value]) -> bool:
    """Data stores agree everywhere except `oid`'s attrs in `changed`."""
    for o in set(s0.data_store) | set(s1.data_store):
        before, after = s0.attrs(o), s1.attrs(o)
        if o != oid:
            if before != after:
                return False
            continue
        expected = dict(before)
        expected.update(changed)
        if after != expected:
            return False
    return True


def statement_holds(stmt: Stmt, oid: str, thread: str, s0: SystemState, s1: SystemState) -> bool:
    """Does the state pair mirror executing `stmt` on (oid, thread)?

    The pc moves as the diagram dictates (not judged here); the rest of
    the frame and every other store location must be untouched, and the
    data change must be exactly the statement's effect evaluated in the
    pre-state.
    """
    f0 = top_frame(s0, oid, thread)
    if f0 is None:
        raise VariantError(f"no frame for ({oid!r}, {thread!r})")
    attrs0, locals0 = s0.attrs(oid), f0.locals

    if isinstance(stmt, SetAttr):
        value = eval_expr(stmt.expr, attrs0, locals0)
        if not _stores_equal_except(s0, s1, oid, {stmt.name: value}):
            return False
        if not _frames_isolated(s0, s1, oid, thread, allow_locals=False):
            return False
    elif isinstance(stmt, SetLocal):
        value = eval_expr(stmt.expr, attrs0, locals0)
        if not _stores_equal_except(s0, s1, oid, {}):
            return False
        if not _frames_isolated(s0, s1, oid, thread, allow_locals=True):
            return False
        expected = dict(locals0)
        expected[stmt.name] = value
        if top_frame(s1, oid, thread).locals != expected:
            return False
    elif isinstance(stmt, Skip):
        if not _stores_equal_except(s0, s1, oid, {}):
            return False
        if not _frames_isolated(s0, s1, oid, thread, allow_locals=False):
            return False
    else:
        raise ActionLanguageError(f"unknown statement {stmt!r}")
    return True


# ---------------------------------------------------------------------------
# Buffers, tokens, flow
# ---------------------------------------------------------------------------

def pc_buffer_state(t: Transition, inst: MethodExecutionInstance,
                    s: SystemState) -> tuple[Token, ...]:
    """The control token sits on t exactly when the frame's pc names t's
    destination; with no frame every buffer is empty."""
    frame = top_frame(s, inst.callee, inst.thread)
    if frame is None:
        return ()
    return (CONTROL_TOKEN,) if frame.pc == inst.pc_map.get(t.dst) else ()


def token_domain_v1(ptype: PinType) -> PinType:
    """`elems`: a control or `any` pin type is its own token set; a data type has none here."""
    if ptype.kind is PinKind.DATA:
        raise VariantError(f"data pin type {ptype} has no tokens in the atomic-action variant")
    return ptype


# the kinds a walk lands on and those it may not enter, built once as it tests them per hop
_LANDS, _BARRED = (NodeKind.ACTION, NodeKind.FINAL), (NodeKind.INITIAL, NodeKind.FORKJOIN)


def _flows(ad: ActivityDiagram) -> dict[str, tuple | str]:
    """Node name -> its (guard or None, transition, destination) branches in output-pin order,
    or why control cannot leave it; kept on the diagram, as `cached_property` keeps values."""
    flows = ad.__dict__.get("_v1_flows")
    if flows is None:
        flows = ad.__dict__["_v1_flows"] = {}
        ts = ad.layout.transitions
        for n, ps in zip(ad.nodes, ad.layout.outs):
            outs, guarded = [ts[p] for p in ps], n.kind is NodeKind.DECISIONMERGE
            if guarded or len(outs) == 1:
                flows[n.name] = tuple((_guard(ad.guard(t.src, t.out_pin)) if guarded else None,
                                       t, ad.node(t.dst)) for t in outs)
            else:
                flows[n.name] = (f"{n.name!r} has {len(outs)} outgoing transitions; "
                                 f"sequential flow needs exactly one")
    return flows


def flow_walk(ad: ActivityDiagram, start: Node, attrs: dict[str, Value],
              locals_: dict[str, Value]) -> tuple[Node, list[Transition]]:
    """Follow control from `start` through any decision/merge nodes until
    it lands on an action or final node.  Guards are evaluated in declared
    output-pin order against the given store; the first true guard wins.
    """
    flows, path, node = _flows(ad), [], start
    for _ in range(len(ad.nodes) + 1):
        branches = flows[node.name]
        if type(branches) is str:
            raise VariantError(branches)
        for holds, t, landing in branches:
            if holds is None or holds(attrs, locals_):
                break
        else:
            raise VariantError(f"stuck-decision: no guard of {node.name!r} holds")
        path.append(t)
        node = landing
        if node.kind in _LANDS:
            return node, path
        if node.kind in _BARRED:
            raise VariantError(f"flow reached {node.kind.value} node {node.name!r}")
    raise VariantError("decision cycle: control never reaches an action or final node")


# ---------------------------------------------------------------------------
# Running a method
# ---------------------------------------------------------------------------

def _entry(ad: ActivityDiagram) -> Transition:
    initials = [n for n in ad.nodes if n.kind is NodeKind.INITIAL]
    if len(initials) != 1:
        raise VariantError(f"one initial node required, found {len(initials)}")
    branches = _flows(ad)[initials[0].name]
    if type(branches) is str:
        raise VariantError(branches)
    return branches[0][1]


def _check_shape(ad: ActivityDiagram) -> None:
    for n, ins in zip(ad.nodes, ad.layout.ins):
        if n.kind in (NodeKind.ACTION, NodeKind.FINAL) and len(ins) > 1:
            raise VariantError(f"{n.name!r} has several incoming transitions; "
                               f"merge them on a decision/merge node")


def _pc_step(ad: ActivityDiagram, inst: MethodExecutionInstance, pc: str) -> tuple:
    """None at a final node, else the node at `pc`, its effect as (is a local, name, compiled
    expression) or None, and the pc its flow lands on if it crosses no decision, else None."""
    node = inst.node_at(pc)  # a node, as every pc comes from `pc_map`
    if node.kind is NodeKind.FINAL:
        return None
    effect = landing = None
    if node.kind is NodeKind.ACTION:
        stmt = _effect(node.effect)
        if not isinstance(stmt, Skip):
            effect = (isinstance(stmt, SetLocal), stmt.name, _compiled(stmt.expr))
        branches = _flows(ad)[node.name]
        if type(branches) is not str and branches[0][2].kind in _LANDS:
            landing = inst.pc_map.get(branches[0][2].name)
    elif node.kind is not NodeKind.DECISIONMERGE:
        raise VariantError(f"pc rests on {node.kind.value} node {node.name!r}")
    return node, effect, landing


def run_method(ad: ActivityDiagram, inst: MethodExecutionInstance,
               store: dict[str, Value], max_steps: int = 10_000) -> Trace:
    """Deterministic execution of the diagram as one method call.

    The trace starts in the initial configuration (frame pushed, pc on
    the entry node) and ends in the final configuration (pc on the final
    node); the frame pop that returns from the method happens after the
    conformance-relevant part and is not recorded.  Cut at `max_steps`
    with the truncation flag.
    """
    if max_steps < 0:
        raise VariantError("max_steps must be >= 0")
    _check_shape(ad)
    entry = _entry(ad)
    if len(ad.layout.ins[ad.layout.index[entry.dst]]) > 1:
        raise VariantError(f"entry node {entry.dst!r} has several incoming transitions; "
                           f"no state could count as initial")
    callee, thread, pc_map = inst.callee, inst.thread, inst.pc_map
    attrs = dict(store)
    frame = Frame.make(callee, inst.meth, {p: 0 for p in inst.params}, pc_map[entry.dst],
                       inst.caller)
    data, control, events = {callee: attrs}, {callee: {thread: (frame,)}}, {}
    states = [new_state((data, control, events))]
    # States share stores: one data store per attribute change, one control store per (pc, locals).
    controls = {(frame.pc, frame.vars): control}
    steps: dict[str, tuple] = {}  # pc -> `_pc_step`, built on the pc's first visit
    for _ in range(max_steps):
        step = steps.get(frame.pc) or steps.setdefault(frame.pc, _pc_step(ad, inst, frame.pc))
        if step is None:
            return Trace(tuple(states), truncated=False)
        node, effect, pc = step

        vars_ = frame.vars
        if effect is not None:
            is_local, name, value = effect
            if is_local:
                locals_ = dict(vars_)
                locals_[name] = value(attrs, locals_)
                vars_ = tuple(sorted(locals_.items()))
            else:
                attrs = {**attrs, name: value(attrs, dict(vars_))}
                data = {callee: attrs}
        if pc is None:
            pc = pc_map[flow_walk(ad, node, attrs, dict(vars_))[0].name]
        control = controls.get((pc, vars_))
        if control is None:
            control = controls[pc, vars_] = {
                callee: {thread: (Frame(callee, frame.mname, vars_, pc, frame.caller),)}}
        frame = control[callee][thread][0]
        states.append(new_state((data, control, events)))
    return Trace(tuple(states), truncated=True)


def terminal_store(inst: MethodExecutionInstance, trace: Trace) -> dict[str, Value]:
    return trace[-1].attrs(inst.callee)


# ---------------------------------------------------------------------------
# The binding
# ---------------------------------------------------------------------------

def _movement(inst: MethodExecutionInstance, f0: Frame | None, f1: Frame | None,
              attrs: dict[str, Value]) -> tuple[Node, Node, list[Transition]] | None:
    """The fired node, landing node, and traversed path for a pc change from top frame `f0` to
    `f1` under the (only read) `attrs` after it; None for no movement or an unexplainable jump."""
    if f0 is None or f1 is None or f0.pc == f1.pc:
        return None
    source, target = inst.node_at(f0.pc), inst.node_at(f1.pc)
    if source is None or target is None:
        return None
    try:
        landing, path = flow_walk(inst.ad, source, attrs, f1.locals)
    except VariantError:
        return None
    if landing.name != target.name:
        return None
    return source, landing, path


_NO_FRAME = object()  # the pc of an empty stack: equal to no pc of the instance


def atomic_binding(inst: MethodExecutionInstance) -> VariationBinding:
    """All executions are instantaneous: nothing ever reports executing,
    guards always evaluate true (branching lives in the guard's effect),
    and consumption/production is derived from the pc movement; `delta`
    derives it once per state pair and is built once per distinct movement."""
    ad, callee = inst.ad, inst.callee
    ts = ad.layout.transitions
    at_pc: dict[str | None, list[int]] = {}  # pc -> positions whose buffer holds the token there
    for p, t in enumerate(ts):
        at_pc.setdefault(inst.pc_map.get(t.dst), []).append(p)
    into = {p for p, t in enumerate(ts) if ad.node(t.dst).kind is NodeKind.DECISIONMERGE}
    into_decisions = frozenset(ts[p].key for p in into)
    # the pcs of the nodes whose flow may cross a decision; from any other pc none is crossed
    walks = {inst.pc_map.get(n.name) for n, outs in zip(ad.nodes, ad.layout.outs)
             if n.kind is NodeKind.DECISIONMERGE or not into.isdisjoint(outs)}

    def movement(s0: SystemState, s1: SystemState) -> tuple[object, object, frozenset[str]]:
        """The pc before and after (`_NO_FRAME` without a frame) and the keys
        of the transitions into decisions that the pc crossed."""
        f0, f1 = top_frame(s0, callee, inst.thread), top_frame(s1, callee, inst.thread)
        pc0, pc1 = _NO_FRAME if f0 is None else f0.pc, _NO_FRAME if f1 is None else f1.pc
        move = pc0 in walks and _movement(inst, f0, f1, s1.data_store.get(callee, {}))
        return pc0, pc1, frozenset(t.key for t in move[2]) & into_decisions if move else frozenset()

    def moved(t: Transition, move: tuple[object, object, frozenset[str]],
              produced_side: bool) -> tuple[Token, ...]:
        """The control token sits on t when the pc names t's destination
        (see `pc_buffer_state`): it arrives or leaves with the pc, or passes
        through t into a decision the pc crossed."""
        pc0, pc1, crossed = move
        at = inst.pc_map.get(t.dst)
        before, after = pc0 == at, pc1 == at
        if (after and not before) if produced_side else (before and not after):
            return (CONTROL_TOKEN,)
        return (CONTROL_TOKEN,) if t.key in crossed else ()

    @cache
    def delta_of(move: tuple[object, object, frozenset[str]]) -> tuple[dict, dict]:
        """The transitions into the node of the old and of the new pc and those the pc
        crossed (none when the pc stays), and no nodes, as nothing executes; pairs
        with one movement share the result, so no caller may change it."""
        pc0, pc1, crossed = move
        listed = [] if pc0 == pc1 else (at_pc.get(pc0, []) + at_pc.get(pc1, [])
                                        + [ad.layout.position[k] for k in crossed])
        return {p: (len(moved(ts[p], move, False)), len(moved(ts[p], move, True)),
                    pc1 == inst.pc_map.get(ts[p].dst)) for p in listed}, {}

    return VariationBinding(
        diagram_of=lambda _inst: ad,
        executing=lambda n, _inst, s: False,
        elems=token_domain_v1,
        buf_state=lambda t, _inst, s: pc_buffer_state(t, inst, s),
        cons=lambda t, _inst, s0, s1: moved(t, movement(s0, s1), produced_side=False),
        prod=lambda t, _inst, s0, s1: moved(t, movement(s0, s1), produced_side=True),
        eval_guard=lambda g, _inst, s: True,
        delta=lambda _inst, s0, s1: delta_of(movement(s0, s1)),
    )


# ---------------------------------------------------------------------------
# The effect constraint
# ---------------------------------------------------------------------------

def check_effect_constraint(ad: ActivityDiagram, inst: MethodExecutionInstance,
                            trace: Trace) -> bool:
    """Every pc movement must mirror the fired node's effect: the action's
    statement semantics on the stores, and a true guard (with no store
    effect of its own) for every decision crossed on the way."""
    for s0, s1 in zip(trace, trace.states[1:]):
        f0, f1 = (top_frame(s, inst.callee, inst.thread) for s in (s0, s1))
        if f0 is None or f1 is None or f0.pc == f1.pc:
            continue
        move = _movement(inst, f0, f1, s1.attrs(inst.callee))
        if move is None:
            return False
        source, _, path = move

        if source.kind is NodeKind.ACTION:
            if not statement_holds(_effect(source.effect), inst.callee,
                                   inst.thread, s0, s1):
                return False
        elif source.kind is NodeKind.DECISIONMERGE:
            if not statement_holds(Skip(), inst.callee, inst.thread, s0, s1):
                return False
        else:
            return False

        for t in path:
            if ad.node(t.src).kind is NodeKind.DECISIONMERGE:
                if not _guard(ad.guard(t.src, t.out_pin))(s1.attrs(inst.callee), f1.locals):
                    return False
    return True


def trace_firings(ad: ActivityDiagram, inst: MethodExecutionInstance,
                  trace: Trace) -> list[str]:
    """Node names in firing order, decisions included in traversal order."""
    fired: list[str] = []
    for s0, s1 in zip(trace, trace.states[1:]):
        f0, f1 = (top_frame(s, inst.callee, inst.thread) for s in (s0, s1))
        move = _movement(inst, f0, f1, s1.attrs(inst.callee))
        if move is None:
            continue
        source, _, path = move
        fired.append(source.name)
        fired.extend(t.src for t in path[1:] if ad.node(t.src).kind is NodeKind.DECISIONMERGE)
    return fired
