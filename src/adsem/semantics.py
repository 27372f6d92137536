"""Variation points and the variant-independent step/conformance predicates.

A binding supplies the open functions of the semantics: how an instance
maps to its diagram, when a node counts as executing, which tokens a pin
type admits, what sits in a transition buffer, what a step consumed and
produced, and how guards evaluate.  Everything else here is fixed: what
an initial/final configuration is, which per-node steps are allowed, and
when a whole trace conforms to a diagram instance.

All predicates are pure; they only read the binding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple, TypeVar

from .diagram import ActivityDiagram, DiagramError, Node, NodeKind, PinType, Transition
from .sysmodel import SystemState, Trace


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

class Token(NamedTuple):
    """A unit of flow: the control token (type_name None) or a typed
    data token with an opaque payload.  A tuple, so that buffers and
    configurations hash and compare in C."""
    type_name: str | None = None
    payload: object = None

    @property
    def is_control(self) -> bool:
        return self.type_name is None

    def to_json(self) -> object:
        if self.is_control:
            return "control"
        payload = self.payload
        if isinstance(payload, tuple):
            payload = dict(payload)
        return {"type": self.type_name, "payload": payload}

    @staticmethod
    def from_json(d: object) -> "Token":
        if d == "control":
            return CONTROL_TOKEN
        if not isinstance(d, dict):
            raise ValueError(f"not a token: {d!r}")
        if "type" not in d:
            raise ValueError("missing key 'type'")
        if not d.keys() <= {"type", "payload"}:
            raise ValueError(f"unknown token keys: {sorted(d.keys() - {'type', 'payload'})}")
        type_name, payload = d["type"], d.get("payload")
        if type(type_name) is not str:
            raise ValueError(f"token type is not a string: {type_name!r}")
        if isinstance(payload, dict):
            payload = tuple(sorted(payload.items()))
        return Token(type_name, payload)


CONTROL_TOKEN = Token()


def call_token(type_name: str, args: dict[str, object]) -> Token:
    """A data token whose payload is an argument record (pin -> value)."""
    return Token(type_name, tuple(sorted(args.items())))


def admissible_tokens(ptype: PinType) -> PinType:
    """Default pin-type interpretation, `elems`: a pin type is its own token
    set (`PinType.__contains__`), so control pins admit only the control
    token, `any` admits everything, and data types are nominal."""
    return ptype


# ---------------------------------------------------------------------------
# Bindings
# ---------------------------------------------------------------------------

Buffer = tuple[Token, ...]


@dataclass(frozen=True)
class VariationBinding:
    """The bundle of open functions a variant supplies.  A state is whatever they read (a
    `SystemState` of variant 1 or 2, a token-game `Configuration`); nothing else reads it.
    `delta(inst, s0, s1)` maps each `layout` position a pair may touch to
    `(len(cons), len(prod), bool(buf_state(s1)))`, and each node whose flag may differ to
    `executing(s1)`: any other position has empty `cons` and `prod` and one buffer in both
    states, and any other node keeps its flag.  The step predicates and `conforms` read a
    pair only through `delta`; `cons` and `prod` state its contract and the buffer law."""
    diagram_of: Callable[[object], ActivityDiagram]
    executing: Callable[[Node, object, SystemState], bool]
    elems: Callable[[PinType], PinType]
    buf_state: Callable[[Transition, object, SystemState], Buffer]
    cons: Callable[[Transition, object, SystemState, SystemState], Buffer]
    prod: Callable[[Transition, object, SystemState, SystemState], Buffer]
    eval_guard: Callable[[str, object, SystemState], bool]
    delta: Callable[[object, SystemState, SystemState], tuple[dict, dict[int, bool]]]


_Derived = TypeVar("_Derived")


def remember_states(derive: Callable[[SystemState], _Derived]
                    ) -> Callable[[SystemState], _Derived]:
    """`derive(s)`, remembered for the two most recent states (by
    identity): the two states of the pair being judged."""
    recent: list[tuple[SystemState, _Derived]] = []

    def remembered(s: SystemState) -> _Derived:
        for state, value in recent:
            if state is s:
                return value
        value = derive(s)
        recent[:] = [*recent[-1:], (s, value)]
        return value
    return remembered


def buffer_types_ok(t: Transition, inst: object, s: SystemState, b: VariationBinding) -> bool:
    """Every buffered token lies in the token sets of both endpoint pins."""
    ad = b.diagram_of(inst)
    in_set = b.elems(ad.pin_type(t.dst, t.in_pin))
    out_set = b.elems(ad.pin_type(t.src, t.out_pin))
    return all(tok in in_set and tok in out_set for tok in b.buf_state(t, inst, s))


# ---------------------------------------------------------------------------
# Initial / final configurations
# ---------------------------------------------------------------------------

def is_initial_state(inst: object, s: SystemState, b: VariationBinding) -> bool:
    """Some initial node has tokens on all its outgoing transitions, and
    every other node has empty outgoing buffers and is not executing."""
    return _state_is(NodeKind.INITIAL, inst, s, b)


def is_final_state(inst: object, s: SystemState, b: VariationBinding) -> bool:
    """Some final node has a token on an incoming transition, and every
    other node has empty incoming buffers and is not executing."""
    return _state_is(NodeKind.FINAL, inst, s, b)


def _state_is(kind: NodeKind, inst: object, s: SystemState, b: VariationBinding) -> bool:
    ad, transitions = b.diagram_of(inst), b.diagram_of(inst).layout.transitions
    return configuration_is(ad, kind, lambda p: len(b.buf_state(transitions[p], inst, s)) != 0,
                            lambda i: b.executing(ad.nodes[i], inst, s))


def configuration_is(ad: ActivityDiagram, kind: NodeKind, buffered: Callable[[int], bool],
                     executing: Callable[[int], bool]) -> bool:
    """The initial (or final) clause: some node of `kind` has all (or any)
    of its outgoing (or incoming) buffers filled, and every node of
    another kind has those buffers empty and is not executing.
    `buffered(p)` reads the transition at position p of `ad.layout` and
    `executing(i)` the flag of the i-th node."""
    filled, sides = (all, ad.layout.outs) if kind is NodeKind.INITIAL else (any, ad.layout.ins)
    return (any(n.kind is kind and filled(buffered(p) for p in side)
                for n, side in zip(ad.nodes, sides))
            and _busy(ad, kind, buffered, executing) is None)


def _busy(ad: ActivityDiagram, kind: NodeKind, buffered: Callable[[int], bool],
          executing: Callable[[int], bool]) -> Node | None:
    """The first node of another kind than `kind` that `configuration_is`
    finds filled or executing, or None."""
    sides = ad.layout.outs if kind is NodeKind.INITIAL else ad.layout.ins
    return next((n for i, (n, side) in enumerate(zip(ad.nodes, sides))
                 if n.kind is not kind and (any(buffered(p) for p in side) or executing(i))),
                None)


# ---------------------------------------------------------------------------
# Step predicates
# ---------------------------------------------------------------------------

# The clauses of a permitted step, over one node's counts: `ins` consumed
# per incoming and `outs` produced per outgoing transition, and the
# executing flag before (f0) and after (f1).

def _stutter(ins, outs, f0, f1) -> bool:
    return f0 == f1 and not any(ins) and not any(outs)


def _start(ins, outs, f0, f1) -> bool:
    return not f0 and f1 and all(c == 1 for c in ins) and not any(outs)


def _finish(ins, outs, f0, f1) -> bool:
    return f0 and not f1 and all(p == 1 for p in outs) and not any(ins)


def _instant(ins, outs, f0, f1) -> bool:
    return f0 == f1 and all(c == 1 for c in ins) and all(p == 1 for p in outs)


def _decides(ins, outs, out_edges: tuple[int, ...], holds: Callable[[int], bool]) -> bool:
    """Exactly one input gave a token and exactly one output took one
    (counts are never negative, so a sum of one means a single 1 among
    zeros), and the guard of that output holds."""
    return sum(ins) == 1 and sum(outs) == 1 and holds(out_edges[outs.index(1)])


def _allows(kind: NodeKind, ins, outs, f0: bool, f1: bool, out_edges: tuple[int, ...],
            holds: Callable[[int], bool]) -> bool:
    """A stutter, or the node-kind-specific reaction; `out_edges` are the
    positions of the outgoing transitions and `holds(p)` evaluates the
    guard of the transition at position p in the pair's second state."""
    if _stutter(ins, outs, f0, f1):
        return True
    if kind is NodeKind.ACTION:
        return (_start(ins, outs, f0, f1) or _finish(ins, outs, f0, f1)
                or _instant(ins, outs, f0, f1))
    if kind is NodeKind.FORKJOIN:
        return _instant(ins, outs, f0, f1)
    if kind is NodeKind.DECISIONMERGE:
        return _decides(ins, outs, out_edges, holds)
    return False


def _reaction(moves: dict, moved: dict[int, bool], i: int, ins: tuple[int, ...],
              outs: tuple[int, ...], f0: bool) -> tuple[list[int], list[int], bool, bool]:
    """The i-th node's counts and flags in a pair whose `delta` is `(moves, moved)`:
    consumed per incoming and produced per outgoing position (0 where the pair
    touches none), and its flag before (`f0`) and after."""
    return ([moves[p][0] if p in moves else 0 for p in ins],
            [moves[p][1] if p in moves else 0 for p in outs], f0, moved.get(i, f0))


def _node_step(n: Node, inst: object, s0: SystemState, s1: SystemState, b: VariationBinding):
    """One node's view of the pair, for the named predicates: the
    arguments of `_allows` after the node's kind, read from `b.delta` as
    `conforms` reads them."""
    ad = b.diagram_of(inst)
    i = ad.layout.index.get(n.name)
    if i is None:
        raise DiagramError(f"unknown node {n.name!r}")
    ins, outs, ts = ad.layout.ins[i], ad.layout.outs[i], ad.layout.transitions
    return (*_reaction(*b.delta(inst, s0, s1), i, ins, outs, b.executing(n, inst, s0)), outs,
            lambda p: b.eval_guard(ad.guard(ts[p].src, ts[p].out_pin), inst, s1))


def stutters(n: Node, inst: object, s0: SystemState, s1: SystemState,
             b: VariationBinding) -> bool:
    """The node's execution flag is unchanged and none of its adjacent
    transitions consumed or produced anything."""
    ins, outs, f0, f1, _, _ = _node_step(n, inst, s0, s1, b)
    return _stutter(ins, outs, f0, f1)


def starts_action(n: Node, inst: object, s0: SystemState, s1: SystemState,
                  b: VariationBinding) -> bool:
    """Execution begins: flag flips on, one token consumed per incoming
    transition, nothing produced."""
    ins, outs, f0, f1, _, _ = _node_step(n, inst, s0, s1, b)
    return _start(ins, outs, f0, f1)


def finishes_action(n: Node, inst: object, s0: SystemState, s1: SystemState,
                    b: VariationBinding) -> bool:
    """Execution ends: flag flips off, one token produced per outgoing
    transition, nothing consumed."""
    ins, outs, f0, f1, _, _ = _node_step(n, inst, s0, s1, b)
    return _finish(ins, outs, f0, f1)


def fires_instantly(n: Node, inst: object, s0: SystemState, s1: SystemState,
                    b: VariationBinding) -> bool:
    """The whole reaction in one step: one token consumed per incoming
    and one produced per outgoing transition, the flag unchanged.  A
    fork/join reacts by the same rule."""
    ins, outs, f0, f1, _, _ = _node_step(n, inst, s0, s1, b)
    return _instant(ins, outs, f0, f1)


def fires_decision(n: Node, inst: object, s0: SystemState, s1: SystemState,
                   b: VariationBinding) -> bool:
    """Exactly one incoming transition consumes one token and exactly one
    outgoing transition produces one token whose guard holds afterwards."""
    ins, outs, _, _, out_edges, holds = _node_step(n, inst, s0, s1, b)
    return _decides(ins, outs, out_edges, holds)


def allows_step(n: Node, inst: object, s0: SystemState, s1: SystemState,
                b: VariationBinding) -> bool:
    """Whether the state change is permitted for this node: a stutter, or
    the node-kind-specific reaction.  Initial and final nodes only ever
    stutter; anything else would create or destroy tokens unaccounted."""
    return _allows(n.kind, *_node_step(n, inst, s0, s1, b))


# ---------------------------------------------------------------------------
# Trace conformance
# ---------------------------------------------------------------------------

class StateError(Exception):
    """`(index, reason)`: a binding could not read a value of the trace state at `index`."""


class VerdictKind(enum.Enum):
    SATISFIED = "satisfied"
    SATISFIED_SO_FAR = "satisfied-so-far"
    NO_INITIAL_FOUND = "no-initial-found"
    VIOLATED = "violated"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    index: int | None = None
    node: str | None = None
    predicate: str | None = None

    @property
    def ok(self) -> bool:
        return self.kind in (VerdictKind.SATISFIED, VerdictKind.SATISFIED_SO_FAR)

    def to_json(self) -> dict:
        return {"verdict": self.kind.value, "index": self.index,
                "node": self.node, "predicate": self.predicate}


_STEP_PREDICATE = {
    NodeKind.ACTION: "step:action",
    NodeKind.FORKJOIN: "step:forkjoin",
    NodeKind.DECISIONMERGE: "step:decisionmerge",
    NodeKind.INITIAL: "step:initial",
    NodeKind.FINAL: "step:final",
}


def conforms(trace: Trace, inst: object, b: VariationBinding) -> Verdict:
    """Check a trace against the diagram instance: find the first initial state, then
    require every later step to be allowed for every node and finality to persist.  A pair
    is judged from its `b.delta` at the readers of what it consumed, the writers of what it
    produced and the nodes it lists, in declaration order, by a plan (`_checks`) made once
    per delta and flags, and found by identity once the binding has returned one delta
    object again.  A pair whose plan is found by identity is judged, guards aside, from the
    abstract configuration before it (buffered bits, flags, loads and finality counts) and
    its plan; what it asks and leads to is kept per plan, by configuration.  A state the
    binding cannot read raises `StateError`."""
    ad = b.diagram_of(inst)
    for start, s0 in enumerate(trace):
        try:
            if is_initial_state(inst, s0, b):
                break
        except (ValueError, TypeError) as e:  # a value of s0 the binding cannot read
            raise StateError(start, str(e)) from e
    else:
        return Verdict(VerdictKind.NO_INITIAL_FOUND)

    nodes, transitions, ins = ad.nodes, ad.layout.transitions, ad.layout.ins
    readers, writers = ad.layout.reader, ad.layout.writer
    flags = [b.executing(n, inst, s0) for n in nodes]
    buffered = [len(b.buf_state(t, inst, s0)) != 0 for t in transitions]
    # the final clause as two counts: lit[False] of the busy non-final nodes, lit[True] of the
    # filled final nodes; a node's load is its filled inputs, plus its flag if it is not final
    final = [n.kind is NodeKind.FINAL for n in nodes]
    load = [sum(buffered[p] for p in ins[i]) + (flags[i] and not final[i]) for i in range(len(nodes))]
    lit = [sum(1 for i, n in enumerate(load) if n and final[i] is f) for f in (False, True)]

    def shift(i: int, d: int) -> None:  # node i's load changes by d, one of -1, 0 and 1
        load[i] += d
        if load[i] == (d > 0):  # 0 -> 1 or 1 -> 0
            lit[final[i]] += d
    plans: dict = {}  # delta as items -> (id of the delta it was made from, judged nodes, {flags before: checks},
    #                 {id of an abstract configuration: (checks, the abstract configuration after)})
    held: dict = {}  # id of a delta met again -> (that delta, kept so that no other object takes its id, its plan)
    confs: dict = {}  # abstract configurations, interned and kept, so that no other object takes their ids
    conf = None  # while plans are found by identity, the abstract configuration; the lists catch up on a miss
    for j in range(start, len(trace) - 1):
        s1 = trace[j + 1]
        try:
            delta = b.delta(inst, s0, s1)
        except (ValueError, TypeError) as e:  # a value of s1 the binding cannot read
            raise StateError(j + 1, str(e)) from e
        moves, moved = delta
        if held and (hit := held.get(id(delta))) is not None:  # a binding may return one delta object again
            plan = hit[1]
            if conf is None:
                conf = confs.setdefault(now := (tuple(buffered), tuple(flags), tuple(load), tuple(lit)), now)
            if (known := plan[3].get(id(conf))) is not None:
                for i, guard in known[0]:
                    if not b.eval_guard(guard, inst, s1):
                        return Verdict(VerdictKind.VIOLATED, j, nodes[i].name, _STEP_PREDICATE[nodes[i].kind])
                conf, s0 = known[1], s1
                continue
            buffered[:], flags[:], load[:], lit[:] = conf
        else:
            if conf is not None:
                buffered[:], flags[:], load[:], lit[:] = conf
                conf = None
            key = (tuple(moves.items()), tuple(moved.items()))
            if (plan := plans.get(key)) is None:
                judged = set(moved)
                for p, (consumed, produced, _) in moves.items():
                    if consumed:
                        judged.add(readers[p])
                    if produced:
                        judged.add(writers[p])
                plan = plans[key] = (id(delta), sorted(judged), {}, {})
            elif plan[0] == id(delta):  # made from this object, or from a freed one at its address
                held[id(delta)] = (delta, plan)  # either way its plan, found by identity from now on
        _, judged, by_flags, _ = plan
        f0 = tuple([flags[i] for i in judged])
        if (checks := by_flags.get(f0)) is None:
            checks = by_flags[f0] = _checks(ad, moves, moved, judged, f0)
        for i, guard in checks:
            if guard is None or not b.eval_guard(guard, inst, s1):
                return Verdict(VerdictKind.VIOLATED, j, nodes[i].name, _STEP_PREDICATE[nodes[i].kind])
        final0 = not lit[False] and lit[True]
        for p, (_, _, filled) in moves.items():
            shift(readers[p], filled - buffered[p])
            buffered[p] = filled
        for i, f1 in moved.items():
            shift(i, 0 if final[i] else f1 - flags[i])
            flags[i] = f1
        if final0 and (lit[False] or not lit[True]):
            # a final node exists, for s0 was final; blame a busy node before it
            blamed = (_busy(ad, NodeKind.FINAL, buffered.__getitem__, flags.__getitem__)
                      or next(n for n in nodes if n.kind is NodeKind.FINAL))
            return Verdict(VerdictKind.VIOLATED, j, blamed.name, "final-persistence")
        if conf is not None:  # a pair that passed: its checks and where it leads, from this configuration
            after = confs.setdefault(now := (tuple(buffered), tuple(flags), tuple(load), tuple(lit)), now)
            plan[3][id(conf)], conf = (checks, after), after
        s0 = s1
    if trace.truncated:
        return Verdict(VerdictKind.SATISFIED_SO_FAR)
    return Verdict(VerdictKind.SATISFIED)


def _checks(ad: ActivityDiagram, moves: dict, moved: dict[int, bool], judged: list[int],
            f0: tuple[bool, ...]) -> list[tuple[int, str | None]]:
    """What judging nodes `judged`, flags `f0` before, asks of a pair whose `delta` is `(moves,
    moved)`, in node order: `(i, guard)` where decision i needs its branch's guard to hold in
    the pair's second state, and a last `(i, None)` where node i refuses whatever the guards."""
    checks, (transitions, ins, outs) = [], (ad.layout.transitions, ad.layout.ins, ad.layout.outs)
    for i, flag in zip(judged, f0):
        asked: list[int] = []  # the branch whose guard `_allows` reads, if it reads one
        if not _allows(ad.nodes[i].kind, *_reaction(moves, moved, i, ins[i], outs[i], flag), outs[i],
                       lambda p: not asked.append(p)):
            return checks + [(i, None)]
        checks += [(i, ad.guard(transitions[p].src, transitions[p].out_pin)) for p in asked]
    return checks


# ---------------------------------------------------------------------------
# Buffer discipline
# ---------------------------------------------------------------------------

def fifo_delta(before: Buffer, after: Buffer) -> tuple[Buffer, Buffer]:
    """Infer (consumed, produced) from two buffer snapshots under the
    FIFO law, choosing the decomposition with minimal movement (the
    longest suffix of `before` that is a prefix of `after` stays put)."""
    if before == after:
        return (), ()
    for keep in range(min(len(before), len(after)), -1, -1):
        if keep == 0 or before[-keep:] == after[:keep]:
            return before[:len(before) - keep], after[keep:]


def fifo_binding(diagram_of, executing, buf_state, eval_guard, touched) -> VariationBinding:
    """A binding from the open functions of the same names, with the default
    pin-type interpretation, whose buffers obey the FIFO law: `cons` and
    `prod` are the `fifo_delta` of a transition's buffer in the two states,
    and `delta` takes it at the positions `touched(inst, s0, s1)` lists."""
    def cons(t: Transition, inst: object, s0: SystemState, s1: SystemState) -> Buffer:
        return fifo_delta(buf_state(t, inst, s0), buf_state(t, inst, s1))[0]

    def prod(t: Transition, inst: object, s0: SystemState, s1: SystemState) -> Buffer:
        return fifo_delta(buf_state(t, inst, s0), buf_state(t, inst, s1))[1]

    def delta(inst: object, s0: SystemState, s1: SystemState) -> tuple[dict, dict[int, bool]]:
        ad, (positions, nodes), moves = diagram_of(inst), touched(inst, s0, s1), {}
        for p in positions:
            t = ad.layout.transitions[p]
            before, after = buf_state(t, inst, s0), buf_state(t, inst, s1)
            consumed, produced = fifo_delta(before, after)
            moves[p] = (len(consumed), len(produced), len(after) != 0)
        return moves, {i: executing(ad.nodes[i], inst, s1) for i in nodes}

    return VariationBinding(diagram_of, executing, admissible_tokens, buf_state, cons, prod,
                            eval_guard, delta)
