"""Variant 2: every action is a complete method on some object.

Roles are objects, tokens are method calls carrying argument records,
and a node is executing exactly when a matching frame sits on a stack of
its object.  Token buffers live in the data store as per-transition
mailbox objects, so the buffer state is a function of the system state.

An action gathers its inputs through a pin controller (one flag and one
stashed value per input pin); the method starts in the step in which the
last input arrives, consuming one token from every incoming transition
at once.  It then executes for a scenario-determined number of steps
(at least one full step between start and finish) and on finishing emits
call tokens on all outputs.  Fork/join and decision/merge react
instantaneously.  Decision outcomes are data: the feeding action records
its result as an attribute, and guard evaluation looks that result up.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields, replace
from functools import cache

from .diagram import ActivityDiagram, AdsemError, Node, NodeKind, Transition
from .semantics import (
    CONTROL_TOKEN,
    Token,
    VariationBinding,
    call_token,
    fifo_binding,
    configuration_is,
    remember_states,
)
from .sysmodel import Frame, SystemState, Trace, Value

MAILBOX_PREFIX = "mbox:"
CHOICE_PREFIX = "choice:"
MAILBOX_VAR = "tokens"
RESULT_VAR = "result"

ROLE_CALLER = "role"
COMMAND_CALLER = "command"


class SimulationError(AdsemError):
    pass


# ---------------------------------------------------------------------------
# Pin controller (attribute-buffering strategy)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PinController:
    """Tracks which input pins have received a value; firing resets it."""
    pins: tuple[str, ...]
    arrived: tuple[tuple[str, bool], ...] = ()
    stash: tuple[tuple[str, Value], ...] = ()

    @staticmethod
    def for_pins(pins: tuple[str, ...]) -> "PinController":
        return PinController(pins=pins, arrived=tuple((p, False) for p in pins))

    def is_set(self, pin: str) -> bool:
        return dict(self.arrived).get(pin, False)


def deliver(controller: PinController, pin: str, value: Value) -> tuple[PinController, bool]:
    """Record one arriving value; fire when every pin has one.

    Firing clears the controller.  Delivering twice to a pin before the
    controller fires is an error.
    """
    if pin not in controller.pins:
        raise SimulationError(f"unknown input pin {pin!r}")
    if controller.is_set(pin):
        raise SimulationError(f"double delivery on pin {pin!r}")
    arrived = dict(controller.arrived)
    arrived[pin] = True
    stash = dict(controller.stash)
    stash[pin] = value
    if all(arrived.values()):
        return PinController.for_pins(controller.pins), True
    return replace(controller,
                   arrived=tuple((p, arrived[p]) for p in controller.pins),
                   stash=tuple(sorted(stash.items()))), False


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionMethodsInstance:
    """Diagram instance where each action is a method on a role object."""
    ad: ActivityDiagram
    meth: dict[str, str]          # action node -> method name
    oid: dict[str, str]           # action node -> object holding the method
    rrep: dict[str, str]          # role -> object representing it
    threads: frozenset[str]
    thread_of: dict[str, str]     # action node -> thread that runs it
    caller_mode: str = ROLE_CALLER
    sub_variant: bool = True

    def caller_of(self, node: str) -> str:
        if self.caller_mode == COMMAND_CALLER:
            return f"cmd:{node}"
        return self.rrep[self.ad.role_of[node]]

    def method_pc(self, node: str) -> str:
        return f"{self.meth[node]}@body"

    def to_json(self) -> dict:
        return {"meth": dict(self.meth), "oid": dict(self.oid), "rrep": dict(self.rrep),
                "threads": sorted(self.threads), "thread_of": dict(self.thread_of),
                "caller_mode": self.caller_mode, "sub_variant": self.sub_variant}

    @staticmethod
    def from_json(ad: ActivityDiagram, d: dict) -> "ActionMethodsInstance":
        """Raises ValueError unless `meth`, `oid` and `thread_of` name exactly
        the action nodes, `rrep` names every role, each thread of
        `thread_of` is one of `threads`, no two actions share a method, no
        two roles share an object and every `oid` object represents a role."""
        inst = ActionMethodsInstance(
            ad=ad, meth=dict(d["meth"]), oid=dict(d["oid"]), rrep=dict(d["rrep"]),
            threads=frozenset(d["threads"]), thread_of=dict(d["thread_of"]),
            **_variation_points(d))
        actions = {n.name for n in ad.nodes if n.kind is NodeKind.ACTION}
        for key in ("meth", "oid", "thread_of"):
            names = getattr(inst, key).keys()
            if names != actions:
                raise ValueError(f"{key} does not name exactly the action nodes: missing "
                                 f"{sorted(actions - names)}, unknown {sorted(names - actions)}")
        roles = sorted(set(ad.roles) - inst.rrep.keys())
        if roles:
            raise ValueError(f"rrep does not name the roles {roles}")
        threads = sorted(set(inst.thread_of.values()) - inst.threads, key=str)
        if threads:
            raise ValueError(f"thread_of names threads not in threads: {threads}")
        for key, names in (("meth", "actions one method"), ("rrep", "roles one object")):
            values = list(getattr(inst, key).values())
            shared = sorted({v for v in values if values.count(v) > 1}, key=str)
            if shared:
                raise ValueError(f"{key} gives several {names}: {shared}")
        ghosts = sorted(set(inst.oid.values()) - set(inst.rrep.values()), key=str)
        if ghosts:
            raise ValueError(f"oid names objects that represent no role: {ghosts}")
        return inst


@dataclass(frozen=True)
class Scenario:
    """Everything that resolves the simulator's nondeterminism."""
    seed: int = 0
    decisions: dict[str, str] = field(default_factory=dict)   # decision node -> guard text
    durations: dict[str, int] = field(default_factory=dict)   # action node -> executing steps
    sub_variant: bool = True
    caller_mode: str = ROLE_CALLER

    @staticmethod
    def from_json(ad: ActivityDiagram, d: object) -> "Scenario":
        """Raises ValueError for unknown keys, names of nodes the diagram lacks
        or has of another kind, decision outcomes that are not guards of
        their node, durations that are not integers >= 0, a seed that is
        not an integer, and `sub_variant`/`caller_mode` values outside
        their domains."""
        if not isinstance(d, dict):
            raise ValueError(f"a scenario is a JSON object, not {type(d).__name__}")
        unknown = sorted(d.keys() - {f.name for f in fields(Scenario)})
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        decisions, durations = d.get("decisions", {}), d.get("durations", {})
        for key, names, kind in (("decisions", decisions, NodeKind.DECISIONMERGE),
                                 ("durations", durations, NodeKind.ACTION)):
            if not isinstance(names, dict):
                raise ValueError(f"{key} is not a JSON object")
            unknown = sorted(name for name in names
                             if not (ad.has_node(name) and ad.node(name).kind is kind))
            if unknown:
                raise ValueError(f"{key} for unknown {kind.value} nodes {unknown}")
        if any(type(v) is not int or v < 0 for v in durations.values()):
            raise ValueError(f"durations are not all integers >= 0: {durations}")
        unguarded = {name: outcome for name, outcome in decisions.items()
                     if outcome not in [ad.guard(name, pin) for pin in ad.node(name).out_pins]}
        if unguarded:
            raise ValueError(f"decisions are not guards of their nodes: {unguarded}")
        seed = d.get("seed", 0)
        if type(seed) is not int:
            raise ValueError(f"seed is not an integer: {seed!r}")
        return Scenario(seed=seed, decisions=dict(decisions), durations=dict(durations),
                        **_variation_points(d))


def _variation_points(d: dict) -> dict:
    """The checked `sub_variant` and `caller_mode` of a scenario or instance."""
    sub_variant, caller_mode = d.get("sub_variant", True), d.get("caller_mode", ROLE_CALLER)
    if type(sub_variant) is not bool:
        raise ValueError(f"sub_variant is not true or false: {sub_variant!r}")
    if caller_mode not in (ROLE_CALLER, COMMAND_CALLER):
        raise ValueError(f"caller_mode is not {ROLE_CALLER!r} or {COMMAND_CALLER!r}: "
                         f"{caller_mode!r}")
    return {"sub_variant": sub_variant, "caller_mode": caller_mode}


def standard_instance(ad: ActivityDiagram, scenario: Scenario | None = None) -> ActionMethodsInstance:
    """Deterministic instance: one object per role, the method of an
    action living on its role's object, one thread per action."""
    scenario = scenario or Scenario()
    rrep = {role: f"obj:{role}" for role in ad.roles}
    actions = [n for n in ad.nodes if n.kind is NodeKind.ACTION]
    return ActionMethodsInstance(
        ad=ad,
        meth={n.name: f"m:{n.name}" for n in actions},
        oid={n.name: rrep[ad.role_of[n.name]] for n in actions},
        rrep=rrep,
        threads=frozenset(f"th:{n.name}" for n in actions),
        thread_of={n.name: f"th:{n.name}" for n in actions},
        caller_mode=scenario.caller_mode,
        sub_variant=scenario.sub_variant,
    )


# ---------------------------------------------------------------------------
# Mailboxes and the binding
# ---------------------------------------------------------------------------

def mailbox_tokens(s: SystemState, t: Transition) -> tuple[Token, ...]:
    return _tokens(str(s.data_store.get(MAILBOX_PREFIX + t.key, {}).get(MAILBOX_VAR, "[]")))


def _tokens(text: str) -> tuple[Token, ...]:
    """The tokens of a mailbox's JSON text."""
    return tuple(Token.from_json(d) for d in json.loads(text))


def set_mailbox(s: SystemState, t: Transition, tokens: tuple[Token, ...]) -> SystemState:
    raw = json.dumps([tok.to_json() for tok in tokens], sort_keys=True)
    return s.set_attr(MAILBOX_PREFIX + t.key, MAILBOX_VAR, raw)


def method_frame_present(n: Node, inst: ActionMethodsInstance, s: SystemState) -> bool:
    """A frame for the node's method, on the node's object, anywhere in
    the stack of any of the instance's threads."""
    return _runs(n, inst, _running_methods(inst, s))


def _running_methods(inst: ActionMethodsInstance, s: SystemState) -> set[tuple[str, str]]:
    """(object, method) of every frame that sits on a stack of its own
    object in one of the instance's threads: of the stacks the state holds."""
    objects, threads = inst.oid.values(), inst.threads
    return {(oid, f.mname) for oid, stacks in s.control_store.items() if oid in objects
            for th, stack in stacks.items() if th in threads for f in stack if f.callee == oid}


def _runs(n: Node, inst: ActionMethodsInstance, running: set[tuple[str, str]]) -> bool:
    return n.name in inst.meth and (inst.oid[n.name], inst.meth[n.name]) in running


def evaluate_guard(guard: str, inst: ActionMethodsInstance, s: SystemState) -> bool:
    """"true" holds; any other guard text holds when some object recorded
    it as its result."""
    if guard == "true":
        return True
    return any(attrs.get(RESULT_VAR) == guard for attrs in s.data_store.values())


def methods_binding(inst: ActionMethodsInstance) -> VariationBinding:
    """Buffers are the mailboxes, each distinct mailbox text decoded once
    per binding, as `mailbox_tokens` decodes it; a node executes while its
    method has a frame on its object (`method_frame_present`), and the
    frames of a state are read once."""
    decoded = cache(_tokens)  # a trace repeats few mailbox texts
    running = remember_states(lambda s: _running_methods(inst, s))
    box_of = {t.key: MAILBOX_PREFIX + t.key for t in inst.ad.layout.transitions}
    boxes = list(enumerate(box_of.values()))
    runs_as = {(inst.oid[n.name], inst.meth[n.name]): i  # no two actions share a method
               for i, n in enumerate(inst.ad.nodes) if n.name in inst.meth}

    def touched(_inst, s0, s1):
        """The mailboxes whose raw text differs, among those whose attributes
        differ, and the nodes that started or stopped."""
        d0, d1, empty = s0.data_store, s1.data_store, {}
        return ([p for p, box in boxes if (m0 := d0.get(box, empty)) != (m1 := d1.get(box, empty))
                 and m0.get(MAILBOX_VAR, "[]") != m1.get(MAILBOX_VAR, "[]")],
                [runs_as[key] for key in running(s0) ^ running(s1) if key in runs_as])

    def buf_state(t, _inst, s):
        return decoded(str(s.data_store.get(box_of[t.key], {}).get(MAILBOX_VAR, "[]")))

    return fifo_binding(
        diagram_of=lambda _inst: inst.ad,
        executing=lambda n, _inst, s: _runs(n, inst, running(s)),
        buf_state=buf_state,
        eval_guard=lambda g, _inst, s: evaluate_guard(g, inst, s),
        touched=touched,
    )


def check_role_constraint(inst: ActionMethodsInstance, trace: Trace) -> bool:
    """Sub-variant equation on every pushed action frame: the frame runs
    on the stack of its callee, which is the action's object, which is
    the object that represents the action's role."""
    node_of_meth = {m: n for n, m in inst.meth.items()}
    for i in range(len(trace)):
        s = trace[i]
        for oid, per_thread in s.control_store.items():
            for stack in per_thread.values():
                for f in stack:
                    n = node_of_meth.get(f.mname)
                    if n is not None and not (
                            f.callee == oid == inst.oid[n] == inst.rrep[inst.ad.role_of[n]]):
                        return False
    return True


# ---------------------------------------------------------------------------
# The simulator
# ---------------------------------------------------------------------------

def _initial_state(ad: ActivityDiagram, inst: ActionMethodsInstance) -> tuple[SystemState, list]:
    """The first state and its mailboxes by `ad.layout` position: one token
    on each output of an initial node, as `_produce` makes it, a data token's
    value numbered among the data tokens."""
    ts = ad.layout.transitions
    boxes: list[tuple[Token, ...]] = [()] * len(ts)
    counter = 0
    for n, outs in zip(ad.nodes, ad.layout.outs):
        if n.kind is not NodeKind.INITIAL:
            continue
        for p in outs:
            tok = _produce(ad, ts[p], None, f"{ad.carried(ts[p])}#{counter}")
            boxes[p] = (tok,)
            counter += not tok.is_control
    s = SystemState(data_store={oid: {} for oid in inst.rrep.values()})
    for t, box in zip(ts, boxes):
        s = set_mailbox(s, t, box)
    return s, boxes


def _payload_value(tok: Token, pin: str) -> Value:
    if tok.is_control:
        return True
    args = dict(tok.payload) if isinstance(tok.payload, tuple) else {}
    if pin in args:
        return args[pin]
    return next(iter(args.values()), str(tok.payload))


def _produce(ad: ActivityDiagram, t: Transition, value: Value, fresh: str) -> Token:
    """A token produced on t: the control token, or a call of `ad.carried(t)` passing
    `value`, else `fresh`, to t's input pin."""
    name = ad.carried(t)
    return CONTROL_TOKEN if name is None else call_token(
        name, {t.in_pin: value if value is not None else fresh})


@dataclass
class _Running:
    started_step: int
    duration: int


def simulate(ad: ActivityDiagram, inst: ActionMethodsInstance, scenario: Scenario,
             max_steps: int = 10_000) -> Trace:
    """Drive the simulated object system until a final configuration.  Mailboxes are
    `Token` tuples in `boxes`, by position, written into the state when they change.  Enabled
    events carry over, derived again only where inputs changed and at the node that moved.
    The final check reads `boxes` and `running`, so each action needs a stack of its own.

    Raises SimulationError on a negative `max_steps`, when nothing can move
    before `max_steps` states, or on a stuck (deadlocked, non-final) configuration.
    """
    if max_steps < 0:
        raise SimulationError("max_steps must be >= 0")
    rng = random.Random(scenario.seed)
    state, boxes = _initial_state(ad, inst)
    states = [state]
    running: dict[str, _Running] = {}
    fresh_counter = 0
    nodes, layout = ad.nodes, ad.layout
    ts, ins, outs, reader = layout.transitions, layout.ins, layout.outs, layout.reader
    moved: list[int] = []  # the positions whose mailbox the step changed

    def duration_for(node: str) -> int:
        wanted = scenario.durations.get(node, 2 + rng.randrange(2))
        return max(2, wanted)

    def event_of(i: int) -> tuple[str, str] | None:
        """The start, fire or decide event the i-th node enables; finishes are timed apart."""
        n, full = nodes[i], [len(boxes[p]) != 0 for p in ins[i]]
        if n.kind is NodeKind.DECISIONMERGE:
            return ("decide", n.name) if any(full) else None
        kind = {NodeKind.ACTION: "start", NodeKind.FORKJOIN: "fire"}.get(n.kind)
        return (kind, n.name) if kind and full and all(full) and n.name not in running else None

    def take(p: int) -> Token:
        moved.append(p)
        tok, boxes[p] = boxes[p][0], boxes[p][1:]
        return tok

    def put(p: int, tok: Token) -> None:
        moved.append(p)
        boxes[p] += (tok,)

    def branch(i: int, s: SystemState) -> int | None:
        """The first output of the i-th node whose guard holds in `s`, or None."""
        return next((p for p in outs[i] if evaluate_guard(ad.guard(ts[p].src, ts[p].out_pin), inst, s)), None)

    enabled = [event_of(i) for i in range(len(nodes))]  # by node index: its event or None
    while len(states) <= max_steps:
        if configuration_is(ad, NodeKind.FINAL, lambda p: len(boxes[p]) != 0,
                            lambda i: nodes[i].name in running):
            return Trace(tuple(states), truncated=False)

        step_index = len(states) - 1
        events = [e for e in enabled if e is not None] + [
            ("finish", name) for name, r in running.items()
            if step_index - r.started_step >= r.duration]

        if not events:
            if running:
                states.append(state)  # an executing action just takes time
                continue
            raise SimulationError(
                f"stuck: no event enabled and nothing executing at step {step_index}")

        kind, name = sorted(events)[rng.randrange(len(events))]
        i = layout.index[name]
        moved.clear()
        if kind == "start":
            consumed = [(ts[p], take(p)) for p in ins[i]]
            controller = PinController.for_pins(tuple(t.in_pin for t, _ in consumed))
            deliveries = list(consumed)
            rng.shuffle(deliveries)
            fired = not deliveries
            for t, tok in deliveries:
                controller, fired = deliver(controller, t.in_pin, _payload_value(tok, t.in_pin))
            if not fired:
                raise SimulationError(f"controller of {name!r} did not fire on full delivery")
            for t, tok in consumed:
                if not tok.is_control:
                    state = state.set_attr(inst.oid[name], t.in_pin, _payload_value(tok, t.in_pin))
            frame = Frame.make(inst.oid[name], inst.meth[name], {},
                               inst.method_pc(name), inst.caller_of(name))
            state = state.push(inst.oid[name], inst.thread_of[name], frame)
            running[name] = _Running(step_index, duration_for(name))

        elif kind == "finish":
            state = state.pop(inst.oid[name], inst.thread_of[name])
            for p in outs[i]:
                fresh_counter += 1
                put(p, _produce(ad, ts[p], None, f"{name}#{fresh_counter}"))
                fed = ad.node(ts[p].dst)
                if fed.kind is NodeKind.DECISIONMERGE and _has_real_guards(ad, fed):
                    state = state.set_attr(inst.oid[name], RESULT_VAR,
                                           _choose_outcome(ad, fed, scenario, rng))
            del running[name]

        elif kind == "fire":
            values: list[Value | None] = []
            for p in ins[i]:
                tok = take(p)
                values.append(None if tok.is_control else _payload_value(tok, ts[p].in_pin))
            for k, p in enumerate(outs[i]):
                fresh_counter += 1
                value = values[k % len(values)] if values else None
                put(p, _produce(ad, ts[p], value, f"{name}#{fresh_counter}"))

        else:  # decide
            fed = [p for p in ins[i] if boxes[p]]
            p_in = fed[rng.randrange(len(fed))]
            tok = take(p_in)
            chosen = branch(i, state)
            if chosen is None:
                outcome = _choose_outcome(ad, nodes[i], scenario, rng)
                state = state.set_attr(CHOICE_PREFIX + name, RESULT_VAR, outcome)
                chosen = branch(i, state)
            if chosen is None:
                raise SimulationError(f"stuck-decision: no guard of {name!r} can hold")
            fresh_counter += 1
            value = None if tok.is_control else _payload_value(tok, ts[p_in].in_pin)
            put(chosen, _produce(ad, ts[chosen], value, f"{name}#{fresh_counter}"))

        for p in moved:
            state = set_mailbox(state, ts[p], boxes[p])
        for j in {i, *(reader[p] for p in moved)}:
            enabled[j] = event_of(j)
        states.append(state)

    raise SimulationError(f"no final configuration within {max_steps} states")


def _has_real_guards(ad: ActivityDiagram, n: Node) -> bool:
    return any(ad.guard(n.name, pin) != "true" for pin in n.out_pins)


def _choose_outcome(ad: ActivityDiagram, n: Node, scenario: Scenario,
                    rng: random.Random) -> str:
    if n.name in scenario.decisions:
        return scenario.decisions[n.name]
    guards = sorted({ad.guard(n.name, pin) for pin in n.out_pins} - {"true"})
    if not guards:
        return "true"
    return guards[rng.randrange(len(guards))]
