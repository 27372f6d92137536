"""Configuration-level token game: enumerate everything the step
predicates permit, with no system-model encoding in the way.

A configuration is just the per-transition token buffers plus the
executing flag of each action node.  Successor enumeration supports
one-node-at-a-time (interleaving) and simultaneous-disjoint (concurrent)
steps, and instantaneous (one-step) or start/finish (two-phase) action
execution.  Guards are resolved by a three-valued oracle; "either"
explores both branches.

Runs lift into the system model via `as_binding`, so the conformance
checker can audit everything this module generates.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .diagram import ActivityDiagram, Node, NodeKind, PinKind, Transition, incoming, outgoing
from .semantics import (
    CONTROL_TOKEN,
    Token,
    VariationBinding,
    admissible_tokens,
    configuration_is,
    fifo_binding,
)
from .sysmodel import SystemState, Trace

Buffer = tuple[Token, ...]

INTERLEAVING = "interleaving"
CONCURRENT = "concurrent"
INSTANT = "instant"
TWO_PHASE = "twoPhase"

DEFAULT_BOUND = 100_000


class TokenGameError(Exception):
    pass


@dataclass(frozen=True)
class Configuration:
    """Total buffer map (by transition key) and action executing flags, in
    the diagram's declaration order.  `make` and `from_json` validate what
    comes from outside; the token game builds successors directly."""
    buffers: tuple[tuple[str, Buffer], ...]
    flags: tuple[tuple[str, bool], ...]

    @staticmethod
    def make(ad: ActivityDiagram,
             buffers: Mapping[str, Sequence[Token]] | None = None,
             flags: Mapping[str, bool] | None = None) -> "Configuration":
        buffers = dict(buffers or {})
        flags = dict(flags or {})
        view = _view(ad)
        unknown = set(buffers) - view.by_key.keys()
        if unknown:
            raise TokenGameError(f"buffers for unknown transitions: {sorted(unknown)}")
        unknown = set(flags) - view.flag_position.keys()
        if unknown:
            raise TokenGameError(f"exec flags for unknown or non-action nodes: {sorted(unknown)}")
        return Configuration(
            buffers=tuple((k, tuple(buffers.get(k, ()))) for k in view.by_key),
            flags=tuple((name, bool(flags.get(name, False))) for name in view.actions),
        )

    @property
    def token_count(self) -> int:
        return sum(len(buf) for _, buf in self.buffers)

    def to_json(self) -> dict:
        return {
            "buffers": {k: [tok.to_json() for tok in buf] for k, buf in self.buffers if buf},
            "exec": {name: value for name, value in self.flags},
        }

    @staticmethod
    def from_json(ad: ActivityDiagram, d: dict) -> "Configuration":
        buffers = {k: [Token.from_json(tok) for tok in toks]
                   for k, toks in d.get("buffers", {}).items()}
        return Configuration.make(ad, buffers, d.get("exec", {}))

    def canonical(self) -> str:
        return _dumps(self.to_json())

    def __hash__(self) -> int:
        # Once per configuration, which the search, `analyze` and the DOT
        # export hash again; not `cached_property`, which locks on 3.10/3.11.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            return self.__dict__.setdefault("_hash", hash((self.buffers, self.flags)))


def _dumps(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Guard oracles
# ---------------------------------------------------------------------------

TRUE, FALSE, EITHER = "true", "false", "either"


class GuardOracle:
    """Three-valued guard resolution; "either" explores both branches."""

    def decide(self, guard: str, config: Configuration) -> str:
        raise NotImplementedError


class ExploreAllBranches(GuardOracle):
    """The literal guard "true" holds; everything else is unresolved."""

    def decide(self, guard: str, config: Configuration) -> str:
        return TRUE if guard == "true" else EITHER


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepChoice:
    """Which permitted reaction a node took in a step."""
    node: str
    kind: str  # start | finish | instant | forkjoin | decision
    in_edge: str | None = None
    out_edge: str | None = None

    def label(self) -> str:
        if self.kind == "decision":
            return f"{self.node}:{self.in_edge}=>{self.out_edge}"
        return f"{self.node}:{self.kind}"


def representative_token(ad: ActivityDiagram, t: Transition, position: int) -> Token:
    """Deterministic token for a production on t; the payload depends only
    on the transition and the landing position so reachability closes."""
    out_type = ad.pin_type(t.src, t.out_pin)
    in_type = ad.pin_type(t.dst, t.in_pin)
    for ptype in (out_type, in_type):
        if ptype.kind is PinKind.DATA:
            return Token(ptype.data_name, f"{t.key}#{position}")
    return CONTROL_TOKEN


def initial_config(ad: ActivityDiagram) -> Configuration:
    """One token on every outgoing transition of every initial node."""
    initials = [n for n in ad.nodes if n.kind is NodeKind.INITIAL]
    if not initials:
        raise TokenGameError(f"activity {ad.name!r} has no initial node")
    buffers: dict[str, list[Token]] = {}
    for n in initials:
        for t in outgoing(ad, n):
            buffers[t.key] = [representative_token(ad, t, 0)]
    return Configuration.make(ad, buffers)


class Step(NamedTuple):
    """One reaction of a node, with its choice set and label made once."""
    choice: StepChoice
    cons: tuple[int, ...]  # positions it consumes from
    prod: tuple[int, ...]  # positions it produces to
    choices: frozenset
    label: str

    @staticmethod
    def of(choice: StepChoice, cons: tuple[int, ...], prod: tuple[int, ...]) -> "Step":
        return Step(choice, cons, prod, frozenset((choice,)), choice.label())


class _NodeView:
    """A node's adjacency as buffer positions (in the `Configuration`
    layout), and the steps it can take."""

    def __init__(self, ad: ActivityDiagram, view: _View, n: Node,
                 ins: tuple[int, ...], outs: tuple[int, ...]):
        self.node = n
        self.flag = view.flag_position.get(n.name)
        self.ins, self.outs = ins, outs
        shapes = {NodeKind.ACTION: (("start", ins, ()), ("finish", (), outs), ("instant", ins, outs)),
                  NodeKind.FORKJOIN: (("forkjoin", ins, outs),)}
        self.steps: dict[str, Step] = {kind: Step.of(StepChoice(n.name, kind), cons, prod)
                                       for kind, cons, prod in shapes.get(n.kind, ())}
        # decisions: (input position, guard, step) per input x output pair
        self.branches: list[tuple[int, str, Step]] = [
            (view.position[t_in.key], ad.guard(t_out.src, t_out.out_pin),
             Step.of(StepChoice(n.name, "decision", t_in.key, t_out.key),
                     (view.position[t_in.key],), (view.position[t_out.key],)))
            for t_in in incoming(ad, n) for t_out in outgoing(ad, n)
        ] if n.kind is NodeKind.DECISIONMERGE else []

    def executing(self, c: Configuration) -> bool:
        return self.flag is not None and c.flags[self.flag][1]


class _View:
    """What the token game reads of a diagram on every step: buffers and
    flags by their position in the `Configuration` layout, which holds one
    buffer per transition key and one flag per action name."""

    def __init__(self, ad: ActivityDiagram):
        layout = ad.layout
        self.by_key = {t.key: t for t in layout.transitions}
        self.position = {k: i for i, k in enumerate(self.by_key)}
        self.key_order = [p for _, p in sorted(self.position.items())]
        self.actions = tuple(dict.fromkeys(n.name for n in ad.nodes if n.kind is NodeKind.ACTION))
        self.flag_position = {name: i for i, name in enumerate(self.actions)}
        self.nodes = [_NodeView(ad, self, n, ins, outs)
                      for n, ins, outs in zip(ad.nodes, layout.ins, layout.outs)]
        self.tokens: dict[tuple[int, int], Token] = {}
        self.fragments: dict[tuple[str, Buffer], str] = {}
        self.exec_json: dict[tuple[tuple[str, bool], ...], str] = {}

    def token(self, ad: ActivityDiagram, p: int, index: int) -> Token:
        """`representative_token`, one object per (position, index), so that
        equal buffers compare by identity."""
        return self.tokens.get((p, index)) or self.tokens.setdefault(
            (p, index), representative_token(ad, ad.layout.transitions[p], index))

    def order_key(self, c: Configuration) -> str:
        """`c.canonical()`, joined from memoised JSON fragments: one per
        nonempty buffer, in key order, and one for the flags."""
        frags, execs = self.fragments, self.exec_json
        parts = []
        try:
            for p in self.key_order:
                pair = c.buffers[p]
                if pair[1]:
                    parts.append(frags.get(pair) or frags.setdefault(
                        pair, _dumps({pair[0]: [tok.to_json() for tok in pair[1]]})[1:-1]))
        except TypeError:  # unhashable: a payload read from a file may be a list
            return c.canonical()
        flags = execs.get(c.flags) or execs.setdefault(c.flags, _dumps(dict(c.flags)))
        return '{"buffers":{' + ",".join(parts) + '},"exec":' + flags + "}"


def _view(ad: ActivityDiagram) -> _View:
    """Built on first use and kept on the diagram, as `cached_property` keeps
    values, so it lives as long as the diagram (unhashable, so uncacheable)."""
    try:
        return ad.__dict__["_token_view"]
    except KeyError:
        view = ad.__dict__["_token_view"] = _View(ad)
        return view


def _node_choices(view: _View, c: Configuration, guards: GuardOracle,
                  action_mode: str) -> dict[str, list[Step]]:
    """Enabled non-stutter steps per node."""
    buffers = c.buffers
    choices: dict[str, list[Step]] = {}
    for nv in view.nodes:
        kind = nv.node.kind
        opts: list[Step] = []
        if kind is NodeKind.ACTION:
            inputs_ready = all(buffers[p][1] for p in nv.ins)
            if action_mode == INSTANT:
                if inputs_ready:
                    opts.append(nv.steps["instant"])
            elif action_mode == TWO_PHASE:
                if nv.executing(c):
                    opts.append(nv.steps["finish"])
                elif inputs_ready:
                    opts.append(nv.steps["start"])
            else:
                raise TokenGameError(f"unknown action mode {action_mode!r}")
        elif kind is NodeKind.FORKJOIN:
            if all(buffers[p][1] for p in nv.ins):
                opts.append(nv.steps["forkjoin"])
        elif kind is NodeKind.DECISIONMERGE:
            for p_in, guard, step in nv.branches:
                if buffers[p_in][1] and guards.decide(guard, c) in (TRUE, EITHER):
                    opts.append(step)
        # initial and final nodes only stutter
        if opts:
            choices[nv.node.name] = opts
    return choices


def _apply(ad: ActivityDiagram, view: _View, c: Configuration,
           steps: Iterable[Step]) -> Configuration:
    buffers = list(c.buffers)
    flags = list(c.flags)
    consumed: dict[int, Token] = {}
    for choice, cons, _, _, _ in steps:
        for p in cons:
            key, buf = buffers[p]
            if not buf:
                raise TokenGameError(f"consume from empty buffer {key}")
            consumed[p] = buf[0]
            buffers[p] = (key, buf[1:])
        if choice.kind in ("start", "finish"):
            flags[view.flag_position[choice.node]] = (choice.node, choice.kind == "start")
    for choice, cons, prod, _, _ in steps:
        for p in prod:
            key, buf = buffers[p]
            tok = view.token(ad, p, len(buf))
            if choice.kind == "decision":
                t = view.by_key[key]
                candidate = consumed[cons[0]]
                out_set = admissible_tokens(ad.pin_type(t.src, t.out_pin))
                in_set = admissible_tokens(ad.pin_type(t.dst, t.in_pin))
                if candidate in out_set and candidate in in_set:
                    tok = candidate
            buffers[p] = (key, buf + (tok,))
    return Configuration(tuple(buffers), tuple(flags))


def successors(ad: ActivityDiagram, c: Configuration, mode: str = INTERLEAVING,
               guards: GuardOracle | None = None,
               action_mode: str = INSTANT) -> list[tuple[frozenset, Configuration]]:
    """All permitted next configurations with the choices that reach them.

    Interleaving: exactly one node takes a non-stutter step.  Concurrent:
    any nonempty set of nodes whose consumed and produced transition sets
    are pairwise disjoint fires simultaneously.
    """
    view = _view(ad)
    per_node = _node_choices(view, c, guards or ExploreAllBranches(), action_mode)
    if mode == INTERLEAVING:
        picks = [(step,) for opts in per_node.values() for step in opts]
    elif mode == CONCURRENT:
        pools = [[None] + per_node[name] for name in sorted(per_node)]
        picks = (tuple(step for step in combo if step is not None)  # the first picks nothing
                 for combo in itertools.islice(itertools.product(*pools), 1, None))
    else:
        raise TokenGameError(f"unknown mode {mode!r}")

    results = []
    for selection in picks:
        consumed = [p for step in selection for p in step.cons]
        if any(p in consumed for step in selection for p in step.prod):
            continue
        if len(selection) == 1:
            choices, labels = selection[0].choices, (selection[0].label,)
        else:
            choices = frozenset(step.choice for step in selection)
            labels = tuple(sorted(step.label for step in selection))
        results.append((choices, labels, _apply(ad, view, c, selection)))
    # the order of canonical(), with the labels breaking ties
    if len(results) > 1:
        results.sort(key=lambda r: (view.order_key(r[2]), r[1]))
    return [(choices, c1) for choices, _, c1 in results]


# ---------------------------------------------------------------------------
# Configuration-level finality
# ---------------------------------------------------------------------------

def config_is_final(ad: ActivityDiagram, c: Configuration) -> bool:
    """`semantics.is_final_state`, read off the configuration."""
    nodes = _view(ad).nodes
    return configuration_is(ad, NodeKind.FINAL, lambda p: bool(c.buffers[p][1]),
                            lambda i: nodes[i].executing(c))


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------

@dataclass
class ReachabilityResult:
    initial: Configuration
    configs: list[Configuration]
    edges: list[tuple[Configuration, frozenset, Configuration]]
    truncated: bool


def reachable(ad: ActivityDiagram, mode: str = INTERLEAVING,
              guards: GuardOracle | None = None, action_mode: str = INSTANT,
              bound: int = DEFAULT_BOUND) -> ReachabilityResult:
    """BFS closure of `successors` from the initial configuration, up to
    `bound` distinct configurations."""
    if bound < 1:
        raise TokenGameError("bound must be >= 1")
    start = initial_config(ad)
    visited: dict[Configuration, None] = {start: None}
    order = [start]
    edges: list[tuple[Configuration, frozenset, Configuration]] = []
    truncated = False
    queue = deque([start])
    while queue:
        c = queue.popleft()
        for choices, c1 in successors(ad, c, mode, guards, action_mode):
            if c1 not in visited:
                if len(visited) >= bound:
                    truncated = True
                    continue
                visited[c1] = None
                order.append(c1)
                queue.append(c1)
            edges.append((c, choices, c1))
    return ReachabilityResult(start, order, edges, truncated)


@dataclass
class AnalysisReport:
    configurations: int
    edges: int
    truncated: bool
    deadlocks: list[Configuration]
    final_reachability: dict[str, bool]
    decision_coverage: dict[str, bool]
    never_fired: list[str]

    def to_json(self) -> dict:
        return {
            "configurations": self.configurations,
            "edges": self.edges,
            "truncated": self.truncated,
            "deadlocks": [c.to_json() for c in self.deadlocks],
            "final_reachability": self.final_reachability,
            "decision_coverage": self.decision_coverage,
            "never_fired": self.never_fired,
        }


def analyze(ad: ActivityDiagram, result: ReachabilityResult) -> AnalysisReport:
    """Deadlocks (maximal non-final configurations), reachability of each
    final input, branch coverage per decision output pin, and nodes that
    never fired."""
    sources = {c for c, _, _ in result.edges}
    deadlocks = [c for c in result.configs if c not in sources and not config_is_final(ad, c)]

    view = _view(ad)
    final_reach: dict[str, bool] = {}
    for n in ad.nodes:
        if n.kind is NodeKind.FINAL:
            for t in incoming(ad, n):
                p = view.position[t.key]
                final_reach[t.key] = any(c.buffers[p][1] for c in result.configs)

    coverage: dict[str, bool] = {}
    for n in ad.nodes:
        if n.kind is NodeKind.DECISIONMERGE:
            for pin in n.out_pins:
                coverage[f"{n.name}.{pin}"] = False
    fired: set[str] = set()
    for _, choices, _ in result.edges:
        for ch in choices:
            fired.add(ch.node)
            if ch.kind == "decision" and ch.out_edge:
                t = view.by_key[ch.out_edge]
                coverage[f"{t.src}.{t.out_pin}"] = True

    never = [n.name for n in ad.nodes
             if n.kind not in (NodeKind.INITIAL, NodeKind.FINAL) and n.name not in fired]
    return AnalysisReport(
        configurations=len(result.configs),
        edges=len(result.edges),
        truncated=result.truncated,
        deadlocks=deadlocks,
        final_reachability=final_reach,
        decision_coverage=coverage,
        never_fired=never,
    )


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Run:
    configs: tuple[Configuration, ...]
    choices: tuple[frozenset, ...]

    def __post_init__(self):
        if len(self.choices) != len(self.configs) - 1:
            raise TokenGameError("a run has one choice set per step")


def maximal_runs(ad: ActivityDiagram, mode: str = INTERLEAVING, action_mode: str = INSTANT,
                 max_runs: int = 1000, max_len: int = 200) -> list[Run]:
    """All runs from the initial configuration that end in a configuration
    with no successors, depth-first up to `max_len` states; longer runs
    are cut and dropped."""
    out: list[Run] = []

    def explore(configs: tuple[Configuration, ...], choices: tuple[frozenset, ...]) -> None:
        if len(out) >= max_runs:
            return
        succ = successors(ad, configs[-1], mode, action_mode=action_mode)
        if not succ:
            out.append(Run(configs, choices))
            return
        if len(configs) >= max_len:
            return
        for chs, c1 in succ:
            explore(configs + (c1,), choices + (chs,))

    explore((initial_config(ad),), ())
    return out


def random_run(ad: ActivityDiagram, seed: int = 0, mode: str = INTERLEAVING,
               action_mode: str = INSTANT, max_len: int = 200) -> tuple[Run, bool]:
    """One seeded run; the flag reports whether it was cut before dying out."""
    rng = random.Random(seed)
    configs: tuple[Configuration, ...] = (initial_config(ad),)
    choices: tuple[frozenset, ...] = ()
    while len(configs) < max_len:
        succ = successors(ad, configs[-1], mode, action_mode=action_mode)
        if not succ:
            return Run(configs, choices), False
        chs, c1 = succ[rng.randrange(len(succ))]
        configs += (c1,)
        choices += (chs,)
    succ = successors(ad, configs[-1], mode, action_mode=action_mode)
    return Run(configs, choices), bool(succ)


# ---------------------------------------------------------------------------
# Lifting configurations into the system model
# ---------------------------------------------------------------------------

BUFFER_OID = "buffers"
FLAGS_OID = "executing"


@dataclass(frozen=True)
class TokenGameInstance:
    """Degenerate diagram instance whose state is the lifted configuration."""
    ad: ActivityDiagram


def lift_config(ad: ActivityDiagram, c: Configuration) -> SystemState:
    """The configuration as a state: buffers (`Token` tuples, shared with the
    configuration) and flags as attributes of two bookkeeping objects.  A
    lifted state is read by `lifted_binding` only and never serialised."""
    return SystemState(data_store={BUFFER_OID: dict(c.buffers), FLAGS_OID: dict(c.flags)})


def lifted_binding(ad: ActivityDiagram) -> VariationBinding:
    position = _view(ad).position
    node_index = {n.name: i for i, n in enumerate(ad.nodes)}

    def changed(inst, s0: SystemState, s1: SystemState) -> tuple[list[int], list[int]]:
        """The buffers and flags whose values differ; a lifted state holds them all."""
        b0, b1, f0, f1 = (s.data_store.get(o, {}) for o in (BUFFER_OID, FLAGS_OID) for s in (s0, s1))
        return ([position[k] for k, toks in b1.items() if b0.get(k, ()) != toks],
                [node_index[name] for name, f in f1.items() if f0.get(name, False) != f])

    return fifo_binding(
        diagram_of=lambda inst: ad,
        executing=lambda n, inst, s: bool(s.data_store.get(FLAGS_OID, {}).get(n.name, False)),
        buf_state=lambda t, inst, s: s.data_store.get(BUFFER_OID, {}).get(t.key, ()),
        eval_guard=lambda guard, inst, s: True,
        changed=changed,
    )


def as_binding(ad: ActivityDiagram, run: Sequence[Configuration],
               mode: str = INTERLEAVING, action_mode: str = INSTANT,
               truncated: bool | None = None) -> tuple[TokenGameInstance, VariationBinding, Trace]:
    """Lift a run of configurations to a system-model trace plus a binding
    that reads buffers and flags straight off the lifted states.

    When `truncated` is not given it is derived: a run whose last
    configuration still has successors is a prefix.
    """
    if not run:
        raise TokenGameError("empty run")
    if truncated is None:
        truncated = bool(successors(ad, run[-1], mode, action_mode=action_mode))
    states = tuple(lift_config(ad, c) for c in run)
    return TokenGameInstance(ad), lifted_binding(ad), Trace(states, truncated=truncated)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def run_to_jsonl(run: Iterable[Configuration]) -> str:
    return "\n".join(json.dumps(c.to_json(), sort_keys=True) for c in run) + "\n"


def reachability_to_dot(ad: ActivityDiagram, result: ReachabilityResult) -> str:
    index = {c: i for i, c in enumerate(result.configs)}

    def describe(c: Configuration) -> str:
        parts = [f"{k}({len(buf)})" for k, buf in c.buffers if buf]
        parts += [name for name, value in c.flags if value]
        return "\\n".join(parts) if parts else "empty"

    lines = [f'digraph "{ad.name}-reachability" {{']
    for c, i in index.items():
        shape = "doublecircle" if config_is_final(ad, c) else "box"
        lines.append(f'    n{i} [shape={shape}, label="{describe(c)}"];')
    for c0, choices, c1 in result.edges:
        label = ", ".join(sorted(ch.label() for ch in choices))
        lines.append(f'    n{index[c0]} -> n{index[c1]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
