"""Configuration-level token game: enumerate everything the step
predicates permit, with no system-model encoding in the way.

A configuration is a plain tuple of the token buffers, one per
`ad.layout` position, and the executing flag of each action node, so the
search hashes, compares and builds it in C.  Transition keys and action
names appear only where it is read or written as JSON or DOT; a
configuration means nothing without its diagram.

Successor enumeration supports one-node-at-a-time (interleaving) and
simultaneous-disjoint (concurrent) steps, and instantaneous (one-step) or
start/finish (two-phase) action execution.  A configuration holds no data,
so a guard is only text here: every branch of a decision is explored, and
only a variant's `eval_guard` reads guards.

`as_binding` hands a run to the conformance checker as a trace of its
configurations, which `lifted_binding` reads by position, so the checker
audits everything this module generates with no system state in between.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from functools import cache, partial
from itertools import compress, groupby
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .diagram import ActivityDiagram, AdsemError, EdgeLayout, Node, NodeKind, Transition
from .semantics import (
    CONTROL_TOKEN,
    Token,
    VariationBinding,
    configuration_is,
    fifo_binding,
)
from .sysmodel import Trace, json_object

Buffer = tuple[Token, ...]

INTERLEAVING = "interleaving"
CONCURRENT = "concurrent"
INSTANT = "instant"
TWO_PHASE = "twoPhase"

DEFAULT_BOUND = 100_000


class TokenGameError(AdsemError):
    pass


class Configuration(NamedTuple):
    """Buffers by `ad.layout` position and action executing flags by action
    position, both in the diagram's declaration order; a plain tuple, whose
    hash and equality are `tuple`'s.  `make` and `from_json` validate what
    comes from outside; the token game builds successors directly."""
    buffers: tuple[Buffer, ...]
    flags: tuple[bool, ...]

    @staticmethod
    def make(ad: ActivityDiagram,
             buffers: Mapping[str, Sequence[Token]] | None = None,
             flags: Mapping[str, bool] | None = None) -> "Configuration":
        """Each buffer and flag given written at its position, in one pass over what is given."""
        buffers, flags, view, position = buffers or {}, flags or {}, _view(ad), ad.layout.position
        unknown = buffers.keys() - position.keys()
        if unknown:
            raise TokenGameError(f"buffers for unknown transitions: {sorted(unknown)}")
        unknown = flags.keys() - view.flag_position.keys()
        if unknown:
            raise TokenGameError(f"exec flags for unknown or non-action nodes: {sorted(unknown)}")
        filled, set_ = [()] * len(view.keys), [False] * len(view.actions)
        for k, toks in buffers.items():
            filled[position[k]] = tuple(toks)
        for name, flag in flags.items():
            set_[view.flag_position[name]] = bool(flag)
        return _configuration((tuple(filled), tuple(set_)))

    def to_json(self, ad: ActivityDiagram) -> dict:
        view = _view(ad)
        return {"buffers": {k: [tok.to_json() for tok in buf]
                            for k, buf in zip(view.keys, self.buffers) if buf},
                "exec": dict(zip(view.actions, self.flags))}

    @staticmethod
    def from_json(ad: ActivityDiagram, d: dict) -> "Configuration":
        unknown = json_object(d).keys() - {"buffers", "exec"}
        if unknown:
            raise TokenGameError(f"unknown configuration keys: {sorted(unknown)}")
        raw, flags = d.get("buffers", {}), d.get("exec", {})
        for key, value in (("buffers", raw), ("exec", flags)):
            if type(value) is not dict:
                raise TokenGameError(f"{key} is not a JSON object")
        buffers = {}
        for k, toks in raw.items():
            if type(toks) is not list:
                raise TokenGameError(f"buffer {k!r} is not a JSON list")
            buffers[k] = tuple(map(Token.from_json, toks))
        bad = {name: v for name, v in flags.items() if type(v) is not bool}
        if bad:
            raise TokenGameError(f"exec flags are not all true or false: {bad}")
        return Configuration.make(ad, buffers, flags)

    def canonical(self, ad: ActivityDiagram) -> str:
        return json.dumps(self.to_json(ad), sort_keys=True, separators=(",", ":"))


_configuration = partial(tuple.__new__, Configuration)  # of a (buffers, flags) pair


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------

class StepChoice(NamedTuple):
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
    name = ad.carried(t)
    return CONTROL_TOKEN if name is None else Token(name, f"{t.key}#{position}")


def initial_config(ad: ActivityDiagram) -> Configuration:
    """One token on every outgoing transition of every initial node."""
    view, outs = _view(ad), ad.layout.outs
    if not any(n.kind is NodeKind.INITIAL for n in ad.nodes):
        raise TokenGameError(f"activity {ad.name!r} has no initial node")
    filled = {p for n, ps in zip(ad.nodes, outs) if n.kind is NodeKind.INITIAL for p in ps}
    return _configuration((tuple((view.token(ad, p, 0),) if p in filled else () for p in range(len(view.keys))),
                           (False,) * len(view.actions)))


class Step(NamedTuple):
    """One reaction of a node, with its choice set made once; a move (see `_expand`)."""
    choices: frozenset
    reach: tuple[int, ...]  # the nodes whose enabled steps it can change
    choice: StepChoice
    cons: tuple[int, ...]  # positions it consumes from
    prod: tuple[int, ...]  # positions it produces to
    touches: frozenset[int]  # cons and prod, which no other step of a selection may touch
    flag: int | None  # the flag position that start and finish flip


class _NodeSteps:
    """A node's non-stutter steps in one action mode, with its inputs and,
    under twoPhase, its flag as positions in the `Configuration` layout."""

    def __init__(self, view: _View, layout: EdgeLayout, index: int, n: Node, action_mode: str):
        self.ins = ins = layout.ins[index]
        outs, reader = layout.outs[index], layout.reader
        # under twoPhase an action's flag, which start and finish flip; set, it can only finish
        self.flag = view.flag_of[index] if action_mode == TWO_PHASE and n.kind is NodeKind.ACTION else None

        def step(choice: StepChoice, cons: tuple[int, ...], prod: tuple[int, ...]) -> tuple[Step, ...]:
            # none if it consumes from a transition it produces to: it never fires
            touches = frozenset(cons + prod)
            if len(touches) < len(cons) + len(prod):
                return ()
            # the readers of what it consumes and produces, and its own node,
            # whose flag start and finish flip
            reach = dict.fromkeys([index, *[reader[p] for p in touches if reader[p] is not None]])
            return (Step(frozenset((choice,)), tuple(reach), choice, cons, prod, touches, self.flag),)

        self.steps = self.finish = self.branches = ()
        if n.kind is NodeKind.ACTION and action_mode == INSTANT:
            self.steps = step(StepChoice(n.name, "instant"), ins, outs)
        elif n.kind is NodeKind.ACTION:
            self.steps = step(StepChoice(n.name, "start"), ins, ())
            self.finish = step(StepChoice(n.name, "finish"), (), outs)
        elif n.kind is NodeKind.FORKJOIN:
            self.steps = step(StepChoice(n.name, "forkjoin"), ins, outs)
        elif n.kind is NodeKind.DECISIONMERGE:  # one step per input x output pair
            self.steps = self.branches = tuple(branch for p in ins for q in outs for branch in step(
                StepChoice(n.name, "decision", view.keys[p], view.keys[q]), (p,), (q,)))

    def enabled(self, c: Configuration) -> tuple[Step, ...]:
        """The non-stutter steps that token presence and the flag allow, of a decision those
        whose input holds a token; initial and final nodes only stutter."""
        buffers = c.buffers
        if self.flag is not None and c.flags[self.flag]:
            return self.finish
        for p in self.ins:
            if not buffers[p]:
                return self.branches and tuple(step for step in self.branches if buffers[step.cons[0]])
        return self.steps


class _Steps(tuple):
    """The step table of one action mode: each node's steps, by node index."""

    def scan(self, c: Configuration) -> dict[int, tuple[Step, ...]]:
        """The enabled set of `c`: each node's non-stutter steps by node
        index, every branch of a decision whose input holds a token."""
        return {i: steps for i, ns in enumerate(self) if (steps := ns.enabled(c))}

    def carry(self, enabled: dict[int, tuple[Step, ...]], move: tuple,
              c1: Configuration) -> dict[int, tuple[Step, ...]]:
        """`scan(c1)` for the configuration that `move` made from one whose
        enabled set is `enabled`: only the nodes it reaches change."""
        enabled = enabled.copy()
        for i in move[1]:
            if steps := self[i].enabled(c1):
                enabled[i] = steps
            else:
                enabled.pop(i, None)
        return enabled


class _View:
    """What the token game reads of a diagram on every step: buffers and
    flags by their position in the `Configuration` layout, which holds one
    buffer per transition key and one flag per action name, and the step
    table of each action mode asked for."""

    def __init__(self, ad: ActivityDiagram):
        self.keys = keys = tuple(ad.layout.position)
        self.key_order = [p for _, p in sorted(ad.layout.position.items())]
        self.actions = actions = tuple(dict.fromkeys(n.name for n in ad.nodes if n.kind is NodeKind.ACTION))
        self.flag_position = {name: i for i, name in enumerate(self.actions)}
        self.flag_of = [self.flag_position.get(n.name) for n in ad.nodes]  # by node index
        self.tables: dict[str, _Steps] = {}
        self.tokens: list[list[Token]] = [[] for _ in keys]  # by position, then buffer index
        # the tokens of `tokens`, by themselves, the only ones whose texts are kept: tokens read
        # from a file may be equal, one holding 1 and one True (1 == True == 1.0), in other JSON
        self.made = made = {}
        # `order_key`'s texts, made once: "key": [ by position, a made token's, one-token buffers', flags'
        self.prefix = prefix = [_quote(k) + ": [" for k in keys]
        self.token_json = text = cache(lambda tok: json.dumps(made[tok].to_json(), sort_keys=True))
        self.single = cache(lambda p, tok: prefix[p] + text(tok) + "]")
        # per action by name: flag position and its "name": false/true texts
        flags = [(i, (f"{q}: false", f"{q}: true"))
                 for _, i, q in sorted((a, i, _quote(a)) for i, a in enumerate(actions))]
        self.exec_json = cache(lambda c_flags: "{" + ", ".join([t[c_flags[i]] for i, t in flags]) + "}")

    def table(self, ad: ActivityDiagram, action_mode: str) -> _Steps:
        """The step table of `action_mode`, built on first use and kept."""
        table = self.tables.get(action_mode)
        if table is None:
            if action_mode not in (INSTANT, TWO_PHASE):
                raise TokenGameError(f"unknown action mode {action_mode!r}")
            table = self.tables[action_mode] = _Steps(
                _NodeSteps(self, ad.layout, i, n, action_mode) for i, n in enumerate(ad.nodes))
        return table

    def token(self, ad: ActivityDiagram, p: int, index: int) -> Token:
        """`representative_token`, one object per (position, index) kept in
        `tokens`, so that equal buffers compare by identity, and in `made`."""
        tokens = self.tokens[p]
        while len(tokens) <= index:
            tokens.append(tok := representative_token(ad, ad.layout.transitions[p], len(tokens)))
            self.made[tok] = tok
        return tokens[index]

    def order_key(self, ad: ActivityDiagram, c: Configuration) -> str:
        """`c`'s `run_to_jsonl` line, `json.dumps(c.to_json(ad), sort_keys=True)`, joined from
        memoised texts: each nonempty buffer in key order, whole if it holds one token, else by
        token, and the flags.  No buffer is kept, so a growing one costs no memory.  Keys sort and
        compare as `c.canonical(ad)` does, which is this text less the space after each `,` and
        `:` between items: two texts first differ at the same character in both forms."""
        prefix, single, buffers, text = self.prefix, self.single, c.buffers, self.token_json
        try:
            parts = [single(p, buf[0]) if len(buf) == 1 else prefix[p] + ", ".join(map(text, buf)) + "]"
                     for p in self.key_order if (buf := buffers[p])]
        except (KeyError, TypeError):  # a token no step made, as one read from a file, or unhashable
            return json.dumps(c.to_json(ad), sort_keys=True)
        return '{"buffers": {' + ", ".join(parts) + '}, "exec": ' + self.exec_json(c.flags) + "}"


def _view(ad: ActivityDiagram) -> _View:
    """Built on first use and kept on the diagram, as `cached_property` keeps
    values, so it lives as long as the diagram (unhashable, so uncacheable)."""
    try:
        return ad.__dict__["_token_view"]
    except KeyError:
        view = ad.__dict__["_token_view"] = _View(ad)
        return view


def _apply(ad: ActivityDiagram, view: _View, c: Configuration, step: Step) -> Configuration:
    """`c` after one of its enabled steps."""
    buffers, tokens = list(c.buffers), view.tokens
    for p in step.cons:
        buffers[p] = buffers[p][1:]
    for p in step.prod:
        buf, made = buffers[p], tokens[p]
        buffers[p] = buf + (made[len(buf)] if len(buf) < len(made) else view.token(ad, p, len(buf)),)
    if step.choice.kind == "decision":  # its one production passes on what it consumed, if admitted
        tok, t = c.buffers[step.cons[0]][0], ad.layout.transitions[p]
        if tok in ad.pin_type(t.src, t.out_pin) and tok in ad.pin_type(t.dst, t.in_pin):
            buffers[p] = buf + (tok,)
    if step.flag is None:
        return _configuration((tuple(buffers), c.flags))
    flags = list(c.flags)
    flags[step.flag] = not flags[step.flag]
    return _configuration((tuple(buffers), tuple(flags)))


def _patch(c: Configuration, step: Step, c1: Configuration) -> Configuration:
    """`c` with what `step` wrote into `c1`, its successor of a configuration
    that agrees with `c` at every position and flag the step touches."""
    buffers = list(c.buffers)
    for p in step.touches:
        buffers[p] = c1.buffers[p]
    if step.flag is None:
        return _configuration((tuple(buffers), c.flags))
    flags = list(c.flags)
    flags[step.flag] = c1.flags[step.flag]
    return _configuration((tuple(buffers), tuple(flags)))


def _expand(ad: ActivityDiagram, view: _View, c: Configuration, enabled: dict[int, tuple[Step, ...]],
            mode: str) -> Iterator[tuple[tuple, Configuration]]:
    """The successors of `c`, whose enabled set is `enabled`, unsorted, each with the move
    that makes it: a `Step` or a concurrent selection, a tuple that starts with its choices
    and the nodes whose enabled steps it can change.  Each step is applied to `c` once; a
    selection is patched together from its steps' results.  No enabled step, no successor."""
    if mode == INTERLEAVING:
        for steps in enabled.values():
            for step in steps:
                yield step, _apply(ad, view, c, step)
        return
    if mode != CONCURRENT:
        raise TokenGameError(f"unknown mode {mode!r}")
    # at most one step per node and no two touching one position; reach is empty only at the start
    grown = [(frozenset(), (), frozenset(), c)]
    for steps in enabled.values():
        singles = [(step, _apply(ad, view, c, step)) for step in steps]
        grown += [(choices | step.choices, reach + step.reach, touched | step.touches,
                   _patch(c0, step, c1) if reach else c1)
                  for choices, reach, touched, c0 in grown
                  for step, c1 in singles if touched.isdisjoint(step.touches)]
    for selection in grown[1:]:
        yield selection, selection[3]


def _ordered(items: list, key: Callable[..., str]) -> list:
    """`items`, each a move and the configuration it makes, in the order of
    every successor list: by `key` of the configuration, its JSON-lines text,
    which orders as `canonical(ad)` does, the sorted labels of the move's
    choices breaking ties."""
    if len(items) < 2:
        return items
    keys = [key(c1) for _, c1 in items]
    if len(set(keys)) < len(keys):  # a tie, which the labels break
        keys = [(k, sorted(ch.label() for ch in move[0])) for k, (move, _) in zip(keys, items)]
    return list(map(items.__getitem__, sorted(range(len(items)), key=keys.__getitem__)))


def successors(ad: ActivityDiagram, c: Configuration, mode: str = INTERLEAVING,
               action_mode: str = INSTANT) -> list[tuple[frozenset, Configuration]]:
    """All permitted next configurations with the choices that reach them,
    sorted by `canonical()`, the step labels breaking ties.  Interleaving:
    exactly one node takes a non-stutter step.  Concurrent: any nonempty
    set of nodes whose consumed and produced transition sets are pairwise
    disjoint fires simultaneously."""
    view = _view(ad)
    succ = list(_expand(ad, view, c, view.table(ad, action_mode).scan(c), mode))
    return [(move[0], c1) for move, c1 in _ordered(succ, partial(view.order_key, ad))]


# ---------------------------------------------------------------------------
# Configuration-level finality
# ---------------------------------------------------------------------------

def config_is_final(ad: ActivityDiagram, c: Configuration) -> bool:
    """`semantics.is_final_state`, read off the configuration."""
    flag_of = _view(ad).flag_of
    return configuration_is(ad, NodeKind.FINAL, lambda p: bool(c.buffers[p]),
                            lambda i: flag_of[i] is not None and c.flags[flag_of[i]])


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------

@dataclass
class ReachabilityResult:
    initial: Configuration
    configs: list[Configuration]
    edges: list[tuple[Configuration, frozenset, Configuration]]
    truncated: bool
    dead_ends: list[Configuration]  # expanded to no successor at all, before any bound


def reachable(ad: ActivityDiagram, mode: str = INTERLEAVING, action_mode: str = INSTANT,
              bound: int = DEFAULT_BOUND) -> ReachabilityResult:
    """BFS closure of `successors` from the initial configuration, up to
    `bound` distinct configurations, each queued with its enabled set, made
    from its parent's.  Only new successors number configurations, so only
    they are sorted; a revisit costs one lookup, and its edge leads to the
    instance first reached.  `reachability_to_dot` sorts the edges."""
    if bound < 1:
        raise TokenGameError("bound must be >= 1")
    view, start = _view(ad), initial_config(ad)
    table, key = view.table(ad, action_mode), partial(view.order_key, ad)
    visited = {start: start}  # each configuration's first instance, in BFS order
    edges: list[tuple[Configuration, frozenset, Configuration]] = []
    dead_ends: list[Configuration] = []
    truncated = False
    queue = deque([(start, table.scan(start))])
    while queue:
        c, enabled = queue.popleft()
        if not enabled:
            dead_ends.append(c)
        new = []  # the successors not seen before; a revisit is only looked up
        for move, c1 in _expand(ad, view, c, enabled, mode):
            if (kept := visited.get(c1)) is None:
                new.append((move, c1))
            else:
                edges.append((c, move[0], kept))
        for move, c1 in _ordered(new, key):
            if len(visited) < bound or c1 in visited:  # in: reached by an earlier move
                kept = visited.setdefault(c1, c1)
                if kept is c1:
                    queue.append((c1, table.carry(enabled, move, c1)))
                edges.append((c, move[0], kept))
            else:
                truncated = True
    return ReachabilityResult(start, list(visited), edges, truncated, dead_ends)


@dataclass
class AnalysisReport:
    configurations: int
    edges: int
    truncated: bool
    deadlocks: list[Configuration]
    final_reachability: dict[str, bool]
    decision_coverage: dict[str, bool]
    never_fired: list[str]

    def to_json(self, ad: ActivityDiagram) -> dict:
        return {
            "configurations": self.configurations,
            "edges": self.edges,
            "truncated": self.truncated,
            "deadlocks": [c.to_json(ad) for c in self.deadlocks],
            "final_reachability": self.final_reachability,
            "decision_coverage": self.decision_coverage,
            "never_fired": self.never_fired,
        }


def analyze(ad: ActivityDiagram, result: ReachabilityResult) -> AnalysisReport:
    """Deadlocks (non-final configurations with no successor; one whose
    successors a bound cut is not one), reachability of each final input,
    branch coverage per decision output pin, and nodes that never fired."""
    deadlocks = [c for c in result.dead_ends if not config_is_final(ad, c)]

    view = _view(ad)
    final_reach: dict[str, bool] = {}
    for n, ps in zip(ad.nodes, ad.layout.ins):
        if n.kind is NodeKind.FINAL:
            for p in ps:
                final_reach[view.keys[p]] = any(c.buffers[p] for c in result.configs)

    coverage: dict[str, bool] = {}
    for n in ad.nodes:
        if n.kind is NodeKind.DECISIONMERGE:
            for pin in n.out_pins:
                coverage[f"{n.name}.{pin}"] = False
    fired: set[str] = set()
    for choices in {choices for _, choices, _ in result.edges}:  # a search repeats few choice sets
        for ch in choices:
            fired.add(ch.node)
            if ch.kind == "decision" and ch.out_edge:
                t = ad.layout.transitions[ad.layout.position[ch.out_edge]]
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
    cut: bool = False  # its last configuration has successors

    def __post_init__(self):
        if len(self.choices) != len(self.configs) - 1:
            raise TokenGameError("a run has one choice set per step")


def random_run(ad: ActivityDiagram, seed: int = 0, mode: str = INTERLEAVING,
               action_mode: str = INSTANT, max_len: int = 200) -> Run:
    """One seeded run of at most `max_len` configurations, cut if it still
    had successors there."""
    if max_len < 1:
        raise TokenGameError("bound must be >= 1")
    rng, view = random.Random(seed), _view(ad)
    table, key = view.table(ad, action_mode), partial(view.order_key, ad)
    configs, choices = [initial_config(ad)], []
    enabled = table.scan(configs[0])
    while len(configs) < max_len:
        succ = _ordered(list(_expand(ad, view, configs[-1], enabled, mode)), key)
        if not succ:
            return Run(tuple(configs), tuple(choices))
        move, c1 = succ[rng.randrange(len(succ))]
        enabled = table.carry(enabled, move, c1)
        configs.append(c1)
        choices.append(move[0])
    cut = next(_expand(ad, view, configs[-1], enabled, mode), None) is not None
    return Run(tuple(configs), tuple(choices), cut)


# ---------------------------------------------------------------------------
# Judging runs
# ---------------------------------------------------------------------------

def lifted_binding(ad: ActivityDiagram) -> VariationBinding:
    """The open functions over configurations of `ad`, read by position:
    a token-game trace holds the configurations themselves."""
    view = _view(ad)
    position, flag_position = ad.layout.position, view.flag_position
    flag_node = {f: i for i, f in enumerate(view.flag_of) if f is not None}  # flag position -> node index

    def touched(inst, c0: Configuration, c1: Configuration) -> tuple[list[int], list[int]]:
        """The positions whose buffers differ and the nodes whose flags differ."""
        return ([p for p, (b0, b1) in enumerate(zip(c0.buffers, c1.buffers)) if b0 != b1],
                [flag_node[f] for f, (f0, f1) in enumerate(zip(c0.flags, c1.flags)) if f0 != f1])

    return fifo_binding(
        diagram_of=lambda inst: ad,
        executing=lambda n, inst, c: n.name in flag_position and c.flags[flag_position[n.name]],
        buf_state=lambda t, inst, c: c.buffers[position[t.key]],
        eval_guard=lambda guard, inst, c: True,
        touched=touched,
    )


def as_binding(ad: ActivityDiagram, run: Sequence[Configuration],
               mode: str = INTERLEAVING, action_mode: str = INSTANT,
               truncated: bool | None = None) -> tuple[ActivityDiagram, VariationBinding, Trace]:
    """A run as a trace of its configurations, with the diagram as its
    instance and `lifted_binding` to read them.

    When `truncated` is not given it is derived: a run whose last
    configuration still has successors, some step of its enabled set, is
    a prefix.
    """
    if not run:
        raise TokenGameError("empty run")
    if truncated is None:  # an enabled step is a successor in either mode
        truncated = bool(_view(ad).table(ad, action_mode).scan(run[-1]))
        if mode not in (INTERLEAVING, CONCURRENT):
            raise TokenGameError(f"unknown mode {mode!r}")
    return ad, lifted_binding(ad), Trace(tuple(run), truncated=truncated)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def run_to_jsonl(ad: ActivityDiagram, run: Iterable[Configuration]) -> str:
    """A `json.dumps(c.to_json(ad), sort_keys=True)` line per configuration: its `order_key`."""
    key = partial(_view(ad).order_key, ad)
    return "".join([key(c) + "\n" for c in run])


def reachability_to_dot(ad: ActivityDiagram, result: ReachabilityResult) -> str:
    index, view = {c: i for i, c in enumerate(result.configs)}, _view(ad)
    ends = [p for n, ps in zip(ad.nodes, ad.layout.ins) if n.kind is NodeKind.FINAL for p in ps]

    def describe(c: Configuration) -> str:
        parts = [f"{k}({len(buf)})" for k, buf in zip(view.keys, c.buffers) if buf]
        parts += compress(view.actions, c.flags)
        return "\\n".join(parts) if parts else "empty"

    lines = [f'digraph "{ad.name}-reachability" {{']
    for c, i in index.items():  # a final configuration holds a token before a final node
        shape = "doublecircle" if any(c.buffers[p] for p in ends) and config_is_final(ad, c) else "box"
        lines.append(f'    n{i} [shape={shape}, label="{describe(c)}"];')
    # sources as `reachable` expands them, each looked up once per run of edges; targets by key rank, then labels
    target = {c: (r, index[c]) for r, c in enumerate(sorted(index, key=partial(view.order_key, ad)))}
    label = {chs: (labels, ", ".join(labels)) for chs in {chs for _, chs, _ in result.edges}
             for labels in [sorted(ch.label() for ch in chs)]}
    rows = [(i, target[c1], label[chs]) for c0, out in groupby(result.edges, itemgetter(0))
            for i in [index[c0]] for _, chs, c1 in out]
    for i, (_, j), (_, text) in sorted(rows):
        lines.append(f'    n{i} -> n{j} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
