"""Seeded inputs for the benchmark, each paired with the answer it must give.

Nothing here imports adsem.  Every expected value is a closed form, a
hand count, or a fact read off a file the benchmark wrote itself, so a
wrong answer from the program cannot make its own check pass.

The job mixes are fixed lists of input sizes; the seed chooses node
names, declaration order, scenario seeds, durations, decision outcomes
and mutation sites.  Sizes stay put across seeds so that the latency
percentiles of a mix compare between runs.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

INTERLEAVING, CONCURRENT = "interleaving", "concurrent"
INSTANT, TWO_PHASE = "instant", "twoPhase"

# A copy of the repository's corpus/ taken when the benchmark was added,
# so that the benchmark's inputs and hand-counted answers stay fixed.
CORPUS = Path(__file__).resolve().parent / "corpus"


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


def new_tag(rng: random.Random) -> str:
    """Four hex digits; a fixed length keeps name-handling cost equal."""
    return f"{rng.getrandbits(16):04x}"


_NODE_DECL = re.compile(r"^\s*(initial|final|action|forkjoin|decisionmerge)\s+(\w+)", re.M)


def node_kinds(text: str) -> dict[str, str]:
    """Node name -> kind, in declaration order, read from `.ad` text."""
    return {name: kind for kind, name in _NODE_DECL.findall(text)}


# ---------------------------------------------------------------------------
# fork_k x chain_c
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForkFamily:
    """An initial node, a fork into k chains of c actions each, a join and
    a final node.  Edges are pin-elided, so every pin is control."""
    k: int
    c: int
    tag: str
    order_seed: int = 0
    roles: bool = False

    @property
    def initial(self) -> str:
        return f"I{self.tag}"

    @property
    def fork(self) -> str:
        return f"F{self.tag}"

    @property
    def join(self) -> str:
        return f"J{self.tag}"

    @property
    def final(self) -> str:
        return f"E{self.tag}"

    def action(self, i: int, j: int) -> str:
        return f"A{self.tag}_{i}_{j}"

    def text(self) -> str:
        rng = random.Random(self.order_seed)

        def decl(kind: str, name: str, chain: int = 0) -> str:
            role = f" role R{chain}" if self.roles else ""
            return f"    {kind} {name}{role};"

        nodes = [decl("initial", self.initial), decl("forkjoin", self.fork),
                 decl("forkjoin", self.join), decl("final", self.final)]
        edges = [f"    {self.initial} -> {self.fork};", f"    {self.join} -> {self.final};"]
        for i in range(self.k):
            prev = self.fork
            for j in range(self.c):
                nodes.append(decl("action", self.action(i, j), i))
                edges.append(f"    {prev} -> {self.action(i, j)};")
                prev = self.action(i, j)
            edges.append(f"    {prev} -> {self.join};")
        rng.shuffle(nodes)
        rng.shuffle(edges)
        return "\n".join([f"activity Fork{self.tag} {{", *nodes, *edges, "}"]) + "\n"

    @property
    def final_input(self) -> str:
        """Key of the join -> final transition; both ends get the first
        synthesized pin because each has only that one edge on its side."""
        return f"{self.join}._o1->{self.final}._i1"

    def chain_states(self, action_mode: str) -> int:
        """m: token positions along one chain (plus executing states)."""
        return self.c + 1 if action_mode == INSTANT else 2 * self.c + 1

    def configs(self, action_mode: str) -> int:
        return self.chain_states(action_mode) ** self.k + 2

    def edges(self, mode: str, action_mode: str) -> int:
        m, k = self.chain_states(action_mode), self.k
        if mode == INTERLEAVING:
            return k * (m - 1) * m ** (k - 1) + 2
        # every nonempty subset of the chains that can still advance
        return (2 * m - 1) ** k - m ** k + 2

    def run_length(self, action_mode: str) -> int:
        """Configurations in one maximal run: initial, fork, each action
        once (twice under twoPhase), join."""
        per_action = 1 if action_mode == INSTANT else 2
        return per_action * self.k * self.c + 3

    def reach_report(self, mode: str, action_mode: str) -> dict:
        return {"configurations": self.configs(action_mode),
                "edges": self.edges(mode, action_mode),
                "truncated": False, "deadlocks": 0,
                "final_reachability": {self.final_input: True},
                "decision_coverage": {}, "never_fired": []}


# ---------------------------------------------------------------------------
# Corpus answers, counted by hand
# ---------------------------------------------------------------------------

# (configurations, edges) per (mode, action mode).  minimal and
# split_join have no actions, and fac and split_join never enable two
# nodes at once, so their counts do not depend on the mode.
# grade_thesis: the two reviews form a 2-chain product (2x2 instant,
# 3x3 twoPhase); concurrent mode adds the joint review step(s).
_CORPUS_COUNTS = {
    "minimal.ad": {key: (1, 0) for key in
                   [(m, a) for m in (INTERLEAVING, CONCURRENT) for a in (INSTANT, TWO_PHASE)]},
    "split_join.ad": {key: (3, 2) for key in
                      [(m, a) for m in (INTERLEAVING, CONCURRENT) for a in (INSTANT, TWO_PHASE)]},
    "fac.ad": {(INTERLEAVING, INSTANT): (6, 7), (CONCURRENT, INSTANT): (6, 7),
               (INTERLEAVING, TWO_PHASE): (9, 10), (CONCURRENT, TWO_PHASE): (9, 10)},
    "grade_thesis.ad": {(INTERLEAVING, INSTANT): (12, 12), (CONCURRENT, INSTANT): (12, 13),
                        (INTERLEAVING, TWO_PHASE): (21, 24), (CONCURRENT, TWO_PHASE): (21, 28)},
}

_CORPUS_SHAPE = {
    "minimal.ad": {"deadlocks": 0, "final_reachability": {"i._o1->f._i1": True},
                   "decision_coverage": {}, "never_fired": []},
    "split_join.ad": {"deadlocks": 2, "final_reachability": {"J.c->f.z": False},
                      "decision_coverage": {"D.l": True, "D.r": True}, "never_fired": ["J"]},
    "fac.ad": {"deadlocks": 0, "final_reachability": {"Loop.exit->done.end": True},
               "decision_coverage": {"Loop.body": True, "Loop.exit": True},
               "never_fired": []},
    "grade_thesis.ad": {"deadlocks": 0,
                        "final_reachability": {"CreateCert.done->finish.end": True,
                                               "DetainFailure.done->finish.end": True},
                        "decision_coverage": {"D1.p": True, "D1.f": True},
                        "never_fired": []},
}


# Under variant 2 a grade_thesis run ends with one token on the edge
# that the decision outcome leads to.
GRADE_FINAL_INPUT = {"passed": "CreateCert.done->finish.end",
                     "failed": "DetainFailure.done->finish.end"}


def corpus_reach_report(name: str, mode: str, action_mode: str) -> dict:
    configs, edges = _CORPUS_COUNTS[name][(mode, action_mode)]
    return {"configurations": configs, "edges": edges, "truncated": False,
            **_CORPUS_SHAPE[name]}


# ---------------------------------------------------------------------------
# Variant 1 inputs
# ---------------------------------------------------------------------------

def fac_answer(n: int) -> tuple[dict[str, int], int]:
    """Final store and trace length of `run-v1 fac.ad n=N`, n >= 2: one
    SetRes state, two states per loop pass (n-1 passes), one final."""
    return {"n": 1, "res": math.factorial(n)}, 2 * n


@dataclass(frozen=True)
class LoopFamily:
    """A counting loop for variant 1: b init actions zero b accumulators,
    then while i > 0 each body action adds i*K_j to its accumulator and a
    last action decrements i.  Needs b >= 1."""
    n: int
    multipliers: tuple[int, ...]
    tag: str

    @property
    def b(self) -> int:
        return len(self.multipliers)

    def text(self) -> str:
        t, b = self.tag, self.b
        lines = [f"activity Loop{t} {{", f"    initial S{t} out o;"]
        for j in range(1, b + 1):
            lines.append(f'    action Z{t}_{j} in g out p effect "acc{j} := 0";')
        lines.append(f'    decisionmerge H{t} in a, b out body guard "i > 0", exit guard "i <= 0";')
        for j, k in enumerate(self.multipliers, 1):
            lines.append(f'    action B{t}_{j} in g out p effect "acc{j} := acc{j} + i * {k}";')
        lines.append(f'    action D{t} in g out p effect "i := i - 1";')
        lines.append(f"    final X{t} in e;")
        steps = ([f"S{t}.o"] + [f"Z{t}_{j}.p" for j in range(1, b + 1)]
                 + [f"H{t}.body"] + [f"B{t}_{j}.p" for j in range(1, b + 1)] + [f"D{t}.p"])
        targets = ([f"Z{t}_{j}.g" for j in range(1, b + 1)] + [f"H{t}.a"]
                   + [f"B{t}_{j}.g" for j in range(1, b + 1)] + [f"D{t}.g", f"H{t}.b"])
        lines += [f"    {src} -> {dst};" for src, dst in zip(steps, targets)]
        lines.append(f"    H{t}.exit -> X{t}.e;")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def answer(self) -> tuple[dict[str, int], int]:
        """Final store and trace length: b init states, b+1 states per
        pass (n passes), one final state."""
        tri = self.n * (self.n + 1) // 2
        store = {"i": 0, **{f"acc{j}": k * tri for j, k in enumerate(self.multipliers, 1)}}
        return store, self.b + (self.b + 1) * self.n + 1


# ---------------------------------------------------------------------------
# Variant 2 scenarios
# ---------------------------------------------------------------------------

def scenario(rng: random.Random, actions: list[str], decisions: dict[str, str]) -> dict:
    """A run-v2 scenario: a seed, fixed decision outcomes, and a duration
    of 2 or 3 steps per action."""
    return {"seed": rng.randrange(1 << 30), "decisions": dict(decisions),
            "durations": {a: 2 + rng.randrange(2) for a in actions}}


# ---------------------------------------------------------------------------
# Mutations that must come back violated
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    index: int
    node: str
    predicate: str

    def to_json(self) -> dict:
        return {"verdict": "violated", "index": self.index, "node": self.node,
                "predicate": self.predicate}


def _src(key: str) -> str:
    return key.split("->", 1)[0].rsplit(".", 1)[0]


def _near_middle(rng: random.Random, candidates: list[int], length: int) -> int:
    """One of the two candidates nearest the middle of the trace, so the
    checked prefix, and so the work, hardly depends on the seed."""
    ranked = sorted(candidates, key=lambda i: (abs(2 * i - length), i))
    return rng.choice(ranked[:2])


def duplicate_token(rng: random.Random, kinds: dict[str, str], states: list[dict],
                    buffers_of) -> tuple[list[dict], Violation]:
    """Duplicate the single token that a step has just produced on one
    transition.  The producer then shows two productions on one edge,
    which no reaction allows, while every other node still stutters or
    reacts as before; so the producer is blamed at that step.

    `buffers_of(state)` returns the mutable map transition key -> list of
    tokens; a missing key is an empty buffer."""
    sites = []
    for i in range(1, len(states)):
        before, after = buffers_of(states[i - 1]), buffers_of(states[i])
        for key in sorted(after):
            if len(after[key]) == 1 and not before.get(key):
                sites.append((i, key))
    i = _near_middle(rng, sorted({i for i, _ in sites}), len(states))
    key = rng.choice([k for j, k in sites if j == i])
    mutated = json.loads(json.dumps(states))
    buf = buffers_of(mutated[i])
    buf[key] = buf[key] * 2
    producer = _src(key)
    return mutated, Violation(i - 1, producer, f"step:{kinds[producer]}")


def token_buffers(config: dict) -> dict:
    return config.setdefault("buffers", {})


class MailboxView(dict):
    """The v2 mailboxes of a state as key -> token list, written back into
    the state's JSON-string mailbox attributes on assignment."""

    def __init__(self, state: dict):
        self.state = state
        super().__init__({oid[len("mbox:"):]: json.loads(attrs["tokens"])
                          for oid, attrs in state["ds"].items() if oid.startswith("mbox:")})

    def __setitem__(self, key, tokens):
        super().__setitem__(key, tokens)
        self.state["ds"]["mbox:" + key]["tokens"] = json.dumps(tokens, sort_keys=True)


def rewind_pc(rng: random.Random, kinds: dict[str, str], header: dict,
              states: list[dict], n: int) -> tuple[list[dict], Violation]:
    """Move the v1 program counter back to the entry action in the middle
    of a trace of 2n states.  The step into the mutated state then puts a
    token on the initial node's edge (a production by the initial node)
    and takes one from the node that held the pc without producing; the
    first of the two in declaration order is blamed."""
    params = header["params"]
    callee, thread = params["callee"], params["thread"]
    entry_pc = states[0]["cs"][callee][thread][0]["pc"]
    initial = next(name for name, kind in kinds.items() if kind == "initial")
    i = n + rng.randrange(2)
    mutated = json.loads(json.dumps(states))
    holder_pc = mutated[i - 1]["cs"][callee][thread][0]["pc"]
    holder = next(name for name, pc in params["pc_map"].items() if pc == holder_pc)
    mutated[i]["cs"][callee][thread][0]["pc"] = entry_pc
    blamed = next(name for name in kinds if name in (initial, holder))
    return mutated, Violation(i - 1, blamed, f"step:{kinds[blamed]}")
