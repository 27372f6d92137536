"""Carried enabled sets against a full scan, and `Token` as a value.

`reachable` and `random_run` make each configuration's enabled set from
its parent's, re-deriving only the nodes the parent's step reached.  Here
every set they expand must equal a full scan, and what they return must
equal a search over the public `successors`, which scans every node of
every configuration.  A search cut at a small bound must stop where the
plain search stops.  Tests that need whole runs take them from
`conftest.runs`, a depth-first search over the same `successors`; here
its runs must walk `reachable`'s edges and, where it sees every run,
hold each seeded `random_run`.
"""

from __future__ import annotations

import json
import random
from collections import Counter, deque
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import pytest

from adsem import tokengame
from adsem.diagram import parse
from adsem.semantics import CONTROL_TOKEN, Token, call_token
from adsem.tokengame import (
    CONCURRENT,
    INSTANT,
    INTERLEAVING,
    TWO_PHASE,
    Configuration,
    initial_config,
    random_run,
    reachable,
    successors,
)

from ._forks import FAMILIES, fork
from .conftest import CORPUS, load, runs

FIXTURES = Path(__file__).resolve().parent / "fixtures"
MODES = [(mode, actions) for mode in (INTERLEAVING, CONCURRENT) for actions in (INSTANT, TWO_PHASE)]
BOUND = 3000  # above every other diagram here; tests/fixtures/orphan.ad never dies out
CUT = 10  # below most diagrams here, so the search stops part way


def diagrams():
    for path in sorted(CORPUS.glob("*.ad")):
        yield path.stem, load(path.name)
    for path in sorted(FIXTURES.glob("*.ad")):
        yield path.stem, parse(path.read_text(encoding="utf-8"))
    for k, c in FAMILIES:
        yield f"fork{k}x{c}", fork(k, c)


DIAGRAMS = list(diagrams())
IDS = [name for name, _ in DIAGRAMS]


def bfs(ad, mode, actions, bound):
    """`reachable`, written as a plain BFS over the public `successors`."""
    start = initial_config(ad)
    visited, edges, queue = {start: None}, [], deque([start])
    truncated = False
    while queue:
        c = queue.popleft()
        for choices, c1 in successors(ad, c, mode, actions):
            if c1 not in visited:
                if len(visited) >= bound:
                    truncated = True
                    continue
                visited[c1] = None
                queue.append(c1)
            edges.append((c, choices, c1))
    return list(visited), edges, truncated


def by_source(edges):
    """The sources in the order their edges come, each with its edges as a
    multiset: `reachable` keeps one source's edges in expansion order."""
    return [(c, Counter((choices, c1) for _, choices, c1 in out)) for c, out in groupby(edges, key=itemgetter(0))]


@pytest.fixture
def expansions(monkeypatch):
    """Every (configuration, enabled set) the token game expands."""
    seen = []
    expand = tokengame._expand

    def recording(ad, view, c, enabled, mode):
        seen.append((ad, c, enabled))
        return expand(ad, view, c, enabled, mode)

    monkeypatch.setattr(tokengame, "_expand", recording)
    return seen


def assert_full_scans(seen, actions):
    assert seen
    for ad, c, enabled in seen:
        assert enabled == tokengame._view(ad).table(ad, actions).scan(c)


@pytest.mark.parametrize("mode,actions", MODES)
@pytest.mark.parametrize("bound", [BOUND, CUT], ids=["full", "cut"])
@pytest.mark.parametrize("name,ad", DIAGRAMS, ids=IDS)
def test_reachable_equals_a_bfs_over_successors(name, ad, bound, mode, actions, expansions):
    result = reachable(ad, mode=mode, action_mode=actions, bound=bound)
    assert len(expansions) == len(result.configs)
    assert_full_scans(expansions, actions)
    expansions.clear()
    configs, edges, truncated = bfs(ad, mode, actions, bound)
    assert (result.configs, result.truncated) == (configs, truncated)
    assert by_source(result.edges) == by_source(edges)


@pytest.mark.parametrize("mode,actions", MODES)
@pytest.mark.parametrize("name,ad", DIAGRAMS, ids=IDS)
def test_random_runs_equal_runs_over_successors(name, ad, mode, actions, expansions):
    for seed in range(3):
        run = random_run(ad, seed, mode, actions, max_len=30)
        rng, configs, choices = random.Random(seed), [initial_config(ad)], []
        while len(configs) < 30 and (succ := successors(ad, configs[-1], mode, action_mode=actions)):
            chs, c1 = succ[rng.randrange(len(succ))]
            configs.append(c1)
            choices.append(chs)
        assert (run.configs, run.choices) == (tuple(configs), tuple(choices))
        assert run.cut == bool(successors(ad, configs[-1], mode, action_mode=actions))
    assert_full_scans(expansions, actions)


# depth-first to a fixed length, so only the diagrams with few runs
SMALL = [(name, ad) for name, ad in DIAGRAMS if name in ("fork2x1", "fork2x2", "fork3x1")
         or not name.startswith("fork")]


@pytest.mark.parametrize("mode,actions", MODES)
@pytest.mark.parametrize("name,ad", SMALL, ids=[name for name, _ in SMALL])
def test_runs_over_successors_walk_reachable_edges(name, ad, mode, actions):
    found = runs(ad, mode, actions, max_runs=20, max_len=8)
    result = reachable(ad, mode=mode, action_mode=actions, bound=BOUND)
    edges, dead = set(result.edges), set(result.dead_ends)
    keys = [(r.configs, r.choices, r.cut) for r in found]
    assert 0 < len(keys) <= 20 and len(set(keys)) == len(keys)
    for run in found:
        assert run.configs[0] == result.initial
        assert all(step in edges for step in zip(run.configs, run.choices, run.configs[1:]))
        # a run ends in a dead end, or is cut at the length bound
        assert run.cut == (run.configs[-1] not in dead)
        assert run.cut <= (len(run.configs) == 8)
    if len(found) < 20:  # the search saw every run
        for seed in range(3):
            r = random_run(ad, seed, mode, actions, max_len=8)
            assert (r.configs, r.choices, r.cut) in keys


# ---------------------------------------------------------------------------
# Token
# ---------------------------------------------------------------------------

TOKENS = [CONTROL_TOKEN, Token("Doc", "s->A.t#0"), Token("Doc", None),
          call_token("Args", {"b": 2, "a": "x"})]


@pytest.mark.parametrize("tok", TOKENS, ids=["control", "data", "no-payload", "record"])
def test_token_round_trips(tok):
    back = Token.from_json(json.loads(json.dumps(tok.to_json())))
    assert back == tok and hash(back) == hash(tok) and type(back) is Token


def test_token_json_and_canonical_bytes_are_unchanged(grade):
    assert [tok.to_json() for tok in TOKENS] == [
        "control", {"type": "Doc", "payload": "s->A.t#0"}, {"type": "Doc", "payload": None},
        {"type": "Args", "payload": {"a": "x", "b": 2}}]
    c = Configuration.make(grade, {"start.s0->FileThesis.go": TOKENS[:2],
                                   "FileThesis.t->F1.x": TOKENS[2:]}, {"FileThesis": True})
    assert c.canonical(grade) == (
        '{"buffers":{"FileThesis.t->F1.x":[{"payload":null,"type":"Doc"},'
        '{"payload":{"a":"x","b":2},"type":"Args"}],'
        '"start.s0->FileThesis.go":["control",{"payload":"s->A.t#0","type":"Doc"}]},'
        '"exec":{"CreateCert":false,"DetainFailure":false,"Evaluate":false,"FileThesis":true,'
        '"ReviewThesis1":false,"ReviewThesis2":false}}')
    assert Configuration.from_json(grade, json.loads(c.canonical(grade))) == c
