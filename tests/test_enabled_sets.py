"""Carried enabled sets against a full scan, and `Token` as a value.

`reachable`, `random_run` and `maximal_runs` make each configuration's
enabled set from its parent's, re-deriving only the nodes the parent's
step reached.  Here every set they expand must equal a full scan, and
what they return must equal a search over the public `successors`, which
scans every node of every configuration.  A search cut at a small bound
must stop where the plain search stops.
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
    maximal_runs,
    random_run,
    reachable,
    successors,
)

from ._forks import FAMILIES, fork
from .conftest import CORPUS, load

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
        assert enabled == tokengame._view(ad).scan(c, actions)


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
def test_maximal_runs_equal_runs_over_successors(name, ad, mode, actions, expansions):
    runs = maximal_runs(ad, mode, actions, max_runs=20, max_len=8)
    assert_full_scans(expansions, actions)

    def explore(configs, choices, out):
        if len(out) >= 20:
            return
        succ = successors(ad, configs[-1], mode, action_mode=actions)
        if not succ or len(configs) >= 8:  # a run cut at the length bound is kept, marked cut
            out.append((configs, choices, bool(succ)))
        else:
            for chs, c1 in succ:
                explore(configs + (c1,), choices + (chs,), out)

    expected = []
    explore((initial_config(ad),), (), expected)
    assert [(r.configs, r.choices, r.cut) for r in runs] == expected


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
