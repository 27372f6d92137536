"""The order of successors and the reachable sets it must not change.

`successors` sorts by `_View.order_key`, which joins memoised JSON
fragments instead of serialising each configuration; it must equal
`Configuration.canonical()` exactly, or the BFS numbering, the order of
deadlocks and the seeded pick of `simulate` change.
"""

from __future__ import annotations

import pytest

from adsem.diagram import parse, validate
from adsem.tokengame import (
    CONCURRENT,
    INSTANT,
    INTERLEAVING,
    TWO_PHASE,
    Configuration,
    StepChoice,
    _View,
    _view,
    initial_config,
    reachable,
    successors,
)

from ._forks import FAMILIES, fork
from .conftest import CORPUS, load

MODES = [(mode, actions) for mode in (INTERLEAVING, CONCURRENT) for actions in (INSTANT, TWO_PHASE)]

# Node A1's name extends A's, and pin y1's extends y's, so transition keys
# share prefixes; every buffer but the first and last holds data tokens,
# and the decision passes the tokens it consumes through.
PREFIXED = """
activity Prefixed {
    initial i out s;
    action Make in go out d: Doc;
    forkjoin F in x: Doc out y: Doc, y1: Doc;
    action A in t: Doc out o: Doc;
    action A1 in t: Doc out o: Doc;
    decisionmerge D in a: Doc, a1: Doc out k: Doc guard "keep", k1: Doc guard "drop";
    action Keep in t: Doc out o;
    final f in e, e1: Doc;

    i.s -> Make.go;
    Make.d -> F.x;
    F.y -> A.t;
    F.y1 -> A1.t;
    A.o -> D.a;
    A1.o -> D.a1;
    D.k -> Keep.t;
    D.k1 -> f.e1;
    Keep.o -> f.e;
}
"""


def diagrams():
    for path in sorted(CORPUS.glob("*.ad")):
        yield path.stem, load(path.name)
    for k, c in FAMILIES:
        yield f"fork{k}x{c}", fork(k, c)


DIAGRAMS = list(diagrams())


@pytest.mark.parametrize("mode,actions", MODES)
@pytest.mark.parametrize("name,ad", DIAGRAMS + [("prefixed", parse(PREFIXED))],
                         ids=[name for name, _ in DIAGRAMS] + ["prefixed"])
def test_order_key_is_canonical(name, ad, mode, actions, monkeypatch):
    kept = []  # each key read back from a configuration that already had one
    order_key = _View.order_key

    def recording(view, c):
        had_key = "_key" in c.__dict__
        key = order_key(view, c)
        if had_key:
            kept.append((c, key))
        return key

    monkeypatch.setattr(_View, "order_key", recording)
    view = _view(ad)
    result = reachable(ad, mode=mode, action_mode=actions)
    assert not result.truncated
    # a revisited configuration is the instance first reached, with its key
    instances = {id(c) for c in result.configs}
    assert all(id(c1) in instances for _, _, c1 in result.edges)
    # a few revisits may all come as sole successors, which are not sorted
    hits = len(result.edges) - (len(result.configs) - 1)
    assert kept or hits < 10
    for c, key in kept:
        assert key == c.canonical()
    for c in result.configs:
        assert view.order_key(c) == c.canonical()


SMALL = [(name, ad) for name, ad in DIAGRAMS + [("prefixed", parse(PREFIXED))]
         if name not in {f"fork{k}x{c}" for k, c in FAMILIES if k > 3 or c > 2}]


@pytest.mark.parametrize("actions", (INSTANT, TWO_PHASE))
@pytest.mark.parametrize("name,ad", SMALL, ids=[name for name, _ in SMALL])
def test_a_concurrent_edge_is_its_steps_taken_one_at_a_time(name, ad, actions):
    """Concurrent successors are patched together from single steps; here
    each edge is rebuilt by interleaving its steps, in label order, through
    the public `successors`."""
    result = reachable(ad, mode=CONCURRENT, action_mode=actions)
    assert not result.truncated
    assert any(len(choices) > 1 for _, choices, _ in result.edges) or not name.startswith("fork")
    for c0, choices, c1 in result.edges:
        c = c0
        for choice in sorted(choices, key=StepChoice.label):
            (c,) = [c2 for chs, c2 in successors(ad, c, INTERLEAVING, action_mode=actions)
                    if chs == {choice}]
        assert c == c1


def test_prefixed_diagram_is_valid_and_reaches_multi_token_data_buffers():
    ad = parse(PREFIXED)
    assert validate(ad) == []
    keys = [k for k, _ in initial_config(ad).buffers]
    assert "F.y->A.t" in keys and "F.y1->A1.t" in keys
    configs = reachable(ad, mode=CONCURRENT, action_mode=TWO_PHASE).configs
    data = [buf for c in configs for _, buf in c.buffers if buf and not buf[0].is_control]
    assert data and max(map(len, data)) >= 2


@pytest.mark.parametrize("actions", (INSTANT, TWO_PHASE))
@pytest.mark.parametrize("name,ad", DIAGRAMS, ids=[name for name, _ in DIAGRAMS])
def test_concurrent_reaches_what_interleaving_reaches(name, ad, actions):
    interleaved = reachable(ad, mode=INTERLEAVING, action_mode=actions)
    concurrent = reachable(ad, mode=CONCURRENT, action_mode=actions)
    assert not interleaved.truncated and not concurrent.truncated
    assert set(concurrent.configs) == set(interleaved.configs)


def test_equal_configurations_hash_alike_and_keep_their_hash():
    ad = load("grade_thesis.ad")
    (_, c1), = successors(ad, initial_config(ad))
    rebuilt = Configuration.from_json(ad, c1.to_json())
    assert rebuilt == c1 and rebuilt is not c1
    assert "_hash" not in rebuilt.__dict__
    assert hash(rebuilt) == hash(c1) == hash((c1.buffers, c1.flags))
    assert rebuilt.__dict__["_hash"] == hash(rebuilt)


def test_representative_tokens_are_shared():
    tokens = {}
    for c in reachable(parse(PREFIXED), mode=CONCURRENT).configs:
        for key, buf in c.buffers:
            for index, tok in enumerate(buf):
                assert tokens.setdefault((key, index, tok), tok) is tok
