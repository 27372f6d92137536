"""The order of successors and the reachable sets it must not change.

Successor lists, `reach`'s new successors and each configuration's DOT
edges sort by `_View.order_key`, which joins memoised JSON instead of
serialising each configuration; it must equal
`Configuration.canonical(ad)` exactly, or the BFS numbering, the order of
deadlocks, the DOT file and the seeded pick of `simulate` change.
"""

from __future__ import annotations

from collections import Counter

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
    initial_config,
    reachability_to_dot,
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
    made = Counter()  # the keys built, by configuration
    order_key = _View.order_key

    def recording(view, ad, c):
        key = order_key(view, ad, c)
        assert key == c.canonical(ad)
        made[c] += 1
        return key

    monkeypatch.setattr(_View, "order_key", recording)
    result = reachable(ad, mode=mode, action_mode=actions)
    assert not result.truncated
    # a revisited configuration is the instance first reached
    instances = {id(c) for c in result.configs}
    assert all(id(c1) in instances for _, _, c1 in result.edges)
    # the search keys only successors it has not seen, so never the start
    assert result.initial not in made and set(made) < set(result.configs)
    # the DOT writer keys every configuration once more to order its edges
    searched = made.copy()
    reachability_to_dot(ad, result)
    assert made - searched == Counter(result.configs)


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


# Actions with no transitions: each instant step, alone or with others,
# leads back to the same configuration, so the labels alone order them.
IDLE = "activity Idle { initial i; final f; action B; action A; action C in x out y; i -> f; }"


@pytest.mark.parametrize("mode,expected", [
    (INTERLEAVING, [["A:instant"], ["B:instant"], ["C:instant"]]),
    (CONCURRENT, [["A:instant"], ["A:instant", "B:instant"], ["A:instant", "B:instant", "C:instant"],
                  ["A:instant", "C:instant"], ["B:instant"], ["B:instant", "C:instant"], ["C:instant"]]),
])
def test_equal_successors_are_ordered_by_their_labels(mode, expected):
    ad = parse(IDLE)
    assert validate(ad) == []
    c = initial_config(ad)
    succ = successors(ad, c, mode)
    assert all(c1 == c for _, c1 in succ)
    assert [sorted(ch.label() for ch in choices) for choices, _ in succ] == expected


def test_prefixed_diagram_is_valid_and_reaches_multi_token_data_buffers():
    ad = parse(PREFIXED)
    assert validate(ad) == []
    keys = [t.key for t in ad.layout.transitions]
    assert "F.y->A.t" in keys and "F.y1->A1.t" in keys
    configs = reachable(ad, mode=CONCURRENT, action_mode=TWO_PHASE).configs
    data = [buf for c in configs for buf in c.buffers if buf and not buf[0].is_control]
    assert data and max(map(len, data)) >= 2


@pytest.mark.parametrize("actions", (INSTANT, TWO_PHASE))
@pytest.mark.parametrize("name,ad", DIAGRAMS, ids=[name for name, _ in DIAGRAMS])
def test_concurrent_reaches_what_interleaving_reaches(name, ad, actions):
    interleaved = reachable(ad, mode=INTERLEAVING, action_mode=actions)
    concurrent = reachable(ad, mode=CONCURRENT, action_mode=actions)
    assert not interleaved.truncated and not concurrent.truncated
    assert set(concurrent.configs) == set(interleaved.configs)


def test_equal_configurations_hash_alike_in_c():
    ad = load("grade_thesis.ad")
    (_, c1), = successors(ad, initial_config(ad))
    rebuilt = Configuration.from_json(ad, c1.to_json(ad))
    assert rebuilt == c1 and rebuilt is not c1
    assert hash(rebuilt) == hash(c1) == hash((c1.buffers, c1.flags))
    # a plain tuple: no Python-level hash or equality, and nothing kept on it
    assert Configuration.__hash__ is tuple.__hash__ and Configuration.__eq__ is tuple.__eq__
    assert not hasattr(rebuilt, "__dict__")


def test_configurations_of_two_parses_compare_equal_and_hash_alike():
    text = (CORPUS / "grade_thesis.ad").read_text(encoding="utf-8")
    first, second = (reachable(parse(text), mode=CONCURRENT, action_mode=TWO_PHASE) for _ in range(2))
    assert first.configs == second.configs and first.edges == second.edges
    assert [hash(c) for c in first.configs] == [hash(c) for c in second.configs]
    assert not set(map(id, first.configs)) & set(map(id, second.configs))


def test_representative_tokens_are_shared():
    tokens = {}
    for c in reachable(parse(PREFIXED), mode=CONCURRENT).configs:
        for p, buf in enumerate(c.buffers):
            for index, tok in enumerate(buf):
                assert tokens.setdefault((p, index, tok), tok) is tok
