"""The order of successors and the reachable sets it must not change.

Successor lists, `reach`'s new successors and each configuration's DOT
edges sort by `_View.order_key`, which joins memoised JSON instead of
serialising each configuration.  It must equal the line `run_to_jsonl`
writes, `json.dumps(c.to_json(ad), sort_keys=True)`, exactly, and it must
order and compare as `Configuration.canonical(ad)` does, or the BFS
numbering, the order of deadlocks, the DOT file and the seeded pick of
`simulate` change.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adsem.diagram import NodeKind, parse, validate
from adsem.semantics import Token, call_token
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
    """Every key `reach` and the DOT writer build is the configuration's JSON-lines text, whose
    order is `canonical()`'s (see `test_order_key_orders_and_compares_as_canonical`)."""
    made = Counter()  # the keys built, by configuration
    order_key = _View.order_key

    def recording(view, ad, c):
        key = order_key(view, ad, c)
        assert key == json.dumps(c.to_json(ad), sort_keys=True)
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


PREFIXED_AD = parse(PREFIXED)  # one diagram, so that its memoised texts outlive each example
# the tokens its steps make, whose texts its view keeps
MADE = list(dict.fromkeys(tok for c in reachable(PREFIXED_AD, CONCURRENT, TWO_PHASE).configs
                          for buf in c.buffers for tok in buf))
# texts that JSON escapes or that look like its separators, and non-ASCII ones
TEXTS = st.lists(st.sampled_from([",", ":", " ", ", ", ": ", "]", "[", "{", '"', "\\", "\n", "a", "é", "中",
                                  "\u2028"]), max_size=5).map("".join)
# record values equal in Python whose JSON differs: 1 == True == 1.0, 0 == False == 0.0 == -0.0
VALUES = st.one_of(TEXTS, st.none(), st.sampled_from([0, 1, True, False, 1.0, 0.0, -0.0]))
TOKENS = st.one_of(
    st.sampled_from(MADE),
    st.builds(Token, st.just("Doc"), TEXTS),
    st.builds(call_token, st.just("Doc"), st.dictionaries(st.sampled_from(["a", ": ", "中"]), VALUES,
                                                          max_size=2)),
    st.builds(Token, st.just("Doc"), st.lists(VALUES, max_size=2)),  # unhashable
)
SWAP = {bool: float, float: int, int: bool}  # to an equal value of another type, for 0 and 1


def twin(c):
    """A configuration equal to `c` whose JSON differs where a record holds a number."""
    def token(tok):
        if type(tok.payload) is not tuple:
            return tok
        return Token(tok.type_name, tuple((k, SWAP[type(v)](v) if type(v) in SWAP else v)
                                          for k, v in tok.payload))
    return Configuration(tuple(tuple(map(token, buf)) for buf in c.buffers), c.flags)


def configurations(ad):
    keys = sorted(ad.layout.position)
    actions = sorted({n.name for n in ad.nodes if n.kind is NodeKind.ACTION})
    return st.builds(lambda buffers, flags: Configuration.make(ad, buffers, flags),
                     st.dictionaries(st.sampled_from(keys), st.lists(TOKENS, max_size=3), max_size=4),
                     st.fixed_dictionaries({name: st.booleans() for name in actions}))


def edited(c):
    """`c` with one buffer replaced or one flag flipped, so that the two texts share a long head."""
    def edit(p, toks, flip):
        buffers, flags = list(c.buffers), list(c.flags)
        buffers[p % len(buffers)] = tuple(toks)
        if flip is not None:
            flags[flip % len(flags)] ^= True
        return Configuration(tuple(buffers), tuple(flags))
    return st.builds(edit, st.integers(0, 99), st.lists(TOKENS, max_size=3), st.none() | st.integers(0, 99))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_order_key_orders_and_compares_as_canonical(data):
    ad = PREFIXED_AD
    view, c1 = _view(ad), data.draw(configurations(ad))
    c2 = data.draw(st.one_of(configurations(ad), edited(c1),
                             st.just(Configuration.from_json(ad, json.loads(c1.canonical(ad))))))
    for pair in ((c1, c2), (c1, twin(c1))):
        keys = [view.order_key(ad, c) for c in pair]
        assert keys == [json.dumps(c.to_json(ad), sort_keys=True) for c in pair]
        texts = [c.canonical(ad) for c in pair]
        assert (keys[0] < keys[1], keys[0] == keys[1]) == (texts[0] < texts[1], texts[0] == texts[1])


@pytest.mark.parametrize("count", [1, 2])
def test_a_number_in_a_payload_keeps_its_own_text(count):
    """1 == True == 1.0, so buffers holding them are equal, yet their texts differ."""
    ad, view = PREFIXED_AD, _view(PREFIXED_AD)
    configs = [Configuration.make(ad, {"F.y->A.t": [call_token("Doc", {"a": v})] * count})
               for v in (1, True, 1.0)]
    assert configs[0] == configs[1] == configs[2]
    assert [view.order_key(ad, c) for c in configs] == [json.dumps(c.to_json(ad), sort_keys=True)
                                                         for c in configs]


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
