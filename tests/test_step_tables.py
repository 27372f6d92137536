"""What the token game builds per diagram: the layout, one step table per
action mode, and the keys that come with the transitions.

A diagram keeps its layout, its view and each step table that a command
asks for, so one parsed diagram may serve every mode in turn; a diagram made
from another with `dataclasses.replace` builds its own."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from adsem import diagram, tokengame
from adsem.diagram import Transition, incoming, outgoing, parse, to_text
from adsem.tokengame import (CONCURRENT, INSTANT, INTERLEAVING, TWO_PHASE, Configuration, TokenGameError,
                             analyze, config_is_final, initial_config, lifted_binding, random_run,
                             reachability_to_dot, reachable, run_to_jsonl, successors)

from .conftest import CORPUS

FIXTURES = Path(__file__).resolve().parent / "fixtures"
MODES = [(m, a) for m in (INTERLEAVING, CONCURRENT) for a in (INSTANT, TWO_PHASE)]
TEXTS = {path.name: path.read_text(encoding="utf-8")
         for path in [*sorted(CORPUS.glob("*.ad")), FIXTURES / "fork3x2.ad", FIXTURES / "orphan.ad"]}


def outputs(ad, mode, actions):
    """`reach --bound 200 --dot`'s report and DOT text; only orphan.ad, which never dies out, is cut."""
    result = reachable(ad, mode, actions, bound=200)
    return json.dumps(analyze(ad, result).to_json(ad), sort_keys=True), reachability_to_dot(ad, result)


@pytest.mark.parametrize("name", TEXTS)
def test_one_diagram_serves_every_mode_in_either_order(name):
    fresh = {(m, a): outputs(parse(TEXTS[name]), m, a) for m, a in MODES}
    for order in (MODES, MODES[::-1]):
        ad = parse(TEXTS[name])
        for m, a in order:
            assert outputs(ad, m, a) == fresh[(m, a)]
        assert set(tokengame._view(ad).tables) == {INSTANT, TWO_PHASE}


@pytest.mark.parametrize("name", ["minimal.ad", "grade_thesis.ad"])
def test_an_unknown_action_mode_is_rejected(name):
    ad = parse(TEXTS[name])
    c = initial_config(ad)
    for call in (lambda: successors(ad, c, INTERLEAVING, "atomic"),
                 lambda: reachable(ad, INTERLEAVING, "atomic"),
                 lambda: random_run(ad, 0, CONCURRENT, "atomic")):
        with pytest.raises(TokenGameError, match="unknown action mode 'atomic'"):
            call()
    assert tokengame._view(ad).tables == {}


def keyed_json(d):
    """A configuration's JSON form as `Configuration.make`'s buffers and flags."""
    return ({k: [tokengame.Token.from_json(tok) for tok in toks] for k, toks in d["buffers"].items()},
            d["exec"])


def test_reading_and_writing_configurations_builds_no_step(monkeypatch):
    ad = parse(TEXTS["grade_thesis.ad"])
    text = run_to_jsonl(ad, random_run(ad, 3, CONCURRENT, TWO_PHASE).configs)
    built, step = [], tokengame.Step
    monkeypatch.setattr(tokengame, "Step", lambda *fields: built.append(fields) or step(*fields))

    ad = parse(TEXTS["grade_thesis.ad"])
    run = [Configuration.from_json(ad, json.loads(line)) for line in text.splitlines()]
    view = tokengame._view(ad)
    assert run_to_jsonl(ad, run) == text
    assert [Configuration.make(ad, *keyed_json(c.to_json(ad))) for c in run] == run
    assert all(view.order_key(ad, c) == json.dumps(c.to_json(ad), sort_keys=True) for c in run)
    assert config_is_final(ad, run[-1]) and not config_is_final(ad, run[0])
    assert lifted_binding(ad).delta(ad, run[0], run[1])
    assert built == [] and view.tables == {}

    successors(ad, run[0], CONCURRENT, TWO_PHASE)  # the stand-in is called where steps are built
    assert built and set(view.tables) == {TWO_PHASE}


def test_a_replaced_diagram_builds_its_own_keys_layout_and_tables():
    ad = parse(TEXTS["grade_thesis.ad"])
    outputs(ad, CONCURRENT, TWO_PHASE)
    # the transitions copied, in reverse order, and one moved to the decision's other branch
    moved = [dataclasses.replace(t, out_pin="f") if t.key == "D1.p->CreateCert.go" else dataclasses.replace(t)
             for t in ad.transitions[::-1]]
    other = dataclasses.replace(ad, transitions=tuple(moved))
    assert [t.__dict__["key"] for t in other.transitions] == [f"{t.src}.{t.out_pin}->{t.dst}.{t.in_pin}"
                                                               for t in other.transitions]
    assert other.layout is not ad.layout
    assert other.layout.position == {t.key: p for p, t in enumerate(other.layout.transitions)}
    assert other.layout.position["start.s0->FileThesis.go"] == len(ad.transitions) - 1
    assert "D1.f->CreateCert.go" in other.layout.position and "D1.p->CreateCert.go" not in other.layout.position
    assert "_token_view" not in other.__dict__
    for m, a in MODES:
        assert outputs(other, m, a) == outputs(parse(to_text(other)), m, a)
    assert tokengame._view(other) is not tokengame._view(ad)
    assert set(tokengame._view(other).tables) == {INSTANT, TWO_PHASE}


def test_a_transition_key_is_made_with_it_and_leaves_equality_hash_and_repr_alone():
    t = Transition("a", "o", "b", "i")
    assert t.__dict__["key"] == t.key == "a.o->b.i"
    assert repr(t) == "Transition(src='a', out_pin='o', dst='b', in_pin='i')"
    assert hash(t) == hash(("a", "o", "b", "i"))
    assert t == Transition("a", "o", "b", "i") != Transition("a", "o", "b", "j")
    assert dataclasses.replace(t, dst="c").key == "a.o->c.i"
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.key = "x"


DUPLICATED = """activity Dup {
    initial i out o;
    action A in a out b;
    decisionmerge D in x out l, r;
    final f in y, z;
    i.o -> A.a;
    i.o -> A.a;
    A.b -> D.x;
    D.l -> f.y;
    D.r -> f.z;
    D.r -> f.z;
}"""


@pytest.mark.parametrize("name", [*TEXTS, "duplicated"])
def test_the_layout_is_the_adjacency_numbered_by_key(name):
    ad = parse(TEXTS.get(name, DUPLICATED))
    if name == "duplicated":  # and a transition from an unknown node, which only a built diagram has
        ad = dataclasses.replace(ad, transitions=ad.transitions + (Transition("ghost", "p", "f", "y"),))
    keys = list(dict.fromkeys(t.key for t in ad.transitions))
    layout = ad.layout
    assert [t.key for t in layout.transitions] == keys
    assert layout.position == {k: p for p, k in enumerate(keys)}
    for i, (n, ins, outs) in enumerate(zip(ad.nodes, layout.ins, layout.outs)):
        assert ins == tuple(dict.fromkeys(keys.index(t.key) for t in ad.transitions if t.dst == n.name))
        assert outs == tuple(dict.fromkeys(keys.index(t.key) for t in ad.transitions if t.src == n.name))
        assert incoming(ad, n) == tuple(layout.transitions[p] for p in ins)
        assert outgoing(ad, n) == tuple(layout.transitions[p] for p in outs)
        assert layout.index[n.name] == i
        assert all(layout.reader[p] == i for p in ins) and all(layout.writer[p] == i for p in outs)
    # only the ghost transition leaves a node the diagram lacks
    assert None not in layout.reader and layout.writer.count(None) == (name == "duplicated")


def test_a_transition_declared_twice_is_one_edge_also_for_a_decision():
    once = "\n".join(dict.fromkeys(DUPLICATED.splitlines()))  # each repeated declaration dropped
    assert once.count("->") == DUPLICATED.count("->") - 2
    for m, a in MODES:
        assert outputs(parse(DUPLICATED), m, a) == outputs(parse(once), m, a)
