from __future__ import annotations

import gc
import json
import time
import tracemalloc
from collections import Counter, deque
from pathlib import Path

import pytest

from adsem import tokengame
from adsem.diagram import NodeKind, parse
from adsem.semantics import (CONTROL_TOKEN, VerdictKind, allows_step, conforms,
                             is_initial_state)
from adsem.tokengame import (
    CONCURRENT,
    INSTANT,
    INTERLEAVING,
    TWO_PHASE,
    Configuration,
    TokenGameError,
    analyze,
    as_binding,
    config_is_final,
    initial_config,
    lifted_binding,
    random_run,
    reachable,
    reachability_to_dot,
    run_to_jsonl,
    successors,
)

from ._brute import brute_successors
from ._forks import fork
from .conftest import keyed, load, runs

FIXTURES = Path(__file__).resolve().parent / "fixtures"
ORPHAN = parse("""
    activity Orphan {
        initial i out s;
        action A in x out y;
        final f in z;
        action P in x out y;
        action Q in x out y;
        i.s -> A.x;
        A.y -> f.z;
        P.y -> Q.x;
        Q.y -> P.x;
    }
""")


def token_count(c):
    return sum(map(len, c.buffers))


def lifted_is_initial(ad, c):
    return is_initial_state(ad, c, lifted_binding(ad))


# ---------------------------------------------------------------------------
# Initial configurations
# ---------------------------------------------------------------------------

def test_initial_config_grade(grade):
    c = initial_config(grade)
    assert token_count(c) == 1
    assert keyed(grade, c)[0]["start.s0->FileThesis.go"] == (CONTROL_TOKEN,)
    assert lifted_is_initial(grade, c)
    assert not config_is_final(grade, c)


def test_initial_config_minimal_is_also_final(minimal):
    c = initial_config(minimal)
    assert token_count(c) == 1
    assert lifted_is_initial(minimal, c)
    assert config_is_final(minimal, c)


def test_initial_config_two_initials():
    ad = parse("""
        activity Two {
            initial i1 out s; initial i2 out t;
            action a in x, y out p;
            final f in z;
            i1.s -> a.x; i2.t -> a.y;
            a.p -> f.z;
        }
    """)
    c = initial_config(ad)
    assert token_count(c) == 2


def test_initial_config_requires_initial_node():
    ad = parse("activity X { action a out p; final f in z; a.p -> f.z; }")
    with pytest.raises(TokenGameError):
        initial_config(ad)


def test_make_rejects_exec_for_unknown_or_non_action_nodes(grade):
    with pytest.raises(TokenGameError, match=r"\['F1', 'Ghost'\]"):
        Configuration.make(grade, {}, {"FileThesis": True, "F1": False, "Ghost": True})
    assert keyed(grade, Configuration.make(grade, {}, {"FileThesis": True}))[1]["FileThesis"]


def test_initial_config_data_pin_uses_seeder():
    ad = parse("""
        activity Seeded {
            initial i out s: Thesis;
            action a in x: Thesis out y;
            final f in z;
            i.s -> a.x; a.y -> f.z;
        }
    """)
    (tok,) = keyed(ad, initial_config(ad))[0]["i.s->a.x"]
    assert tok.type_name == "Thesis"


# ---------------------------------------------------------------------------
# Successors
# ---------------------------------------------------------------------------

def test_successors_only_entry_enabled(grade):
    succ = successors(grade, initial_config(grade))
    assert len(succ) == 1
    (choices, c1), = succ
    assert {ch.label() for ch in choices} == {"FileThesis:instant"}
    assert keyed(grade, c1)[0]["FileThesis.t->F1.x"]


def test_successors_after_fork_two_orders(grade):
    c = Configuration.make(grade, {
        "F1.y1->ReviewThesis1.t": [CONTROL_TOKEN],
        "F1.y2->ReviewThesis2.t": [CONTROL_TOKEN],
    })
    succ = successors(grade, c)
    fired = {next(iter(ch)).node for ch, _ in succ}
    assert fired == {"ReviewThesis1", "ReviewThesis2"}
    assert len(succ) == 2


def test_successors_decision_explores_both_branches(grade):
    c = Configuration.make(grade, {"Evaluate.res->D1.v": [CONTROL_TOKEN]})
    succ = successors(grade, c)
    outs = {next(iter(ch)).out_edge for ch, _ in succ}
    assert outs == {"D1.p->CreateCert.go", "D1.f->DetainFailure.go"}


def test_successors_final_never_consumes(minimal):
    assert successors(minimal, initial_config(minimal)) == []


def test_concurrent_includes_interleaving(grade):
    c = Configuration.make(grade, {
        "F1.y1->ReviewThesis1.t": [CONTROL_TOKEN],
        "F1.y2->ReviewThesis2.t": [CONTROL_TOKEN],
    })
    inter = successors(grade, c, INTERLEAVING)
    conc = successors(grade, c, CONCURRENT)
    assert {pair for pair in inter} <= {pair for pair in conc}
    sizes = sorted(len(ch) for ch, _ in conc)
    assert sizes == [1, 1, 2]  # each review alone, or both at once


def test_every_interleaving_edge_is_a_concurrent_edge(grade):
    res = reachable(grade)
    for c in res.configs:
        inter = set(successors(grade, c, INTERLEAVING))
        conc = set(successors(grade, c, CONCURRENT))
        assert inter <= conc
        assert all(len(ch) == 1 for ch, _ in inter)


def test_two_phase_start_and_finish(grade):
    c = Configuration.make(grade, {"F1.y1->ReviewThesis1.t": [CONTROL_TOKEN]})
    succ = successors(grade, c, action_mode=TWO_PHASE)
    assert [next(iter(ch)).kind for ch, _ in succ] == ["start"]
    _, started = succ[0]
    assert keyed(grade, started)[1]["ReviewThesis1"]
    succ2 = successors(grade, started, action_mode=TWO_PHASE)
    assert [next(iter(ch)).kind for ch, _ in succ2] == ["finish"]
    _, finished = succ2[0]
    assert not keyed(grade, finished)[1]["ReviewThesis1"]
    assert keyed(grade, finished)[0]["ReviewThesis1.r->J1.a"]


# ---------------------------------------------------------------------------
# Reachability and analysis
# ---------------------------------------------------------------------------

def test_reachable_minimal(minimal):
    res = reachable(minimal)
    assert len(res.configs) == 1
    assert res.edges == []
    assert not res.truncated


def test_reachable_grade_structure(grade):
    res = reachable(grade)
    assert not res.truncated
    report = analyze(grade, res)
    assert report.deadlocks == []
    assert report.decision_coverage == {"D1.p": True, "D1.f": True}
    assert report.never_fired == []
    assert all(report.final_reachability.values())
    maximal = [c for c in res.configs if not any(e[0] == c for e in res.edges)]
    assert maximal and all(config_is_final(grade, c) for c in maximal)


def test_reachable_two_phase_strictly_larger(grade, fac):
    for ad in (grade, fac):
        instant = reachable(ad, action_mode=INSTANT)
        two = reachable(ad, action_mode=TWO_PHASE)
        assert len(two.configs) > len(instant.configs)


def test_reachable_bound_truncates(grade):
    res = reachable(grade, bound=3)
    assert res.truncated
    assert len(res.configs) == 3


def test_reachable_keys_only_the_new_successors_it_orders(monkeypatch):
    """A configuration hashes in C, and `reachable` builds order keys only
    for the successors of an expansion that `visited` lacks, and only when
    there are two or more of them: only their order numbers configurations."""
    ad = fork(5, 2)
    visited, queue, expected = {initial_config(ad)}, deque([initial_config(ad)]), 0
    while queue:  # the same search over the public `successors`, counting those keys
        new = [c1 for _, c1 in successors(ad, queue.popleft(), CONCURRENT, action_mode=TWO_PHASE)
               if c1 not in visited]
        expected += len(new) if len(new) > 1 else 0
        visited.update(new)
        queue.extend(dict.fromkeys(new))
    made = Counter()
    order_key = tokengame._View.order_key

    def counting(view, ad, c):
        made[c] += 1
        return order_key(view, ad, c)

    monkeypatch.setattr(tokengame._View, "order_key", counting)
    res = reachable(ad, mode=CONCURRENT, action_mode=TWO_PHASE)
    assert (len(res.configs), len(res.edges)) == (3127, 55926)
    assert sum(made.values()) == expected < len(res.configs)
    assert Configuration.__hash__ is tuple.__hash__


def test_a_search_leaves_its_diagram_holding_near_nothing():
    """Order keys memoise JSON per token, not per buffer.  After a search on
    tests/fixtures/orphan.ad, whose buffer into the final node grows without
    end, and with the result dropped, the diagram keeps no buffer it keyed:
    at bound 300 it held 0.89 MB while it memoised each buffer's text."""
    ad = parse((FIXTURES / "orphan.ad").read_text(encoding="utf-8"))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = reachable(ad, bound=300)
        assert result.truncated and max(map(len, result.configs[-1].buffers)) > 100
        del result
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 100_000


def test_a_revisit_yields_the_instance_first_reached(grade):
    res = reachable(grade, mode=CONCURRENT, action_mode=TWO_PHASE)
    first = {c: c for c in res.configs}
    assert len(res.edges) > len(res.configs) - 1  # some edges revisit
    assert all(first[c0] is c0 and first[c1] is c1 for c0, _, c1 in res.edges)


def test_analyze_starved_join(split_join):
    # either branch starves the join: two starvation states
    both = analyze(split_join, reachable(split_join))
    assert len(both.deadlocks) == 2
    # under a bound, a starvation state it expanded is still a deadlock, and
    # the start, whose successors it cut, is not one
    cut = [analyze(split_join, reachable(split_join, bound=b)) for b in (1, 2)]
    assert [(r.truncated, r.deadlocks) for r in cut] == [(True, []), (True, both.deadlocks[:1])]


def test_analyze_never_fired():
    res = reachable(ORPHAN)
    report = analyze(ORPHAN, res)
    assert set(report.never_fired) == {"P", "Q"}
    assert report.deadlocks == []


# ---------------------------------------------------------------------------
# Soundness: every generated edge passes every predicate and the law
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["grade_thesis.ad", "fac.ad", "split_join.ad"])
@pytest.mark.parametrize("mode", [INTERLEAVING, CONCURRENT])
@pytest.mark.parametrize("action_mode", [INSTANT, TWO_PHASE])
def test_soundness_every_edge_conforms(name, mode, action_mode):
    from .conftest import load

    ad = load(name)
    res = reachable(ad, mode=mode, action_mode=action_mode)
    binding = lifted_binding(ad)
    inst = object()
    for s0, _, s1 in res.edges:
        for n in ad.nodes:
            assert allows_step(n, inst, s0, s1, binding)
        for t in ad.transitions:
            before = binding.buf_state(t, inst, s0)
            after = binding.buf_state(t, inst, s1)
            consumed = binding.cons(t, inst, s0, s1)
            produced = binding.prod(t, inst, s0, s1)
            assert len(after) == len(before) - len(consumed) + len(produced)


def test_forkjoin_conservation(grade):
    res = reachable(grade)
    for c0, choices, c1 in res.edges:
        for ch in choices:
            node = grade.node(ch.node)
            if node.kind is NodeKind.FORKJOIN:
                from adsem.diagram import incoming, outgoing
                delta = len(outgoing(grade, node)) - len(incoming(grade, node))
                assert token_count(c1) - token_count(c0) == delta


def test_decision_exclusivity(grade, fac):
    for ad in (grade, fac):
        res = reachable(ad)
        for c0, choices, c1 in res.edges:
            for ch in choices:
                if ch.kind == "decision":
                    assert token_count(c1) == token_count(c0)


# ---------------------------------------------------------------------------
# Completeness against the brute-force filter
# ---------------------------------------------------------------------------

# tests/fixtures/orphan.ad with X's output typed: its tokens carry `key#index` payloads
TYPED_ORPHAN = """
    activity Orphan {
        initial i out s;
        action X out d: Doc;
        final f in a, b: Doc;
        i.s -> f.a;
        X.d -> f.b;
    }
"""
# name, diagram, bound: the corpus is searched whole, and its buffers hold at most two
# tokens; orphan.ad is cut at 40 configurations, its buffer into the final node far longer
BRUTE = [(name, load(name), tokengame.DEFAULT_BOUND) for name in ("fac.ad", "minimal.ad", "split_join.ad")]
BRUTE += [("orphan.ad", parse((FIXTURES / "orphan.ad").read_text(encoding="utf-8")), 40),
          ("typed_orphan", parse(TYPED_ORPHAN), 40)]


@pytest.mark.parametrize("name,ad,bound", BRUTE, ids=[name for name, _, _ in BRUTE])
@pytest.mark.parametrize("action_mode", [INSTANT, TWO_PHASE])
def test_brute_force_equality(name, ad, bound, action_mode):
    assert len(ad.transitions) <= 12
    res = reachable(ad, action_mode=action_mode, bound=bound)
    longest = max(len(buf) for c in res.configs for buf in c.buffers)
    assert longest <= 2 if bound == tokengame.DEFAULT_BOUND else res.truncated and longest > 2
    for c in res.configs:
        expected = brute_successors(ad, c, action_mode=action_mode)
        actual = {c1 for _, c1 in successors(ad, c, INTERLEAVING,
                                             action_mode=action_mode)}
        assert actual == expected, f"{name} {action_mode}: mismatch at {c.canonical(ad)}"


@pytest.mark.parametrize("call", [
    lambda ad: reachable(ad, mode="bogus"),
    lambda ad: successors(ad, initial_config(ad), mode="bogus"),
    lambda ad: random_run(ad, mode="bogus"),
    lambda ad: as_binding(ad, [initial_config(ad)], mode="bogus"),
    lambda ad: as_binding(ad, [initial_config(ad)], mode="bogus", truncated=True),
    lambda ad: as_binding(ad, [initial_config(ad)], mode="bogus", truncated=False),
], ids=["reachable", "successors", "random_run", "as_binding", "as_binding-truncated", "as_binding-complete"])
def test_an_unknown_mode_raises_at_a_dead_end(call):
    """minimal.ad's initial configuration has no successor, so no step is
    expanded before the mode is read."""
    ad = load("minimal.ad")
    assert successors(ad, initial_config(ad)) == []
    with pytest.raises(TokenGameError, match=r"^unknown mode 'bogus'$"):
        call(ad)


@pytest.mark.parametrize("truncated", [None, True, False])
@pytest.mark.parametrize("mode", [INTERLEAVING, "bogus"])
def test_as_binding_rejects_an_unknown_action_mode_before_the_mode(mode, truncated):
    ad = load("minimal.ad")
    with pytest.raises(TokenGameError, match=r"^unknown action mode 'bogus'$"):
        as_binding(ad, [initial_config(ad)], mode=mode, action_mode="bogus", truncated=truncated)


# ---------------------------------------------------------------------------
# Runs, judging, exports
# ---------------------------------------------------------------------------

def test_every_maximal_run_satisfied(grade):
    maximal = runs(grade)
    assert len(maximal) == 4  # two review orders x two branches
    for run in maximal:
        assert not run.cut and config_is_final(grade, run.configs[-1])
        inst, binding, trace = as_binding(grade, run.configs)
        assert not trace.truncated
        assert conforms(trace, inst, binding).kind is VerdictKind.SATISFIED


def test_single_config_run_is_prefix(grade):
    inst, binding, trace = as_binding(grade, [initial_config(grade)])
    assert trace.truncated
    assert conforms(trace, inst, binding).kind is VerdictKind.SATISFIED_SO_FAR


def test_random_run_reaches_final(grade):
    run = random_run(grade, seed=7)
    assert not run.cut
    assert config_is_final(grade, run.configs[-1])


def test_a_long_run_costs_time_linear_in_its_length():
    """A loop through a decision merge never ends, so each run of it is cut at its bound.
    60,000 steps take a small part of the 5 s allowed when no step copies the run so far,
    and about 20 s when each does."""
    loop = parse("""
        activity Loop {
            initial i out s;
            decisionmerge M in a, b out o;
            action A in x out y;
            final f in z;
            i.s -> M.a;
            M.o -> A.x;
            A.y -> M.b;
        }
    """)
    start = time.perf_counter()
    run = random_run(loop, 0, INTERLEAVING, TWO_PHASE, max_len=60_000)
    assert time.perf_counter() - start < 5
    assert run.cut and len(run.configs) == 60_000


def test_run_jsonl_round_trip(grade):
    run = random_run(grade, seed=1)
    text = run_to_jsonl(grade, run.configs)
    again = [Configuration.from_json(grade, json.loads(line)) for line in text.splitlines()]
    assert again == list(run.configs)
    for line in text.strip().splitlines():
        payload = json.loads(line)
        assert set(payload) == {"buffers", "exec"}


def assert_run_written_like_json_dumps(ad, configs) -> None:
    text = run_to_jsonl(ad, configs)
    assert text.endswith("\n")
    assert text.splitlines() == [json.dumps(c.to_json(ad), sort_keys=True) for c in configs]


@pytest.mark.parametrize("mode", [INTERLEAVING, CONCURRENT])
@pytest.mark.parametrize("actions", [INSTANT, TWO_PHASE])
def test_run_jsonl_is_json_dumps_of_each_configuration(grade, mode, actions):
    for seed in range(4):
        assert_run_written_like_json_dumps(grade, random_run(grade, seed, mode, actions).configs)
    assert_run_written_like_json_dumps(fork(3, 2), random_run(fork(3, 2), 5, mode, actions).configs)


def test_run_jsonl_writes_payloads_read_from_a_file_like_json_dumps(grade):
    """List and nested-object payloads, unhashable once read, non-ASCII and quoted texts,
    several tokens in one buffer, and configurations that repeat."""
    read = [Configuration.from_json(grade, d) for d in [
        {"buffers": {"FileThesis.t->F1.x": [
            {"type": "Thesis", "payload": [1, [2, "a"], {"k": None}]},
            {"type": "Thesis", "payload": {"b": {"c": [1, 2.5]}, "a": "Zoë \"q\""}},
            "control"]},
         "exec": {"Evaluate": True}},
        {"buffers": {"F1.y2->ReviewThesis2.t": [{"type": "Thesis", "payload": [1, [2, "a"]]}],
                     "F1.y1->ReviewThesis1.t": [{"type": "Thesis"}, {"type": "Thesis", "payload": 7}]},
         "exec": {"ReviewThesis1": True, "FileThesis": True}},
        {}]]
    assert_run_written_like_json_dumps(grade, read + read[::-1] + [initial_config(grade)])


def test_reachability_dot(grade):
    import re

    res = reachable(grade)
    dot = reachability_to_dot(grade, res)
    assert dot.startswith("digraph")
    assert len(re.findall(r"n\d+ -> n\d+", dot)) == len(res.edges)
    assert "doublecircle" in dot  # final configurations stand out
