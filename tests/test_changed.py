"""`VariationBinding.delta` against what the binding's other fields say,
and `conforms` against a full scan of every node on every pair.

Hypothesis draws a recorded trace of `golden/verdicts/` (variant 1,
variant 2 and token runs of every diagram and mode there) and applies up
to three mutations of `test_cli_golden_verdicts` to it.  The full scan
also gets seeded `random_run`s, mutated alike, in all four modes of
`corpus/fac.ad` (a loop), `corpus/split_join.ad` and
`fixtures/orphan.ad` (an action with no input, which starts and finishes
again and again), so that steps recur under both flag values and
`conforms` judges them from the plan it made the first time, and
`run_method` traces of `corpus/fac.ad` and of a two-accumulator counting
loop, mutated alike, whose loops revisit each abstract configuration, so
that `conforms` judges repeated pairs from what it kept of them.  On each
pair of states, `delta` must give each position it lists the `cons` and
`prod` counts and the filled bit of the second buffer, and each node it
lists the flag in the second state; any other position has no counts and
one buffer in both states, and any other node keeps its flag.  `conforms`
judges a pair from `delta` alone; `full_scan` is the loop it replaced,
which judges every node and reads every buffer and flag of every state,
and the two must give the same verdict, or raise the same error, also
when the binding returns one `delta` object for equal deltas
(`interning`), so that token traces are judged by identity too.
"""

from __future__ import annotations

import json
from dataclasses import replace
from functools import cache

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adsem import diagram, sysmodel, tokengame, variant1
from adsem.diagram import NodeKind
from adsem.semantics import (_STEP_PREDICATE, CONTROL_TOKEN, Verdict, VerdictKind, _allows, _busy,
                             configuration_is, conforms, is_initial_state)

from .conftest import CORPUS
from .test_cli_golden_verdicts import MODES, bases, decoded, golden_path, mutate

RECORDS = {name: json.loads(golden_path(name).read_text(encoding="utf-8")) for name in bases()}
LOOPING = ["corpus/fac.ad", "corpus/split_join.ad", "tests/fixtures/orphan.ad"]
COUNTING = """activity Counting {
    initial s out o;
    action Z1 in g out p effect "acc1 := 0";
    action Z2 in g out p effect "acc2 := 0";
    decisionmerge H in a, b out body guard "i > 0", exit guard "i <= 0";
    action B1 in g out p effect "acc1 := acc1 + i * 3";
    action B2 in g out p effect "acc2 := acc2 + i * 7";
    action D in g out p effect "i := i - 1";
    final x in e;
    s.o -> Z1.g;
    Z1.p -> Z2.g;
    Z2.p -> H.a;
    H.body -> B1.g;
    B1.p -> B2.g;
    B2.p -> D.g;
    D.p -> H.b;
    H.exit -> x.e;
}
"""


def full_scan(trace, inst, b) -> Verdict:
    """Every node judged on every pair from the counts of every transition,
    and finality read off each whole state."""
    ad = b.diagram_of(inst)
    transitions, ins, outs = ad.layout.transitions, ad.layout.ins, ad.layout.outs
    start = next((i for i in range(len(trace)) if is_initial_state(inst, trace[i], b)), None)
    if start is None:
        return Verdict(VerdictKind.NO_INITIAL_FOUND)

    def flags_of(s):
        return tuple(b.executing(n, inst, s) for n in ad.nodes)

    def final(s, flags):
        return configuration_is(ad, NodeKind.FINAL, buffered(s), flags.__getitem__)

    def buffered(s):
        return lambda p: len(b.buf_state(transitions[p], inst, s)) != 0

    def guards_in(s):
        return lambda p: b.eval_guard(ad.guard(transitions[p].src, transitions[p].out_pin), inst, s)

    s0 = trace[start]
    flags0 = flags_of(s0)
    final0 = final(s0, flags0)
    for j in range(start, len(trace) - 1):
        s1 = trace[j + 1]
        consumed = [len(b.cons(t, inst, s0, s1)) for t in transitions]
        produced = [len(b.prod(t, inst, s0, s1)) for t in transitions]
        flags1 = flags_of(s1)
        holds = guards_in(s1)
        for i, n in enumerate(ad.nodes):
            if not _allows(n.kind, [consumed[p] for p in ins[i]], [produced[p] for p in outs[i]],
                           flags0[i], flags1[i], outs[i], holds):
                return Verdict(VerdictKind.VIOLATED, j, n.name, _STEP_PREDICATE[n.kind])
        final1 = final(s1, flags1)
        if final0 and not final1:
            blamed = (_busy(ad, NodeKind.FINAL, buffered(s1), flags1.__getitem__)
                      or next(n for n in ad.nodes if n.kind is NodeKind.FINAL))
            return Verdict(VerdictKind.VIOLATED, j, blamed.name, "final-persistence")
        s0, flags0, final0 = s1, flags1, final1
    return Verdict(VerdictKind.SATISFIED_SO_FAR if trace.truncated else VerdictKind.SATISFIED)


def outcome(judge, *args):
    try:
        return judge(*args)
    except Exception as e:  # a malformed state fails alike in both
        return type(e), str(e)


@cache
def random_record(path: str, mode: str, actions: str, seed: int) -> dict:
    """A record like those of `golden/verdicts/` whose base is a seeded `random_run`."""
    ad = diagram.parse((CORPUS.parent / path).read_text(encoding="utf-8"))
    run = tokengame.random_run(ad, seed, mode, actions, max_len=60)
    return {"diagram": path, "options": ["--variant", "token", "--mode", mode, "--actions", actions],
            "base": [json.dumps(c.to_json(ad), sort_keys=True) for c in run.configs]}


@cache
def v1_record(counting: bool, n: int) -> dict:
    """A record like `golden/verdicts/fac-n3.json` whose base is a `run_method` of
    `corpus/fac.ad` from n, or of `COUNTING` from i = n."""
    path = "corpus/fac.ad"
    text = COUNTING if counting else (CORPUS.parent / path).read_text(encoding="utf-8")
    ad = diagram.parse(text)
    inst = variant1.method_instance(ad)
    trace = variant1.run_method(ad, inst, {"i" if counting else "n": n})
    header = {"params": inst.to_json(), "truncated": trace.truncated, "variant": "v1"}
    return {"diagram": path, **({"text": text} if counting else {}), "options": ["--variant", "v1"],
            "base": [json.dumps(header, sort_keys=True), *sysmodel.states_to_jsonl(trace.states).splitlines()]}


@st.composite
def traces(draw, looping: bool = False):
    """(instance, binding, trace) of a recorded trace, or with `looping` maybe of a
    `random_run` of a `LOOPING` diagram or a v1 run of a loop, mutated up to three times."""
    source = draw(st.sampled_from(["recorded", "token", "v1"] if looping else ["recorded"]))
    if source == "token":
        record = random_record(draw(st.sampled_from(LOOPING)), *draw(st.sampled_from(MODES)),
                               draw(st.integers(0, 40)))
    elif source == "v1":
        record = v1_record(draw(st.booleans()), draw(st.integers(3, 40)))
    else:
        record = RECORDS[draw(st.sampled_from(sorted(RECORDS)))]
    lines = record["base"]
    ops = draw(st.integers(0, 3))
    if ops:
        mutant = mutate(draw(st.randoms(use_true_random=False)), record, ops)
        lines = lines if mutant is None else mutant[1]
    try:
        return decoded(record, lines)
    except Exception:  # lines `check-trace` rejects before judging
        assume(False)


@settings(max_examples=300, deadline=None)
@given(traces())
def test_delta_gives_the_counts_buffers_and_flags_of_every_pair(case):
    inst, b, trace = case
    ad = b.diagram_of(inst)
    transitions = ad.layout.transitions
    pairs = [(trace[j], trace[j + 1]) for j in range(len(trace) - 1)]
    for s0, s1 in pairs + [(s1, s0) for s0, s1 in pairs] + [(trace[0], trace[len(trace) - 1])]:
        try:
            counts = [(len(b.cons(t, inst, s0, s1)), len(b.prod(t, inst, s0, s1)),
                       bool(b.buf_state(t, inst, s1))) for t in transitions]
            kept = [b.buf_state(t, inst, s0) == b.buf_state(t, inst, s1) for t in transitions]
            flags0, flags1 = ([b.executing(n, inst, s) for n in ad.nodes] for s in (s0, s1))
        except Exception:  # a state the binding cannot read
            continue
        moves, flags = b.delta(inst, s0, s1)
        for p in range(len(transitions)):
            if p in moves:
                assert moves[p] == counts[p]
            else:
                assert counts[p][:2] == (0, 0) and kept[p]
        for i in range(len(ad.nodes)):
            assert flags[i] == flags1[i] if i in flags else flags0[i] == flags1[i]


def interning(b):
    """`b`, its `delta` returning one object for equal deltas, as a binding may, so that
    `conforms` finds every plan met twice by identity, also of a token trace."""
    kept: dict = {}

    def delta(inst, s0, s1):
        moves, moved = found = b.delta(inst, s0, s1)
        return kept.setdefault((tuple(moves.items()), tuple(moved.items())), found)
    return replace(b, delta=delta)


@settings(max_examples=500, deadline=None)
@given(traces(looping=True))
def test_conforms_agrees_with_a_full_scan(case):
    inst, b, trace = case
    expected = outcome(full_scan, trace, inst, b)
    assert outcome(conforms, trace, inst, b) == outcome(conforms, trace, inst, interning(b)) == expected


def test_a_pc_rewound_late_in_a_long_loop_is_located_as_a_full_scan_locates_it():
    # fac n=60 loops 59 times; the 51st MulRes state, after 50 passes, goes back to SetRes,
    # so that every pair before it is a loop pair met before, from a configuration met before
    record = v1_record(False, 60)
    lines = list(record["base"])
    at = [k for k, line in enumerate(lines) if '"pc": "pc:MulRes"' in line][50]
    lines[at] = lines[at].replace('"pc": "pc:MulRes"', '"pc": "pc:SetRes"')
    inst, b, trace = decoded(record, lines)
    verdict = conforms(trace, inst, b)
    assert verdict == full_scan(trace, inst, b)
    assert verdict.kind is VerdictKind.VIOLATED and verdict.index == at - 2  # line `at` holds state at - 1


def test_finality_reached_by_a_token_and_lost_by_a_start_is_blamed_on_the_starter():
    # the token that makes the state final reaches the final node through a
    # buffer, not a flag, and the action that then starts has no inputs
    ad = diagram.parse("activity LateOrphan { initial i; action A; action X; final f; "
                       "i -> A; A -> f; X -> f; }")
    into_a, into_f = "i._o1->A._i1", "A._o1->f._i1"
    run = [tokengame.Configuration.make(ad, buffers, flags) for buffers, flags in [
        ({into_a: [CONTROL_TOKEN]}, {}), ({}, {"A": True}), ({into_f: [CONTROL_TOKEN]}, {}),
        ({into_f: [CONTROL_TOKEN]}, {"X": True})]]
    inst, b, trace = tokengame.as_binding(ad, run, action_mode=tokengame.TWO_PHASE)
    expected = Verdict(VerdictKind.VIOLATED, 2, "X", "final-persistence")
    assert conforms(trace, inst, b) == full_scan(trace, inst, b) == expected


def test_a_recurring_decision_step_reads_its_guard_on_every_occurrence(fac):
    # seed 2 loops three times: steps 4 and 7 both take Loop from b to its body, one
    # delta under the same flags, which `conforms` plans once
    run = tokengame.random_run(fac, 2)
    assert [sorted(ch.label() for ch in chs) for chs in run.choices][4:8:3] == [
        ["Loop:DecN.r->Loop.b=>Loop.body->MulRes.go"]] * 2
    inst, lifted, trace = tokengame.as_binding(fac, run.configs)
    assert trace[5] == trace[8] and trace[5] is not trace[8]
    asked = []

    def fails_at(k: int | None):
        """The lifted binding, its guards holding in every configuration but `trace[k]`."""
        def eval_guard(guard, _inst, c):
            asked.append((guard, next(i for i, s in enumerate(trace) if s is c)))
            return k is None or c is not trace[k]
        return replace(lifted, eval_guard=eval_guard)
    assert conforms(trace, inst, fails_at(None)) == Verdict(VerdictKind.SATISFIED)
    assert asked == [("n > 1", 2), ("n > 1", 5), ("n > 1", 8), ("n <= 1", 11)]
    for k in (5, 8):
        asked.clear()
        assert conforms(trace, inst, fails_at(k)) == Verdict(
            VerdictKind.VIOLATED, k - 1, "Loop", "step:decisionmerge")
        assert asked == [("n > 1", i) for i in (2, 5, 8) if i <= k]


def test_a_pair_met_again_from_a_configuration_met_before_reads_its_guard_again(fac):
    # in v1, DecN -> MulRes crosses Loop: one delta object, from one abstract configuration,
    # on every pass after the first; its guard is still read in each pair's second state
    inst = variant1.method_instance(fac)
    trace = variant1.run_method(fac, inst, {"n": 10})
    asked = []

    def fails_at(k: int | None):
        """The v1 binding, its guards holding in every state but `trace[k]`."""
        def eval_guard(guard, _inst, s):
            asked.append((guard, next(i for i, s1 in enumerate(trace) if s1 is s)))
            return k is None or s is not trace[k]
        return replace(variant1.atomic_binding(inst), eval_guard=eval_guard)
    assert conforms(trace, inst, fails_at(None)) == Verdict(VerdictKind.SATISFIED)
    assert asked == [("n > 1", i) for i in range(1, len(trace) - 1, 2)] + [("n <= 1", len(trace) - 1)]
    asked.clear()
    assert conforms(trace, inst, fails_at(15)) == Verdict(VerdictKind.VIOLATED, 14, "Loop", "step:decisionmerge")
    assert asked == [("n > 1", i) for i in range(1, 16, 2)]


def test_a_stutter_met_again_after_kept_pairs_is_judged_where_the_trace_is(fac):
    # seed 28 loops eight times; with one delta object per distinct delta, `conforms` judges the
    # later passes from what it kept of the earlier ones.  A stutter, met three times after
    # them, is judged by key twice, then by identity from where the trace is
    run = list(tokengame.random_run(fac, 28, tokengame.INTERLEAVING, tokengame.TWO_PHASE).configs)
    assert len(run) == 44
    for k in (36, 33, 30):
        run.insert(k, run[k])
    inst, b, trace = tokengame.as_binding(fac, run, action_mode=tokengame.TWO_PHASE)
    assert conforms(trace, inst, interning(b)) == full_scan(trace, inst, b) == Verdict(VerdictKind.SATISFIED)


LOOP_THEN_ORPHAN = diagram.parse("""activity LoopThenOrphan {
    initial i out s;
    decisionmerge M in a, b out body, exit;
    action A in x out y;
    action X;
    final f in z;
    i.s -> M.a;
    M.body -> A.x;
    A.y -> M.b;
    M.exit -> f.z;
}""")


def test_finality_lost_after_kept_pairs_is_found_where_the_trace_is():
    # five passes through A, judged from what `conforms` kept of the first ones, then the exit,
    # met once and judged by key from where the trace is, makes it final, and X starts
    ad, steps = LOOP_THEN_ORPHAN, ["M:i.s->M.a=>M.body->A.x"]
    steps += ["A:start", "A:finish", "M:A.y->M.b=>M.body->A.x"] * 4 + ["A:start", "A:finish"]
    run = [tokengame.initial_config(ad)]
    for label in steps + ["M:A.y->M.b=>M.exit->f.z", "X:start"]:
        run.append(next(c1 for chs, c1 in tokengame.successors(ad, run[-1], tokengame.INTERLEAVING,
                                                               tokengame.TWO_PHASE)
                        if [ch.label() for ch in chs] == [label]))
    inst, b, trace = tokengame.as_binding(ad, run, action_mode=tokengame.TWO_PHASE)
    expected = Verdict(VerdictKind.VIOLATED, len(steps) + 1, "X", "final-persistence")
    assert conforms(trace, inst, interning(b)) == full_scan(trace, inst, b) == expected


def test_one_delta_is_judged_again_under_other_flags(fac):
    # a binding may list nodes whose flags do not change: listing every node,
    # the stutter of step 0 and the flag SetRes drops without producing in
    # step 2 have one delta, and only SetRes's flag before tells them apart
    lifted = tokengame.lifted_binding(fac)
    b = replace(lifted, delta=lambda inst, s0, s1: (lifted.delta(inst, s0, s1)[0], {
        i: lifted.executing(n, inst, s1) for i, n in enumerate(fac.nodes)}))
    start = tokengame.initial_config(fac)
    started = tokengame.Configuration.make(fac, flags={"SetRes": True})
    trace = [start, start, started, tokengame.Configuration.make(fac)]
    inst, _, trace = tokengame.as_binding(fac, trace, action_mode=tokengame.TWO_PHASE)
    assert b.delta(inst, trace[0], trace[1]) == b.delta(inst, trace[2], trace[3])
    expected = Verdict(VerdictKind.VIOLATED, 2, "SetRes", "step:action")
    assert conforms(trace, inst, b) == full_scan(trace, inst, b) == expected


def test_v1_walks_the_flow_at_most_once_per_pair_that_crosses_a_decision(fac, monkeypatch):
    ad, inst = fac, variant1.method_instance(fac)
    trace = variant1.run_method(ad, inst, {"n": 100})
    into_decisions = [t for t in ad.layout.transitions
                      if ad.node(t.dst).kind is NodeKind.DECISIONMERGE]
    b = variant1.atomic_binding(inst)
    crossing = sum(any(b.cons(t, inst, trace[j], trace[j + 1]) for t in into_decisions)
                   for j in range(len(trace) - 1))
    walks, walk = [], variant1.flow_walk
    monkeypatch.setattr(variant1, "flow_walk", lambda *args: walks.append(args) or walk(*args))
    assert conforms(trace, inst, variant1.atomic_binding(inst)).kind is VerdictKind.SATISFIED
    assert 0 < len(walks) <= crossing < len(trace) - 1
