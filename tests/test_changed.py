"""`VariationBinding.changed` against what the binding's other fields say,
and `conforms` against a full scan of every node on every pair.

Hypothesis draws a recorded trace of `golden/verdicts/` (variant 1,
variant 2 and token runs of every diagram and mode there) and applies up
to three mutations of `test_cli_golden_verdicts` to it.  On each pair of
states, `changed` must list every position whose `cons` or `prod` is
non-empty or whose buffer differs, and every node whose flag differs.
`conforms` judges a pair only at the nodes next to what `changed` lists;
`full_scan` is the loop it replaced, which judges every node and reads
every buffer and flag of every state, and the two must give the same
verdict, or raise the same error.
"""

from __future__ import annotations

import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adsem.diagram import NodeKind
from adsem.semantics import (_STEP_PREDICATE, Verdict, VerdictKind, _allows, _busy,
                             _guard_holds, configuration_is, conforms, is_initial_state)

from .test_cli_golden_verdicts import bases, decoded, golden_path, mutate

RECORDS = {name: json.loads(golden_path(name).read_text(encoding="utf-8")) for name in bases()}


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

    s0 = trace[start]
    flags0 = flags_of(s0)
    final0 = final(s0, flags0)
    for j in range(start, len(trace) - 1):
        s1 = trace[j + 1]
        consumed = [len(b.cons(t, inst, s0, s1)) for t in transitions]
        produced = [len(b.prod(t, inst, s0, s1)) for t in transitions]
        flags1 = flags_of(s1)
        holds = _guard_holds(ad, inst, s1, b)
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


@st.composite
def traces(draw):
    """(instance, binding, trace) of a recorded trace, mutated up to three times."""
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
def test_changed_lists_every_position_and_flag_a_pair_touches(case):
    inst, b, trace = case
    ad = b.diagram_of(inst)
    pairs = [(trace[j], trace[j + 1]) for j in range(len(trace) - 1)]
    for s0, s1 in pairs + [(s1, s0) for s0, s1 in pairs] + [(trace[0], trace[len(trace) - 1])]:
        try:
            touched = [p for p, t in enumerate(ad.layout.transitions)
                       if b.cons(t, inst, s0, s1) or b.prod(t, inst, s0, s1)
                       or b.buf_state(t, inst, s0) != b.buf_state(t, inst, s1)]
            flipped = [i for i, n in enumerate(ad.nodes)
                       if b.executing(n, inst, s0) != b.executing(n, inst, s1)]
        except Exception:  # a state the binding cannot read
            continue
        positions, nodes = b.changed(inst, s0, s1)
        assert set(touched) <= set(positions)
        assert set(flipped) <= set(nodes)


@settings(max_examples=300, deadline=None)
@given(traces())
def test_conforms_agrees_with_a_full_scan(case):
    inst, b, trace = case
    assert outcome(conforms, trace, inst, b) == outcome(full_scan, trace, inst, b)
