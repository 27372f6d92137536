"""Hand-constructed state pairs for every step predicate, plus the trace
conformance relation and the FIFO buffer law.

Pairs are built over the lifted token-game binding: buffers and flags
are written explicitly, consumption/production follow from the deltas.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from adsem.semantics import (
    CONTROL_TOKEN,
    Token,
    VerdictKind,
    admissible_tokens,
    allows_step,
    buffer_types_ok,
    conforms,
    fifo_delta,
    finishes_action,
    fires_decision,
    fires_instantly,
    is_final_state,
    is_initial_state,
    starts_action,
    stutters,
)
from adsem.sysmodel import Trace
from adsem.tokengame import as_binding
from adsem.diagram import CONTROL, TOP, data_type

from .conftest import pair, runs

T_START = "start.s0->FileThesis.go"
T_FILE = "FileThesis.t->F1.x"
T_FORK1 = "F1.y1->ReviewThesis1.t"
T_FORK2 = "F1.y2->ReviewThesis2.t"
T_REV1 = "ReviewThesis1.r->J1.a"
T_REV2 = "ReviewThesis2.r->J1.b"
T_JOIN1 = "J1.c->Evaluate.r1"
T_JOIN2 = "J1.d->Evaluate.r2"
T_EVAL = "Evaluate.res->D1.v"
T_PASS = "D1.p->CreateCert.go"
T_FAIL = "D1.f->DetainFailure.go"
T_CERT = "CreateCert.done->finish.end"
T_DETAIN = "DetainFailure.done->finish.end"

THESIS = Token("Thesis", "th#0")
REVIEW1 = Token("Review", "r#1")
REVIEW2 = Token("Review", "r#2")


def tr(ad, key):
    for t in ad.transitions:
        if t.key == key:
            return t
    raise KeyError(key)


# ---------------------------------------------------------------------------
# Tokens and pin-type sets
# ---------------------------------------------------------------------------

def test_token_sets():
    assert CONTROL_TOKEN in CONTROL
    assert THESIS not in CONTROL
    assert CONTROL_TOKEN in TOP and THESIS in TOP
    thesis_set = admissible_tokens(data_type("Thesis"))
    assert THESIS in thesis_set
    assert REVIEW1 not in thesis_set and CONTROL_TOKEN not in thesis_set
    assert admissible_tokens(data_type("Thesis")) == thesis_set


def test_buffer_type_constraint(grade):
    inst, s0, _, b = pair(grade, bufs0={T_FILE: [THESIS]})
    assert buffer_types_ok(tr(grade, T_FILE), inst, s0, b)
    inst, s0, _, b = pair(grade, bufs0={T_FILE: [REVIEW1]})
    assert not buffer_types_ok(tr(grade, T_FILE), inst, s0, b)


# ---------------------------------------------------------------------------
# Initial states
# ---------------------------------------------------------------------------

def test_initial_positive_cases(grade, minimal):
    inst, s0, _, b = pair(grade, bufs0={T_START: [CONTROL_TOKEN]})
    assert is_initial_state(inst, s0, b)
    # several tokens on the initial edge still count
    inst, s0, _, b = pair(grade, bufs0={T_START: [CONTROL_TOKEN, CONTROL_TOKEN]})
    assert is_initial_state(inst, s0, b)
    # the minimal diagram's only configuration is initial (and final)
    key = minimal.transitions[0].key
    inst, s0, _, b = pair(minimal, bufs0={key: [CONTROL_TOKEN]})
    assert is_initial_state(inst, s0, b)
    assert is_final_state(inst, s0, b)


def test_initial_negative_cases(grade):
    # token moved onto a non-initial node's outgoing transition
    inst, s0, _, b = pair(grade, bufs0={T_FILE: [THESIS]})
    assert not is_initial_state(inst, s0, b)
    # something is executing
    inst, s0, _, b = pair(grade, bufs0={T_START: [CONTROL_TOKEN]},
                          flags0={"ReviewThesis1": True})
    assert not is_initial_state(inst, s0, b)
    # no tokens at all
    inst, s0, _, b = pair(grade)
    assert not is_initial_state(inst, s0, b)


# ---------------------------------------------------------------------------
# Final states
# ---------------------------------------------------------------------------

def test_final_positive_cases(grade):
    for key in (T_CERT, T_DETAIN):
        inst, s0, _, b = pair(grade, bufs0={key: [CONTROL_TOKEN]})
        assert is_final_state(inst, s0, b)
    # only SOME incoming buffer must be nonempty: both loaded is still final
    inst, s0, _, b = pair(grade, bufs0={T_CERT: [CONTROL_TOKEN], T_DETAIN: [CONTROL_TOKEN]})
    assert is_final_state(inst, s0, b)


def test_final_negative_cases(grade):
    inst, s0, _, b = pair(grade, bufs0={T_START: [CONTROL_TOKEN]})
    assert not is_final_state(inst, s0, b)
    inst, s0, _, b = pair(grade, bufs0={T_CERT: [CONTROL_TOKEN]},
                          flags0={"FileThesis": True})
    assert not is_final_state(inst, s0, b)
    # a non-final node still has an incoming token
    inst, s0, _, b = pair(grade, bufs0={T_CERT: [CONTROL_TOKEN], T_EVAL: [CONTROL_TOKEN]})
    assert not is_final_state(inst, s0, b)


# ---------------------------------------------------------------------------
# Stutter
# ---------------------------------------------------------------------------

def test_stutter_identical_states(grade):
    bufs = {T_FORK1: [THESIS], T_FORK2: [THESIS]}
    inst, s0, s1, b = pair(grade, bufs0=bufs, bufs1=bufs)
    for n in grade.nodes:
        assert stutters(n, inst, s0, s1, b)


def test_stutter_untouched_node_during_other_step(grade):
    # FileThesis fires; D1's adjacent buffers and flag are untouched
    inst, s0, s1, b = pair(grade, bufs0={T_START: [CONTROL_TOKEN]},
                           bufs1={T_FILE: [THESIS]})
    assert stutters(grade.node("D1"), inst, s0, s1, b)
    # a token ARRIVING on the node's input is still a stutter for it
    inst, s0, s1, b = pair(grade, bufs0={T_JOIN1: [REVIEW1], T_JOIN2: [REVIEW2]},
                           bufs1={T_EVAL: [CONTROL_TOKEN]})
    assert stutters(grade.node("D1"), inst, s0, s1, b)


def test_stutter_negative_cases(grade):
    # flag changed
    inst, s0, s1, b = pair(grade, flags0={"ReviewThesis1": False},
                           flags1={"ReviewThesis1": True})
    assert not stutters(grade.node("ReviewThesis1"), inst, s0, s1, b)
    # the node consumed
    inst, s0, s1, b = pair(grade, bufs0={T_START: [CONTROL_TOKEN]},
                           bufs1={T_FILE: [THESIS]})
    assert not stutters(grade.node("FileThesis"), inst, s0, s1, b)
    # a token was produced on the node's output
    assert not stutters(grade.node("FileThesis"), inst, s0, s1, b)
    inst2, s2, s3, b2 = pair(grade, bufs0={T_EVAL: [CONTROL_TOKEN]},
                             bufs1={T_EVAL: [CONTROL_TOKEN], T_PASS: [CONTROL_TOKEN]})
    assert not stutters(grade.node("D1"), inst2, s2, s3, b2)


# ---------------------------------------------------------------------------
# Starting an action
# ---------------------------------------------------------------------------

def test_start_action_positive(grade):
    inst, s0, s1, b = pair(grade, bufs0={T_FORK1: [THESIS]},
                           flags1={"ReviewThesis1": True})
    assert starts_action(grade.node("ReviewThesis1"), inst, s0, s1, b)
    # two inputs, both consumed at once
    inst, s0, s1, b = pair(grade, bufs0={T_JOIN1: [REVIEW1], T_JOIN2: [REVIEW2]},
                           flags1={"Evaluate": True})
    assert starts_action(grade.node("Evaluate"), inst, s0, s1, b)
    # an unrelated action already running does not interfere
    inst, s0, s1, b = pair(grade, bufs0={T_FORK2: [THESIS]},
                           flags0={"ReviewThesis1": True},
                           flags1={"ReviewThesis1": True, "ReviewThesis2": True})
    assert starts_action(grade.node("ReviewThesis2"), inst, s0, s1, b)


def test_start_action_negative(grade):
    n = grade.node("ReviewThesis1")
    # flag flips but nothing consumed
    inst, s0, s1, b = pair(grade, bufs0={T_FORK1: [THESIS]}, bufs1={T_FORK1: [THESIS]},
                           flags1={"ReviewThesis1": True})
    assert not starts_action(n, inst, s0, s1, b)
    # consumed but also produced
    inst, s0, s1, b = pair(grade, bufs0={T_FORK1: [THESIS]}, bufs1={T_REV1: [REVIEW1]},
                           flags1={"ReviewThesis1": True})
    assert not starts_action(n, inst, s0, s1, b)
    # already executing
    inst, s0, s1, b = pair(grade, bufs0={T_FORK1: [THESIS]},
                           flags0={"ReviewThesis1": True}, flags1={"ReviewThesis1": True})
    assert not starts_action(n, inst, s0, s1, b)
    # only one of two inputs consumed
    inst, s0, s1, b = pair(grade, bufs0={T_JOIN1: [REVIEW1], T_JOIN2: [REVIEW2]},
                           bufs1={T_JOIN2: [REVIEW2]}, flags1={"Evaluate": True})
    assert not starts_action(grade.node("Evaluate"), inst, s0, s1, b)


# ---------------------------------------------------------------------------
# Finishing an action
# ---------------------------------------------------------------------------

def test_finish_action_positive(grade):
    inst, s0, s1, b = pair(grade, flags0={"ReviewThesis1": True}, bufs1={T_REV1: [REVIEW1]})
    assert finishes_action(grade.node("ReviewThesis1"), inst, s0, s1, b)
    inst, s0, s1, b = pair(grade, flags0={"Evaluate": True}, bufs1={T_EVAL: [CONTROL_TOKEN]})
    assert finishes_action(grade.node("Evaluate"), inst, s0, s1, b)
    inst, s0, s1, b = pair(grade, flags0={"FileThesis": True}, bufs1={T_FILE: [THESIS]})
    assert finishes_action(grade.node("FileThesis"), inst, s0, s1, b)


def test_finish_action_negative(grade):
    n = grade.node("ReviewThesis1")
    # flag does not flip
    inst, s0, s1, b = pair(grade, flags0={"ReviewThesis1": True},
                           flags1={"ReviewThesis1": True}, bufs1={T_REV1: [REVIEW1]})
    assert not finishes_action(n, inst, s0, s1, b)
    # nothing produced
    inst, s0, s1, b = pair(grade, flags0={"ReviewThesis1": True})
    assert not finishes_action(n, inst, s0, s1, b)
    # consumption alongside the finish
    inst, s0, s1, b = pair(grade, bufs0={T_FORK1: [THESIS]},
                           flags0={"ReviewThesis1": True}, bufs1={T_REV1: [REVIEW1]})
    assert not finishes_action(n, inst, s0, s1, b)


# ---------------------------------------------------------------------------
# Instant reaction
# ---------------------------------------------------------------------------

def test_instant_positive(grade):
    inst, s0, s1, b = pair(grade, bufs0={T_START: [CONTROL_TOKEN]}, bufs1={T_FILE: [THESIS]})
    assert fires_instantly(grade.node("FileThesis"), inst, s0, s1, b)
    inst, s0, s1, b = pair(grade, bufs0={T_JOIN1: [REVIEW1], T_JOIN2: [REVIEW2]},
                           bufs1={T_EVAL: [CONTROL_TOKEN]})
    assert fires_instantly(grade.node("Evaluate"), inst, s0, s1, b)
    inst, s0, s1, b = pair(grade, bufs0={T_FORK1: [THESIS]}, bufs1={T_REV1: [REVIEW1]})
    assert fires_instantly(grade.node("ReviewThesis1"), inst, s0, s1, b)


def test_instant_negative(grade):
    n = grade.node("FileThesis")
    # production without consumption
    inst, s0, s1, b = pair(grade, bufs1={T_FILE: [THESIS]})
    assert not fires_instantly(n, inst, s0, s1, b)
    # two tokens produced on one transition
    inst, s0, s1, b = pair(grade, bufs0={T_START: [CONTROL_TOKEN]},
                           bufs1={T_FILE: [THESIS, Token("Thesis", "extra")]})
    assert not fires_instantly(n, inst, s0, s1, b)
    # consumption without production
    inst, s0, s1, b = pair(grade, bufs0={T_START: [CONTROL_TOKEN]})
    assert not fires_instantly(n, inst, s0, s1, b)


def test_instant_and_forkjoin_share_the_formula(grade):
    # a fork/join's reaction is the one-step action's: `allows_step` on F1
    # and J1 is a stutter or `fires_instantly`, on a mixed bag of pairs
    samples = [
        pair(grade, bufs0={T_FILE: [THESIS]}, bufs1={T_FORK1: [THESIS], T_FORK2: [THESIS]}),
        pair(grade, bufs0={T_START: [CONTROL_TOKEN]}, bufs1={T_FILE: [THESIS]}),
        pair(grade, bufs0={T_START: [CONTROL_TOKEN]}, bufs1={}),
        pair(grade, bufs0={}, bufs1={}),
    ]
    fired = []
    for node in ("F1", "J1"):
        for inst, s0, s1, b in samples:
            n = grade.node(node)
            fired.append(fires_instantly(n, inst, s0, s1, b))
            assert allows_step(n, inst, s0, s1, b) == (stutters(n, inst, s0, s1, b) or fired[-1])
    assert any(fired)


# ---------------------------------------------------------------------------
# Fork/join
# ---------------------------------------------------------------------------

def test_forkjoin_positive(grade):
    # fork duplicates: one in, two out
    inst, s0, s1, b = pair(grade, bufs0={T_FILE: [THESIS]},
                           bufs1={T_FORK1: [THESIS], T_FORK2: [THESIS]})
    assert fires_instantly(grade.node("F1"), inst, s0, s1, b)
    # join: both reviews in, both outputs out
    inst, s0, s1, b = pair(grade, bufs0={T_REV1: [REVIEW1], T_REV2: [REVIEW2]},
                           bufs1={T_JOIN1: [REVIEW1], T_JOIN2: [REVIEW2]})
    assert fires_instantly(grade.node("J1"), inst, s0, s1, b)
    # unrelated tokens parked elsewhere do not disturb the join
    inst, s0, s1, b = pair(
        grade,
        bufs0={T_REV1: [REVIEW1], T_REV2: [REVIEW2], T_PASS: [CONTROL_TOKEN]},
        bufs1={T_JOIN1: [REVIEW1], T_JOIN2: [REVIEW2], T_PASS: [CONTROL_TOKEN]})
    assert fires_instantly(grade.node("J1"), inst, s0, s1, b)


def test_forkjoin_negative(grade):
    # one input missing: consuming just the present one is not a join step
    inst, s0, s1, b = pair(grade, bufs0={T_REV1: [REVIEW1]},
                           bufs1={T_JOIN1: [REVIEW1], T_JOIN2: [REVIEW2]})
    assert not fires_instantly(grade.node("J1"), inst, s0, s1, b)
    # fork produces on only one branch
    inst, s0, s1, b = pair(grade, bufs0={T_FILE: [THESIS]}, bufs1={T_FORK1: [THESIS]})
    assert not fires_instantly(grade.node("F1"), inst, s0, s1, b)
    # production without consumption
    inst, s0, s1, b = pair(grade, bufs1={T_FORK1: [THESIS], T_FORK2: [THESIS]})
    assert not fires_instantly(grade.node("F1"), inst, s0, s1, b)


# ---------------------------------------------------------------------------
# Decision/merge
# ---------------------------------------------------------------------------

def test_decision_positive(grade, fac):
    inst, s0, s1, b = pair(grade, bufs0={T_EVAL: [CONTROL_TOKEN]},
                           bufs1={T_PASS: [CONTROL_TOKEN]})
    assert fires_decision(grade.node("D1"), inst, s0, s1, b)
    inst, s0, s1, b = pair(grade, bufs0={T_EVAL: [CONTROL_TOKEN]},
                           bufs1={T_FAIL: [CONTROL_TOKEN]})
    assert fires_decision(grade.node("D1"), inst, s0, s1, b)
    # merge side: either input alone feeds the node
    inst, s0, s1, b = pair(fac, bufs0={"SetRes.p->Loop.a": [CONTROL_TOKEN]},
                           bufs1={"Loop.body->MulRes.go": [CONTROL_TOKEN]})
    assert fires_decision(fac.node("Loop"), inst, s0, s1, b)
    inst, s0, s1, b = pair(fac, bufs0={"DecN.r->Loop.b": [CONTROL_TOKEN]},
                           bufs1={"Loop.exit->done.end": [CONTROL_TOKEN]})
    assert fires_decision(fac.node("Loop"), inst, s0, s1, b)


def test_decision_negative(grade, fac):
    # production on both branches
    inst, s0, s1, b = pair(grade, bufs0={T_EVAL: [CONTROL_TOKEN]},
                           bufs1={T_PASS: [CONTROL_TOKEN], T_FAIL: [CONTROL_TOKEN]})
    assert not fires_decision(grade.node("D1"), inst, s0, s1, b)
    # consumption without production
    inst, s0, s1, b = pair(grade, bufs0={T_EVAL: [CONTROL_TOKEN]})
    assert not fires_decision(grade.node("D1"), inst, s0, s1, b)
    # both merge inputs consumed at once
    inst, s0, s1, b = pair(fac, bufs0={"SetRes.p->Loop.a": [CONTROL_TOKEN],
                                       "DecN.r->Loop.b": [CONTROL_TOKEN]},
                           bufs1={"Loop.body->MulRes.go": [CONTROL_TOKEN]})
    assert not fires_decision(fac.node("Loop"), inst, s0, s1, b)


def test_decision_guard_evaluated_in_post_state(grade):
    inst, s0, s1, b = pair(grade, bufs0={T_EVAL: [CONTROL_TOKEN]},
                           bufs1={T_FAIL: [CONTROL_TOKEN]})
    # a binding that only believes the guard named "passed"
    picky = replace(b, eval_guard=lambda g, _inst, s: g in ("true", "passed"))
    assert not fires_decision(grade.node("D1"), inst, s0, s1, picky)
    inst, s0, s1, b = pair(grade, bufs0={T_EVAL: [CONTROL_TOKEN]},
                           bufs1={T_PASS: [CONTROL_TOKEN]})
    picky = replace(b, eval_guard=lambda g, _inst, s: g in ("true", "passed"))
    assert fires_decision(grade.node("D1"), inst, s0, s1, picky)
    # the evaluation state is the post-state: make eval depend on it
    state_sensitive = replace(
        b, eval_guard=lambda g, _inst, s: b.executing(grade.node("CreateCert"), _inst, s))
    inst, s0, s1, _ = pair(grade, bufs0={T_EVAL: [CONTROL_TOKEN]},
                           bufs1={T_PASS: [CONTROL_TOKEN]}, flags1={"CreateCert": True})
    assert fires_decision(grade.node("D1"), inst, s0, s1, state_sensitive)
    inst, s0, s1, _ = pair(grade, bufs0={T_EVAL: [CONTROL_TOKEN]},
                           bufs1={T_PASS: [CONTROL_TOKEN]}, flags0={"CreateCert": True})
    assert not fires_decision(grade.node("D1"), inst, s0, s1, state_sensitive)


# ---------------------------------------------------------------------------
# The full step predicate
# ---------------------------------------------------------------------------

def test_step_stutter_always_allowed(grade):
    bufs = {T_EVAL: [CONTROL_TOKEN]}
    inst, s0, s1, b = pair(grade, bufs0=bufs, bufs1=bufs)
    for n in grade.nodes:
        assert allows_step(n, inst, s0, s1, b)


def test_step_action_instant_allowed(grade):
    inst, s0, s1, b = pair(grade, bufs0={T_START: [CONTROL_TOKEN]}, bufs1={T_FILE: [THESIS]})
    assert allows_step(grade.node("FileThesis"), inst, s0, s1, b)


def test_step_initial_final_only_stutter(grade):
    # an initial node spontaneously producing mid-run is not a step
    inst, s0, s1, b = pair(grade, bufs1={T_START: [CONTROL_TOKEN]})
    assert not allows_step(grade.node("start"), inst, s0, s1, b)
    # a final node consuming its token is not a step
    inst, s0, s1, b = pair(grade, bufs0={T_CERT: [CONTROL_TOKEN]})
    assert not allows_step(grade.node("finish"), inst, s0, s1, b)


# ---------------------------------------------------------------------------
# Conformance
# ---------------------------------------------------------------------------

def test_conforms_generated_run(grade):
    run = runs(grade)[0]
    inst, binding, trace = as_binding(grade, run.configs)
    assert conforms(trace, inst, binding).kind is VerdictKind.SATISFIED


def test_conforms_vanishing_token_is_violation(grade):
    run = runs(grade)[0].configs
    # drop the state between two causally ordered steps (file then fork):
    # the merged pair consumes the filed thesis without it ever appearing
    mutated = run[:1] + run[2:]
    inst, binding, trace = as_binding(grade, mutated)
    verdict = conforms(trace, inst, binding)
    assert verdict.kind is VerdictKind.VIOLATED
    assert verdict.node and verdict.predicate


def test_conforms_final_escape(grade):
    run = runs(grade)[0].configs
    empty = run[-1].__class__.make(grade, {}, {})
    inst, binding, trace = as_binding(grade, list(run) + [empty], truncated=False)
    verdict = conforms(trace, inst, binding)
    assert verdict.kind is VerdictKind.VIOLATED


def test_conforms_no_initial(grade):
    run = runs(grade)[0].configs
    inst, binding, trace = as_binding(grade, run[1:], truncated=False)
    assert conforms(trace, inst, binding).kind is VerdictKind.NO_INITIAL_FOUND


def test_conforms_prefix_is_satisfied_so_far(grade):
    run = runs(grade)[0].configs
    inst, binding, trace = as_binding(grade, run[:1])
    assert conforms(trace, inst, binding).kind is VerdictKind.SATISFIED_SO_FAR


def test_conforms_violation_is_monotone(grade):
    run = runs(grade)[0].configs
    mutated = list(run[:1]) + list(run[2:])
    inst, binding, trace = as_binding(grade, mutated, truncated=False)
    first = conforms(trace, inst, binding)
    assert first.kind is VerdictKind.VIOLATED
    extended = Trace(trace.states + (trace.states[-1],) * 3, truncated=False)
    again = conforms(extended, inst, binding)
    assert again.kind is VerdictKind.VIOLATED
    assert again.index == first.index


# ---------------------------------------------------------------------------
# Buffer law
# ---------------------------------------------------------------------------

def test_buffer_law_forced_example(grade):
    a, bb, c = Token("Thesis", "a"), Token("Thesis", "b"), Token("Thesis", "c")
    t = tr(grade, T_FILE)
    inst, s0, s1, b = pair(grade, bufs0={T_FILE: [a, bb]}, bufs1={T_FILE: [bb, c]})
    # the head leaves and the tail joins; b stays put
    assert b.cons(t, inst, s0, s1) == (a,)
    assert b.prod(t, inst, s0, s1) == (c,)


def test_buffer_law_identity(grade):
    t = tr(grade, T_FILE)
    inst, s0, s1, b = pair(grade, bufs0={T_FILE: [THESIS]}, bufs1={T_FILE: [THESIS]})
    assert b.cons(t, inst, s0, s1) == ()
    assert b.prod(t, inst, s0, s1) == ()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=5), st.data())
def test_fifo_delta_recovers_one_sided_changes(values, data):
    buf = tuple(Token("T", f"v{v}") for v in values)
    k = data.draw(st.integers(0, len(buf)))
    consumed, produced = fifo_delta(buf, buf[k:])
    assert consumed == buf[:k] and produced == ()
    extra = tuple(Token("T", f"p{v}") for v in data.draw(st.lists(st.integers(0, 3), max_size=3)))
    consumed, produced = fifo_delta(buf, buf + extra)
    assert consumed == () and produced == extra


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=4),
       st.lists(st.integers(0, 2), max_size=4))
def test_fifo_delta_always_law_consistent(before, after):
    b0 = tuple(Token("T", f"v{v}") for v in before)
    b1 = tuple(Token("T", f"v{v}") for v in after)
    consumed, produced = fifo_delta(b0, b1)
    assert b0[:len(consumed)] == consumed
    assert b1 == b0[len(consumed):] + produced
    assert len(b1) == len(b0) - len(consumed) + len(produced)
