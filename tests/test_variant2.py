from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adsem.diagram import NodeKind, parse
from adsem.semantics import (
    VerdictKind,
    conforms,
    finishes_action,
    fires_instantly,
    is_final_state,
    starts_action,
    stutters,
)
from adsem.sysmodel import Frame, SystemState, Trace
from adsem.tokengame import initial_config
from adsem.variant2 import (
    ActionMethodsInstance,
    PinController,
    Scenario,
    SimulationError,
    check_role_constraint,
    deliver,
    evaluate_guard,
    mailbox_tokens,
    method_frame_present,
    methods_binding,
    set_mailbox,
    simulate,
    standard_instance,
)


# ---------------------------------------------------------------------------
# Pin controller
# ---------------------------------------------------------------------------

def test_controller_fires_on_last_delivery():
    c = PinController.for_pins(("r1", "r2"))
    c, fired = deliver(c, "r1", "a")
    assert not fired and c.is_set("r1") and dict(c.stash) == {"r1": "a"}
    c, fired = deliver(c, "r2", "b")
    assert fired


def test_controller_order_insensitive():
    c = PinController.for_pins(("r1", "r2"))
    c, fired = deliver(c, "r2", "b")
    assert not fired
    c, fired = deliver(c, "r1", "a")
    assert fired


def test_controller_double_delivery_errors():
    c = PinController.for_pins(("r1", "r2"))
    c, _ = deliver(c, "r1", "a")
    with pytest.raises(SimulationError):
        deliver(c, "r1", "again")


def test_controller_unknown_pin():
    c = PinController.for_pins(("r1",))
    with pytest.raises(SimulationError):
        deliver(c, "zz", 1)


@settings(max_examples=60, deadline=None)
@given(st.permutations(["a", "b", "c", "d"]))
def test_controller_fires_exactly_at_last_for_any_permutation(order):
    c = PinController.for_pins(("a", "b", "c", "d"))
    fire_points = []
    for i, pin in enumerate(order):
        c, fired = deliver(c, pin, i)
        fire_points.append(fired)
    assert fire_points == [False, False, False, True]


# ---------------------------------------------------------------------------
# Executing via stack frames
# ---------------------------------------------------------------------------

def test_method_frame_present(grade):
    inst = standard_instance(grade)
    n = grade.node("ReviewThesis1")
    oid, meth = inst.oid[n.name], inst.meth[n.name]
    th = inst.thread_of[n.name]
    frame = Frame.make(oid, meth, {}, inst.method_pc(n.name), inst.caller_of(n.name))
    s = SystemState().push(oid, th, frame)
    assert method_frame_present(n, inst, s)
    # a frame on a thread outside the instance does not count
    s_foreign = SystemState().push(oid, "th:outsider", frame)
    assert not method_frame_present(n, inst, s_foreign)
    # buried frames still count: membership, not top-of-stack
    other = Frame.make(oid, "m:other", {}, "pc", "caller")
    s_buried = s.push(oid, th, other)
    assert method_frame_present(n, inst, s_buried)


def test_method_frame_wrong_method_or_object(grade):
    inst = standard_instance(grade)
    n = grade.node("ReviewThesis1")
    th = inst.thread_of[n.name]
    wrong_meth = Frame.make(inst.oid[n.name], "m:Evaluate", {}, "pc", "x")
    assert not method_frame_present(n, inst, SystemState().push(inst.oid[n.name], th, wrong_meth))
    non_action = grade.node("F1")
    assert not method_frame_present(non_action, inst, SystemState())


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def test_simulate_passed_branch_runs_create_cert(grade):
    scenario = Scenario(seed=0, decisions={"D1": "passed"})
    inst = standard_instance(grade, scenario)
    trace = simulate(grade, inst, scenario)
    binding = methods_binding(inst)
    assert conforms(trace, inst, binding).kind is VerdictKind.SATISFIED
    cert = grade.node("CreateCert")
    assert any(method_frame_present(cert, inst, trace[i]) for i in range(len(trace)))
    assert not method_frame_present(cert, inst, trace[len(trace) - 1])
    detain = grade.node("DetainFailure")
    assert not any(method_frame_present(detain, inst, trace[i]) for i in range(len(trace)))


def test_simulate_seed_sweep_covers_branches_and_orders(grade):
    outcomes, first_review = set(), set()
    for seed in range(8):
        scenario = Scenario(seed=seed)
        inst = standard_instance(grade, scenario)
        trace = simulate(grade, inst, scenario)
        binding = methods_binding(inst)
        assert conforms(trace, inst, binding).kind is VerdictKind.SATISFIED
        for i in range(len(trace)):
            for attrs in trace[i].data_store.values():
                if attrs.get("result") in ("passed", "failed"):
                    outcomes.add(attrs["result"])
        for i in range(len(trace)):
            for name in ("ReviewThesis1", "ReviewThesis2"):
                if method_frame_present(grade.node(name), inst, trace[i]):
                    first_review.add(name)
                    break
            else:
                continue
            break
    assert outcomes == {"passed", "failed"}
    assert first_review == {"ReviewThesis1", "ReviewThesis2"}


def test_simulate_two_phase_alternation(grade):
    scenario = Scenario(seed=3)
    inst = standard_instance(grade, scenario)
    trace = simulate(grade, inst, scenario)
    binding = methods_binding(inst)
    for n in grade.nodes:
        if n.kind is not NodeKind.ACTION:
            continue
        phases = []
        for j in range(len(trace) - 1):
            s0, s1 = trace[j], trace[j + 1]
            if stutters(n, inst, s0, s1, binding):
                continue
            assert not fires_instantly(n, inst, s0, s1, binding)
            if starts_action(n, inst, s0, s1, binding):
                phases.append("start")
            elif finishes_action(n, inst, s0, s1, binding):
                phases.append("finish")
            else:
                pytest.fail(f"{n.name}: non-stutter step is neither start nor finish")
        assert phases in ([], ["start", "finish"])
        # executing strictly between start and finish
        if phases:
            js = [j for j in range(len(trace) - 1)
                  if starts_action(n, inst, trace[j], trace[j + 1], binding)]
            ks = [j for j in range(len(trace) - 1)
                  if finishes_action(n, inst, trace[j], trace[j + 1], binding)]
            assert ks[0] > js[0] + 1
            for j in range(js[0] + 1, ks[0] + 1):
                assert method_frame_present(n, inst, trace[j])


def test_simulate_buffer_law_everywhere(grade):
    """One event per step: each mailbox loses its head, gains a tail or stays."""
    scenario = Scenario(seed=5)
    inst = standard_instance(grade, scenario)
    trace = simulate(grade, inst, scenario)
    for j in range(len(trace) - 1):
        for t in grade.transitions:
            before, after = mailbox_tokens(trace[j], t), mailbox_tokens(trace[j + 1], t)
            assert after in (before, before[1:], before + after[-1:])


def test_binding_invariants_on_states(grade):
    from adsem.semantics import buffer_types_ok, stutters

    scenario = Scenario(seed=5)
    inst = standard_instance(grade, scenario)
    trace = simulate(grade, inst, scenario)
    binding = methods_binding(inst)
    for i in range(len(trace)):
        s = trace[i]
        for t in grade.transitions:
            assert buffer_types_ok(t, inst, s, binding)
        for n in grade.nodes:
            assert stutters(n, inst, s, s, binding)


def test_simulate_respects_durations(grade):
    scenario = Scenario(seed=0, decisions={"D1": "passed"},
                        durations={"Evaluate": 5})
    inst = standard_instance(grade, scenario)
    trace = simulate(grade, inst, scenario)
    binding = methods_binding(inst)
    executing = [method_frame_present(grade.node("Evaluate"), inst, trace[i])
                 for i in range(len(trace))]
    assert sum(executing) >= 5
    assert conforms(trace, inst, binding).kind is VerdictKind.SATISFIED


def test_simulate_command_caller_mode(grade):
    scenario = Scenario(seed=1, caller_mode="command")
    inst = standard_instance(grade, scenario)
    trace = simulate(grade, inst, scenario)
    callers = set()
    for i in range(len(trace)):
        for per_thread in trace[i].control_store.values():
            for stack in per_thread.values():
                callers.update(f.caller for f in stack)
    assert callers and all(c.startswith("cmd:") for c in callers)
    binding = methods_binding(inst)
    assert conforms(trace, inst, binding).kind is VerdictKind.SATISFIED


def test_simulate_max_steps_exceeded(grade):
    scenario = Scenario(seed=0)
    inst = standard_instance(grade, scenario)
    with pytest.raises(SimulationError):
        simulate(grade, inst, scenario, max_steps=3)


def test_fac_simulates_under_v2_too(fac):
    # variant 2 makes sense for any well-formed diagram, including fac
    scenario = Scenario(seed=2, decisions={"Loop": "n <= 1"})
    inst = standard_instance(fac, scenario)
    trace = simulate(fac, inst, scenario)
    binding = methods_binding(inst)
    assert conforms(trace, inst, binding).kind is VerdictKind.SATISFIED


_TWICE = parse("""
    activity Twice {
        initial i role R out s;
        forkjoin F role R in x out y1, y2;
        decisionmerge M role R in a, b out o;
        action A role R in x out y;
        final f role R in z;
        i.s -> F.x; F.y1 -> M.a; F.y2 -> M.b; M.o -> A.x; A.y -> f.z;
    }
""")


@pytest.mark.parametrize("seed", range(8))
def test_an_action_runs_again_for_a_token_that_arrived_while_it_ran(seed):
    """The merge passes both of the fork's tokens to A, so A's input holds a token
    while A runs: A must start again once it finishes, and the run must not end
    while A runs with the first result already at the final node."""
    scenario = Scenario(seed=seed, durations={"A": 3})
    inst = standard_instance(_TWICE, scenario)
    trace = simulate(_TWICE, inst, scenario)
    binding = methods_binding(inst)
    assert is_final_state(inst, trace[len(trace) - 1], binding)
    (into_final,) = [t for t in _TWICE.transitions if t.dst == "f"]
    assert len(mailbox_tokens(trace[len(trace) - 1], into_final)) == 2
    assert sum(not method_frame_present(_TWICE.node("A"), inst, trace[j])
               and method_frame_present(_TWICE.node("A"), inst, trace[j + 1])
               for j in range(len(trace) - 1)) == 2
    assert conforms(trace, inst, binding).kind is VerdictKind.SATISFIED


ROOT = Path(__file__).resolve().parent.parent
# every diagram of the corpus and the fixtures that run-v2 runs; split_join's
# join starves on whichever branch its decision takes
RUNNABLE = sorted(p.relative_to(ROOT).as_posix()
                  for p in [*ROOT.glob("corpus/*.ad"), *ROOT.glob("tests/fixtures/*.ad")]
                  if p.name != "split_join.ad")


@pytest.mark.parametrize("path", RUNNABLE)
def test_first_state_types_its_tokens_as_the_token_game(path):
    """The first v2 state holds, position by position, tokens of the types that
    `initial_config` starts with: both take them from `ActivityDiagram.carried`
    (`tests/fixtures/any_initial.ad` starts a `Thesis` token at an `any` pin)."""
    ad = parse((ROOT / path).read_text(encoding="utf-8"))
    first = simulate(ad, standard_instance(ad), Scenario())[0]
    assert ([[tok.type_name for tok in mailbox_tokens(first, t)] for t in ad.layout.transitions]
            == [[tok.type_name for tok in buf] for buf in initial_config(ad).buffers])


# ---------------------------------------------------------------------------
# Guard evaluation against recorded results
# ---------------------------------------------------------------------------

def test_evaluate_guard_reads_recorded_result(grade):
    inst = standard_instance(grade)
    s = SystemState()
    assert evaluate_guard("true", inst, s)
    assert not evaluate_guard("passed", inst, s)
    s = s.set_attr(inst.oid["Evaluate"], "result", "passed")
    assert evaluate_guard("passed", inst, s)
    assert not evaluate_guard("failed", inst, s)


# ---------------------------------------------------------------------------
# Sub-variant role equation
# ---------------------------------------------------------------------------

def test_role_constraint_holds_on_simulated_traces(grade):
    scenario = Scenario(seed=4)
    inst = standard_instance(grade, scenario)
    trace = simulate(grade, inst, scenario)
    assert check_role_constraint(inst, trace)
    # the GradeThesis-specific instance of the equation
    assert inst.oid["Evaluate"] == inst.rrep["Referee1"]


def test_role_constraint_rejects_wrong_class_frame(grade):
    scenario = Scenario(seed=4)
    inst = standard_instance(grade, scenario)
    trace = simulate(grade, inst, scenario)
    # re-home one Evaluate frame onto the Student object
    student = inst.rrep["Student"]
    mutated_states = []
    moved = False
    for i in range(len(trace)):
        s = trace[i]
        if not moved and method_frame_present(grade.node("Evaluate"), inst, s):
            th = inst.thread_of["Evaluate"]
            stack = s.stack(inst.oid["Evaluate"], th)
            s = s.with_stack(inst.oid["Evaluate"], th, ())
            s = s.with_stack(student, th, stack)
            moved = True
        mutated_states.append(s)
    assert moved
    mutated = Trace(tuple(mutated_states), truncated=trace.truncated)
    assert not check_role_constraint(inst, mutated)
    # the verdict mechanism is a separate concern and also notices
    binding = methods_binding(inst)
    assert conforms(mutated, inst, binding).kind is VerdictKind.VIOLATED


# ---------------------------------------------------------------------------
# Mutations against the inner semantics
# ---------------------------------------------------------------------------

def test_start_with_single_delivered_input_is_violation(grade):
    scenario = Scenario(seed=0)
    inst = standard_instance(grade, scenario)
    trace = simulate(grade, inst, scenario)
    binding = methods_binding(inst)
    evaluate = grade.node("Evaluate")
    join_edges = [t for t in grade.transitions if t.dst == "Evaluate"]
    start_at = None
    for j in range(len(trace) - 1):
        if starts_action(evaluate, inst, trace[j], trace[j + 1], binding):
            start_at = j
            break
    assert start_at is not None
    # put one consumed token back: the start step now only consumed one input
    token = mailbox_tokens(trace[start_at], join_edges[0])[0]
    patched = set_mailbox(trace[start_at + 1], join_edges[0], (token,))
    states = list(trace.states)
    states[start_at + 1] = patched
    mutated = Trace(tuple(states), truncated=trace.truncated)
    verdict = conforms(mutated, inst, binding)
    assert verdict.kind is VerdictKind.VIOLATED
    assert verdict.node and verdict.predicate


# ---------------------------------------------------------------------------
# Scenario and instance serialization
# ---------------------------------------------------------------------------

def test_scenario_json_round_trip(grade):
    sc = Scenario(seed=9, decisions={"D1": "failed"}, durations={"Evaluate": 4},
                  sub_variant=False, caller_mode="command")
    assert Scenario.from_json(grade, {"seed": 9, "decisions": {"D1": "failed"}, "durations": {"Evaluate": 4},
                                      "sub_variant": False, "caller_mode": "command"}) == sc


def test_instance_json_round_trip(grade):
    inst = standard_instance(grade, Scenario(caller_mode="command"))
    again = ActionMethodsInstance.from_json(grade, inst.to_json())
    assert again == inst
