from __future__ import annotations

import math
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adsem.diagram import NodeKind, parse
from adsem.semantics import CONTROL_TOKEN, VerdictKind, conforms
from adsem.sysmodel import Frame, SystemState, Trace, top_frame
from adsem.tokengame import initial_config, successors
from adsem.variant1 import (
    ActionLanguageError,
    Arith,
    BoolLit,
    Compare,
    IntLit,
    NameRef,
    SetAttr,
    SetLocal,
    Skip,
    VariantError,
    atomic_binding,
    check_effect_constraint,
    eval_expr,
    eval_guard_expr,
    flow_walk,
    method_instance,
    parse_guard,
    parse_statement,
    pc_buffer_state,
    run_method,
    statement_holds,
    terminal_store,
    token_domain_v1,
    trace_firings,
)
from adsem.diagram import data_type, CONTROL, TOP


# ---------------------------------------------------------------------------
# Action language
# ---------------------------------------------------------------------------

def test_parse_statement_forms():
    assert parse_statement("res := 1") == SetAttr("res", IntLit(1))
    assert parse_statement("local i := n - 1") == SetLocal("i", Arith("-", NameRef("n"), IntLit(1)))
    assert parse_statement("") == Skip()
    assert parse_statement("res := res * n") == SetAttr("res", Arith("*", NameRef("res"), NameRef("n")))
    assert parse_statement("local := 2") == SetAttr("local", IntLit(2))


def test_parse_statement_errors():
    with pytest.raises(ActionLanguageError):
        parse_statement("res :=")
    with pytest.raises(ActionLanguageError):
        parse_statement("res := 1 extra")
    with pytest.raises(ActionLanguageError):
        parse_statement("1 := 2")


def test_parse_guard_forms():
    assert parse_guard("n > 1") == Compare(">", NameRef("n"), IntLit(1))
    assert parse_guard("n <= 1") == Compare("<=", NameRef("n"), IntLit(1))
    assert parse_guard("true").value is True
    assert parse_guard("x == y") == Compare("=", NameRef("x"), NameRef("y"))
    with pytest.raises(ActionLanguageError):
        parse_guard("n + 1")


def test_eval_expr_and_guards():
    attrs = {"res": 6, "n": 3}
    assert eval_expr(parse_statement("res := res * n").expr, attrs, {}) == 18
    assert eval_expr(Arith("+", IntLit(2), Arith("*", IntLit(3), IntLit(4))), {}, {}) == 14
    # locals shadow attributes
    assert eval_expr(NameRef("n"), attrs, {"n": 9}) == 9
    assert eval_guard_expr(parse_guard("n > 1"), attrs, {})
    assert not eval_guard_expr(parse_guard("n <= 1"), attrs, {})
    with pytest.raises(ActionLanguageError):
        eval_expr(NameRef("ghost"), attrs, {})


def _reference(e, attrs: dict, locals_: dict):
    """The action language's meaning, as a plain recursive evaluator: a name reads
    the local before the attribute, as an int, and the left operand runs first."""
    if isinstance(e, (IntLit, BoolLit)):
        return e.value
    if isinstance(e, NameRef):
        if e.name in locals_:
            return int(locals_[e.name])
        if e.name in attrs:
            return int(attrs[e.name])
        raise ActionLanguageError(f"unknown attribute or local {e.name!r}")
    left, right = _reference(e.left, attrs, locals_), _reference(e.right, attrs, locals_)
    return {"+": lambda: left + right, "-": lambda: left - right, "*": lambda: left * right,
            "<": lambda: left < right, "<=": lambda: left <= right, "=": lambda: left == right,
            "!=": lambda: left != right, ">=": lambda: left >= right,
            ">": lambda: left > right}[e.op]()


def _outcome(evaluate, *args) -> tuple:
    """The value with its type, or the exception's type and message."""
    try:
        value = evaluate(*args)
    except Exception as e:
        return type(e), str(e)
    return type(value), value


_NAMES = ("a", "b", "n")
_values = st.one_of(st.integers(-30, 30), st.booleans(), st.sampled_from(["7", "x", None]))
_stores = st.dictionaries(st.sampled_from(_NAMES), _values, max_size=3)
_exprs = st.recursive(
    st.one_of(st.builds(IntLit, st.integers(0, 99)),
              st.builds(NameRef, st.sampled_from(_NAMES + ("ghost",)))),
    lambda sub: st.builds(Arith, st.sampled_from("+-*"), sub, sub), max_leaves=8)
_guards = st.one_of(st.builds(BoolLit, st.booleans()),
                    st.builds(Compare, st.sampled_from(["<", "<=", "=", "!=", ">=", ">"]),
                              _exprs, _exprs))


@settings(max_examples=300, deadline=None)
@given(_exprs, _guards, _stores, _stores)
def test_compiled_evaluation_equals_a_recursive_evaluator(expr, guard, attrs, locals_):
    """Values, and for an unknown name or a value that is not an integer the
    exception's type and message, which also shows the operands' order."""
    assert _outcome(eval_expr, expr, attrs, locals_) == _outcome(_reference, expr, attrs, locals_)
    assert (_outcome(eval_guard_expr, guard, attrs, locals_)
            == _outcome(_reference, guard, attrs, locals_))


# ---------------------------------------------------------------------------
# Statement semantics over state pairs
# ---------------------------------------------------------------------------

def v1_state(pc: str, attrs: dict, locals_: dict | None = None) -> SystemState:
    frame = Frame.make("obj:callee", "m:fac", locals_ or {}, pc, "obj:caller")
    return SystemState(data_store={"obj:callee": dict(attrs)},
                       control_store={"obj:callee": {"th0": (frame,)}})


def test_statement_holds_set_attr():
    s0 = v1_state("p1", {"res": 6}, {"i": 4})
    s1 = v1_state("p2", {"res": 24}, {"i": 4})
    assert statement_holds(parse_statement("res := res * i"), "obj:callee", "th0", s0, s1)
    # wrong value
    s1_bad = v1_state("p2", {"res": 25}, {"i": 4})
    assert not statement_holds(parse_statement("res := res * i"), "obj:callee", "th0", s0, s1_bad)


def test_statement_holds_skip_only_pc_moves():
    s0 = v1_state("p1", {"x": 1})
    s1 = v1_state("p2", {"x": 1})
    assert statement_holds(Skip(), "obj:callee", "th0", s0, s1)
    # an unrelated attribute changed alongside
    s1_bad = v1_state("p2", {"x": 2})
    assert not statement_holds(Skip(), "obj:callee", "th0", s0, s1_bad)
    # the pc must actually move
    assert not statement_holds(Skip(), "obj:callee", "th0", s0, s0)


def test_statement_holds_set_local():
    s0 = v1_state("p1", {"x": 1}, {"i": 1})
    s1 = v1_state("p2", {"x": 1}, {"i": 2})
    assert statement_holds(parse_statement("local i := i + 1"), "obj:callee", "th0", s0, s1)
    # attribute must not move on a local write
    s1_bad = v1_state("p2", {"x": 9}, {"i": 2})
    assert not statement_holds(parse_statement("local i := i + 1"), "obj:callee", "th0", s0, s1_bad)


def test_statement_holds_missing_frame():
    s0 = SystemState(data_store={"obj:callee": {}})
    with pytest.raises(VariantError):
        statement_holds(Skip(), "obj:callee", "th0", s0, s0)


# ---------------------------------------------------------------------------
# Buffers and the token domain
# ---------------------------------------------------------------------------

def test_pc_buffer_state(fac):
    inst = method_instance(fac)
    entry = v1_state("pc:SetRes", {"n": 1})
    nonempty = [t.key for t in fac.transitions if pc_buffer_state(t, inst, entry)]
    assert nonempty == ["start.s0->SetRes.go"]
    at_decision_target = v1_state("pc:MulRes", {"n": 2})
    nonempty = [t.key for t in fac.transitions if pc_buffer_state(t, inst, at_decision_target)]
    assert nonempty == ["Loop.body->MulRes.go"]
    popped = SystemState(data_store={"obj:callee": {}},
                         control_store={"obj:callee": {"th0": ()}})
    assert all(pc_buffer_state(t, inst, popped) == () for t in fac.transitions)


def test_token_domain_v1():
    assert token_domain_v1(CONTROL) == CONTROL
    assert CONTROL_TOKEN in token_domain_v1(TOP)
    with pytest.raises(VariantError):
        token_domain_v1(data_type("Thesis"))


# ---------------------------------------------------------------------------
# Running the factorial method
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(0, 11))
def test_fac_computes_factorial(fac, n):
    inst = method_instance(fac)
    trace = run_method(fac, inst, {"n": n})
    assert not trace.truncated
    assert terminal_store(inst, trace)["res"] == math.factorial(n)


def test_fac_single_token_invariant(fac):
    inst = method_instance(fac)
    trace = run_method(fac, inst, {"n": 6})
    for i in range(len(trace)):
        total = sum(len(pc_buffer_state(t, inst, trace[i])) for t in fac.transitions)
        assert total <= 1


def test_fac_pc_sanity(fac):
    inst = method_instance(fac)
    trace = run_method(fac, inst, {"n": 4})
    pcs = set(inst.pc_map.values())
    for i in range(len(trace)):
        frame = top_frame(trace[i], inst.callee, inst.thread)
        assert frame is not None and frame.pc in pcs


def test_run_method_deterministic(fac):
    inst = method_instance(fac)
    assert run_method(fac, inst, {"n": 5}) == run_method(fac, inst, {"n": 5})


def test_run_method_traces_satisfied(fac):
    inst = method_instance(fac)
    binding = atomic_binding(inst)
    for n in range(0, 6):
        trace = run_method(fac, inst, {"n": n})
        assert conforms(trace, inst, binding).kind is VerdictKind.SATISFIED
        assert check_effect_constraint(fac, inst, trace)


def test_binding_invariants_on_states(fac):
    from adsem.semantics import buffer_types_ok, stutters

    inst = method_instance(fac)
    binding = atomic_binding(inst)
    trace = run_method(fac, inst, {"n": 3})
    for i in range(len(trace)):
        s = trace[i]
        for t in fac.transitions:
            assert buffer_types_ok(t, inst, s, binding)
        for n in fac.nodes:
            assert stutters(n, inst, s, s, binding)


def test_run_method_stuck_decision():
    ad = parse("""
        activity Stuck {
            initial i out s;
            action A in x out y effect "n := 5";
            decisionmerge D in v, w out l guard "n < 0", r guard "n = 0";
            action B in x out y;
            final f in z;
            i.s -> A.x; A.y -> D.v; D.l -> B.x; B.y -> D.w; D.r -> f.z;
        }
    """)
    inst = method_instance(ad)
    with pytest.raises(VariantError, match="stuck-decision"):
        run_method(ad, inst, {"n": 0})


def test_run_method_truncates_endless_loop():
    ad = parse("""
        activity Forever {
            initial i out s;
            action A in x out y effect "n := n + 1";
            decisionmerge D in v, w out back guard "n > 0", quit guard "n < 0";
            action B in x out y;
            final f in z;
            i.s -> A.x; A.y -> D.v; D.back -> B.x; B.y -> D.w; D.quit -> f.z;
        }
    """)
    inst = method_instance(ad)
    trace = run_method(ad, inst, {"n": 1}, max_steps=25)
    assert trace.truncated
    assert len(trace) == 26
    binding = atomic_binding(inst)
    assert conforms(trace, inst, binding).kind is VerdictKind.SATISFIED_SO_FAR


def test_run_method_rejects_bad_shapes():
    # A's input pin is fed by two transitions: a merge outside a
    # decision/merge node, which a single control token cannot serve
    bad = parse("""
        activity Bad {
            initial i out s;
            action A in x out y;
            action B in x out y;
            final f in z;
            i.s -> A.x; A.y -> f.z; B.y -> A.x;
        }
    """)
    inst = method_instance(bad)
    with pytest.raises(VariantError):
        run_method(bad, inst, {})


# ---------------------------------------------------------------------------
# The binding and the effect constraint under mutation
# ---------------------------------------------------------------------------

def _mutate_state(trace: Trace, index: int, new_state: SystemState) -> Trace:
    states = list(trace.states)
    states[index] = new_state
    return Trace(tuple(states), truncated=trace.truncated)


def test_corrupted_effect_caught_by_constraint_not_verdict(fac):
    inst = method_instance(fac)
    trace = run_method(fac, inst, {"n": 2})
    target = trace[2]
    corrupted = target.set_attr(inst.callee, "res", 99)
    mutated = _mutate_state(trace, 2, corrupted)
    binding = atomic_binding(inst)
    assert conforms(mutated, inst, binding).kind is VerdictKind.SATISFIED
    assert not check_effect_constraint(fac, inst, mutated)


def test_pc_jump_over_node_is_violation(fac):
    inst = method_instance(fac)
    trace = run_method(fac, inst, {"n": 2})
    frame = top_frame(trace[1], inst.callee, inst.thread)
    assert frame.pc == inst.pc_map["MulRes"]
    skipped = trace[1].with_stack(inst.callee, inst.thread,
                                  (frame._replace(pc=inst.pc_map["DecN"]),))
    mutated = _mutate_state(trace, 1, skipped)
    binding = atomic_binding(inst)
    verdict = conforms(mutated, inst, binding)
    assert verdict.kind is VerdictKind.VIOLATED
    assert verdict.node and verdict.predicate
    assert not check_effect_constraint(fac, inst, mutated)


def test_flow_walk_crosses_decisions(fac):
    landing, path = flow_walk(fac, fac.node("SetRes"), {"n": 5, "res": 1}, {})
    assert landing.name == "MulRes"
    assert [t.key for t in path] == ["SetRes.p->Loop.a", "Loop.body->MulRes.go"]
    landing, path = flow_walk(fac, fac.node("DecN"), {"n": 1, "res": 120}, {})
    assert landing.name == "done"


_FLOW = """
    activity Flow {{
        initial i{initial_in} out s;
        action A in x out y;
        decisionmerge D in v, w out more guard "n > 0", done guard "n = 0", bad guard "n < 0";
        action B in x out y effect "n := n - 2";
        final f in z;
        {nodes}
        i.s -> A.x; A.y -> D.v; D.more -> B.x; B.y -> D.w; D.done -> f.z;
        {edges}
    }}
"""


@pytest.mark.parametrize("initial_in,nodes,edges,reached,walker,message", [
    ("", "decisionmerge E in v, w out y; decisionmerge F in v out y;",
     "D.bad -> E.v; E.y -> F.v; F.y -> E.w;", 4, "B", "decision cycle"),
    (" in back", "", "D.bad -> i.back;", 4, "B", "flow reached initial node 'i'"),
    ("", "forkjoin J in x out y; final g in z;", "D.bad -> J.x; J.y -> g.z;", 4, "B",
     "flow reached forkjoin node 'J'"),
    ("", "action C in x out y, y2; final g in z; final h in z;",
     "D.bad -> C.x; C.y -> g.z; C.y2 -> h.z;", 5, "C", "'C' has 2 outgoing transitions"),
], ids=["decision-cycle", "reaches-initial", "reaches-fork", "several-outgoing"])
def test_flow_errors_are_raised_at_the_step_that_reaches_them(initial_in, nodes, edges,
                                                              reached, walker, message):
    """From n=5 the loop takes `bad` on its fourth step, and the step from the
    `walker` node that it reaches raises; from n=6 the loop never takes `bad`."""
    ad = parse(_FLOW.format(initial_in=initial_in, nodes=nodes, edges=edges))
    inst = method_instance(ad)
    whole = run_method(ad, inst, {"n": 6})
    assert not whole.truncated and terminal_store(inst, whole) == {"n": 0}
    cut = run_method(ad, inst, {"n": 5}, max_steps=reached - 1)
    assert cut.truncated and len(cut) == reached
    with pytest.raises(VariantError, match=message):
        run_method(ad, inst, {"n": 5}, max_steps=reached)
    with pytest.raises(VariantError, match=message):
        flow_walk(ad, ad.node(walker), {"n": -1}, {})


def test_a_guard_that_does_not_parse_raises_only_when_it_is_evaluated():
    ad = parse(_FLOW.format(initial_in="", nodes="final g in z;", edges="D.bad -> g.z;")
               .replace('guard "n < 0"', 'guard "n <"'))
    inst = method_instance(ad)
    assert terminal_store(inst, run_method(ad, inst, {"n": 6})) == {"n": 0}
    assert len(run_method(ad, inst, {"n": 5}, max_steps=3)) == 4
    with pytest.raises(ActionLanguageError, match="expected more input in 'n <'"):
        run_method(ad, inst, {"n": 5}, max_steps=4)


# ---------------------------------------------------------------------------
# Equivalence with the token game, its decisions judged in a store
# ---------------------------------------------------------------------------

def simulated_firing_runs(ad, store0: dict) -> list[list[str]]:
    """Token-game runs of a variant-1 diagram, keeping of a decision's
    branches those whose guard holds in a store updated by the fired
    actions' effects."""
    runs: list[list[str]] = []
    by_key = {t.key: t for t in ad.transitions}

    def holds(choices, store) -> bool:
        (choice,) = tuple(choices)
        if choice.kind != "decision":
            return True
        t = by_key[choice.out_edge]
        return eval_guard_expr(parse_guard(ad.guard(t.src, t.out_pin)), store, {})

    def explore(config, store, fired):
        succ = [(choices, c1) for choices, c1 in successors(ad, config) if holds(choices, store)]
        if not succ:
            runs.append(fired)
            return
        for choices, c1 in succ:
            (choice,) = tuple(choices)
            node = ad.node(choice.node)
            new_store = store
            if node.kind is NodeKind.ACTION and node.effect:
                stmt = parse_statement(node.effect)
                if isinstance(stmt, SetAttr):
                    new_store = dict(store)
                    new_store[stmt.name] = eval_expr(stmt.expr, store, {})
            explore(c1, new_store, fired + [choice.node])

    explore(initial_config(ad), dict(store0), [])
    return runs


@pytest.mark.parametrize("n", range(0, 6))
def test_method_runs_equal_token_game_runs(fac, n):
    inst = method_instance(fac)
    trace = run_method(fac, inst, {"n": n})
    method_firings = trace_firings(fac, inst, trace)
    game_runs = simulated_firing_runs(fac, {"n": n})
    assert game_runs == [method_firings]


def test_trace_length_matches_action_firing_count(fac):
    inst = method_instance(fac)
    trace = run_method(fac, inst, {"n": 3})
    (game_run,) = simulated_firing_runs(fac, {"n": 3})
    action_firings = [name for name in game_run
                      if fac.node(name).kind is NodeKind.ACTION]
    assert len(trace) == len(action_firings) + 1
