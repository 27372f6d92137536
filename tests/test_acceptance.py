"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime (run with ``pytest -s tests/test_acceptance.py``).

Expected values marked as regression constants were computed once with
the enumeration oracle in this repository and are locked here.
"""

from __future__ import annotations

import json
import math
import random
import time

import pytest

from adsem.cli import main as cli_main
from adsem.diagram import NodeKind, ParseError, Severity, parse, to_text, validate
from adsem.semantics import (
    CONTROL_TOKEN,
    Token,
    VerdictKind,
    conforms,
    finishes_action,
    fires_decision,
    fires_instantly,
    is_final_state,
    is_initial_state,
    starts_action,
    stutters,
)
from adsem.sysmodel import Trace
from adsem.tokengame import (
    CONCURRENT,
    INSTANT,
    INTERLEAVING,
    TWO_PHASE,
    Configuration,
    analyze,
    as_binding,
    config_is_final,
    reachable,
    successors,
)
from adsem.variant1 import (
    atomic_binding,
    check_effect_constraint,
    method_instance,
    pc_buffer_state,
    run_method,
)
from adsem.variant2 import (
    PinController,
    Scenario,
    deliver,
    check_role_constraint,
    method_frame_present,
    methods_binding,
    simulate,
    standard_instance,
)

from ._brute import brute_successors
from .conftest import CORPUS, keyed, load, pair, runs

# Locked by the enumeration oracle: reachable configurations of
# GradeThesis under interleaving + instant.
GRADE_REACHABLE_CONFIGS = 12

RUN_BUDGETS = {"grade_thesis.ad": 40, "fac.ad": 160}


def _report(criterion: str, detail: str, started: float, limit: float | None):
    elapsed = time.perf_counter() - started
    if limit is not None:
        assert elapsed < limit, f"{criterion} took {elapsed:.2f}s, limit {limit}s"
    budget = f", limit {limit:.0f}s" if limit is not None else ""
    print(f"[{criterion}] PASS {detail} ({elapsed:.2f}s{budget})")


# ---------------------------------------------------------------------------
# Criterion 1: every step/configuration predicate on hand-built pairs
# ---------------------------------------------------------------------------

def test_c1_predicate_unit_suite(grade, fac, minimal):
    started = time.perf_counter()
    CT = CONTROL_TOKEN
    TH, R1, R2 = Token("Thesis", "t"), Token("Review", "a"), Token("Review", "b")
    k = {
        "start": "start.s0->FileThesis.go", "file": "FileThesis.t->F1.x",
        "f1": "F1.y1->ReviewThesis1.t", "f2": "F1.y2->ReviewThesis2.t",
        "r1": "ReviewThesis1.r->J1.a", "r2": "ReviewThesis2.r->J1.b",
        "j1": "J1.c->Evaluate.r1", "j2": "J1.d->Evaluate.r2",
        "ev": "Evaluate.res->D1.v", "p": "D1.p->CreateCert.go",
        "f": "D1.f->DetainFailure.go", "cc": "CreateCert.done->finish.end",
        "df": "DetainFailure.done->finish.end",
    }
    fk = {"in": "SetRes.p->Loop.a", "back": "DecN.r->Loop.b",
          "body": "Loop.body->MulRes.go", "exit": "Loop.exit->done.end"}
    mk = load("minimal.ad").transitions[0].key

    def states(ad, b0=None, b1=None, g0=None, g1=None):
        inst, s0, s1, binding = pair(ad, bufs0=b0, bufs1=b1, flags0=g0, flags1=g1)
        return ad, inst, s0, s1, binding

    def node_pred(fn, name):
        def check(ad, inst, s0, s1, binding):
            return fn(ad.node(name), inst, s0, s1, binding)
        return check

    def state_pred(fn):
        def check(ad, inst, s0, s1, binding):
            return fn(inst, s0, binding)
        return check

    cases = {
        "isInitial": [
            (state_pred(is_initial_state), states(grade, {k["start"]: [CT]}), True),
            (state_pred(is_initial_state), states(grade, {k["start"]: [CT, CT]}), True),
            (state_pred(is_initial_state), states(minimal, {mk: [CT]}), True),
            (state_pred(is_initial_state), states(grade, {k["file"]: [TH]}), False),
            (state_pred(is_initial_state),
             states(grade, {k["start"]: [CT]}, g0={"ReviewThesis1": True}), False),
            (state_pred(is_initial_state), states(grade), False),
        ],
        "isFinal": [
            (state_pred(is_final_state), states(grade, {k["cc"]: [CT]}), True),
            (state_pred(is_final_state), states(grade, {k["cc"]: [CT], k["df"]: [CT]}), True),
            (state_pred(is_final_state), states(minimal, {mk: [CT]}), True),
            (state_pred(is_final_state), states(grade, {k["start"]: [CT]}), False),
            (state_pred(is_final_state),
             states(grade, {k["cc"]: [CT]}, g0={"FileThesis": True}), False),
            (state_pred(is_final_state), states(grade, {k["cc"]: [CT], k["ev"]: [CT]}), False),
        ],
        "stutter": [
            (node_pred(stutters, "D1"),
             states(grade, {k["ev"]: [CT]}, {k["ev"]: [CT]}), True),
            (node_pred(stutters, "D1"),
             states(grade, {k["start"]: [CT]}, {k["file"]: [TH]}), True),
            (node_pred(stutters, "D1"),
             states(grade, {k["j1"]: [R1], k["j2"]: [R2]}, {k["ev"]: [CT]}), True),
            (node_pred(stutters, "ReviewThesis1"),
             states(grade, None, None, {"ReviewThesis1": False}, {"ReviewThesis1": True}),
             False),
            (node_pred(stutters, "FileThesis"),
             states(grade, {k["start"]: [CT]}, {k["file"]: [TH]}), False),
            (node_pred(stutters, "D1"),
             states(grade, {k["ev"]: [CT]}, {k["ev"]: [CT], k["p"]: [CT]}), False),
        ],
        "startAct": [
            (node_pred(starts_action, "ReviewThesis1"),
             states(grade, {k["f1"]: [TH]}, None, None, {"ReviewThesis1": True}), True),
            (node_pred(starts_action, "Evaluate"),
             states(grade, {k["j1"]: [R1], k["j2"]: [R2]}, None, None, {"Evaluate": True}),
             True),
            (node_pred(starts_action, "ReviewThesis2"),
             states(grade, {k["f2"]: [TH]}, None, {"ReviewThesis1": True},
                    {"ReviewThesis1": True, "ReviewThesis2": True}), True),
            (node_pred(starts_action, "ReviewThesis1"),
             states(grade, {k["f1"]: [TH]}, {k["f1"]: [TH]}, None,
                    {"ReviewThesis1": True}), False),
            (node_pred(starts_action, "ReviewThesis1"),
             states(grade, {k["f1"]: [TH]}, {k["r1"]: [R1]}, None,
                    {"ReviewThesis1": True}), False),
            (node_pred(starts_action, "ReviewThesis1"),
             states(grade, {k["f1"]: [TH]}, None, {"ReviewThesis1": True},
                    {"ReviewThesis1": True}), False),
        ],
        "finishAct": [
            (node_pred(finishes_action, "ReviewThesis1"),
             states(grade, None, {k["r1"]: [R1]}, {"ReviewThesis1": True}, None), True),
            (node_pred(finishes_action, "Evaluate"),
             states(grade, None, {k["ev"]: [CT]}, {"Evaluate": True}, None), True),
            (node_pred(finishes_action, "FileThesis"),
             states(grade, None, {k["file"]: [TH]}, {"FileThesis": True}, None), True),
            (node_pred(finishes_action, "ReviewThesis1"),
             states(grade, None, {k["r1"]: [R1]}, {"ReviewThesis1": True},
                    {"ReviewThesis1": True}), False),
            (node_pred(finishes_action, "ReviewThesis1"),
             states(grade, None, None, {"ReviewThesis1": True}, None), False),
            (node_pred(finishes_action, "ReviewThesis1"),
             states(grade, {k["f1"]: [TH]}, {k["r1"]: [R1]}, {"ReviewThesis1": True},
                    None), False),
        ],
        "stepInst": [
            (node_pred(fires_instantly, "FileThesis"),
             states(grade, {k["start"]: [CT]}, {k["file"]: [TH]}), True),
            (node_pred(fires_instantly, "Evaluate"),
             states(grade, {k["j1"]: [R1], k["j2"]: [R2]}, {k["ev"]: [CT]}), True),
            (node_pred(fires_instantly, "ReviewThesis1"),
             states(grade, {k["f1"]: [TH]}, {k["r1"]: [R1]}), True),
            (node_pred(fires_instantly, "FileThesis"),
             states(grade, None, {k["file"]: [TH]}), False),
            (node_pred(fires_instantly, "FileThesis"),
             states(grade, {k["start"]: [CT]}, {k["file"]: [TH, Token("Thesis", "x")]}),
             False),
            (node_pred(fires_instantly, "FileThesis"),
             states(grade, {k["start"]: [CT]}), False),
        ],
        "stepForkJoin": [
            (node_pred(fires_instantly, "F1"),
             states(grade, {k["file"]: [TH]}, {k["f1"]: [TH], k["f2"]: [TH]}), True),
            (node_pred(fires_instantly, "J1"),
             states(grade, {k["r1"]: [R1], k["r2"]: [R2]},
                    {k["j1"]: [R1], k["j2"]: [R2]}), True),
            (node_pred(fires_instantly, "J1"),
             states(grade, {k["r1"]: [R1], k["r2"]: [R2], k["p"]: [CT]},
                    {k["j1"]: [R1], k["j2"]: [R2], k["p"]: [CT]}), True),
            (node_pred(fires_instantly, "J1"),
             states(grade, {k["r1"]: [R1]}, {k["j1"]: [R1], k["j2"]: [R2]}), False),
            (node_pred(fires_instantly, "F1"),
             states(grade, {k["file"]: [TH]}, {k["f1"]: [TH]}), False),
            (node_pred(fires_instantly, "F1"),
             states(grade, None, {k["f1"]: [TH], k["f2"]: [TH]}), False),
        ],
        "stepDecisionMerge": [
            (node_pred(fires_decision, "D1"),
             states(grade, {k["ev"]: [CT]}, {k["p"]: [CT]}), True),
            (node_pred(fires_decision, "D1"),
             states(grade, {k["ev"]: [CT]}, {k["f"]: [CT]}), True),
            (node_pred(fires_decision, "Loop"),
             states(fac, {fk["in"]: [CT]}, {fk["body"]: [CT]}), True),
            (node_pred(fires_decision, "D1"),
             states(grade, {k["ev"]: [CT]}, {k["p"]: [CT], k["f"]: [CT]}), False),
            (node_pred(fires_decision, "D1"),
             states(grade, {k["ev"]: [CT]}), False),
            (node_pred(fires_decision, "Loop"),
             states(fac, {fk["in"]: [CT], fk["back"]: [CT]}, {fk["body"]: [CT]}), False),
        ],
    }

    checked = 0
    for predicate, rows in cases.items():
        positives = sum(1 for _, _, expected in rows if expected)
        negatives = len(rows) - positives
        assert positives >= 3 and negatives >= 3, predicate
        for fn, (ad, inst, s0, s1, binding), expected in rows:
            assert fn(ad, inst, s0, s1, binding) is expected, predicate
            checked += 1
    _report("C1", f"{checked} hand-built cases across 8 predicates", started, 1.0)


# ---------------------------------------------------------------------------
# Criterion 2: generator / checker cross-validation
# ---------------------------------------------------------------------------

def _run_corpus():
    corpus = []
    for name, max_len in RUN_BUDGETS.items():
        ad = load(name)
        for mode in (INTERLEAVING, CONCURRENT):
            for action_mode in (INSTANT, TWO_PHASE):
                for run in runs(ad, mode, action_mode, max_runs=400, max_len=max_len):
                    if not run.cut:
                        corpus.append((ad, mode, action_mode, run))
    return corpus


def test_c2_generator_checker_cross_validation():
    started = time.perf_counter()
    corpus = _run_corpus()
    assert len(corpus) >= 200
    branches = set()
    for ad, mode, action_mode, run in corpus:
        inst, binding, trace = as_binding(ad, run.configs, mode=mode,
                                          action_mode=action_mode)
        verdict = conforms(trace, inst, binding)
        assert verdict.kind is VerdictKind.SATISFIED, (ad.name, mode, action_mode, verdict)
        for choices in run.choices:
            for ch in choices:
                if ch.kind == "decision":
                    branches.add(ch.out_edge)
    assert {"D1.p->CreateCert.go", "D1.f->DetainFailure.go",
            "Loop.body->MulRes.go", "Loop.exit->done.end"} <= branches
    _report("C2", f"{len(corpus)} runs, 100% satisfied, all guard branches", started, 10.0)


# ---------------------------------------------------------------------------
# Criterion 3: mutation rejection
# ---------------------------------------------------------------------------

def _mutate(ad, run, kind, rng):
    """Produce a mutated configuration sequence plus its truncation flag."""
    configs = [Configuration.make(ad, *keyed(ad, c)) for c in run.configs]

    def buffers(i):
        return keyed(ad, configs[i])[0]

    def flags(i):
        return keyed(ad, configs[i])[1]

    if kind == "token-deletion":
        candidates = [(i, key) for i in range(1, len(configs))
                      for key, buf in buffers(i).items() if buf]
        i, key = candidates[rng.randrange(len(candidates))]
        b = buffers(i)
        b[key] = b[key][1:]
        configs[i] = Configuration.make(ad, b, flags(i))
    elif kind == "token-duplication":
        candidates = [(i, key) for i in range(1, len(configs))
                      for key, buf in buffers(i).items() if buf]
        i, key = candidates[rng.randrange(len(candidates))]
        b = buffers(i)
        b[key] = b[key] + (b[key][-1],)
        configs[i] = Configuration.make(ad, b, flags(i))
    elif kind == "flag-flip":
        actions = [n.name for n in ad.nodes if n.kind is NodeKind.ACTION]
        i = rng.randrange(1, len(configs))
        name = actions[rng.randrange(len(actions))]
        f = flags(i)
        f[name] = not f.get(name, False)
        configs[i] = Configuration.make(ad, buffers(i), f)
    elif kind == "final-escape":
        configs.append(Configuration.make(ad, {}, {}))
    elif kind == "double-branch":
        target = None
        for j, choices in enumerate(run.choices):
            for ch in choices:
                if ch.kind == "decision":
                    target = (j + 1, ch)
        assert target is not None
        i, ch = target
        node = ad.node(ch.node)
        other = [t.key for t in ad.transitions
                 if t.src == node.name and t.key != ch.out_edge]
        b = buffers(i)
        b[other[0]] = b[other[0]] + (CONTROL_TOKEN,)
        configs[i] = Configuration.make(ad, b, flags(i))
    else:
        raise AssertionError(kind)
    return configs


def test_c3_mutation_rejection():
    started = time.perf_counter()
    rng = random.Random(20110912)
    kinds = ["token-deletion", "token-duplication", "flag-flip",
             "final-escape", "double-branch"]
    base = []
    for name in ("grade_thesis.ad", "fac.ad"):
        ad = load(name)
        for action_mode in (INSTANT, TWO_PHASE):
            for run in runs(ad, action_mode=action_mode, max_runs=5, max_len=30):
                if not run.cut:
                    base.append((ad, action_mode, run))
    rejected = 0
    for i in range(50):
        ad, action_mode, run = base[rng.randrange(len(base))]
        kind = kinds[i % len(kinds)]
        mutated = _mutate(ad, run, kind, rng)
        inst, binding, trace = as_binding(ad, mutated, action_mode=action_mode,
                                          truncated=False)
        verdict = conforms(trace, inst, binding)
        assert verdict.kind is VerdictKind.VIOLATED, (kind, verdict)
        assert verdict.node, kind
        assert verdict.predicate, kind
        rejected += 1
    _report("C3", f"{rejected}/50 seeded mutations rejected with node+predicate",
            started, 10.0)


# ---------------------------------------------------------------------------
# Criterion 4: oracle completeness on small instances
# ---------------------------------------------------------------------------

def test_c4_brute_force_completeness():
    started = time.perf_counter()
    compared = 0
    for name in ("fac.ad", "minimal.ad", "split_join.ad"):
        ad = load(name)
        assert len(ad.transitions) <= 12
        for action_mode in (INSTANT, TWO_PHASE):
            res = reachable(ad, action_mode=action_mode)
            for c in res.configs:
                assert max(map(len, c.buffers), default=0) <= 2
                expected = brute_successors(ad, c, action_mode=action_mode)
                actual = {c1 for _, c1 in successors(ad, c, INTERLEAVING,
                                                     action_mode=action_mode)}
                assert actual == expected, (name, action_mode, c.canonical(ad))
                compared += 1
    _report("C4", f"successor sets equal at {compared} reachable configurations",
            started, 60.0)


# ---------------------------------------------------------------------------
# Criterion 5: variant 1 end to end
# ---------------------------------------------------------------------------

def test_c5_variant1_end_to_end(fac, capsys):
    started = time.perf_counter()
    inst = method_instance(fac)
    binding = atomic_binding(inst)
    for n in range(0, 11):
        code = cli_main(["run-v1", str(CORPUS / "fac.ad"), f"n={n}"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["store"]["res"] == math.factorial(n)

        trace = run_method(fac, inst, {"n": n})
        for i in range(len(trace)):
            total = sum(len(pc_buffer_state(t, inst, trace[i])) for t in fac.transitions)
            assert total <= 1
        assert conforms(trace, inst, binding).kind is VerdictKind.SATISFIED
        assert check_effect_constraint(fac, inst, trace)

    # injected statement corruption is caught by the effect checker
    trace = run_method(fac, inst, {"n": 3})
    states = list(trace.states)
    states[2] = states[2].set_attr(inst.callee, "res", 999)
    corrupted = Trace(tuple(states), truncated=False)
    assert conforms(corrupted, inst, binding).kind is VerdictKind.SATISFIED
    assert not check_effect_constraint(fac, inst, corrupted)
    _report("C5", "res = n! for n in 0..10, single-token, satisfied, corruption caught",
            started, 5.0)


# ---------------------------------------------------------------------------
# Criterion 6: variant 1 syntactic profile
# ---------------------------------------------------------------------------

def test_c6_variant1_profile(grade, fac):
    started = time.perf_counter()
    codes = {d.code for d in validate(grade, "variant1")
             if d.severity is Severity.ERROR}
    assert {"v1-forkjoin", "v1-role", "v1-data-pin"} <= codes
    assert validate(fac, "variant1") == []
    _report("C6", "GradeThesis flagged (forkjoin, roles, data pins); fac clean",
            started, None)


# ---------------------------------------------------------------------------
# Criterion 7: variant 2 end to end
# ---------------------------------------------------------------------------

def test_c7_variant2_end_to_end(grade):
    started = time.perf_counter()
    outcomes, first_starts = set(), set()
    for seed in range(8):
        scenario = Scenario(seed=seed)
        inst = standard_instance(grade, scenario)
        binding = methods_binding(inst)
        trace = simulate(grade, inst, scenario)
        assert conforms(trace, inst, binding).kind is VerdictKind.SATISFIED
        assert check_role_constraint(inst, trace)
        assert inst.oid["Evaluate"] == inst.rrep["Referee1"]

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
                    phases.append(("start", j))
                elif finishes_action(n, inst, s0, s1, binding):
                    phases.append(("finish", j))
                else:
                    raise AssertionError(f"{n.name}: unclassifiable step {j}")
            assert [p for p, _ in phases] in ([], ["start", "finish"])
            if phases:
                (_, j_start), (_, j_finish) = phases
                assert j_finish > j_start + 1
                for j in range(j_start + 1, j_finish + 1):
                    assert method_frame_present(n, inst, trace[j])

        for i in range(len(trace)):
            for attrs in trace[i].data_store.values():
                if attrs.get("result") in ("passed", "failed"):
                    outcomes.add(attrs["result"])
        for i in range(len(trace)):
            hit = [nm for nm in ("ReviewThesis1", "ReviewThesis2")
                   if method_frame_present(grade.node(nm), inst, trace[i])]
            if hit:
                first_starts.add(hit[0])
                break
    assert outcomes == {"passed", "failed"}
    assert first_starts == {"ReviewThesis1", "ReviewThesis2"}

    for order in (("r1", "r2"), ("r2", "r1")):
        controller = PinController.for_pins(("r1", "r2"))
        fired = []
        for pin in order:
            controller, f = deliver(controller, pin, "v")
            fired.append(f)
        assert fired == [False, True]
    _report("C7", "8 seeds satisfied; branches+orders covered; two-phase shape; "
                  "controller fires on last delivery", started, 5.0)


# ---------------------------------------------------------------------------
# Criterion 8: token-game structural facts (locked regression)
# ---------------------------------------------------------------------------

def test_c8_token_game_structure(grade):
    started = time.perf_counter()
    res = reachable(grade, mode=INTERLEAVING, action_mode=INSTANT, bound=10_000)
    assert not res.truncated
    report = analyze(grade, res)
    assert report.deadlocks == []
    assert report.decision_coverage == {"D1.p": True, "D1.f": True}
    sources = {c for c, _, _ in res.edges}
    maximal = [c for c in res.configs if c not in sources]
    assert maximal and all(config_is_final(grade, c) for c in maximal)
    assert len(res.configs) == GRADE_REACHABLE_CONFIGS
    _report("C8", f"0 deadlocks, both branches, maximal=final, "
                  f"{len(res.configs)} configurations (locked)", started, None)


# ---------------------------------------------------------------------------
# Criterion 9: parser round trip and fuzzing
# ---------------------------------------------------------------------------

def test_c9_parser_round_trip_and_fuzz():
    started = time.perf_counter()
    corpus_files = sorted(CORPUS.glob("*.ad"))
    assert corpus_files
    for path in corpus_files:
        ad = parse(path.read_text(encoding="utf-8"))
        assert parse(to_text(ad)) == ad

    rng = random.Random(77)
    base = (CORPUS / "grade_thesis.ad").read_text(encoding="utf-8")
    crashes = 0
    for _ in range(300):
        text = list(base)
        for _ in range(rng.randrange(1, 4)):
            op = rng.randrange(3)
            pos = rng.randrange(len(text))
            ch = rng.choice(';{}.->"ax0 \n:')
            if op == 0:
                text[pos] = ch
            elif op == 1:
                text.insert(pos, ch)
            else:
                del text[pos]
        try:
            parse("".join(text))
        except ParseError as e:
            assert e.diagnostics and all(d.location for d in e.diagnostics)
        except Exception:
            crashes += 1
    assert crashes == 0
    _report("C9", f"{len(corpus_files)} corpus files round-trip; "
                  f"300 fuzzed inputs, 0 crashes", started, 5.0)
