"""Tests of the benchmark's own inputs and answers.

    python3 -m pytest perfbench

The closed forms are checked against hand counts on the smallest cases,
and every generated diagram must pass adsem's validator.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

import inputs
import workloads
from inputs import CONCURRENT, INSTANT, INTERLEAVING, TWO_PHASE, ForkFamily, LoopFamily

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from adsem import diagram  # noqa: E402


def _errors(text: str, profile: str = "general") -> list:
    return [d for d in diagram.validate(diagram.parse(text), profile)
            if d.severity is diagram.Severity.ERROR]


# Hand counts.  fork2x1 instant: initial, both actions pending, one done
# (two ways), both done, joined -> 6 configurations.  Interleaving edges:
# fork, 2 + 1 + 1 action firings, join -> 6; concurrent adds the joint
# firing -> 7.  twoPhase makes each chain pending/executing/done: 3x3
# product + 2 = 11 configurations; each product state has one edge per
# chain not yet done: 2 * (2 * 3) = 12, + 2 = 14.  Concurrent: a state
# with a chains able to move has 2^a - 1 edges; summed over the product
# that is 5^2 - 3^2 = 16, + 2 = 18.
@pytest.mark.parametrize("k, c, mode, actions, configs, edges", [
    (2, 1, INTERLEAVING, INSTANT, 6, 6),
    (2, 1, CONCURRENT, INSTANT, 6, 7),
    (2, 1, INTERLEAVING, TWO_PHASE, 11, 14),
    (2, 1, CONCURRENT, TWO_PHASE, 11, 18),
    (1, 2, INTERLEAVING, INSTANT, 5, 4),     # a plain chain: 3 positions + 2
    (3, 1, INTERLEAVING, INSTANT, 10, 14),   # 2^3 + 2; 3 * 4 firings + 2
])
def test_fork_formulas_match_hand_counts(k, c, mode, actions, configs, edges):
    fam = ForkFamily(k, c, "0000")
    assert fam.configs(actions) == configs
    assert fam.edges(mode, actions) == edges


def test_run_length_counts_each_firing():
    # initial, fork, 2*3 action firings (twice each under twoPhase), join
    assert ForkFamily(2, 3, "0000").run_length(INSTANT) == 9
    assert ForkFamily(2, 3, "0000").run_length(TWO_PHASE) == 15


def test_fac_and_loop_answers_match_hand_counts():
    # fac n=3: SetRes, MulRes, DecN, MulRes, DecN, done
    assert inputs.fac_answer(3) == ({"n": 1, "res": 6}, 6)
    assert inputs.fac_answer(400)[0]["res"] == math.factorial(400)
    # loop b=1 n=2: Z1, B1, D, B1, D, final; acc1 = 5 * (2 + 1)
    assert LoopFamily(2, (5,), "0000").answer() == ({"i": 0, "acc1": 15}, 6)
    # b=2 n=1: Z1, Z2, B1, B2, D, final
    assert LoopFamily(1, (2, 3), "0000").answer() == ({"i": 0, "acc1": 2, "acc2": 3}, 6)


@pytest.mark.parametrize("k, c", [(2, 1), (3, 3), (5, 2), (6, 3)])
@pytest.mark.parametrize("roles", [False, True])
def test_fork_family_is_valid(k, c, roles):
    fam = ForkFamily(k, c, inputs.new_tag(random.Random(k * 10 + c)), k + c, roles)
    assert _errors(fam.text()) == []
    ad = diagram.parse(fam.text())
    assert fam.final_input in {t.key for t in ad.transitions}


@pytest.mark.parametrize("n, multipliers", [(0, (1,)), (30, (4, 5, 6)), (120, (9,))])
def test_loop_family_passes_the_variant1_profile(n, multipliers):
    assert _errors(LoopFamily(n, multipliers, "ab12").text(), "variant1") == []


def test_corpus_snapshot_passes_its_profiles():
    for name in ("fac.ad", "grade_thesis.ad", "minimal.ad", "split_join.ad"):
        assert _errors(inputs.corpus_text(name)) == []
    assert _errors(inputs.corpus_text("fac.ad"), "variant1") == []


def test_duplicate_token_blames_the_producer():
    kinds = {"I": "initial", "F": "forkjoin", "A": "action", "B": "action", "E": "final"}
    run = [{"buffers": {"I._o1->F._i1": ["control"]}},
           {"buffers": {"F._o1->A._i1": ["control"], "F._o2->B._i1": ["control"]}},
           {"buffers": {"A._o1->E._i1": ["control"], "F._o2->B._i1": ["control"]}}]
    for seed in range(8):
        mutated, v = inputs.duplicate_token(random.Random(seed), kinds, run,
                                            inputs.token_buffers)
        i = v.index + 1
        changed = [k for k in mutated[i]["buffers"] if len(mutated[i]["buffers"][k]) == 2]
        assert len(changed) == 1 and changed[0].split(".")[0] == v.node
        assert v.predicate == f"step:{kinds[v.node]}"
    assert run[1]["buffers"]["F._o1->A._i1"] == ["control"]   # the input is left alone


def test_rewind_pc_blames_the_first_declared_violator():
    kinds = inputs.node_kinds(inputs.corpus_text("fac.ad"))
    params = {"callee": "c", "thread": "t",
              "pc_map": {name: f"pc:{name}" for name in kinds}}
    pcs = ["SetRes", "MulRes", "DecN", "MulRes", "DecN", "done"]
    states = [{"cs": {"c": {"t": [{"pc": f"pc:{pc}"}]}}} for pc in pcs]
    mutated, v = inputs.rewind_pc(random.Random(1), kinds, {"params": params}, states, 3)
    assert mutated[v.index + 1]["cs"]["c"]["t"][0]["pc"] == "pc:SetRes"
    assert (v.node, v.predicate) == ("start", "step:initial")


def test_mailbox_view_writes_back():
    state = {"ds": {"mbox:a->b": {"tokens": json.dumps(["control"])}}, "cs": {}}
    view = inputs.MailboxView(state)
    view["a->b"] = view["a->b"] * 2
    assert json.loads(state["ds"]["mbox:a->b"]["tokens"]) == ["control", "control"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_job_of_one_round_is_answered_right(workload, tmp_path):
    from adsem import cli
    jobs = workloads.build(workload, 7, tmp_path, cli.main)
    for job in jobs:
        code, out, err = workloads.call_cli(cli.main, job.argv)
        outcome = job.check(code, out)
        assert not isinstance(outcome, str), (job.label, outcome, err)
