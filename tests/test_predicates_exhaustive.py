"""The checker against the oracle on every small state pair of the corpus,
and `allows_step` against `conforms` on every recorded verdict.

For every node of every `corpus/*.ad` diagram, every consumed and
produced count in {0, 1, 2} on the node's adjacent transitions and every
executing-flag pair, `semantics.allows_step` over the lifted token-game
binding must agree with the independent step formula in `tests/_brute.py`
(instant mode; a decision may take any branch).

On every case under `golden/verdicts/` that `check-trace` judged (v1, v2
and token traces), `allows_step` must allow every node on every pair from
the first initial state up to the one the verdict blames, and on a pair
blamed by a `step:` predicate it must fail first for the blamed node.

There is no known disagreement.  Like the oracle, the one-step clause
requires the executing flag to stay unchanged, so an action that
consumes one token per input, produces one per output and flips its
flag is rejected by both.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from adsem.diagram import NodeKind, incoming, outgoing
from adsem.semantics import Token, allows_step, is_initial_state
from adsem.tokengame import INSTANT

from ._brute import _formula_holds
from .conftest import CORPUS, load, pair
from .test_cli_golden_verdicts import bases, case_lines, decoded, golden_path

COUNTS = (0, 1, 2)


def _old(i: int) -> Token:
    return Token("T", f"old{i}")


def _new(i: int) -> Token:
    return Token("T", f"new{i}")


def _cases(ad, n):
    """(consumed, produced, flags0, flags1) for every count assignment on
    the node's adjacent transitions and every flag pair it can hold."""
    ins = list(dict.fromkeys(t.key for t in incoming(ad, n)))
    outs = list(dict.fromkeys(t.key for t in outgoing(ad, n)))
    flag_pairs = (list(itertools.product((False, True), repeat=2))
                  if n.kind is NodeKind.ACTION else [(False, False)])
    for cons in itertools.product(COUNTS, repeat=len(ins)):
        for prod in itertools.product(COUNTS, repeat=len(outs)):
            for f0, f1 in flag_pairs:
                yield dict(zip(ins, cons)), dict(zip(outs, prod)), f0, f1


def _pair_for(ad, n, cons_n, prod_n, f0, f1):
    """A configuration pair whose FIFO delta is exactly the given counts:
    consumed tokens and produced tokens never look alike, so no token
    counts as staying put."""
    before = {k: [_old(i) for i in range(c)] for k, c in cons_n.items()}
    after = {k: [_new(i) for i in range(p)] for k, p in prod_n.items()}
    flags0 = {n.name: f0} if n.kind is NodeKind.ACTION else {}
    flags1 = {n.name: f1} if n.kind is NodeKind.ACTION else {}
    return pair(ad, before, after, flags0, flags1)


@pytest.mark.parametrize("name", sorted(p.name for p in Path(CORPUS).glob("*.ad")))
def test_allows_step_agrees_with_oracle_on_every_small_pair(name):
    ad = load(name)
    disagreements = []
    judged = 0
    for n in ad.nodes:
        for cons_n, prod_n, f0, f1 in _cases(ad, n):
            inst, s0, s1, b = _pair_for(ad, n, cons_n, prod_n, f0, f1)
            checker = allows_step(n, inst, s0, s1, b)
            oracle = _formula_holds(ad, n, {n.name: f0}, {n.name: f1}, cons_n, prod_n, INSTANT)
            judged += 1
            if checker != oracle:
                disagreements.append((n.name, cons_n, prod_n, f0, f1, checker))
    assert judged >= len(ad.nodes)
    assert disagreements == []


@pytest.mark.parametrize("name", sorted(bases()))
def test_allows_step_agrees_with_conforms_on_every_golden_verdict(name):
    record = json.loads(golden_path(name).read_text(encoding="utf-8"))
    judged = 0
    for case_name, case in record["cases"].items():
        if case["exit"] == 3:  # rejected unjudged
            continue
        verdict = json.loads(case["stdout"])
        if verdict["verdict"] == "no-initial-found":
            continue
        inst, b, trace = decoded(record, case_lines(record, case))
        nodes = b.diagram_of(inst).nodes
        start = next(j for j in range(len(trace)) if is_initial_state(inst, trace[j], b))
        blamed = verdict["index"] if verdict["verdict"] == "violated" else len(trace) - 1
        if verdict["predicate"] == "final-persistence":
            blamed += 1  # every node's step on the blamed pair is allowed
        for j in range(start, blamed):
            s0, s1 = trace[j], trace[j + 1]
            assert all(allows_step(n, inst, s0, s1, b) for n in nodes), (case_name, j)
        if (verdict["predicate"] or "").startswith("step:"):
            s0, s1 = trace[blamed], trace[blamed + 1]
            refused = [n.name for n in nodes if not allows_step(n, inst, s0, s1, b)]
            assert refused[:1] == [verdict["node"]], case_name
        judged += 1
    assert judged
