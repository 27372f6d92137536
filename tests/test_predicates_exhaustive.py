"""The checker against the oracle on every small state pair of the corpus.

For every node of every `corpus/*.ad` diagram, every consumed and
produced count in {0, 1, 2} on the node's adjacent transitions and every
executing-flag pair, `semantics.allows_step` over the lifted token-game
binding must agree with the independent step formula in `tests/_brute.py`
(instant mode, every guard true).

There is no known disagreement.  Like the oracle, the one-step clause
requires the executing flag to stay unchanged, so an action that
consumes one token per input, produces one per output and flips its
flag is rejected by both.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from adsem.diagram import NodeKind, incoming, outgoing
from adsem.semantics import Token, allows_step
from adsem.tokengame import INSTANT

from ._brute import _formula_holds
from .conftest import CORPUS, load, pair

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
    """A lifted state pair whose FIFO delta is exactly the given counts:
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
            oracle = _formula_holds(ad, n, {n.name: f0}, {n.name: f1}, cons_n, prod_n,
                                    lambda t: True, INSTANT)
            judged += 1
            if checker != oracle:
                disagreements.append((n.name, cons_n, prod_n, f0, f1, checker))
    assert judged >= len(ad.nodes)
    assert disagreements == []
