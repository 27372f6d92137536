"""The checker against the oracle on every small state pair of the corpus.

For every node of every `corpus/*.ad` diagram, every consumed and
produced count in {0, 1, 2} on the node's adjacent transitions and every
executing-flag pair, `semantics.allows_step` over the lifted token-game
binding must agree with the independent step formula in `tests/_brute.py`
(instant mode, every guard true).

One disagreement is known and pinned, so that it stays visible and no
other verdict can move silently: an action that consumes one token per
incoming transition, produces one per outgoing transition and flips its
executing flag.  `allows_step` accepts it, because its one-step clause
does not look at the flag; the oracle requires the flag to stay unchanged.
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


def _known_disagreements(ad):
    """The pinned disagreement: all counts 1 and the flag flipped, on an
    action where the flip is not also a start (no outputs) or a finish
    (no inputs) that the oracle accepts."""
    expected = set()
    for n in ad.nodes:
        if n.kind is not NodeKind.ACTION:
            continue
        ins = tuple(sorted(dict.fromkeys(t.key for t in incoming(ad, n))))
        outs = tuple(sorted(dict.fromkeys(t.key for t in outgoing(ad, n))))
        ones = (tuple((k, 1) for k in ins), tuple((k, 1) for k in outs))
        if outs:
            expected.add((n.name, *ones, False, True))
        if ins:
            expected.add((n.name, *ones, True, False))
    return expected


@pytest.mark.parametrize("name", sorted(p.name for p in Path(CORPUS).glob("*.ad")))
def test_allows_step_agrees_with_oracle_on_every_small_pair(name):
    ad = load(name)
    disagreements = set()
    judged = 0
    for n in ad.nodes:
        for cons_n, prod_n, f0, f1 in _cases(ad, n):
            inst, s0, s1, b = _pair_for(ad, n, cons_n, prod_n, f0, f1)
            checker = allows_step(n, inst, s0, s1, b)
            oracle = _formula_holds(ad, n, {n.name: f0}, {n.name: f1}, cons_n, prod_n,
                                    lambda t: True, INSTANT)
            judged += 1
            if checker != oracle:
                assert checker and not oracle, (n.name, cons_n, prod_n, f0, f1)
                disagreements.add((n.name, tuple(sorted(cons_n.items())),
                                   tuple(sorted(prod_n.items())), f0, f1))
    assert judged >= len(ad.nodes)
    assert disagreements == _known_disagreements(ad)
