"""`reach` order against a reference BFS that sorts every successor.

`reachable` sorts only the successors it has not seen, and only when
there are two or more; `reachability_to_dot` sorts each configuration's
edges itself.  Here both must give what a plain BFS gives when it sorts
every successor list by `Configuration.canonical(ad)` (serialised here,
not the compiled order key) and then by the sorted step labels: the
same configurations in the same order, the same deadlocks in the same
order and the same DOT edges, source by source, in the same order.
"""

from __future__ import annotations

import re
from collections import deque
from pathlib import Path

import pytest

from adsem.diagram import parse
from adsem.tokengame import (
    CONCURRENT,
    DEFAULT_BOUND,
    INSTANT,
    INTERLEAVING,
    TWO_PHASE,
    analyze,
    config_is_final,
    initial_config,
    reachability_to_dot,
    reachable,
    successors,
)

from ._forks import FAMILIES, fork
from .conftest import CORPUS, load

FIXTURES = Path(__file__).resolve().parent / "fixtures"
MODES = [(mode, actions) for mode in (INTERLEAVING, CONCURRENT) for actions in (INSTANT, TWO_PHASE)]
BOUNDS = [1, 5, 17, None]  # None: unbounded
ORPHAN_BOUND = 300  # tests/fixtures/orphan.ad never dies out, so it has no unbounded case


def diagrams():
    for path in sorted(CORPUS.glob("*.ad")):
        yield path.stem, load(path.name)
    for path in sorted(FIXTURES.glob("*.ad")):
        yield path.stem, parse(path.read_text(encoding="utf-8"))
    for k, c in FAMILIES:
        yield f"fork{k}x{c}", fork(k, c)


DIAGRAMS = list(diagrams())


def reference(ad, mode, actions, bound):
    """Configurations in BFS order, deadlocks in that order and DOT edge
    lines, from every successor list sorted by canonical() and labels."""
    start = initial_config(ad)
    index, queue, dead, edges = {start: 0}, deque([start]), [], []
    while queue:
        c = queue.popleft()
        succ = [(c1.canonical(ad), sorted(ch.label() for ch in choices), c1)
                for choices, c1 in successors(ad, c, mode, action_mode=actions)]
        if not succ:
            dead.append(c)
        for _, labels, c1 in sorted(succ, key=lambda s: s[:2]):
            if c1 not in index:
                if len(index) >= bound:
                    continue
                index[c1] = len(index)
                queue.append(c1)
            edges.append(f'    n{index[c]} -> n{index[c1]} [label="{", ".join(labels)}"];')
    return list(index), [c for c in dead if not config_is_final(ad, c)], edges


@pytest.mark.parametrize("bound", BOUNDS, ids=lambda b: f"bound{b or '-none'}")
@pytest.mark.parametrize("mode,actions", MODES)
@pytest.mark.parametrize("name,ad", DIAGRAMS, ids=[name for name, _ in DIAGRAMS])
def test_reach_order_equals_a_bfs_that_sorts_every_successor(name, ad, mode, actions, bound):
    if bound is None:
        bound = ORPHAN_BOUND if name == "orphan" else DEFAULT_BOUND
    configs, deadlocks, edges = reference(ad, mode, actions, bound)
    result = reachable(ad, mode=mode, action_mode=actions, bound=bound)
    assert result.configs == configs
    assert analyze(ad, result).deadlocks == deadlocks
    dot = reachability_to_dot(ad, result).splitlines()
    assert [line for line in dot if re.match(r"    n\d+ -> ", line)] == edges
