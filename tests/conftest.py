from __future__ import annotations

from pathlib import Path

import pytest

from adsem import diagram
from adsem.tokengame import (INSTANT, INTERLEAVING, Configuration, Run, initial_config, lifted_binding,
                             successors)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def load(name: str) -> diagram.ActivityDiagram:
    return diagram.parse((CORPUS / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def grade() -> diagram.ActivityDiagram:
    return load("grade_thesis.ad")


@pytest.fixture(scope="session")
def fac() -> diagram.ActivityDiagram:
    return load("fac.ad")


@pytest.fixture(scope="session")
def minimal() -> diagram.ActivityDiagram:
    return load("minimal.ad")


@pytest.fixture(scope="session")
def split_join() -> diagram.ActivityDiagram:
    return load("split_join.ad")


def pair(ad, bufs0=None, bufs1=None, flags0=None, flags1=None):
    """Hand-built (configuration, configuration') pair over the token-game
    binding: buffers keyed by transition key, flags by action name;
    consumption and production are inferred from the buffer deltas."""
    return (ad, Configuration.make(ad, bufs0, flags0), Configuration.make(ad, bufs1, flags1),
            lifted_binding(ad))


def keyed(ad, c):
    """A configuration's buffers by transition key and flags by action name,
    as fresh dicts."""
    actions = dict.fromkeys(n.name for n in ad.nodes if n.kind is diagram.NodeKind.ACTION)
    return dict(zip((t.key for t in ad.layout.transitions), c.buffers)), dict(zip(actions, c.flags))


def runs(ad, mode=INTERLEAVING, action_mode=INSTANT, max_runs=1000, max_len=200):
    """Runs from the initial configuration, depth-first over the public
    `successors`, each ending in a configuration with no successors or cut
    at `max_len` configurations and marked cut; the first `max_runs` of
    them, cut runs counted."""
    out = []

    def explore(configs, choices):
        if len(out) >= max_runs:
            return
        succ = successors(ad, configs[-1], mode, action_mode)
        if not succ or len(configs) >= max_len:
            out.append(Run(configs, choices, bool(succ)))
            return
        for chs, c1 in succ:
            explore(configs + (c1,), choices + (chs,))

    explore((initial_config(ad),), ())
    return out
