"""The token game and the checker read the initial and final clause alike.

On every reachable configuration of every `corpus/*.ad` diagram and of
every fork_k x chain_c family, in all four modes, `config_is_final` must
agree with `is_final_state` over the token-game binding, and
`is_initial_state` must hold exactly on the initial configuration.
"""

from __future__ import annotations

import itertools
from pathlib import Path

from adsem.semantics import is_final_state, is_initial_state
from adsem.tokengame import (
    CONCURRENT,
    INSTANT,
    INTERLEAVING,
    TWO_PHASE,
    config_is_final,
    initial_config,
    lifted_binding,
    reachable,
)

from ._forks import FAMILIES, fork
from .conftest import CORPUS, load

MODES = list(itertools.product((INTERLEAVING, CONCURRENT), (INSTANT, TWO_PHASE)))


def test_config_and_lifted_clauses_agree_on_every_reachable_configuration():
    diagrams = ([load(p.name) for p in sorted(Path(CORPUS).glob("*.ad"))]
                + [fork(k, c) for k, c in FAMILIES])
    judged = 0
    for ad in diagrams:
        b, start = lifted_binding(ad), initial_config(ad)
        for mode, action_mode in MODES:
            result = reachable(ad, mode=mode, action_mode=action_mode)
            assert not result.truncated
            for c in result.configs:
                assert config_is_final(ad, c) == is_final_state(ad, c, b), (ad.name, c)
                assert is_initial_state(ad, c, b) == (c == start), (ad.name, c)
                judged += 1
    assert judged == 8516
