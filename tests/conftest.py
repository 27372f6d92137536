from __future__ import annotations

from pathlib import Path

import pytest

from adsem import diagram
from adsem.tokengame import (BUFFER_OID, FLAGS_OID, Configuration, TokenGameInstance, lift_config,
                             lifted_binding)

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
    """Hand-built (state, state') pair over the lifted token-game binding:
    buffers keyed by transition key, flags by action name; consumption and
    production are inferred from the buffer deltas."""
    c0 = Configuration.make(ad, bufs0 or {}, flags0 or {})
    c1 = Configuration.make(ad, bufs1 or {}, flags1 or {})
    inst = TokenGameInstance(ad)
    return inst, lift_config(ad, c0), lift_config(ad, c1), lifted_binding(ad)


def state_of(ad, bufs=None, flags=None):
    return lift_config(ad, Configuration.make(ad, bufs or {}, flags or {}))


def keyed(ad, c):
    """A configuration's buffers by transition key and flags by action name,
    as fresh dicts, read through `lift_config`."""
    store = lift_config(ad, c).data_store
    return store[BUFFER_OID], store[FLAGS_OID]
