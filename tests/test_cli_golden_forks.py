"""CLI output on two fork families, pinned byte for byte.

`tests/fixtures/fork3x2.ad` and `fork2x3.ad` are fork_k x chain_c
diagrams: wide enough that many successors of one configuration differ
only in which chain moved, so their order (and with it the BFS numbering
and the seeded pick of `simulate`) is decided by the order key alone.
The files under `golden/` hold the same outputs as for the corpus.

Regenerate them, only when an output change is intended, from the
repository root with::

    PYTHONPATH=src python -m tests.test_cli_golden_forks
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import pytest

from adsem.tokengame import CONCURRENT, INSTANT, INTERLEAVING, TWO_PHASE

from .test_cli_golden import GOLDEN, golden_path, outputs

FIXTURES = Path(__file__).resolve().parent / "fixtures"
CASES = [(FIXTURES / name, mode, actions)
         for name in ("fork3x2.ad", "fork2x3.ad")
         for mode in (INTERLEAVING, CONCURRENT)
         for actions in (INSTANT, TWO_PHASE)]


@pytest.mark.parametrize("path,mode,actions", CASES,
                         ids=[f"{p.stem}-{m}-{a}" for p, m, a in CASES])
def test_fork_output_matches_golden(path, mode, actions, tmp_path, monkeypatch):
    monkeypatch.delenv("ADSEM_SEED", raising=False)
    expected = json.loads(golden_path(path, mode, actions).read_text(encoding="utf-8"))
    actual = outputs(path, mode, actions, tmp_path)
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


if __name__ == "__main__":
    os.environ.pop("ADSEM_SEED", None)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for path, mode, actions in CASES:
            record = outputs(path, mode, actions, Path(tmp))
            golden_path(path, mode, actions).write_text(
                json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
