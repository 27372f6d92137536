"""`reach --bound N` cut partway through a BFS level, pinned byte for byte.

Where a bound cuts the search depends on the order in which new
configurations are numbered: the last configurations kept, `truncated`,
the deadlock list and the `--dot` graph all change if that order does.
For fork3x2 and `grade_thesis` in each `--mode` x `--actions`
combination, the files under `golden/truncated/` hold the `reach` report
and the `reach --dot` graph at each bound in `BOUNDS`; at least one of
them cuts the search partway through a level.

Regenerate them, only when an output change is intended, from the
repository root with::

    PYTHONPATH=src python -m tests.test_cli_golden_truncated
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from adsem.diagram import parse
from adsem.tokengame import CONCURRENT, INSTANT, INTERLEAVING, TWO_PHASE, reachable

from .conftest import CORPUS
from .test_cli_golden import GOLDEN, _cli

FIXTURES = Path(__file__).resolve().parent / "fixtures"
BOUNDS = (5, 9, 12)
CASES = [(path, mode, actions)
         for path in (FIXTURES / "fork3x2.ad", CORPUS / "grade_thesis.ad")
         for mode in (INTERLEAVING, CONCURRENT)
         for actions in (INSTANT, TWO_PHASE)]
IDS = [f"{p.stem}-{m}-{a}" for p, m, a in CASES]


def outputs(path: Path, mode: str, actions: str, tmp: Path) -> dict:
    record = {}
    for bound in BOUNDS:
        dot = tmp / f"reach{bound}.dot"
        record[f"reach_bound{bound}"] = _cli("reach", str(path), "--mode", mode, "--actions", actions,
                                             "--bound", str(bound), "--dot", str(dot))
        record[f"reach_bound{bound}_dot"] = dot.read_text(encoding="utf-8")
    return record


def golden_path(path: Path, mode: str, actions: str) -> Path:
    return GOLDEN / "truncated" / f"{path.stem}.{mode}.{actions}.json"


@pytest.mark.parametrize("path,mode,actions", CASES, ids=IDS)
def test_truncated_reach_matches_golden(path, mode, actions, tmp_path):
    expected = json.loads(golden_path(path, mode, actions).read_text(encoding="utf-8"))
    actual = outputs(path, mode, actions, tmp_path)
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


@pytest.mark.parametrize("path,mode,actions", CASES, ids=IDS)
def test_some_bound_cuts_a_level_partway(path, mode, actions):
    full = reachable(parse(path.read_text(encoding="utf-8")), mode, action_mode=actions)
    depth = {full.initial: 0}
    for c0, _, c1 in full.edges:
        depth.setdefault(c1, depth[c0] + 1)
    levels = [depth[c] for c in full.configs]
    assert any(bound < len(levels) and levels[bound - 1] == levels[bound] for bound in BOUNDS)


if __name__ == "__main__":
    (GOLDEN / "truncated").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for path, mode, actions in CASES:
            golden_path(path, mode, actions).write_text(
                json.dumps(outputs(path, mode, actions, Path(tmp)), indent=1, sort_keys=True) + "\n",
                encoding="utf-8")
