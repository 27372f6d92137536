"""CLI output on the shipped corpus, pinned byte for byte.

For every `corpus/*.ad` in each `--mode` x `--actions` combination the
files under `golden/` hold the `reach` report, the `reach --dot` graph and
`simulate --seed 0..3`.  Together they fix the successor order, which
decides the BFS numbering, the order of deadlocks and the seeded pick of
`simulate`.

Regenerate them, only when an output change is intended, from the
repository root with::

    PYTHONPATH=src python -m tests.test_cli_golden
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from adsem import cli
from adsem.tokengame import CONCURRENT, INSTANT, INTERLEAVING, TWO_PHASE

from .conftest import CORPUS

GOLDEN = Path(__file__).resolve().parent / "golden"
SEEDS = range(4)
CASES = [(path, mode, actions)
         for path in sorted(CORPUS.glob("*.ad"))
         for mode in (INTERLEAVING, CONCURRENT)
         for actions in (INSTANT, TWO_PHASE)]


def _cli(*argv: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def outputs(path: Path, mode: str, actions: str, tmp: Path) -> dict:
    flags = ["--mode", mode, "--actions", actions]
    dot = tmp / "reach.dot"
    record = {"reach": _cli("reach", str(path), *flags, "--dot", str(dot)),
              "reach_dot": dot.read_text(encoding="utf-8")}
    for seed in SEEDS:
        record[f"simulate_seed{seed}"] = _cli("simulate", str(path), *flags, "--seed", str(seed))
    return record


def golden_path(path: Path, mode: str, actions: str) -> Path:
    return GOLDEN / f"{path.stem}.{mode}.{actions}.json"


@pytest.mark.parametrize("path,mode,actions", CASES,
                         ids=[f"{p.stem}-{m}-{a}" for p, m, a in CASES])
def test_cli_output_matches_golden(path, mode, actions, tmp_path, monkeypatch):
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
