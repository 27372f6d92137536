"""`run-v1 --trace` and `run-v2 --trace` output, pinned byte for byte.

Each file under `golden/traces/` holds one run's exit code, stdout,
stderr and trace file.  The runs are made from the repository root with
relative diagram paths, so the header's `diagram` field is the same on
every checkout.  The cases cover the fac loop at several lengths, a run
cut by `--max-steps`, `local` effects with a guard on a local
(`fixtures/locals.ad`), `grade_thesis` with both decision outcomes and
with an outcome drawn from the seed, the `command` caller mode,
`sub_variant: false`, a fork whose chains belong to two roles
(`fixtures/fork2x2_roles.ad`), at seeds and durations where two
finishes fall due on the same step, and an initial `any` pin feeding a
`Thesis` input (`fixtures/any_initial.ad`), whose first token is a
`Thesis` call.

Regenerate them, only when an output change is intended, from the
repository root with::

    PYTHONPATH=src python -m tests.test_cli_golden_traces
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import pytest

from .test_cli_golden import GOLDEN, _cli

ROOT = Path(__file__).resolve().parent.parent
TRACES = GOLDEN / "traces"
FAC, GRADE = "corpus/fac.ad", "corpus/grade_thesis.ad"
LOCALS, FORK_ROLES = "tests/fixtures/locals.ad", "tests/fixtures/fork2x2_roles.ad"
ANY_INITIAL = "tests/fixtures/any_initial.ad"

V1_CASES = {
    "fac-n0": (FAC, ["n=0"]),
    "fac-n1": (FAC, ["n=1"]),
    "fac-n2": (FAC, ["n=2"]),
    "fac-n7": (FAC, ["n=7"]),
    "fac-n30": (FAC, ["n=30"]),
    "fac-n5-max-steps4": (FAC, ["n=5", "--max-steps", "4"]),
    "locals-n3": (LOCALS, ["n=3"]),
    "locals-n0": (LOCALS, ["n=0"]),
}
V2_CASES = {
    "grade-passed": (GRADE, {"seed": 2, "decisions": {"D1": "passed"}}),
    "grade-failed": (GRADE, {"seed": 3, "decisions": {"D1": "failed"}}),
    "grade-command": (GRADE, {"seed": 4, "decisions": {"D1": "passed"},
                              "caller_mode": "command"}),
    "grade-no-sub-variant": (GRADE, {"seed": 1, "decisions": {"D1": "failed"},
                                     "sub_variant": False}),
    "grade-random-outcome": (GRADE, {"seed": 0}),
    "fork2x2-roles": (FORK_ROLES, {"seed": 5, "durations": {"A0_0": 3, "A1_1": 0}}),
    "fork2x2-roles-seed1": (FORK_ROLES, {"seed": 1, "durations": {"A0_0": 3, "A1_0": 2,
                                                                  "A0_1": 2, "A1_1": 2}}),
    "fork2x2-roles-seed7": (FORK_ROLES, {"seed": 7, "durations": {"A0_1": 3, "A1_1": 4}}),
    "any-initial": (ANY_INITIAL, {"seed": 0}),
}
CASES = sorted(V1_CASES) + sorted(V2_CASES)


def outputs(case: str, tmp: Path) -> dict:
    """Run one case; the caller makes the repository root the cwd."""
    trace = tmp / f"{case}.jsonl"
    if case in V1_CASES:
        path, args = V1_CASES[case]
        record = _cli("run-v1", path, *args, "--trace", str(trace))
    else:
        path, scenario = V2_CASES[case]
        sc = tmp / f"{case}.scenario.json"
        sc.write_text(json.dumps(scenario), encoding="utf-8")
        record = _cli("run-v2", path, str(sc), "--trace", str(trace))
    record["trace"] = trace.read_text(encoding="utf-8")
    return record


def golden_path(case: str) -> Path:
    return TRACES / f"{case}.json"


@pytest.mark.parametrize("case", CASES)
def test_trace_output_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.delenv("ADSEM_SEED", raising=False)
    monkeypatch.chdir(ROOT)
    expected = json.loads(golden_path(case).read_text(encoding="utf-8"))
    actual = outputs(case, tmp_path)
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


if __name__ == "__main__":
    os.environ.pop("ADSEM_SEED", None)
    os.chdir(ROOT)
    TRACES.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            golden_path(case).write_text(
                json.dumps(outputs(case, Path(tmp)), indent=1, sort_keys=True) + "\n",
                encoding="utf-8")
