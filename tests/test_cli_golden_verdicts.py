"""`check-trace` verdicts on recorded traces and seeded mutations of them,
pinned with their exit codes, stdout and stderr.

Each file under `golden/verdicts/` holds one recorded trace (`base`, its
lines) and the cases judged against it.  A case's trace is a list of
lines, each an index into `base` or a line of its own, so that a
mutation is stored as what it changed.  The recorded traces are a
`run-v1` of `corpus/fac.ad n=3`, `run-v2` of `corpus/grade_thesis.ad`
with both outcomes, and `simulate --seed 0 --bound 30` of every
`corpus/*.ad`, of `fixtures/fork2x3.ad` and of `fixtures/orphan.ad` (an
action with no incoming transition, which may start after the final node
holds its token) in all four `--mode`/`--actions` pairs.  The mutations
(`COMMON` and `EDITS`) drop, duplicate and swap states, cut a prefix,
flip the header's `truncated`, break a line, and edit buffers, flags,
pcs, stores, stacks, mailboxes and results.

Regenerate them, only when an output change is intended, from the
repository root with::

    PYTHONPATH=src python -m tests.test_cli_golden_verdicts
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest

from adsem import diagram, sysmodel, tokengame, variant1, variant2
from adsem.semantics import stutters

from .test_cli_golden import GOLDEN, _cli

ROOT = Path(__file__).resolve().parent.parent
VERDICTS = GOLDEN / "verdicts"
MODES = [(m, a) for m in (tokengame.INTERLEAVING, tokengame.CONCURRENT)
         for a in (tokengame.INSTANT, tokengame.TWO_PHASE)]
TOKEN_DIAGRAMS = ["corpus/fac.ad", "corpus/grade_thesis.ad", "corpus/minimal.ad",
                  "corpus/split_join.ad", "tests/fixtures/fork2x3.ad",
                  "tests/fixtures/orphan.ad"]
SCENARIOS = {"grade-passed": {"seed": 2, "decisions": {"D1": "passed"}},
             "grade-failed": {"seed": 3, "decisions": {"D1": "failed"}}}
MUTANTS = 12  # mutated cases per recorded trace


def bases() -> dict[str, tuple[str, list[str]]]:
    """Recorded trace name -> (diagram path, `check-trace` options)."""
    out = {"fac-n3": ("corpus/fac.ad", ["--variant", "v1"])}
    out.update((name, ("corpus/grade_thesis.ad", ["--variant", "v2"])) for name in SCENARIOS)
    for path in TOKEN_DIAGRAMS:
        for mode, actions in MODES:
            out[f"{Path(path).stem}-{mode}-{actions}"] = (
                path, ["--variant", "token", "--mode", mode, "--actions", actions])
    return out


def golden_path(name: str) -> Path:
    return VERDICTS / f"{name}.json"


def case_lines(record: dict, case: dict) -> list[str]:
    return [record["base"][x] if isinstance(x, int) else x for x in case["lines"]]


def check(record: dict, lines: list[str], tmp: Path) -> dict:
    """`check-trace` on the lines; the caller makes `tmp` the cwd, so that a
    located diagnostic reads `trace.jsonl:<line>: ...` on every checkout."""
    (tmp / "trace.jsonl").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return _cli("check-trace", str(ROOT / record["diagram"]), "trace.jsonl", *record["options"])


def record_diagram(record: dict) -> diagram.ActivityDiagram:
    """The record's diagram: its `text`, if it holds one, else the file it names."""
    return diagram.parse(record.get("text") or (ROOT / record["diagram"]).read_text(encoding="utf-8"))


def decoded(record: dict, lines: list[str]):
    """(instance, binding, trace) as `check-trace` builds them; raises on
    lines it would reject."""
    ad = record_diagram(record)
    options = dict(zip(record["options"][::2], record["options"][1::2]))
    if options["--variant"] == "token":
        run = [tokengame.Configuration.from_json(ad, json.loads(line)) for line in lines]
        return tokengame.as_binding(ad, run, mode=options["--mode"],
                                    action_mode=options["--actions"])
    header = json.loads(lines[0])
    if options["--variant"] == "v1":
        inst = variant1.MethodExecutionInstance.from_json(ad, header["params"])
        binding = variant1.atomic_binding(inst)
    else:
        inst = variant2.ActionMethodsInstance.from_json(ad, header["params"])
        binding = variant2.methods_binding(inst)
    states = tuple(sysmodel.state_from_json(json.loads(line)) for line in lines[1:])
    return inst, binding, sysmodel.Trace(states, truncated=bool(header.get("truncated", False)))


# ---------------------------------------------------------------------------
# Mutations: each edits a `Mutable` in place and returns False when it does
# not apply.
# ---------------------------------------------------------------------------

@dataclass
class Mutable:
    ad: diagram.ActivityDiagram
    header: dict | None
    states: list[str]


def drop(rng, m):
    if len(m.states) < 2:
        return False
    del m.states[rng.randrange(len(m.states))]


def duplicate(rng, m):
    k = rng.randrange(len(m.states))
    m.states.insert(k, m.states[k])


def swap(rng, m):
    if len(m.states) < 2:
        return False
    k = rng.randrange(len(m.states) - 1)
    m.states[k], m.states[k + 1] = m.states[k + 1], m.states[k]


def cut_prefix(rng, m):
    if len(m.states) < 2:
        return False
    del m.states[:rng.randint(1, min(3, len(m.states) - 1))]


def flip_truncated(rng, m):
    if m.header is None:
        return False
    m.header["truncated"] = not m.header.get("truncated", False)


def break_line(rng, m):
    k = rng.randrange(len(m.states))
    m.states[k] = m.states[k][:len(m.states[k]) // 2]


def _edit(edit):
    """A mutation that applies `edit(rng, m, state)` to one decoded state."""
    def mutation(rng, m):
        k = rng.randrange(len(m.states))
        try:
            state = json.loads(m.states[k])
        except json.JSONDecodeError:
            return False
        if edit(rng, m, state) is False:
            return False
        m.states[k] = json.dumps(state, sort_keys=True)
    mutation.__name__ = edit.__name__.lstrip("_")
    return mutation


def _token(rng, state):
    tokens = [tok for toks in state["buffers"].values() for tok in toks]
    return rng.choice(tokens) if tokens and rng.random() < 0.5 else "control"


@_edit
def flip_flag(rng, m, state):
    if not state["exec"]:
        return False
    name = rng.choice(sorted(state["exec"]))
    state["exec"][name] = not state["exec"][name]


def _add(rng, m, state):
    key = rng.choice([t.key for t in m.ad.layout.transitions])
    state["buffers"].setdefault(key, []).append(_token(rng, state))


def _take(rng, m, state):
    filled = sorted(k for k, toks in state["buffers"].items() if toks)
    if not filled:
        return False
    key = rng.choice(filled)
    state["buffers"][key] = state["buffers"][key][1:]


def _move(rng, m, state):
    if _take(rng, m, state) is False:
        return False
    _add(rng, m, state)


add_token, take_token, move_token = _edit(_add), _edit(_take), _edit(_move)


def _v1_frames(m, state):
    params = m.header["params"]
    return state.get("cs", {}).get(params["callee"], {}).get(params["thread"], [])


@_edit
def set_pc(rng, m, state):
    frames = _v1_frames(m, state)
    if not frames:
        return False
    frames[0]["pc"] = rng.choice(sorted(set(m.header["params"]["pc_map"].values())))


@_edit
def set_store(rng, m, state):
    attrs = state.get("ds", {}).get(m.header["params"]["callee"], {})
    if not attrs:
        return False
    attrs[rng.choice(sorted(attrs))] += rng.choice((-1, 1))


@_edit
def drop_stack(rng, m, state):
    if not state.get("cs"):
        return False
    state["cs"] = {}


@_edit
def edit_mailbox(rng, m, state):
    boxes = sorted(k for k in state["ds"] if k.startswith(variant2.MAILBOX_PREFIX))
    box = state["ds"][rng.choice(boxes)]
    tokens = json.loads(box[variant2.MAILBOX_VAR])
    how = rng.randrange(3)
    if how == 0:
        tokens.append(tokens[0] if tokens and rng.random() < 0.5 else "control")
    elif how == 1 and tokens:
        tokens.pop(0)
    else:
        tokens = []
    box[variant2.MAILBOX_VAR] = json.dumps(tokens, sort_keys=True)


@_edit
def flip_frame(rng, m, state):
    """Push a frame of an action's method on its object, or pop it."""
    params = m.header["params"]
    node = rng.choice(sorted(params["meth"]))
    oid, meth = params["oid"][node], params["meth"][node]
    stack = state.setdefault("cs", {}).setdefault(oid, {}).setdefault(params["thread_of"][node], [])
    running = [f for f in stack if f["m"] == meth]
    if running:
        stack.remove(running[0])
    else:
        stack.insert(0, {"callee": oid, "caller": oid, "m": meth, "pc": f"{meth}@body",
                         "vars": {}})


@_edit
def set_result(rng, m, state):
    objects = sorted(k for k in state["ds"] if not k.startswith(variant2.MAILBOX_PREFIX))
    guards = sorted(set(m.ad.guards.values()) - {"true"}) or ["true"]
    state["ds"][rng.choice(objects)][variant2.RESULT_VAR] = rng.choice(guards)


COMMON = [drop, duplicate, swap, cut_prefix, flip_truncated, break_line]
EDITS = {"token": [flip_flag, add_token, take_token, move_token],
         "v1": [set_pc, set_store, drop_stack],
         "v2": [edit_mailbox, flip_frame, set_result]}


def mutate(rng: random.Random, record: dict, ops: int) -> tuple[str, list[str]] | None:
    """Up to `ops` mutations of the record's base trace: their names and
    the mutated lines, or None when none applied."""
    ad = record_diagram(record)
    variant = record["options"][1]
    lines = list(record["base"])
    header = None if variant == "token" else json.loads(lines.pop(0))
    m = Mutable(ad, header, lines)
    names = []
    for _ in range(ops):
        op = rng.choice(COMMON + 2 * EDITS[variant])
        if m.states and op(rng, m) is not False:
            names.append(op.__name__)
    if not names:
        return None
    head = [] if header is None else [json.dumps(header, sort_keys=True)]
    return "+".join(names), head + m.states


def record_base(name: str, path: str, options: list[str], tmp: Path) -> list[str]:
    out = tmp / f"{name}.jsonl"
    if options[1] == "v1":
        _cli("run-v1", path, "n=3", "--trace", str(out))
    elif options[1] == "v2":
        scenario = tmp / f"{name}.scenario.json"
        scenario.write_text(json.dumps(SCENARIOS[name]), encoding="utf-8")
        _cli("run-v2", path, str(scenario), "--trace", str(out))
    else:
        _cli("simulate", path, *options[2:], "--seed", "0", "--bound", "30", "--out", str(out))
    return out.read_text(encoding="utf-8").splitlines()


def generate(name: str, path: str, options: list[str], tmp: Path) -> dict:
    os.chdir(ROOT)  # the v1 and v2 headers hold the diagram path as given
    record = {"diagram": path, "options": options,
              "base": record_base(name, path, options, tmp)}
    os.chdir(tmp)
    rng = random.Random(name)
    cases = {"recorded": list(range(len(record["base"])))}
    for i in range(MUTANTS):
        mutant = mutate(rng, record, rng.randint(1, 2))
        if mutant is not None:
            index = {line: k for k, line in reversed(list(enumerate(record["base"])))}
            cases[f"{i:02d}-{mutant[0]}"] = [index.get(line, line) for line in mutant[1]]
    record["cases"] = {case: {"lines": lines, **check(record, case_lines(record, {"lines": lines}), tmp)}
                       for case, lines in cases.items()}
    return record


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def _records() -> dict[str, dict]:
    return {name: json.loads(golden_path(name).read_text(encoding="utf-8")) for name in bases()}


@pytest.mark.parametrize("name", sorted(bases()))
def test_verdicts_match_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("ADSEM_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    record = json.loads(golden_path(name).read_text(encoding="utf-8"))
    for case_name, case in record["cases"].items():
        actual = check(record, case_lines(record, case), tmp_path)
        expected = {k: case[k] for k in ("exit", "stdout", "stderr")}
        assert actual == expected, case_name


@pytest.mark.parametrize("name", sorted(bases()))
def test_verdicts_read_from_stdin_match_golden(name, monkeypatch):
    """`check-trace DIAGRAM -` answers each case as the file form does, a located
    error naming `<stdin>` for the file."""
    monkeypatch.delenv("ADSEM_SEED", raising=False)
    record = json.loads(golden_path(name).read_text(encoding="utf-8"))
    for case_name, case in record["cases"].items():
        monkeypatch.setattr(sys, "stdin", io.StringIO("".join(line + "\n" for line in case_lines(record, case))))
        actual = _cli("check-trace", str(ROOT / record["diagram"]), "-", *record["options"])
        expected = {"exit": case["exit"], "stdout": case["stdout"],
                    "stderr": case["stderr"].replace("error: trace.jsonl:", "error: <stdin>:")}
        assert actual == expected, case_name


def _moved_nodes(record: dict, lines: list[str], j: int) -> list[str]:
    """The nodes, in declaration order, that do not stutter on pair j."""
    inst, b, trace = decoded(record, lines)
    ad = b.diagram_of(inst)
    return [n.name for n in ad.nodes if not stutters(n, inst, trace[j], trace[j + 1], b)]


def test_the_set_covers_each_verdict_shape():
    """No initial state, lost finality, a flag flip, a concurrent step that
    moves several nodes, and a violation blamed on a node that is not the
    first to move."""
    seen = set()
    for record in _records().values():
        concurrent = tokengame.CONCURRENT in record["options"]
        for case_name, case in record["cases"].items():
            if "flip_flag" in case_name or "flip_frame" in case_name:
                seen.add("flag flip")
            if case["exit"] == 3:
                continue
            verdict = json.loads(case["stdout"])
            seen.add(verdict["verdict"])
            seen.add(verdict["predicate"])
            lines = case_lines(record, case)
            if verdict["predicate"] not in (None, "final-persistence"):
                moved = _moved_nodes(record, lines, verdict["index"])
                if moved[0] != verdict["node"]:
                    seen.add("blamed a later node")
            if concurrent and case_name == "recorded":
                trace = decoded(record, lines)[2]
                if any(len(_moved_nodes(record, lines, j)) > 1 for j in range(len(trace) - 1)):
                    seen.add("concurrent multi-node step")
    assert {"no-initial-found", "final-persistence", "satisfied", "satisfied-so-far",
            "flag flip", "blamed a later node", "concurrent multi-node step"} <= seen


if __name__ == "__main__":
    os.environ.pop("ADSEM_SEED", None)
    VERDICTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (path, options) in bases().items():
            golden_path(name).write_text(
                json.dumps(generate(name, path, options, Path(tmp)), indent=1, sort_keys=True)
                + "\n", encoding="utf-8")
