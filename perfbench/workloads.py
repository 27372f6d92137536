"""The three job mixes and the answer each job must give.

A job is one in-process call of the `adsem` command line.  `build`
writes a workload's inputs into a directory and returns one round of
jobs in a seeded order; the timed loop repeats whole rounds.

- reach:   `adsem reach` on fork_k x chain_c diagrams in all four
           mode/action combinations, plus the corpus.  Work: edges.
- check:   `adsem check-trace` on traces recorded here with the program,
           each with a mutated copy that must be violated.  Work: state
           pairs judged by conformance.
- execute: `adsem run-v1 --trace`, `run-v2 --trace` and `simulate --out`.
           Work: trace states recorded.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
from inputs import CONCURRENT, INSTANT, INTERLEAVING, TWO_PHASE, ForkFamily, LoopFamily

WORKLOADS = ("reach", "check", "execute")

# (k, c, mode, action mode).  Fork width drives fan-out and the concurrent
# product; chain depth drives configurations per chain.  Copies of one
# mid-sized cell fill the middle of the job-cost order and copies of the
# biggest cell fill its top, so that the median and the tail each land
# among copies of one kind of job whatever the number of rounds.
REACH_FORKS = [
    (2, 1, INTERLEAVING, INSTANT), (2, 3, INTERLEAVING, INSTANT),
    (2, 2, INTERLEAVING, TWO_PHASE), (2, 2, CONCURRENT, INSTANT), (2, 1, CONCURRENT, TWO_PHASE),
] + [(3, 2, CONCURRENT, INSTANT)] * 8 + [
    (2, 3, CONCURRENT, TWO_PHASE), (5, 1, CONCURRENT, INSTANT), (3, 3, INTERLEAVING, INSTANT),
    (4, 1, INTERLEAVING, TWO_PHASE), (4, 2, INTERLEAVING, INSTANT), (3, 3, CONCURRENT, INSTANT),
    (3, 2, INTERLEAVING, TWO_PHASE),
] + [(3, 3, INTERLEAVING, TWO_PHASE)] * 5

REACH_CORPUS = [
    ("grade_thesis.ad", INTERLEAVING, INSTANT), ("grade_thesis.ad", CONCURRENT, INSTANT),
    ("grade_thesis.ad", INTERLEAVING, TWO_PHASE), ("grade_thesis.ad", CONCURRENT, TWO_PHASE),
    ("fac.ad", INTERLEAVING, INSTANT), ("fac.ad", CONCURRENT, TWO_PHASE),
    ("split_join.ad", INTERLEAVING, INSTANT), ("minimal.ad", CONCURRENT, TWO_PHASE),
]

# check.  Each entry may also get a mutated copy that must be violated.
# Token runs of fork4x2 (fixed length, about 15 ms each) fill the middle
# of the job-cost order, so the median lands among copies of one kind of
# job; the fac n=100..103 traces are the biggest jobs, for the same reason
# at the tail.
CHECK_V1 = [(10, True), (30, True), (100, True), (101, True), (102, True), (103, True)]
CHECK_V2 = [((2, 2), True), ((3, 2), False), ((4, 2), True), ((3, 3), True),
            ("passed", True), ("failed", True)]
CHECK_TOKEN = [(2, 3, True), (3, 2, False), (5, 2, True), (4, 2, True)] + [(4, 2, False)] * 8

# execute.  Copies of a two-accumulator loop fill the middle of the
# job-cost order, and fac n=400..402 its top.
EXEC_FAC = [10, 50, 200, 300, 400, 401, 402]
EXEC_LOOPS = [(50, 2)] * 7 + [(120, 1), (60, 3)]           # (n, accumulators)
EXEC_V2_FORKS = [(2, 2), (3, 2), (4, 2), (3, 3), (5, 2), (4, 3), (5, 3)]
EXEC_SIM = [(3, 3, INSTANT), (5, 2, INSTANT), (4, 3, INSTANT),
            (3, 2, TWO_PHASE), (4, 2, TWO_PHASE), (5, 3, TWO_PHASE), (6, 3, TWO_PHASE)]

SATISFIED = {"verdict": "satisfied", "index": None, "node": None, "predicate": None}


class SetupError(Exception):
    """The program gave a wrong answer while set-up recorded its inputs."""


# (exit code, stdout) -> work units done when the answer is right, else
# a description of what is wrong.
Check = Callable[[int, str], "int | str"]


@dataclass
class Job:
    label: str
    argv: list[str]
    check: Check
    binding: str | None = None                 # check-trace only: token, v1 or v2


def call_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """Run `adsem.cli.main(argv)` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _expect_json(expected_code: int, expected: dict, work: int) -> Check:
    def check(code: int, stdout: str) -> int | str:
        if code != expected_code:
            return f"exit {code}, expected {expected_code}"
        got = json.loads(stdout)
        return work if got == expected else f"got {got}, expected {expected}"
    return check


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows), encoding="utf-8")


def _v2_is_final(state: dict, final_input: str) -> bool:
    """One token on the final node's edge, every other mailbox empty and
    no method frame left on any stack."""
    boxes = inputs.MailboxView(state)
    stacks_empty = all(not frames for threads in state["cs"].values() for frames in threads.values())
    return stacks_empty and all(len(toks) == (1 if key == final_input else 0)
                                for key, toks in boxes.items())


# ---------------------------------------------------------------------------
# reach
# ---------------------------------------------------------------------------

def _reach_check(expected: dict) -> Check:
    def check(code: int, stdout: str) -> int | str:
        if code != 0:
            return f"exit {code}"
        got = json.loads(stdout)
        got = {**got, "deadlocks": len(got["deadlocks"])}
        return expected["edges"] if got == expected else f"got {got}, expected {expected}"
    return check


def _build_reach(rng: random.Random, workdir: Path, main) -> list[Job]:
    jobs = []
    for name, mode, actions in REACH_CORPUS:
        path = workdir / name
        path.write_text(inputs.corpus_text(name), encoding="utf-8")
        expected = inputs.corpus_reach_report(name, mode, actions)
        jobs.append(Job(f"reach {name} {mode}/{actions}",
                        ["reach", str(path), "--mode", mode, "--actions", actions],
                        _reach_check(expected)))
    for k, c, mode, actions in REACH_FORKS:
        fam = ForkFamily(k, c, inputs.new_tag(rng), rng.randrange(1 << 30))
        path = workdir / f"fork{k}x{c}_{fam.tag}.ad"
        path.write_text(fam.text(), encoding="utf-8")
        expected = fam.reach_report(mode, actions)
        jobs.append(Job(f"reach fork{k}x{c} {mode}/{actions}",
                        ["reach", str(path), "--mode", mode, "--actions", actions],
                        _reach_check(expected)))
    return jobs


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _record(main, argv: list[str]) -> str:
    code, out, err = call_cli(main, argv)
    if code != 0:
        raise SetupError(f"adsem {' '.join(argv)}: exit {code}: {err.strip()}")
    return out


def _check_jobs(label: str, binding: str, diagram: Path, trace: Path, extra: list[str],
                steps: int, mutation: tuple[Path, inputs.Violation] | None) -> list[Job]:
    """The job judging a recorded trace, and the one judging its mutated
    copy when there is one."""
    def argv(path: Path) -> list[str]:
        return ["check-trace", str(diagram), str(path), "--variant", binding, *extra]
    jobs = [Job(f"check {label}", argv(trace), _expect_json(0, SATISFIED, steps), binding)]
    if mutation:
        path, violation = mutation
        jobs.append(Job(f"check {label} mutated", argv(path),
                        _expect_json(2, violation.to_json(), violation.index + 1), binding))
    return jobs


def _build_check(rng: random.Random, workdir: Path, main) -> list[Job]:
    jobs = []
    fac = workdir / "fac.ad"
    fac_text = inputs.corpus_text("fac.ad")
    fac.write_text(fac_text, encoding="utf-8")
    for n, mutate in CHECK_V1:
        trace = workdir / f"v1_fac{n}.jsonl"
        out = _record(main, ["run-v1", str(fac), f"n={n}", "--trace", str(trace)])
        store, length = inputs.fac_answer(n)
        if json.loads(out) != {"store": store, "states": length, "truncated": False}:
            raise SetupError(f"run-v1 fac n={n}: {out.strip()}")
        mutation = None
        if mutate:
            header, *states = _read_jsonl(trace)
            mutated, violation = inputs.rewind_pc(rng, inputs.node_kinds(fac_text), header,
                                                  states, n)
            mutation = (trace.with_suffix(".mut.jsonl"), violation)
            _write_jsonl(mutation[0], [header, *mutated])
        jobs += _check_jobs(f"v1 fac n={n}", "v1", fac, trace, [], length - 1, mutation)

    grade = inputs.corpus_text("grade_thesis.ad")
    grade_actions = [n for n, kind in inputs.node_kinds(grade).items() if kind == "action"]
    for i, (shape, mutate) in enumerate(CHECK_V2):
        if shape in ("passed", "failed"):
            label, text = f"v2 grade_thesis {shape}", grade
            final_input = inputs.GRADE_FINAL_INPUT[shape]
            scenario = inputs.scenario(rng, grade_actions, {"D1": shape})
        else:
            k, c = shape
            fam = ForkFamily(k, c, inputs.new_tag(rng), rng.randrange(1 << 30), roles=True)
            label, text, final_input = f"v2 fork{k}x{c}", fam.text(), fam.final_input
            scenario = inputs.scenario(rng, [fam.action(a, b) for a in range(k) for b in range(c)],
                                       {})
        diagram, sc, trace = (workdir / f"v2_{i}.ad", workdir / f"v2_{i}.scenario.json",
                              workdir / f"v2_{i}.jsonl")
        diagram.write_text(text, encoding="utf-8")
        sc.write_text(json.dumps(scenario), encoding="utf-8")
        out = json.loads(_record(main, ["run-v2", str(diagram), str(sc), "--trace", str(trace)]))
        header, *states = _read_jsonl(trace)
        if (out != {"states": len(states), "truncated": False}
                or not _v2_is_final(states[-1], final_input)):
            raise SetupError(f"run-v2 {label}: {out} did not end final")
        mutation = None
        if mutate:
            mutated, violation = inputs.duplicate_token(rng, inputs.node_kinds(text), states,
                                                        inputs.MailboxView)
            mutation = (trace.with_suffix(".mut.jsonl"), violation)
            _write_jsonl(mutation[0], [header, *mutated])
        jobs += _check_jobs(label, "v2", diagram, trace, [], len(states) - 1, mutation)

    for i, (k, c, mutate) in enumerate(CHECK_TOKEN):
        fam = ForkFamily(k, c, inputs.new_tag(rng), rng.randrange(1 << 30))
        diagram, trace = workdir / f"tok_{i}.ad", workdir / f"tok_{i}.jsonl"
        diagram.write_text(fam.text(), encoding="utf-8")
        _record(main, ["simulate", str(diagram), "--actions", TWO_PHASE,
                       "--seed", str(rng.randrange(1 << 30)), "--out", str(trace)])
        configs = _read_jsonl(trace)
        if len(configs) != fam.run_length(TWO_PHASE) or configs[-1] != _final_config(fam):
            raise SetupError(f"simulate fork{k}x{c}: {len(configs)} configurations ending in "
                             f"{configs[-1]}, expected {fam.run_length(TWO_PHASE)} ending final")
        mutation = None
        if mutate:
            mutated, violation = inputs.duplicate_token(rng, inputs.node_kinds(fam.text()),
                                                        configs, inputs.token_buffers)
            mutation = (trace.with_suffix(".mut.jsonl"), violation)
            _write_jsonl(mutation[0], mutated)
        jobs += _check_jobs(f"token fork{k}x{c}", "token", diagram, trace,
                            ["--actions", TWO_PHASE], len(configs) - 1, mutation)
    return jobs


# ---------------------------------------------------------------------------
# execute
# ---------------------------------------------------------------------------

def _v1_check(store: dict, length: int, trace: Path) -> Check:
    expected = {"store": store, "states": length, "truncated": False}

    def check(code: int, stdout: str) -> int | str:
        result = _expect_json(0, expected, length)(code, stdout)
        if isinstance(result, str):
            return result
        lines = len(trace.read_text(encoding="utf-8").splitlines())
        return length if lines == length + 1 else f"trace has {lines} lines, expected {length + 1}"
    return check


def _v2_check(trace: Path, final_input: str) -> Check:
    def check(code: int, stdout: str) -> int | str:
        if code != 0:
            return f"exit {code}"
        out = json.loads(stdout)
        header, *states = _read_jsonl(trace)
        if out != {"states": len(states), "truncated": False} or header["truncated"]:
            return f"got {out}, trace of {len(states)} states"
        return len(states) if _v2_is_final(states[-1], final_input) else "run did not end final"
    return check


def _final_config(fam: ForkFamily) -> dict:
    """A token-game run's last configuration: the join's token waiting at
    the final node, no action executing."""
    return {"buffers": {fam.final_input: ["control"]},
            "exec": {fam.action(i, j): False for i in range(fam.k) for j in range(fam.c)}}


def _sim_check(trace: Path, fam: ForkFamily, actions: str) -> Check:
    final = _final_config(fam)

    def check(code: int, stdout: str) -> int | str:
        if code != 0:
            return f"exit {code}"
        configs = _read_jsonl(trace)
        if len(configs) != fam.run_length(actions):
            return f"{len(configs)} configurations, expected {fam.run_length(actions)}"
        return len(configs) if configs[-1] == final else f"last configuration {configs[-1]}"
    return check


def _build_execute(rng: random.Random, workdir: Path, main) -> list[Job]:
    jobs = []
    fac = workdir / "fac.ad"
    fac.write_text(inputs.corpus_text("fac.ad"), encoding="utf-8")
    for n in EXEC_FAC:
        trace = workdir / f"v1_fac{n}.jsonl"
        store, length = inputs.fac_answer(n)
        jobs.append(Job(f"run-v1 fac n={n}", ["run-v1", str(fac), f"n={n}", "--trace", str(trace)],
                        _v1_check(store, length, trace)))
    for n, b in EXEC_LOOPS:
        loop = LoopFamily(n, tuple(1 + rng.randrange(9) for _ in range(b)), inputs.new_tag(rng))
        path, trace = workdir / f"loop{b}_{loop.tag}.ad", workdir / f"v1_loop{b}.jsonl"
        path.write_text(loop.text(), encoding="utf-8")
        store, length = loop.answer()
        jobs.append(Job(f"run-v1 loop b={b} n={n}",
                        ["run-v1", str(path), f"i={n}", "--trace", str(trace)],
                        _v1_check(store, length, trace)))
    for k, c in EXEC_V2_FORKS:
        fam = ForkFamily(k, c, inputs.new_tag(rng), rng.randrange(1 << 30), roles=True)
        stem = f"fork{k}x{c}_{fam.tag}"
        path, sc, trace = (workdir / f"{stem}.ad", workdir / f"{stem}.scenario.json",
                           workdir / f"v2_{stem}.jsonl")
        path.write_text(fam.text(), encoding="utf-8")
        actions = [fam.action(i, j) for i in range(k) for j in range(c)]
        sc.write_text(json.dumps(inputs.scenario(rng, actions, {})), encoding="utf-8")
        jobs.append(Job(f"run-v2 fork{k}x{c}",
                        ["run-v2", str(path), str(sc), "--trace", str(trace)],
                        _v2_check(trace, fam.final_input)))
    for k, c, actions in EXEC_SIM:
        fam = ForkFamily(k, c, inputs.new_tag(rng), rng.randrange(1 << 30))
        path, out = workdir / f"sim{k}x{c}_{fam.tag}.ad", workdir / f"sim{k}x{c}{actions}.jsonl"
        path.write_text(fam.text(), encoding="utf-8")
        jobs.append(Job(f"simulate fork{k}x{c} {actions}",
                        ["simulate", str(path), "--mode", INTERLEAVING, "--actions", actions,
                         "--seed", str(rng.randrange(1 << 30)), "--out", str(out)],
                        _sim_check(out, fam, actions)))
    return jobs


def build(workload: str, seed: int, workdir: Path, main) -> list[Job]:
    """Write the workload's inputs under `workdir` and return one round of
    jobs in seeded order.  `main` is `adsem.cli.main`; only `check` calls
    it here, to record the traces it will later judge."""
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = {"reach": _build_reach, "check": _build_check, "execute": _build_execute}[workload](
        rng, workdir, main)
    rng.shuffle(jobs)
    return jobs
