"""The trace writer against the reader and the per-state JSON form.

`sysmodel.states_to_jsonl` joins memoised fragments, so it is checked
line by line against `json.dumps(state_to_json(s), sort_keys=True)` on
generated runs: variant-1 counting loops (store values, loop lengths,
a counter held in an attribute or a local) and variant-2 scenarios
(seeds, durations, decisions, caller mode, sub-variant).  Each line must
read back to its state, and `check-trace` must accept the file that
`run-v1` or `run-v2` writes.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adsem import cli, diagram, variant1, variant2
from adsem.sysmodel import state_from_json, state_to_json, states_to_jsonl

from .conftest import CORPUS

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def loop_text(multipliers: list[int], local_counter: bool) -> str:
    """Zero one accumulator per multiplier, then while the counter is
    positive add counter * multiplier to each and decrement the counter.
    The counter is the attribute `n`, or a local `k` copied from it."""
    counter = "k" if local_counter else "n"
    decrement = "local k := k - 1" if local_counter else "n := n - 1"
    chain = [f'action Z{j} in g out p effect "acc{j} := 0";' for j in range(len(multipliers))]
    if local_counter:
        chain.append('action K in g out p effect "local k := n";')
    body = [f'action B{j} in g out p effect "acc{j} := acc{j} + {counter} * {m}";'
            for j, m in enumerate(multipliers)] + [f'action D in g out p effect "{decrement}";']
    names = [decl.split()[1] for decl in chain + body]
    head, loop = names[:len(chain)], names[len(chain):]
    edges = ([f"S.o -> {head[0]}.g;"] + [f"{a}.p -> {b}.g;" for a, b in zip(head, head[1:])]
             + [f"{head[-1]}.p -> H.a;", f"H.body -> {loop[0]}.g;"]
             + [f"{a}.p -> {b}.g;" for a, b in zip(loop, loop[1:])]
             + [f"{loop[-1]}.p -> H.b;", "H.exit -> X.e;"])
    lines = (["activity Loop {", "initial S out o;"] + chain
             + [f'decisionmerge H in a, b out body guard "{counter} > 0", '
                f'exit guard "{counter} <= 0";'] + body + ["final X in e;"] + edges + ["}"])
    return "\n".join(lines) + "\n"


def _cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def assert_written_like_json_dumps(states) -> None:
    lines = states_to_jsonl(states).splitlines()
    assert lines == [json.dumps(state_to_json(s), sort_keys=True) for s in states]
    assert [state_from_json(json.loads(line)) for line in lines] == list(states)


def assert_checked_satisfied(path: Path, trace: Path, variant: str) -> None:
    code, out = _cli("check-trace", str(path), str(trace), "--variant", variant)
    assert (code, json.loads(out)["verdict"]) == (0, "satisfied")


@settings(max_examples=40, deadline=None)
@given(multipliers=st.lists(st.integers(0, 9), min_size=1, max_size=3),
       n=st.integers(-2, 12), extra=st.dictionaries(st.sampled_from(["x", "y", "acc0"]),
                                                    st.integers(-10**30, 10**30), max_size=2),
       local_counter=st.booleans())
def test_v1_writer_matches_json_dumps_and_the_reader(multipliers, n, extra, local_counter):
    text = loop_text(multipliers, local_counter)
    ad = diagram.parse(text)
    store = {**extra, "n": n}
    run = variant1.run_method(ad, variant1.method_instance(ad), store)
    assert_written_like_json_dumps(run.states)
    with tempfile.TemporaryDirectory() as tmp:
        path, trace = Path(tmp) / "loop.ad", Path(tmp) / "trace.jsonl"
        path.write_text(text, encoding="utf-8")
        code, _ = _cli("run-v1", str(path), *[f"{k}={v}" for k, v in store.items()],
                       "--trace", str(trace))
        assert code == 0
        assert trace.read_text(encoding="utf-8").splitlines()[1:] == [
            json.dumps(state_to_json(s), sort_keys=True) for s in run.states]
        assert_checked_satisfied(path, trace, "v1")


GRADE_ACTIONS = ["FileThesis", "ReviewThesis1", "ReviewThesis2", "Evaluate", "CreateCert",
                 "DetainFailure"]
FORK_ACTIONS = ["A0_0", "A0_1", "A1_0", "A1_1"]


@st.composite
def v2_runs(draw) -> tuple[Path, dict]:
    path, actions = draw(st.sampled_from([(CORPUS / "grade_thesis.ad", GRADE_ACTIONS),
                                          (FIXTURES / "fork2x2_roles.ad", FORK_ACTIONS)]))
    scenario = {"seed": draw(st.integers(0, 2**31)),
                "durations": draw(st.dictionaries(st.sampled_from(actions), st.integers(0, 4))),
                "sub_variant": draw(st.booleans()),
                "caller_mode": draw(st.sampled_from(["role", "command"]))}
    if path.stem == "grade_thesis":
        scenario["decisions"] = {"D1": draw(st.sampled_from(["passed", "failed"]))}
    return path, scenario


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=v2_runs())
def test_v2_writer_matches_json_dumps_and_the_reader(run, monkeypatch):
    monkeypatch.delenv("ADSEM_SEED", raising=False)
    path, scenario = run
    ad = diagram.parse(path.read_text(encoding="utf-8"))
    sc = variant2.Scenario.from_json(ad, scenario)
    trace = variant2.simulate(ad, variant2.standard_instance(ad, sc), sc)
    assert_written_like_json_dumps(trace.states)
    with tempfile.TemporaryDirectory() as tmp:
        sc_file, written = Path(tmp) / "scenario.json", Path(tmp) / "trace.jsonl"
        sc_file.write_text(json.dumps(scenario), encoding="utf-8")
        assert _cli("run-v2", str(path), str(sc_file), "--trace", str(written))[0] == 0
        assert written.read_text(encoding="utf-8").splitlines()[1:] == [
            json.dumps(state_to_json(s), sort_keys=True) for s in trace.states]
        assert_checked_satisfied(path, written, "v2")
