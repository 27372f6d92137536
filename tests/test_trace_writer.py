"""The trace writer against the reader and the per-state JSON form.

`sysmodel.states_to_jsonl` joins memoised fragments, so it is checked
line by line against `json.dumps(state_to_json(s), sort_keys=True)` on
generated runs: variant-1 counting loops (store values, loop lengths,
a counter held in an attribute or a local), variant-2 scenarios
(seeds, durations, decisions, caller mode, sub-variant) and states read
from generated JSON (any value in the data store).  Each line must
read back to its state, and `check-trace` must accept the file that
`run-v1` or `run-v2` writes.  The memoised reader `sysmodel.state_reader`
is checked against the per-line path on the same runs, on single-edit
mutants of their lines and on fixed lines that its cut must not misread.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from adsem import cli, diagram, variant1, variant2
from adsem.sysmodel import state_from_json, state_reader, state_to_json, states_to_jsonl

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


@st.composite
def v1_runs(draw) -> tuple[str, dict]:
    """A counting loop's diagram text and its initial store."""
    text = loop_text(draw(st.lists(st.integers(0, 9), min_size=1, max_size=3)), draw(st.booleans()))
    extra = draw(st.dictionaries(st.sampled_from(["x", "y", "acc0"]),
                                 st.integers(-10**30, 10**30), max_size=2))
    return text, {**extra, "n": draw(st.integers(-2, 12))}


def v1_states(text: str, store: dict):
    ad = diagram.parse(text)
    return variant1.run_method(ad, variant1.method_instance(ad), store).states


@settings(max_examples=40, deadline=None)
@given(run=v1_runs())
def test_v1_writer_matches_json_dumps_and_the_reader(run):
    text, store = run
    states = v1_states(text, store)
    assert_written_like_json_dumps(states)
    with tempfile.TemporaryDirectory() as tmp:
        path, trace = Path(tmp) / "loop.ad", Path(tmp) / "trace.jsonl"
        path.write_text(text, encoding="utf-8")
        code, _ = _cli("run-v1", str(path), *[f"{k}={v}" for k, v in store.items()],
                       "--trace", str(trace))
        assert code == 0
        assert trace.read_text(encoding="utf-8").splitlines()[1:] == [
            json.dumps(state_to_json(s), sort_keys=True) for s in states]
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


def v2_states(path: Path, scenario: dict):
    ad = diagram.parse(path.read_text(encoding="utf-8"))
    sc = variant2.Scenario.from_json(ad, scenario)
    return variant2.simulate(ad, variant2.standard_instance(ad, sc), sc).states


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=v2_runs())
def test_v2_writer_matches_json_dumps_and_the_reader(run, monkeypatch):
    monkeypatch.delenv("ADSEM_SEED", raising=False)
    path, scenario = run
    states = v2_states(path, scenario)
    assert_written_like_json_dumps(states)
    with tempfile.TemporaryDirectory() as tmp:
        sc_file, written = Path(tmp) / "scenario.json", Path(tmp) / "trace.jsonl"
        sc_file.write_text(json.dumps(scenario), encoding="utf-8")
        assert _cli("run-v2", str(path), str(sc_file), "--trace", str(written))[0] == 0
        assert written.read_text(encoding="utf-8").splitlines()[1:] == [
            json.dumps(state_to_json(s), sort_keys=True) for s in states]
        assert_checked_satisfied(path, written, "v2")


NAMES = st.text(min_size=1, max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3), lambda inner: st.lists(inner, max_size=2) | st.dictionaries(NAMES, inner, max_size=2),
    max_leaves=4)
FRAMES = st.fixed_dictionaries({"callee": NAMES, "m": NAMES, "pc": NAMES, "caller": NAMES,
                                "vars": st.dictionaries(NAMES, st.integers() | st.booleans(), max_size=2)})
JSON_STATES = st.fixed_dictionaries({
    "ds": st.dictionaries(NAMES, st.dictionaries(NAMES, JSON_VALUES, max_size=3), max_size=2),
    "cs": st.dictionaries(NAMES, st.dictionaries(NAMES, st.lists(FRAMES, max_size=2), max_size=2), max_size=2),
    "es": st.dictionaries(NAMES, st.lists(NAMES, max_size=2), max_size=2)})


@settings(max_examples=60, deadline=None)
@given(docs=st.lists(JSON_STATES, min_size=1, max_size=4))
@example(docs=[{"ds": {"o": {"t": True, "1": 1, "f": 1.0, "é": [False, 0, {"b": None, "a": "\""}]}},
                "cs": {}, "es": {"o": ["ping"]}}])
def test_writer_matches_json_dumps_on_states_read_from_json(docs):
    """Any JSON value in the data store (`1` and `true` side by side, floats, nested
    objects, non-ASCII keys), and states that share stores."""
    states = [state_from_json(d) for d in docs]
    assert_written_like_json_dumps(states + states[::-1] + [s.set_attr("o", "x", 1) for s in states])


# ---------------------------------------------------------------------------
# The memoised reader against the per-line path
# ---------------------------------------------------------------------------

def assert_read_like_each_line(lines: list[str]) -> None:
    """One reader, fed the lines in order, returns what `state_from_json(json.loads(line))`
    returns for each, or raises an exception of the same type and message."""
    read = state_reader()
    for line in lines:
        try:
            expected = state_from_json(json.loads(line))
        except Exception as e:
            with pytest.raises(Exception) as got:
                read(line)
            assert (type(got.value), str(got.value)) == (type(e), str(e)), line
        else:
            assert read(line) == expected, line


EDIT_CHARS = '{}[],:" \\0-1aen'


@st.composite
def with_mutants(draw, lines: list[str]) -> list[str]:
    """The lines, each followed by up to two single-character deletions, insertions
    or replacements of it, so that the reader also meets them after its memos fill."""
    out = []
    for line in lines:
        out.append(line)
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(line) - 1))
            edit = draw(st.sampled_from(["delete", "insert", "replace"]))
            c = "" if edit == "delete" else draw(st.sampled_from(EDIT_CHARS))
            out.append(line[:i] + c + line[i + (edit != "insert"):])
    return out


@settings(max_examples=40, deadline=None)
@given(run=v1_runs(), data=st.data())
def test_v1_reader_matches_the_per_line_path(run, data):
    lines = states_to_jsonl(v1_states(*run)).splitlines()
    assert_read_like_each_line(data.draw(with_mutants(lines)))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=v2_runs(), data=st.data())
def test_v2_reader_matches_the_per_line_path(run, data, monkeypatch):
    monkeypatch.delenv("ADSEM_SEED", raising=False)
    lines = states_to_jsonl(v2_states(*run)).splitlines()
    assert_read_like_each_line(data.draw(with_mutants(lines)))


FRAME = '{"callee": "o", "caller": "c", "m": "m", "pc": "p", "vars": {"k": 1}}'
CS = '{"o": {"t": [' + FRAME + ']}}'


@pytest.mark.parametrize("line", [
    '{"cs": ' + CS + ', "ds": {"o": {"n": 3}}, "es": {}}',
    '{"es": {}, "ds": {"o": {"n": 3}}, "cs": ' + CS + '}',
    '{"ds": {"o": {"n": 3}}, "cs": ' + CS + ', "es": {"o": ["x"]}}',
    '{"cs":' + CS + ',"ds":{"o":{"n":3}},"es":{}}',
    '{"cs":  ' + CS + ' , "ds": {"o": {"n": 3}} , "es": {} }',
    ' {"cs": ' + CS + ', "ds": {"o": {"n": 3}}, "es": {}} ',
    '{"cs": {"o": {"t": []}, "ds": {"t": []}}, "ds": {"o": {"n": 3}}, "es": {}}',
    '{"cs": {"o": {"t": []}, "es": {"t": []}}, "ds": {"o": {"n": 3}}, "es": {}}',
    '{"cs": {}, "ds": {"o": {"n": 3}, "ds": {"n": 4}}, "es": {}}',
    '{"cs": {}, "ds": {"o": {"n": 3}, "es": {"n": 4}}, "es": {"o": []}}',
    '{"cs": {}, "ds": {"o": {"s": ", \\"ds\\": "}}, "es": {}}',
    '{"cs": {}, "ds": {"o": {"n": 3}}, "es": {}, "ds": {"o": {"n": 4}}}',
    '{"cs": {}, "cs": ' + CS + ', "ds": {}, "es": {}}',
    '{"cs": {}, "ds": {"o": {"n": 3}}, "ds": {"o": {"n": 4}}, "es": {}}',
    '{"cs": ' + CS + ', "ds": {, "es": {}}',
    '{"cs": ' + CS + ', "ds": {"o": {"n": 3}}, "es": {"o": "ab"}}',
    '{"cs": ' + CS + ', "ds": {"o": [["n", 3]]}, "es": {}}',
    '{"cs": {"o": {"t": ""}}, "ds": {}, "es": {}}',
    '{"cs": {"o": {"t": [{"m": "x"}]}}, "ds": {}, "es": {}}',
    '{"cs": {}, "ds": {}, "es": {}}extra',
    '{"cs": {}, "ds": {}, "es": {}',
    '{"cs": {}, "ds": {}, "es": {}]',
    '["cs": {}, "ds": {}, "es": {}}',
    '[{"cs": {}, "ds": {}, "es": {}}]',
], ids=["template", "reversed-keys", "other-order", "no-spaces", "inner-whitespace",
        "outer-whitespace", "ds-key-in-cs", "es-key-in-cs", "ds-key-in-ds", "es-key-in-ds",
        "cut-text-in-a-string", "duplicate-ds-last", "duplicate-cs", "duplicate-ds-first",
        "broken-fragment", "string-events", "store-of-pairs", "string-stack",
        "frame-missing-key", "trailing-text", "unclosed", "closed-by-bracket",
        "opened-by-bracket", "array"])
def test_reader_matches_the_per_line_path_on_odd_lines(line):
    template = '{"cs": ' + CS + ', "ds": {"o": {"n": 3}}, "es": {}}'
    assert_read_like_each_line([line, template, line])


def test_reader_decodes_each_distinct_store_text_once():
    read = state_reader()
    lines = states_to_jsonl(v1_states(loop_text([2], True), {"n": 3})).splitlines()
    seen: dict[tuple[str, str], object] = {}
    for line in lines:
        state = read(line)
        text = json.loads(line)
        for key, store in (("cs", state.control_store), ("ds", state.data_store),
                           ("es", state.event_store)):
            assert seen.setdefault((key, json.dumps(text[key], sort_keys=True)), store) is store
    assert len(seen) < 3 * len(lines)
