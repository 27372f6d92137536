from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adsem
from adsem.cli import _build_parser, main
from adsem.diagram import parse
from adsem.tokengame import initial_config, successors

from .conftest import CORPUS

GRADE = str(CORPUS / "grade_thesis.ad")
FAC = str(CORPUS / "fac.ad")
MINIMAL = str(CORPUS / "minimal.ad")


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# validate / render
# ---------------------------------------------------------------------------

def test_validate_clean_exits_zero(capsys):
    code, out = run(capsys, "validate", GRADE)
    assert code == 0
    assert json.loads(out) == {"diagnostics": []}


def test_validate_variant1_profile_flags_grade(capsys):
    code, out = run(capsys, "validate", GRADE, "--profile", "variant1")
    assert code == 1
    codes = {d["code"] for d in json.loads(out)["diagnostics"]}
    assert "v1-forkjoin" in codes


def test_validate_variant1_fac_clean(capsys):
    code, out = run(capsys, "validate", FAC, "--profile", "variant1")
    assert code == 0


def test_validate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.ad"
    bad.write_text("activity X { action ; }")
    code, out = run(capsys, "validate", str(bad))
    assert code == 1
    assert json.loads(out)["diagnostics"][0]["code"] == "syntax-error"


def test_render_dot(capsys):
    code, out = run(capsys, "render", GRADE)
    assert code == 0
    assert out.startswith("digraph") and "cluster_" in out


# ---------------------------------------------------------------------------
# run-v1
# ---------------------------------------------------------------------------

def test_run_v1_factorial(capsys):
    code, out = run(capsys, "run-v1", FAC, "n=5")
    assert code == 0
    payload = json.loads(out)
    assert payload["store"]["res"] == 120
    assert payload["truncated"] is False


def test_run_v1_rejects_non_variant1_diagram(capsys):
    code, out = run(capsys, "run-v1", GRADE, "n=1")
    assert code == 1


def test_run_v1_bad_store_pair(capsys):
    code, _ = run(capsys, "run-v1", FAC, "n=five")
    assert code == 3


def test_run_v1_rejects_a_repeated_store_key(capsys):
    code = main(["run-v1", FAC, "n=3", "n=4"])
    assert (code, *capsys.readouterr()) == (3, "", "error: repeated key 'n'\n")


def test_run_v1_rejects_a_negative_max_steps(tmp_path, capsys):
    trace = tmp_path / "fac.trace.jsonl"
    code = main(["run-v1", FAC, "n=3", "--max-steps", "-1", "--trace", str(trace)])
    assert (code, *capsys.readouterr()) == (3, "", "error: max_steps must be >= 0\n")
    assert not trace.exists()
    code, out = run(capsys, "run-v1", FAC, "n=3", "--max-steps", "0", "--trace", str(trace))
    assert (code, json.loads(out)["states"], json.loads(out)["truncated"]) == (0, 1, True)
    assert len(trace.read_text(encoding="utf-8").splitlines()) == 2


def test_run_v1_prints_and_reads_integers_of_any_length(tmp_path, capsys):
    trace = tmp_path / "fac.trace.jsonl"
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, "run-v1", FAC, "n=1700", "--trace", str(trace))
    assert (code, sys.get_int_max_str_digits()) == (0, limit)
    res = json.loads(out, parse_int=str)["store"]["res"]
    assert len(res) > 4300
    sys.set_int_max_str_digits(0)
    try:
        assert int(res) == math.factorial(1700)
    finally:
        sys.set_int_max_str_digits(limit)
    code, out = run(capsys, "check-trace", FAC, str(trace), "--variant", "v1")
    assert (code, json.loads(out)["verdict"], sys.get_int_max_str_digits()) == (0, "satisfied", limit)


def test_run_v1_check_trace_pipeline(tmp_path, capsys):
    trace = tmp_path / "fac.trace.jsonl"
    code, _ = run(capsys, "run-v1", FAC, "n=4", "--trace", str(trace))
    assert code == 0
    code, out = run(capsys, "check-trace", FAC, str(trace), "--variant", "v1")
    assert code == 0
    assert json.loads(out)["verdict"] == "satisfied"


@pytest.mark.parametrize("edit,reason", [
    (lambda pc_map: {**pc_map, "ghost": "pc:zzz"}, "missing [], unknown ['ghost'], shared []"),
    (lambda pc_map: {**pc_map, "DecN": "pc:MulRes"},
     "missing [], unknown [], shared ['pc:MulRes']"),
    (lambda pc_map: {"ghost": "pc:MulRes", **pc_map},
     "missing [], unknown ['ghost'], shared ['pc:MulRes']"),
], ids=["extra-node", "shared-pc", "extra-node-first"])
def test_v1_trace_header_pc_map_must_match_the_diagram(tmp_path, capsys, edit, reason):
    trace = tmp_path / "fac.jsonl"
    run(capsys, "run-v1", FAC, "n=3", "--trace", str(trace))
    header, *states = trace.read_text().splitlines()
    header = json.loads(header)
    header["params"]["pc_map"] = edit(header["params"]["pc_map"])
    trace.write_text("\n".join([json.dumps(header), *states]) + "\n")
    code = main(["check-trace", FAC, str(trace), "--variant", "v1"])
    assert code == 3
    assert capsys.readouterr() == (
        "", f"error: {trace}:1: pc_map does not give each node a pc of its own: {reason}\n")


# ---------------------------------------------------------------------------
# simulate / check-trace on token runs
# ---------------------------------------------------------------------------

def test_simulate_check_trace_pipeline(tmp_path, capsys):
    out_file = tmp_path / "run.jsonl"
    code, _ = run(capsys, "simulate", GRADE, "--seed", "4", "--out", str(out_file))
    assert code == 0
    code, out = run(capsys, "check-trace", GRADE, str(out_file), "--variant", "token")
    assert code == 0
    assert json.loads(out)["verdict"] == "satisfied"


OPAQUE = """
    activity Opaque {
        initial i out s;
        decisionmerge D in v out no guard "false", big guard "x > 1";
        action A in x out y;
        final f in z;
        final g in w;
        i.s -> D.v;
        D.no -> A.x;
        A.y -> f.z;
        D.big -> g.w;
    }
"""


def test_guards_are_opaque_to_the_token_game(tmp_path, capsys):
    # a configuration holds no data: even a literal "false" guard is a branch it may take
    ad = parse(OPAQUE)
    outs = {next(iter(chs)).out_edge for chs, _ in successors(ad, initial_config(ad))}
    assert outs == {"D.no->A.x", "D.big->g.w"}
    path = tmp_path / "opaque.ad"
    path.write_text(OPAQUE)
    code, out = run(capsys, "reach", str(path))
    assert (code, json.loads(out)["decision_coverage"]) == (0, {"D.no": True, "D.big": True})
    taken = set()
    for seed in range(8):
        trace = tmp_path / f"run{seed}.jsonl"
        run(capsys, "simulate", str(path), "--seed", str(seed), "--out", str(trace))
        taken.add("D.big->g.w" in trace.read_text())
        code, out = run(capsys, "check-trace", str(path), str(trace), "--variant", "token")
        assert (code, json.loads(out)["verdict"]) == (0, "satisfied")
    assert taken == {True, False}


def test_check_trace_detects_mutation(tmp_path, capsys):
    out_file = tmp_path / "run.jsonl"
    run(capsys, "simulate", GRADE, "--out", str(out_file))
    lines = out_file.read_text().strip().splitlines()
    mutated = lines[:1] + lines[2:]  # skip over the causally required state
    out_file.write_text("\n".join(mutated) + "\n")
    code, out = run(capsys, "check-trace", GRADE, str(out_file), "--variant", "token")
    assert code == 2
    payload = json.loads(out)
    assert payload["verdict"] == "violated"
    assert payload["node"] and payload["predicate"]


def test_check_trace_rejects_a_one_step_action_that_flips_its_flag(tmp_path, capsys):
    # FileThesis consumes its input and produces its output in one step, as
    # a one-step action does, but also reports executing afterwards
    out_file = tmp_path / "run.jsonl"
    run(capsys, "simulate", GRADE, "--out", str(out_file))
    configs = [json.loads(line) for line in out_file.read_text().splitlines()][:2]
    assert configs[1]["buffers"] and configs[1]["exec"]["FileThesis"] is False
    configs[1]["exec"]["FileThesis"] = True
    out_file.write_text("".join(json.dumps(c) + "\n" for c in configs))
    code, out = run(capsys, "check-trace", GRADE, str(out_file), "--variant", "token")
    assert code == 2
    assert json.loads(out) == {"verdict": "violated", "index": 0, "node": "FileThesis",
                               "predicate": "step:action"}


@pytest.mark.parametrize("command", ["simulate", "reach"])
@pytest.mark.parametrize("bound", ["0", "-2"])
def test_a_bound_below_one_is_a_usage_error(capsys, command, bound):
    code = main([command, GRADE, "--bound", bound])
    assert code == 3
    assert capsys.readouterr() == ("", "error: bound must be >= 1\n")


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    monkeypatch.setenv("ADSEM_SEED", "9")
    run(capsys, "simulate", GRADE, "--seed", "0", "--out", str(a))
    monkeypatch.delenv("ADSEM_SEED")
    run(capsys, "simulate", GRADE, "--seed", "9", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_a_seed_env_override_that_is_not_an_integer_is_named(capsys, monkeypatch):
    monkeypatch.setenv("ADSEM_SEED", "abc")
    assert main(["simulate", GRADE]) == 3
    assert capsys.readouterr() == ("", "error: ADSEM_SEED is not an integer: 'abc'\n")


# ---------------------------------------------------------------------------
# run-v2
# ---------------------------------------------------------------------------

def test_run_v2_rejects_a_negative_max_steps(tmp_path, capsys):
    scenario, trace = tmp_path / "scenario.json", tmp_path / "grade.trace.jsonl"
    scenario.write_text(json.dumps({"seed": 2}))
    code = main(["run-v2", GRADE, str(scenario), "--max-steps", "-1", "--trace", str(trace)])
    assert (code, *capsys.readouterr()) == (3, "", "error: max_steps must be >= 0\n")
    assert not trace.exists()
    code = main(["run-v2", GRADE, str(scenario), "--max-steps", "0"])
    assert (code, *capsys.readouterr()) == (3, "", "error: no final configuration within 0 states\n")


def test_run_v2_check_trace_pipeline(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"seed": 2, "decisions": {"D1": "passed"}}))
    trace = tmp_path / "grade.trace.jsonl"
    code, _ = run(capsys, "run-v2", GRADE, str(scenario), "--trace", str(trace))
    assert code == 0
    code, out = run(capsys, "check-trace", GRADE, str(trace), "--variant", "v2")
    assert code == 0
    assert json.loads(out)["verdict"] == "satisfied"
    header = json.loads(trace.read_text().splitlines()[0])
    assert header["variant"] == "v2"
    assert "meth" in header["params"]


@pytest.mark.parametrize("text,reason", [
    ("", "not JSON: Expecting value at line 1 column 1"),
    ('{"seed": 1,\n "durations": }', "not JSON: Expecting value at line 2 column 15"),
    ("[1, 2]", "a scenario is a JSON object, not list"),
    ('{"durration": 3}', "unknown keys ['durration']"),
    ('{"durations": {"FileThesis": "x"}}',
     "durations are not all integers >= 0: {'FileThesis': 'x'}"),
    ('{"durations": {"FileThesis": 2.5}}',
     "durations are not all integers >= 0: {'FileThesis': 2.5}"),
    ('{"durations": {"FileThesis": -1}}',
     "durations are not all integers >= 0: {'FileThesis': -1}"),
    ('{"durations": {"NoSuchAction": 2}}',
     "durations for unknown action nodes ['NoSuchAction']"),
    ('{"durations": {"D1": 2}}', "durations for unknown action nodes ['D1']"),
    ('{"decisions": {"NoSuchNode": "x"}}',
     "decisions for unknown decisionmerge nodes ['NoSuchNode']"),
    ('{"decisions": ["D1"]}', "decisions is not a JSON object"),
    ('{"decisions": {"D1": "nosuchguard"}}',
     "decisions are not guards of their nodes: {'D1': 'nosuchguard'}"),
    ('{"sub_variant": "false"}', "sub_variant is not true or false: 'false'"),
    ('{"caller_mode": "commnd"}', "caller_mode is not 'role' or 'command': 'commnd'"),
    ('{"seed": 2.7}', "seed is not an integer: 2.7"),
    ('{"seed": true}', "seed is not an integer: True"),
], ids=["empty", "not-json", "list", "unknown-key", "string-duration", "float-duration",
        "negative-duration", "unknown-action", "duration-of-decision", "unknown-decision",
        "decisions-list", "unknown-guard", "string-sub-variant", "unknown-caller-mode",
        "float-seed", "bool-seed"])
def test_bad_scenario_is_located(tmp_path, capsys, text, reason):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(text)
    trace = tmp_path / "trace.jsonl"
    code = main(["run-v2", GRADE, str(scenario), "--trace", str(trace)])
    assert code == 3
    assert capsys.readouterr().err == f"error: {scenario}: {reason}\n"
    assert not trace.exists()


@pytest.mark.parametrize("params,reason", [
    ({"sub_variant": "false", "caller_mode": "commnd"},
     "sub_variant is not true or false: 'false'"),
    ({"caller_mode": "commnd"}, "caller_mode is not 'role' or 'command': 'commnd'"),
], ids=["string-sub-variant", "unknown-caller-mode"])
def test_bad_v2_trace_header_is_located(tmp_path, capsys, params, reason):
    scenario, trace = tmp_path / "scenario.json", tmp_path / "trace.jsonl"
    scenario.write_text(json.dumps({"seed": 2, "decisions": {"D1": "passed"}}))
    run(capsys, "run-v2", GRADE, str(scenario), "--trace", str(trace))
    header, *states = trace.read_text().splitlines()
    header = json.loads(header)
    header["params"].update(params)
    trace.write_text("\n".join([json.dumps(header), *states]) + "\n")
    code = main(["check-trace", GRADE, str(trace), "--variant", "v2"])
    assert code == 3
    assert capsys.readouterr() == ("", f"error: {trace}:1: {reason}\n")


def _drop_evaluate_meth(params):
    del params["meth"]["Evaluate"]


def _strand_evaluate(params):
    params["thread_of"]["Evaluate"] = "th:nowhere"


def _extra_oid(params):
    params["oid"]["D1"] = "obj:Referee1"


def _drop_role(params):
    params["rrep"].clear()


def _ghost_oid(params):
    params["oid"]["Evaluate"] = "obj:ghost"


def _shared_meth(params):
    params["meth"]["Evaluate"] = "m:CreateCert"


def _shared_rrep(params):
    params["rrep"]["Referee2"] = "obj:Referee1"


@pytest.mark.parametrize("edit,reason", [
    (_drop_evaluate_meth,
     "meth does not name exactly the action nodes: missing ['Evaluate'], unknown []"),
    (_strand_evaluate, "thread_of names threads not in threads: ['th:nowhere']"),
    (_extra_oid, "oid does not name exactly the action nodes: missing [], unknown ['D1']"),
    (_drop_role, "rrep does not name the roles ['Referee1', 'Referee2', 'Student']"),
    (_ghost_oid, "oid names objects that represent no role: ['obj:ghost']"),
    (_shared_meth, "meth gives several actions one method: ['m:CreateCert']"),
    (_shared_rrep, "rrep gives several roles one object: ['obj:Referee1']"),
], ids=["missing-meth", "unknown-thread", "non-action-oid", "missing-roles", "ghost-oid",
        "shared-meth", "shared-rrep"])
def test_v2_trace_header_maps_must_match_the_diagram(tmp_path, capsys, edit, reason):
    scenario, trace = tmp_path / "scenario.json", tmp_path / "trace.jsonl"
    scenario.write_text(json.dumps({"seed": 2, "decisions": {"D1": "passed"}}))
    run(capsys, "run-v2", GRADE, str(scenario), "--trace", str(trace))
    header, *states = trace.read_text().splitlines()
    header = json.loads(header)
    edit(header["params"])
    trace.write_text("\n".join([json.dumps(header), *states]) + "\n")
    code = main(["check-trace", GRADE, str(trace), "--variant", "v2"])
    assert code == 3
    assert capsys.readouterr() == ("", f"error: {trace}:1: {reason}\n")


def test_scenario_with_every_key_runs(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"seed": 4, "decisions": {"D1": "failed"},
                                    "durations": {"FileThesis": 0, "Evaluate": 3},
                                    "sub_variant": False, "caller_mode": "command"}))
    code, out = run(capsys, "run-v2", GRADE, str(scenario))
    assert code == 0
    assert json.loads(out)["truncated"] is False


FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", ["dup_entry.ad", "dup_exit.ad"])
def test_a_transition_declared_twice_runs_as_declared_once(tmp_path, capsys, name, seed):
    """run-v2 writes the states of the diagram with the repeated declaration
    dropped, and check-trace finds its trace satisfied."""
    text = (FIXTURES / name).read_text(encoding="utf-8")
    once = tmp_path / "once.ad"
    once.write_text("\n".join(dict.fromkeys(text.splitlines())) + "\n", encoding="utf-8")
    assert once.read_text(encoding="utf-8").count("->") == text.count("->") - 1
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"seed": seed}))
    written = []
    for ad in (str(FIXTURES / name), str(once)):
        trace = tmp_path / "trace.jsonl"
        code, out = run(capsys, "run-v2", ad, str(scenario), "--trace", str(trace))
        assert code == 0
        written.append((out, trace.read_text(encoding="utf-8").splitlines()[1:]))
        code, out = run(capsys, "check-trace", ad, str(trace), "--variant", "v2")
        assert (code, json.loads(out)["verdict"]) == (0, "satisfied")
    assert written[0] == written[1]


# ---------------------------------------------------------------------------
# reach
# ---------------------------------------------------------------------------

def test_reach_report_and_dot(tmp_path, capsys):
    dot = tmp_path / "reach.dot"
    code, out = run(capsys, "reach", GRADE, "--dot", str(dot))
    assert code == 0
    payload = json.loads(out)
    assert payload["configurations"] == 12
    assert payload["deadlocks"] == []
    assert payload["decision_coverage"] == {"D1.p": True, "D1.f": True}
    assert dot.read_text().startswith("digraph")


@pytest.mark.parametrize("bound,configurations", [("1", 1), ("3", 3)])
def test_a_truncated_reach_reports_no_false_deadlock(capsys, bound, configurations):
    # FileThesis is enabled in the initial configuration; the bound only cuts
    # the configurations its steps lead to
    code, out = run(capsys, "reach", GRADE, "--bound", bound)
    assert code == 0
    payload = json.loads(out)
    assert (payload["configurations"], payload["truncated"], payload["deadlocks"]) == \
        (configurations, True, [])


# ---------------------------------------------------------------------------
# Error surfaces
# ---------------------------------------------------------------------------

def test_an_activity_without_an_initial_node_is_invalid(tmp_path, capsys):
    path = tmp_path / "rnd.ad"
    path.write_text("activity Rnd { decisionmerge n0; }")
    for command in ("validate", "run-v1"):
        code, out = run(capsys, command, str(path))
        assert code == 1
        assert [d["code"] for d in json.loads(out)["diagnostics"]] == ["missing-initial"]
    assert main(["reach", str(path)]) == 3
    assert capsys.readouterr().err == "error: activity 'Rnd' has no initial node\n"


def test_missing_file_is_io_error(capsys):
    code, _ = run(capsys, "validate", "no-such-file.ad")
    assert code == 3


def test_malformed_trace_file(tmp_path, capsys):
    trace = tmp_path / "junk.jsonl"
    trace.write_text('{"variant": "v1"}\n{"ds": {}}\n')  # header missing params
    code, _ = run(capsys, "check-trace", FAC, str(trace), "--variant", "v1")
    assert code == 3
    trace.write_text("not json\n")
    code, _ = run(capsys, "check-trace", FAC, str(trace), "--variant", "token")
    assert code == 3


def test_bad_variant_trace_line_is_located(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    run(capsys, "run-v1", FAC, "n=2", "--trace", str(trace))
    lines = trace.read_text().splitlines()
    for bad, reason in (("not json", "not JSON: Expecting value at column 1"),
                        ('{"cs": {"obj:callee": {"th0": [{"m": "x"}]}}}', "missing key 'callee'")):
        trace.write_text("\n".join(lines[:2] + ["", bad] + lines[2:]) + "\n")
        code = main(["check-trace", FAC, str(trace), "--variant", "v1"])
        assert code == 3
        assert capsys.readouterr().err == f"error: {trace}:4: {reason}\n"


def test_bad_token_trace_line_is_located(tmp_path, capsys):
    out_file = tmp_path / "run.jsonl"
    run(capsys, "simulate", GRADE, "--out", str(out_file))
    lines = out_file.read_text().splitlines()
    for bad, reason in (("{", "not JSON: Expecting property name enclosed in double quotes "
                              "at column 2"),
                        ('{"buffers": {"start.s0->FileThesis.go": [7]}}', "not a token: 7"),
                        ('{"bufers": {}}', "unknown configuration keys: ['bufers']"),
                        ('{"buffers": {"FileThesis.t->F1.x": [{"type": null, "payload": "p"}]}}',
                         "token type is not a string: None"),
                        ('{"buffers": {"FileThesis.t->F1.x": [{"payload": "p"}]}}',
                         "missing key 'type'"),
                        ('{"buffers": {"FileThesis.t->F1.x": [{"type": "Thesis", "paylod": "p"}]}}',
                         "unknown token keys: ['paylod']")):
        out_file.write_text("\n".join(lines[:1] + [bad] + lines[1:]) + "\n")
        code = main(["check-trace", GRADE, str(out_file), "--variant", "token"])
        assert code == 3
        assert capsys.readouterr().err == f"error: {out_file}:2: {reason}\n"


def test_a_v1_trace_checked_as_a_token_trace_is_located(tmp_path, capsys):
    ad, trace, _ = _recorded(tmp_path, capsys, "v1")  # its header is no configuration
    assert main(["check-trace", ad, str(trace), "--variant", "token"]) == 3
    assert capsys.readouterr() == ("", f"error: {trace}:1: unknown configuration keys: "
                                       f"['diagram', 'params', 'truncated', 'variant']\n")


@pytest.mark.parametrize("variant,lineno,text,reason", [
    ("token", 1, "[1, 2]", "not a JSON object: list"),
    ("token", 2, '"x"', "not a JSON object: str"),
    ("v1", 1, "[1]", "not a JSON object: list"),
    ("v1", 3, "[1]", "not a JSON object: list"),
    ("v2", 1, "7", "not a JSON object: int"),
    ("v2", 2, "null", "not a JSON object: NoneType"),
])
def test_a_trace_line_that_is_json_but_no_object_is_named(tmp_path, capsys, variant, lineno, text, reason):
    if variant == "token":
        ad, trace = GRADE, tmp_path / "run.jsonl"
        run(capsys, "simulate", GRADE, "--out", str(trace))
    else:
        ad, trace, _ = _recorded(tmp_path, capsys, variant)
    lines = trace.read_text().splitlines()
    lines[lineno - 1] = text
    trace.write_text("\n".join(lines) + "\n")
    assert main(["check-trace", ad, str(trace), "--variant", variant]) == 3
    assert capsys.readouterr() == ("", f"error: {trace}:{lineno}: {reason}\n")


def _recorded(tmp_path, capsys, variant) -> tuple[str, Path, list[dict]]:
    """The diagram, the file and the decoded lines of a `run-v1` trace of fac
    n=3 or a `run-v2` trace of grade_thesis."""
    trace = tmp_path / "trace.jsonl"
    if variant == "v1":
        ad = FAC
        run(capsys, "run-v1", FAC, "n=3", "--trace", str(trace))
    else:
        ad, scenario = GRADE, tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"seed": 2, "decisions": {"D1": "passed"}}))
        run(capsys, "run-v2", GRADE, str(scenario), "--trace", str(trace))
    return ad, trace, [json.loads(line) for line in trace.read_text().splitlines()]


def _first_frame(state: dict) -> dict:
    return next(f for stacks in state["cs"].values() for stack in stacks.values() for f in stack)


@pytest.mark.parametrize("variant,edit,line,reason", [
    ("v1", lambda lines: _first_frame(lines[2]).update(pc=["x"]), 3,
     "frame fields are not strings: {'pc': ['x']}"),
    ("v2", lambda lines: _first_frame(lines[2]).update(m=["x"]), 3,
     "frame fields are not strings: {'m': ['x']}"),
    ("v1", lambda lines: lines[0]["params"].update(callee=5), 1,
     "instance fields are not strings: {'callee': 5}"),
    ("v1", lambda lines: lines[0].update(truncated="no"), 1,
     "truncated is not true or false: 'no'"),
    ("v2", lambda lines: lines[0].update(truncated=1), 1, "truncated is not true or false: 1"),
    ("v1", lambda lines: lines[0].update(variant="v2"), 1, "trace was recorded for variant 'v2'"),
    ("v2", lambda lines: lines[0].update(variant="v1"), 1, "trace was recorded for variant 'v1'"),
    # read by the guard of the decision the third state's step crosses
    ("v1", lambda lines: lines[2]["ds"]["obj:callee"].update(n="x"), 3,
     "invalid literal for int() with base 10: 'x'"),
    ("v1", lambda lines: lines[2]["ds"]["obj:callee"].pop("n"), 3,
     "unknown attribute or local 'n'"),
    ("v1", lambda lines: lines[2]["ds"].update({"obj:callee": [["n", 3], ["res", 1]]}), 3,
     "expected JSON objects, got {'obj:callee': [['n', 3], ['res', 1]]}"),
    ("v2", lambda lines: lines[3]["es"].update({"obj:x": "ab"}), 4,
     "expected JSON lists, got {'obj:x': 'ab'}"),
    ("v1", lambda lines: lines[2]["cs"]["obj:callee"].update(th0=""), 3,
     "expected JSON lists, got {'th0': ''}"),
    # the first token the mailboxes hold
    ("v2", lambda lines: lines[4]["ds"]["mbox:FileThesis.t->F1.x"].update(
        tokens='[{"payload": {"x": "FileThesis#1"}, "type": null}]'), 5,
     "token type is not a string: None"),
    # the one token of the first state, read while the initial state is sought
    ("v2", lambda lines: lines[1]["ds"]["mbox:start.s0->FileThesis.go"].update(
        tokens='[{"payload": 1, "type": null}]'), 2, "token type is not a string: None"),
    # a mailbox token without a type, and one with a key besides type and payload
    ("v2", lambda lines: lines[4]["ds"]["mbox:FileThesis.t->F1.x"].update(
        tokens='[{"payload": {"x": "FileThesis#1"}}]'), 5, "missing key 'type'"),
    ("v2", lambda lines: lines[4]["ds"]["mbox:FileThesis.t->F1.x"].update(
        tokens='[{"paylod": {"x": "FileThesis#1"}, "type": "Thesis"}]'), 5,
     "unknown token keys: ['paylod']"),
], ids=["v1-list-pc", "v2-list-method", "v1-int-callee", "v1-string-truncated",
        "v2-int-truncated", "v1-recorded-as-v2", "v2-recorded-as-v1", "v1-string-attribute",
        "v1-missing-attribute", "v1-store-of-pairs", "v2-string-events", "v1-string-stack",
        "v2-null-token-type", "v2-null-token-type-in-first-state", "v2-token-without-type",
        "v2-misspelt-token-key"])
def test_a_trace_field_of_the_wrong_json_type_is_located(tmp_path, capsys, variant, edit,
                                                         line, reason):
    ad, trace, lines = _recorded(tmp_path, capsys, variant)
    edit(lines)
    trace.write_text("".join(json.dumps(d) + "\n" for d in lines))
    code = main(["check-trace", ad, str(trace), "--variant", variant])
    assert code == 3
    assert capsys.readouterr() == ("", f"error: {trace}:{line}: {reason}\n")


def test_a_broken_store_fragment_is_located_like_the_whole_line(tmp_path, capsys):
    ad, trace, _ = _recorded(tmp_path, capsys, "v1")
    lines = trace.read_text().splitlines()
    lines[2] = lines[2].replace('"ds": {', '"ds": {,', 1)
    trace.write_text("\n".join(lines) + "\n")
    assert main(["check-trace", ad, str(trace), "--variant", "v1"]) == 3
    assert capsys.readouterr().err == (f"error: {trace}:3: not JSON: Expecting property name "
                                       f"enclosed in double quotes at column 137\n")


def test_a_null_attribute_a_guard_reads_is_located(tmp_path, capsys):
    ad, trace, lines = _recorded(tmp_path, capsys, "v1")
    lines[2]["ds"]["obj:callee"]["n"] = None
    trace.write_text("".join(json.dumps(d) + "\n" for d in lines))
    assert main(["check-trace", ad, str(trace), "--variant", "v1"]) == 3
    assert capsys.readouterr().err.startswith(f"error: {trace}:3: int() argument must be")


@pytest.mark.parametrize("flag", ["false", "yes", 1])
def test_a_token_trace_flag_that_is_not_a_boolean_is_located(tmp_path, capsys, flag):
    out_file = tmp_path / "run.jsonl"
    run(capsys, "simulate", GRADE, "--actions", "twoPhase", "--seed", "1", "--out", str(out_file))
    configs = [json.loads(line) for line in out_file.read_text().splitlines()]
    configs[0]["exec"]["CreateCert"] = flag
    out_file.write_text("".join(json.dumps(c) + "\n" for c in configs))
    code = main(["check-trace", GRADE, str(out_file), "--variant", "token",
                 "--actions", "twoPhase"])
    assert code == 3
    reason = f"exec flags are not all true or false: {{'CreateCert': {flag!r}}}"
    assert capsys.readouterr() == ("", f"error: {out_file}:1: {reason}\n")


def test_token_trace_naming_unknown_action_exits_three(tmp_path, capsys):
    out_file = tmp_path / "run.jsonl"
    run(capsys, "simulate", GRADE, "--out", str(out_file))
    configs = [json.loads(line) for line in out_file.read_text().splitlines()]
    configs[1]["exec"]["Ghost"] = False
    out_file.write_text("".join(json.dumps(c) + "\n" for c in configs))
    code = main(["check-trace", GRADE, str(out_file), "--variant", "token"])
    assert code == 3
    assert "Ghost" in capsys.readouterr().err


def _exec_as_pairs(c):
    c["exec"] = [list(item) for item in c["exec"].items()]


def _buffers_as_pairs(c):
    c["buffers"] = [list(item) for item in c["buffers"].items()]


def _buffer_as_text(c):
    c["buffers"]["start.s0->FileThesis.go"] = "control"


@pytest.mark.parametrize("rewrite,reason", [
    (_exec_as_pairs, "exec is not a JSON object"),
    (_buffers_as_pairs, "buffers is not a JSON object"),
    (_buffer_as_text, "buffer 'start.s0->FileThesis.go' is not a JSON list"),
], ids=["exec-pairs", "buffers-pairs", "buffer-text"])
def test_a_token_trace_field_of_the_wrong_json_kind_is_located(tmp_path, capsys, rewrite, reason):
    out_file = tmp_path / "run.jsonl"
    run(capsys, "simulate", GRADE, "--out", str(out_file))
    configs = [json.loads(line) for line in out_file.read_text().splitlines()]
    rewrite(configs[0])
    out_file.write_text("".join(json.dumps(c) + "\n" for c in configs))
    assert main(["check-trace", GRADE, str(out_file), "--variant", "token"]) == 3
    assert capsys.readouterr() == ("", f"error: {out_file}:1: {reason}\n")


def test_token_trace_with_list_payloads_gets_a_verdict(tmp_path, capsys):
    # the last configuration (after the fork) has two successors, so the
    # check orders them, with tokens whose payloads cannot be hashed
    out_file = tmp_path / "run.jsonl"
    run(capsys, "simulate", GRADE, "--seed", "0", "--out", str(out_file))
    configs = [json.loads(line) for line in out_file.read_text().splitlines()][:3]
    for buf in configs[2]["buffers"].values():
        buf[:] = [{"type": "Thesis", "payload": [1]} for _ in buf]
    out_file.write_text("".join(json.dumps(c) + "\n" for c in configs))
    code, out = run(capsys, "check-trace", GRADE, str(out_file), "--variant", "token")
    assert code == 0
    assert json.loads(out)["verdict"] == "satisfied-so-far"


def test_usage_error_exits_three(capsys):
    with pytest.raises(SystemExit) as e:
        main(["check-trace", GRADE, "whatever"])  # missing required --variant
    assert e.value.code == 3


def test_human_output(capsys):
    code, out = run(capsys, "--human", "run-v1", FAC, "n=3")
    assert code == 0
    assert "store" in out and "{" not in out.splitlines()[0][:1]


# ---------------------------------------------------------------------------
# One process, many calls
# ---------------------------------------------------------------------------

def test_reused_parser_answers_like_a_fresh_process(tmp_path, capsys, monkeypatch):
    """`main` reuses one parser; no option, store list, usage error or help
    screen of one call may show in the next."""
    assert _build_parser() is _build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # help screens wrap to the terminal width
    monkeypatch.delenv("ADSEM_SEED", raising=False)
    env = {**os.environ, "PYTHONPATH": str(Path(adsem.__file__).resolve().parents[1])}
    scenario, trace = tmp_path / "scenario.json", tmp_path / "fac.jsonl"
    scenario.write_text(json.dumps({"seed": 1, "decisions": {"D1": "failed"}}))
    calls = [
        ["--human", "reach", GRADE, "--bound", "5", "--mode", "concurrent"],
        ["reach", GRADE],
        ["run-v1", FAC, "n=4", "--trace", str(trace)],
        ["run-v1", FAC],
        ["check-trace", FAC, str(trace), "--variant", "v1"],
        ["check-trace", GRADE, "whatever"],
        ["--help"],
        ["validate", GRADE, "--profile", "variant1"],
        ["render", MINIMAL],
        ["simulate", GRADE, "--seed", "3"],
        ["run-v2", GRADE, str(scenario)],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "adsem.cli", *argv],
                               capture_output=True, env=env, check=False)
        assert (code, out.encode(), err.encode()) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv
