"""The trace readers against the reading they replaced.

- `Configuration.from_json` fills the positional buffers and flags in one
  pass.  `reference_from_json` below is the decoding it replaced: every
  buffer decoded into a dict keyed by transition, checked and laid out by
  `make` key by key.  Both must give the same configuration, or raise the
  same error with the same text, on every line of the token goldens, of
  `simulate` runs of every corpus and fixture diagram, and of single and
  double edits of those lines.
- `variant2.methods_binding` reads the stacks a state holds and decodes each
  distinct mailbox text once.  On every state of the v2 goldens and of
  `run-v2` runs, and on states with frames outside the instance,
  `_running_methods` must equal the probe of every object x thread pair,
  and the binding's `buf_state` must equal `mailbox_tokens`.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from adsem import diagram, sysmodel, tokengame, variant2
from adsem.diagram import AdsemError
from adsem.semantics import Token
from adsem.sysmodel import Frame, json_object
from adsem.tokengame import Configuration, TokenGameError

from .conftest import CORPUS
from .test_cli_golden import GOLDEN

ROOT = Path(__file__).resolve().parent.parent
DIAGRAMS = sorted(CORPUS.glob("*.ad")) + sorted((ROOT / "tests" / "fixtures").glob("*.ad"))
MODES = [(m, a) for m in (tokengame.INTERLEAVING, tokengame.CONCURRENT)
         for a in (tokengame.INSTANT, tokengame.TWO_PHASE)]


def _parse(path: Path) -> diagram.ActivityDiagram:
    return diagram.parse(path.read_text(encoding="utf-8"))


def reference_from_json(ad: diagram.ActivityDiagram, d: dict) -> Configuration:
    """The replaced decoding: buffers into a dict, then `make`'s checks and
    its layout of every key and action name."""
    unknown = json_object(d).keys() - {"buffers", "exec"}
    if unknown:
        raise TokenGameError(f"unknown configuration keys: {sorted(unknown)}")
    raw, flags = d.get("buffers", {}), d.get("exec", {})
    for key, value in (("buffers", raw), ("exec", flags)):
        if type(value) is not dict:
            raise TokenGameError(f"{key} is not a JSON object")
    buffers = {}
    for k, toks in raw.items():
        if type(toks) is not list:
            raise TokenGameError(f"buffer {k!r} is not a JSON list")
        buffers[k] = [Token.from_json(tok) for tok in toks]
    bad = {name: v for name, v in flags.items() if type(v) is not bool}
    if bad:
        raise TokenGameError(f"exec flags are not all true or false: {bad}")
    view = tokengame._view(ad)
    unknown = set(buffers) - ad.layout.position.keys()
    if unknown:
        raise TokenGameError(f"buffers for unknown transitions: {sorted(unknown)}")
    unknown = set(flags) - view.flag_position.keys()
    if unknown:
        raise TokenGameError(f"exec flags for unknown or non-action nodes: {sorted(unknown)}")
    return Configuration(tuple(tuple(buffers.get(k, ())) for k in view.keys),
                         tuple(bool(flags.get(name, False)) for name in view.actions))


def outcome(read, *args):
    """What `read(*args)` gives: ("ok", value) or (error type, error text)."""
    try:
        return "ok", read(*args)
    except Exception as e:  # the error and its text are what is compared
        return type(e).__name__, str(e)


def token_lines() -> list[tuple[Path, list[str]]]:
    """(diagram, JSON lines) of every token golden, its edited lines too, and of
    `simulate` of every corpus and fixture diagram, seeds 0 and 1, in all four
    mode/action pairs."""
    traces = []
    for path in sorted((GOLDEN / "verdicts").glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if "token" in record["options"]:
            lines = list(record["base"])
            lines += [x for case in record["cases"].values() for x in case["lines"] if isinstance(x, str)]
            traces.append((ROOT / record["diagram"], [x for x in lines if outcome(json.loads, x)[0] == "ok"]))
    for path in DIAGRAMS:
        ad = _parse(path)
        for mode, actions in MODES:
            for seed in (0, 1):
                run = tokengame.random_run(ad, seed, mode, actions, max_len=30)
                traces.append((path, tokengame.run_to_jsonl(ad, run.configs).splitlines()))
    return traces


TOKEN_TRACES = token_lines()


def edits(ad: diagram.ActivityDiagram, d: dict) -> list:
    """Single edits of a configuration's JSON object, each a function of a copy."""
    view = tokengame._view(ad)
    key, action = view.keys[0], next(iter(view.actions), None)

    def put(where, name, value):
        def edit(c):
            if type(c.get(where)) is dict:
                c[where][name] = value
        return edit

    def kind(where, value):
        def edit(c):
            c[where] = value
        return edit

    found = [put("buffers", "ghost.o->nowhere.i", ["control"]),
             put("buffers", "ghost.o->nowhere.i", [{"type": 5}]),
             put("buffers", "ghost.o->nowhere.i", "control"),
             put("buffers", key, [{"type": None}]),
             put("buffers", key, ["control", {"type": "T", "payload": 1, "extra": 0}]),
             put("buffers", key, [7]),
             put("buffers", key, {"type": "T"}),
             put("exec", "Ghost", True),
             put("exec", "Ghost", 1),
             kind("buffers", []), kind("buffers", "x"), kind("buffers", None),
             kind("exec", []), kind("exec", 0), kind("exec", {"x": "y"}),
             lambda c: c.pop("buffers", None), lambda c: c.pop("exec", None),
             kind("cut", 1)]
    if action is not None:
        found += [put("exec", action, 1), put("exec", action, None), put("exec", action, "true")]
    for name in d.get("buffers", {}) if type(d.get("buffers")) is dict else ():
        found.append(put("buffers", name, [{"payload": 1}]))
    return found


@pytest.mark.parametrize("path, lines", TOKEN_TRACES, ids=[f"{p.stem}-{i}" for i, (p, _) in enumerate(TOKEN_TRACES)])
def test_configurations_decode_as_by_the_replaced_reading(path, lines):
    ad = _parse(path)
    for line in lines:
        d = json.loads(line)
        assert outcome(Configuration.from_json, ad, d) == outcome(reference_from_json, ad, d)


@pytest.mark.parametrize("path, lines", TOKEN_TRACES[::4], ids=[f"{p.stem}-{i}" for i, (p, _) in enumerate(TOKEN_TRACES[::4])])
def test_edited_configurations_are_rejected_as_by_the_replaced_reading(path, lines):
    ad = _parse(path)
    rejected = set()
    for line in lines[:3]:
        d = json.loads(line)
        found = edits(ad, d)
        for i, first in enumerate(found):
            for second in [None] + found[i + 1:]:  # one edit, and every pair: which error comes first
                c = json.loads(line)
                first(c)
                if second is not None:
                    second(c)
                got = outcome(Configuration.from_json, ad, c)
                assert got == outcome(reference_from_json, ad, c), c
                rejected.add(got[1] if got[0] != "ok" else None)
    # each kind of error was met
    texts = "\n".join(t for t in rejected if t)
    for text in ("unknown configuration keys", "buffers is not a JSON object", "exec is not a JSON object",
                 "is not a JSON list", "token type is not a string", "unknown token keys", "not a token",
                 "missing key", "buffers for unknown transitions", "exec flags for unknown"):
        assert text in texts, text
    if tokengame._view(ad).actions:
        assert "exec flags are not all true or false" in texts


def test_a_json_value_that_is_no_object_is_named_as_before():
    ad = _parse(CORPUS / "grade_thesis.ad")
    for value in ([1, 2], "x", 3, None, 1.5, True):
        assert outcome(Configuration.from_json, ad, value) == outcome(reference_from_json, ad, value)
        assert outcome(Configuration.from_json, ad, value)[0] == "ValueError"


# ---------------------------------------------------------------------------
# Variant 2
# ---------------------------------------------------------------------------

def probe(inst: variant2.ActionMethodsInstance, s: sysmodel.SystemState) -> set:
    """The replaced `_running_methods`: every object of the instance x every thread."""
    return {(f.callee, f.mname) for oid in set(inst.oid.values()) for th in inst.threads
            for f in s.stack(oid, th) if f.callee == oid}


def v2_traces() -> list[tuple[Path, list[str]]]:
    """(diagram, lines with a header first) of every v2 golden and of `run-v2`
    on every corpus and fixture diagram that it completes, seeds 0-2."""
    traces = []
    for path in sorted((GOLDEN / "traces").glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        lines = record["trace"].splitlines()
        if lines and json.loads(lines[0]).get("variant") == "v2":
            traces.append((ROOT / json.loads(lines[0])["diagram"], lines))
    for path in sorted((GOLDEN / "verdicts").glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if "v2" in record["options"]:
            lines = list(record["base"])
            lines += [x for case in record["cases"].values() for x in case["lines"][1:] if isinstance(x, str)]
            traces.append((ROOT / record["diagram"], lines))
    for path in DIAGRAMS:
        ad = _parse(path)
        for seed in range(3):
            scenario = variant2.Scenario(seed=seed)
            inst = variant2.standard_instance(ad, scenario)
            try:
                trace = variant2.simulate(ad, inst, scenario, max_steps=200)
            except (AdsemError, KeyError):  # a diagram the simulator cannot complete
                continue
            header = json.dumps({"params": inst.to_json(), "variant": "v2"})
            traces.append((path, [header, *sysmodel.states_to_jsonl(trace.states).splitlines()]))
    return traces


V2_TRACES = v2_traces()


def foreign_frames(inst: variant2.ActionMethodsInstance, s: sysmodel.SystemState) -> list:
    """`s` with an action's frame on a thread outside the instance, on an
    object that represents no role, and on a stack of another object; none
    without an action."""
    if not inst.meth:
        return []
    node = sorted(inst.meth)[0]
    oid, mname = inst.oid[node], inst.meth[node]
    frame = Frame.make(oid, mname, {}, "pc", "caller")
    ghost = Frame.make("obj:ghost", mname, {}, "pc", "caller")
    thread = sorted(inst.threads)[0]
    return [s.push(oid, "th:outside", frame), s.push("obj:ghost", thread, ghost),
            s.push("obj:ghost", thread, frame), s.push(oid, thread, ghost),
            s.push(oid, thread, frame).push(oid, "th:outside", frame)]


@pytest.mark.parametrize("path, lines", V2_TRACES, ids=[f"{p.stem}-{i}" for i, (p, _) in enumerate(V2_TRACES)])
def test_v2_running_methods_and_mailboxes_read_as_before(path, lines):
    ad = _parse(path)
    inst = variant2.ActionMethodsInstance.from_json(ad, json.loads(lines[0])["params"])
    binding, read = variant2.methods_binding(inst), sysmodel.state_reader()
    states = []
    for line in lines[1:]:
        try:
            states.append(read(line))
        except (ValueError, TypeError, KeyError, AttributeError):  # an edit the reader rejects
            continue
    assert states
    for s in states + [f for s in states[:2] for f in foreign_frames(inst, s)]:
        assert variant2._running_methods(inst, s) == probe(inst, s)
        for t in ad.layout.transitions:
            assert (outcome(binding.buf_state, t, inst, s)
                    == outcome(variant2.mailbox_tokens, s, t))


def test_foreign_frames_are_not_running():
    ad = _parse(CORPUS / "grade_thesis.ad")
    inst = variant2.standard_instance(ad)
    s0 = variant2._initial_state(ad, inst)[0]
    node = sorted(inst.meth)[0]
    *foreign, both = foreign_frames(inst, s0)
    for s in foreign:
        assert variant2._running_methods(inst, s) == set()
        assert not variant2.method_frame_present(ad.node(node), inst, s)
    assert variant2._running_methods(inst, both) == {(inst.oid[node], inst.meth[node])}
    assert variant2.method_frame_present(ad.node(node), inst, both)
