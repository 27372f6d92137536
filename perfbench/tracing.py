"""Spans at adsem's public-function boundaries, recorded from outside.

`Tracer.install` replaces each public function by a timing wrapper in
every adsem module that holds it (a `from .diagram import incoming`
binds its own name in each importing module), wraps a few methods on
their classes, and wraps the three binding factories so that the
`VariationBinding` fields they return are timed and counted too.
`uninstall` puts everything back.

Each wrapper keeps per-name totals: calls, inclusive time and self time
(inclusive minus the time of wrapped calls made inside it).  The outer
`SPAN_DEPTH` levels (job, command, the command's direct calls) are also
kept as spans with parent ids; deeper calls, which run into the millions
on `reach`, are only folded into the totals.  Nothing is written until
`dump` runs at the end.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SPAN_DEPTH = 3

LAYERS = ("diagram", "sysmodel", "semantics", "tokengame", "variant1", "variant2", "cli")

# (module, function, span name)
FUNCTIONS = [
    ("diagram", "parse", "diagram.parse"),
    ("diagram", "validate", "diagram.validate"),
    ("diagram", "incoming", "diagram.adjacency"),
    ("diagram", "outgoing", "diagram.adjacency"),
    ("sysmodel", "state_to_json", "sysmodel.state_to_json"),
    ("sysmodel", "state_from_json", "sysmodel.state_from_json"),
    ("semantics", "conforms", "semantics.conforms"),
    ("semantics", "allows_step", "semantics.allows_step"),
    ("semantics", "is_initial_state", "semantics.is_initial_state"),
    ("semantics", "is_final_state", "semantics.is_final_state"),
    ("tokengame", "initial_config", "tokengame.initial_config"),
    ("tokengame", "successors", "tokengame.successors"),
    ("tokengame", "reachable", "tokengame.reachable"),
    ("tokengame", "analyze", "tokengame.analyze"),
    ("tokengame", "random_run", "tokengame.random_run"),
    ("tokengame", "as_binding", "tokengame.as_binding"),
    ("tokengame", "run_to_jsonl", "tokengame.run_to_jsonl"),
    ("variant1", "method_instance", "variant1.method_instance"),
    ("variant1", "run_method", "variant1.run_method"),
    ("variant1", "flow_walk", "variant1.flow_walk"),
    ("variant1", "parse_guard", "variant1.parse_guard"),
    ("variant1", "parse_statement", "variant1.parse_statement"),
    ("variant1", "terminal_store", "variant1.terminal_store"),
    ("variant2", "standard_instance", "variant2.standard_instance"),
    ("variant2", "simulate", "variant2.simulate"),
    ("variant2", "mailbox_tokens", "variant2.mailbox_tokens"),
    ("cli", "main", "cli.main"),
]

# Methods the command calls directly; without a span their time would
# count as the command's own.  (module, class, method, span name)
METHODS = [
    ("tokengame", "Configuration", "canonical", "tokengame.canonical"),
    ("tokengame", "Configuration", "from_json", "tokengame.config_from_json"),
    ("tokengame", "AnalysisReport", "to_json", "tokengame.report_to_json"),
    ("variant1", "MethodExecutionInstance", "from_json", "variant1.instance_from_json"),
    ("variant2", "ActionMethodsInstance", "from_json", "variant2.instance_from_json"),
    ("variant2", "Scenario", "from_json", "variant2.scenario_from_json"),
]

# (module, factory, binding kind); the fields run in the factory's layer.
BINDINGS = [
    ("tokengame", "lifted_binding", "token"),
    ("variant1", "atomic_binding", "v1"),
    ("variant2", "methods_binding", "v2"),
]
BINDING_FIELDS = ("buf_state", "cons", "prod", "executing")
KINDS = ("token", "v1", "v2")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []                 # open calls: [child seconds, span id]
        self.totals: dict[str, list] = {}           # name -> [calls, inclusive s, self s]
        self.spans: list[tuple] = []                # (id, parent id, name, start, end)
        self.kind: str | None = None                # binding of the conforms call in progress
        self.semantics_self_s = defaultdict(float)  # kind -> semantics self s inside conforms
        self.conforms_s = defaultdict(float)        # kind -> inclusive s
        self.binding_calls = defaultdict(int)       # kind -> field calls inside conforms
        self.counts = defaultdict(int)
        self._ids = itertools.count()
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, enter=None, leave=None):
        """A timing wrapper.  `enter(args)` runs first and its result goes
        to `leave(state, result, seconds)`, which runs even on error (with
        result None)."""
        is_semantics = name.startswith("semantics.")
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, spans, ids = self.stack, self.spans, self._ids

        def wrapper(*args, **kwargs):
            state = enter(args) if enter else None
            frame = [0.0, next(ids) if len(stack) < SPAN_DEPTH else None]
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                elapsed = t1 - t0
                own = elapsed - frame[0]
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += own
                if is_semantics and self.kind is not None:
                    self.semantics_self_s[self.kind] += own
                if stack:
                    stack[-1][0] += elapsed
                if frame[1] is not None:
                    spans.append((frame[1], stack[-1][1] if stack else None, name, t0, t1))
                if leave:
                    leave(state, result, elapsed)
        return wrapper

    # -- hooks -------------------------------------------------------------

    def _enter_conforms(self, args):
        previous = self.kind
        self.kind = getattr(args[2], "kind", None)
        return previous, self.kind

    def _leave_conforms(self, state, result, elapsed):
        previous, kind = state
        self.kind = previous
        if kind is not None:
            self.conforms_s[kind] += elapsed

    def _leave_reachable(self, state, result, elapsed):
        if result is not None:
            configs, edges = len(result.configs), len(result.edges)
            self.counts["tokengame.configs"] += configs
            self.counts["tokengame.edges"] += edges
            self.counts["tokengame.dedup_hits"] += edges - (configs - 1)

    def _count_states(self, key):
        def leave(state, result, elapsed):
            if result is not None:
                self.counts[key] += len(result)
        return leave

    def _count_binding_call(self, args):
        if self.kind is not None:
            self.binding_calls[self.kind] += 1

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "adsem" or name.startswith("adsem.")]
        adsem = {name: sys.modules[f"adsem.{name}"] for name in LAYERS}
        hooks = {"semantics.conforms": (self._enter_conforms, self._leave_conforms),
                 "tokengame.reachable": (None, self._leave_reachable),
                 "variant1.run_method": (None, self._count_states("variant1.states")),
                 "variant2.simulate": (None, self._count_states("variant2.states"))}

        def replace_everywhere(original, replacement):
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, attr, value))
                        setattr(m, attr, replacement)

        for mod, fn_name, name in FUNCTIONS:
            original = getattr(adsem[mod], fn_name)
            replace_everywhere(original, self.wrap(name, original, *hooks.get(name, (None, None))))

        for mod, cls_name, meth, name in METHODS:
            cls = getattr(adsem[mod], cls_name)
            descriptor = cls.__dict__[meth]
            if isinstance(descriptor, staticmethod):
                replacement = staticmethod(self.wrap(name, descriptor.__func__))
            else:
                replacement = self.wrap(name, descriptor)
            self._undo.append((cls, meth, descriptor))
            setattr(cls, meth, replacement)

        @dataclasses.dataclass(frozen=True)
        class TracedBinding(adsem["semantics"].VariationBinding):
            kind: str = ""

        for mod, factory_name, kind in BINDINGS:
            factory = getattr(adsem[mod], factory_name)

            def traced_factory(*args, _factory=factory, _kind=kind, _layer=mod, **kwargs):
                b = _factory(*args, **kwargs)
                fields = {f.name: getattr(b, f.name) for f in dataclasses.fields(b)}
                for field in BINDING_FIELDS:
                    fields[field] = self.wrap(f"{_layer}.binding.{field}", fields[field],
                                              enter=self._count_binding_call)
                return TracedBinding(**fields, kind=_kind)

            replace_everywhere(factory, traced_factory)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def inclusive_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def layer_self_s(self, layer: str) -> float:
        return sum(t[2] for name, t in self.totals.items() if name.split(".", 1)[0] == layer)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "totals": {name: {"calls": t[0], "inclusive_s": t[1], "self_s": t[2]}
                       for name, t in sorted(self.totals.items())},
            "spans": [{"id": i, "parent": p, "name": n, "start": s, "end": e}
                      for i, p, n, s, e in self.spans],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def per_layer_metrics(tracer: Tracer, rounds: int, steps: dict[str, int],
                      import_s: float, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics of a traced run of `rounds` rounds.  Times and
    counts are per round of the job mix; `steps` is the number of state
    pairs judged per binding kind over the whole run."""
    def per_round(x):
        return x / rounds

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    t = tracer
    m = {
        "diagram.parse.self_s": (per_round(t.self_s("diagram.parse")), "s"),
        "diagram.parse.calls": (per_round(t.calls("diagram.parse")), "count"),
        "diagram.adjacency.calls": (per_round(t.calls("diagram.adjacency")), "count"),
        "diagram.adjacency.self_s": (per_round(t.self_s("diagram.adjacency")), "s"),
        "tokengame.successors.calls": (per_round(t.calls("tokengame.successors")), "count"),
        "tokengame.successors.self_s": (per_round(t.self_s("tokengame.successors")), "s"),
        "tokengame.reachable.self_s": (per_round(t.self_s("tokengame.reachable")), "s"),
        "tokengame.canonical.calls": (per_round(t.calls("tokengame.canonical")), "count"),
        "tokengame.configs": (per_round(t.counts["tokengame.configs"]), "count"),
        "tokengame.edges": (per_round(t.counts["tokengame.edges"]), "count"),
        "tokengame.dedup_hits": (per_round(t.counts["tokengame.dedup_hits"]), "count"),
        "tokengame.us_per_edge": (ratio(t.inclusive_s("tokengame.reachable"),
                                        t.counts["tokengame.edges"], 1e6), "us"),
        "tokengame.analyze.self_s": (per_round(t.self_s("tokengame.analyze")), "s"),
        "tokengame.random_run.self_s": (per_round(t.self_s("tokengame.random_run")), "s"),
        "tokengame.as_binding.self_s": (per_round(t.self_s("tokengame.as_binding")), "s"),
    }
    for kind in KINDS:
        m[f"semantics.conforms.self_s.{kind}"] = (
            per_round(t.semantics_self_s[kind]), "s")
        m[f"semantics.steps.{kind}"] = (per_round(steps.get(kind, 0)), "count")
        m[f"semantics.us_per_step.{kind}"] = (ratio(t.conforms_s[kind], steps.get(kind, 0), 1e6),
                                              "us")
        m[f"semantics.binding.calls.{kind}"] = (ratio(t.binding_calls[kind], steps.get(kind, 0)),
                                                "calls/step")
    m.update({
        "semantics.allows_step.calls": (per_round(t.calls("semantics.allows_step")), "count"),
        "semantics.is_final_state.calls": (per_round(t.calls("semantics.is_final_state")), "count"),
        "sysmodel.state_from_json.self_s": (per_round(t.self_s("sysmodel.state_from_json")), "s"),
        "sysmodel.state_to_json.self_s": (per_round(t.self_s("sysmodel.state_to_json")), "s"),
        "variant1.run_method.self_s": (per_round(t.self_s("variant1.run_method")), "s"),
        "variant1.states": (per_round(t.counts["variant1.states"]), "count"),
        "variant1.flow_walk.calls": (per_round(t.calls("variant1.flow_walk")), "count"),
        "variant1.parse_guard.calls": (per_round(t.calls("variant1.parse_guard")), "count"),
        "variant1.parse_statement.calls": (per_round(t.calls("variant1.parse_statement")), "count"),
        "variant2.simulate.self_s": (per_round(t.self_s("variant2.simulate")), "s"),
        "variant2.states": (per_round(t.counts["variant2.states"]), "count"),
        "variant2.mailbox_tokens.calls": (per_round(t.calls("variant2.mailbox_tokens")), "count"),
        "variant2.mailbox_tokens.self_s": (per_round(t.self_s("variant2.mailbox_tokens")), "s"),
        "cli.main.self_s": (per_round(t.self_s("cli.main")), "s"),
        "cli.import_s": (import_s, "s"),
        "bench.trace_overhead": (ratio(traced_s, untraced_s), "ratio"),
    })
    for layer in ("diagram", "sysmodel", "semantics", "tokengame", "variant1", "variant2", "bench"):
        m[f"{layer}.self_s"] = (per_round(t.layer_self_s(layer)), "s")
    return m
