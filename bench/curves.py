"""Scaling curves of what a `reach` command pays per diagram and of its search,
and of what `check-trace` pays per trace: the trace readers and `conforms`.

For every fork_k x chain_c diagram (k 2-5, c 1-3) this times, in-process:

- `parse` of the diagram's text;
- `layout`, the diagram's transitions numbered by key, on a fresh parse;
- `table.<action mode>`, the token game's view of the diagram and the step
  table of that action mode, on a diagram whose layout is built: what a
  command pays before its first successor;
- `reachable` in all four mode/action pairs, on a fresh diagram whose table
  is built.

It also judges recorded traces, as `check-trace` does, under each binding:

- token: a seeded `simulate --actions twoPhase` run of each fork_k x chain_c;
- v1: `run-v1` of `corpus/fac.ad` for n 10, 30 and 100;
- v2: `run-v2` of each fork_k x chain_c with one role per chain.

Each trace is written as its JSON lines and read back.  `read_us_per_line`
times the reader on those lines (`Configuration.from_json` of each line, or
one `state_reader`), and `us_per_pair` one `conforms` call with a fresh
binding, per judged pair.

Per-diagram costs are in µs per diagram and the search in µs per edge.  Every
time is the median over repeats, each scaled to the nominal host speed of
`perfbench/hostspeed.py`: multiplied by `NOMINAL_S` over the mean of the
reference times taken just before and just after it.  Each search's
configuration and edge counts are checked against `perfbench/inputs.py`'s
closed forms, and so are the token and v1 trace lengths; every trace must be
judged `satisfied`.  A wrong count or verdict is reported and the exit status
is 1.

    python bench/curves.py                  # all cells, JSON on stdout
    python bench/curves.py --quick          # k 2-3, c 1-2, fewer repeats
    python bench/curves.py --out BENCH_23.json --label change

With `--out`, the run is stored under `runs.<label>` of that JSON file, and
the file's other runs are kept.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hostspeed  # noqa: E402
import inputs  # noqa: E402
from adsem import diagram, semantics, sysmodel, tokengame, variant1, variant2  # noqa: E402

MODES = [(m, a) for m in (inputs.INTERLEAVING, inputs.CONCURRENT)
         for a in (inputs.INSTANT, inputs.TWO_PHASE)]
TAG = "c0de"


def scaled(prepare, measure, repeats: int) -> float:
    """Median µs of `measure(prepare())` at the nominal host speed; `prepare`
    is not timed."""
    times = []
    for _ in range(repeats):
        arg = prepare()
        gc.collect()
        before = hostspeed.time_reference()
        t0 = perf_counter()
        measure(arg)
        t = perf_counter() - t0
        after = hostspeed.time_reference()
        times.append(t * hostspeed.NOMINAL_S / ((before + after) / 2))
    return statistics.median(times) * 1e6


def step_table(ad: diagram.ActivityDiagram, action_mode: str):
    return tokengame._view(ad).table(ad, action_mode)


def measure_diagram(k: int, c: int, repeats: int) -> dict:
    """Parse, layout and the step table of each action mode of fork_k x chain_c."""
    text = inputs.ForkFamily(k, c, TAG).text()

    def laid_out():
        ad = diagram.parse(text)
        ad.layout
        return ad
    return {
        "k": k, "c": c,
        "parse_us": scaled(lambda: text, diagram.parse, repeats),
        "layout_us": scaled(lambda: diagram.parse(text), lambda ad: ad.layout, repeats),
        "table_us": {a: scaled(laid_out, lambda ad, a=a: step_table(ad, a), repeats)
                     for a in (inputs.INSTANT, inputs.TWO_PHASE)},
    }


def measure_search(k: int, c: int, mode: str, action_mode: str, repeats: int) -> dict:
    """`reachable` on fork_k x chain_c, its counts checked against the closed forms."""
    fam = inputs.ForkFamily(k, c, TAG)
    text = fam.text()

    def tabled():  # a fresh diagram, so no search starts with another's memoised tokens and texts
        ad = diagram.parse(text)
        step_table(ad, action_mode)
        return ad
    result = tokengame.reachable(tabled(), mode, action_mode)
    configs, edges = len(result.configs), len(result.edges)
    expected = (fam.configs(action_mode), fam.edges(mode, action_mode))
    del result
    us = scaled(tabled, lambda ad: tokengame.reachable(ad, mode, action_mode), repeats)
    return {"k": k, "c": c, "mode": mode, "actions": action_mode,
            "configurations": configs, "edges": edges,
            "correct": (configs, edges) == expected, "expected": list(expected),
            "us": us, "us_per_edge": us / edges}


def _record_trace(binding: str, shape) -> tuple[str, list[str], int | None]:
    """The diagram text, the trace's JSON lines (a v1 or v2 trace without its
    header) and the closed-form line count, if there is one, of one cell."""
    if binding == "v1":
        text = inputs.corpus_text("fac.ad")
        ad = diagram.parse(text)
        trace = variant1.run_method(ad, variant1.method_instance(ad), {"n": shape})
        return text, sysmodel.states_to_jsonl(trace.states).splitlines(), inputs.fac_answer(shape)[1]
    k, c = shape
    fam = inputs.ForkFamily(k, c, TAG, roles=binding == "v2")
    ad = diagram.parse(fam.text())
    if binding == "token":
        run = tokengame.random_run(ad, k * 10 + c, inputs.INTERLEAVING, inputs.TWO_PHASE)
        return fam.text(), tokengame.run_to_jsonl(ad, run.configs).splitlines(), fam.run_length(inputs.TWO_PHASE)
    sc = variant2.Scenario.from_json(ad, inputs.scenario(
        random.Random(k * 10 + c), [fam.action(a, b) for a in range(k) for b in range(c)], {}))
    trace = variant2.simulate(ad, variant2.standard_instance(ad, sc), sc)
    return fam.text(), sysmodel.states_to_jsonl(trace.states).splitlines(), None


def measure_check(binding: str, shape, repeats: int) -> dict:
    """Read and judge one recorded trace under `binding`; `shape` is fac's n
    for v1, else (k, c)."""
    text, lines, expected = _record_trace(binding, shape)

    def fresh():  # a diagram of the cell, laid out, with its token view
        ad = diagram.parse(text)
        tokengame._view(ad)
        return ad

    def read(ad) -> list:
        if binding == "token":
            return [tokengame.Configuration.from_json(ad, sysmodel.json_value(line)) for line in lines]
        return list(map(sysmodel.state_reader(), lines))

    def judged(ad):  # the trace as read, its instance and a fresh binding, as `check-trace` makes them
        states = read(ad)
        if binding == "token":
            inst, b, trace = tokengame.as_binding(ad, states, inputs.INTERLEAVING, inputs.TWO_PHASE)
            return trace, inst, b
        if binding == "v1":
            inst = variant1.method_instance(ad)
            return sysmodel.Trace(tuple(states)), inst, variant1.atomic_binding(inst)
        inst = variant2.standard_instance(ad)
        return sysmodel.Trace(tuple(states)), inst, variant2.methods_binding(inst)

    verdict = semantics.conforms(*judged(fresh())).kind.value
    pairs = len(lines) - 1
    return {"binding": binding, **({"n": shape} if binding == "v1" else {"k": shape[0], "c": shape[1]}),
            "lines": len(lines), "expected_lines": expected, "verdict": verdict,
            "correct": verdict == "satisfied" and expected in (None, len(lines)),
            "read_us_per_line": scaled(fresh, read, repeats) / len(lines),
            "us_per_pair": scaled(lambda: judged(fresh()), lambda args: semantics.conforms(*args),
                                  repeats) / pairs}


def search_repeats(k: int, c: int, mode: str, action_mode: str, most: int) -> int:
    """Fewer repeats for bigger searches: about 200,000 edges per cell, at least one."""
    return max(1, min(most, 200_000 // inputs.ForkFamily(k, c, TAG).edges(mode, action_mode)))


def run(ks, cs, ns, table_repeats: int, search_most: int) -> dict:
    diagrams = [measure_diagram(k, c, table_repeats) for k in ks for c in cs]
    searches = [measure_search(k, c, m, a, search_repeats(k, c, m, a, search_most))
                for k in ks for c in cs for m, a in MODES]
    checks = [measure_check(binding, (k, c), table_repeats) for binding in ("token", "v2")
              for k in ks for c in cs] + [measure_check("v1", n, table_repeats) for n in ns]
    return {
        "python": platform.python_version(),
        "nominal_reference_s": hostspeed.NOMINAL_S,
        "reference_s": hostspeed.time_reference(20),
        "units": {"parse_us": "µs per diagram", "layout_us": "µs per diagram",
                  "table_us": "µs per diagram and action mode", "us_per_edge": "µs per edge",
                  "read_us_per_line": "µs per trace line", "us_per_pair": "µs per judged pair"},
        "diagrams": diagrams,
        "searches": searches,
        "checks": checks,
        "correct": all(s["correct"] for s in searches + checks),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="k 2-3, c 1-2, fewer repeats")
    parser.add_argument("--out", type=Path, help="store the run in this JSON file")
    parser.add_argument("--label", default="change", help="the run's name in --out")
    args = parser.parse_args(argv)
    if args.quick:
        result = run(range(2, 4), range(1, 3), (10, 30), table_repeats=5, search_most=3)
    else:
        result = run(range(2, 6), range(1, 4), (10, 30, 100), table_repeats=41, search_most=15)
    for s in result["searches"]:
        if not s["correct"]:
            print(f"fork{s['k']}x{s['c']} {s['mode']}/{s['actions']}: configurations, edges "
                  f"{s['configurations']}, {s['edges']}; expected {s['expected']}", file=sys.stderr)
    for s in result["checks"]:
        if not s["correct"]:
            shape = f"fac n={s['n']}" if s["binding"] == "v1" else f"fork{s['k']}x{s['c']}"
            print(f"{s['binding']} {shape}: {s['lines']} lines judged {s['verdict']}; expected "
                  f"{s['expected_lines'] or 'any number of'} lines, satisfied", file=sys.stderr)
    if args.out:
        stored = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        stored.setdefault("harness", "bench/curves.py")
        stored.setdefault("runs", {})[args.label] = result
        args.out.write_text(json.dumps(stored, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    else:
        print(json.dumps(result, indent=1, ensure_ascii=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
