"""Scaling curves of what a `reach` command pays per diagram, and of its search.

For every fork_k x chain_c diagram (k 2-5, c 1-3) this times, in-process:

- `parse` of the diagram's text;
- `layout`, the diagram's transitions numbered by key, on a fresh parse;
- `table.<action mode>`, the token game's view of the diagram and the step
  table of that action mode, on a diagram whose layout is built: what a
  command pays before its first successor;
- `reachable` in all four mode/action pairs, on a fresh diagram whose table
  is built.

Per-diagram costs are in µs per diagram and the search in µs per edge.  Every
time is the median over repeats, each scaled to the nominal host speed of
`perfbench/hostspeed.py`: multiplied by `NOMINAL_S` over the mean of the
reference times taken just before and just after it.  Each search's
configuration and edge counts are checked against `perfbench/inputs.py`'s
closed forms; a wrong count is reported and the exit status is 1.

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
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import hostspeed  # noqa: E402
import inputs  # noqa: E402
from adsem import diagram, tokengame  # noqa: E402

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


def search_repeats(k: int, c: int, mode: str, action_mode: str, most: int) -> int:
    """Fewer repeats for bigger searches: about 200,000 edges per cell, at least one."""
    return max(1, min(most, 200_000 // inputs.ForkFamily(k, c, TAG).edges(mode, action_mode)))


def run(ks, cs, table_repeats: int, search_most: int) -> dict:
    diagrams = [measure_diagram(k, c, table_repeats) for k in ks for c in cs]
    searches = [measure_search(k, c, m, a, search_repeats(k, c, m, a, search_most))
                for k in ks for c in cs for m, a in MODES]
    return {
        "python": platform.python_version(),
        "nominal_reference_s": hostspeed.NOMINAL_S,
        "reference_s": hostspeed.time_reference(20),
        "units": {"parse_us": "µs per diagram", "layout_us": "µs per diagram",
                  "table_us": "µs per diagram and action mode", "us_per_edge": "µs per edge"},
        "diagrams": diagrams,
        "searches": searches,
        "correct": all(s["correct"] for s in searches),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="k 2-3, c 1-2, fewer repeats")
    parser.add_argument("--out", type=Path, help="store the run in this JSON file")
    parser.add_argument("--label", default="change", help="the run's name in --out")
    args = parser.parse_args(argv)
    if args.quick:
        result = run(range(2, 4), range(1, 3), table_repeats=5, search_most=3)
    else:
        result = run(range(2, 6), range(1, 4), table_repeats=41, search_most=15)
    for s in result["searches"]:
        if not s["correct"]:
            print(f"fork{s['k']}x{s['c']} {s['mode']}/{s['actions']}: configurations, edges "
                  f"{s['configurations']}, {s['edges']}; expected {s['expected']}", file=sys.stderr)
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
