"""Command-line surface.

Subcommands: validate, render, simulate, reach, run-v1, run-v2,
check-trace.  Output is machine-readable JSON unless --human is given.
Exit codes: 0 success / trace accepted, 1 validation failure, 2 trace
violated, 3 usage or I/O errors.  ADSEM_SEED overrides scenario seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from functools import cache, partial
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Sequence

from . import diagram, semantics, sysmodel, tokengame, variant1, variant2

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VIOLATED = 2
EXIT_USAGE = 3


class CliError(diagram.AdsemError):
    pass


def _load_diagram(path: str) -> diagram.ActivityDiagram:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from e
    return diagram.parse(text)


def _emit(payload: dict, human: bool) -> None:
    if human:
        for key, value in payload.items():
            print(f"{key}: {value}")
    else:
        print(json.dumps(payload, sort_keys=True))


def _parse_store(pairs: list[str]) -> dict[str, int]:
    store: dict[str, int] = {}
    for pair in pairs:
        if "=" not in pair:
            raise CliError(f"expected key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        if key in store:
            raise CliError(f"repeated key {key!r}")
        try:
            store[key] = int(raw)
        except ValueError:
            raise CliError(f"value for {key!r} must be an integer, got {raw!r}") from None
    return store


def _seed_override(seed: int) -> int:
    env = os.environ.get("ADSEM_SEED")
    try:
        return int(env) if env else seed
    except ValueError:
        raise CliError(f"ADSEM_SEED is not an integer: {env!r}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    ad = _load_diagram(args.file)
    diags = diagram.validate(ad, args.profile)
    payload = {"diagnostics": [d.to_json() for d in diags]}
    _emit(payload, args.human)
    errors = [d for d in diags if d.severity is diagram.Severity.ERROR]
    return EXIT_INVALID if errors else EXIT_OK


def _cmd_render(args) -> int:
    ad = _load_diagram(args.file)
    sys.stdout.write(diagram.to_dot(ad))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    ad = _load_diagram(args.file)
    run = tokengame.random_run(
        ad, seed=_seed_override(args.seed), mode=args.mode,
        action_mode=args.actions, max_len=args.bound)
    _write(args.out, "", run.configs, partial(tokengame.run_to_jsonl, ad))
    if run.cut:
        print("run cut before a maximal configuration", file=sys.stderr)
    return EXIT_OK


def _cmd_reach(args) -> int:
    """Concurrent mode's report is the interleaving search's with an edge per selection, unless
    its BFS order shows: in a DOT file, a truncated search or the order of two or more deadlocks."""
    ad = _load_diagram(args.file)
    with open(args.dot, "w", encoding="utf-8") if args.dot else nullcontext() as dot:
        derived = args.mode == tokengame.CONCURRENT and not dot
        search = partial(tokengame.reachable, ad, action_mode=args.actions, bound=args.bound)
        report = tokengame.analyze(ad, result := search(tokengame.INTERLEAVING if derived else args.mode))
        if derived and (result.truncated or len(report.deadlocks) > 1):
            del result  # a cut search can be as large as the full one: free it first
            report = tokengame.analyze(ad, result := search(args.mode))
        elif derived:
            report = replace(report, edges=tokengame.concurrent_edges(ad, result.configs, args.actions))
        _emit(report.to_json(ad), args.human)
        if dot:
            dot.write(tokengame.reachability_to_dot(ad, result))
    return EXIT_OK


def _write(path: str | None, head: str, items: Sequence, to_jsonl: Callable[[Sequence], str]) -> None:
    """`head`, then `to_jsonl` of each run of 256 items, written to `path` (else stdout) as it is made;
    each run encodes anew the stores it shares with the one before, so runs of 64 wrote fac n=200 5% slower."""
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as out:
        out.writelines(chain([head], (to_jsonl(items[i:i + 256]) for i in range(0, len(items), 256))))


def _write_trace(args, variant: str, inst, trace: sysmodel.Trace) -> None:
    header = {"diagram": args.file, "variant": variant, "params": inst.to_json(), "truncated": trace.truncated}
    _write(args.trace, json.dumps(header, sort_keys=True) + "\n", trace.states, sysmodel.states_to_jsonl)


def _cmd_run_v1(args) -> int:
    ad = _load_diagram(args.file)
    diags = [d for d in diagram.validate(ad, "variant1")
             if d.severity is diagram.Severity.ERROR]
    if diags:
        _emit({"diagnostics": [d.to_json() for d in diags]}, args.human)
        return EXIT_INVALID
    inst = variant1.method_instance(ad)
    store = _parse_store(args.store)
    trace = variant1.run_method(ad, inst, store, max_steps=args.max_steps)
    if args.trace:
        _write_trace(args, "v1", inst, trace)
    _emit({"store": variant1.terminal_store(inst, trace),
           "states": len(trace), "truncated": trace.truncated}, args.human)
    return EXIT_OK


def _cmd_run_v2(args) -> int:
    ad = _load_diagram(args.file)
    with _located(args.scenario):
        scenario = variant2.Scenario.from_json(
            ad, json.loads(Path(args.scenario).read_text(encoding="utf-8")))
    scenario = replace(scenario, seed=_seed_override(scenario.seed))
    inst = variant2.standard_instance(ad, scenario)
    trace = variant2.simulate(ad, inst, scenario, max_steps=args.max_steps)
    if args.trace:
        _write_trace(args, "v2", inst, trace)
    _emit({"states": len(trace), "truncated": trace.truncated}, args.human)
    return EXIT_OK


@contextmanager
def _located(path: str, at: list[int] | None = None):
    """Report what is wrong with a JSON file, or with line `at[0]` of a JSON-lines file as the
    error is raised, and where."""
    try:
        yield
    except (ValueError, TypeError, KeyError, AttributeError,
            tokengame.TokenGameError, sysmodel.SystemModelError) as e:
        where = path if at is None else f"{path}:{at[0]}"
        if isinstance(e, json.JSONDecodeError):
            column = f"line {e.lineno} column {e.colno}" if at is None else f"column {e.colno}"
            raise CliError(f"{where}: not JSON: {e.msg} at {column}") from e
        raise CliError(f"{where}: missing key {e}" if isinstance(e, KeyError) else f"{where}: {e}") from e


def _cmd_check_trace(args) -> int:
    """The trace is judged as it is read, a run of 64 lines at a time.  After a verdict or a state the
    binding cannot read, the rest is still decoded: a later line that does not decode is reported first."""
    ad, path = _load_diagram(args.file), "<stdin>" if args.trace == "-" else args.trace
    with nullcontext(sys.stdin) if args.trace == "-" else open(path, encoding="utf-8") as f:
        lines = enumerate(chain.from_iterable(map(str.splitlines, f)), 1)
        if (first := next(((i, line) for i, line in lines if line.strip()), None)) is None:
            raise CliError(f"empty trace file {path}")
        at = [first[0]]  # the line of the last state read

        def decoded(lines, decode):  # each run of 64 lines is decoded before its states are judged
            while run := list(islice(lines, 64)):
                with _located(path, at):
                    states = [(at[0], decode(line)) for at[0], line in run if line.strip()]
                for at[0], state in states:
                    yield state

        if args.variant == "token":
            inst, binding, trace = tokengame.as_binding(
                ad, decoded(chain([first], lines), lambda line: tokengame.Configuration.from_json(
                    ad, sysmodel.json_value(line))), mode=args.mode, action_mode=args.actions)
        else:
            with _located(path, at):
                header = sysmodel.json_object(json.loads(first[1]))
                if header.get("variant") not in (args.variant, None):
                    raise ValueError(f"trace was recorded for variant {header.get('variant')!r}")
                if args.variant == "v1":
                    inst = variant1.MethodExecutionInstance.from_json(ad, header["params"])
                    binding = variant1.atomic_binding(inst)
                else:
                    inst = variant2.ActionMethodsInstance.from_json(ad, header["params"])
                    binding = variant2.methods_binding(inst)
                truncated = header.get("truncated", False)
                if type(truncated) is not bool:
                    raise ValueError(f"truncated is not true or false: {truncated!r}")
                if unknown := header.keys() - {"diagram", "variant", "params", "truncated"}:
                    raise ValueError(f"unknown header keys: {sorted(unknown)}")
            trace = sysmodel.Stream(decoded(lines, sysmodel.state_reader()), lambda last: truncated)
        try:
            verdict = semantics.conforms(trace, inst, binding)
        except semantics.StateError as e:
            verdict = CliError(f"{path}:{at[0]}: {e.args[1]}")
        for _ in trace:
            pass
    if trace.last is None:
        raise CliError("trace file has a header but no states")
    if isinstance(verdict, CliError):
        raise verdict
    _emit(verdict.to_json(), args.human)
    return EXIT_OK if verdict.ok else EXIT_VIOLATED


# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 3, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_mode_options(p: argparse.ArgumentParser) -> None:
    """The token game's two variation points: step discipline and action execution."""
    p.add_argument("--mode", choices=[tokengame.INTERLEAVING, tokengame.CONCURRENT],
                   default=tokengame.INTERLEAVING)
    p.add_argument("--actions", choices=[tokengame.INSTANT, tokengame.TWO_PHASE],
                   default=tokengame.INSTANT)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first `main` call; each `parse_args` makes a fresh namespace."""
    parser = _ArgumentParser(prog="adsem",
                             description="Activity-diagram semantics workbench")
    parser.add_argument("--human", action="store_true",
                        help="human-readable output instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a diagram's context conditions")
    p.add_argument("file")
    p.add_argument("--profile", choices=["general", "variant1"], default="general")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("render", help="export a diagram as DOT")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("simulate", help="one seeded token-game run as JSON lines")
    p.add_argument("file")
    _add_mode_options(p)
    p.add_argument("--bound", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the run here instead of stdout")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("reach", help="exhaustive reachability report")
    p.add_argument("file")
    _add_mode_options(p)
    p.add_argument("--bound", type=int, default=tokengame.DEFAULT_BOUND)
    p.add_argument("--dot", help="also write the reachability graph as DOT")
    p.set_defaults(fn=_cmd_reach)

    p = sub.add_parser("run-v1", help="run a diagram as one method of atomic actions")
    p.add_argument("file")
    p.add_argument("store", nargs="*", help="initial attributes as key=value")
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--trace", help="write the trace file here")
    p.set_defaults(fn=_cmd_run_v1)

    p = sub.add_parser("run-v2", help="simulate actions as methods on role objects")
    p.add_argument("file")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--trace", help="write the trace file here")
    p.set_defaults(fn=_cmd_run_v2)

    p = sub.add_parser("check-trace", help="check a recorded trace for conformance")
    p.add_argument("file")
    p.add_argument("trace", help="the trace file, or - for stdin")
    p.add_argument("--variant", choices=["v1", "v2", "token"], required=True)
    _add_mode_options(p)
    p.set_defaults(fn=_cmd_check_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # a store's integers print and read at any length
    try:
        return args.fn(args)
    except diagram.ParseError as e:
        _emit({"diagnostics": [d.to_json() for d in e.diagnostics]}, args.human)
        return EXIT_INVALID
    except (OSError, KeyError, ValueError, diagram.AdsemError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
