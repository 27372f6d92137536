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
from contextlib import contextmanager
from dataclasses import replace
from functools import cache
from pathlib import Path

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
    text = tokengame.run_to_jsonl(ad, run.configs)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if run.cut:
        print("run cut before a maximal configuration", file=sys.stderr)
    return EXIT_OK


def _cmd_reach(args) -> int:
    ad = _load_diagram(args.file)
    result = tokengame.reachable(ad, mode=args.mode, action_mode=args.actions,
                                 bound=args.bound)
    report = tokengame.analyze(ad, result)
    _emit(report.to_json(ad), args.human)
    if args.dot:
        Path(args.dot).write_text(tokengame.reachability_to_dot(ad, result),
                                  encoding="utf-8")
    return EXIT_OK


def _write_trace(path: str, header: dict, trace: sysmodel.Trace) -> None:
    Path(path).write_text(json.dumps(header, sort_keys=True) + "\n"
                          + sysmodel.states_to_jsonl(trace.states), encoding="utf-8")


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
        header = {"diagram": args.file, "variant": "v1", "params": inst.to_json(),
                  "truncated": trace.truncated}
        _write_trace(args.trace, header, trace)
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
        header = {"diagram": args.file, "variant": "v2", "params": inst.to_json(),
                  "truncated": trace.truncated}
        _write_trace(args.trace, header, trace)
    _emit({"states": len(trace), "truncated": trace.truncated}, args.human)
    return EXIT_OK


@contextmanager
def _located(path: str, lineno: int | None = None):
    """Report what is wrong with a JSON file, or one line of a JSON-lines
    file, and where."""
    where = path if lineno is None else f"{path}:{lineno}"
    try:
        yield
    except json.JSONDecodeError as e:
        at = f"line {e.lineno} column {e.colno}" if lineno is None else f"column {e.colno}"
        raise CliError(f"{where}: not JSON: {e.msg} at {at}") from e
    except KeyError as e:
        raise CliError(f"{where}: missing key {e}") from e
    except (ValueError, TypeError, AttributeError,
            tokengame.TokenGameError, sysmodel.SystemModelError) as e:
        raise CliError(f"{where}: {e}") from e


def _decode_lines(path: str, lines: list[tuple[int, str]], decode) -> list:
    decoded = []
    try:
        for lineno, line in lines:
            decoded.append(decode(line))
    except Exception:
        with _located(path, lineno):
            raise
    return decoded


def _cmd_check_trace(args) -> int:
    ad = _load_diagram(args.file)
    lines = [(i, line) for i, line in
             enumerate(Path(args.trace).read_text(encoding="utf-8").splitlines(), 1)
             if line.strip()]
    if not lines:
        raise CliError(f"empty trace file {args.trace}")

    if args.variant == "token":
        run = _decode_lines(args.trace, lines, lambda line: tokengame.Configuration.from_json(
            ad, sysmodel.json_value(line)))
        inst, binding, trace = tokengame.as_binding(ad, run, mode=args.mode,
                                                    action_mode=args.actions)
    else:
        with _located(args.trace, lines[0][0]):
            header = sysmodel.json_object(json.loads(lines[0][1]))
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
        states = tuple(_decode_lines(args.trace, lines[1:], sysmodel.state_reader()))
        if not states:
            raise CliError("trace file has a header but no states")
        trace = sysmodel.Trace(states, truncated=truncated)

    try:
        verdict = semantics.conforms(trace, inst, binding)
    except semantics.StateError as e:
        index, reason = e.args
        state_lines = lines if args.variant == "token" else lines[1:]
        raise CliError(f"{args.trace}:{state_lines[index][0]}: {reason}") from e
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
    p.add_argument("trace")
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
