"""Global system states and traces.

A state has three stores: a data store (per-object attribute values), a
control store (per-object, per-thread stacks of activation frames), and
an event store (per-object pending messages, carried but never consumed
here).  A trace is a finite sequence of states; the variants and the
token game produce them, and the conformance checker judges them.

States are values: update helpers return new states and never mutate.
An update copies only the object it changes, so states share unchanged
per-object stores and no code may mutate a store dict in place.  Stacks
are tuples with the top frame at index 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .diagram import AdsemError

Value = int | bool | str
READ_MEMO = 256  # the texts a trace reader's memo keeps, per kind: the most recently used


class SystemModelError(AdsemError):
    pass


class Frame(NamedTuple):
    callee: str
    mname: str
    vars: tuple[tuple[str, Value], ...]
    pc: str
    caller: str

    @staticmethod
    def make(callee: str, mname: str, vars: Mapping[str, Value], pc: str, caller: str) -> "Frame":
        return Frame(callee, mname, tuple(sorted(vars.items())), pc, caller)

    @property
    def locals(self) -> dict[str, Value]:
        return dict(self.vars)


Stack = tuple[Frame, ...]


class SystemState(NamedTuple):
    """The three stores as one tuple; no update writes into the shared default dicts."""
    data_store: dict[str, dict[str, Value]] = {}
    control_store: dict[str, dict[str, Stack]] = {}
    event_store: dict[str, tuple[str, ...]] = {}

    def attrs(self, oid: str) -> dict[str, Value]:
        return dict(self.data_store.get(oid, {}))

    def stack(self, oid: str, thread: str) -> Stack:
        return self.control_store.get(oid, {}).get(thread, ())

    def set_attr(self, oid: str, var: str, value: Value) -> "SystemState":
        ds = dict(self.data_store)
        ds[oid] = {**ds.get(oid, {}), var: value}
        return new_state((ds, self.control_store, self.event_store))

    def with_stack(self, oid: str, thread: str, stack: Stack) -> "SystemState":
        cs = dict(self.control_store)
        cs[oid] = {**cs.get(oid, {}), thread: stack}
        return new_state((self.data_store, cs, self.event_store))

    def push(self, oid: str, thread: str, frame: Frame) -> "SystemState":
        return self.with_stack(oid, thread, (frame,) + self.stack(oid, thread))

    def pop(self, oid: str, thread: str) -> "SystemState":
        stack = self.stack(oid, thread)
        if not stack:
            raise SystemModelError(f"pop on empty stack for ({oid!r}, {thread!r})")
        return self.with_stack(oid, thread, stack[1:])


new_state = partial(tuple.__new__, SystemState)  # of a (data, control, events) triple, built in C


def top_frame(state: SystemState, oid: str, thread: str) -> Frame | None:
    """Top of the (oid, thread) stack, or None when the stack is empty."""
    stack = state.stack(oid, thread)
    return stack[0] if stack else None


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trace:
    """A finite run; truncated marks a prefix of a longer behavior."""
    states: tuple[SystemState, ...]
    truncated: bool = False

    def __post_init__(self):
        if not self.states:
            raise SystemModelError("a trace has at least one state")

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[SystemState]:
        return iter(self.states)

    def __getitem__(self, i: int) -> SystemState:
        return self.states[i]


class Stream:
    """States judged as they are read, each held until the next; `truncated` is `truncated_of(last)`."""
    def __init__(self, states: Iterable, truncated_of: Callable[[object], bool]):
        self.states, self.last, self.truncated_of = iter(states), None, truncated_of

    def __iter__(self) -> Iterator:
        for self.last in self.states:
            yield self.last

    truncated = property(lambda self: self.truncated_of(self.last))


# ---------------------------------------------------------------------------
# JSON snapshots
# ---------------------------------------------------------------------------

def frame_to_json(f: Frame) -> dict:
    return {"callee": f.callee, "m": f.mname, "vars": f.locals, "pc": f.pc, "caller": f.caller}


def frame_from_json(d: dict) -> Frame:
    """Raises ValueError unless `callee`, `m`, `pc` and `caller` are strings and `vars` the only other key."""
    callee, mname, pc, caller = d["callee"], d["m"], d["pc"], d["caller"]
    if len(d) != 4 + ("vars" in d):  # a key besides those four and `vars`
        raise ValueError(f"unknown frame keys: {sorted(d.keys() - {'callee', 'm', 'vars', 'pc', 'caller'})}")
    if not (type(callee) is type(mname) is type(pc) is type(caller) is str):
        bad = {k: d[k] for k in ("callee", "m", "pc", "caller") if type(d[k]) is not str}
        raise ValueError(f"frame fields are not strings: {bad}")
    return Frame.make(callee, mname, d.get("vars", {}), pc, caller)


def state_to_json(s: SystemState) -> dict:
    return {
        "ds": {o: dict(vs) for o, vs in s.data_store.items()},
        "cs": {o: {th: [frame_to_json(f) for f in st] for th, st in ts.items()}
               for o, ts in s.control_store.items()},
        "es": {o: list(msgs) for o, msgs in s.event_store.items()},
    }


_encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps(value, sort_keys=True)


def states_to_jsonl(states: Iterable[SystemState]) -> str:
    """One `json.dumps(state_to_json(s), sort_keys=True)` line per state, joined from texts
    memoised by identity: each distinct store, per-object store, stack and stored value is
    encoded once per call.  The states are held until this returns, so no id is reused."""
    texts: dict[int, str] = {}  # by id: a store's, a per-object store's, a stack's or a value's
    keys: dict[str, str] = {}  # '"key": ' by key
    lines, get = [], texts.get
    for ds, cs, es in tuple(states):
        for store in cs, ds:
            if id(store) in texts:
                continue
            objects = []
            for o in sorted(store):
                inner = store[o]
                text = get(id(inner))
                if text is None:
                    items = []
                    for k in sorted(inner):
                        v = inner[k]
                        leaf = get(id(v)) or texts.setdefault(id(v), repr(v) if type(v) is int else _encode(
                            [frame_to_json(f) for f in v] if store is cs else v))
                        items.append((keys.get(k) or keys.setdefault(k, _encode(k) + ": ")) + leaf)
                    text = texts[id(inner)] = "{" + ", ".join(items) + "}"
                objects.append((keys.get(o) or keys.setdefault(o, _encode(o) + ": ")) + text)
            texts[id(store)] = "{" + ", ".join(objects) + "}"
        events = get(id(es)) or texts.setdefault(id(es), _encode({o: list(m) for o, m in es.items()}))
        lines.append(f'{{"cs": {texts[id(cs)]}, "ds": {texts[id(ds)]}, "es": {events}}}\n')
    return "".join(lines)


def _each(kind: type, build: Callable, stores: dict) -> dict:
    """`build` of each value of `stores`; raises ValueError unless every value is a `kind`."""
    built = {k: build(v) for k, v in stores.items() if type(v) is kind}
    if len(built) < len(stores):
        bad = {k: v for k, v in stores.items() if k not in built}
        raise ValueError(f"expected JSON {'objects' if kind is dict else 'lists'}, got {bad}")
    return built


_data_from_json = partial(_each, dict, dict)
_control_from_json = partial(_each, dict, partial(
    _each, list, lambda stack: tuple(map(frame_from_json, stack))))
_events_from_json = partial(_each, list, tuple)


def json_object(value: object) -> dict:
    """`value`, decoded from one JSON text; raises ValueError unless it is an object."""
    if type(value) is not dict:
        raise ValueError(f"not a JSON object: {type(value).__name__}")
    return value


def state_from_json(d: dict) -> SystemState:
    """A missing store is empty; raises ValueError on a key besides `ds`, `cs` and `es`."""
    if unknown := json_object(d).keys() - {"ds", "cs", "es"}:
        raise ValueError(f"unknown state keys: {sorted(unknown)}")
    return SystemState(_data_from_json(d.get("ds", {})), _control_from_json(d.get("cs", {})),
                       _events_from_json(d.get("es", {})))


def json_value(text: str, _raw_decode=json.JSONDecoder().raw_decode):
    """`json.loads(text)`, without its whitespace scans when `text` is exactly one value."""
    try:
        value, end = _raw_decode(text)
    except ValueError:
        end = -1
    return value if end == len(text) else json.loads(text)


def state_reader() -> Callable[[str], SystemState]:
    """The mirror of `states_to_jsonl`: `state_from_json(json.loads(line))`, decoding each of the
    `READ_MEMO` last store texts once.  Cut at its first `, "ds": ` and the next `, "es": `, `{"cs": C,
    "ds": D, "es": E}` means just C, D and E if each decodes; else the per-line path decodes or raises."""
    control, data, events = (lru_cache(READ_MEMO)(lambda text, build=build: build(json_value(text)))
                             for build in (_control_from_json, _data_from_json, _events_from_json))

    def read(line: str) -> SystemState:
        i = line.find(', "ds": ')
        j = line.find(', "es": ', i + 8)
        if 0 < i < j and line.startswith('{"cs": ') and line.endswith("}"):
            try:
                return new_state((data(line[i + 8:j]), control(line[7:i]), events(line[j + 8:-1])))
            except Exception:
                pass
        return state_from_json(json.loads(line))
    return read
