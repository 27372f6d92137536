from __future__ import annotations

import copy

import pytest

from adsem.sysmodel import (
    Frame,
    SystemModelError,
    SystemState,
    Trace,
    state_from_json,
    state_to_json,
    top_frame,
)


def frame(pc="p1", vars=None) -> Frame:
    return Frame.make("obj:a", "m:run", vars or {}, pc, "obj:caller")


# ---------------------------------------------------------------------------
# Frames and stacks
# ---------------------------------------------------------------------------

def test_top_frame_returns_pushed_frame():
    s = SystemState().push("obj:a", "th", frame())
    assert top_frame(s, "obj:a", "th") == frame()


def test_top_frame_empty_stack_absent():
    assert top_frame(SystemState(), "obj:a", "th") is None


def test_top_frame_lifo():
    f1, f2 = frame("p1"), frame("p2")
    s = SystemState().push("obj:a", "th", f1).push("obj:a", "th", f2)
    assert top_frame(s, "obj:a", "th") == f2
    assert top_frame(s.pop("obj:a", "th"), "obj:a", "th") == f1


# ---------------------------------------------------------------------------
# Functional update discipline
# ---------------------------------------------------------------------------

def test_set_attr_is_functional_override():
    s0 = SystemState().set_attr("obj:a", "x", 1).set_attr("obj:a", "y", 2)
    s1 = s0.set_attr("obj:a", "x", 9)
    assert s0.attrs("obj:a") == {"x": 1, "y": 2}
    assert s1.attrs("obj:a") == {"x": 9, "y": 2}


def test_updates_leave_the_source_unchanged_and_share_the_rest():
    s0 = (SystemState(event_store={"obj:a": ("ping",)})
          .set_attr("obj:a", "x", 1).set_attr("obj:b", "y", 2)
          .push("obj:a", "th", frame("p1")).push("obj:b", "th", frame("p2")))
    before = copy.deepcopy(s0)
    updated = [s0.set_attr("obj:a", "x", 9), s0.set_attr("obj:c", "z", 3),
               s0.with_stack("obj:a", "th2", (frame("p3"),)), s0.push("obj:a", "th", frame("p4")),
               s0.pop("obj:a", "th")]
    assert s0 == before
    assert [s.attrs("obj:a")["x"] for s in updated] == [9, 1, 1, 1, 1]
    assert updated[0].data_store["obj:b"] is s0.data_store["obj:b"]
    assert updated[0].control_store is s0.control_store
    for s in updated[2:]:
        assert s.control_store["obj:b"] is s0.control_store["obj:b"]
        assert s.data_store is s0.data_store
        assert s.event_store is s0.event_store
    assert updated[2].stack("obj:a", "th") == (frame("p1"),)
    assert updated[4].stack("obj:a", "th") == ()


# ---------------------------------------------------------------------------
# States as values
# ---------------------------------------------------------------------------

def stores() -> tuple[dict, dict, dict]:
    """Fresh stores, equal on every call."""
    return {"obj:a": {"x": 1}}, {"obj:a": {"th": (frame("p1", {"i": 2}),)}}, {"obj:a": ("ping",)}


def test_states_from_equal_stores_are_equal():
    a, b = SystemState(*stores()), SystemState(*stores())
    assert a == b and a is not b
    assert SystemState(*stores()).set_attr("obj:a", "x", 2) != a
    assert SystemState() == SystemState({}, {}, {})
    assert (SystemState().set_attr("obj:a", "x", 1).push("obj:a", "th", frame("p1", {"i": 2}))
            == SystemState(stores()[0], stores()[1]))


@pytest.mark.parametrize("state", [SystemState(), SystemState(*stores())], ids=["empty", "full"])
def test_states_are_unhashable(state):
    with pytest.raises(TypeError):
        hash(state)


def test_updates_never_write_into_the_default_stores():
    s = SystemState()
    s.set_attr("obj:a", "x", 1)
    s.push("obj:a", "th", frame())
    s.with_stack("obj:b", "th", (frame("p2"),))
    SystemState().set_attr("obj:c", "y", 2).push("obj:c", "th", frame()).pop("obj:c", "th")
    fresh = SystemState()
    assert (fresh.data_store, fresh.control_store, fresh.event_store) == ({}, {}, {})
    assert (fresh.attrs("obj:a"), fresh.stack("obj:a", "th")) == ({}, ())


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def test_trace_requires_a_state():
    with pytest.raises(SystemModelError):
        Trace(())


# ---------------------------------------------------------------------------
# JSON snapshots
# ---------------------------------------------------------------------------

def test_state_json_round_trip():
    s = (SystemState(event_store={"obj:a": ("ping",)})
         .set_attr("obj:a", "x", 1)
         .push("obj:a", "th", frame("p2", {"i": 4})))
    d = state_to_json(s)
    assert d["cs"]["obj:a"]["th"][0]["pc"] == "p2"
    assert state_from_json(d) == s
