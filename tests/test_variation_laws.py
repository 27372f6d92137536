"""The token game's two variation points, interleaving or concurrent steps and
instant or twoPhase actions, change no answer of `reach` but its counts.

The laws are pinned on the corpus, the fixtures other than `orphan.ad`, whose
search never ends, fork_k x chain_c and `crossed`, the one diagram here whose
enabled steps of two nodes can touch one transition; README's "Semantics
notes" sketches why they hold on every diagram.  `reach --mode concurrent`
answers from them: the interleaving search, with an edge per selection of
steps.  Its report must be the full concurrent search's, on `orphan.ad` too,
and the full search must run only where BFS order shows in the output: in a
DOT file, in a truncated search and in the order of two or more deadlocks.
"""

from __future__ import annotations

import json
import weakref
from functools import cache
from pathlib import Path

import pytest

from adsem import cli, tokengame
from adsem.diagram import parse
from adsem.tokengame import (
    CONCURRENT,
    DEFAULT_BOUND,
    INSTANT,
    INTERLEAVING,
    TWO_PHASE,
    _expand,
    _view,
    analyze,
    concurrent_edges,
    reachability_to_dot,
    reachable,
    successors,
)

from ._forks import FAMILIES, fork_text
from .conftest import CORPUS

FIXTURES = Path(__file__).resolve().parent / "fixtures"
MODES = [(mode, actions) for mode in (INTERLEAVING, CONCURRENT) for actions in (INSTANT, TWO_PHASE)]
ORPHAN_BOUND = 200  # orphan.ad never dies out, so its search is always cut

TEXTS = {path.stem: path.read_text(encoding="utf-8")
         for path in sorted(CORPUS.glob("*.ad")) + sorted(FIXTURES.glob("*.ad"))}
TEXTS.update({f"fork{k}x{c}": fork_text(k, c) for k, c in FAMILIES})
# both inputs of the decision merge D hold a token, and its branches a->l and b->r
# touch no common transition, yet a selection takes at most one step of a node;
# once a token is on D.l->A.x, A's step and D's branch b->l both touch it
TEXTS["crossed"] = """activity Crossed {
    initial i out s;
    forkjoin F in x out p, q;
    decisionmerge D in a, b out l, r;
    action A in x out y;
    final f in y, z;

    i.s -> F.x;
    F.p -> D.a;
    F.q -> D.b;
    D.l -> A.x;
    D.r -> f.z;
    A.y -> f.y;
}
"""
LAWFUL = [name for name in TEXTS if name != "orphan"]
FALLBACKS = {"split_join", "orphan"}  # two deadlocks; a truncated search


@cache
def diagram(name: str):
    return parse(TEXTS[name])


@cache
def search(name: str, mode: str, actions: str):
    return reachable(diagram(name), mode, actions, ORPHAN_BOUND if name == "orphan" else DEFAULT_BOUND)


def bound_options(name: str) -> list[str]:
    return ["--bound", str(ORPHAN_BOUND)] if name == "orphan" else []


# ---------------------------------------------------------------------------
# The laws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", LAWFUL)
def test_the_four_reports_agree_but_their_counts(name):
    ad, reports = diagram(name), []
    for mode, actions in MODES:
        result = search(name, mode, actions)
        assert not result.truncated
        report = analyze(ad, result).to_json(ad)
        reports.append({key: value for key, value in report.items() if key not in ("configurations", "edges")})
    assert all(report == reports[0] for report in reports[1:])


@pytest.mark.parametrize("name", LAWFUL)
def test_the_instant_set_is_the_flag_free_part_of_the_two_phase_set(name):
    instant, two_phase = (search(name, INTERLEAVING, actions).configs for actions in (INSTANT, TWO_PHASE))
    assert set(instant) == {c for c in two_phase if not any(c.flags)}


@pytest.mark.parametrize("name", LAWFUL)
def test_every_two_phase_dead_end_is_flag_free(name):
    # a deadlock is a non-final dead end; a set flag can always finish
    assert not any(any(c.flags) for c in search(name, INTERLEAVING, TWO_PHASE).dead_ends)


@pytest.mark.parametrize("actions", (INSTANT, TWO_PHASE))
@pytest.mark.parametrize("name", LAWFUL)
def test_concurrent_steps_reach_the_interleaving_set_with_an_edge_per_selection(name, actions):
    ad = diagram(name)
    interleaved, concurrent = search(name, INTERLEAVING, actions), search(name, CONCURRENT, actions)
    assert set(concurrent.configs) == set(interleaved.configs)
    assert len(concurrent.edges) == sum(len(successors(ad, c, CONCURRENT, actions)) for c in interleaved.configs)


# ---------------------------------------------------------------------------
# The derived report against the full search
# ---------------------------------------------------------------------------

@pytest.fixture
def searched(monkeypatch) -> list[str]:
    """The modes of the searches that `reach` runs, in order.  Each starts with no earlier
    search's result alive, since a cut search can be as large as the full one."""
    modes, results, real = [], [], tokengame.reachable

    def recorded(ad, mode, **kw):
        assert all(result() is None for result in results)
        modes.append(mode)
        result = real(ad, mode, **kw)
        results.append(weakref.ref(result))
        return result
    monkeypatch.setattr(tokengame, "reachable", recorded)
    return modes


@pytest.mark.parametrize("actions", (INSTANT, TWO_PHASE))
@pytest.mark.parametrize("name", list(TEXTS))
def test_reach_concurrent_prints_the_full_searchs_report(tmp_path, capsys, searched, name, actions):
    path = tmp_path / f"{name}.ad"
    path.write_text(TEXTS[name], encoding="utf-8")
    assert cli.main(["reach", str(path), "--mode", CONCURRENT, "--actions", actions, *bound_options(name)]) == 0
    ad = diagram(name)
    full = analyze(ad, search(name, CONCURRENT, actions))
    assert capsys.readouterr().out == json.dumps(full.to_json(ad), sort_keys=True) + "\n"
    assert (name in FALLBACKS) == (full.truncated or len(full.deadlocks) > 1)
    assert searched == ([INTERLEAVING, CONCURRENT] if name in FALLBACKS else [INTERLEAVING])


@pytest.mark.parametrize("name", ["grade_thesis", "fork3x2", "orphan"])
def test_reach_concurrent_with_dot_runs_the_full_search_alone(tmp_path, capsys, searched, name):
    path, dot = tmp_path / f"{name}.ad", tmp_path / "reach.dot"
    path.write_text(TEXTS[name], encoding="utf-8")
    argv = ["reach", str(path), "--mode", CONCURRENT, "--actions", TWO_PHASE, "--dot", str(dot), *bound_options(name)]
    assert cli.main(argv) == 0
    ad, full = diagram(name), search(name, CONCURRENT, TWO_PHASE)
    assert capsys.readouterr().out == json.dumps(analyze(ad, full).to_json(ad), sort_keys=True) + "\n"
    assert dot.read_text(encoding="utf-8") == reachability_to_dot(ad, full)
    assert searched == [CONCURRENT]


@pytest.mark.parametrize("actions", (INSTANT, TWO_PHASE))
@pytest.mark.parametrize("name", list(TEXTS))
def test_the_selection_counter_counts_what_expand_builds(name, actions):
    ad = diagram(name)
    view = _view(ad)
    table, branched = view.table(ad, actions), False
    for c in search(name, INTERLEAVING, actions).configs:
        enabled = table.scan(c)
        assert concurrent_edges(ad, [c], actions) == len(list(_expand(ad, view, c, enabled, CONCURRENT)))
        branched = branched or any(len(steps) > 1 for steps in enabled.values())
    # a decision with two enabled branches, which no selection may take together
    assert branched or name not in ("grade_thesis", "fac", "crossed")
