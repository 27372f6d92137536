"""`adsem validate` on diagram text, pinned byte for byte.

For every `corpus/*.ad` and `tests/fixtures/*.ad`, with its own line ends
and with `\\r\\n`, the files under `golden/parse/` hold the exit code,
stdout and stderr of `adsem validate` on the text itself and on seeded
single-edit mutants of it: one of ``; { } " . -> , :`` deleted, one of
those, a tab or a ``$`` inserted, a space before a line end or at the end
of the text, or a line break inside a string literal.  Each mutant is
stored as its edit ``[position, deleted length, inserted text]``, applied
to the text with the stated line ends, so replaying it draws no random
numbers.  `error_locations.json` holds texts with a pinned diagnostic
location (comments, multi-line strings, tabs, `\\r\\n`, a bad character at
the end).  Together they fix the lexer's and the parser's diagnostics:
code, location and message.

Regenerate them, only when an output change is intended, from the
repository root with::

    PYTHONPATH=src python -m tests.test_cli_golden_parse
"""

from __future__ import annotations

import json
import random
import re
import tempfile
from pathlib import Path

import pytest

from .conftest import CORPUS
from .test_cli_golden import _cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "parse"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
SOURCES = sorted(CORPUS.glob("*.ad")) + sorted(FIXTURES.glob("*.ad"))

DELETED = [";", "{", "}", '"', ".", "->", ",", ":"]
INSERTED = DELETED + ["\t", "$"]
EDITS_PER_DELETED = 2

ERROR_TEXTS = [
    "activity X {\n  // a comment; with -> punctuation\n  initial i out o; // trailing\n"
    "  final f in z; $\n}\n",
    'activity X {\n  decisionmerge D in v out p guard "a\nb", q guard "c";\n'
    "  decisionmerge D in w;\n}\n",
    'activity X {\n  decisionmerge D in v out p guard "first\n  second" -> q;\n}\n',
    'activity X {\n  action A out p guard "say \\"hi\\"\n" @\n}\n',
    "activity X {\n\tinitial\ti out o;\n\t\tfinal\tf in z;\n\tfinal\tf in y;\n}\n",
    "activity X {\r\n  initial i out o;\r\n  initial i out p;\r\n}\r\n",
    "activity X {\r\n  initial i out o;\r\n  final f in z; #\r\n}\r\n",
    "activity X {\n  initial i;\n  final f;\n  i -> f;\n}\n!",
    "activity X { initial i; final f; i -> f; }?",
    'activity X {\n  action A effect "never closed;\n}\n',
    "",
    "  // only a comment",
    "action X { }",
    "activity { }",
    "activity X",
    "activity X { initial i out o; final f in z; i.o -> f.z; } }",
    "activity X { initial i out o",
    "activity X { initial i role ; }",
    "activity X { initial i out o: ; }",
    "activity X { action a effect done; }",
    "activity X { action a in x, ; }",
    "activity X { action a in x out x; }",
    'activity X { action a in x guard "g"; }',
    "activity X { initial i; i -> ghost; }",
    "activity X { initial i out o; final f in z; i.p -> f.z; }",
    "activity X { initial i out o; final f in z; i.o -> f.y; }",
    "activity X { initial i out o; final f in z; i.o -> f; }",
    "activity X { initial i; final f; i -> f; i._o1 -> f._i1; i._i1 -> f._o1; }",
    "activity X { initial i out _o1; final f in _i1; i -> f; i -> f; }",
]

_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def _text(path: Path, crlf: bool) -> str:
    text = path.read_text(encoding="utf-8")
    return text.replace("\n", "\r\n") if crlf else text


def _apply(text: str, edit: list | None) -> str:
    if edit is None:
        return text
    pos, deleted, inserted = edit
    return text[:pos] + inserted + text[pos + deleted:]


def _mutants(text: str, rng: random.Random, newline: str) -> list[list]:
    edits: list[list] = []
    for s in DELETED:
        sites = [m.start() for m in re.finditer(re.escape(s), text)]
        for pos in sorted(rng.sample(sites, min(EDITS_PER_DELETED, len(sites)))):
            edits.append([pos, len(s), ""])
    for s in INSERTED:
        edits.append([rng.randrange(len(text) + 1), 0, s])
    line_ends = [m.start() for m in re.finditer(re.escape(newline), text)]
    edits.append([rng.choice(line_ends), 0, " "])
    edits.append([len(text), 0, " "])
    strings = [m for m in _STRING.finditer(text) if m.end() - m.start() > 2]
    for m in rng.sample(strings, min(2, len(strings))):
        edits.append([rng.randrange(m.start() + 1, m.end() - 1), 0, newline])
    return edits


def validated(text: str, tmp: Path) -> dict:
    path = tmp / "diagram.ad"
    path.write_bytes(text.encode("utf-8"))
    return _cli("validate", str(path))


def source_cases(path: Path) -> list[dict]:
    rng = random.Random(path.name)
    cases = []
    for crlf in (False, True):
        text = _text(path, crlf)
        for edit in [None] + _mutants(text, rng, "\r\n" if crlf else "\n"):
            cases.append({"crlf": crlf, "edit": edit})
    return cases


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.json"


def _replay(cases: list[dict], text_of, tmp: Path) -> list[str]:
    mismatches = []
    for k, case in enumerate(cases):
        actual = validated(text_of(case), tmp)
        expected = {key: case[key] for key in ("exit", "stdout", "stderr")}
        if actual != expected:
            mismatches.append(f"case {k} {json.dumps(case)}: got {json.dumps(actual)}")
    return mismatches


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_validate_matches_golden(path, tmp_path):
    cases = json.loads(golden_path(path.name).read_text(encoding="utf-8"))
    assert _replay(cases, lambda c: _apply(_text(path, c["crlf"]), c["edit"]), tmp_path) == []


def test_validate_error_locations_match_golden(tmp_path):
    cases = json.loads(golden_path("error_locations").read_text(encoding="utf-8"))
    assert [c["text"] for c in cases] == ERROR_TEXTS
    assert _replay(cases, lambda c: c["text"], tmp_path) == []


def _write(name: str, cases: list[dict], text_of, tmp: Path) -> None:
    for case in cases:
        case.update(validated(text_of(case), tmp))
    golden_path(name).write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for path in SOURCES:
            _write(path.name, source_cases(path),
                   lambda c, path=path: _apply(_text(path, c["crlf"]), c["edit"]), Path(tmp))
        _write("error_locations", [{"text": t} for t in ERROR_TEXTS], lambda c: c["text"], Path(tmp))
