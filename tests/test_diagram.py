from __future__ import annotations

import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adsem.diagram import (
    CONTROL,
    DEFAULT_ROLE,
    TOP,
    DiagramError,
    Node,
    NodeKind,
    ParseError,
    Severity,
    Transition,
    compatible,
    data_type,
    incoming,
    outgoing,
    parse,
    to_dot,
    to_text,
    validate,
)
from adsem.diagram import _error, _lex
from adsem.semantics import CONTROL_TOKEN, Token

from .conftest import CORPUS, load

MINIMAL_TEXT = "activity E { initial i; final f; i -> f; }"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_grade_thesis(grade):
    assert grade.name == "GradeThesis"
    assert len(grade.nodes) == 11
    actions = {n.name for n in grade.nodes if n.kind is NodeKind.ACTION}
    assert actions == {"FileThesis", "ReviewThesis1", "ReviewThesis2",
                       "Evaluate", "CreateCert", "DetainFailure"}
    assert grade.roles == ("Student", "Referee1", "Referee2")
    assert grade.pin_type("FileThesis", "t") == data_type("Thesis")
    assert grade.guard("D1", "p") == "passed"
    assert grade.guard("D1", "f") == "failed"
    assert grade.guard("FileThesis", "t") == "true"


def test_parse_minimal_synthesizes_control_pins():
    ad = parse(MINIMAL_TEXT)
    assert len(ad.nodes) == 2
    assert len(ad.transitions) == 1
    t = ad.transitions[0]
    assert ad.node("i").out_pins == (t.out_pin,)
    assert ad.node("f").in_pins == (t.in_pin,)
    assert ad.pin_type("i", t.out_pin) == CONTROL
    assert ad.pin_type("f", t.in_pin) == CONTROL
    assert ad.role_of["i"] == DEFAULT_ROLE


def test_parse_unknown_node_edge():
    with pytest.raises(ParseError) as err:
        parse("activity X { action a out x; a.x -> ghost.y; }")
    codes = [d.code for d in err.value.diagnostics]
    assert "unknown-node" in codes
    assert all(d.severity is Severity.ERROR for d in err.value.diagnostics)


def test_parse_duplicate_node():
    with pytest.raises(ParseError) as err:
        parse("activity X { action a; action a; }")
    assert err.value.diagnostics[0].code == "duplicate-node"


def test_parse_syntax_error_has_location():
    with pytest.raises(ParseError) as err:
        parse("activity X {\n  action ;\n}")
    d = err.value.diagnostics[0]
    assert d.code == "syntax-error"
    assert d.location.startswith("2:")


def test_parse_top_type_and_guard_escapes():
    ad = parse('activity X { action a out p: any guard "x \\"q\\" y"; final f in z; a.p -> f.z; }')
    assert ad.pin_type("a", "p") == TOP
    assert ad.guard("a", "p") == 'x "q" y'
    again = parse(to_text(ad))
    assert again == ad


# ---------------------------------------------------------------------------
# Lexer locations
# ---------------------------------------------------------------------------

# The lexer's token classes, one match per lexeme, kept here apart from the
# code under test so that `_reference_lex` is an independent oracle.
_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<arrow>->)
  | (?P<punct>[{};:,.])
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _reference_lex(text: str) -> list[tuple[str, str, int, int]] | str:
    """Tokens as (text, kind, line, col), counting lines and columns over
    every lexeme; or the location of the first character no token matches."""
    toks, line, col, pos = [], 1, 1, 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None or m.lastgroup == "bad":
            return f"{line}:{col}"
        raw = m.group()
        if m.lastgroup not in ("ws", "comment"):
            toks.append((raw, m.lastgroup, line, col))
        nl = raw.count("\n")
        if nl:
            line += nl
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    return toks


def _lexed(text: str) -> list[tuple[str, str, int, int]] | str:
    """The lexer's tokens in `_reference_lex`'s form, each located as a
    diagnostic naming it would locate it; the token list must end with ""
    and nothing else."""
    try:
        toks, names = _lex(text)
    except ParseError as e:
        return e.diagnostics[0].location
    n = toks.index("")
    assert set(toks[n:]) == {""} and not any(names[n:])
    lexed = []
    for i, (tok, name) in enumerate(zip(toks[:n], names)):
        assert name in ("", tok)
        kind = "name" if name else "string" if tok[0] == '"' else "arrow" if tok == "->" else "punct"
        line, col = _error(text, i, "syntax-error", "here").diagnostics[0].location.split(":")
        lexed.append((tok, kind, int(line), int(col)))
    return lexed


LEXED_FILES = sorted(CORPUS.glob("*.ad")) + sorted((Path(__file__).parent / "fixtures").glob("*.ad"))


@pytest.mark.parametrize("path", LEXED_FILES, ids=lambda path: path.name)
def test_lex_matches_reference(path):
    text = path.read_text(encoding="utf-8")
    assert _lexed(text) == _reference_lex(text)
    assert _lexed(text.replace("\n", "\r\n")) == _reference_lex(text.replace("\n", "\r\n"))


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet='activy {};.->"\\/\t\r\n\x0c\u2028é$', max_size=60))
def test_lex_matches_reference_on_any_text(text):
    assert _lexed(text) == _reference_lex(text)


# Expected diagnostics were recorded with a lexer that counted lines and
# columns over every lexeme, as `_reference_lex` does.
@pytest.mark.parametrize("text,code,location,message", [
    ("activity X {\n  // a comment; with -> punctuation\n  initial i out o; // trailing\n"
     "  final f in z; $\n}\n", "syntax-error", "4:17", "unexpected character '$'"),
    ('activity X {\n  decisionmerge D in v out p guard "a\nb", q guard "c";\n'
     "  decisionmerge D in w;\n}\n", "duplicate-node", "4:17", "duplicate node name 'D'"),
    ('activity X {\n  decisionmerge D in v out p guard "first\n  second" -> q;\n}\n',
     "syntax-error", "3:11", "unexpected token '->' in node declaration"),
    ('activity X {\n  action A out p guard "say \\"hi\\"\n" @\n}\n',
     "syntax-error", "3:3", "unexpected character '@'"),
    ("activity X {\n\tinitial\ti out o;\n\t\tfinal\tf in z;\n\tfinal\tf in y;\n}\n",
     "duplicate-node", "4:8", "duplicate node name 'f'"),
    ("activity X {\r\n  initial i out o;\r\n  initial i out p;\r\n}\r\n",
     "duplicate-node", "3:11", "duplicate node name 'i'"),
    ("activity X {\r\n  initial i out o;\r\n  final f in z; #\r\n}\r\n",
     "syntax-error", "3:17", "unexpected character '#'"),
    ("activity X {\n  initial i;\n  final f;\n  i -> f;\n}\n!",
     "syntax-error", "6:1", "unexpected character '!'"),
    ("activity X { initial i; final f; i -> f; }?", "syntax-error", "1:43",
     "unexpected character '?'"),
    ('activity X {\n  action A effect "never closed;\n}\n', "syntax-error", "2:19",
     "unexpected character '\"'"),
], ids=["comment", "multiline-guard", "token-after-multiline-guard", "escaped-quotes", "tabs",
        "crlf-duplicate", "crlf-bad-char", "bad-char-at-end", "bad-char-at-end-of-line",
        "unterminated-string"])
def test_parse_error_locations(text, code, location, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert [d.to_json() for d in err.value.diagnostics] == [
        {"severity": "error", "code": code, "location": location,
         "message": f"{message} at {location}"}]


# A second clause of a kind would silently replace the first one.
@pytest.mark.parametrize("text,clause,location", [
    ("activity X { initial i out o; action a in x in y; final f; i.o -> a.x; a -> f; }",
     "in", "1:45"),
    ('activity X { action a effect "x" effect "y"; }', "effect", "1:34"),
    ("activity X { action a role R role S; }", "role", "1:30"),
    ("activity X { action a out p out q; }", "out", "1:29"),
    ("activity X {\n  action a in x out y\n    in z;\n}", "in", "3:5"),
    ("activity X { action a role R in x role R; }", "role", "1:35"),
], ids=["in", "effect", "role", "out", "in-on-next-line", "same-role-twice"])
def test_parse_rejects_a_repeated_clause(text, clause, location):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert [d.to_json() for d in err.value.diagnostics] == [
        {"severity": "error", "code": "syntax-error", "location": location,
         "message": f"repeated {clause!r} clause in node declaration at {location}"}]


def test_parse_keeps_both_synthesized_pins_of_an_elided_self_loop():
    ad = parse("activity L { initial i; action a; final f; i -> a; a -> a; a -> f; }")
    assert ad.node("a").in_pins == ("_i1", "_i2")
    assert ad.node("a").out_pins == ("_o1", "_o2")
    assert [t.key for t in ad.transitions] == ["i._o1->a._i1", "a._o1->a._i2", "a._o2->f._i1"]
    assert validate(ad) == []
    assert parse(to_text(ad)) == ad


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["grade_thesis.ad", "fac.ad", "minimal.ad", "split_join.ad"])
def test_print_parse_round_trip(name):
    ad = load(name)
    assert parse(to_text(ad)) == ad
    # printing is canonical: a second round trip is textually identical
    assert to_text(parse(to_text(ad))) == to_text(ad)


def test_round_trip_preserves_guards_and_effects(fac):
    again = parse(to_text(fac))
    assert again.guard("Loop", "body") == "n > 1"
    assert again.node("MulRes").effect == "res := res * n"


# ---------------------------------------------------------------------------
# Helper functions
# ---------------------------------------------------------------------------

def test_incoming_evaluate(grade):
    ins = incoming(grade, grade.node("Evaluate"))
    assert len(ins) == 2
    assert {t.src for t in ins} == {"J1"}
    assert {t.in_pin for t in ins} == {"r1", "r2"}


def test_incoming_initial_empty(grade):
    assert incoming(grade, grade.node("start")) == ()


def test_incoming_minimal_final():
    ad = parse(MINIMAL_TEXT)
    assert incoming(ad, ad.node("f")) == ad.transitions


def test_outgoing_fork_and_decision(grade):
    assert len(outgoing(grade, grade.node("F1"))) == 2
    assert outgoing(grade, grade.node("finish")) == ()
    d1 = outgoing(grade, grade.node("D1"))
    assert [grade.guard(t.src, t.out_pin) for t in d1] == ["passed", "failed"]


def test_unknown_node_raises(grade):
    with pytest.raises(DiagramError):
        incoming(grade, "nope")
    with pytest.raises(DiagramError):
        outgoing(grade, "nope")
    with pytest.raises(DiagramError):
        grade.node("nope")
    assert not grade.has_node("nope")


@pytest.mark.parametrize("name", ["grade_thesis.ad", "fac.ad", "minimal.ad", "split_join.ad"])
def test_in_out_partition_transitions(name):
    ad = load(name)
    assert sum(len(incoming(ad, n)) for n in ad.nodes) == len(ad.transitions)
    assert sum(len(outgoing(ad, n)) for n in ad.nodes) == len(ad.transitions)
    for n in ad.nodes:
        mentioned = {t for t in ad.transitions if t.src == n.name or t.dst == n.name}
        assert set(incoming(ad, n)) | set(outgoing(ad, n)) == mentioned


def test_adjacency_in_declaration_order():
    ad = parse("""
        activity Order {
            initial i out s;
            forkjoin F in x out a, b, c;
            forkjoin J in p, q, r out y;
            final f in z;
            F.c -> J.r; i.s -> F.x; F.a -> J.q; J.y -> f.z; F.b -> J.p;
        }
    """)
    assert [t.out_pin for t in outgoing(ad, "F")] == ["c", "a", "b"]
    assert [t.in_pin for t in incoming(ad, "J")] == ["r", "q", "p"]
    for n in ad.nodes:
        assert incoming(ad, n) == tuple(t for t in ad.transitions if t.dst == n.name)
        assert outgoing(ad, n) == tuple(t for t in ad.transitions if t.src == n.name)


def test_node_returns_first_of_duplicate_names(minimal):
    shadow = Node(NodeKind.ACTION, "f", in_pins=("x",))
    ad = replace(minimal, nodes=minimal.nodes + (shadow,))
    assert ad.node("f").kind is NodeKind.FINAL
    assert ad.has_node("f")
    assert incoming(ad, shadow) == incoming(ad, "f") == minimal.transitions  # adjacency goes by name
    assert ad.layout.reader == (ad.nodes.index(minimal.node("f")),)
    for ask in (ad.node, lambda name: incoming(ad, name), lambda name: outgoing(ad, name)):
        with pytest.raises(DiagramError):
            ask("nope")
    assert not ad.has_node("nope")


def test_a_transition_declared_twice_is_adjacent_once():
    ad = parse("activity A { initial i out s; action a in x out y; final f in z; "
               "i.s -> a.x; a.y -> f.z; i.s -> a.x; a.y -> f.z; a.y -> f.z; }")
    assert len(ad.transitions) == 5
    entry, exit_ = Transition("i", "s", "a", "x"), Transition("a", "y", "f", "z")
    assert outgoing(ad, "i") == incoming(ad, "a") == (entry,)
    assert outgoing(ad, "a") == incoming(ad, "f") == (exit_,)
    assert ad.layout.transitions == (entry, exit_)
    assert (ad.layout.reader, ad.layout.writer) == ((1, 2), (0, 1))


def test_replaced_diagram_has_its_own_adjacency():
    ad = parse("activity R { initial i out s, t; final f in x, y; i.s -> f.x; i.t -> f.y; }")
    assert len(outgoing(ad, "i")) == 2
    fewer = replace(ad, transitions=ad.transitions[1:])
    assert outgoing(fewer, "i") == ad.transitions[1:]
    assert incoming(fewer, "f") == ad.transitions[1:]
    assert len(incoming(ad, "f")) == 2
    extra = replace(ad, nodes=ad.nodes + (Node(NodeKind.ACTION, "a"),))
    assert incoming(extra, "a") == () and not ad.has_node("a")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_validate_corpus_clean(grade, fac, minimal, split_join):
    for ad in (grade, fac, minimal, split_join):
        assert validate(ad) == []


def test_validate_variant1_flags_grade(grade):
    codes = {d.code for d in validate(grade, "variant1")}
    assert {"v1-forkjoin", "v1-role", "v1-data-pin"} <= codes
    locations = {d.location for d in validate(grade, "variant1") if d.code == "v1-forkjoin"}
    assert "node F1" in locations


def test_validate_variant1_fac_clean(fac):
    assert validate(fac, "variant1") == []


def test_validate_incompatible_pin_types():
    ad = parse("""
        activity X {
            action a out p: Thesis;
            action b in q: Review;
            final f in z;
            a.p -> b.q;
        }
    """)
    codes = [d.code for d in validate(ad)]
    assert "incompatible-pin-types" in codes


def test_validate_reports_repeated_pinned_edge():
    ad = parse("activity A { initial i out s; final f in z; i.s -> f.z; i.s -> f.z; }")
    diags = validate(ad)
    assert [(d.severity, d.code, d.location) for d in diags] == [
        (Severity.ERROR, "duplicate-transition", "transition i.s->f.z")]
    assert "2 times" in diags[0].message


def test_validate_warns_on_stray_guard():
    ad = parse('activity X { initial i out s; action a in x out p guard "x > 1"; final f in z; '
               'i.s -> a.x; a.p -> f.z; }')
    diags = validate(ad)
    assert [d.code for d in diags] == ["guard-on-non-decision"]
    assert diags[0].severity is Severity.WARNING


@pytest.mark.parametrize("profile", ["general", "variant1"])
def test_validate_requires_an_initial_node(profile):
    diags = validate(parse("activity Rnd { decisionmerge n0; }"), profile)
    assert [d.to_json() for d in diags] == [
        {"severity": "error", "code": "missing-initial", "location": "activity Rnd",
         "message": "activity 'Rnd' has no initial node"}]


def test_validate_is_pure_and_order_stable(grade):
    first = validate(grade, "variant1")
    second = validate(grade, "variant1")
    assert first == second


def test_type_compatibility_rules():
    thesis, review = data_type("Thesis"), data_type("Review")
    assert compatible(CONTROL, CONTROL)
    assert compatible(CONTROL, TOP) and compatible(TOP, thesis)
    assert compatible(thesis, thesis)
    assert not compatible(thesis, review)
    assert not compatible(CONTROL, thesis)


SAMPLE_TYPES = {"control": CONTROL, "any": TOP, "Thesis": data_type("Thesis"),
                "Review": data_type("Review")}
SAMPLE_TOKENS = (CONTROL_TOKEN, Token("Thesis"), Token("Review"), Token("Other"))


@pytest.mark.parametrize("a", SAMPLE_TYPES)
@pytest.mark.parametrize("b", SAMPLE_TYPES)
def test_compatible_types_share_a_token(a, b):
    """`validate`'s rule is the checker's: two pin types are compatible exactly
    when some token lies in both as token sets."""
    a, b = SAMPLE_TYPES[a], SAMPLE_TYPES[b]
    assert compatible(a, b) == any(tok in a and tok in b for tok in SAMPLE_TOKENS)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def test_dot_minimal():
    dot = to_dot(parse(MINIMAL_TEXT))
    assert dot.startswith("digraph")
    assert '"i" -> "f"' in dot


def test_dot_grade_has_role_clusters_and_guards(grade):
    dot = to_dot(grade)
    assert dot.count("subgraph cluster_") == 3
    assert 'label="[passed]"' in dot
    assert 'label="[failed]"' in dot
    assert "diamond" in dot


# ---------------------------------------------------------------------------
# Round trips on randomly generated diagrams
# ---------------------------------------------------------------------------

_IDENT = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,6}", fullmatch=True)
_TYPE = st.sampled_from(["", "Thesis", "Review", "any"])
_TEXT = st.text(alphabet="abcn +-*<>=:\"\\", max_size=12)


@st.composite
def random_diagram_text(draw):
    kinds = ["initial", "final", "action", "forkjoin", "decisionmerge"]
    n_nodes = draw(st.integers(1, 6))
    names = [f"n{i}" for i in range(n_nodes)]
    lines = []
    out_pins: list[tuple[str, str]] = []
    in_pins: list[tuple[str, str]] = []
    for i, name in enumerate(names):
        kind = kinds[draw(st.integers(0, 4))]
        parts = [kind, name]
        if draw(st.booleans()):
            parts.append(f"role {draw(_IDENT)}")
        n_in = 0 if kind == "initial" else draw(st.integers(0, 2))
        n_out = 0 if kind == "final" else draw(st.integers(0, 2))
        if n_in:
            decls = []
            for j in range(n_in):
                ptype = draw(_TYPE)
                decls.append(f"p{j}" + (f": {ptype}" if ptype else ""))
                in_pins.append((name, f"p{j}"))
            parts.append("in " + ", ".join(decls))
        if n_out:
            decls = []
            for j in range(n_out):
                ptype = draw(_TYPE)
                decl = f"q{j}" + (f": {ptype}" if ptype else "")
                if draw(st.booleans()):
                    guard = draw(_TEXT)
                    decl += ' guard "' + guard.replace("\\", "\\\\").replace('"', '\\"') + '"'
                decls.append(decl)
                out_pins.append((name, f"q{j}"))
            parts.append("out " + ", ".join(decls))
        if kind == "action" and draw(st.booleans()):
            effect = draw(_TEXT)
            parts.append('effect "' + effect.replace("\\", "\\\\").replace('"', '\\"') + '"')
        lines.append("    " + " ".join(parts) + ";")
    n_edges = draw(st.integers(0, min(4, len(out_pins) * len(in_pins))))
    for _ in range(n_edges):
        if not out_pins or not in_pins:
            break
        src, op = out_pins[draw(st.integers(0, len(out_pins) - 1))]
        dst, ip = in_pins[draw(st.integers(0, len(in_pins) - 1))]
        lines.append(f"    {src}.{op} -> {dst}.{ip};")
    return "activity Rnd {\n" + "\n".join(lines) + "\n}"


@settings(max_examples=150, deadline=None)
@given(random_diagram_text())
def test_random_diagram_round_trip(text):
    ad = parse(text)
    assert parse(to_text(ad)) == ad
    assert validate(ad) == validate(ad)


# ---------------------------------------------------------------------------
# Fuzzing: near-miss inputs never crash, errors carry locations
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_fuzz_near_miss_inputs(rng: random.Random):
    base = (CORPUS / "grade_thesis.ad").read_text(encoding="utf-8")
    text = list(base)
    for _ in range(rng.randrange(1, 4)):
        op = rng.randrange(3)
        pos = rng.randrange(len(text))
        ch = rng.choice(';{}.->"ax0 \n')
        if op == 0:
            text[pos] = ch
        elif op == 1:
            text.insert(pos, ch)
        else:
            del text[pos]
    mutated = "".join(text)
    try:
        ad = parse(mutated)
    except ParseError as e:
        assert e.diagnostics, "a parse failure must carry diagnostics"
        for d in e.diagnostics:
            assert d.location
    else:
        validate(ad)  # whatever still parses must be safely checkable
