"""Independent re-derivation of the successor relation.

Enumerates every bounded consumption/production assignment (at most one
token per transition per step, consumption from the buffer front) plus
at most one executing-flag flip, applies it, and keeps the assignments
under which every node's step formula holds, with exactly one
non-stuttering node (the interleaving discipline).

The step formulas are restated here directly over the assignment's
counts, on purpose: this file must not call the semantics module.
Token content for productions follows the generator's representative
rule plus pass-through candidates, since the count-based formulas cannot
see content.
"""

from __future__ import annotations

import itertools

from adsem.diagram import ActivityDiagram, NodeKind, incoming, outgoing
from adsem.semantics import admissible_tokens
from adsem.tokengame import INSTANT, TWO_PHASE, Configuration, representative_token


def _formula_holds(ad, node, flags0, flags1, cons_n, prod_n, action_mode) -> bool:
    """Definition of a permitted per-node step, over raw counts.

    The action clause is a disjunction of start, finish, and one-step
    execution; the comparison runs under a mode's discipline, so the
    two-phase filter drops the one-step disjunct (a two-phase generator
    never emits it) and the instant filter drops start/finish.  A
    decision may take any branch: guards are opaque to the token game.
    """
    ins = incoming(ad, node)
    outs = outgoing(ad, node)
    flag_same = flags0.get(node.name, False) == flags1.get(node.name, False)
    stutter = (flag_same
               and all(cons_n.get(t.key, 0) == 0 for t in ins)
               and all(prod_n.get(t.key, 0) == 0 for t in outs))
    if stutter:
        return True
    if node.kind is NodeKind.ACTION:
        started = (not flags0.get(node.name, False) and flags1.get(node.name, False)
                   and all(cons_n.get(t.key, 0) == 1 for t in ins)
                   and all(prod_n.get(t.key, 0) == 0 for t in outs))
        finished = (flags0.get(node.name, False) and not flags1.get(node.name, False)
                    and all(prod_n.get(t.key, 0) == 1 for t in outs)
                    and all(cons_n.get(t.key, 0) == 0 for t in ins))
        instant = (flag_same
                   and all(cons_n.get(t.key, 0) == 1 for t in ins)
                   and all(prod_n.get(t.key, 0) == 1 for t in outs))
        if action_mode == TWO_PHASE:
            return started or finished
        return started or finished or instant
    if node.kind is NodeKind.FORKJOIN:
        return (flag_same
                and all(cons_n.get(t.key, 0) == 1 for t in ins)
                and all(prod_n.get(t.key, 0) == 1 for t in outs))
    if node.kind is NodeKind.DECISIONMERGE:
        one_in = any(
            cons_n.get(t.key, 0) == 1
            and all(cons_n.get(t2.key, 0) == 0 for t2 in ins if t2 != t)
            for t in ins
        )
        one_out = any(
            prod_n.get(t.key, 0) == 1
            and all(prod_n.get(t2.key, 0) == 0 for t2 in outs if t2 != t)
            for t in outs
        )
        return flag_same and one_in and one_out
    return False  # initial, final: only the stutter accepted above


def brute_successors(ad: ActivityDiagram, c: Configuration,
                     action_mode: str = INSTANT) -> set[Configuration]:
    """All configurations one interleaving step away, by filtering."""
    # a configuration holds one buffer per layout position and one flag per action
    buffers = {t.key: list(buf) for t, buf in zip(ad.layout.transitions, c.buffers)}
    actions = dict.fromkeys(n.name for n in ad.nodes if n.kind is NodeKind.ACTION)
    flags0 = dict(zip(actions, c.flags))
    consumable = [k for k, buf in buffers.items() if buf]
    transitions = [t.key for t in ad.transitions]

    flag_options: list[dict[str, bool]] = [dict(flags0)]
    if action_mode == TWO_PHASE:
        for name in flags0:
            flipped = dict(flags0)
            flipped[name] = not flipped[name]
            flag_options.append(flipped)

    found: set[Configuration] = set()
    for cons_keys in _subsets(consumable):
        cons_n = {k: 1 for k in cons_keys}
        consumed_tokens = [buffers[k][0] for k in cons_keys]
        for prod_keys in _subsets(transitions):
            prod_n = {k: 1 for k in prod_keys}
            for flags1 in flag_options:
                for produced in _content_options(ad, buffers, cons_keys,
                                                 consumed_tokens, prod_keys):
                    c1 = _apply(ad, buffers, cons_keys, prod_keys, produced, flags1)
                    non_stutter = 0
                    all_ok = True
                    for node in ad.nodes:
                        ins = incoming(ad, node)
                        outs = outgoing(ad, node)
                        quiet = (flags0.get(node.name, False) == flags1.get(node.name, False)
                                 and all(cons_n.get(t.key, 0) == 0 for t in ins)
                                 and all(prod_n.get(t.key, 0) == 0 for t in outs))
                        if not quiet:
                            non_stutter += 1
                        if not _formula_holds(ad, node, flags0, flags1, cons_n, prod_n, action_mode):
                            all_ok = False
                            break
                    if all_ok and non_stutter == 1:
                        found.add(c1)
    return found


def _subsets(keys):
    for r in range(len(keys) + 1):
        yield from itertools.combinations(keys, r)


def _content_options(ad, buffers, cons_keys, consumed_tokens, prod_keys):
    """Candidate produced tokens per producing transition: the positional
    representative, plus any consumed token the endpoint pins admit."""
    per_key = []
    for k in prod_keys:
        t = next(t for t in ad.transitions if t.key == k)
        landing = len(buffers[k]) - (1 if k in cons_keys else 0)
        options = {representative_token(ad, t, landing)}
        out_set = admissible_tokens(ad.pin_type(t.src, t.out_pin))
        in_set = admissible_tokens(ad.pin_type(t.dst, t.in_pin))
        for tok in consumed_tokens:
            if tok in out_set and tok in in_set:
                options.add(tok)
        per_key.append(sorted(options, key=repr))
    yield from (dict(zip(prod_keys, combo)) for combo in itertools.product(*per_key))


def _apply(ad, buffers, cons_keys, prod_keys, produced, flags1) -> Configuration:
    new_buffers = {}
    for k, buf in buffers.items():
        tokens = buf[1:] if k in cons_keys else list(buf)
        if k in prod_keys:
            tokens = tokens + [produced[k]]
        new_buffers[k] = tuple(tokens)
    return Configuration.make(ad, new_buffers, flags1)
