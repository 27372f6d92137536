"""fork_k x chain_c diagrams: an initial node, a fork into k chains of c
actions each, a join and a final node, all pins control."""

from __future__ import annotations

from adsem import diagram

FAMILIES = [(k, c) for k in (2, 3, 4) for c in (1, 2, 3)]


def fork_text(k: int, c: int) -> str:
    nodes = ["    initial I;", "    forkjoin F;", "    forkjoin J;", "    final E;"]
    edges = ["    I -> F;", "    J -> E;"]
    for i in range(k):
        prev = "F"
        for j in range(c):
            action = f"A{i}_{j}"
            nodes.append(f"    action {action};")
            edges.append(f"    {prev} -> {action};")
            prev = action
        edges.append(f"    {prev} -> J;")
    return "\n".join([f"// fork_{k} x chain_{c}: a fork into {k} chains of {c} actions each, then a join.",
                      f"activity Fork{k}x{c} {{", *nodes, "", *edges, "}"]) + "\n"


def fork(k: int, c: int) -> diagram.ActivityDiagram:
    return diagram.parse(fork_text(k, c))
