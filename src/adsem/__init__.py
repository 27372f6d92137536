"""Activity-diagram semantics workbench.

Parse and validate activity diagrams, enumerate their token-flow
behavior, check execution traces for conformance, and run the two
shipped interpretations (atomic actions in one method; actions as
methods on role objects).
"""

from .diagram import (
    ActivityDiagram,
    Diagnostic,
    DiagramError,
    Node,
    NodeKind,
    ParseError,
    PinKind,
    PinType,
    Severity,
    Transition,
    incoming,
    outgoing,
    parse,
    to_dot,
    to_text,
    validate,
)
from .semantics import (
    CONTROL_TOKEN,
    Token,
    VariationBinding,
    Verdict,
    VerdictKind,
    allows_step,
    conforms,
    is_final_state,
    is_initial_state,
)
from .sysmodel import Frame, SystemState, Trace
from .tokengame import (
    Configuration,
    StepChoice,
    analyze,
    as_binding,
    initial_config,
    reachable,
    successors,
)

__all__ = [name for name in dir() if not name.startswith("_")]


def _register_lazily(*names: str) -> None:
    """Put each submodule in `sys.modules` and on the package now, and run
    its body on the first attribute access: only `run-v1`, `run-v2` and
    `check-trace --variant v1|v2` use a variant module."""
    import importlib.util
    import sys

    for name in names:
        spec = importlib.util.find_spec(f"{__name__}.{name}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = globals()[name] = module
        spec.loader.exec_module(module)


_register_lazily("variant1", "variant2")
