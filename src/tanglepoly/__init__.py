"""Index-polynomial invariants of virtual tangles.

Virtual tangles are modeled as multi-component Gauss diagrams; the package
computes the self-crossing polynomial, the two linking-number polynomial
families, virtual linking and wriggle numbers, finite-type derivatives of
singular diagrams, and supports Reidemeister-move fuzzing, connected sums,
closures and prescribed-linking-number generators, all over exact rational
arithmetic.
"""

from types import ModuleType as _ModuleType

from .diagram import (
    BoundaryPoint,
    Chord,
    Classical,
    Component,
    DiagramError,
    Endpoint,
    Side,
    Singular,
    TangleDiagram,
    TangleError,
    Violation,
    canonical,
    equal_diagrams,
    from_tokens,
    reverse_component,
    validate,
)
from .gaussio import ParseError, SourceSpan, parse, serialize
from .invariants import (
    InvariantError,
    InvariantReport,
    henrich_turaev_polynomial,
    intersection_index,
    invariant_report,
    laurent_linking_polynomial,
    linking_polynomial,
    long_ordered_polynomial,
    self_crossing_polynomial,
    virtual_linking_number,
    wriggle_number,
)
from .laurent import LaurentPoly, as_fraction, from_json_terms, mono, zero
from .moves import (
    KinkInsert,
    KinkRemove,
    MoveError,
    MoveKind,
    MoveSite,
    PairInsert,
    PairRemove,
    TriangleSlide,
    apply,
    enumerate_sites,
    iter_walk,
    random_walk,
)
from .ops import (
    GlueError,
    GlueResult,
    check_additivity,
    closure,
    connect,
    is_string_link,
    link_with_linking_numbers,
)
from .singular import (
    ResolutionError,
    resolve,
    vassiliev_derivative,
)

# the names imported above; the submodules they come from are not among them
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]

__version__ = "0.1.0"
