"""Exact Jacobi-Perron continued fractions, the Bratteli-diagram calculus
on their digit streams, and unimodular matrix representations of groups
acting on expansion vectors."""

from .bratteli import (
    BratteliDiagram,
    StationaryVerdict,
    TailDecision,
    build_diagram,
    dimension_vectors,
    export,
    is_stationary,
    tail_equivalent,
    to_dot,
)
from .cf import (
    Expansion,
    PeriodVerdict,
    Tail,
    convergent,
    detect_period,
    euclid_chain,
    euclid_gcd,
    expand_certified,
    expansion_from_json,
    expansion_to_json,
    jpa_expand,
    jpa_step,
    regular_cf,
    step_matrix,
)
from .errors import (
    BudgetExceeded,
    DepthExceeded,
    EmptyInput,
    FrameMismatch,
    IndeterminateFloor,
    InvalidGenus,
    JperronError,
    MalformedInput,
    NoCommonTail,
    NonInvertibleLeadingEntry,
    NonPositiveEntry,
    NonPositiveImage,
    NonPositiveState,
    NotUnimodular,
    RankMismatch,
    UnknownGenerator,
)
from .lattices import (
    CoordinateFrame,
    ProjectivePseudoLattice,
    PseudoLattice,
    act,
    genus_rank,
    pl_contains,
    pl_isomorphic,
    ppl_isomorphic,
    project,
    scale,
)
from .representation import (
    GeneratorAction,
    Representation,
    TailAlignment,
    VerificationReport,
    build_representation,
    common_tail,
    evaluate_word,
    prefix_matrix,
    verify,
)
from .scalars import (
    AlgebraicScalar,
    IntervalScalar,
    NumberField,
    Ordering,
    RationalScalar,
    Scalar,
    ScalarVector,
    algebraic,
    compare,
    floor_exact,
    interval,
    rational,
    refine,
    scalar_from_json,
    scalar_to_json,
)

__version__ = "0.1.0"
