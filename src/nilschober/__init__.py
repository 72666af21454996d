"""Exact NilHecke strand-diagram engine and schober axiom checks."""

from .algebra import (
    AlgebraElement,
    NilCoxeterModule,
    TruncatedPolyModule,
    flip_iso,
    module_decompose,
)
from .compositions import (
    Composition,
    PairCase,
    classify_pair,
    mirror_pair,
    psi,
    psi_inv,
    refines,
)
from .cubes import BCVertex, CubeSpec, FunctorWord, bc_vertex, build_bifactorization
from .fiber import (
    FiberReport,
    IntermediateCube,
    check_far_commutativity,
    check_recursiveness,
    initial_cube,
    take_fiber_along,
    total_fiber,
)
from .oracle import (
    check_adjunction,
    check_bicartesian,
    flip_action_check,
    oracle_matches_diagram,
    realize_edge,
    realized_total_fiber,
)
from .shuffles import (
    DeltaPair,
    LevelParams,
    anycross,
    crosses_at_least,
    delta_decompose,
    enumerate_shuffles,
    mincross,
)

__version__ = "0.1.0"
