"""Exact arithmetic for partial injections, dual diagram semigroups,
their deformations, and the double-centralizer checks tying them
together on tensor powers."""

from .diagrams import (
    BoundaryPoint,
    HatElement,
    PartialInjection,
    SetPartition,
    SizeGuardError,
    block_union_leq,
    canonicalize,
    count_is,
    count_istar,
    count_pistar,
    enumerate_is,
    enumerate_istar,
    enumerate_pistar,
    is_dual_element,
    is_partial_dual_element,
    primed,
    unprimed,
)
from .dualities import (
    GRID,
    CentralizerData,
    DualityCell,
    DualityReport,
    centralizer_data,
    predicted_faithful,
    run_grid,
)
from .morphisms import (
    DeformationCell,
    MorphismReport,
    block_subset_sum,
    block_subset_sum_inverse,
    coarsening_sum,
    coarsening_sum_inverse,
    extend_linearly,
    mobius_merge_drop,
    natural_upper_set,
)
from .notation import (
    FAMILIES,
    NotationError,
    parse_element,
    parse_partial_injection,
    parse_set_partition,
)
from .semigroups import (
    CompositionResult,
    bullet_multiply,
    epsilon,
    family,
    is_generators,
    istar_generators,
    multiply_composition,
    multiply_istar,
    multiply_pistar,
    pistar_generators,
    star_multiply,
)
from .tensor_actions import (
    ActionSpace,
    action_matrix,
    action_supports,
    action_targets,
    targets_commutant,
    targets_commute,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
