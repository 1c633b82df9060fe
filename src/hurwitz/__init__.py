"""Finite, exactly-computable spaces of branched-cover monodromy data.

The package enumerates monodromy tuples for degree-d covers of a genus-g
curve with prescribed permutation monodromy group G, classifies them up
to the pointed and unpointed equivalences, computes orbit components
under the elementary moves, and derives ramification profiles and genera
for the induced and Galois models of each cover.
"""

__version__ = "0.1.0"

from .errors import (
    CapExceeded,
    CycleSyntaxError,
    DegreeMismatch,
    DisconnectedCover,
    DomainSizeMismatch,
    FreeActionViolated,
    HurwitzError,
    IndexOutOfRange,
    InputError,
    InternalInvariantViolation,
    IntransitiveGroup,
    NotASubgroup,
    OrbitCapExceeded,
    OrderCapExceeded,
    ParityViolation,
    PointOutOfRange,
    RepeatedPoint,
    SchemaError,
    TypeMultiplicityMismatch,
    WorkCapExceeded,
)
from .perms import (
    ConjClass,
    Perm,
    PermGroup,
    centralizer_in_sym,
    commutator,
    compose,
    compose_all,
    conjugate,
    cycle_type,
    cyclic_orbits,
    format_perm,
    generate_group,
    generates,
    identity,
    inverse,
    normalizer_fixing_point,
    normalizer_in_sym,
    parse_perm,
    perm_order,
    subgroup_from_elements,
)
from .tuples import (
    BranchingType,
    HurwitzTuple,
    ValidationReport,
    branching_type_of,
    conjugate_branching_type,
    enumerate_tuples,
    make_branching_type,
    tuple_from_entries,
    validate_tuple,
)
from .classify import (
    EquivalenceWitness,
    PointedClass,
    SpaceCensus,
    SpaceClassification,
    TypeCensus,
    UnpointedClass,
    are_cover_equivalent,
    are_pointed_equivalent,
    change_marked_point,
    classify_space,
    conjugate_tuple,
    count_space,
    pointed_class,
    relabel,
    unpointed_class,
)
from .moves import (
    ComponentPartition,
    braid_orbit,
    components,
    hurwitz_move,
)
from .covers import (
    ActionTuple,
    CoverReport,
    actions_isomorphic,
    coset_model,
    cover_report,
    cycle_type_multiset,
    fiber_genus,
    natural_model,
    ramification_profile,
    universal_fiber_report,
)
from .jobs import (
    Caps,
    JobSpec,
    cache_key,
    comparison_payload,
    parse_job,
    report_chunks,
    report_to_json,
    run_job,
)
from .cache import CacheCorrupt, ResultCache
