"""Exact invariants of framings, stable framings and 2-framings of closed
oriented 3-manifolds: the defect lattice and canonical framing selection,
framed-link surgery calculus, quotients of the 3-sphere, and circle
bundles over surfaces."""

from .bundles import (
    CircleBundle,
    FiberFraming,
    disk_bundle_p1,
    fiber_framing,
    fiber_framing_defect,
    fiber_framing_exists,
)
from .defects import (
    FramingOffset,
    LambdaClass,
    TotalDefect,
    act,
    boundary_defect,
    canonical_offset,
    canonical_set,
    defect_norm,
    in_lattice,
    lambda_class,
    lens_double_splits,
    pullback_cover,
    reverse_orientation,
    splits_as_double,
    splits_as_sum,
)
from .errors import (
    DegenerateAngle,
    FramingError,
    LambdaMismatch,
    NoFiberFraming,
    NonIntegralDefect,
    NotCharacteristic,
    NotSymmetric,
    OddFraming,
    ParseError,
    Unsolvable,
    ZeroEuler,
)
from .exactmath import (
    Gf2Solution,
    IntMatrix,
    SmithForm,
    exact_signature,
    smith_normal_form,
    solve_gf2,
)
from .links import (
    FramedLink,
    HomologyProfile,
    LinkAnalysis,
    NaturalFramings,
    SpinStructureData,
    Sublink,
    analyze,
    basic_invariants,
    chain_link,
    characteristic_sublinks,
    e8_link,
    empty_link,
    homology,
    lambda_from_mu,
    mu_invariant,
    mu_representative,
    natural_framings,
    reverse_link_orientation,
    spin_structures,
    sublink_of,
    unknot,
)
from .quotients import (
    ICOSAHEDRAL,
    OCTAHEDRAL,
    TETRAHEDRAL,
    FiniteSubgroup,
    binary_dihedral,
    cyclic,
    g_signature_local,
    lens_canonical_offset,
    lens_signature_defect,
    parse_group,
    quotient_framing_defect,
    sigma_g,
    sigma_g_bruteforce,
)

__version__ = "0.1.0"
