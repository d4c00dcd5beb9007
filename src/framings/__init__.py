"""Exact invariants of framings, stable framings and 2-framings of closed
oriented 3-manifolds: the defect lattice and canonical framing selection,
framed-link surgery calculus, quotients of the 3-sphere, and circle
bundles over surfaces."""

from .bundles import (
    CircleBundle,
    FiberFraming,
    fiber_framing,
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
    lambda_class,
    pullback_cover,
    reverse_orientation,
)
from .errors import (
    FramingError,
    LambdaMismatch,
    NonIntegralDefect,
    NotCharacteristic,
    NotSymmetric,
    OddFraming,
    ParseError,
    Unsolvable,
)
from .exactmath import (
    Gf2Solution,
    IntMatrix,
    SmithForm,
    exact_signature,
    signature_and_smith,
    smith_normal_form,
    solve_gf2,
)
from .links import (
    FramedLink,
    HomologyProfile,
    LinkAnalysis,
    NaturalFramings,
    SpinStructureData,
    SpinStructures,
    analyze,
    chain_link,
    e8_link,
    empty_link,
    lambda_from_mu,
    mu_representative,
    natural_framings,
    unknot,
)
from .quotients import (
    ICOSAHEDRAL,
    OCTAHEDRAL,
    TETRAHEDRAL,
    FiniteSubgroup,
    binary_dihedral,
    cyclic,
    parse_group,
    quotient_framing_defect,
    sigma_g,
    sigma_g_bruteforce,
    signature_defect,
)

__version__ = "0.1.0"
