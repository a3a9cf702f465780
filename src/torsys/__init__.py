"""Exact-arithmetic toolkit for toric systems, K-isometry orbits and spherical
twists on smooth projective toric surfaces."""

from .surface import (
    BlowupRelation,
    DivisorClass,
    EvenTerminalHirzebruch,
    FanAutomorphism,
    GoodBasis,
    InternalInconsistency,
    InvalidFan,
    NotContractible,
    RankTooLow,
    SurfaceMismatch,
    ToricSurface,
    coords_in_basis,
    from_selfints,
    normalize,
)
from .cohomology import (
    CohomologyDims,
    H0TooLarge,
    OracleBoxTooLarge,
    cohomology_dims,
    euler_char,
    h0,
    oracle_cohomology_dims,
    vanishes_totally,
)
from .systems import (
    BadCanonicalSum,
    BadIntersection,
    BadLength,
    HirzebruchSystemClass,
    LineBundleSequence,
    NotDeaugmentable,
    ToricSystem,
    Unclassifiable,
    associated_surface,
    augment,
    classify_hirzebruch,
    deaugment,
    from_sequence,
    hirzebruch_system,
    is_exceptional,
    standard_system,
    to_sequence,
)
from .isometry import (
    Isometry,
    RankOutOfRange,
    Root,
    SizeCapExceeded,
    all_k_isometries,
    orbit,
    reflection,
    roots,
    weyl_group,
    weyl_orbit,
)
from .twist import (
    NotALineBundle,
    TwistByCurve,
    euler_pair_chi,
    minus_two_rays,
    twist_class,
    twist_line_bundle,
    twist_sequence,
)
from .classify import (
    ConstructibilityWitness,
    DeaugmentationStep,
    FullnessCertificate,
    InvalidWitness,
    NotExceptionalInput,
    OrbitReport,
    TwistApplication,
    certify_full,
    is_constructible,
    orbit_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
