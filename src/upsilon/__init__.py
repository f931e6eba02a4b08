"""Exact computation of the Upsilon concordance invariant of L-space knots.

The invariant of a knot with formal semigroup S and genus g is the upper
envelope on [0, 2] of the lines -2*#(S ∩ [0,m)) - t(g-m) for m = 0..2g.
This package builds those envelopes with exact rational arithmetic, carries
the cabling formulas for both L-space regimes, computes integrals, and
cross-verifies every formula against the independent semigroup-envelope
path.
"""

from .errors import AssemblyError, KnotSyntaxError, NotLSpaceError, UpsilonError
from .invariant import (
    CableParams,
    CableRegime,
    cable_upsilon,
    classify_cable,
    envelope,
    iterated_cable_integral,
    knot_upsilon,
    staircase_sum,
    tau,
    torus_integral_from_cf,
    torus_upsilon_decomposition,
    truncated_upsilon,
    upsilon_delta,
    upsilon_from_semigroup,
    upsilon_integral,
    upsilon_line,
)
from .knots import (
    Cable,
    ContinuedFraction,
    KnotExpr,
    LSpaceCheck,
    Pretzel,
    Torus,
    Unknot,
    continued_fraction,
    continued_fraction_of,
    dedekind_sum,
    genus,
    is_lspace,
    parse_knot,
    sawtooth,
    semigroup_of,
    signature_integral_torus,
)
from .pl import (
    Line,
    PLFunction,
    amalgamate,
    compress_into_window,
    concat_pieces,
    pl_add,
    pl_max,
    upper_envelope,
    zero_function,
)
from .semigroup import (
    AlexanderPoly,
    FormalSemigroup,
    alexander_from_semigroup,
    cable_semigroup,
    pretzel_semigroup,
    semigroup_from_alexander,
    torus_semigroup,
    unknot_semigroup,
)
from .verify import VerificationReport, identity_tags, verify_identity

__version__ = "0.1.0"
