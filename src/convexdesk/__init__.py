"""convexdesk: desk-scale computational convex analysis.

Conjugates, infimal convolutions, Moreau envelopes and proximal maps,
Fitzpatrick functions and resolvents, Asplund norm averaging, and the
special-function identities that accompany them - every transform
checkable against analytic formulas or brute-force oracles.
"""

from .atoms import FnAtom, analytic_conjugate, atom_eval, catalog_tags, sample
from .fenchel import (
    ConjugateResult,
    SubdifferentialSet,
    biconjugate,
    coercivity_check,
    conjugate,
    conjugate_oracle,
    default_dual_grid,
    fenchel_duality_gap,
    inf_convolution,
    infconv_dual_check,
    max_formula_check,
    subdifferential,
)
from .grids import Grid, GridFn, discrete_convexity_check, interp_gridfn
from .monotone import (
    OperatorGraph,
    fitzpatrick,
    is_monotone,
    monotonically_related,
    resolvent,
    surjectivity_probe,
    yosida,
)
from .moreau import (
    ProxResult,
    distance_via_infconv_check,
    moreau_decomposition_residual,
    moreau_envelope,
    project,
    prox,
)
from .renorm import NormPair, asplund_step, init_pair, measured_ratio, strict_convexity_probe
from .special import (
    ball_volume,
    coupon_convexity_probe,
    coupon_pn_ie,
    coupon_pn_integral,
    coupon_pn_perm,
    gamma_limit,
    lambert_w,
    log_concavity_check,
)

__version__ = "0.1.0"
