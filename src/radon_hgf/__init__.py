"""Hypergeometric functions on Grassmannians.

Characters of block Jordan groups, their Radon-transform integrals over
concrete chains, orbit normal forms of the coordinate matrices, the
associated Hermitian matrix integrals, and finite-difference checks of
the annihilating differential system.
"""

__version__ = "0.1.0"

from .characters import (
    GroupElement,
    LieDirection,
    PartitionWeight,
    chi_jordan,
    chi_lambda,
    chi_nonconfluent,
    dchi_lambda,
)
from .grassmann import (
    ChartPoint,
    CoordMatrix,
    apply_group,
    general_Z_member,
    plucker,
    subdiagrams,
    tau_factor,
    z_lambda_member,
)
from .hgs import (
    MultiIndexPair,
    StencilPlan,
    all_pairs,
    apply_DIJ,
    check_gl_infinitesimal,
    check_h_infinitesimal,
    verify_system,
)
from .integrands import (
    IntegrandSpec,
    NamedFamily,
    evaluate_integrand,
    family_of_normal_form,
    named_integrand,
)
from .integrate import (
    Budget,
    ChainSpec,
    IntegralEstimate,
    integrate_family,
    integrate_haar_mc,
    integrate_invariant,
    integrate_r1,
    radon_hgf,
    weyl_constant,
)
from .jordan import (
    ThetaSet,
    TruncPoly,
    nilpotent_exp,
    nilpotent_log,
    theta,
    trunc_inverse,
    trunc_mul,
)
from .linalg import det, haar_unitary, hermitian_eigen, inverse
from .ncpoly import NCPolynomial, theta_symbolic
from .normal_form import NormalFormResult, pattern, reduce3, reduce4, reduce_ones, reduce_orbit
from .oracles import beta_r_closed, gamma, gamma_r_closed, gauss_2f1, lauricella_fd
from .rng import RandomStream

__all__ = [name for name in dir() if not name.startswith("_")]
