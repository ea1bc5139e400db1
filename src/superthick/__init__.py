"""superthick: exact computations with super-geometric thickenings of
complex projective spaces.

Everything is exact rational arithmetic on flat monomial data: gluing maps
as exponent vectors and odd-index words with rational coefficients, Čech
cochains on the standard covers of P^1 and P^2, closed-form
sheaf-cohomology dimensions cross-checked by exact Čech cohomology with
representatives, and the obstruction calculus for extending a thickening
one order higher.
"""

__version__ = "0.1.0"

from .bott import SplitBundleDegrees, bott_dim, line_dim, serre_dual_dim, tangent_dim
from .cech import (
    Cochain,
    Cover,
    SheafSpec,
    coboundary,
    h1_representatives,
    line_bundle_cohomology,
    line_sum,
    oneform_twisted,
    solve_coboundary,
    standard_cover,
    tangent_twisted,
)
from .obstruct import check_split_conditions, search_split_triples, sufficient_l_nonsplit
from .pipeline import pipeline_obstructed_cp2
from .supermap import (
    SuperMap,
    Trivialization,
    act_torsor,
    build_trivialization,
    cocycle_residual,
    compose,
    conjugate,
    obstruction_cocycle,
    pushforward_partial,
    split_trivialization,
    verify_gamma_cocycle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
