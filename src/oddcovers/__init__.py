"""Alternating Catalan numbers and the exact identities behind them.

The central sequence A_g (1, 0, 512, 32768, ...) counts minimal-degree odd
covers of a general genus-g curve. This package computes it by independent
exact routes (closed sum, coefficient extraction, Schubert calculus, series
expansion, Lagrange inversion) and certifies every polynomial, Weierstrass
and ramification identity feeding the two local counts of 16 that the
Schubert route consumes. All arithmetic is exact; nothing is floating point.
"""

from .combinat import binom_gen, binom_int, catalan, decimal_root_string
from .covers import (
    admissible_tally,
    c1_dma,
    check_deg3_maps,
    check_paired_quartic_maps,
    check_quartic_cover,
    chern_upper_bound,
    family_condition_deg5_alpha1,
    family_condition_deg5_alpha2,
    j_invariant,
    veronese_bound,
)
from .poly import Poly, discriminant_quadratic, gcd, squarefree_decomposition
from .quadratic import QuadScalar, sqrt_of
from .ratmap import (
    INFINITY,
    RationalMap,
    fiber_profile,
    hurwitz_total,
    ram_scheme,
    ramification_data,
    vanishing_order,
)
from .routes import (
    alt_catalan_closed,
    alt_catalan_coeff_form,
    binomial_identity_check,
    catalan_half_binomial_check,
    compute_route,
    fmod_series,
    genfun_series,
    growth_report,
    lagrange_pipeline,
    route_prefix,
    sigma3_route_check,
)
from .schubert import (
    SchubertVector,
    alt_catalan_schubert,
    giambelli,
    grassmannian_degree,
    catalan_alternating_sum,
    sigma12_row,
    top_power_prefix,
)
from .series import Series, binomial_series, series_sqrt
from .weier import (
    WeierExpr,
    WeierQuot,
    check_G_identities,
    check_Gtilde_identities,
    delta0_specializations,
    gtilde_delta_specializations,
)

__all__ = [name for name in dir() if not name.startswith("_")]
