"""curselab: numerical laboratory for curse-of-dimensionality bounds.

Library layout:

* :mod:`curselab.geometry` -- volume-one domains, lp radii, the critical
  exponent of the small-radius regime.
* :mod:`curselab.hull` -- convex-hull projection (Wolfe min-norm point),
  batched neighborhood classification, midpoint-cover check.
* :mod:`curselab.volume` -- analytic hull-neighborhood volume bounds and
  Monte Carlo estimators.
* :mod:`curselab.fooling` -- worst-case integrands with certified
  smoothness, convolution smoothing.
* :mod:`curselab.quadrature` -- one-point and Taylor rules, reference
  Monte Carlo integration.
* :mod:`curselab.bounds` -- complexity bound evaluators and the
  tractability classifier.
* :mod:`curselab.cli` -- the ``curselab`` experiment runner.
"""

from .geometry import (
    DomainSpec,
    SMALL_RADIUS_THRESHOLD,
    lp_normalized_radius,
    lp_unit_ball_volume,
    radius_limit_ratio,
    solve_p_star,
)
from .hull import (
    PointSet,
    elekes_cover_check,
    project_batch,
    project_onto_hull,
)
from .volume import (
    cube_hull_bound,
    gamma_constant,
    gamma_tilde_cube,
    mc_hull_neighborhood_volume,
    profile_integral,
    small_radius_hull_bound,
)
from .fooling import (
    fooling_c0,
    fooling_c1,
    fooling_cinf,
    fooling_smoothed,
    make_alpha_sequence,
    profile_eval,
    smoothed_eval,
)
from .quadrature import (
    Integrand,
    make_sine_integrand,
    quad_one_point,
    quad_taylor,
    reference_integral,
)
from .bounds import (
    SmoothnessProfile,
    TailRule,
    classify,
    lb_lipschitz,
    lb_lipschitz_gradient_cube,
    non_uniform_weak_witness,
    quasi_poly_cost_bound,
    ub_one_point_c0,
    ub_taylor,
    unit_derivative_cost_bound,
)

__version__ = "0.1.0"
