"""hardylab: a numerical laboratory for Hardy-type norms of singular
holomorphic functions on balls and strictly pseudoconvex ellipsoids.

The package measures boundary-approach scans of |f|^p surface integrals,
classifies their growth (bounded / logarithmic / power), and verifies the
sharp membership thresholds of an explicit zoo of singular functions,
together with the Levi-polynomial geometry and the metric structure of the
intersection spaces behind the density constructions.
"""

from . import acceptance, experiments, functions, geometry, norms, quadrature
from .functions import (Cauchy, Const, HarmonicKernel, LeviPower,
                        LeviReciprocal, LogCauchy, Poly, PowerCauchy, Sum,
                        parse_function)
from .geometry import (Quadric, boundary_dense_sequence, check_levi_estimate,
                       level_set_sampler, levi_form_min_eigenvalue,
                       levi_polynomial, parse_domain, project_to_boundary)
from .norms import (ApproachGrid, IntersectionMetricSpec, OpenBall, QuadConfig,
                    classify, hardy_seminorm, harmonic_scan,
                    intersection_metric, level_scan_domain, local_scan_ball,
                    membership_verdict, radial_integral, scan, scans)

__version__ = "0.1.0"
