"""Linking numbers of real and complex curves.

Three independent routes to the same invariants — singular-kernel double
integrals, closed forms for lines, and residue sums over intersection
points, one Euler-Jacobi trace that finds no root — plus a signed-crossing
count for closed real curves, all cross-validated against each other.
"""

# set before the submodules load: calibrate records it in the constants
__version__ = "0.1.0"

from .errors import (CalibrationUnstable, CoincidentPoints, CurvesTooClose,
                     DegenerateConfiguration, DegenerateProjection,
                     DependentGradients, HololinkError, IdenticallyZero,
                     LinesIntersect, MethodInapplicable,
                     MultiplierNotPolynomial, NonFiniteIntegrand,
                     NonGenericHyperplanes, NonSimpleRoot, NumericalError,
                     ParamAtPuncture, ParamOutOfDomain, PoleCollision,
                     PVNotConverging, SceneError, SceneInvalid)
from .gauss import (Polyline3, certified_polylines, crossing_linking,
                    gauss_integrand, gauss_linking, line_gauss_closed)
from .geometry import (AmbientForm, NormalizationConstants, OneForm,
                       ParamCurve, Poly3, Scene, SurfaceCut, det3, evaluate,
                       validate_scene)
from .holo import (C3, BMContext, bm_pullback_epsilon_sum,
                   bm_pullback_integrand, bm_reproduce,
                   complex_linking_number, holo_line, holo_linking_integral,
                   line_holo_closed)
from .quadrature import (QuadConfig, QuadResult, QuadTrace, domain_for_curve,
                         integrate_curve, integrate_product, integrate_pv,
                         per_panel)
from .report import (METHODS, Report, applicable_methods, calibrate, compute,
                     xcheck)
from .residue import (LiftedThreeForm, PolyMultiplier, atiyah_p3,
                      curve_surface_intersections, double_leray_residue,
                      lift_theta, rational_all_residues, residue_at_infinity,
                      residue_linking)
from .scene_io import (dumps_scene, load_scene, loads_scene, save_scene,
                       scene_to_dict)
from .scenes import (BUILTIN_SCENES, builtin, random_line_scene,
                     random_polynomial_scene)
