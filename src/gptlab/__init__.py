"""Polytopic state spaces for generalized probabilistic theories.

Library layout:

- ``scalars``: exact/float contexts, tuples-as-vectors linear algebra
- ``linprog``: two-phase simplex on one numpy tableau (float64, or int numerators in exact mode)
- ``cones``: dual cones (double description), membership, equality
- ``model``: theories, effects, per-vertex probability tables, measurements
  and their outcome metrics, coordinate changes, built-ins, JSON files
- ``symmetry``: automorphism groups, invariant product, canonical form
- ``ideal``: pure indecomposable effects, ideal measurements, fuzzing
- ``measures``: widths, localization error, error-bar/Lipschitz/sup gaps
- ``compat``: joint measurability, error minimisation, fuzzing bounds
- ``harness``: theorem verification and batch reports
- ``cli``: the ``gptlab`` command
"""

from .scalars import Context, EXACT, FLOAT, InnerProduct
from .cones import Cone, LinealityError, cone_member, cones_equal, dual_cone
from .linprog import FeasibilityResult, LinearProgram, LpResult, lp_feasible, lp_solve
from .model import (
    Coordinates,
    FiniteMetricSpace,
    Measurement,
    Theory,
    effect_eval,
    in_state_space,
    is_valid_effect,
    load_theory,
    make_classical,
    make_disc_approx,
    make_polygon,
    prob_table,
    save_theory,
    theory_from_dict,
    theory_to_dict,
    validate_measurement,
    validate_theory,
)
from .symmetry import (
    CanonicalForm,
    SymmetryGroup,
    automorphism_group,
    averaged_inner_product,
    canonicalize,
    is_self_dual,
    is_transitive,
    maximally_mixed,
    projector_pm,
    rescale_unit_norm,
    xi_canonicalize,
)
from .ideal import (
    IdealMeasurement,
    binary_ideal_measurement,
    eigenstate,
    enumerate_ideal_measurements,
    fuzzify,
    indecomposable_pure_effects,
    perpendicular_ideal_pair,
    psi_map_measurement,
    psi_transform,
)
from .measures import (
    OutcomeDistribution,
    distribution,
    error_bar_width,
    linf_distance,
    localization_error,
    min_le_sum,
    overall_width,
    werner_distance,
)
from .compat import (
    CompatibilityResult,
    JointMeasurement,
    degree_bound_closed_form,
    degree_bound_rhs,
    is_jointly_measurable,
    marginals,
    max_fuzz_lambda,
    min_mur_linf,
    product_joint,
    uniform_joint,
)

__version__ = "0.1.0"
