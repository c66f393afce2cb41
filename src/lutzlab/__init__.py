"""Numerical laboratory for overtwisted tube-model contact forms.

Modules
-------
profile      radial profile pairs, continuity solve, mollification
reeb         Reeb dynamics, action minima, Conley-Zehnder indices
family       the two-parameter form family, volumes, compensation
distance     certified Banach-Mazur bound certificates
persistence  action-filtered DG-algebra barcodes over exact rationals
cli          command-line front end
"""

__version__ = "0.1.0"

from .errors import (BasisOverflow, DomainViolation, InfeasibleCompensation,
                     InvalidGeometry, LutzLabError, NotSymplectic,
                     PreconditionFailed, QuadratureFailure, SingularLocus)
from .profile import (ExtensionSpec, TwistedPathFamily, PiecewiseProfile,
                      ProfilePair, SmoothingWindow, TwistParams,
                      build_mollified_path, build_twisted_path,
                      check_contact_condition, mollify,
                      solve_continuity_params, standard_cap_pair,
                      verify_smoothing_bound)
from .reeb import (CoreOrbitInfo, Degenerate, OpenBookProfiles,
                   PerturbedOrbits, TorusOrbitFamily, action_minima,
                   claction_check, core_orbit_cz, cz_sp2_path, l_invariant,
                   morse_bott_check, openbook_profiles, perturb, reeb_field,
                   resonance_scan)
from .family import (CompensatorSpec, FamilyDefaults, FamilyModel, FormSpec,
                     ParamDomain, compensator_solve, embed_point,
                     epsilon_bound, scaling_check, systolic_ratio,
                     tube_volume)
from .distance import (BoundCertificate, ConformalSample, bilipschitz_sweep,
                       bound_certificate, ellipsoid_conformal_factor,
                       folding_bounds, gray_integral, lower_bound,
                       triangle_ub, ub_conformal)
from .persistence import (Bar, Barcode, FilteredDGA, Generator, barcode,
                          boundary, brute_force_oracle, d_squared_check,
                          leibniz_upper_bound, random_admissible_dga,
                          unit_vanishing_level)
