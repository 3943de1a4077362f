"""Spatial one- and two-particle correlations of two-mode vortex states.

Core layers, bottom up: `modes` (the two-dimensional harmonic-oscillator
mode pair in its vortex and dipole bases), `fock` (two-mode second
quantization: states, correlators, basis changes), `states` (the family
table behind StateSpec), `density` (one- and two-particle position
densities), `pairstats` (distance / angle laws of the detected pair),
`sampler` (reproducible single-shot frames), `oracle` (independent
reference implementation, the paper's closed forms and the claim
cross-checks), `cli` (file-producing command line).
"""

from .errors import (AlgebraInconsistencyError, AnisotropicStateError,
                     EmptyFramesError, NoPairsError, PauliViolationError,
                     SamplerMethodError, UnsupportedStateError, VortexError)
from .fock import (Basis, Correlators, QuantumState, Statistics,
                   change_basis, make_coherent, make_cothermal, make_fock,
                   make_noon, make_thermal)
from .modes import (DIPOLE_PAIR, DIPOLE_X, DIPOLE_Y, VORTEX_CCW, VORTEX_CW,
                    VORTEX_PAIR, Mode, mode_eval)
from .density import DensityField, density_grid, rho1, rho2
from .pairstats import (DistSummary, PairDistribution, PairVariable,
                        angle_distribution, bosonic_weight,
                        distance_distribution, summarize,
                        two_angle_distribution)
from .sampler import (FrameSet, chi_square_gof, counter_uniforms,
                      empirical_pair_stats, generate_frames,
                      invert_radial_cdf, load_frames, pair_angles,
                      pair_separations, save_frames)
from .oracle import (DiscrepancyReport, all_engine_checks_confirmed,
                     closed_form_angle, closed_form_distance,
                     closed_form_two_angle, cross_validate, full_report,
                     reference_rho2, rho1_closed)
from .states import (KINDS, SpecError, StateSpec, bose_fock, build_state,
                     coherent, cothermal, fermi_fock, noon, parse_complex,
                     spec_from_dict, spec_to_dict, thermal)
from .version import VERSION

__version__ = VERSION

__all__ = [
    "AlgebraInconsistencyError", "AnisotropicStateError", "Basis",
    "Correlators", "DIPOLE_PAIR", "DIPOLE_X", "DIPOLE_Y", "DensityField",
    "DiscrepancyReport", "DistSummary", "EmptyFramesError", "FrameSet",
    "KINDS", "Mode", "NoPairsError", "PairDistribution", "PairVariable",
    "PauliViolationError", "QuantumState", "SamplerMethodError",
    "SpecError", "StateSpec", "Statistics", "UnsupportedStateError",
    "VERSION", "VORTEX_CCW", "VORTEX_CW", "VORTEX_PAIR", "VortexError",
    "all_engine_checks_confirmed", "angle_distribution", "bose_fock",
    "bosonic_weight", "build_state", "change_basis", "chi_square_gof",
    "closed_form_angle", "closed_form_distance", "closed_form_two_angle",
    "coherent", "cothermal", "counter_uniforms", "cross_validate",
    "density_grid", "distance_distribution", "empirical_pair_stats",
    "fermi_fock", "full_report", "generate_frames", "invert_radial_cdf",
    "load_frames", "make_coherent", "make_cothermal", "make_fock",
    "make_noon", "make_thermal", "mode_eval", "noon", "pair_angles",
    "pair_separations", "parse_complex", "reference_rho2", "rho1",
    "rho1_closed", "rho2", "save_frames", "spec_from_dict",
    "spec_to_dict", "summarize", "thermal", "two_angle_distribution",
]
