"""diracwalk: a free 1D Dirac particle as a discrete-time quantum walk.

The package builds positive-energy, definite-helicity wavepackets, evolves
them both as a coin/shift quantum walk on a lattice of spacing dt and via
the exact momentum-space propagator, and evaluates the closed-form
asymptotic two-horned density of the scaled walker position.
"""

from .constants import TOL, NumericalHealthError, Tolerances
from .spinor import energy, spinor_weights
from .initial import (MomentumProfile, WalkInitConfig, build_initial_state,
                      gaussian_profile, position_coefficients)
from .walk import (ComparisonReport, LatticeState, compare_densities,
                   empirical_moment, position_distribution)
from .spectral import (energy_leakage, evolve, evolve_exact_on_lattice,
                       propagator_symbol, walk_power_symbol)
from .asymptotic import (SpectralCoefficients, horn_location, limit_cdf,
                         limit_cdf_gaussian, limit_density,
                         limit_density_mass, limit_moment,
                         spectral_coefficients)

__version__ = "0.1.0"
