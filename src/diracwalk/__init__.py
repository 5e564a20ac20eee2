"""diracwalk: a free 1D Dirac particle as a discrete-time quantum walk.

The package builds positive-energy, definite-helicity wavepackets, evolves
them both as a coin/shift quantum walk on a lattice of spacing dt and via
the exact momentum-space propagator, and evaluates the closed-form
asymptotic two-horned density of the scaled walker position.
"""

from .constants import TOL, NumericalHealthError, Tolerances
from .spinor import (DiracRep, EnergySpinor, dirac_representation, energy,
                     hamiltonian4, hamiltonian_matrix, reduce_effective,
                     spinor_weights, u_minus4, u_minus_effective, u_plus4,
                     u_plus_effective)
from .initial import (MomentumProfile, PositionAmplitudes, WalkInitConfig,
                      build_initial_state, discretize_to_lattice, fiber_grid,
                      gaussian_profile, position_coefficients)
from .walk import (LatticeState, coin_matrix, coin_step, empirical_moment,
                   evolve_steps, position_distribution, shift_step, step)
from .spectral import (MomentumGrid, SpectralState, evolve,
                       lattice_to_spectral, propagator_symbol,
                       spectral_to_lattice, walk_power_symbol)
from .exact import (ComparisonReport, compare_densities, energy_leakage,
                    evolve_exact_on_lattice)
from .asymptotic import (SpectralCoefficients, gaussian_g_approx,
                         group_velocity, horn_location, limit_cdf,
                         limit_cdf_gaussian, limit_density,
                         limit_density_mass, limit_moment,
                         spectral_coefficients, walk_symbol_matrix)

__version__ = "0.1.0"
