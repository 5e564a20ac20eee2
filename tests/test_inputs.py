"""The one input rule at every numeric parameter of what ``diracwalk``
exports: each refuses what is no number (bool, text, complex, None, NaN,
a bool inside a list, unsigned, a float where an integer is needed) with
an ``InputError`` that names the parameter and its domain, and takes every
signed int and float scalar of numpy (int8-int64, float16-float64) as the
Python number of the same value."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import diracwalk
from diracwalk import (LatticeState, MomentumProfile, SpectralCoefficients,
                       WalkInitConfig, energy,
                       empirical_moment, evolve, evolve_exact_on_lattice,
                       gaussian_profile, horn_location, limit_cdf,
                       limit_cdf_gaussian, limit_density, limit_density_mass,
                       limit_moment, position_coefficients, propagator_symbol,
                       spectral_coefficients, spinor_weights,
                       walk_power_symbol)
from diracwalk.constants import InputError, require_number

STATE = LatticeState(dt=0.25, a_plus=np.array([math.sqrt(0.5) + 0j]))
COEFFS = spectral_coefficients(STATE, n_phi=64)
PROB = np.array([0.5, 0.5])
# p_max 1.95: a lattice of spacing 1 resolves it
PROFILE = gaussian_profile(0.25)

# (owner, parameter): (a call with the value in that place, a valid value
# that every numpy scalar type holds exactly, vectorized, integer)
NUMERIC = {
    ("energy", "p"): (energy, 1, True, False),
    ("spinor_weights", "p"): (spinor_weights, 1, True, False),
    ("MomentumProfile", "p_max"):
        (lambda v: MomentumProfile(f=PROFILE.f, p_max=v), 2, False, False),
    ("MomentumProfile.__call__", "p"): (PROFILE, 1, True, False),
    ("WalkInitConfig", "nu"):
        (lambda v: WalkInitConfig(nu=v, dt=0.01), 2, False, False),
    ("WalkInitConfig", "dt"):
        (lambda v: WalkInitConfig(nu=2.0, dt=v), 1, False, False),
    ("gaussian_profile", "nu"): (gaussian_profile, 2, False, False),
    ("position_coefficients", "dt"):
        (lambda v: position_coefficients(PROFILE, v, 4), 1, False, False),
    ("position_coefficients", "m_max"):
        (lambda v: position_coefficients(PROFILE, 1.0, v), 4, False, True),
    ("LatticeState", "dt"):
        (lambda v: LatticeState(dt=v, a_plus=STATE.a_plus), 1, False, False),
    ("empirical_moment", "x"):
        (lambda v: empirical_moment(v, PROB, 2), 1, True, False),
    ("empirical_moment", "prob"):
        (lambda v: empirical_moment(np.array([-1.0, 1.0]), v, 2), 1, True,
         False),
    ("empirical_moment", "k"):
        (lambda v: empirical_moment(np.array([-1.0, 1.0]), PROB, v), 2,
         False, True),
    ("evolve", "n_steps"): (lambda v: evolve(STATE, v), 3, False, True),
    ("propagator_symbol", "p"):
        (lambda v: propagator_symbol(v, 0.5), 1, True, False),
    ("propagator_symbol", "t"):
        (lambda v: propagator_symbol(0.5, v), 1, False, False),
    ("walk_power_symbol", "phi"):
        (lambda v: walk_power_symbol(v, 0.25, 3), 1, True, False),
    ("walk_power_symbol", "dt"):
        (lambda v: walk_power_symbol(0.3, v, 3), 1, False, False),
    ("walk_power_symbol", "n_steps"):
        (lambda v: walk_power_symbol(0.3, 0.25, v), 3, False, True),
    ("evolve_exact_on_lattice", "t"):
        (lambda v: evolve_exact_on_lattice(STATE, v), 1, False, False),
    ("spectral_coefficients", "n_phi"):
        (lambda v: spectral_coefficients(STATE, v), 64, False, True),
    ("SpectralCoefficients.mass_below", "y"):
        (COEFFS.mass_below, 0, True, False),
    ("limit_cdf", "y1"): (lambda v: limit_cdf(v, 1.0, COEFFS), 0, False,
                          False),
    ("limit_cdf", "y2"): (lambda v: limit_cdf(-1.0, v, COEFFS), 0, False,
                          False),
    ("limit_density", "y"): (lambda v: limit_density(v, 2.5), 0, True, False),
    ("limit_density", "nu"): (lambda v: limit_density(0.3, v), 2, False,
                              False),
    ("limit_density_mass", "y1"):
        (lambda v: limit_density_mass(v, 1.0, 2.5), 0, False, False),
    ("limit_density_mass", "y2"):
        (lambda v: limit_density_mass(-1.0, v, 2.5), 0, False, False),
    ("limit_density_mass", "nu"):
        (lambda v: limit_density_mass(-0.5, 0.5, v), 2, False, False),
    ("horn_location", "nu"): (horn_location, 2, False, False),
    ("limit_moment", "k"): (lambda v: limit_moment(v, 2.5), 2, False, True),
    ("limit_moment", "nu"): (lambda v: limit_moment(2, v), 2, False, False),
    ("limit_cdf_gaussian", "y1"):
        (lambda v: limit_cdf_gaussian(v, 1.0, 2.5, 0.005), 0, False, False),
    ("limit_cdf_gaussian", "y2"):
        (lambda v: limit_cdf_gaussian(-1.0, v, 2.5, 0.005), 0, False, False),
    ("limit_cdf_gaussian", "nu"):
        (lambda v: limit_cdf_gaussian(-0.5, 0.5, v, 0.005), 2, False, False),
    ("limit_cdf_gaussian", "dt"):
        (lambda v: limit_cdf_gaussian(-0.5, 0.5, 2.5, v), 1, False, False),
}

_STATE = "a LatticeState, whose dt and amplitudes are checked when it is made"
_RECORD = "a record of results the package computes, built by no caller"
# the exported parameters that take no real number, and what each takes
NOT_NUMERIC = {
    ("MomentumProfile", "f"): "a function of the momentum",
    ("MomentumProfile.mean", "g"): "a function of the momentum",
    ("build_initial_state", "config"): "a WalkInitConfig",
    ("position_coefficients", "profile"): "a MomentumProfile",
    ("LatticeState", "a_plus"): "complex amplitudes, refused unless 1-d, "
                                "odd and finite (test_walk)",
    ("LatticeState", "norm_drift"): "the drift that evolve records",
    ("position_distribution", "state"): _STATE,
    ("evolve", "state"): _STATE,
    ("evolve_exact_on_lattice", "state"): _STATE,
    ("energy_leakage", "state"): _STATE,
    ("energy_leakage", "branch"): "text, 'plus' only (test_exact)",
    ("compare_densities", "state_a"): _STATE,
    ("compare_densities", "state_b"): _STATE,
    ("spectral_coefficients", "state"): _STATE,
    ("limit_cdf", "coeffs"): "a SpectralCoefficients",
    ("ComparisonReport", "l1"): _RECORD,
    ("ComparisonReport", "l2"): _RECORD,
    ("ComparisonReport", "sup"): _RECORD,
    ("SpectralCoefficients", "phi"): _RECORD,
    ("SpectralCoefficients", "weights"):
        "numbers in [0, inf) on the fold of phi, refused unless of shape "
        "(2, phi.size // 2 + 1) (test_spectral_coefficients_refuse_weights_"
        "off_the_fold)",
    ("SpectralCoefficients", "dt"): _RECORD,
}
# tests set NaN and negative budgets to make each health check fail
BUDGETS = {"Tolerances"}
# None is the default: the grid sized from the state
NONE_IS_DEFAULT = {("spectral_coefficients", "n_phi")}

INTS = (np.int8, np.int16, np.int32, np.int64)
FLOATS = (np.float16, np.float32, np.float64)


def exported_parameters():
    """(owner, parameter) of every parameter of the exported functions,
    of the exported classes' constructors, public methods and __call__."""
    for name in dir(diracwalk):
        obj = getattr(diracwalk, name)
        if name.startswith("_") or name in BUDGETS or inspect.ismodule(obj) \
                or (inspect.isclass(obj) and issubclass(obj, BaseException)):
            continue
        if inspect.isfunction(obj):
            yield from ((name, p) for p in inspect.signature(obj).parameters)
        elif inspect.isclass(obj):
            yield from ((name, p) for p in inspect.signature(obj).parameters)
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and (
                        not attr.startswith("_") or attr == "__call__"):
                    params = list(inspect.signature(member).parameters)[1:]
                    yield from ((f"{name}.{attr}", p) for p in params)


def test_every_exported_parameter_is_classified():
    found = set(exported_parameters())
    assert found == set(NUMERIC) | set(NOT_NUMERIC), (
        "unclassified:", found - set(NUMERIC) - set(NOT_NUMERIC),
        "gone:", (set(NUMERIC) | set(NOT_NUMERIC)) - found)


def same(a, b) -> bool:
    """Equal values, bit for bit, down through records and functions."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if callable(a):
        return same(a(0.5), b(0.5))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if a is None:
        return b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("key", NUMERIC, ids="-".join)
def test_refuses_what_is_no_number(key):
    call, valid, vectorized, integer = NUMERIC[key]
    bad = [True, False, np.bool_(True), "0.3", 1j, math.nan, np.uint8(1),
           np.array("0.3"), object()]
    bad += [] if key in NONE_IS_DEFAULT else [None]
    bad += [[True, 0.5], [0.5, "0.3"], np.array([True])] if vectorized \
        else [[valid], np.array([valid])]
    bad += [0.5, float(valid), np.float64(valid)] if integer else []
    kind = "an integer" if integer else "a number"
    for value in bad:
        with pytest.raises(InputError,
                           match=rf"^{key[1]} must be {kind} in [\[(]"):
            call(value)


@pytest.mark.parametrize("key", NUMERIC, ids="-".join)
def test_takes_every_signed_int_and_float_scalar(key):
    call, valid, _, integer = NUMERIC[key]
    want = call(int(valid) if integer else float(valid))
    for scalar_type in INTS + FLOATS:
        value = scalar_type(valid)
        if integer and scalar_type in FLOATS:
            with pytest.raises(InputError):
                call(value)
        else:
            assert same(call(value), want), scalar_type
    assert same(call(int(valid)), want)


def test_require_number_returns_python_numbers_and_float64_arrays():
    assert type(require_number("v", np.float16(0.5))) is float
    assert type(require_number("v", np.int8(3), integer=True)) is int
    got = require_number("v", [[1, 2], [3, 4.5]], array=True)
    assert got.dtype == np.float64 and got.shape == (2, 2)
    got = require_number("v", np.arange(3, dtype=np.int16), array=True)
    assert got.dtype == np.int64
    assert require_number("v", np.empty(0), "[0, 1]", array=True).size == 0
    for domain, inside, outside in (("(0, inf)", (1e-300, 1e300),
                                     (0.0, -0.0, math.inf)),
                                    ("[-1, 1]", (-1.0, 1.0), (1.0000000001,)),
                                    ("[0, inf]", (0.0, math.inf), (-1e-300,)),
                                    ("(-inf, inf)", (-1e308,),
                                     (math.inf, -math.inf, 10 ** 400))):
        for v in inside:
            assert require_number("v", v, domain) == v
        for v in outside:
            with pytest.raises(InputError, match=rf"in \{domain[0]}"):
                require_number("v", v, domain)
    # a ragged or an object list, and a long double beyond 1.8e308
    for bad in ([[1.0], [1.0, 2.0]], [np.array([True])], [None],
                np.array(["1e400"], dtype=np.longdouble)):
        with pytest.raises(InputError):
            require_number("v", bad, array=True)
    # a refusal is one line, however the value prints
    with pytest.raises(InputError) as info:
        require_number("v", np.full((40, 40), np.nan), array=True)
    assert "\n" not in str(info.value)


def test_spectral_coefficients_refuse_weights_off_the_fold():
    # n_phi came from the weights and dphi from phi, so weights[:, :3] on
    # 8 points gave a wrong law with no refusal; the fold of 8 points is
    # (2, 5), and the whole ring (2, 8) is no fold
    phi = 2.0 * np.pi * np.fft.fftfreq(8)
    fold = np.full((2, 5), 0.1)
    assert SpectralCoefficients(phi, fold, 0.25).weights.shape == (2, 5)
    for weights, want in ((np.full((2, 8), 0.1), r"got \(2, 8\)"),
                          (fold[:, :3], r"got \(2, 3\)"),
                          (fold[:1], r"got \(1, 5\)")):
        with pytest.raises(InputError, match=r"^weights must have shape "
                           r"\(2, 5\), the fold of 8 phi points, " + want):
            SpectralCoefficients(phi, weights, 0.25)
    for bad in (np.nan, -0.1, np.inf, True):
        weights = fold.copy() if bad is not True else fold.astype(bool)
        weights[1, 2] = bad
        with pytest.raises(InputError,
                           match=r"^weights must be a number in \[0, inf\)"):
            SpectralCoefficients(phi, weights, 0.25)


@pytest.mark.parametrize("call", [
    lambda: evolve_exact_on_lattice(STATE, 1e308),
    lambda: evolve(STATE, 10 ** 400),
    lambda: spectral_coefficients(STATE, n_phi=10 ** 400),
    lambda: position_coefficients(PROFILE, 0.1, 10 ** 400),
], ids=["evolve_exact_on_lattice", "evolve", "spectral_coefficients",
        "position_coefficients"])
def test_sizes_past_a_float_meet_the_ring_budget(call):
    # each raised OverflowError: int(inf) of the light cone, or the
    # budget's message formatting an int past 1e308 as a float
    with pytest.raises(InputError, match=r"^a ring of .* sites exceeds the "
                                         r"size budget of \d+ sites$"):
        call()


def test_walk_power_symbol_takes_the_step_counts_a_float_holds():
    # n theta is formed in floats: 10**400 raised OverflowError
    bound = 2 ** 53
    for n_steps in (10 ** 400, -10 ** 400, bound + 1, -bound - 1):
        with pytest.raises(InputError, match=r"^n_steps must be an integer "
                           r"in \[-9007199254740992, 9007199254740992\]"):
            walk_power_symbol(0.3, 0.25, n_steps)
    for n_steps in (bound, -bound):
        assert all(np.isfinite(v) for v in walk_power_symbol(0.3, 0.25,
                                                              n_steps))
