"""Physical constants and unit conversions.

Constants are derived from the 2018 SI defining constants (h, c, k_B,
N_A exact; mu_B from CODATA 2018), never typed in as rounded composites.

Two susceptibility conventions appear throughout:

* "reduced": chi_tilde = chi * k_B * T / (g^2 mu_B^2), dimensionless,
  per formula unit (one unit cell of the chain, i.e. one (S, 1/2) pair).
* "emu/mol": molar cgs susceptibility per mole of formula units.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "KELVIN_PER_WAVENUMBER",
    "CURIE_FACTOR_EMU_K_PER_MOL",
    "wavenumber_to_kelvin",
    "kelvin_to_wavenumber",
    "chi_reduced_to_emu_per_mol",
    "chi_emu_per_mol_to_reduced",
]

H_PLANCK_J_S = 6.62607015e-34
C_LIGHT_CM_PER_S = 2.99792458e10
K_BOLTZMANN_J_PER_K = 1.380649e-23
N_AVOGADRO_PER_MOL = 6.02214076e23
MU_BOHR_ERG_PER_G = 9.2740100783e-21
K_BOLTZMANN_ERG_PER_K = 1.380649e-16

# 1 cm^-1 of energy, expressed in kelvin: h*c/k_B ~ 1.438777 K cm
KELVIN_PER_WAVENUMBER = H_PLANCK_J_S * C_LIGHT_CM_PER_S / K_BOLTZMANN_J_PER_K

# N_A mu_B^2 / k_B ~ 0.37515 emu K / mol, the Curie-law prefactor
CURIE_FACTOR_EMU_K_PER_MOL = (
    N_AVOGADRO_PER_MOL * MU_BOHR_ERG_PER_G**2 / K_BOLTZMANN_ERG_PER_K
)


def wavenumber_to_kelvin(value_cm1: float) -> float:
    """Energy in cm^-1 -> the same energy as a temperature in K."""
    return value_cm1 * KELVIN_PER_WAVENUMBER


def kelvin_to_wavenumber(value_kelvin: float) -> float:
    return value_kelvin / KELVIN_PER_WAVENUMBER


def _first(value, bad) -> float:
    return float(np.asarray(value, dtype=float)[bad].flat[0])


def check_finite(name: str, value) -> None:
    """Raise ValueError unless `value`, a number or an array, is finite.

    The message names the first offending element.
    """
    bad = ~np.isfinite(value)
    if bad.any():
        raise ValueError(f"{name} must be finite, got {_first(value, bad)}")


def check_positive(name: str, value) -> None:
    """Raise ValueError unless every element of `value` is finite and > 0.

    Written so that NaN fails it: every comparison with NaN is false.
    The message names the first offending element.
    """
    bad = ~((np.asarray(value) > 0.0) & np.isfinite(value))
    if bad.any():
        raise ValueError(f"{name} must be finite and > 0, got {_first(value, bad)}")


def check_normal(name: str, value: float) -> None:
    """Raise ValueError if the number `value` is subnormal.

    Below 2.2e-308 in magnitude a float keeps fewer than 16 significant
    digits (1e-320 holds 9.99988867e-321), and every energy or
    temperature scaled by it keeps fewer still.
    """
    if 0.0 < abs(value) < sys.float_info.min:
        raise ValueError(
            f"{name} must not be subnormal (|value| < {sys.float_info.min:.4g}), "
            f"got {value!r}"
        )


def _squared(g_factor: float) -> float:
    """g_factor**2, or inf where the square overflows; the one check of g.

    g must be finite and > 0, and its square a normal float (g >= 1.49e-154),
    else ValueError. Python's ** on floats is libm pow, which is not
    correctly rounded for an exponent of 2: with glibc, g = 1.0204 gives
    pow(g, 2) != g * g. Keeping ** keeps every finite result's bits; only
    the OverflowError it raises becomes inf, which `_check_converted` then
    rejects.
    """
    g_factor = float(g_factor)  # so that a numpy scalar raises, not warns
    if not 0.0 < g_factor < math.inf:
        raise ValueError(f"g_factor must be finite and > 0, got {g_factor}")
    try:
        square = g_factor**2
    except OverflowError:
        return math.inf
    if square < sys.float_info.min:
        raise ValueError(
            f"g_factor {g_factor!r} is too small: its square {square!r} is "
            f"below the smallest normal float {sys.float_info.min:.4g}"
        )
    return square


def _check_converted(value, temperature_kelvin, g_factor: float):
    """Reject a non-finite conversion result, naming its temperature."""
    bad = ~np.isfinite(value)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        t = np.broadcast_to(temperature_kelvin, np.shape(value)).flat[k]
        raise ValueError(
            f"susceptibility conversion at T = {float(t)} K, "
            f"g = {g_factor} is not finite ({float(np.ravel(value)[k])})"
        )
    return value


def chi_reduced_to_emu_per_mol(chi_reduced, temperature_kelvin, g_factor: float):
    """Dimensionless chi*k_B*T/(g^2 mu_B^2) -> molar cgs susceptibility.

    chi_mol = (N_A mu_B^2 / k_B) * g^2 / T * chi_reduced, per mole of
    formula units. chi_reduced and temperature_kelvin may be numbers or
    arrays that broadcast together; an array result is elementwise
    bitwise equal to scalar calls, since both do the same float operations.
    """
    check_finite("susceptibility", chi_reduced)
    check_positive("temperature", temperature_kelvin)
    # a non-finite result (inf, or inf * 0 = nan) is rejected just below
    with np.errstate(over="ignore", invalid="ignore"):
        value = _emu_per_mol(chi_reduced, temperature_kelvin, g_factor)
    return _check_converted(value, temperature_kelvin, g_factor)


def _emu_per_mol(chi_reduced, temperature_kelvin, g_factor: float):
    """`chi_reduced_to_emu_per_mol`'s product with only g checked
    (`_squared`): a result out of the float range is inf or nan, and
    warns unless the caller ignores overflow and invalid operations."""
    return CURIE_FACTOR_EMU_K_PER_MOL * _squared(g_factor) / temperature_kelvin * chi_reduced


def chi_emu_per_mol_to_reduced(chi_emu_per_mol, temperature_kelvin, g_factor: float):
    """Inverse of `chi_reduced_to_emu_per_mol`, numbers or arrays alike."""
    check_finite("susceptibility", chi_emu_per_mol)
    check_positive("temperature", temperature_kelvin)
    # a non-finite result (inf, or inf * 0 = nan) is rejected just below
    with np.errstate(over="ignore", invalid="ignore"):
        value = (
            chi_emu_per_mol
            * temperature_kelvin
            / (CURIE_FACTOR_EMU_K_PER_MOL * _squared(g_factor))
        )
    return _check_converted(value, temperature_kelvin, g_factor)

