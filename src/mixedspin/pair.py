"""Closed-form thermodynamics of one antiferromagnetic (S, 1/2) exchange pair.

The pair Hamiltonian J S.s (J > 0) has exactly two multiplets: total spin
S + 1/2 at energy J S / 2 with degeneracy 2S + 2, and total spin S - 1/2
at energy -J (S + 1) / 2 with degeneracy 2S. The gap is J (2S + 1) / 2.
Every quantity in this module follows from that two-level structure.

Temperatures and couplings are both in kelvin (energies divided by k_B).
"""

from __future__ import annotations

import math

import numpy as np

from .operators import SpinQuantum
from .units import check_normal, check_positive

__all__ = [
    "pair_correlator",
    "pair_correlator_literature",
    "pair_negativity",
    "negativity_from_g1",
    "characteristic_temperature",
]


def _check_coupling(coupling_kelvin: float) -> None:
    if not math.isfinite(coupling_kelvin) or coupling_kelvin <= 0.0:
        raise ValueError(
            f"antiferromagnetic coupling must be finite and > 0, got {coupling_kelvin}"
        )


def pair_correlator(
    spin: SpinQuantum,
    coupling_kelvin: float,
    temperature_kelvin: float | np.ndarray,
) -> float | np.ndarray:
    """Thermal <S.s> of the pair.

    G1(T) = S(S+1)(x - 1) / (2((S+1)x + S)) with x = exp(-J(2S+1)/(2T)).
    Monotone increasing in T, from -(S+1)/2 at T=0 toward 0.

    A float for one temperature; for an array, an array of the same
    shape. J and the temperatures are checked once per call, and each
    point is the `math.exp` closed form, so an element equals its scalar
    call bitwise (`np.exp` rounds differently from `math.exp` for some
    inputs).
    """
    _check_coupling(coupling_kelvin)
    check_positive("temperature", temperature_kelvin)
    s = spin.value
    gap = coupling_kelvin * (spin.twice_spin + 1) / 2.0
    # math.exp underflows to 0.0, the exact T -> 0 limit, without raising
    if not np.ndim(temperature_kelvin):
        x = math.exp(-gap / float(temperature_kelvin))
    else:
        temps = np.asarray(temperature_kelvin, dtype=float)
        # the quotients are correctly rounded either way; a subnormal T
        # gives -inf, as the float division does
        with np.errstate(over="ignore"):
            exponents = (-gap / temps).ravel().tolist()
        x = np.array(list(map(math.exp, exponents))).reshape(temps.shape)
    # each array element goes through the scalar's operations
    return s * (s + 1.0) * (x - 1.0) / (2.0 * ((s + 1.0) * x + s))


def pair_correlator_literature(
    spin: SpinQuantum, coupling_kelvin: float, temperature_kelvin: float
) -> float:
    """Commonly tabulated closed forms for the two smallest spins.

    For S = 1/2 this coincides with `pair_correlator`. For S = 1 the
    tabulated expression carries a 5/6 prefactor relative to the exact
    two-level thermal average; it is kept as a separate, clearly labeled
    variant for comparison, not used by default anywhere.
    """
    _check_coupling(coupling_kelvin)
    check_positive("temperature", temperature_kelvin)
    if spin.twice_spin == 1:
        e = math.exp(-coupling_kelvin / temperature_kelvin)
        return -3.0 * (1.0 - e) / (4.0 * (1.0 + 3.0 * e))
    if spin.twice_spin == 2:
        e = math.exp(-1.5 * coupling_kelvin / temperature_kelvin)
        return -5.0 * (1.0 - e) / (6.0 * (1.0 + 2.0 * e))
    raise ValueError(
        f"literature correlator is tabulated only for S = 1/2 and S = 1, got S = {spin}"
    )


def pair_negativity(
    spin: SpinQuantum, coupling_kelvin: float, temperature_kelvin: float
) -> float:
    """Negativity of the thermal pair state (see `negativity_from_g1`)."""
    return negativity_from_g1(
        spin, pair_correlator(spin, coupling_kelvin, temperature_kelvin)
    )


def negativity_from_g1(
    spin: SpinQuantum, g1: float | np.ndarray
) -> float | np.ndarray:
    """Negativity of any SU(2)-invariant (S, 1/2) two-site state.

    Such a state is a mixture of the two total-spin projectors, fixed by
    G1 = <S.s> alone, so this holds for the thermal pair and for every
    bond of an isotropic chain, open or periodic (J. Schliemann, Phys.
    Rev. A 68, 012309 (2003)). The partial transpose has 2S eigenvalues
    equal to tau = (S + 2 G1) / (D (D - 1)) with D = 2S + 1; negativity
    is 2S * max(0, -tau), which simplifies to max(0, -(S + 2 G1)) / D.
    G1 may be a number (float result) or an array (array result, each
    element bitwise equal to the scalar call).
    """
    d = spin.twice_spin + 1
    tau = (spin.value + 2.0 * g1) / (d * (d - 1.0))
    # max(0.0, -tau): -tau where it exceeds 0.0, else 0.0 (never -0.0)
    negativity = spin.twice_spin * np.where(-tau > 0.0, -tau, 0.0)
    return negativity if np.ndim(g1) else float(negativity)


def characteristic_temperature(spin: SpinQuantum, coupling_kelvin: float) -> float:
    """Temperature where the pair loses its entanglement.

    The boundary sits where G1 crosses -S/2, which the two-level form
    solves in closed form: T_c = J (2S + 1) / (2 ln(2S + 2)). A coupling
    whose J (2S + 1) overflows raises ValueError.
    """
    _check_coupling(coupling_kelvin)
    check_normal("coupling", coupling_kelvin)
    ts = spin.twice_spin
    tc = coupling_kelvin * (ts + 1) / (2.0 * math.log(ts + 2))
    if math.isinf(tc):
        raise ValueError(
            f"coupling {coupling_kelvin} K is too large: J (2S + 1) in "
            "T_c = J (2S + 1) / (2 ln(2S + 2)) overflows"
        )
    # self-check: at T_c the correlator must sit on the boundary
    residual = pair_correlator(spin, coupling_kelvin, tc) + spin.value / 2.0
    if abs(residual) > 1e-10:
        raise RuntimeError(
            f"characteristic temperature self-check failed, residual {residual:.3e}"
        )
    return tc

