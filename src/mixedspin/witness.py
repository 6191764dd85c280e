"""Susceptibility entanglement witness, negativity bound, and T_c tooling.

The zero-field susceptibility of the alternating (S, 1/2) chain, in
reduced form chi_tilde = chi k_B T / (g^2 mu_B^2), certifies
entanglement whenever it drops below a separability threshold. The
witness W is chi_tilde minus that threshold. The paper rescales it into
its "bound of negativity" -6W/(n(2S+1)), which is not a proven bound:
on the exact S = 1/2 ring of 4 sites at T = 0.5 J it reads 0.321, above
the exact bond negativity 0.137.

All core functions work in reduced (dimensionless) susceptibility and
kelvin energies; `witness_report` converts emu/mol input at the edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .operators import SpinQuantum
from .pair import characteristic_temperature
from .units import (
    check_finite,
    check_normal,
    check_positive,
    chi_emu_per_mol_to_reduced,
    chi_reduced_to_emu_per_mol,
    wavenumber_to_kelvin,
)

__all__ = [
    "susceptibility_nn_approx",
    "separability_threshold",
    "negativity_lower_bound",
    "solve_tc",
    "LinearLaw",
    "SweepRow",
    "SweepResult",
    "sweep_tc",
    "CompoundRecord",
    "builtin_compounds",
    "lookup_compound",
    "CompoundTcRow",
    "compound_report",
    "WitnessReport",
    "witness_report",
]

# relative deviation below which a computed T_c counts as reproducing the
# literature reference value
REPRODUCIBILITY_TOLERANCE = 0.05


def _check_sites(n_sites: int, spin: SpinQuantum) -> None:
    if n_sites < 2 or n_sites % 2:
        raise ValueError(f"n_sites must be even and >= 2, got {n_sites}")
    try:  # the negativity bound divides by the float n_sites (2S + 1)
        float(n_sites * (spin.twice_spin + 1))
    except OverflowError:
        raise ValueError("n_sites is too large: n_sites (2S + 1) leaves the float range") from None


def susceptibility_nn_approx(
    n_sites: int, spin: SpinQuantum, g1: float | np.ndarray
) -> float | np.ndarray:
    """Nearest-neighbor approximation to the reduced susceptibility.

    chi_tilde = n (1/8 + S^2/2 + g1/3): on-site moments plus one bond
    correlator per site, with the S z-moment entering through S^2/2
    (M. Wiesniak, V. Vedral, C. Brukner, New J. Phys. 7, 258 (2005)).
    g1 may be a number (float result) or an array (array result).
    """
    _check_sites(n_sites, spin)
    s = spin.value
    # g1 >= -(S+1)/2 in every state, so the exact value is >= 0; below 0 is roundoff
    chi = np.maximum(n_sites * (0.125 + s * s / 2.0 + g1 / 3.0), 0.0)
    return chi if np.ndim(g1) else float(chi)


def separability_threshold(n_sites: int, spin: SpinQuantum) -> float:
    """Reduced susceptibility at the separability boundary: n(12S^2 - 4S + 3)/24.

    Any reduced chi below this certifies nearest-neighbor entanglement.
    It is `susceptibility_nn_approx` at the separable bond value
    g1 = -S/2, written in its own operation order so that an exactly
    representable threshold (3 at n = 18, S = 1/2) stays exact.
    """
    _check_sites(n_sites, spin)
    s = spin.value
    return n_sites * (12.0 * s * s - 4.0 * s + 3.0) / 24.0


def negativity_lower_bound(
    witness_reduced: float, n_sites: int, spin: SpinQuantum
) -> float:
    """The paper's negativity bound from the reduced witness W.

    -6 W / (D n) with D = 2S + 1; dimensionless, positive exactly when the
    witness is negative. It is the paper's rescaled witness, not a proven
    lower bound: the exact negativity can be smaller (see the module
    docstring). At the separable boundary W = 0 it is +0, never -0.
    """
    _check_sites(n_sites, spin)
    # + 0.0 turns the -0.0 of a zero witness into 0.0 and changes nothing else
    return -6.0 * witness_reduced / ((spin.twice_spin + 1) * n_sites) + 0.0


def solve_tc(
    correlator: Callable[[float], tuple[float, float | None]],
    spin: SpinQuantum,
    coupling_kelvin: float,
) -> float:
    """The float where G1(T) + S/2 changes sign, found by safeguarded Newton.

    `correlator` maps a temperature (K) to the nearest-neighbor dot
    correlator G1 and its slope dG1/dT, or None where it has no slope
    (`chain.thermal_mean_and_slope` on a level table); G1 must be
    continuous and increasing. The bracket starts at [1e-3, 1e3] * J and
    expands geometrically, never to inf, before giving up; a coupling
    whose 1e3 J overflows raises ValueError, and a bracket end where
    G1 = -S/2 exactly is returned as it is.

    Newton steps in log T start from 0.9 J and stay inside the sign
    bracket; a step that leaves it, lands on one of its ends or has no
    slope is replaced by the bracket's geometric midpoint. Once a step
    is at most 4 ulps, the bracket is closed around where it ends by
    probes 1, 2, 4, ... ulps outward and bisected until its ends lo < hi
    are adjacent floats with G1(lo) + S/2 < 0 <= G1(hi) + S/2; hi is
    returned. Where the computed G1 + S/2 changes sign more than once
    (near the crossing, from roundoff), hi is one of
    those adjacent-float sign changes. Each evaluation goes through
    `correlator`: about 10 on a level table, bracket ends included.
    """
    check_positive("coupling", coupling_kelvin)
    check_normal("coupling", coupling_kelvin)
    half_s = spin.value / 2.0

    def f(t: float) -> tuple[float, float | None]:
        g1, slope = correlator(t)
        return g1 + half_s, slope

    lo = 1e-3 * coupling_kelvin
    hi = 1e3 * coupling_kelvin
    if math.isinf(hi):
        raise ValueError(
            f"coupling {coupling_kelvin} K is too large: the T_c bracket "
            "[1e-3, 1e3] J overflows"
        )
    (flo, _), (fhi, _) = f(lo), f(hi)
    for _ in range(8):
        if flo < 0.0:
            break
        lo /= 10.0
        flo, _ = f(lo)
    for _ in range(8):
        if fhi > 0.0 or math.isinf(hi * 10.0):
            break
        hi *= 10.0
        fhi, _ = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if not (flo < 0.0 < fhi):
        raise RuntimeError(
            f"witness does not change sign on [{lo:.3e}, {hi:.3e}] K; "
            "no characteristic temperature found"
        )

    def probe(t: float) -> tuple[float, float | None]:
        """f(t), with t made the end of the bracket on its side."""
        nonlocal lo, hi
        ft, slope = f(t)
        if ft < 0.0:
            lo = t
        else:
            hi = t
        return ft, slope

    t = 0.9 * coupling_kelvin
    while True:
        ft, slope = probe(t)
        rate = 0.0 if slope is None else t * slope  # dG1 / d(log T)
        step = None
        if rate > 0.0:
            # exp of a log-T step above 709 overflows; any such step leaves
            # the bracket, and so does the step to t * exp(709)
            step = t * math.exp(min(-ft / rate, 709.0))
            if abs(step - t) <= 4.0 * math.ulp(t):  # converged
                break
        if step is None or not lo < step < hi:
            step = _geometric_midpoint(lo, hi)
            if step is None:
                return hi
        t = step
    # the Newton step is a few ulps: evaluate where it ends, close the
    # bracket by probes 1, 2, 4, ... ulps beyond that, then bisect the
    # bracket to adjacent floats
    if lo < step < hi:
        t = step
        probe(t)
    side = 1.0 if t == lo else -1.0
    ulps = 1.0
    while lo < (near := t + side * ulps * math.ulp(t)) < hi:
        probe(near)
        if near != (lo if side > 0.0 else hi):  # the probe crossed over
            break
        ulps *= 2.0
    while True:
        mid = _midpoint(lo, hi)
        if not lo < mid < hi:
            return hi
        probe(mid)


def _geometric_midpoint(lo: float, hi: float) -> float | None:
    """sqrt(lo hi) of two positive floats, strictly between them; their
    `_midpoint` where the rounded root is not; None if no float is."""
    mid = math.sqrt(lo) * math.sqrt(hi)
    if not lo < mid < hi:
        mid = _midpoint(lo, hi)
    return mid if lo < mid < hi else None


def _midpoint(lo: float, hi: float) -> float:
    """0.5 (lo + hi) of two positive floats, or 0.5 lo + 0.5 hi where their
    sum overflows: the same value wherever the sum is finite."""
    total = lo + hi
    return 0.5 * total if total < math.inf else 0.5 * lo + 0.5 * hi


@dataclass(frozen=True)
class LinearLaw:
    """T_c / J = slope * S + intercept, with its goodness of fit."""

    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class SweepRow:
    spin: SpinQuantum
    coupling_kelvin: float
    tc_kelvin: float
    tc_over_j: float


@dataclass(frozen=True)
class SweepResult:
    """T_c grid over (spin, J) plus linear fits of T_c/J against S.

    Two fits are reported: an ordinary least-squares line through all
    grid points, and the chord through the smallest- and largest-spin
    points (which is how the round headline coefficients arise).
    `degenerate` flags a single-spin sweep, where any line through the
    point fits exactly.
    """

    rows: tuple[SweepRow, ...]
    least_squares_fit: LinearLaw
    endpoint_fit: LinearLaw
    degenerate: bool


def _r_squared(xs: list[float], ys: list[float], law_slope: float, law_icpt: float) -> float:
    mean = sum(ys) / len(ys)
    ss_tot = sum((y - mean) ** 2 for y in ys)
    ss_res = sum((y - (law_slope * x + law_icpt)) ** 2 for x, y in zip(xs, ys))
    return 1.0 - ss_res / ss_tot


def sweep_tc(
    spins: Sequence[SpinQuantum], coupling_kelvins: Sequence[float]
) -> SweepResult:
    """Pair-model T_c over the (spin, coupling) grid, with linear-law fits."""
    if not spins or not coupling_kelvins:
        raise ValueError("sweep needs at least one spin and one coupling")
    rows = []
    for spin in spins:
        for j in coupling_kelvins:
            tc = characteristic_temperature(spin, j)
            rows.append(SweepRow(spin, j, tc, tc / j))
    xs = [row.spin.value for row in rows]
    ys = [row.tc_over_j for row in rows]
    unique_spins = sorted({row.spin for row in rows})
    degenerate = len(unique_spins) == 1
    if degenerate:
        law = LinearLaw(0.0, ys[0], 1.0)
        return SweepResult(tuple(rows), law, law, True)
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    ls_slope = sxy / sxx
    ls_icpt = my - ls_slope * mx
    ls = LinearLaw(ls_slope, ls_icpt, _r_squared(xs, ys, ls_slope, ls_icpt))
    s_lo, s_hi = unique_spins[0], unique_spins[-1]
    # tc/J is independent of J, so any row at the extreme spin will do
    y_lo = next(r.tc_over_j for r in rows if r.spin == s_lo)
    y_hi = next(r.tc_over_j for r in rows if r.spin == s_hi)
    ep_slope = (y_hi - y_lo) / (s_hi.value - s_lo.value)
    ep_icpt = y_lo - ep_slope * s_lo.value
    ep = LinearLaw(ep_slope, ep_icpt, _r_squared(xs, ys, ep_slope, ep_icpt))
    return SweepResult(tuple(rows), ls, ep, False)


@dataclass(frozen=True)
class CompoundRecord:
    """One bimetallic-chain compound with its literature parameters.

    `reported_tc_kelvin` is the characteristic temperature quoted in the
    literature (None when the record exists only for fitting demos).
    The spin is the large member of the (S, 1/2) pair.
    """

    name: str
    spin: SpinQuantum
    coupling_kelvin: float
    reported_tc_kelvin: float | None

    def __post_init__(self) -> None:
        check_positive("coupling", self.coupling_kelvin)

    def deviation(self, tc_kelvin: float) -> float | None:
        """(T_c - reported) / reported, or None without a reported value."""
        reported = self.reported_tc_kelvin
        return None if reported is None else (tc_kelvin - reported) / reported


# the literature quotes every coupling but CN's in cm-1
_COMPOUNDS = (
    CompoundRecord("CN", SpinQuantum(1), 5.12, 4.7),
    CompoundRecord("NiCu", SpinQuantum(2), wavenumber_to_kelvin(81.4), 125.0),
    CompoundRecord("CoCu", SpinQuantum(3), wavenumber_to_kelvin(18.0), 26.0),
    CompoundRecord("FeCu", SpinQuantum(4), wavenumber_to_kelvin(20.0), 32.0),
    CompoundRecord("MnCu", SpinQuantum(5), wavenumber_to_kelvin(23.44), 40.0),
    CompoundRecord("Cu-HTS", SpinQuantum(1), wavenumber_to_kelvin(10.2), None),
)


def builtin_compounds() -> tuple[CompoundRecord, ...]:
    """Built-in (S, 1/2) chain compounds with literature couplings."""
    return _COMPOUNDS


def lookup_compound(name: str) -> CompoundRecord:
    key = name.strip().lower()
    for rec in _COMPOUNDS:
        if rec.name.lower() == key:
            return rec
    known = ", ".join(rec.name for rec in _COMPOUNDS)
    raise ValueError(f"unknown compound {name!r}; built-ins: {known}")


@dataclass(frozen=True)
class CompoundTcRow:
    """Computed vs reported characteristic temperature for one compound.

    `matches_reported` is None when no reference value exists, else a
    plain statement of whether the pair model reproduces it to within
    REPRODUCIBILITY_TOLERANCE. Reference values that the model cannot
    reproduce stay flagged; they are never adjusted to agree.
    """

    name: str
    spin: SpinQuantum
    coupling_kelvin: float
    computed_tc_kelvin: float
    reported_tc_kelvin: float | None
    relative_deviation: float | None
    matches_reported: bool | None


def compound_report() -> tuple[CompoundTcRow, ...]:
    """Pair-model T_c for every built-in compound, against the literature."""
    rows = []
    for rec in builtin_compounds():
        j = rec.coupling_kelvin
        computed = characteristic_temperature(rec.spin, j)
        deviation = rec.deviation(computed)
        matches = None if deviation is None else abs(deviation) <= REPRODUCIBILITY_TOLERANCE
        rows.append(
            CompoundTcRow(
                name=rec.name,
                spin=rec.spin,
                coupling_kelvin=j,
                computed_tc_kelvin=computed,
                reported_tc_kelvin=rec.reported_tc_kelvin,
                relative_deviation=deviation,
                matches_reported=matches,
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class WitnessReport:
    """Witness evaluation for one susceptibility measurement.

    `threshold` and `witness_value` are in the same unit system as the
    input chi; `negativity_lower_bound` is always dimensionless (a
    negativity). `verdict` ("entangled", "separable boundary" or "not
    detected") is the sign of the reduced witness, which also sets the
    sign of the bound; at the boundary the input-unit `witness_value`,
    rounded on its own, can read 0 or the opposite sign.
    """

    temperature_kelvin: float
    chi_input: float
    chi_unit: str
    threshold: float
    witness_value: float
    verdict: str
    negativity_lower_bound: float

    @property
    def entangled(self) -> bool:
        return self.verdict == "entangled"


def witness_report(
    chi_value: float,
    chi_unit: str,
    temperature_kelvin: float,
    g_factor: float,
    n_sites: int,
    spin: SpinQuantum,
) -> WitnessReport:
    """Evaluate the witness for a measured susceptibility.

    chi_unit is 'emu/mol' (per mole of formula units, each carrying
    n_sites spins; the usual reporting convention has n_sites = 2, one
    (S, 1/2) cell) or 'reduced'. A subnormal temperature raises
    ValueError in either unit.
    """
    check_finite("susceptibility", chi_value)
    if chi_value < 0.0:  # chi k_B T / (g mu_B)^2 = <Sz_total^2> >= 0
        raise ValueError(f"susceptibility must be >= 0, got {chi_value!r}")
    check_positive("temperature", temperature_kelvin)
    check_normal("temperature", temperature_kelvin)
    check_positive("g_factor", g_factor)
    if chi_unit == "reduced":
        chi_reduced = chi_value
    elif chi_unit == "emu/mol":
        chi_reduced = chi_emu_per_mol_to_reduced(chi_value, temperature_kelvin, g_factor)
    else:
        raise ValueError(f"chi_unit must be 'emu/mol' or 'reduced', got {chi_unit!r}")
    threshold = separability_threshold(n_sites, spin)
    w_reduced = w_input = chi_reduced - threshold
    if chi_unit == "emu/mol":
        threshold = chi_reduced_to_emu_per_mol(threshold, temperature_kelvin, g_factor)
        w_input = chi_value - threshold
    if w_reduced < 0.0:
        verdict = "entangled"
    elif w_reduced == 0.0:
        verdict = "separable boundary"
    else:
        verdict = "not detected"
    return WitnessReport(
        temperature_kelvin=temperature_kelvin,
        chi_input=chi_value,
        chi_unit=chi_unit,
        threshold=threshold,
        witness_value=w_input,
        verdict=verdict,
        negativity_lower_bound=negativity_lower_bound(w_reduced, n_sites, spin),
    )
