"""Acceptance suite: one test per headline requirement.

Each test pins a user-facing claim end to end: characteristic
temperatures for the built-in compounds, closed-form negativity against
brute force, the witness-derived lower bound, exact-diagonalization
consistency, the linear T_c/J law, fit round trips, and the sign change
of the measurement-series bound.  Tolerances and runtime budgets are
asserted exactly as promised; nothing here is loosened to pass.
"""

import math
import time

import numpy as np
import pytest

from mixedspin.chain import (
    ChainSpec,
    correlator_matrix,
    dense_hamiltonian,
    diagonalize,
    negativity_bruteforce,
    reduced_pair_state,
    susceptibility_exact,
)
from mixedspin.fitdata import bound_series, fit, synth_series
from mixedspin.operators import SpinQuantum
from mixedspin.pair import (
    characteristic_temperature,
    pair_correlator,
    pair_negativity,
)
from mixedspin.units import wavenumber_to_kelvin
from mixedspin.witness import (
    compound_report,
    lookup_compound,
    negativity_lower_bound,
    solve_tc,
    sweep_tc,
    witness_value,
)

ALL_SPINS = [SpinQuantum(k) for k in range(1, 6)]


def test_smallest_spin_compound_characteristic_temperature():
    """CN (S=1/2, J = 5.12 K): T_c = J/ln 3, within 2% of the literature 4.7 K."""
    record = lookup_compound("CN")
    tc = characteristic_temperature(record.spin, record.coupling_kelvin)
    assert tc == pytest.approx(5.12 / math.log(3.0), rel=1e-12)
    assert tc == pytest.approx(4.661, abs=1e-3)
    assert abs(tc - 4.7) / 4.7 < 0.02


def test_spin_one_compound_characteristic_temperature():
    """NiCu (S=1, J = 81.4 cm^-1): T_c = 3J/(2 ln 4), within 3% of the literature 125 K."""
    record = lookup_compound("NiCu")
    coupling = wavenumber_to_kelvin(81.4)
    assert record.coupling_kelvin == pytest.approx(coupling, rel=1e-12)
    tc = characteristic_temperature(record.spin, coupling)
    assert tc == pytest.approx(3.0 * coupling / (2.0 * math.log(4.0)), rel=1e-12)
    assert tc == pytest.approx(126.7, abs=0.05)
    assert abs(tc - 125.0) / 125.0 < 0.03


def test_unreproducible_literature_rows_are_flagged():
    """CoCu/FeCu/MnCu: computed T_c (32.2, 40.2, 52.0 K) disagrees with the
    literature (26, 32, 40 K); the report must say so while each computed
    value still satisfies the internal check G1(T_c) = -S/2 to 1e-8."""
    rows = {r.name: r for r in compound_report()}
    expected = {"CoCu": (32.2, 26.0), "FeCu": (40.2, 32.0), "MnCu": (52.0, 40.0)}
    for name, (computed, reported) in expected.items():
        row = rows[name]
        assert row.computed_tc_kelvin == pytest.approx(computed, rel=5e-3)
        assert row.reported_tc_kelvin == reported
        assert row.matches_reported is False
        assert abs(row.relative_deviation) > 0.2
        record = lookup_compound(name)
        residual = (
            pair_correlator(record.spin, record.coupling_kelvin, row.computed_tc_kelvin)
            + record.spin.value / 2.0
        )
        assert abs(residual) < 1e-8


def test_pair_negativity_closed_form_matches_bruteforce():
    """Closed-form negativity equals partial-transpose brute force to 1e-10
    for 2S in 1..5 over 20 log-spaced temperatures, in under a second."""
    start = time.perf_counter()
    coupling = 1.0
    temps = np.geomspace(0.01, 100.0, 20)
    for spin in ALL_SPINS:
        spec = ChainSpec(
            n_sites=2, spin=spin, coupling_kelvin=coupling, boundary="open"
        )
        data = diagonalize(spec)
        dims = spec.site_dimensions
        for t in temps:
            rho = reduced_pair_state(data, float(t), (0, 1))
            brute = negativity_bruteforce(rho, dims[0], dims[1])
            closed = pair_negativity(spin, coupling, float(t))
            assert abs(closed - brute) < 1e-10
    assert time.perf_counter() - start < 1.0


def test_lower_bound_never_exceeds_negativity():
    """The susceptibility-derived bound obeys bound <= negativity on the
    whole grid, with equality (both zero) at the witness crossing."""
    coupling = 1.0
    n_sites = 2
    temps = np.geomspace(0.01, 100.0, 20)
    for spin in ALL_SPINS:
        tc = characteristic_temperature(spin, coupling)
        for t in list(temps) + [tc]:
            g1 = pair_correlator(spin, coupling, float(t))
            chi_t = n_sites * (0.125 + spin.value**2 / 2.0 + g1 / 3.0)
            w = witness_value(chi_t, n_sites, spin)
            bound = negativity_lower_bound(w, n_sites, spin)
            negativity = pair_negativity(spin, coupling, float(t))
            assert bound <= negativity + 1e-9
            if t == tc:
                assert abs(w) < 1e-9
                assert abs(bound - negativity) < 1e-9
        # On the entangled side the bound is tight for the exact pair chi.
        for t in np.geomspace(0.2 * tc, 0.999 * tc, 8):
            g1 = pair_correlator(spin, coupling, float(t))
            chi_t = n_sites * (0.125 + spin.value**2 / 2.0 + g1 / 3.0)
            w = witness_value(chi_t, n_sites, spin)
            bound = negativity_lower_bound(w, n_sites, spin)
            assert bound == pytest.approx(
                pair_negativity(spin, coupling, float(t)), abs=1e-9
            )


def test_zero_temperature_negativity_limit():
    """Negativity of the cold pair approaches 1/(2S+1) to 1e-9; 1/2 for S=1/2."""
    for spin in ALL_SPINS:
        limit = 1.0 / (spin.twice_spin + 1)
        cold = pair_negativity(spin, 1.0, 1e-4)
        assert abs(cold - limit) < 1e-9
    assert pair_negativity(SpinQuantum(1), 1.0, 1e-4) == pytest.approx(0.5)


def test_dimer_and_sector_blocking_consistency():
    """An open two-site chain reproduces every pair-model quantity to 1e-10,
    and sector-blocked spectra match dense diagonalization to 1e-10 for
    (n=4, S=1) and (n=6, S=1/2).  Budget: 10 s."""
    start = time.perf_counter()
    coupling = 1.7
    for spin in ALL_SPINS:
        spec = ChainSpec(
            n_sites=2, spin=spin, coupling_kelvin=coupling, boundary="open"
        )
        data = diagonalize(spec)
        # the pair's two multiplets: 2S states at -J (S + 1) / 2, then
        # 2S + 2 states at J S / 2
        lower_degeneracy = spin.twice_spin
        lower = -coupling * (spin.value + 1.0) / 2.0
        upper = coupling * spin.value / 2.0
        levels = np.sort(data.all_eigenvalues())
        dim = spec.total_dimension
        assert levels.shape == (dim,)
        assert np.all(np.abs(levels[:lower_degeneracy] - lower) < 1e-10)
        assert np.all(np.abs(levels[lower_degeneracy:] - upper) < 1e-10)
        dims = spec.site_dimensions
        for t in np.geomspace(0.05, 50.0, 12):
            g1 = float(correlator_matrix(data, float(t)).g_dot[0, 1])
            assert abs(g1 - pair_correlator(spin, coupling, float(t))) < 1e-10
            rho = reduced_pair_state(data, float(t), (0, 1))
            brute = negativity_bruteforce(rho, dims[0], dims[1])
            assert abs(brute - pair_negativity(spin, coupling, float(t))) < 1e-10
        tc_chain = solve_tc(
            lambda t: float(correlator_matrix(data, t).g_dot[0, 1]), spin, coupling
        )
        assert tc_chain == pytest.approx(
            characteristic_temperature(spin, coupling), rel=1e-7
        )
    for n_sites, spin in ((4, SpinQuantum(2)), (6, SpinQuantum(1))):
        spec = ChainSpec(n_sites=n_sites, spin=spin, coupling_kelvin=1.3)
        blocked = np.sort(diagonalize(spec).all_eigenvalues())
        dense = np.linalg.eigvalsh(dense_hamiltonian(spec))
        assert np.max(np.abs(blocked - dense)) < 1e-10
    assert time.perf_counter() - start < 10.0


def test_high_temperature_curie_limit():
    """Exact chi*T at T = 100 J follows the leading 1/T series about the
    Curie value for periodic n=4 rings with S=1/2 and S=1.

    To first order in J/T, chi*T = sum_ij <Sz_i Sz_j> is
    C - (J/T) N_b S(S+1)/6 with C = (n/2)[S(S+1)/3 + 1/4]: each of the
    N_b (S, 1/2) bonds contributes -(J/T) * 2 <(Sz_i)^2 (Sz_j)^2>_0 =
    -(J/T) S(S+1)/6.  N_b counts the bonds of the periodic ring,
    len(spec.bonds()) = n = 4.  The relative deviation (C - chi*T)/C must
    match the prediction (J/T) N_b S(S+1) / (6C) (0.5% for S=1/2, 8/11 %
    for S=1) to within the next order, (J/T)^2 = 1e-4.  This pins C and
    the sign and size of the nearest-neighbour correction.
    """
    coupling = 1.0
    t = 100.0 * coupling
    tolerance = (coupling / t) ** 2
    residuals = []
    lines = []
    for spin in (SpinQuantum(1), SpinQuantum(2)):
        spec = ChainSpec(n_sites=4, spin=spin, coupling_kelvin=coupling)
        n_bonds = len(spec.bonds())
        assert n_bonds == 4, f"periodic n=4 ring has {n_bonds} bonds, expected 4"
        chi_t = susceptibility_exact(diagonalize(spec), t)
        curie = (4 / 2) * (spin.casimir / 3.0 + 0.25)
        deviation = (curie - chi_t) / curie
        predicted = (coupling / t) * n_bonds * spin.casimir / (6.0 * curie)
        residuals.append(deviation - predicted)
        lines.append(
            f"S={spin}: chi*T at T=100J deviates {deviation:.6%} from Curie, "
            f"leading-order series predicts {predicted:.6%}, "
            f"residual {residuals[-1]:.3e}"
        )
    assert all(abs(r) < tolerance for r in residuals), (
        f"residual tolerance {tolerance:.0e}\n" + "\n".join(lines)
    )


def test_characteristic_temperature_linear_law():
    """T_c/J versus S over S = 1/2..5/2 is nearly linear: r^2 > 0.99 with
    slope 0.316 +/- 0.005 and intercept 0.752 +/- 0.005."""
    result = sweep_tc(ALL_SPINS, [1.0])
    assert result.least_squares_fit.r_squared > 0.99
    assert result.endpoint_fit.r_squared > 0.99
    assert abs(result.endpoint_fit.slope - 0.316) <= 0.005
    assert abs(result.endpoint_fit.intercept - 0.752) <= 0.005


def test_fit_round_trips_recover_parameters():
    """Noiseless synthetic series are refit to within 0.1% in both J and g:
    (S=1/2, J = 10.2 cm^-1, g = 2.06) on the full range and
    (S=1, J = 81.4 cm^-1, g = 2.15) on a 25-250 K window.  Budget: 5 s each."""
    cases = [
        (SpinQuantum(1), wavenumber_to_kelvin(10.2), 2.06, None),
        (SpinQuantum(2), wavenumber_to_kelvin(81.4), 2.15, (25.0, 250.0)),
    ]
    for spin, coupling, g_factor, window in cases:
        start = time.perf_counter()
        temps = np.linspace(2.0, 300.0, 60)
        series = synth_series(spin, coupling, g_factor, temps)
        result = fit(
            series,
            spin,
            init_coupling_kelvin=0.6 * coupling,
            init_g_factor=2.0,
            window=window,
        )
        assert result.converged
        assert abs(result.coupling_kelvin - coupling) / coupling < 1e-3
        assert abs(result.g_factor - g_factor) / g_factor < 1e-3
        assert time.perf_counter() - start < 5.0


def test_bound_series_sign_change_at_characteristic_temperature():
    """On model-generated measurement data, the negativity bound changes
    sign within one grid step of the model's own T_c."""
    cases = [
        (SpinQuantum(2), wavenumber_to_kelvin(81.4), 2.15, np.arange(60.0, 200.0, 2.0)),
        (SpinQuantum(1), 5.12, 2.0, np.arange(2.0, 8.0, 0.2)),
    ]
    for spin, coupling, g_factor, temps in cases:
        tc = characteristic_temperature(spin, coupling)
        assert temps[0] < tc < temps[-1]
        series = synth_series(spin, coupling, g_factor, temps)
        points = bound_series(series, spin, g_factor)
        signs = [p.negativity_lower_bound > 0.0 for p in points]
        crossings = [
            (points[i].temperature_kelvin, points[i + 1].temperature_kelvin)
            for i in range(len(points) - 1)
            if signs[i] and not signs[i + 1]
        ]
        assert len(crossings) == 1
        low, high = crossings[0]
        assert low <= tc <= high
        assert points[0].entangled is True
        assert points[-1].entangled is False
