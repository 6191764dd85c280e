"""Closed-form (S, 1/2) pair results against independent diagonalization."""

import math

import numpy as np
import pytest

from mixedspin.chain import (
    ChainSpec,
    correlator_matrix,
    diagonalize,
    negativity_bruteforce,
    reduced_pair_state,
)
from mixedspin.operators import SpinQuantum
from mixedspin.pair import (
    characteristic_temperature,
    negativity_from_g1,
    pair_correlator,
    pair_negativity,
)

ALL_SPINS = [SpinQuantum(ts) for ts in range(1, 6)]
TGRID = np.geomspace(0.01, 100.0, 20)


def dimer(spin: SpinQuantum, j: float = 1.0):
    """Two-site open chain: the independent oracle for every pair formula."""
    return diagonalize(ChainSpec(2, spin, j, boundary="open"))


class TestPairSpectrum:
    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_two_multiplets_match_diagonalization(self, spin):
        # the closed forms: J S / 2 with 2S + 2 states, -J (S + 1) / 2 with 2S
        j = 1.3
        upper, lower = j * spin.value / 2.0, -j * (spin.value + 1.0) / 2.0
        evals = dimer(spin, j).all_eigenvalues()
        assert evals[0] == pytest.approx(lower, abs=1e-12)
        assert evals[-1] == pytest.approx(upper, abs=1e-12)
        n_lower = int(np.sum(np.abs(evals - lower) < 1e-9))
        n_upper = int(np.sum(np.abs(evals - upper) < 1e-9))
        assert n_lower == spin.twice_spin
        assert n_upper == spin.twice_spin + 2
        assert n_lower + n_upper == evals.size
        assert j * (spin.twice_spin + 1) / 2.0 == pytest.approx(upper - lower, abs=1e-12)


class TestPairCorrelator:
    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_matches_thermal_average(self, spin):
        data = dimer(spin)
        for t in TGRID:
            expected = correlator_matrix(data, float(t)).g_dot[0, 1]
            assert pair_correlator(spin, 1.0, float(t)) == pytest.approx(
                expected, abs=1e-10
            )

    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_limits(self, spin):
        # deep in the gapped regime the T -> 0 limit -(S+1)/2 is reached to
        # machine precision
        cold = pair_correlator(spin, 1.0, 1e-3)
        assert cold == pytest.approx(-(spin.value + 1.0) / 2.0, abs=1e-12)
        hot = pair_correlator(spin, 1.0, 1e7)
        assert abs(hot) < 1e-6

    def test_known_crossing_value(self):
        # S=1/2: G1(T) = -1/4 exactly at T = J / ln 3
        t = 1.0 / math.log(3.0)
        assert pair_correlator(SpinQuantum(1), 1.0, t) == pytest.approx(-0.25, abs=1e-12)

    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_monotone_increasing(self, spin):
        values = [pair_correlator(spin, 2.0, float(t)) for t in TGRID]
        assert all(b >= a for a, b in zip(values, values[1:]))
        # strictly increasing once the Boltzmann factor is resolvable
        warm = [pair_correlator(spin, 2.0, float(t)) for t in np.geomspace(0.5, 100, 20)]
        assert all(b > a for a, b in zip(warm, warm[1:]))

    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_array_equals_scalar_calls_bitwise(self, spin):
        # one math.exp closed form per point; np.exp rounds some of these
        # exponents differently
        temps = np.concatenate([[5e-324, 1e-300], np.geomspace(1e-3, 1e4, 57), [1e300]])
        values = pair_correlator(spin, 2.0, temps)
        assert values.shape == temps.shape
        for t, value in zip(temps.tolist(), values.tolist()):
            scalar = pair_correlator(spin, 2.0, t)
            assert type(scalar) is float
            assert value == scalar
        grid = pair_correlator(spin, 2.0, temps[:60].reshape(6, 10))
        assert grid.tobytes() == values[:60].tobytes()

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_any_invalid_temperature_raises(self, bad):
        temps = np.array([0.5, 1.0, bad, 4.0])
        with pytest.raises(ValueError, match=f"temperature must be finite and > 0, got {bad}"):
            pair_correlator(SpinQuantum(2), 1.0, temps)

    def test_validation(self):
        with pytest.raises(ValueError):
            pair_correlator(SpinQuantum(1), 1.0, 0.0)
        with pytest.raises(ValueError):
            pair_correlator(SpinQuantum(1), -1.0, 1.0)
        with pytest.raises(ValueError):
            pair_correlator(SpinQuantum(0), 1.0, 1.0)


class TestPairNegativity:
    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_matches_partial_transpose(self, spin):
        data = dimer(spin)
        for t in TGRID:
            rho = reduced_pair_state(data, float(t), (0, 1))
            expected = negativity_bruteforce(rho, spin.dimension, 2)
            assert pair_negativity(spin, 1.0, float(t)) == pytest.approx(
                expected, abs=1e-10
            )

    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_zero_temperature_limit(self, spin):
        expected = 1.0 / (spin.twice_spin + 1)
        assert pair_negativity(spin, 1.0, 1e-3) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_vanishes_above_characteristic_temperature(self, spin):
        tc = characteristic_temperature(spin, 1.0)
        assert pair_negativity(spin, 1.0, 1.01 * tc) == 0.0
        assert pair_negativity(spin, 1.0, 10.0 * tc) == 0.0

    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_range_and_monotonicity(self, spin):
        cap = 1.0 / (spin.twice_spin + 1)  # the T -> 0 limit
        values = [pair_negativity(spin, 1.0, float(t)) for t in TGRID]
        assert all(0.0 <= v <= cap + 1e-15 for v in values)
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


class TestCharacteristicTemperature:
    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_closed_form(self, spin):
        ts = spin.twice_spin
        expected = 1.7 * (ts + 1) / (2.0 * math.log(ts + 2))
        assert characteristic_temperature(spin, 1.7) == pytest.approx(
            expected, rel=1e-14
        )

    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_correlator_sits_on_boundary(self, spin):
        tc = characteristic_temperature(spin, 3.1)
        g1 = pair_correlator(spin, 3.1, tc)
        assert g1 == pytest.approx(-spin.value / 2.0, abs=1e-10)

    # the closed form is not re-checked at run time; this pins it, from
    # the smallest spins to 2S = 1e15 and J across the float range. At
    # large spin G1 + S/2 is a rounding of S/2, not of 1: at
    # 2S = 413654000 it is -1.49e-8, so only a relative bound holds
    @pytest.mark.parametrize(
        "ts", [1, 2, 5, 63, 2000, 413654000, 771458727, 10**9 + 1, 10**12 + 1, 10**15]
    )
    @pytest.mark.parametrize("coupling", [1e-300, 3.1, 1e290])
    def test_correlator_sits_on_boundary_to_roundoff(self, ts, coupling):
        spin = SpinQuantum(ts)
        tc = characteristic_temperature(spin, coupling)
        g1 = pair_correlator(spin, coupling, tc)
        assert g1 == pytest.approx(-spin.value / 2.0, rel=4e-16, abs=0.0)

    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_homogeneous_in_coupling(self, spin):
        assert characteristic_temperature(spin, 2.0) == pytest.approx(
            2.0 * characteristic_temperature(spin, 1.0), rel=1e-14
        )

    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_overflowing_numerator_names_the_coupling(self, spin):
        # J (2S + 1) overflows although T_c itself would not; the check at
        # T_c once failed on T = inf, a temperature nobody gave
        with pytest.raises(ValueError, match=r"coupling 1e\+308 K is too large"):
            characteristic_temperature(spin, 1e308)

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            characteristic_temperature(SpinQuantum(1), 0.0)


class TestNegativityFromG1:
    """Every SU(2)-invariant (S, 1/2) two-site state has its negativity fixed
    by G1, so the closed form holds on any bond of an isotropic chain."""

    @pytest.mark.parametrize(
        "n,ts,boundary",
        [
            (2, 2, "open"),
            (2, 2, "periodic"),
            (4, 2, "periodic"),
            (4, 1, "open"),
            (6, 3, "periodic"),
            (6, 5, "open"),
            (8, 2, "periodic"),
            (8, 2, "open"),
        ],
    )
    def test_matches_partial_transpose_on_chains(self, n, ts, boundary):
        spin = SpinQuantum(ts)
        data = diagonalize(ChainSpec(n, spin, 1.0, boundary=boundary))
        for t in (0.02, 0.2, 0.5, 0.9, 1.5, 4.0, 50.0):
            g1 = float(correlator_matrix(data, t).g_dot[0, 1])
            rho = reduced_pair_state(data, t, (0, 1))
            brute = negativity_bruteforce(rho, spin.dimension, 2)
            assert abs(negativity_from_g1(spin, g1) - brute) <= 1e-14

    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_pair_negativity_keeps_its_bits(self, spin):
        # the expression `pair_negativity` evaluated before it delegated
        d = spin.twice_spin + 1
        for t in np.concatenate([TGRID, [1e-300, 1e300]]).tolist():
            g1 = pair_correlator(spin, 1.7, t)
            tau = (spin.value + 2.0 * g1) / (d * (d - 1.0))
            recorded = spin.twice_spin * max(0.0, -tau)
            got = pair_negativity(spin, 1.7, t)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(recorded).tobytes()

    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_array_equals_scalar_calls_bitwise(self, spin):
        # from the full bond range through the boundary g1 = -S/2 (tau = 0)
        g1s = np.concatenate(
            [np.linspace(-(spin.value + 1.0) / 2.0, spin.value / 2.0, 41), [-spin.value / 2.0]]
        )
        got = negativity_from_g1(spin, g1s)
        assert got.shape == g1s.shape
        for k, g1 in enumerate(g1s.tolist()):
            one = negativity_from_g1(spin, g1)
            assert type(one) is float
            assert np.float64(one).tobytes() == got[k].tobytes()
        # no -0.0 where the state is separable
        assert np.all(np.signbit(got) == False)  # noqa: E712

    def test_rejects_a_nonmagnetic_spin(self):
        with pytest.raises(ValueError):
            negativity_from_g1(SpinQuantum(0), 0.0)
