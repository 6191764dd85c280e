"""Witness, negativity bound, T_c solving, sweeps, and compound table."""

import dataclasses
import functools
import json
import math
import random
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from mixedspin import cli
from mixedspin.chain import (
    ChainSpec,
    diagonalize,
    susceptibility_exact,
    thermal_mean,
    thermal_mean_and_slope,
)
from mixedspin.operators import SpinQuantum
from mixedspin.pair import (
    characteristic_temperature,
    negativity_from_g1,
    pair_correlator,
    pair_negativity,
)
from mixedspin.units import chi_reduced_to_emu_per_mol, wavenumber_to_kelvin
from mixedspin.witness import (
    CompoundRecord,
    builtin_compounds,
    compound_report,
    lookup_compound,
    negativity_lower_bound,
    separability_threshold,
    solve_tc,
    susceptibility_nn_approx,
    sweep_tc,
    witness_report,
)

ALL_SPINS = [SpinQuantum(ts) for ts in range(1, 6)]


def chi_nn_pair(spin, j, t, n=2):
    """Reduced nearest-neighbor susceptibility fed by the pair correlator."""
    s = spin.value
    return n * (0.125 + s * s / 2.0 + pair_correlator(spin, j, t) / 3.0)


def witness_value(chi_reduced, n, spin):
    """The witness of a reduced chi, as `witness_report` gives it."""
    return witness_report(chi_reduced, "reduced", 1.0, 2.0, n, spin).witness_value


class TestWitnessValue:
    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_zero_exactly_at_threshold(self, spin):
        thr = separability_threshold(2, spin)
        assert witness_value(thr, 2, spin) == 0.0

    def test_threshold_formula(self):
        s = 1.5
        expected = 2.0 * (12.0 * s * s - 4.0 * s + 3.0) / 24.0
        assert separability_threshold(2, SpinQuantum(3)) == expected

    def test_threshold_matches_boundary_correlator(self):
        # the threshold is the NN susceptibility evaluated at g1 = -S/2
        for spin in ALL_SPINS:
            s = spin.value
            chi_boundary = 2.0 * (0.125 + s * s / 2.0 + (-s / 2.0) / 3.0)
            assert separability_threshold(2, spin) == pytest.approx(
                chi_boundary, rel=1e-14
            )

    def test_linear_in_chi(self):
        spin = SpinQuantum(2)
        w0 = witness_value(0.0, 2, spin)
        assert w0 == -separability_threshold(2, spin)
        assert witness_value(0.3, 2, spin) - w0 == pytest.approx(0.3, rel=1e-12)

    def test_negative_below_characteristic_temperature(self):
        spin = SpinQuantum(1)
        tc = characteristic_temperature(spin, 5.12)
        chi = chi_nn_pair(spin, 5.12, tc / 2.0)
        assert witness_value(chi, 2, spin) < 0.0

    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_sign_equivalence_with_negativity(self, spin):
        j = 2.3
        tc = characteristic_temperature(spin, j)
        for t in np.geomspace(0.1 * tc, 3.0 * tc, 15):
            chi = chi_nn_pair(spin, j, float(t))
            w = witness_value(chi, 2, spin)
            g1 = pair_correlator(spin, j, float(t))
            neg = pair_negativity(spin, j, float(t))
            assert (w < 0.0) == (g1 < -spin.value / 2.0)
            assert (w < 0.0) == (neg > 0.0)

    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_single_sign_change_in_temperature(self, spin):
        j = 1.0
        temps = np.geomspace(0.01, 100.0, 400)
        signs = [witness_value(chi_nn_pair(spin, j, float(t)), 2, spin) < 0.0 for t in temps]
        flips = sum(a != b for a, b in zip(signs, signs[1:]))
        assert flips == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            witness_value(0.1, 3, SpinQuantum(1))
        with pytest.raises(ValueError):
            separability_threshold(0, SpinQuantum(1))


class TestNnSusceptibility:
    def test_cancellation_never_goes_negative(self):
        # on the S = 1/2 dimer g1 = -3/4 makes n(1/8 + S^2/2 + g1/3) exactly 0;
        # one ulp lower is roundoff, not a negative susceptibility
        g1 = np.nextafter(-0.75, -1.0)
        assert 2 * (0.125 + 0.125 + g1 / 3) < 0.0
        assert susceptibility_nn_approx(2, SpinQuantum(1), g1) == 0.0
        got = susceptibility_nn_approx(2, SpinQuantum(1), np.array([g1, -0.5]))
        assert got.tolist() == [0.0, 2 * (0.125 + 0.125 + -0.5 / 3)]

    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_array_equals_scalar_calls_bitwise(self, spin):
        g1s = np.linspace(-(spin.value + 1.0) / 2.0, spin.value / 2.0, 13)
        chi = susceptibility_nn_approx(4, spin, g1s)
        assert chi.shape == g1s.shape
        for k, g1 in enumerate(g1s.tolist()):
            one = susceptibility_nn_approx(4, spin, g1)
            assert type(one) is float
            assert chi[k] == one


class TestNegativityBound:
    def test_zero_witness_gives_zero_bound(self):
        assert negativity_lower_bound(0.0, 2, SpinQuantum(3)) == 0.0

    @pytest.mark.parametrize("witness", [0.0, -0.0])
    def test_zero_bound_is_plus_zero(self, witness):
        # -6 x 0.0 is -0.0, which would print as -0
        bound = negativity_lower_bound(witness, 2, SpinQuantum(2))
        assert math.copysign(1.0, bound) == 1.0

    def test_scaling(self):
        # bound = -6 W / (D n)
        spin = SpinQuantum(2)
        assert negativity_lower_bound(-1.0, 2, spin) == pytest.approx(1.0, rel=1e-14)
        assert negativity_lower_bound(-1.0, 4, spin) == pytest.approx(0.5, rel=1e-14)
        assert negativity_lower_bound(2.0, 2, SpinQuantum(1)) == pytest.approx(
            -3.0, rel=1e-14
        )

    def test_the_bound_exceeds_the_exact_negativity_of_a_ring(self):
        # not a proven lower bound: on the S = 1/2 ring of 4 sites at
        # T = 0.5 J the exact chi gives 0.321, the exact negativity 0.137
        spin = SpinQuantum(1)
        data = diagonalize(ChainSpec(4, spin, 1.0), vectors=False)
        chi = float(susceptibility_exact(data, 0.5))
        bound = witness_report(chi, "reduced", 0.5, 2.0, 4, spin).negativity_lower_bound
        exact = negativity_from_g1(spin, thermal_mean(data, data.bond, 0.5))
        assert (round(bound, 9), round(exact, 9)) == (0.321195617, 0.136912911)

    @pytest.mark.parametrize("n_sites", [2**1023, 10**400])
    def test_sites_whose_product_with_2s_plus_1_leaves_the_floats_are_refused(
        self, n_sites
    ):
        # 2^1023 is a float, but 3 * 2^1023 is not
        for call in (
            functools.partial(negativity_lower_bound, -1.0, n_sites, SpinQuantum(2)),
            functools.partial(separability_threshold, n_sites, SpinQuantum(2)),
            functools.partial(witness_report, 1.0, "reduced", 1.0, 2.0, n_sites, SpinQuantum(2)),
        ):
            with pytest.raises(ValueError, match=r"n_sites is too large: n_sites \(2S \+ 1\)"):
                call()

    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_bound_never_exceeds_negativity(self, spin):
        j = 1.7
        tc = characteristic_temperature(spin, j)
        for t in np.geomspace(0.1 * tc, 3.0 * tc, 25):
            chi = chi_nn_pair(spin, j, float(t))
            w = witness_value(chi, 2, spin)
            bound = negativity_lower_bound(w, 2, spin)
            neg = pair_negativity(spin, j, float(t))
            assert bound <= neg + 1e-12

    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_bound_is_tight_on_the_entangled_branch(self, spin):
        # for NN pair susceptibility the bound equals the negativity below T_c
        j = 1.7
        tc = characteristic_temperature(spin, j)
        for t in np.geomspace(0.1 * tc, 0.999 * tc, 10):
            chi = chi_nn_pair(spin, j, float(t))
            bound = negativity_lower_bound(witness_value(chi, 2, spin), 2, spin)
            assert bound == pytest.approx(
                pair_negativity(spin, j, float(t)), abs=1e-12
            )

    def test_cold_limit_reaches_one_half_for_spin_half(self):
        spin = SpinQuantum(1)
        chi = chi_nn_pair(spin, 1.0, 1e-3)
        bound = negativity_lower_bound(witness_value(chi, 2, spin), 2, spin)
        assert bound == pytest.approx(0.5, abs=1e-9)

    def test_negative_above_tc(self):
        spin = SpinQuantum(1)
        tc = characteristic_temperature(spin, 1.0)
        chi = chi_nn_pair(spin, 1.0, 2.0 * tc)
        assert negativity_lower_bound(witness_value(chi, 2, spin), 2, spin) < 0.0


def pair_g1_and_slope(spin, j):
    """The pair correlator at T and its closed-form slope: with x =
    exp(-D/T), D = J (2S+1)/2, dG1/dT = S(S+1)(2S+1) x (D/T) / (2 T
    ((S+1) x + S)^2), as `solve_tc` takes them."""
    s = spin.value
    gap = j * (spin.twice_spin + 1) / 2.0

    def correlator(t):
        x = math.exp(-gap / t)
        slope = s * (s + 1) * (2 * s + 1) * x * (gap / t)
        slope /= 2.0 * t * ((s + 1) * x + s) ** 2
        return pair_correlator(spin, j, t), slope

    return correlator


class TestSolveTc:
    @pytest.mark.parametrize("spin", ALL_SPINS)
    def test_agrees_with_closed_form(self, spin):
        j = 5.12
        got = solve_tc(pair_g1_and_slope(spin, j), spin, j)
        assert got == pytest.approx(
            characteristic_temperature(spin, j), rel=1e-8
        )

    def test_homogeneity(self):
        spin = SpinQuantum(3)
        t1 = solve_tc(pair_g1_and_slope(spin, 1.0), spin, 1.0)
        t2 = solve_tc(pair_g1_and_slope(spin, 2.0), spin, 2.0)
        assert t2 == pytest.approx(2.0 * t1, rel=1e-7)

    def test_chain_model_crossing_is_below_pair_value(self):
        from mixedspin.chain import ChainSpec, correlator_matrix, diagonalize

        spin = SpinQuantum(1)
        data = diagonalize(ChainSpec(6, spin, 1.0))
        tc_chain = solve_tc(
            lambda t: (float(correlator_matrix(data, t).g_dot[0, 1]), None), spin, 1.0
        )
        tc_pair = characteristic_temperature(spin, 1.0)
        assert 0.0 < tc_chain < tc_pair

    def test_no_crossing_reported(self):
        with pytest.raises(RuntimeError):
            solve_tc(lambda t: (0.0, None), SpinQuantum(1), 1.0)
        with pytest.raises(ValueError):
            solve_tc(lambda t: (0.0, None), SpinQuantum(1), -1.0)

    @pytest.mark.parametrize("coupling", [1.7976932e305, 1e306, 1e308])
    def test_overflowing_bracket_names_the_coupling(self, coupling):
        # 1e3 J overflows; the correlator was once called at T = inf
        spin = SpinQuantum(2)
        message = re.escape(f"coupling {coupling} K is too large")
        with pytest.raises(ValueError, match=message):
            solve_tc(pair_g1_and_slope(spin, coupling), spin, coupling)

    @pytest.mark.parametrize("ts", [1, 2])
    def test_midpoint_of_a_bracket_near_the_largest_float(self, ts):
        # 1e3 J is finite but 1e3 J + 1e-3 J is not: the first midpoint
        # was inf, and the bisection returned it
        spin, j = SpinQuantum(ts), 1.7976931e305
        got = solve_tc(pair_g1_and_slope(spin, j), spin, j)
        want = solve_tc(pair_g1_and_slope(spin, 1.0), spin, 1.0)
        assert got / j == pytest.approx(want, rel=1e-8)

    def test_bracket_stops_growing_before_overflow(self):
        # G1 never reaches -S/2 + 0: the bracket grows by 10x until the
        # next step would overflow, and no correlator sees T = inf
        spin = SpinQuantum(2)
        correlator = pair_g1_and_slope(spin, 1e300)
        with pytest.raises(RuntimeError, match="does not change sign"):
            solve_tc(lambda t: (correlator(t)[0] - 10.0, None), spin, 1e300)

    @pytest.mark.parametrize(
        "kink, end",
        [
            # G1 = -S/2 up to 1 K: the bracket's low end moves down 8 decades
            # and still sits on the boundary, so it is returned
            (lambda t: max(0.0, t - 1.0), 1e-11),
            # G1 = -S/2 from 1 K on: the high end moves up 8 decades
            (lambda t: min(0.0, t - 1.0), 1e11),
        ],
    )
    def test_a_bracket_end_on_the_boundary_is_returned(self, kink, end):
        spin = SpinQuantum(3)
        got = solve_tc(lambda t: (kink(t) - spin.value / 2.0, None), spin, 1.0)
        assert got == pytest.approx(end, rel=1e-12)

    def test_bisection_stops_where_no_float_lies_between_the_ends(self):
        # G1 steps across -S/2 at 5e10 J, which only a grown bracket
        # reaches; with no slope the search bisects down to the adjacent
        # floats around the step and returns the upper one, the step
        spin = SpinQuantum(2)
        crossing = 5e10
        got = solve_tc(lambda t: (0.0 if t >= crossing else -1.0, None), spin, 1.0)
        assert got == crossing

    @pytest.mark.parametrize("coupling", [math.nan, math.inf, 0.0, -1.0])
    def test_coupling_must_be_finite_and_positive(self, coupling):
        # a NaN coupling once reached the bracket and failed as a
        # computation ("does not change sign"), not as a usage error
        spin = SpinQuantum(2)
        with pytest.raises(ValueError, match="coupling must be finite and > 0"):
            solve_tc(pair_g1_and_slope(spin, 1.0), spin, coupling)


def bisect_to_adjacency(g1, half_s, lo, hi):
    """Plain bisection of g1 + S/2 from a sign bracket down to two adjacent
    floats; the upper one, where g1 + S/2 >= 0, is the root."""
    assert g1(lo) + half_s < 0.0 <= g1(hi) + half_s
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if g1(mid) + half_s < 0.0:
            lo = mid
        else:
            hi = mid


def corpus_chains():
    """(n, 2S, boundary, J) of every `tc --model chain` row of the CLI corpus
    that prints a T_c."""
    corpus = Path(__file__).with_name("data") / "cli_corpus.json"
    chains = []
    for row in json.loads(corpus.read_text(encoding="utf-8")):
        argv = shlex.split(row["command"])
        if argv[0] != "tc" or "chain" not in argv or row["exit"] != 0:
            continue
        args = cli.build_parser("tc").parse_args(argv)
        spin = SpinQuantum.parse(args.spin)
        n = args.chain_sites if args.sites is None else args.sites
        chains.append((n, spin.twice_spin, args.boundary or "periodic",
                       cli._parse_coupling(args.coupling)))
    return chains


# the corpus chains, and every 2S <= 9 at n = 2 and 4 on both boundaries at
# five couplings
ORACLE_CHAINS = corpus_chains() + [
    (n, ts, boundary, j)
    for n in (2, 4)
    for ts in range(1, 10)
    for boundary in ("periodic", "open")
    for j in (10.0, 0.37, 1.0, 123.4, 3e-5)
]


class TestSolveTcOnLevelTables:
    """`solve_tc` on a level table's G1 and slope, against a plain bisection
    of the same G1 to adjacent floats."""

    def test_the_corpus_has_chain_rows(self):
        assert len(corpus_chains()) >= 6

    @pytest.mark.parametrize("n,ts,boundary,j", ORACLE_CHAINS)
    def test_root_is_the_oracle_adjacent_float_sign_change(self, n, ts, boundary, j):
        spin = SpinQuantum(ts)
        data = diagonalize(ChainSpec(n, spin, j, boundary=boundary), vectors=False)
        kernel = functools.partial(thermal_mean_and_slope, data, data.bond)
        calls = []

        def counted(t):
            calls.append(t)
            return kernel(t)

        got = solve_tc(counted, spin, j)
        assert len(calls) <= 20
        half_s = spin.value / 2.0
        g1 = functools.partial(thermal_mean, data, data.bond)
        assert g1(math.nextafter(got, 0.0)) + half_s < 0.0 <= g1(got) + half_s
        want = bisect_to_adjacency(g1, half_s, 1e-3 * j, 1e3 * j)
        if got != want:
            # roundoff makes the computed G1 + S/2 change sign more than once
            # near the crossing: over up to 28 ulps (open n = 4, 2S = 9,
            # J = 3e-5 K), so both are sign changes, close together
            assert abs(got - want) <= 32 * math.ulp(want)

    # the three chains of the tc_chain bench workload, each with the most
    # and the mean evaluations measured over this draw: the bounds are 1
    # and 0.5 above them
    @pytest.mark.parametrize(
        "n,ts,boundary,most,mean",
        [(8, 2, "periodic", 11, 8.17), (6, 5, "periodic", 15, 10.8), (8, 2, "open", 11, 8.09)],
    )
    def test_evaluation_count_on_the_bench_chains(self, n, ts, boundary, most, mean):
        spin = SpinQuantum(ts)
        rng = random.Random(0)
        counts = []
        for _ in range(100):
            j = rng.uniform(2.0, 60.0)
            data = diagonalize(ChainSpec(n, spin, j, boundary=boundary), vectors=False)
            kernel = functools.partial(thermal_mean_and_slope, data, data.bond)
            calls = []

            def counted(t):
                calls.append(t)
                return kernel(t)

            solve_tc(counted, spin, j)
            counts.append(len(calls))
        assert max(counts) <= most + 1
        assert sum(counts) / len(counts) <= mean + 0.5

    def test_closed_form_pair_slope_is_the_dimer_kernel(self):
        for ts in range(1, 10):
            spin = SpinQuantum(ts)
            data = diagonalize(ChainSpec(2, spin, 1.7, boundary="open"), vectors=False)
            closed_form = pair_g1_and_slope(spin, 1.7)
            for t in np.geomspace(0.05, 1.7, 12).tolist():
                g1, slope = thermal_mean_and_slope(data, data.bond, t)
                want_g1, want_slope = closed_form(t)
                assert g1 == pytest.approx(want_g1, rel=1e-13, abs=1e-15)
                assert slope == pytest.approx(want_slope, rel=1e-12, abs=1e-300)


class TestSweep:
    def test_grid_matches_closed_forms(self):
        result = sweep_tc(ALL_SPINS, [1.0, 2.0])
        assert len(result.rows) == 10
        for row in result.rows:
            assert row.tc_kelvin == pytest.approx(
                characteristic_temperature(row.spin, row.coupling_kelvin), rel=1e-12
            )
            assert row.tc_over_j == row.tc_kelvin / row.coupling_kelvin

    def test_couplings_scale_rows(self):
        result = sweep_tc(ALL_SPINS, [10.0, 20.0])
        by_j = {}
        for row in result.rows:
            by_j.setdefault(row.coupling_kelvin, []).append(row.tc_kelvin)
        np.testing.assert_allclose(by_j[20.0], 2.0 * np.asarray(by_j[10.0]), rtol=1e-12)

    def test_linear_law_coefficients(self):
        result = sweep_tc(ALL_SPINS, [1.0])
        ls = result.least_squares_fit
        ep = result.endpoint_fit
        # frozen from the closed-form grid (2S+1)/(2 ln(2S+2))
        assert ls.slope == pytest.approx(0.3152334, abs=1e-6)
        assert ls.intercept == pytest.approx(0.7615303, abs=1e-6)
        assert ls.r_squared == pytest.approx(0.9989980, abs=1e-6)
        assert ep.slope == pytest.approx(0.3157279, abs=1e-6)
        assert ep.intercept == pytest.approx(0.7523753, abs=1e-6)
        assert ep.r_squared == pytest.approx(0.9975724, abs=1e-6)
        assert not result.degenerate

    def test_endpoint_chord_interpolates_extremes(self):
        result = sweep_tc(ALL_SPINS, [1.0])
        ep = result.endpoint_fit
        for spin in (SpinQuantum(1), SpinQuantum(5)):
            expected = characteristic_temperature(spin, 1.0)
            assert ep.slope * spin.value + ep.intercept == pytest.approx(expected, rel=1e-12)

    def test_fits_invariant_under_coupling_scale(self):
        a = sweep_tc(ALL_SPINS, [1.0]).least_squares_fit
        b = sweep_tc(ALL_SPINS, [7.5]).least_squares_fit
        assert b.slope == pytest.approx(a.slope, rel=1e-12)
        assert b.intercept == pytest.approx(a.intercept, rel=1e-12)

    @pytest.mark.parametrize("spin", [2 * 10**154, 6 * 10**154])
    def test_huge_spin_fits_the_chord(self, spin):
        # (S - <S>)^2 once overflowed: to inf, which read as slope 0 and
        # r^2 0 at 2e154, and with OverflowError at 6e154
        result = sweep_tc([SpinQuantum(2), SpinQuantum(2 * spin)], [1.0])
        ls, ep = result.least_squares_fit, result.endpoint_fit
        assert ls.slope == pytest.approx(ep.slope, rel=1e-12)
        assert ls.r_squared == pytest.approx(1.0, rel=1e-12)
        assert ep.r_squared == pytest.approx(1.0, rel=1e-12)
        # the least-squares intercept is resolved only to roundoff of the
        # largest T_c/J, so the two lines are compared on that scale
        top = max(row.tc_over_j for row in result.rows)
        for row in result.rows:
            x = row.spin.value
            assert ls.slope * x + ls.intercept == pytest.approx(
                ep.slope * x + ep.intercept, rel=1e-12, abs=1e-12 * top
            )

    def test_fits_keep_their_bits_under_power_of_two_scaling(self):
        # the fits run on S and T_c/J scaled by powers of two, which is
        # exact: the unscaled sums give the same bits on the default grid
        result = sweep_tc(ALL_SPINS, [1.0])
        xs = [row.spin.value for row in result.rows]
        ys = [row.tc_over_j for row in result.rows]
        mx, my = sum(xs) / 5, sum(ys) / 5
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
            (x - mx) ** 2 for x in xs
        )
        ls = result.least_squares_fit
        assert (ls.slope, ls.intercept) == (slope, my - slope * mx)
        ep_slope = (ys[-1] - ys[0]) / (xs[-1] - xs[0])
        ep = result.endpoint_fit
        assert (ep.slope, ep.intercept) == (ep_slope, ys[0] - ep_slope * xs[0])

    def test_single_spin_sweep_is_degenerate(self):
        result = sweep_tc([SpinQuantum(2)], [1.0, 2.0])
        assert result.degenerate
        assert result.least_squares_fit.r_squared == 1.0
        assert result.least_squares_fit.slope == 0.0
        assert result.least_squares_fit.intercept == pytest.approx(
            characteristic_temperature(SpinQuantum(2), 1.0), rel=1e-12
        )

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            sweep_tc([], [1.0])
        with pytest.raises(ValueError):
            sweep_tc(ALL_SPINS, [])


class TestCompounds:
    def test_six_records(self):
        recs = builtin_compounds()
        assert len(recs) == 6
        names = [r.name for r in recs]
        assert names == ["CN", "NiCu", "CoCu", "FeCu", "MnCu", "Cu-HTS"]
        for rec in recs:
            assert rec.coupling_kelvin > 0.0

    def test_record_has_four_fields(self):
        names = [f.name for f in dataclasses.fields(CompoundRecord)]
        assert names == ["name", "spin", "coupling_kelvin", "reported_tc_kelvin"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -5.0])
    def test_record_rejects_bad_coupling(self, value):
        with pytest.raises(ValueError, match="coupling must be finite and > 0"):
            CompoundRecord("X", SpinQuantum(2), value, None)

    def test_record_values(self):
        cn = lookup_compound("CN")
        assert cn.spin.twice_spin == 1
        assert cn.coupling_kelvin == 5.12
        assert cn.reported_tc_kelvin == 4.7
        mn = lookup_compound("mncu")
        assert mn.spin.twice_spin == 5
        assert mn.coupling_kelvin == wavenumber_to_kelvin(23.44)
        assert mn.reported_tc_kelvin == 40.0
        hts = lookup_compound("Cu-HTS")
        assert hts.reported_tc_kelvin is None

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="NiCu"):
            lookup_compound("unobtainium")

    def test_report_rows(self):
        rows = {r.name: r for r in compound_report()}
        assert len(rows) == 6
        # frozen pair-model values
        assert rows["CN"].computed_tc_kelvin == pytest.approx(4.660425, abs=1e-5)
        assert rows["NiCu"].computed_tc_kelvin == pytest.approx(126.7225, abs=1e-3)
        assert rows["CoCu"].computed_tc_kelvin == pytest.approx(32.1826, abs=1e-3)
        assert rows["FeCu"].computed_tc_kelvin == pytest.approx(40.1498, abs=1e-3)
        assert rows["MnCu"].computed_tc_kelvin == pytest.approx(51.9936, abs=1e-3)

    def test_report_flags_reproducibility_honestly(self):
        rows = {r.name: r for r in compound_report()}
        assert rows["CN"].matches_reported is True
        assert rows["NiCu"].matches_reported is True
        # these reference values do not follow from the pair model
        for name in ("CoCu", "FeCu", "MnCu"):
            assert rows[name].matches_reported is False
            assert rows[name].relative_deviation > 0.2
        assert rows["Cu-HTS"].matches_reported is None
        assert rows["Cu-HTS"].reported_tc_kelvin is None

    def test_report_internal_consistency(self):
        for row in compound_report():
            g1 = pair_correlator(row.spin, row.coupling_kelvin, row.computed_tc_kelvin)
            assert g1 == pytest.approx(-row.spin.value / 2.0, abs=1e-8)


class TestWitnessReport:
    def test_reduced_input(self):
        spin = SpinQuantum(1)
        rep = witness_report(0.25, "reduced", 2.0, 2.0, 2, spin)
        assert rep.threshold == separability_threshold(2, spin)
        assert rep.witness_value == pytest.approx(0.25 - 1.0 / 3.0, rel=1e-12)
        assert rep.entangled
        assert rep.negativity_lower_bound == pytest.approx(
            -6.0 * rep.witness_value / 4.0, rel=1e-12
        )

    def test_molar_input_matches_reduced_pathway(self):
        spin = SpinQuantum(1)
        t, g = 2.0, 2.06
        chi_red = chi_nn_pair(spin, 5.12, t)
        chi_mol = chi_reduced_to_emu_per_mol(chi_red, t, g)
        rep_mol = witness_report(chi_mol, "emu/mol", t, g, 2, spin)
        rep_red = witness_report(chi_red, "reduced", t, g, 2, spin)
        assert rep_mol.entangled == rep_red.entangled
        assert rep_mol.negativity_lower_bound == pytest.approx(
            rep_red.negativity_lower_bound, rel=1e-10
        )
        # threshold and witness reported in the input unit system
        assert rep_mol.threshold == chi_reduced_to_emu_per_mol(
            separability_threshold(2, spin), t, g
        )
        assert rep_mol.witness_value == chi_mol - rep_mol.threshold
        w_mol_expected = chi_reduced_to_emu_per_mol(rep_red.witness_value, t, g)
        assert rep_mol.witness_value == pytest.approx(w_mol_expected, rel=1e-10)

    @staticmethod
    def assert_verdict_agrees(rep):
        # the bound is -6 W / (n(2S+1)) of the same reduced witness W
        assert rep.entangled == (rep.verdict == "entangled")
        assert (rep.verdict == "entangled") == (rep.negativity_lower_bound > 0.0)
        on_boundary = rep.verdict == "separable boundary"
        assert on_boundary == (rep.negativity_lower_bound == 0.0)
        assert (rep.verdict == "not detected") == (rep.negativity_lower_bound < 0.0)

    def test_verdict_at_the_boundary_follows_the_reduced_witness(self):
        # two molar inputs whose input-unit witness reads -1.4e-17 and 0
        # while the reduced witness is 0 and negative, respectively
        for chi, t, g, n, spin, verdict in (
            (0.12381329658710781, 6.353325326617269, 1.5124363188293144, 2,
             SpinQuantum(2), "separable boundary"),
            (0.008230912988764391, 202.67469035896056, 1.633420554202549, 10,
             SpinQuantum(1), "entangled"),
        ):
            rep = witness_report(chi, "emu/mol", t, g, n, spin)
            assert rep.verdict == verdict
            self.assert_verdict_agrees(rep)

    def test_verdict_agrees_with_entangled_and_bound_in_a_boundary_scan(self):
        # molar chi at the threshold and one ulp to either side
        rng = np.random.default_rng(14)
        signs_apart = 0
        for _ in range(2000):
            spin = SpinQuantum(int(rng.integers(1, 6)))
            n = 2 * int(rng.integers(1, 10))
            t, g = float(rng.uniform(0.5, 300.0)), float(rng.uniform(1.5, 2.5))
            at = chi_reduced_to_emu_per_mol(separability_threshold(n, spin), t, g)
            for chi in (np.nextafter(at, 0.0), at, np.nextafter(at, np.inf)):
                rep = witness_report(float(chi), "emu/mol", t, g, n, spin)
                self.assert_verdict_agrees(rep)
                signs_apart += np.sign(rep.witness_value) != np.sign(
                    -rep.negativity_lower_bound
                )
        # the scan reaches inputs whose input-unit witness has its own sign
        assert signs_apart > 100

    def test_validation(self):
        with pytest.raises(ValueError):
            witness_report(0.1, "reduced", -1.0, 2.0, 2, SpinQuantum(1))
        with pytest.raises(ValueError):
            witness_report(0.1, "parsec", 1.0, 2.0, 2, SpinQuantum(1))

    @pytest.mark.parametrize("unit", ["reduced", "emu/mol"])
    @pytest.mark.parametrize("temp", [5e-324, 1e-310, 2.2250738585072e-308])
    def test_subnormal_temperature_is_refused_in_both_units(self, unit, temp):
        # reduced units never convert the temperature, so only this check
        # keeps a row at T = 4.94e-324 K from being printed
        with pytest.raises(ValueError, match="temperature must not be subnormal"):
            witness_report(1.0, unit, temp, 2.0, 2, SpinQuantum(2))
        smallest_normal = 2.2250738585072014e-308
        rep = witness_report(1.0, unit, smallest_normal, 2.0, 2, SpinQuantum(2))
        assert rep.temperature_kelvin == smallest_normal
