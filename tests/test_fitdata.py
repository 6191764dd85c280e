"""CSV ingestion, model susceptibility, simplex fitting, bound series."""

import functools
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest

from mixedspin import fitdata
from mixedspin.fitdata import (
    MeasurementSeries,
    bound_series,
    fit,
    load_measurements,
    model_chi,
    nelder_mead,
    synth_series,
)
from mixedspin.operators import SpinQuantum
from mixedspin.pair import characteristic_temperature, pair_correlator
from mixedspin.units import (
    CURIE_FACTOR_EMU_K_PER_MOL,
    chi_emu_per_mol_to_reduced,
    chi_reduced_to_emu_per_mol,
    wavenumber_to_kelvin,
)
from mixedspin.witness import (
    corrected_bound,
    correction_polynomial,
    negativity_lower_bound,
    witness_value,
)

S_HALF = SpinQuantum(1)
S_ONE = SpinQuantum(2)
CHAIN_SERIES = Path(__file__).with_name("data") / "chain_fit_n4.csv"

VALID_CSV = """# compound: demo
# note: synthetic
temperature_kelvin,chi_emu_per_mol
2.0,0.011
4.0,0.021
8.0,0.015
"""


class TestLoadMeasurements:
    def test_parses_rows_and_metadata(self):
        series = load_measurements(io.StringIO(VALID_CSV))
        assert len(series) == 3
        assert series.unit == "emu/mol"
        np.testing.assert_array_equal(series.temperatures_kelvin, [2.0, 4.0, 8.0])
        np.testing.assert_array_equal(series.chi, [0.011, 0.021, 0.015])
        assert series.metadata == {"compound": "demo", "note": "synthetic"}

    def test_reads_bytes_and_paths(self, tmp_path):
        series = load_measurements(io.BytesIO(VALID_CSV.encode()))
        assert len(series) == 3
        path = tmp_path / "m.csv"
        path.write_text(VALID_CSV)
        assert len(load_measurements(path)) == 3
        assert len(load_measurements(str(path))) == 3

    @pytest.mark.parametrize("text", [VALID_CSV, VALID_CSV.split("\n", 2)[2]])
    def test_reads_a_byte_order_mark(self, tmp_path, text):
        # spreadsheet exports start the file with the UTF-8 BOM
        raw = text.encode("utf-8-sig")
        assert raw.startswith(b"\xef\xbb\xbf")
        path = tmp_path / "m.csv"
        path.write_bytes(raw)
        for source in (io.BytesIO(raw), path):
            series = load_measurements(source)
            np.testing.assert_array_equal(series.temperatures_kelvin, [2.0, 4.0, 8.0])
            assert series.metadata == load_measurements(io.StringIO(text)).metadata

    def test_reduced_header(self):
        text = "temperature_kelvin,chi_reduced\n1.0,0.2\n2.0,0.3\n"
        series = load_measurements(io.StringIO(text))
        assert series.unit == "reduced"

    def test_malformed_row_names_line(self):
        text = "temperature_kelvin,chi_emu_per_mol\n1.0,0.2\nabc,0.01\n"
        with pytest.raises(ValueError, match="line 3"):
            load_measurements(io.StringIO(text))

    def test_wrong_field_count_names_line(self):
        text = "temperature_kelvin,chi_emu_per_mol\n1.0,0.2,9\n"
        with pytest.raises(ValueError, match="line 2"):
            load_measurements(io.StringIO(text))

    def test_out_of_order_reports_both_values(self):
        text = "temperature_kelvin,chi_emu_per_mol\n5.0,0.2\n3.0,0.3\n"
        with pytest.raises(ValueError, match="5.0 then 3.0"):
            load_measurements(io.StringIO(text))

    def test_duplicate_temperature_rejected(self):
        text = "temperature_kelvin,chi_emu_per_mol\n5.0,0.2\n5.0,0.3\n"
        with pytest.raises(ValueError, match="strictly increasing"):
            load_measurements(io.StringIO(text))

    def test_nonpositive_temperature_rejected(self):
        text = "temperature_kelvin,chi_emu_per_mol\n0.0,0.2\n"
        with pytest.raises(ValueError, match="line 2"):
            load_measurements(io.StringIO(text))

    @pytest.mark.parametrize("row", ["4.0,nan", "inf,0.02", "4.0,-inf"])
    def test_non_finite_value_names_line(self, row):
        text = f"temperature_kelvin,chi_emu_per_mol\n2.0,0.01\n{row}\n"
        with pytest.raises(ValueError, match=f"line 3: non-finite value in '{row}'"):
            load_measurements(io.StringIO(text))

    def test_unknown_header_rejected(self):
        text = "temp,chi\n1.0,0.2\n"
        with pytest.raises(ValueError, match="header"):
            load_measurements(io.StringIO(text))
        with pytest.raises(ValueError, match="header"):
            load_measurements(io.StringIO(""))


class TestMeasurementSeries:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("position", [0, 1])
    def test_rejects_a_bad_temperature_anywhere(self, bad, position):
        # only the first temperature was checked, and NaN passed that check
        temps = np.array([1.0, 2.0, 3.0])
        temps[position] = bad
        with pytest.raises(ValueError, match="temperature must be finite and > 0"):
            MeasurementSeries(temps, np.ones(3), "emu/mol", {})

    def test_rejects_an_unknown_unit(self):
        with pytest.raises(ValueError, match="unit must be 'emu/mol' or 'reduced', got 'SI'"):
            MeasurementSeries(np.array([1.0, 2.0]), np.ones(2), "SI", {})

    def test_rejects_arrays_of_different_length(self):
        with pytest.raises(ValueError, match="differ in length"):
            MeasurementSeries(np.array([1.0, 2.0]), np.ones(3), "reduced", {})

    @pytest.mark.parametrize("temps", [[1.0, 3.0, 2.0], [1.0, 2.0, 2.0]])
    def test_rejects_temperatures_that_do_not_increase(self, temps):
        message = f"strictly increasing, got {temps[1]} then {temps[2]}"
        with pytest.raises(ValueError, match=message):
            MeasurementSeries(np.array(temps), np.ones(3), "emu/mol", {})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_susceptibility(self, bad):
        with pytest.raises(ValueError, match="susceptibility must be finite"):
            MeasurementSeries(np.array([1.0, 2.0]), np.array([0.1, bad]), "reduced", {})


class TestModelChi:
    def test_curie_limit(self):
        # S=1/2, g=2: chi*T -> 2 * curie * g^2 * (1/8 + 1/8)
        t = 1e6
        chi = model_chi(S_HALF, 1.0, 2.0, t)
        expected = 2.0 * CURIE_FACTOR_EMU_K_PER_MOL * 4.0 * 0.25
        assert chi * t == pytest.approx(expected, rel=1e-5)
        assert expected == pytest.approx(0.7502962, abs=1e-6)

    def test_singlet_ground_state_suppression(self):
        chi = model_chi(S_HALF, 10.0, 2.0, 0.2)
        assert chi == pytest.approx(0.0, abs=1e-12)

    def test_g_squared_scaling(self):
        base = model_chi(S_ONE, 5.0, 1.7, 10.0)
        assert model_chi(S_ONE, 5.0, 3.4, 10.0) == pytest.approx(
            4.0 * base, rel=1e-12
        )

    def test_pair_model_is_nn_form(self):
        j, g = 7.0, 2.1
        for ts in range(1, 6):
            spin = SpinQuantum(ts)
            s = spin.value
            for t in (0.7, 3.0, 12.0, 150.0):
                g1 = pair_correlator(spin, j, t)
                expected = chi_reduced_to_emu_per_mol(
                    2 * (0.125 + s * s / 2 + g1 / 3), t, g
                )
                assert model_chi(spin, j, g, t) == expected

    def test_chain_model_matches_pair_for_spin_half_dimer(self):
        # for S=1/2 the NN form is the exact dimer susceptibility
        for t in (0.5, 2.0, 20.0):
            pair = model_chi(S_HALF, 3.0, 2.0, t)
            chain = model_chi(S_HALF, 3.0, 2.0, t, n_sites=2, boundary="open")
            assert chain == pytest.approx(pair, rel=1e-10)

    def test_chain_model_per_cell_normalization(self):
        # doubling the ring size must not change the per-cell susceptibility scale
        chi4 = model_chi(S_HALF, 1.0, 2.0, 1e5, n_sites=4)
        chi6 = model_chi(S_HALF, 1.0, 2.0, 1e5, n_sites=6)
        assert chi4 == pytest.approx(chi6, rel=1e-6)

    @pytest.mark.parametrize(
        "n_sites,boundary", [(None, "periodic"), (4, "periodic"), (6, "open")]
    )
    def test_array_temperatures_equal_scalar_calls_bitwise(self, n_sites, boundary):
        temps = np.geomspace(0.05, 500.0, 40)
        kw = dict(n_sites=n_sites, boundary=boundary)
        chi = model_chi(S_ONE, 7.3, 2.07, temps, **kw)
        assert chi.shape == temps.shape
        for x, t in zip(chi.tolist(), temps.tolist()):
            scalar = model_chi(S_ONE, 7.3, 2.07, t, **kw)
            assert type(scalar) is float
            assert x.hex() == scalar.hex()

    @pytest.mark.parametrize("n_sites", [None, 4])
    def test_array_checks_name_the_offending_temperature(self, n_sites):
        with pytest.raises(ValueError, match="got nan"):
            model_chi(S_ONE, 10.0, 2.0, np.array([1.0, math.nan, 3.0]), n_sites=n_sites)
        # chi is finite but its conversion to emu/mol overflows
        with pytest.raises(ValueError, match="T = 1e-320 K"):
            model_chi(S_ONE, 10.0, 2.0, np.array([1.0, 1e-320]), n_sites=n_sites)

    def test_validation(self):
        with pytest.raises(ValueError):
            model_chi(S_HALF, 1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            model_chi(S_HALF, -1.0, 2.0, 1.0)

    @pytest.mark.parametrize(
        "temps,coupling,message",
        [
            ([1.0, 1e300], 1e-10, "T/J at T = 1e+300 K, J = 1e-10 K is inf"),
            ([1e-320, 1.0], 1e10, "T/J at T = 1e-320 K, J = 10000000000.0 K is 0.0"),
        ],
    )
    def test_reduced_temperature_out_of_range_names_t_and_j(self, temps, coupling, message):
        with pytest.raises(ValueError) as err:
            model_chi(S_ONE, coupling, 2.0, np.array(temps), n_sites=4)
        assert str(err.value) == message + "; it must be finite and > 0"

    @pytest.mark.parametrize("n_sites,checked", [
        (4, [("fitdata", "temperature"), ("fitdata", "coupling"),
             ("chain", "temperature"), ("units", "g_factor")]),
        (None, [("pair", "coupling"), ("pair", "temperature"), ("units", "g_factor")]),
    ])
    def test_each_input_is_checked_once(self, monkeypatch, n_sites, checked):
        # temperatures and J in model_chi (chain model) or in the pair
        # correlator (pair model), T/J in the Boltzmann factors (chain
        # model only), g in the conversion to emu/mol
        from mixedspin import chain, pair, units

        seen = []
        for module in (fitdata, chain, pair, units):
            real = module.check_positive

            def recording(name, value, module=module, real=real):
                seen.append((module.__name__.rsplit(".", 1)[-1], name))
                return real(name, value)

            monkeypatch.setattr(module, "check_positive", recording)
        real_coupling = pair._check_coupling

        def coupling(value):
            seen.append(("pair", "coupling"))
            return real_coupling(value)

        monkeypatch.setattr(pair, "_check_coupling", coupling)
        model_chi(S_ONE, 5.0, 2.0, np.geomspace(1.0, 100.0, 20), n_sites=n_sites)
        assert seen == checked
        for bad in ((-5.0, 2.0), (5.0, -2.0), (5.0, math.nan)):
            with pytest.raises(ValueError, match="must be finite and > 0"):
                model_chi(S_ONE, *bad, 10.0, n_sites=n_sites)


class TestNelderMead:
    def test_quadratic_bowl(self):
        objective = lambda x: (x[0] - 3.0) ** 2 + 10.0 * (x[1] + 1.0) ** 2
        x, f, iters, converged, history = nelder_mead(objective, [0.0, 0.0])
        assert converged
        np.testing.assert_allclose(x, [3.0, -1.0], atol=1e-7)
        assert f < 1e-14

    def test_best_history_is_non_increasing(self):
        objective = lambda x: (x[0] - 1.0) ** 2 + (x[0] * x[1] - 2.0) ** 2
        _, _, _, _, history = nelder_mead(objective, [4.0, 4.0])
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_deterministic(self):
        objective = lambda x: math.sin(x[0]) ** 2 + (x[1] - 0.5) ** 4
        r1 = nelder_mead(objective, [1.0, 1.0])
        r2 = nelder_mead(objective, [1.0, 1.0])
        assert np.array_equal(r1[0], r2[0])
        assert r1[1:4] == r2[1:4]

    def test_nan_objective_raises(self):
        # a NaN best value is not <= the one before it, so it cannot pass
        # for a converged minimum
        with pytest.raises(RuntimeError, match="simplex best worsened from nan to nan"):
            nelder_mead(lambda x: math.nan, [1.0, 1.0])

    def test_iteration_cap_reports_non_convergence(self, monkeypatch):
        monkeypatch.setattr(fitdata, "_MAX_ITERATIONS", 3)
        objective = lambda x: float(np.sum(x**2))
        _, _, iters, converged, _ = nelder_mead(objective, [1.0, 1.0])
        assert iters == 3
        assert not converged


class TestFit:
    def test_round_trip_spin_half(self):
        j = wavenumber_to_kelvin(10.2)
        series = synth_series(S_HALF, j, 2.06, np.linspace(2.0, 300.0, 60))
        result = fit(series, S_HALF, init_coupling_kelvin=20.0, init_g_factor=2.0)
        assert result.converged
        assert result.coupling_kelvin == pytest.approx(j, rel=1e-3)
        assert result.g_factor == pytest.approx(2.06, rel=1e-3)
        # noiseless round trip is far tighter than the 0.1% requirement
        assert abs(result.coupling_kelvin - j) / j < 1e-6
        assert abs(result.g_factor - 2.06) / 2.06 < 1e-6

    def test_round_trip_spin_one_with_window(self):
        j = wavenumber_to_kelvin(81.4)
        series = synth_series(S_ONE, j, 2.15, np.linspace(5.0, 300.0, 60))
        result = fit(
            series,
            S_ONE,
            init_coupling_kelvin=80.0,
            init_g_factor=2.0,
            window=(25.0, 250.0),
        )
        assert result.converged
        assert abs(result.coupling_kelvin - j) / j < 1e-3
        assert abs(result.g_factor - 2.15) / 2.15 < 1e-3
        assert result.fit_window[0] >= 25.0
        assert result.fit_window[1] <= 250.0

    def test_window_excludes_corrupted_points(self):
        j = 12.0
        temps = np.linspace(2.0, 100.0, 30)
        series = synth_series(S_HALF, j, 2.0, temps)
        chi = series.chi.copy()
        chi[temps < 10.0] *= 5.0  # corrupt the low-T points
        corrupted = MeasurementSeries(series.temperatures_kelvin, chi, "emu/mol", {})
        result = fit(
            corrupted, S_HALF, init_coupling_kelvin=10.0, init_g_factor=2.0,
            window=(10.0, 100.0),
        )
        assert result.coupling_kelvin == pytest.approx(j, rel=1e-6)
        assert result.g_factor == pytest.approx(2.0, rel=1e-6)

    def test_chi_scale_moves_g_not_j(self):
        j = 8.0
        series = synth_series(S_HALF, j, 2.0, np.linspace(2.0, 80.0, 40))
        scaled = MeasurementSeries(
            series.temperatures_kelvin, series.chi * 1.1, "emu/mol", {}
        )
        result = fit(scaled, S_HALF, init_coupling_kelvin=10.0, init_g_factor=2.0)
        assert result.coupling_kelvin == pytest.approx(j, rel=5e-3)
        assert result.g_factor == pytest.approx(2.0 * math.sqrt(1.1), rel=5e-3)

    def test_chain_model_round_trip(self):
        series = synth_series(S_HALF, 10.0, 2.0, np.linspace(2.0, 60.0, 12), n_sites=4)
        result = fit(series, S_HALF, 8.0, 2.1, n_sites=4)
        assert result.converged
        assert result.coupling_kelvin == pytest.approx(10.0, rel=1e-6)
        assert result.g_factor == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize("n_sites", [None, 4])
    def test_objective_is_the_profile_residual(self, monkeypatch, n_sites):
        # the simplex sees p(J) = |g^2 m - chi| at the least-squares g^2 of
        # each J, bitwise `_profile`'s; the reference solves g^2 and sums
        # the squares point by point in Python floats
        series = load_measurements(CHAIN_SERIES)
        temps, chi = series.temperatures_kelvin, series.chi
        captured = []

        class Captured(Exception):
            pass

        def capture(objective, x0):
            captured.append((objective, list(x0)))
            raise Captured

        monkeypatch.setattr(fitdata, "nelder_mead", capture)
        with pytest.raises(Captured):
            fit(series, S_ONE, 8.0, 2.0, n_sites=n_sites)
        ((objective, x0),) = captured
        assert x0 == [math.log(8.0)]
        model = functools.partial(model_chi, S_ONE, n_sites=n_sites)
        for log_j in np.linspace(1.5, 2.7, 12).tolist():
            got = objective(np.array([log_j]))
            j = math.exp(log_j)
            assert got.hex() == fitdata._profile(model, temps, chi, j)[0].hex()
            unit = [model_chi(S_ONE, j, 1.0, t, n_sites=n_sites) for t in temps.tolist()]
            measured = chi.tolist()
            g_squared = sum(x * m for x, m in zip(measured, unit)) / sum(m * m for m in unit)
            expected = math.sqrt(sum((g_squared * m - x) ** 2 for m, x in zip(unit, measured)))
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "noisy_pair,start,model,window",
        [
            (False, (5.0, 2.0), dict(n_sites=4), (0.0, math.inf)),
            (False, (12.0, 1.9), dict(n_sites=4, boundary="open"), (3.0, 60.0)),
            (True, (7.0, 2.0), {}, (0.0, math.inf)),
        ],
        ids=["ring4", "open4-window", "noisy-pair"],
    )
    def test_fit_is_the_least_squares_minimum_over_j_and_g(
        self, noisy_pair, start, model, window
    ):
        # the 1-D search over log J with g solved lands where a 2-D simplex
        # over (log J, g) of the plain sum of squares does
        if noisy_pair:
            temps = np.geomspace(1.0, 100.0, 30)
            noise = 1.0 + 0.01 * np.random.default_rng(7).standard_normal(temps.size)
            chi = synth_series(S_ONE, 10.0, 2.0, temps).chi * noise
            series = MeasurementSeries(temps, chi, "emu/mol", {})
        else:
            series = load_measurements(CHAIN_SERIES)
        result = fit(series, S_ONE, *start, window=window, **model)
        temps, chi = series.temperatures_kelvin, series.chi
        inside = (temps >= window[0]) & (temps <= window[1])
        temps, chi = temps[inside], chi[inside]

        def squares(params):
            values = model_chi(S_ONE, math.exp(params[0]), params[1], temps, **model)
            return float(np.sum((values - chi) ** 2))

        x, f, _, converged, _ = nelder_mead(squares, [math.log(start[0]), start[1]])
        assert converged
        assert result.coupling_kelvin == pytest.approx(math.exp(x[0]), rel=1e-6)
        assert result.g_factor == pytest.approx(x[1], rel=1e-6)
        assert result.residual_rms == pytest.approx(math.sqrt(f / temps.size), rel=1e-6)

    @pytest.mark.parametrize(
        "spin,j,g,start,n_sites,boundary",
        [
            (S_ONE, 10.0, 2.0, 7.0, None, "periodic"),
            (S_ONE, 6.0, 2.1, 4.0, 6, "open"),
            (SpinQuantum(3), 12.0, 2.05, 8.0, 4, "periodic"),
            (S_ONE, 5.0, 2.1, 3.0, 8, "periodic"),
        ],
        ids=["pair", "open6", "ring4", "ring8"],
    )
    def test_full_precision_round_trip_pins_the_ninth_digit(
        self, spin, j, g, start, n_sites, boundary
    ):
        # without a CSV round trip (which keeps 9 digits of chi) J and g
        # come back to a few 1e-10; the 1-D search stops where its simplex
        # is 1e-9 wide in log J
        kw = dict(n_sites=n_sites, boundary=boundary)
        series = synth_series(spin, j, g, np.geomspace(1.0, 100.0, 12), **kw)
        result = fit(series, spin, start, 2.0, **kw)
        assert result.converged
        assert abs(result.coupling_kelvin - j) <= 2e-9 * j
        assert abs(result.g_factor - g) <= 2e-9 * g

    @pytest.mark.parametrize("n_sites", [8, None])
    def test_a_bench_sized_fit_makes_at_most_100_model_calls(self, monkeypatch, n_sites):
        # the 2-D simplex over (log J, g) made 153 (ring-8) and 180 (pair)
        # calls on this kind of series, its checks included; the 1-D search
        # over log J, with g solved at each J, makes fewer than 100
        j, g = 4.5, 2.1
        temps = j * np.geomspace(0.3, 20.0, 60)
        chi = synth_series(S_ONE, j, g, temps, n_sites=8).chi
        chi = chi * (1.0 + 1e-3 * np.random.default_rng(1).standard_normal(temps.size))
        series = MeasurementSeries(temps, chi, "emu/mol", {})
        calls, starts = [], []

        def counted(*args, **kwargs):
            calls.append(args)
            return model_chi(*args, **kwargs)

        def spied(objective, x0):
            starts.append(list(x0))
            return nelder_mead(objective, x0)

        monkeypatch.setattr(fitdata, "model_chi", counted)
        monkeypatch.setattr(fitdata, "nelder_mead", spied)
        result = fit(series, S_ONE, 1.25 * j, 2.0, n_sites=n_sites)
        assert result.converged
        assert starts == [[math.log(1.25 * j)]]
        assert len(calls) <= 100

    def test_too_few_points_rejected(self):
        series = load_measurements(io.StringIO(VALID_CSV))
        with pytest.raises(ValueError, match="4 points"):
            fit(series, S_HALF, 10.0, 2.0)

    def test_window_that_excludes_everything_rejected(self):
        series = synth_series(S_HALF, 10.0, 2.0, np.linspace(2.0, 80.0, 20))
        with pytest.raises(ValueError, match="4 points"):
            fit(series, S_HALF, 10.0, 2.0, window=(500.0, 600.0))
        with pytest.raises(ValueError, match="min above max"):
            fit(series, S_HALF, 10.0, 2.0, window=(600.0, 500.0))

    def test_reduced_series_rejected_as_unidentifiable(self):
        temps = np.linspace(2.0, 80.0, 20)
        chi_red = np.array(
            [
                chi_emu_per_mol_to_reduced(
                    model_chi(S_HALF, 10.0, 2.0, float(t)), float(t), 2.0
                )
                for t in temps
            ]
        )
        series = MeasurementSeries(temps, chi_red, "reduced", {})
        with pytest.raises(ValueError, match="unidentifiable"):
            fit(series, S_HALF, 10.0, 2.0)

    def test_nonpositive_initial_coupling_rejected(self):
        series = synth_series(S_HALF, 10.0, 2.0, np.linspace(2.0, 80.0, 20))
        with pytest.raises(ValueError, match="initial coupling"):
            fit(series, S_HALF, -1.0, 2.0)

    @pytest.mark.parametrize(
        "chain,message",
        [
            ({"n_sites": 3}, "n_sites must be even"),
            ({"n_sites": 4, "boundary": "ring"}, "boundary must be"),
        ],
    )
    def test_bad_chain_keeps_its_own_message(self, chain, message):
        # the spec is checked before the simplex, whose errors name the start
        series = synth_series(S_HALF, 10.0, 2.0, np.linspace(2.0, 80.0, 20))
        with pytest.raises(ValueError, match=message):
            fit(series, S_HALF, 10.0, 2.0, **chain)

    @pytest.mark.parametrize("n_sites", [None, 4])
    @pytest.mark.parametrize(
        "start", [(1e300, 2.0), (1e-300, 2.0), (10.0, 1e100), (10.0, 1e-320)]
    )
    def test_leaving_the_float_range_names_the_start(self, n_sites, start):
        series = synth_series(S_HALF, 10.0, 2.0, np.linspace(2.0, 80.0, 20))
        j, g = start
        with pytest.raises(ValueError, match=re.escape(f"fit from J = {j} K, g = {g} ")):
            fit(series, S_HALF, j, g, n_sites=n_sites)

    # beyond 2J the model raises (None), has no positive g^2 (0), or its g^2
    # normal equation overflows (1e300)
    @pytest.mark.parametrize("beyond", [None, 0.0, 1e300])
    def test_a_neighbour_out_of_the_float_range_is_no_evidence(self, beyond):
        # at J = 1, only J/2 = 0.5 is in range: it fits chi = 1/T with
        # residual norm 0.12658, so it alone decides
        temps = np.array([1.0, 2.0, 3.0, 4.0])

        def model(coupling, g_factor, at):
            if coupling < 1.5:
                return g_factor**2 / (at + coupling)
            if beyond is None:
                raise OverflowError("the model overflows")
            return np.full_like(at, beyond)

        check = functools.partial(fitdata._determined, model, temps, 1.0 / temps, 1.0)
        determined, up, down, threshold = check(0.12)
        assert (determined, up) == (False, math.inf)
        assert down == pytest.approx(0.1265766, rel=1e-6)
        assert threshold == pytest.approx(0.12 * math.sqrt(1.25), rel=1e-15)
        assert check(0.1)[0]

    def test_a_plateau_that_fits_better_is_not_named(self, monkeypatch):
        # chi = 1 against g^2 (1 + h(J) s) with s = +-1 alternating, so p(J)
        # rises with h. h falls from J = 1 onto a flat 0.01 from 10^1.5 K on:
        # the plateau's grid points fit better than J = 1 and are no larger
        # than their neighbours, but no J on a plateau is determined, so
        # none of them is named as another minimum
        temps = np.arange(1.0, 9.0)
        sign = np.resize([1.0, -1.0], temps.size)

        def model(coupling, g_factor, at):
            h = 0.01 + 0.0066 * max(0.0, 1.5 - math.log10(coupling)) ** 2
            return g_factor**2 * (1.0 + h * sign)

        decided = []

        def spy(*args):
            decision = determined(*args)
            decided.append((args[3], decision[0]))
            return decision

        determined = fitdata._determined
        monkeypatch.setattr(fitdata, "_determined", spy)
        chi = np.ones(temps.size)
        residual = fitdata._profile(model, temps, chi, 1.0)[0]
        fitdata._check_determined(model, temps, chi, 1.0, residual, "reached")
        assert decided[0] == (1.0, True)
        plateau = decided[1:]
        assert len(plateau) == 5
        assert all(j > 10**1.5 and not ok for j, ok in plateau)


class TestBoundSeries:
    def test_sign_tracks_characteristic_temperature(self):
        spin = S_HALF
        j, g = 5.12, 2.0
        tc = characteristic_temperature(spin, j)
        temps = np.linspace(0.5, 3.0 * tc, 40)
        series = synth_series(spin, j, g, temps)
        points = bound_series(series, spin, g)
        for p in points:
            if p.temperature_kelvin < 0.98 * tc:
                assert p.entangled
                assert p.negativity_lower_bound > 0.0
            elif p.temperature_kelvin > 1.02 * tc:
                assert not p.entangled
                assert p.negativity_lower_bound <= 0.0

    def test_threshold_series_gives_zero_bounds(self):
        from mixedspin.witness import separability_threshold

        spin = S_ONE
        temps = np.array([1.0, 2.0, 5.0])
        thr = separability_threshold(2, spin)
        series = MeasurementSeries(temps, np.full(3, thr), "reduced", {})
        for p in bound_series(series, spin, 2.0):
            assert p.witness_value == 0.0
            assert p.negativity_lower_bound == 0.0
            assert not p.entangled

    def test_reduced_and_molar_inputs_agree(self):
        spin = S_HALF
        j, g = 5.0, 2.1
        temps = np.linspace(1.0, 12.0, 10)
        molar = synth_series(spin, j, g, temps)
        chi_red = np.array(
            [
                chi_emu_per_mol_to_reduced(float(x), float(t), g)
                for t, x in zip(molar.temperatures_kelvin, molar.chi)
            ]
        )
        reduced = MeasurementSeries(temps, chi_red, "reduced", {})
        for a, b in zip(bound_series(molar, spin, g), bound_series(reduced, spin, g)):
            assert a.negativity_lower_bound == pytest.approx(b.negativity_lower_bound, rel=1e-10)

    @pytest.mark.parametrize("unit,chi", [("reduced", -0.5), ("emu/mol", -0.01)])
    def test_negative_susceptibility_is_rejected(self, unit, chi):
        # chi k_B T / (g mu_B)^2 = <Sz_total^2> >= 0: a negative value is a
        # bad measurement, and its "bound" would exceed the largest negativity
        series = MeasurementSeries(np.array([1.0, 2.0]), np.array([chi, 0.1]), unit, {})
        with pytest.raises(ValueError, match="must be >= 0"):
            bound_series(series, S_ONE, 2.0)

    @pytest.mark.parametrize("unit", ["reduced", "emu/mol"])
    @pytest.mark.parametrize("correction", [None, 117.0])
    def test_points_keep_the_per_point_formulas_bitwise(self, unit, correction):
        spin, g = S_ONE, 2.15
        series = synth_series(spin, 117.0, g, np.geomspace(5.0, 400.0, 25))
        if unit == "reduced":
            chi = [
                chi_emu_per_mol_to_reduced(x, t, g)
                for t, x in zip(series.temperatures_kelvin.tolist(), series.chi.tolist())
            ]
            series = MeasurementSeries(series.temperatures_kelvin, np.array(chi), unit, {})
        points = bound_series(series, spin, g, correction_coupling_kelvin=correction)
        for p, t, x in zip(points, series.temperatures_kelvin.tolist(), series.chi.tolist()):
            if unit == "emu/mol":
                x = chi_emu_per_mol_to_reduced(x, t, g)
            w = witness_value(x, 2, spin)
            bound = negativity_lower_bound(w, 2, spin)
            if correction is not None:
                g1 = pair_correlator(spin, correction, t)
                bound = corrected_bound(bound, correction, t, g1)
            got = (p.temperature_kelvin, p.witness_value, p.negativity_lower_bound)
            assert got == (t, w, bound)
            assert p.entangled == (w < 0.0)

    def test_correction_shifts_by_polynomial_term(self):
        spin = S_ONE
        j, g = 30.0, 2.15
        temps = np.linspace(10.0, 60.0, 6)
        series = synth_series(spin, j, g, temps)
        plain = bound_series(series, spin, g)
        corrected = bound_series(series, spin, g, correction_coupling_kelvin=j)
        for a, b, t in zip(plain, corrected, temps):
            g1 = pair_correlator(spin, j, float(t))
            expected = a.negativity_lower_bound + correction_polynomial(j / float(t)) * g1
            assert b.negativity_lower_bound == pytest.approx(expected, rel=1e-12)


class TestUnitCoherence:
    def test_load_convert_round_trip(self):
        series = load_measurements(io.StringIO(VALID_CSV))
        g = 2.06
        for t, x in zip(series.temperatures_kelvin, series.chi):
            red = chi_emu_per_mol_to_reduced(float(x), float(t), g)
            back = chi_reduced_to_emu_per_mol(red, float(t), g)
            assert back == pytest.approx(float(x), rel=1e-12)
