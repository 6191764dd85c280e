"""CSV ingestion, model susceptibility, simplex fitting."""

import functools
import io
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import mixedspin
from mixedspin import fitdata
from mixedspin.fitdata import (
    MeasurementSeries,
    fit,
    load_measurements,
    model_chi,
    nelder_mead,
    synth_series,
)
from mixedspin.operators import SpinQuantum
from mixedspin.pair import pair_correlator
from mixedspin.units import (
    CURIE_FACTOR_EMU_K_PER_MOL,
    chi_emu_per_mol_to_reduced,
    chi_reduced_to_emu_per_mol,
    wavenumber_to_kelvin,
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
    def test_parses_rows_and_skips_comments(self):
        series = load_measurements(io.StringIO(VALID_CSV))
        assert len(series) == 3
        np.testing.assert_array_equal(series.temperatures_kelvin, [2.0, 4.0, 8.0])
        np.testing.assert_array_equal(series.chi, [0.011, 0.021, 0.015])

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
            np.testing.assert_array_equal(series.chi, [0.011, 0.021, 0.015])

    def test_a_reduced_header_is_refused_as_unfittable(self):
        # reduced chi has g divided out, so a fit of g could not use it
        text = "# reduced\ntemperature_kelvin,chi_reduced\n1.0,0.2\n2.0,0.3\n"
        message = (
            "line 2: expected header 'temperature_kelvin,chi_emu_per_mol', got "
            "'temperature_kelvin,chi_reduced'; fit needs molar chi, as reduced chi "
            "has the g-factor divided out"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_measurements(io.StringIO(text))

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
            MeasurementSeries(temps, np.ones(3))

    @pytest.mark.parametrize("text", ["5e-324", "1e-320", "2.2e-308"])
    def test_rejects_a_subnormal_temperature(self, text):
        # with witness's and bound's message; fit once went on and blamed
        # J and g when the model left the float range
        temps = np.array([float(text), 1.0, 2.0])
        message = f"temperature must not be subnormal (|value| < 2.225e-308), got {text}"
        with pytest.raises(ValueError, match=re.escape(message)):
            MeasurementSeries(temps, np.ones(3))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_measurements(io.StringIO(f"temperature_kelvin,chi_emu_per_mol\n{text},0.5\n"))

    def test_the_smallest_normal_temperature_and_an_empty_series_are_accepted(self):
        assert len(MeasurementSeries(np.array([sys.float_info.min, 1.0]), np.ones(2))) == 2
        assert len(MeasurementSeries(np.array([]), np.array([]))) == 0

    def test_rejects_arrays_of_different_length(self):
        with pytest.raises(ValueError, match="differ in length"):
            MeasurementSeries(np.array([1.0, 2.0]), np.ones(3))

    @pytest.mark.parametrize("temps", [[1.0, 3.0, 2.0], [1.0, 2.0, 2.0]])
    def test_rejects_temperatures_that_do_not_increase(self, temps):
        message = f"strictly increasing, got {temps[1]} then {temps[2]}"
        with pytest.raises(ValueError, match=message):
            MeasurementSeries(np.array(temps), np.ones(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_susceptibility(self, bad):
        with pytest.raises(ValueError, match="susceptibility must be finite"):
            MeasurementSeries(np.array([1.0, 2.0]), np.array([0.1, bad]))


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

    @pytest.mark.parametrize("n_sites,checked,guarded", [
        (4, [("fitdata", "temperature"), ("fitdata", "coupling")], []),
        (None, [("fitdata", "coupling"), ("fitdata", "temperature")],
         [("fitdata", "coupling")]),
    ])
    def test_public_checks_run_first_and_the_model_guards_only_j(
        self, monkeypatch, n_sites, checked, guarded
    ):
        # model_chi checks J and the temperatures in the order that the
        # chain model (T first) or the pair correlator (J first) checked
        # them, then runs the model that `fit` evaluates: that one guards J
        # alone (pair model; in the chain model its T/J guard covers J),
        # and g is checked once, in the conversion to emu/mol (`_squared`)
        from mixedspin import chain, pair, units

        seen = []
        for module in (fitdata, chain, pair, units):
            real = module.check_positive

            def recording(name, value, module=module, real=real):
                seen.append((module.__name__.rsplit(".", 1)[-1], name))
                return real(name, value)

            monkeypatch.setattr(module, "check_positive", recording)
        real_coupling, real_squared = fitdata._check_coupling, units._squared

        def coupling(value):
            seen.append(("fitdata", "coupling"))
            return real_coupling(value)

        def squared(value):
            seen.append(("units", "g_factor"))
            return real_squared(value)

        monkeypatch.setattr(fitdata, "_check_coupling", coupling)
        monkeypatch.setattr(units, "_squared", squared)
        temps = np.geomspace(1.0, 100.0, 20)
        model_chi(S_ONE, 5.0, 2.0, temps, n_sites=n_sites)
        assert seen == checked + guarded + [("units", "g_factor")]
        model = fitdata._bind_model(S_ONE, n_sites)
        del seen[:]
        model(5.0, 1.0, temps)
        assert seen == guarded + [("units", "g_factor")]
        for bad in ((-5.0, 2.0), (5.0, -2.0), (5.0, math.nan)):
            with pytest.raises(ValueError, match="must be finite and > 0"):
                model_chi(S_ONE, *bad, 10.0, n_sites=n_sites)


def _bench_shaped_series(j=4.5):
    """A 60-point n=8, S=1 ring series with 0.1% noise, shaped like `fit_chain`'s."""
    temps = j * np.geomspace(0.3, 20.0, 60)
    chi = synth_series(S_ONE, j, 2.1, temps, n_sites=8).chi
    return temps, chi * (1.0 + 1e-3 * np.random.default_rng(1).standard_normal(temps.size))


# Recorded from the n-dimensional simplex that the one-dimensional search
# replaced, on a 1-element start: every point the objective was called
# with, in order, then (x, f, iterations, converged), as hex floats.
# "profile" is `fit`'s search on `_bench_shaped_series()` with the ring-8
# model from J = 1.25 * 4.5 K; PROFILE_VALUES are its objective values,
# replayed so that the recording does not hang on the last bits of
# numpy's exp and dot products.
SEARCH_RECORDINGS = {
    "quadratic": (
        """
        0x1.0000000000000p-1 0x1.0cccccccccccdp-1 0x1.199999999999ap-1 0x1.2666666666667p-1
        0x1.4000000000001p-1 0x1.599999999999bp-1 0x1.8cccccccccccfp-1 0x1.c000000000003p-1
        0x1.1333333333336p+0 0x1.466666666666ap+0 0x1.accccccccccd2p+0 0x1.099999999999ep+1
        0x1.7000000000007p+1 0x1.d666666666670p+1 0x1.d666666666670p+1 0x1.a33333333333cp+1
        0x1.3ccccccccccd2p+1 0x1.89999999999a2p+1 0x1.a33333333333dp+1 0x1.7ccccccccccd4p+1
        0x1.7000000000006p+1 0x1.833333333333bp+1 0x1.766666666666dp+1 0x1.8000000000008p+1
        0x1.833333333333cp+1 0x1.7e6666666666ep+1 0x1.81999999999a2p+1 0x1.7f3333333333bp+1
        0x1.80cccccccccd5p+1 0x1.7f999999999a2p+1 0x1.806666666666ep+1 0x1.7fcccccccccd5p+1
        0x1.803333333333bp+1 0x1.7fe666666666ep+1 0x1.80199999999a2p+1 0x1.7ff333333333bp+1
        0x1.800ccccccccd5p+1 0x1.7ff99999999a2p+1 0x1.800666666666ep+1 0x1.7ffccccccccd5p+1
        0x1.800333333333bp+1 0x1.7ffe66666666ep+1 0x1.80019999999a2p+1 0x1.7fff33333333bp+1
        0x1.8000cccccccd5p+1 0x1.7fff9999999a2p+1 0x1.800066666666ep+1 0x1.7fffcccccccd5p+1
        0x1.800033333333bp+1 0x1.7fffe6666666ep+1 0x1.80001999999a2p+1 0x1.7ffff3333333bp+1
        0x1.80000ccccccd5p+1 0x1.7ffff999999a2p+1 0x1.800006666666ep+1 0x1.7ffffccccccd5p+1
        0x1.800003333333bp+1 0x1.7ffffe666666ep+1 0x1.80000199999a2p+1 0x1.7fffff333333bp+1
        0x1.800000cccccd5p+1 0x1.7fffff99999a2p+1 0x1.800000666666ep+1 0x1.7fffffcccccd5p+1
        0x1.800000333333bp+1 0x1.7fffffe66666ep+1 0x1.80000019999a2p+1 0x1.7ffffff33333bp+1
        0x1.8000000ccccd5p+1 0x1.7ffffff9999a2p+1
        """,
        ("0x1.8000000000008p+1", "0x1.0000000000000p-96", 35, True),
    ),
    "staircase": (
        """
        0x1.8000000000000p+2 0x1.9333333333334p+2 0x1.6ccccccccccccp+2 0x1.5999999999998p+2
        0x1.3333333333330p+2 0x1.4666666666664p+2 0x1.6ccccccccccccp+2 0x1.4666666666664p+2
        0x1.6333333333332p+2 0x1.4fffffffffffep+2 0x1.5e66666666665p+2 0x1.5e66666666665p+2
        0x1.54ccccccccccbp+2 0x1.5bffffffffffep+2 0x1.5bffffffffffep+2 0x1.5733333333332p+2
        0x1.5accccccccccbp+2 0x1.5accccccccccbp+2 0x1.5866666666665p+2 0x1.5a33333333332p+2
        0x1.5a33333333332p+2 0x1.58ffffffffffep+2 0x1.59e6666666665p+2 0x1.59e6666666665p+2
        0x1.594cccccccccbp+2 0x1.59bfffffffffep+2 0x1.59bfffffffffep+2 0x1.5973333333332p+2
        0x1.59acccccccccbp+2 0x1.59acccccccccbp+2 0x1.5986666666665p+2 0x1.59a3333333332p+2
        0x1.59a3333333332p+2 0x1.598fffffffffep+2 0x1.599e666666665p+2 0x1.599e666666665p+2
        0x1.5994ccccccccbp+2 0x1.599bffffffffep+2 0x1.599bffffffffep+2 0x1.5997333333332p+2
        0x1.599accccccccbp+2 0x1.599accccccccbp+2 0x1.5998666666665p+2 0x1.599a333333332p+2
        0x1.599a333333332p+2 0x1.5998ffffffffep+2 0x1.5999e66666665p+2 0x1.5999e66666665p+2
        0x1.59994cccccccbp+2 0x1.5999bfffffffep+2 0x1.5999bfffffffep+2 0x1.5999733333332p+2
        0x1.5999acccccccbp+2 0x1.5999acccccccbp+2 0x1.5999866666665p+2 0x1.5999a33333332p+2
        0x1.5999a33333332p+2 0x1.59998fffffffep+2 0x1.59999e6666665p+2 0x1.59999e6666665p+2
        0x1.599994ccccccbp+2 0x1.59999bffffffep+2 0x1.59999bffffffep+2 0x1.5999973333332p+2
        0x1.59999accccccbp+2 0x1.59999accccccbp+2 0x1.5999986666665p+2 0x1.59999a3333332p+2
        0x1.59999a3333332p+2 0x1.599998ffffffep+2 0x1.599999e666665p+2 0x1.599999e666665p+2
        0x1.5999994cccccbp+2 0x1.599999bfffffep+2 0x1.599999bfffffep+2 0x1.5999997333332p+2
        0x1.599999acccccbp+2 0x1.599999acccccbp+2 0x1.5999998666665p+2 0x1.599999a333332p+2
        0x1.599999a333332p+2 0x1.5999998fffffep+2 0x1.5999999e66665p+2 0x1.5999999e66665p+2
        """,
        ("0x1.5999999999998p+2", "0x1.8000000000000p-1", 29, True),
    ),
    "plateau": (
        """
        0x1.0000000000000p-1 0x1.0cccccccccccdp-1 0x1.199999999999ap-1 0x1.2666666666667p-1
        0x1.4000000000001p-1 0x1.599999999999bp-1 0x1.8cccccccccccfp-1 0x1.c000000000003p-1
        0x1.1333333333336p+0 0x1.466666666666ap+0 0x1.466666666666ap+0 0x1.2ccccccccccd0p+0
        0x1.f333333333338p-1 0x1.2000000000003p+0 0x1.2000000000003p+0 0x1.0666666666669p+0
        0x1.199999999999cp+0 0x1.199999999999cp+0 0x1.0ccccccccccd0p+0 0x1.1666666666669p+0
        0x1.1666666666669p+0 0x1.1000000000003p+0 0x1.14cccccccccd0p+0 0x1.14cccccccccd0p+0
        0x1.119999999999cp+0 0x1.1400000000003p+0 0x1.1400000000003p+0 0x1.1266666666669p+0
        0x1.139999999999cp+0 0x1.139999999999cp+0 0x1.12cccccccccd0p+0 0x1.1366666666669p+0
        0x1.1366666666669p+0
        """,
        ("0x1.1333333333336p+0", "0x0.0p+0", 12, False),
    ),
    "from_zero": (
        """
        0x0.0p+0 0x1.0624dd2f1a9fcp-12 -0x1.0624dd2f1a9fcp-12 -0x1.0624dd2f1a9fcp-11
        -0x1.0624dd2f1a9fcp-10 -0x1.89374bc6a7efap-10 -0x1.47ae147ae147bp-9 -0x1.cac083126e979p-9
        -0x1.6872b020c49bap-8 -0x1.eb851eb851eb8p-8 -0x1.78d4fdf3b645ap-7 -0x1.fbe76c8b43958p-7
        -0x1.810624dd2f1aap-6 -0x1.020c49ba5e354p-5 -0x1.851eb851eb852p-5 -0x1.04189374bc6a8p-4
        -0x1.872b020c49ba6p-4 -0x1.051eb851eb852p-3 -0x1.883126e978d50p-3 -0x1.05a1cac083127p-2
        -0x1.88b4395810625p-2 -0x1.05e353f7ced92p-1 -0x1.88f5c28f5c290p-1 -0x1.0604189374bc8p+0
        -0x1.0604189374bc7p+0 -0x1.476c8b4395811p-1 -0x1.05e353f7ced92p-1 -0x1.683126e978d50p-1
        -0x1.88f5c28f5c28fp-1 -0x1.57ced916872b0p-1 -0x1.789374bc6a7f0p-1 -0x1.6000000000000p-1
        -0x1.70624dd2f1aa0p-1 -0x1.64189374bc6a8p-1 -0x1.6c49ba5e353f8p-1 -0x1.6624dd2f1a9fcp-1
        -0x1.64189374bc6a8p-1 -0x1.672b020c49ba6p-1 -0x1.651eb851eb852p-1 -0x1.66a7ef9db22d1p-1
        -0x1.65a1cac083127p-1 -0x1.6666666666666p-1 -0x1.66a7ef9db22d0p-1 -0x1.6645a1cac0831p-1
        -0x1.66872b020c49bp-1 -0x1.665604189374cp-1 -0x1.6676c8b439580p-1 -0x1.665e353f7ced9p-1
        -0x1.666e978d4fdf3p-1 -0x1.66624dd2f1aa0p-1 -0x1.666a7ef9db22cp-1 -0x1.66645a1cac083p-1
        -0x1.666872b020c49p-1 -0x1.6665604189374p-1 -0x1.66676c8b43958p-1 -0x1.6665e353f7cedp-1
        -0x1.6666e978d4fdfp-1 -0x1.666624dd2f1aap-1 -0x1.6666a7ef9db22p-1 -0x1.666645a1cac08p-1
        -0x1.6666872b020c4p-1 -0x1.6666560418937p-1 -0x1.666676c8b4395p-1 -0x1.66665e353f7cep-1
        -0x1.66666e978d4fep-1 -0x1.6666624dd2f1ap-1 -0x1.66666a7ef9db2p-1 -0x1.6666645a1cac0p-1
        -0x1.66666872b020cp-1 -0x1.6666656041893p-1 -0x1.6666676c8b439p-1 -0x1.666665e353f7cp-1
        -0x1.666666e978d50p-1 -0x1.66666624dd2f1p-1 -0x1.666666a7ef9dbp-1 -0x1.66666645a1cacp-1
        -0x1.666666872b020p-1 -0x1.6666665604189p-1 -0x1.6666665604189p-1 -0x1.66666676c8b43p-1
        -0x1.6666665e353f8p-1 -0x1.6666665e353f8p-1
        """,
        ("-0x1.6666666666666p-1", "0x1.0000000000000p-1", 40, True),
    ),
    "profile": (
        """
        0x1.ba2b26ed03c62p+0 0x1.d046e8df43f67p+0 0x1.a40f64fac395dp+0 0x1.8df3a30883658p+0
        0x1.61bc1f240304ep+0 0x1.77d7e11643353p+0 0x1.61bc1f240304ep+0 0x1.82e5c20f634d6p+0
        0x1.8df3a30883659p+0 0x1.7d5ed192d3414p+0 0x1.886cb28bf3598p+0 0x1.802249d11b475p+0
        0x1.7d5ed192d3414p+0 0x1.818405f03f4a6p+0 0x1.82e5c20f634d7p+0 0x1.80d327e0ad48ep+0
        0x1.8234e3ffd14bep+0 0x1.812b96e87649ap+0 0x1.80d327e0ad48ep+0 0x1.8157ce6c5aca0p+0
        0x1.80ff5f6491c94p+0 0x1.8141b2aa6889dp+0 0x1.8157ce6c5aca0p+0 0x1.8136a4c96f69cp+0
        0x1.812b96e87649bp+0 0x1.813c2bb9ebf9cp+0 0x1.81311dd8f2d9cp+0 0x1.81396841adb1cp+0
        0x1.813c2bb9ebf9cp+0 0x1.813806858e8dcp+0 0x1.8136a4c96f69cp+0 0x1.8138b7639e1fcp+0
        0x1.813755a77efbcp+0 0x1.81385ef49656cp+0 0x1.8137ae1686c4cp+0 0x1.813832bd12724p+0
        0x1.8137da4e0aa94p+0 0x1.81381ca150800p+0 0x1.8137f069cc9b8p+0 0x1.813811936f86ep+0
        0x1.81381ca150800p+0 0x1.81380c0c7f0a5p+0 0x1.813806858e8dcp+0 0x1.81380ecff748ap+0
        0x1.813811936f86fp+0 0x1.81380d6e3b298p+0 0x1.81381031b367cp+0 0x1.81380e1f19391p+0
        0x1.81380d6e3b298p+0 0x1.81380e778840ep+0 0x1.81380ecff748bp+0 0x1.81380e4b50bd0p+0
        0x1.81380ea3bfc4cp+0 0x1.81380e616c7efp+0 0x1.81380e4b50bd0p+0 0x1.81380e6c7a5fep+0
        0x1.81380e565e9e0p+0 0x1.81380e66f36f6p+0
        """,
        ("0x1.81380e66f36f6p+0", "0x1.13ed140201891p-10", 29, True),
    ),
}
PROFILE_VALUES = """
    0x1.27e93d6b5862ep-4 0x1.897dbb09c8a7ep-4 0x1.77db9726e9809p-5 0x1.1b9c650e30b24p-6
    0x1.6a83c1edae3d3p-5 0x1.ab9d5712b6a84p-7 0x1.6a83c1edae3d3p-5 0x1.4c33a916a96ddp-9
    0x1.1b9c650e30b44p-6 0x1.630a94988d97cp-8 0x1.44485bc25dd75p-7 0x1.df2bc81c4a4fep-10
    0x1.630a94988d97cp-8 0x1.27f20bb999420p-10 0x1.4c33a916a975ep-9 0x1.366aff8315bd3p-10
    0x1.c24f2a8d58103p-10 0x1.147c0efd63a54p-10 0x1.366aff8315bd3p-10 0x1.1787130a92888p-10
    0x1.1f41636d39912p-10 0x1.14429ec622366p-10 0x1.1787130a92888p-10 0x1.13eeea56970c1p-10
    0x1.147c0efd63904p-10 0x1.13fcaa3bbeb77p-10 0x1.1419694c83804p-10 0x1.13eec242f6df1p-10
    0x1.13fcaa3bbeb77p-10 0x1.13ed143b14804p-10 0x1.13eeea56970c1p-10 0x1.13ed7abb45d5cp-10
    0x1.13ed8ec446187p-10 0x1.13ed2b5a12112p-10 0x1.13ed355e784a9p-10 0x1.13ed18c2491bbp-10
    0x1.13ed1dc478b2ep-10 0x1.13ed14bc9bedbp-10 0x1.13ed173db3517p-10 0x1.13ed140b53657p-10
    0x1.13ed14bc9bedbp-10 0x1.13ed140712bcbp-10 0x1.13ed143b14804p-10 0x1.13ed14022ac01p-10
    0x1.13ed140b53695p-10 0x1.13ed1402dcbcbp-10 0x1.13ed1404fcde7p-10 0x1.13ed1402132adp-10
    0x1.13ed1402dcbcbp-10 0x1.13ed140202de7p-10 0x1.13ed14022acb2p-10 0x1.13ed14020401bp-10
    0x1.13ed14020ff81p-10 0x1.13ed140201c18p-10 0x1.13ed14020401bp-10 0x1.13ed140201ddcp-10
    0x1.13ed140202645p-10 0x1.13ed140201891p-10
"""

PROFILE = dict(
    zip(
        map(float.fromhex, SEARCH_RECORDINGS["profile"][0].split()),
        map(float.fromhex, PROFILE_VALUES.split()),
    )
)
SEARCH_OBJECTIVES = {
    "quadratic": (lambda x: (x - 3.0) ** 2, 0.5, None),
    # non-convex, with plateaus that tie
    "staircase": (
        lambda x: float(math.floor(3.0 * x) % 4) + 0.25 * abs(math.floor(x) - 2.0),
        6.0,
        None,
    ),
    "plateau": (lambda x: max(0.0, 1.0 - x), 0.5, 12),
    "from_zero": (lambda x: (x + 0.7) ** 2 + 0.5, 0.0, None),
    "profile": (PROFILE.__getitem__, math.log(1.25 * 4.5), None),
}


class TestNelderMead:
    def test_quadratic_bowl(self):
        objective = lambda x: (x - 3.0) ** 2
        x, f, iters, converged = nelder_mead(objective, 0.0)
        assert converged
        assert type(x) is float
        assert x == pytest.approx(3.0, abs=1e-7)
        assert f < 1e-14

    def test_best_value_never_rises(self, monkeypatch):
        # the result after k iterations is the best point the (k + 1)-th
        # iteration starts from
        objective = lambda x: (x - 1.0) ** 2 + (x * x - 2.0) ** 2
        bests = []
        for cap in range(1, 60):
            monkeypatch.setattr(fitdata, "_MAX_ITERATIONS", cap)
            _, f, _, converged = nelder_mead(objective, 4.0)
            bests.append(f)
            if converged:
                break
        assert converged
        assert all(b <= a for a, b in zip(bests, bests[1:]))

    def test_deterministic(self):
        objective = lambda x: math.sin(x) ** 2 + (x - 0.5) ** 4
        r1 = nelder_mead(objective, 1.0)
        r2 = nelder_mead(objective, 1.0)
        assert r1 == r2

    def test_nan_objective_raises(self):
        # a NaN best value is not <= the one before it, so it cannot pass
        # for a converged minimum
        with pytest.raises(RuntimeError, match="simplex best worsened from nan to nan"):
            nelder_mead(lambda x: math.nan, 1.0)

    @pytest.mark.parametrize("cap", [1, 2, 3, None])
    @pytest.mark.parametrize(
        "objective,starts",
        [
            (lambda x: (x - 3.0) ** 2 if 1.0 <= x < 2.0 else math.nan, [0.99, 1.0, 1.5, 1.9]),
            (lambda x: x - 1.04 if x >= 1.04 else math.nan, [1.0, 1.05, 1.2]),
            # from 1.0 the first shrink point, 1.025, is NaN
            (lambda x: -x if x < 1.02 else math.nan, [1.0, 0.9]),
        ],
        ids=["region", "edge", "cliff"],
    )
    def test_a_nan_region_gives_the_lowest_finite_value_or_raises(
        self, monkeypatch, objective, starts, cap
    ):
        # never a NaN point as the result: a NaN start raises, and from a
        # finite start the result holds the lowest value evaluated
        if cap is not None:
            monkeypatch.setattr(fitdata, "_MAX_ITERATIONS", cap)
        for x0 in starts:
            seen = {}

            def recorded(x):
                seen[x] = objective(x)
                return seen[x]

            if math.isnan(objective(x0)):
                with pytest.raises(RuntimeError, match="from nan to nan"):
                    nelder_mead(recorded, x0)
                continue
            x, f, _, _ = nelder_mead(recorded, x0)
            assert f == seen[x] == min(v for v in seen.values() if not math.isnan(v))

    def test_iteration_cap_reports_non_convergence(self, monkeypatch):
        monkeypatch.setattr(fitdata, "_MAX_ITERATIONS", 3)
        objective = lambda x: x**2
        _, _, iters, converged = nelder_mead(objective, 1.0)
        assert iters == 3
        assert not converged

    def test_is_not_in_the_package_namespace(self):
        # a generic optimizer is not physics API; the benchmark wraps it
        # in `fitdata`
        assert not hasattr(mixedspin, "nelder_mead")
        assert fitdata.nelder_mead is nelder_mead

    @pytest.mark.parametrize("name", sorted(SEARCH_OBJECTIVES))
    def test_reproduces_the_recorded_search(self, monkeypatch, name):
        # bit for bit the path of the n-dimensional simplex this search
        # replaced, run on a 1-element start: every point evaluated, in
        # order, and (x, f, iterations, converged)
        objective, x0, cap = SEARCH_OBJECTIVES[name]
        text, (x_hex, f_hex, iterations, converged) = SEARCH_RECORDINGS[name]
        if cap is not None:
            monkeypatch.setattr(fitdata, "_MAX_ITERATIONS", cap)
        seen = []

        def recorded(x):
            assert type(x) is float
            seen.append(x.hex())
            return objective(x)

        x, f, iters, conv = nelder_mead(recorded, x0)
        assert seen == text.split()
        assert (x.hex(), f.hex(), iters, conv) == (x_hex, f_hex, iterations, converged)

    def test_the_recorded_profile_is_a_bench_shaped_fit(self):
        # the "profile" recording replays p(log J) of `fit`'s search on a
        # 60-point ring-8 series shaped like the benchmark's `fit_chain`
        temps, chi = _bench_shaped_series()
        model = functools.partial(model_chi, S_ONE, n_sites=8)
        for log_j, p in PROFILE.items():
            expected = fitdata._profile(model, temps, chi, math.exp(log_j))[0]
            assert p == pytest.approx(expected, rel=1e-12, abs=0.0)


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
        corrupted = MeasurementSeries(series.temperatures_kelvin, chi)
        result = fit(
            corrupted, S_HALF, init_coupling_kelvin=10.0, init_g_factor=2.0,
            window=(10.0, 100.0),
        )
        assert result.coupling_kelvin == pytest.approx(j, rel=1e-6)
        assert result.g_factor == pytest.approx(2.0, rel=1e-6)

    def test_chi_scale_moves_g_not_j(self):
        j = 8.0
        series = synth_series(S_HALF, j, 2.0, np.linspace(2.0, 80.0, 40))
        scaled = MeasurementSeries(series.temperatures_kelvin, series.chi * 1.1)
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
            captured.append((objective, x0))
            raise Captured

        monkeypatch.setattr(fitdata, "nelder_mead", capture)
        with pytest.raises(Captured):
            fit(series, S_ONE, 8.0, 2.0, n_sites=n_sites)
        ((objective, x0),) = captured
        assert x0 == math.log(8.0)
        model = functools.partial(model_chi, S_ONE, n_sites=n_sites)
        for log_j in np.linspace(1.5, 2.7, 12).tolist():
            got = objective(log_j)
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
        # the 1-D search over log J with g solved lands on a minimum of the
        # plain sum of squares over (J, g): no neighbour at a relative step
        # of 1e-6 in J, in g or in both is lower
        if noisy_pair:
            temps = np.geomspace(1.0, 100.0, 30)
            noise = 1.0 + 0.01 * np.random.default_rng(7).standard_normal(temps.size)
            chi = synth_series(S_ONE, 10.0, 2.0, temps).chi * noise
            series = MeasurementSeries(temps, chi)
        else:
            series = load_measurements(CHAIN_SERIES)
        result = fit(series, S_ONE, *start, window=window, **model)
        temps, chi = series.temperatures_kelvin, series.chi
        inside = (temps >= window[0]) & (temps <= window[1])
        temps, chi = temps[inside], chi[inside]

        def squares(j, g):
            return float(np.sum((model_chi(S_ONE, j, g, temps, **model) - chi) ** 2))

        assert result.converged
        j, g = result.coupling_kelvin, result.g_factor
        at_fit = squares(j, g)
        for dj, dg in [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b]:
            assert at_fit <= squares(j * (1.0 + 1e-6 * dj), g * (1.0 + 1e-6 * dg))
        assert result.residual_rms == pytest.approx(
            math.sqrt(at_fit / temps.size), rel=1e-12
        )

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
        # over log J, with g solved at each J, makes fewer than 100, each an
        # evaluation of the model that `fit` binds once
        j = 4.5
        series = MeasurementSeries(*_bench_shaped_series(j))
        binds, calls, starts = [], [], []

        def bind(*args):
            model = real_bind(*args)
            binds.append(args)

            def counted(*a):
                calls.append(a)
                return model(*a)

            return counted

        def spied(objective, x0):
            starts.append(x0)
            return nelder_mead(objective, x0)

        real_bind = fitdata._bind_model
        monkeypatch.setattr(fitdata, "_bind_model", bind)
        monkeypatch.setattr(fitdata, "nelder_mead", spied)
        result = fit(series, S_ONE, 1.25 * j, 2.0, n_sites=n_sites)
        assert result.converged
        assert starts == [math.log(1.25 * j)]
        assert binds == [(S_ONE, n_sites, "periodic", fitdata.DEFAULT_DIM_CAP)]
        assert 50 <= len(calls) <= 100

    @pytest.mark.parametrize("n_sites", [8, None])
    def test_the_search_evaluates_each_coupling_once(self, monkeypatch, n_sites):
        # the simplex proposes some log J twice (a rejected expansion comes
        # back as the next reflection, a failed inside contraction is the
        # shrink point); the model sees each J of the search once
        series = MeasurementSeries(*_bench_shaped_series())
        proposed, seen, searching = [], [], []

        def bind(*args):
            model = real_bind(*args)

            def counted(coupling, g_factor, temps):
                if searching and temps.size == series.temperatures_kelvin.size:
                    seen.append(coupling)
                return model(coupling, g_factor, temps)

            return counted

        def spied(objective, x0):
            searching.append(True)
            try:
                return nelder_mead(lambda x: proposed.append(x) or objective(x), x0)
            finally:
                searching.clear()

        real_bind = fitdata._bind_model
        monkeypatch.setattr(fitdata, "_bind_model", bind)
        monkeypatch.setattr(fitdata, "nelder_mead", spied)
        fit(series, S_ONE, 1.25 * 4.5, 2.0, n_sites=n_sites)
        assert len(set(proposed)) < len(proposed)
        assert len(seen) == len(set(seen)) == len(set(proposed))

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

    @pytest.mark.parametrize("window", [(math.nan, 100.0), (5.0, math.nan), (math.nan, math.nan)])
    def test_window_with_a_nan_bound_rejected(self, window):
        # a nan bound selects no point; the refusal names the window, not the data
        series = synth_series(S_HALF, 10.0, 2.0, np.linspace(2.0, 80.0, 20))
        with pytest.raises(ValueError, match=r"window \(.*\) has a nan bound"):
            fit(series, S_HALF, 10.0, 2.0, window=window)

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
    @pytest.mark.parametrize("start", [(1e300, 2.0), (1e-300, 2.0)])
    def test_leaving_the_float_range_names_the_start(self, n_sites, start):
        series = synth_series(S_HALF, 10.0, 2.0, np.linspace(2.0, 80.0, 20))
        j, g = start
        with pytest.raises(ValueError, match=re.escape(f"fit from J = {j} K, g = {g} ")):
            fit(series, S_HALF, j, g, n_sites=n_sites)

    @pytest.mark.parametrize("n_sites", [None, 4])
    # each once overflowed or underflowed at the start and was refused
    @pytest.mark.parametrize("init_g", [1e100, 1e-320])
    def test_the_start_g_does_not_change_the_fit(self, n_sites, init_g):
        series = synth_series(S_HALF, 10.0, 2.0, np.linspace(2.0, 80.0, 20))
        got = fit(series, S_HALF, 10.0, init_g, n_sites=n_sites)
        assert got == fit(series, S_HALF, 10.0, 2.0, n_sites=n_sites)

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


class TestUnitCoherence:
    def test_load_convert_round_trip(self):
        series = load_measurements(io.StringIO(VALID_CSV))
        g = 2.06
        for t, x in zip(series.temperatures_kelvin, series.chi):
            red = chi_emu_per_mol_to_reduced(float(x), float(t), g)
            back = chi_reduced_to_emu_per_mol(red, float(t), g)
            assert back == pytest.approx(float(x), rel=1e-12)
