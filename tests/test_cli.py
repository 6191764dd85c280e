"""End-to-end tests for the command-line interface.

These exercise wiring and formatting: argument grammar, exit codes,
column order, unit handling, and byte-level determinism.  The physics
behind each column is tested in the per-module suites, so numeric
assertions here mostly compare CLI output against direct library calls.
"""

import json
import math
import re
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

from mixedspin import chain, cli
from mixedspin.chain import (
    ChainSpec,
    correlator_matrix,
    diagonalize,
    susceptibility_exact,
    thermal_mean,
    thermal_mean_and_slope,
)
from mixedspin.cli import main
from mixedspin.operators import SpinQuantum
from mixedspin.pair import (
    characteristic_temperature,
    negativity_from_g1,
    pair_correlator,
    pair_negativity,
)
from mixedspin.units import (
    chi_reduced_to_emu_per_mol,
    wavenumber_to_kelvin,
)
from mixedspin.witness import (
    builtin_compounds,
    lookup_compound,
    negativity_lower_bound,
    separability_threshold,
    solve_tc,
    susceptibility_nn_approx,
)

S_HALF = SpinQuantum(1)
S_ONE = SpinQuantum(2)
# 16 points of a noisy n=4, S=1 ring series (J = 8.5 K, g = 2.03)
CHAIN_SERIES = str(Path(__file__).with_name("data") / "chain_fit_n4.csv")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    """Split CSV output into (header, data rows, comment lines)."""
    comments = []
    rows = []
    header = None
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","), strict=True)))
    return header, rows, comments


class TestTcCommand:
    def test_compound_row(self, capsys):
        code, out, _ = run(capsys, ["tc", "--compound", "CN"])
        assert code == 0
        header, rows, _ = parse_csv(out)
        assert header == [
            "compound",
            "spin",
            "coupling_kelvin",
            "model",
            "correlator",
            "tc_kelvin",
            "reported_tc_kelvin",
            "relative_deviation",
        ]
        (row,) = rows
        assert row["compound"] == "CN"
        assert row["spin"] == "1/2"
        assert float(row["tc_kelvin"]) == pytest.approx(4.660424840, rel=1e-8)
        assert float(row["reported_tc_kelvin"]) == 4.7
        assert float(row["relative_deviation"]) == pytest.approx(
            (4.660424840329407 - 4.7) / 4.7, rel=1e-6
        )

    def test_spin_one_wavenumber_coupling(self, capsys):
        code, out, _ = run(
            capsys, ["tc", "--spin", "1", "--coupling", "81.4cm-1"]
        )
        assert code == 0
        _, rows, _ = parse_csv(out)
        expected = characteristic_temperature(S_ONE, wavenumber_to_kelvin(81.4))
        assert float(rows[0]["tc_kelvin"]) == pytest.approx(expected, rel=1e-8)
        assert float(rows[0]["tc_kelvin"]) == pytest.approx(126.722478, rel=1e-8)

    def test_twice_spin_is_an_unknown_option(self, capsys):
        # --spin is the one spelling of the spin; 2S = 5 is --spin 5/2
        code, out, err = run(capsys, ["tc", "--twice-spin", "5", "--coupling", "3.2K"])
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --twice-spin 5\n")

    def test_chain_model_dimer_matches_pair(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "tc",
                "--spin",
                "1/2",
                "--coupling",
                "1K",
                "--model",
                "chain",
                "--sites",
                "2",
                "--boundary",
                "open",
            ],
        )
        assert code == 0
        _, rows, _ = parse_csv(out)
        assert float(rows[0]["tc_kelvin"]) == pytest.approx(
            1.0 / math.log(3.0), rel=1e-7
        )

    # the open chain solves on the edge bond's per-level values of the
    # multiplet spectrum, with their slope; the correlator matrix of the
    # Sz-block spectrum with eigenvectors, bisected with no slope, is the
    # independent route
    @pytest.mark.parametrize("n,ts", [(2, 1), (4, 3), (6, 2), (8, 1)])
    def test_open_chain_tc_matches_correlator_bisection(self, n, ts):
        spin = SpinQuantum(ts)
        spec = ChainSpec(n, spin, 3.7, boundary="open")
        levels = diagonalize(spec, vectors=False)
        tc = solve_tc(
            lambda t: thermal_mean_and_slope(levels, levels.bond, t), spin, 3.7
        )
        data = diagonalize(spec)
        want = solve_tc(
            lambda t: (float(correlator_matrix(data, t).g_dot[0, 1]), None), spin, 3.7
        )
        assert tc == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_report_lists_every_compound(self, capsys):
        code, out, _ = run(capsys, ["tc", "--report"])
        assert code == 0
        _, rows, _ = parse_csv(out)
        assert [r["compound"] for r in rows] == [
            "CN",
            "NiCu",
            "CoCu",
            "FeCu",
            "MnCu",
            "Cu-HTS",
        ]
        by_name = {r["compound"]: r for r in rows}
        assert by_name["NiCu"]["matches_reported"] == "true"
        assert by_name["CoCu"]["matches_reported"] == "false"
        assert by_name["Cu-HTS"]["reported_tc_kelvin"] == ""
        assert by_name["Cu-HTS"]["matches_reported"] == ""

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--model", "chain", "--sites", "4", "--boundary", "open"], "--model chain"),
            (["--spin", "1"], "--spin 1"),
            # --report refuses before --compound does
            (["--compound", "CN", "--spin", "1/2"], "--spin 1/2, --compound CN"),
            (["--coupling", "5K"], "--coupling 5K"),
            (["--compound", "CN"], "--compound CN"),
            (["--spin", "1", "--coupling", "5K"], "--spin 1, --coupling 5K"),
            # the pair model's own refusal of the chain's flags
            (["--model", "pair", "--sites", "8"], "--sites 8"),
            (["--boundary", "open", "--spin", "1", "--sites", "8"],
             "--spin 1, --sites 8, --boundary open"),
        ],
    )
    def test_report_refuses_model_spin_and_coupling_flags(self, capsys, flags, named):
        # the table is the pair model's for every built-in compound; a
        # flag that asks for another model or system would be ignored
        code, out, err = run(capsys, ["tc", "--report", *flags])
        assert code == 2
        assert out == ""
        assert err.startswith("error: --report ") and err.rstrip().endswith(f"no {named}")

    def test_report_ignores_the_default_model_flags(self, capsys):
        plain = run(capsys, ["tc", "--report"])
        explicit = ["--model", "pair"]
        assert run(capsys, ["tc", "--report", *explicit]) == plain

    def test_negative_coupling_exits_2(self, capsys):
        code, _, err = run(capsys, ["tc", "--spin", "1/2", "--coupling=-3K"])
        assert code == 2
        assert "error:" in err

    def test_negative_coupling_as_its_own_token_exits_2(self, capsys):
        code, out, err = run(
            capsys, ["tc", "--model", "chain", "--spin", "1", "--coupling", "-3K"]
        )
        assert (code, out) == (2, "")
        assert "error: coupling must be finite and > 0, got -3.0" in err

    def test_missing_unit_suffix_exits_2(self, capsys):
        code, _, err = run(capsys, ["tc", "--spin", "1/2", "--coupling", "5.12"])
        assert code == 2
        assert "unit suffix" in err

    def test_compound_conflicts_with_spin(self, capsys):
        for flags, named in [
            (["--spin", "1/2"], "--spin 1/2"),
            (["--coupling", "5K"], "--coupling 5K"),
            (["--coupling", "5K", "--spin", "1/2"], "--spin 1/2, --coupling 5K"),
        ]:
            code, out, err = run(capsys, ["tc", "--compound", "CN", *flags])
            assert (code, out) == (2, "")
            assert err == (
                f"error: --compound CN sets the spin and the coupling; it takes no {named}\n"
            )

    @pytest.mark.parametrize("name", [rec.name for rec in builtin_compounds()])
    def test_compound_row_agrees_with_its_report_row(self, capsys, name):
        _, report, _ = parse_csv(run(capsys, ["tc", "--report"])[1])
        (listed,) = [row for row in report if row["compound"] == name]
        code, out, _ = run(capsys, ["tc", "--compound", name])
        assert code == 0
        _, (row,), _ = parse_csv(out)
        for column in ("coupling_kelvin", "reported_tc_kelvin", "relative_deviation"):
            assert row[column] == listed[column]
        assert row["tc_kelvin"] == listed["computed_tc_kelvin"]

    # the couplings the literature quotes in cm-1
    @pytest.mark.parametrize(
        "name, wavenumber",
        [("NiCu", "81.4"), ("CoCu", "18.0"), ("FeCu", "20.0"), ("MnCu", "23.44"), ("Cu-HTS", "10.2")],
    )
    def test_wavenumber_coupling_is_the_parsed_one(self, name, wavenumber):
        kelvin = lookup_compound(name).coupling_kelvin
        assert kelvin.hex() == cli._parse_coupling(f"{wavenumber}cm-1").hex()

    def test_unknown_compound_lists_names(self, capsys):
        code, _, err = run(capsys, ["tc", "--compound", "nope"])
        assert code == 2
        assert "NiCu" in err


class TestSweepCommand:
    def test_default_grid_and_fits(self, capsys):
        code, out, _ = run(capsys, ["sweep"])
        assert code == 0
        _, rows, comments = parse_csv(out)
        assert [r["spin"] for r in rows] == ["1/2", "1", "3/2", "2", "5/2"]
        for row in rows:
            spin = SpinQuantum.parse(row["spin"])
            assert float(row["tc_over_j"]) == pytest.approx(
                characteristic_temperature(spin, 1.0), rel=1e-8
            )
        summary_line = [c for c in comments if c.startswith("# summary ")]
        assert len(summary_line) == 1
        summary = json.loads(summary_line[0][len("# summary ") :])
        assert summary["endpoints"]["slope"] == pytest.approx(0.3157279, abs=1e-6)
        assert summary["endpoints"]["intercept"] == pytest.approx(
            0.752375277, abs=1e-6
        )
        assert summary["least_squares"]["r_squared"] > 0.99
        assert summary["degenerate"] is False

    def test_tc_scales_with_coupling(self, capsys):
        code, out, _ = run(
            capsys, ["sweep", "--spins", "1", "--couplings", "10K,20K"]
        )
        assert code == 0
        _, rows, comments = parse_csv(out)
        assert len(rows) == 2
        assert float(rows[1]["tc_kelvin"]) == pytest.approx(
            2.0 * float(rows[0]["tc_kelvin"]), rel=1e-10
        )
        summary = json.loads(comments[-1][len("# summary ") :])
        assert summary["degenerate"] is True

    def test_json_format_is_line_delimited(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--format", "json"])
        assert code == 0
        lines = out.splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 6
        assert all("tc_kelvin" in r for r in records[:-1])
        assert "summary" in records[-1]

    def test_empty_spin_list_exits_2(self, capsys):
        code, _, err = run(capsys, ["sweep", "--spins", ","])
        assert code == 2
        assert "at least one spin" in err


class TestWitnessCommand:
    def test_threshold_is_separable_boundary(self, capsys):
        # besides the library's own value, the literal thresholds
        # n(12S^2 - 4S + 3)/24 at S = 1/2, 1/3 at n = 2 and exactly 3 at
        # n = 18, pin the threshold's own expression
        for chi, n in (
            (repr(separability_threshold(2, S_HALF)), "2"),
            ("0.3333333333333333", "2"),
            ("3", "18"),
        ):
            code, out, _ = run(
                capsys,
                [
                    "witness",
                    "--chi",
                    chi,
                    "--n",
                    n,
                    "--unit",
                    "reduced",
                    "--temp",
                    "5.0",
                    "--spin",
                    "1/2",
                ],
            )
            assert code == 0
            _, rows, _ = parse_csv(out)
            (row,) = rows
            assert float(row["witness_value"]) == 0.0
            assert row["entangled"] == "false"
            assert row["verdict"] == "separable boundary"

    def test_entangled_measurement_reduced_units(self, capsys):
        chi = 0.05
        code, out, _ = run(
            capsys,
            [
                "witness",
                "--chi",
                "0.05",
                "--unit",
                "reduced",
                "--temp",
                "2.0",
                "--spin",
                "1/2",
            ],
        )
        assert code == 0
        _, rows, _ = parse_csv(out)
        (row,) = rows
        expected = chi - separability_threshold(2, S_HALF)
        assert float(row["witness_value"]) == pytest.approx(expected, rel=1e-8)
        assert expected < 0.0
        assert row["verdict"] == "entangled"
        assert "negativity_lower_bound" not in row

    def test_molar_units_match_reduced_pathway(self, capsys):
        chi_reduced = 0.05
        temp, g = 2.0, 2.1
        chi_molar = chi_reduced_to_emu_per_mol(chi_reduced, temp, g)
        code, out, _ = run(
            capsys,
            [
                "witness",
                "--chi",
                repr(chi_molar),
                "--unit",
                "emu/mol",
                "--temp",
                repr(temp),
                "--g",
                repr(g),
                "--spin",
                "1/2",
            ],
        )
        assert code == 0
        _, rows, _ = parse_csv(out)
        (row,) = rows
        expected_threshold = chi_reduced_to_emu_per_mol(
            separability_threshold(2, S_HALF), temp, g
        )
        assert float(row["threshold"]) == pytest.approx(expected_threshold, rel=1e-8)
        expected_witness = chi_molar - expected_threshold
        assert float(row["witness_value"]) == pytest.approx(
            expected_witness, rel=1e-6
        )
        assert row["verdict"] == "entangled"


class TestBoundCommand:
    def test_bound_column_matches_library(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "bound",
                "--chi",
                "0.05",
                "--unit",
                "reduced",
                "--temp",
                "2.0",
                "--spin",
                "1/2",
            ],
        )
        assert code == 0
        _, rows, _ = parse_csv(out)
        (row,) = rows
        w = 0.05 - separability_threshold(2, S_HALF)
        expected = negativity_lower_bound(w, 2, S_HALF)
        assert float(row["negativity_lower_bound"]) == pytest.approx(
            expected, rel=1e-8
        )
        assert expected > 0.0
        assert list(row)[-1] == "negativity_lower_bound"

    def test_correction_flag_is_gone(self, capsys):
        argv = ["bound", "--chi", "0.05", "--unit", "reduced", "--temp", "2"]
        code, out, err = run(capsys, [*argv, "--spin", "1/2", "--correct-j", "3K"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --correct-j 3K" in err


class TestBoundaryVerdict:
    """`entangled`, `verdict` and the bound come from one reduced witness."""

    REPRODUCERS = (
        ["--chi", "0.12381329658710781", "--temp", "6.353325326617269",
         "--g", "1.5124363188293144", "--n", "2", "--spin", "1"],
        ["--chi", "0.008230912988764391", "--temp", "202.67469035896056",
         "--g", "1.633420554202549", "--n", "10", "--spin", "1/2"],
    )

    def row(self, capsys, argv):
        code, out, _ = run(capsys, argv)
        assert code == 0
        (row,) = parse_csv(out)[1]
        return row

    def test_reproducers(self, capsys):
        verdicts = []
        for flags in self.REPRODUCERS:
            witness_row = self.row(capsys, ["witness", *flags])
            bound_row = self.row(capsys, ["bound", *flags])
            for row in (witness_row, bound_row):
                assert (row["entangled"] == "true") == (row["verdict"] == "entangled")
            assert witness_row["verdict"] == bound_row["verdict"]
            bound = float(bound_row["negativity_lower_bound"])
            assert (bound > 0.0) == (bound_row["entangled"] == "true")
            verdicts.append(witness_row["verdict"])
        assert verdicts == ["separable boundary", "entangled"]

    def test_bound_at_the_boundary_prints_zero(self, capsys):
        # the witness is exactly 0 here; -6 x 0.0 printed as -0 before
        argv = ["bound", *self.REPRODUCERS[0]]
        assert self.row(capsys, argv)["negativity_lower_bound"] == "0"
        code, out, _ = run(capsys, [*argv, "--format", "json"])
        assert code == 0
        assert out.endswith('"negativity_lower_bound": 0.0}\n')


class TestOutOfDomainMeasurement:
    """Non-finite or non-positive inputs exit 2 instead of printing a row."""

    @pytest.mark.parametrize("command", ["witness", "bound"])
    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--chi", "nan"),
            ("--chi", "inf"),
            ("--chi", "-1"),
            ("--temp", "nan"),
            ("--temp", "inf"),
            ("--temp", "0"),
            ("--temp", "1e-320"),
            ("--g", "nan"),
            ("--g", "0"),
            ("--g", "-2"),
        ],
    )
    def test_witness_inputs_exit_2(self, capsys, command, flag, value):
        args = {"--chi": "0.1", "--temp": "5.0", "--g": "2.0"}
        args[flag] = value
        argv = [command, "--spin", "1"]
        for name, text in args.items():
            argv += [name, text]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("command", ["witness", "bound"])
    @pytest.mark.parametrize("unit", ["reduced", "emu/mol"])
    def test_subnormal_temperature_exits_2_in_both_units(self, capsys, command, unit):
        # the reduced-unit row was once printed at T = 4.94065646e-324 K
        argv = [command, "--chi", "1", "--unit", unit, "--temp", "5e-324", "--spin", "1"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert err == (
            "error: temperature must not be subnormal (|value| < 2.225e-308), "
            "got 5e-324\n"
        )
        assert out == ""

    @pytest.mark.parametrize("command", ["witness", "bound"])
    @pytest.mark.parametrize("spin_flag", ["--spin=0", "--spin=0/2"])
    def test_spin_zero_exits_2(self, capsys, command, spin_flag):
        # spin 0 has no moment: no verdict and no negativity bound exists
        argv = [command, "--chi", "0.1", "--unit", "reduced", "--temp", "1", spin_flag]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_fit_start_values_exit_2(self, capsys, tmp_path, value):
        path = tmp_path / "series.csv"
        synth = ["synth", "--spin", "1/2", "--j", "14.7K", "--g", "2.0"]
        run(capsys, [*synth, "--temps", "2:300:10", "--output", str(path)])
        code, out, err = run(
            capsys,
            [
                "fit",
                "--input",
                str(path),
                "--spin",
                "1/2",
                "--init-j",
                "10K",
                "--init-g",
                value,
            ],
        )
        assert code == 2
        assert "initial g-factor" in err
        assert out == ""

    @pytest.mark.parametrize(
        "model",
        [
            ["--model", "pair"],
            ["--model", "chain", "--sites", "4"],
            ["--model", "chain", "--sites", "4", "--boundary", "open"],
        ],
    )
    @pytest.mark.parametrize(
        "start,named",
        [
            # log J steps past 709.78, where exp overflows
            (["--init-j", "1e300K"], "J = 1e+300 K, g = 2.0 "),
            # J underflows to 0 (pair) or T/J overflows (chain)
            (["--init-j", "1e-300K"], "J = 1e-300 K, g = 2.0 "),
        ],
    )
    def test_fit_leaving_the_float_range_names_the_start(
        self, capsys, tmp_path, model, start, named
    ):
        path = tmp_path / "series.csv"
        synth = ["synth", "--spin", "1", "--j", "12K", "--g", "2.05"]
        run(capsys, [*synth, "--temps", "log:2:200:12", "--output", str(path)])
        argv = ["fit", "--input", str(path), "--spin", "1", *start, *model]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: the fit from {named}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "model",
        [
            ["--model", "pair"],
            ["--model", "chain", "--sites", "4"],
            ["--model", "chain", "--sites", "4", "--boundary", "open"],
        ],
    )
    # g = 1e100 once overflowed a squared residual at the start, and
    # g = 1e-320 underflowed g^2 there: each was refused with exit 2
    @pytest.mark.parametrize("init_g", ["1e100", "1e-320"])
    def test_fit_prints_the_row_of_any_start_g(self, capsys, tmp_path, model, init_g):
        # g is solved at every J, so the start g is never evaluated
        path = tmp_path / "series.csv"
        synth = ["synth", "--spin", "1", "--j", "12K", "--g", "2.05"]
        run(capsys, [*synth, "--temps", "log:2:200:12", "--output", str(path)])
        argv = ["fit", "--input", str(path), "--spin", "1", "--init-j", "12K", *model]
        want = run(capsys, [*argv, "--init-g", "2"])
        assert want[0] == 0
        assert run(capsys, [*argv, "--init-g", init_g]) == want

    def test_fit_from_a_huge_coupling_exits_2(self, capsys, tmp_path):
        # once the simplex stepped from log J = 575.6 past 709.78, where exp
        # overflows; the search over log J alone stays on the plateau there
        path = tmp_path / "series.csv"
        synth = ["synth", "--spin", "1", "--j", "100K", "--g", "2"]
        run(capsys, [*synth, "--temps", "log:0.1:100:12", "--output", str(path)])
        argv = ["fit", "--input", str(path), "--spin", "1", "--init-j", "1e250K"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: the fit from J = 1e+250 K, g = 2.0 ")

    @pytest.fixture
    def series_10k(self, capsys, tmp_path):
        """Noiseless pair-model data, S = 1, J = 10 K, g = 2, T = 1 ... 100 K."""
        path = tmp_path / "s.csv"
        synth = ["synth", "--spin", "1", "--j", "10K", "--g", "2"]
        run(capsys, [*synth, "--temps", "1:100:12", "--output", str(path)])
        return str(path)

    @pytest.mark.parametrize(
        "model,start,bound",
        [
            ([], "1e250K", 1e200),  # ends at J = 1e250 K (once 3.98e237 K)
            ([], "1e-250K", 1e-200),  # 1e-250 K (once 4.73e-280 K)
            (["--model", "chain", "--sites", "6"], "1e250K", 1e200),  # 1e250 K (once 3.04e207 K)
        ],
    )
    def test_fit_where_the_data_do_not_determine_j_exits_2(
        self, capsys, series_10k, model, start, bound
    ):
        # once J is far above (or below) every temperature, chi no longer
        # depends on it; the simplex shrank along g there and reported
        # "converged" with exit 0
        argv = ["fit", "--input", series_10k, "--spin", "1", "--init-j", start, *model]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: the fit from J = {float(start[:-1])} K, g = 2.0 ")
        reached = float(re.search(r" reached J = (\S+) K, g = ", err).group(1))
        assert reached > bound if bound > 1.0 else reached < bound
        assert "where the data do not determine J" in err
        # neither 2J nor J/2 raises the residual norm above the threshold
        moved = re.search(r"the residual norm is (\S+) and (\S+) emu/mol, not above (\S+) ", err)
        assert max(map(float, moved.groups()[:2])) <= float(moved.group(3))
        assert err.count("\n") == 1

    def test_fit_in_a_local_minimum_exits_2(self, capsys, series_10k):
        # from 1 K the simplex settles in the minimum near J = 1.73 K, g = 1.81,
        # whose residual rms is 0.0055 emu/mol; J = 10 K fits to 1.2e-10
        argv = ["fit", "--input", series_10k, "--spin", "1", "--init-j", "1K"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: the fit from J = 1.0 K, g = 2.0 reached J = 1.73122")
        better = re.search(r"a local minimum: J = (\S+) K, g = (\S+) fits the data better", err)
        assert float(better.group(1)) == pytest.approx(10.0, rel=1e-12)
        assert float(better.group(2)) == pytest.approx(2.0, rel=1e-8)
        # from 10 K the same data give the generating values
        code, out, _ = run(capsys, [*argv[:-1], "10K"])
        assert code == 0
        _, (row,), _ = parse_csv(out)
        assert float(row["coupling_kelvin"]) == pytest.approx(10.0, rel=1e-7)

    def test_fit_is_not_refused_for_a_better_j_on_a_slope_to_a_plateau(
        self, capsys, tmp_path
    ):
        # ring-4 data fitted by the open-6 model: the residual falls all the
        # way from J = 5.69 K down to the Curie plateau J -> 0, so no other
        # minimum exists. The fit was once refused in favour of the grid point
        # J = 0.02 K, and a fit started there ends on the plateau, refused too.
        path = str(tmp_path / "ring4.csv")
        synth = ["synth", "--spin", "3/2", "--j", "12K", "--g", "2.05"]
        synth += ["--temps", "log:2:200:15", "--model", "chain", "--sites", "4"]
        assert run(capsys, [*synth, "--output", path])[0] == 0
        fit = ["fit", "--input", path, "--spin", "3/2", "--model", "chain"]
        fit += ["--sites", "6", "--boundary", "open", "--init-j"]
        code, out, err = run(capsys, [*fit, "8K"])
        assert (code, err) == (0, "")
        _, (row,), _ = parse_csv(out)
        assert float(row["coupling_kelvin"]) == pytest.approx(5.68782, rel=1e-5)
        code, out, err = run(capsys, [*fit, "0.02K"])
        assert (code, out) == (2, "")
        assert "where the data do not determine J" in err

    @pytest.mark.parametrize(
        "data,model,coupling",
        [
            (["--sites", "4"], [], 37.41474),
            (
                ["--sites", "6", "--boundary", "open"],
                ["--model", "chain", "--sites", "4"],
                10.44031,
            ),
        ],
    )
    def test_fit_that_misfits_but_pins_j_exits_0(
        self, capsys, tmp_path, data, model, coupling
    ):
        # chain data fitted by a smaller model: the residual is model misfit,
        # and a factor-2 move of J at fixed g shifts the model by less than
        # it, so both fits were once refused. At its best g, each move raises
        # the residual by more than one point's share, and the starts agree.
        path = str(tmp_path / "chain.csv")
        synth = ["synth", "--spin", "3/2", "--j", "12K", "--g", "2.05"]
        synth += ["--temps", "log:2:200:15", "--model", "chain", *data]
        assert run(capsys, [*synth, "--output", path])[0] == 0
        fitted = []
        for start in (["8K"], ["20K", "--init-g", "1.9"]):
            argv = ["fit", "--input", path, "--spin", "3/2", *model, "--init-j", *start]
            code, out, err = run(capsys, argv)
            assert (code, err) == (0, "")
            _, (row,), _ = parse_csv(out)
            fitted.append(float(row["coupling_kelvin"]))
        assert fitted[0] == pytest.approx(fitted[1], rel=1e-6)
        assert fitted[0] == pytest.approx(coupling, rel=1e-6)

    @pytest.mark.parametrize(
        "argv",
        [
            ["witness", "--chi", "1", "--temp", "1", "--spin", "1", "--g", "1e-200"],
            ["bound", "--chi", "1", "--temp", "1", "--spin", "1", "--g", "1e-200"],
            ["witness", "--chi", "0", "--temp", "3", "--spin", "1", "--g", "1e-160"],
            ["synth", "--spin", "1", "--j", "1K", "--g", "1e-170", "--temps", "1,2"],
            ["synth", "--spin", "1", "--j", "1K", "--g", "1e-170", "--temps", "1,2"]
            + ["--model", "chain", "--sites", "4"],
        ],
    )
    def test_g_whose_square_is_not_normal_exits_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "too small: its square" in err

    def test_reduced_witness_never_squares_g(self, capsys):
        argv = ["witness", "--chi", "1", "--unit", "reduced", "--temp", "1"]
        code, out, _ = run(capsys, [*argv, "--spin", "1", "--g", "1e-200"])
        assert code == 0
        assert parse_csv(out)[1][0]["verdict"] == "not detected"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--chi", "1e308", "--unit", "reduced", "--temp", "1"],
            ["--chi", "1", "--temp", "1.7e308"],
        ],
    )
    def test_bound_that_overflows_exits_2(self, capsys, argv):
        # -6 W / (D n) overflows to -inf; no row prints a non-finite cell
        code, out, err = run(capsys, ["bound", "--spin", "1", *argv])
        assert (code, out) == (2, "")
        assert err == "error: negativity_lower_bound is -inf, not a finite number\n"
        # `witness` prints no bound, and its cells are finite
        code, out, _ = run(capsys, ["witness", "--spin", "1", *argv])
        assert code == 0
        assert "inf" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--spin", "1", "--chi", "1e300", "--temp", "1e-300"]
            + ["--g", "1e200"],
            ["synth", "--spin", "1", "--j", "10K", "--g", "1e200", "--temps", "1"]
            + ["--model", "chain", "--sites", "4"],
        ],
    )
    def test_g_squared_overflow_exits_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert out == ""

    # a subnormal J keeps 3 to 4 digits; T_c bisection on it never ended
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["tc", "--spin", "1", "--coupling", "1e-320K", "--model", "chain"],
            ["tc", "--spin", "1", "--coupling", "1e-320K"],
            ["chain", "--spin", "1", "--coupling", "1e-320K", "--temps", "1,2"],
            ["synth", "--spin", "1", "--j", "1e-320K", "--g", "2", "--temps", "1,2"],
            ["synth", "--spin", "1", "--j", "1e-320K", "--g", "2", "--temps", "1,2"]
            + ["--model", "chain", "--sites", "4"],
            ["fit", "--input", CHAIN_SERIES, "--spin", "1", "--init-j", "1e-320K"],
            ["chain", "--spin", "1", "--coupling", "1K", "--temps", "1:inf:3"],
            ["chain", "--spin", "1", "--coupling", "1K", "--temps", "log:1:inf:3"],
        ],
    )
    def test_subnormal_coupling_and_infinite_range_exit_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert "subnormal" in err or "temperatures must be finite" in err
        assert out == ""

    @pytest.mark.parametrize("temps", ["1e-320", "1,2,1e-320"])
    def test_chain_synth_subnormal_temperature_exits_2(self, capsys, temps):
        code, out, err = run(
            capsys,
            ["synth", "--spin", "1", "--j", "10K", "--g", "2", "--temps", temps]
            + ["--model", "chain", "--sites", "4"],
        )
        assert code == 2
        assert "T = 1e-320 K" in err
        assert out == ""

    # T and J are each finite and positive, but T/J overflows to inf or
    # underflows to 0; the division must neither warn nor reach the kernel
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "coupling,temps,quotient",
        [("1e-300K", "1e300", "inf"), ("1e300K", "1e-300", "0.0")],
    )
    def test_chain_synth_t_over_j_out_of_range_exits_2(
        self, capsys, coupling, temps, quotient
    ):
        code, out, err = run(
            capsys,
            ["synth", "--spin", "1", "--j", coupling, "--g", "2", "--temps", temps]
            + ["--model", "chain", "--sites", "4"],
        )
        assert code == 2
        assert f"T = {float(temps)} K" in err
        assert f"J = {float(coupling[:-1])} K" in err
        assert f"is {quotient};" in err
        assert out == ""


    # a finite J whose level spread |J| n_bonds (2S+1)/2 overflows is
    # rejected before any matrix is built, so no overflow warning escapes
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["tc", "--spin", "1", "--model", "chain", "--sites", "4"],
            ["chain", "--spin", "1", "--sites", "4", "--temps", "1,1e308"],
        ],
    )
    @pytest.mark.parametrize(
        "coupling", ["1e308K", "-1e308K", "1.7976931348623157e308K", "1e308cm-1"]
    )
    def test_coupling_with_overflowing_level_spread_exits_2(
        self, capsys, argv, boundary, coupling
    ):
        code, out, err = run(
            capsys, [*argv, f"--coupling={coupling}", "--boundary", boundary]
        )
        assert code == 2
        assert "level spread" in err
        assert out == ""


    # T_c is finite, but J (2S + 1) in its closed form, or the bisection
    # bracket 1e3 J, overflows: the message names the coupling, not the
    # T = inf it once reached
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["tc", "--spin", "1", "--coupling", "1e308K"],
            ["sweep", "--spins", "1", "--couplings", "1e308K"],
        ],
        ids=["tc", "sweep"],
    )
    def test_overflowing_tc_formula_names_the_coupling(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert "coupling 1e+308 K is too large" in err
        assert "temperature" not in err
        assert out == ""

    def test_bracket_near_the_largest_float_bisects_to_a_finite_tc(self, capsys):
        # 1e3 J is finite and 1e3 J + 1e-3 J is not: this printed tc = inf
        argv = ["tc", "--spin", "1", "--model", "chain", "--coupling"]
        code, out, _ = run(capsys, [*argv, "1.7976931e305K"])
        assert code == 0
        _, [row], _ = parse_csv(out)
        _, [unit], _ = parse_csv(run(capsys, [*argv, "1K"])[1])
        assert float(row["tc_kelvin"]) / 1.7976931e305 == pytest.approx(
            float(unit["tc_kelvin"]), rel=1e-8
        )


class TestPairModelRefusesChainFlags:
    # --sites and --boundary shape the chain model; the pair model once
    # ignored them and answered with exit 0
    ARGV = {
        "tc": ["tc", "--spin", "1", "--coupling", "5K"],
        "synth": ["synth", "--spin", "1", "--j", "10K", "--g", "2", "--temps", "1,2"],
        "fit": ["fit", "--input", CHAIN_SERIES, "--spin", "1", "--init-j", "5K"],
    }

    @pytest.mark.parametrize("command", list(ARGV))
    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--sites", "8"], "--sites 8"),
            (["--boundary", "open"], "--boundary open"),
            (["--boundary", "periodic", "--sites", "4"], "--sites 4, --boundary periodic"),
        ],
    )
    def test_each_given_chain_flag_is_named(self, capsys, command, flags, named):
        for model in ([], ["--model", "pair"]):
            code, out, err = run(capsys, [*self.ARGV[command], *model, *flags])
            assert (code, out) == (2, "")
            assert err == (
                f"error: the pair model takes no {named}; they belong to the chain "
                "model, chosen with --model chain\n"
            )

    @pytest.mark.parametrize("command,sites", [("tc", "6"), ("synth", "4"), ("fit", "4")])
    def test_the_chain_model_defaults_to_a_ring(self, capsys, command, sites):
        implicit = run(capsys, [*self.ARGV[command], "--model", "chain"])
        explicit = ["--model", "chain", "--sites", sites, "--boundary", "periodic"]
        assert implicit == run(capsys, [*self.ARGV[command], *explicit])
        assert implicit[0] == 0


class TestDimCapEnvironment:
    """MIXEDSPIN_DIM_CAP bounds the chain model of synth and fit too."""

    ARGV = {
        "synth": ["synth", "--spin", "1", "--j", "10K", "--g", "2", "--temps", "1,2"],
        "fit": ["fit", "--input", CHAIN_SERIES, "--spin", "1", "--init-j", "5K"],
    }
    CHAIN = ["--model", "chain", "--sites", "4"]  # dimension 3^2 * 2^2 = 36

    @pytest.mark.parametrize("command", ["synth", "fit"])
    def test_cap_below_dimension_exits_3(self, capsys, monkeypatch, command):
        monkeypatch.setenv("MIXEDSPIN_DIM_CAP", "35")
        code, out, err = run(capsys, self.ARGV[command] + self.CHAIN)
        assert code == 3
        assert "exceeds cap 35" in err
        assert out == ""
        monkeypatch.setenv("MIXEDSPIN_DIM_CAP", "36")
        code, out, _ = run(capsys, self.ARGV[command] + self.CHAIN)
        assert code == 0
        assert out

    @pytest.mark.parametrize("command", ["synth", "fit"])
    def test_cap_above_default_is_honoured(self, capsys, monkeypatch, command):
        monkeypatch.setattr("mixedspin.cli.DEFAULT_DIM_CAP", 10)
        monkeypatch.delenv("MIXEDSPIN_DIM_CAP", raising=False)
        code, _, err = run(capsys, self.ARGV[command] + self.CHAIN)
        assert code == 3
        assert "exceeds cap 10" in err
        monkeypatch.setenv("MIXEDSPIN_DIM_CAP", "36")
        code, out, _ = run(capsys, self.ARGV[command] + self.CHAIN)
        assert code == 0
        assert out

    @pytest.mark.parametrize("command", ["synth", "fit"])
    def test_cap_below_two_exits_2(self, capsys, monkeypatch, command):
        # as for tc and chain: 0 is a cap, not a request for the default
        monkeypatch.setenv("MIXEDSPIN_DIM_CAP", "0")
        code, out, err = run(capsys, self.ARGV[command] + self.CHAIN)
        assert (code, out, err) == (2, "", "error: dim_cap must be >= 2, got 0\n")

    @pytest.mark.parametrize("command", ["synth", "fit"])
    def test_bad_cap_is_read_only_by_the_chain_model(self, capsys, monkeypatch, command):
        monkeypatch.setenv("MIXEDSPIN_DIM_CAP", "lots")
        code, out, _ = run(capsys, self.ARGV[command] + ["--model", "pair"])
        assert code == 0
        assert out
        code, out, err = run(capsys, self.ARGV[command] + self.CHAIN)
        assert code == 2
        assert "MIXEDSPIN_DIM_CAP" in err
        assert out == ""

    @pytest.mark.parametrize("sites", ["20000", "1000000"])
    def test_oversized_chain_fails_fast(self, capsys, monkeypatch, sites):
        # the cap is decided without forming a dimension of thousands of digits
        monkeypatch.delenv("MIXEDSPIN_DIM_CAP", raising=False)
        argv = ["tc", "--model", "chain", "--spin", "1", "--sites", sites, "--coupling", "10K"]
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "exceeds cap" in err
        assert out == ""

    def test_blocks_that_are_not_multiplets_exit_3(self, capsys, monkeypatch):
        # a 2Sz = 2 block moved up by 0.37 J holds levels that 2Sz = 0 lacks
        ring_blocks = chain._ring_blocks

        def shifted(spec):
            for tsz, q, parity, block, copies in ring_blocks(spec):
                if tsz == 2:
                    block = block + 0.37 * spec.coupling_kelvin * np.eye(block.shape[0])
                yield tsz, q, parity, block, copies

        monkeypatch.setattr(chain, "_ring_blocks", shifted)
        argv = ["tc", "--model", "chain", "--spin", "1", "--sites", "4", "--coupling", "10K"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert "error: the 2Sz = 2 block holds a level at" in err
        assert "not SU(2) multiplets" in err

    def test_out_of_memory_exits_3(self, capsys, monkeypatch):
        def exhausted(spec):
            raise MemoryError

        monkeypatch.setattr(chain, "_basis", exhausted)
        monkeypatch.setenv("MIXEDSPIN_DIM_CAP", "1000000000000")
        argv = ["tc", "--model", "chain", "--spin", "1", "--sites", "30", "--coupling", "10K"]
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "MIXEDSPIN_DIM_CAP" in err


class TestChainCommand:
    # every column is computed once on the temperature array; each cell is
    # still the per-temperature scalar call's value, printed the same way
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_columns_equal_per_temperature_scalar_calls(self, capsys, boundary):
        spin = SpinQuantum(3)
        argv = ["chain", "--spin", "3/2", "--sites", "4", "--coupling", "2K",
                "--boundary", boundary, "--temps", "log:0.01:1000:300"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        data = diagonalize(ChainSpec(4, spin, 2.0, boundary=boundary), vectors=False)
        lines = out.splitlines()[1:]
        temps = cli._parse_temps("log:0.01:1000:300")
        assert len(lines) == len(temps)
        for line, t in zip(lines, temps):
            g1 = thermal_mean(data, data.bond, t)
            cells = (
                t,
                susceptibility_exact(data, t),
                susceptibility_nn_approx(4, spin, g1),
                g1,
                negativity_from_g1(spin, g1),
            )
            assert line == ",".join(cli._fmt(c) for c in cells)

    def test_unset_chain_flags_are_a_four_site_ring(self, capsys):
        # the chi_nn_reduced column takes its site count from the chain's spec
        argv = ["chain", "--spin", "3/2", "--coupling", "2K", "--temps", "1,10"]
        implicit = run(capsys, argv)
        assert implicit[0] == 0
        assert implicit == run(capsys, [*argv, "--sites", "4", "--boundary", "periodic"])

    def test_open_dimer_matches_pair_closed_forms(self, capsys):
        coupling = 2.0
        code, out, _ = run(
            capsys,
            [
                "chain",
                "--spin",
                "1",
                "--sites",
                "2",
                "--coupling",
                "2K",
                "--boundary",
                "open",
                "--temps",
                "1.0,2.0",
            ],
        )
        assert code == 0
        header, rows, _ = parse_csv(out)
        assert header == [
            "temperature_kelvin",
            "chi_exact_reduced",
            "chi_nn_reduced",
            "g1",
            "negativity",
        ]
        for row in rows:
            t = float(row["temperature_kelvin"])
            assert float(row["g1"]) == pytest.approx(
                pair_correlator(S_ONE, coupling, t), rel=1e-8
            )
            assert float(row["negativity"]) == pytest.approx(
                pair_negativity(S_ONE, coupling, t), rel=1e-8
            )

    # T -> 0 on the n=4, S=1 chains: the ground multiplet has S_g = 1
    # (Lieb-Mattis), so chi_tilde = 2/3, and a subnormal T prints the same
    # row as T = 1e-3 J, where the gap (0.65 J open, 1 J ring) has frozen out
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_subnormal_temperature_prints_the_zero_temperature_limit(
        self, capsys, boundary
    ):
        argv = ["chain", "--spin", "1", "--coupling", "1K", "--boundary", boundary]
        code, out, _ = run(capsys, argv + ["--temps", "1e-320,1e-14,1e-3"])
        assert code == 0
        _, rows, _ = parse_csv(out)
        assert [r["chi_exact_reduced"] for r in rows] == ["0.666666667"] * 3
        for row in rows[:2]:
            assert {k: v for k, v in row.items() if k != "temperature_kelvin"} == {
                k: v for k, v in rows[2].items() if k != "temperature_kelvin"
            }
        if boundary == "periodic":
            assert (rows[0]["g1"], rows[0]["negativity"]) == ("-0.75", "0.166666667")

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_coupling_prints_its_rows(self, capsys):
        argv = ["chain", "--spin", "1", "--coupling", "1e307K", "--sites", "4"]
        argv += ["--temps", "1e307,1e308", "--boundary", "open"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.splitlines()[1:] == [
            "1e+307,1.05175013,1.85429595,-0.48427804,0",
            "1e+308,1.73411104,2.43183345,-0.051124911,0",
        ]

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_high_temperature_g1_digits_are_true(self, capsys, boundary):
        # G1 = -(J/T) S(S+1)/4 to O((J/T)^2): nine true digits and the sign
        argv = ["chain", "--spin", "1", "--sites", "6", "--coupling", "1K"]
        argv += ["--boundary", boundary, "--temps", "1e12,1e100"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        _, rows, _ = parse_csv(out)
        assert [r["g1"] for r in rows] == ["-5e-13", "-5e-101"]

    @pytest.mark.parametrize(
        "line",
        [
            "chain --spin 1 --coupling -3K --temps 1",
            "chain --spin 1 --coupling -2.5cm-1 --temps 1,2",
            "sweep --couplings -3K,1K",
            "synth --spin 1 --j -3K --g 2 --temps 1",
            f"fit --input {CHAIN_SERIES} --spin 1 --init-j -3K",
        ],
        ids=["chain-K", "chain-cm-1", "sweep", "synth", "fit"],
    )
    def test_negative_coupling_token_reads_as_the_flag_value(self, capsys, line):
        spaced = run(capsys, shlex.split(line))
        joined = re.sub(r" (-[0-9])", r"=\1", line)  # '--coupling=-3K'
        assert spaced == run(capsys, shlex.split(joined))
        assert "expected one argument" not in spaced[2]

    def test_nn_susceptibility_is_never_negative(self, capsys):
        # on the S = 1/2 dimer ring g1 -> -3/4 at low T, where
        # n(1/8 + S^2/2 + g1/3) cancels to roundoff; it must not go below 0
        argv = ["chain", "--spin", "1/2", "--sites", "2", "--coupling", "3.7K"]
        code, out, _ = run(capsys, argv + ["--temps", "0.05"])
        assert code == 0
        _, (row,), _ = parse_csv(out)
        assert float(row["chi_nn_reduced"]) >= 0.0
        assert float(row["chi_nn_reduced"]) < 1e-15

    def test_temperature_range_grammar(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "chain",
                "--spin",
                "1/2",
                "--sites",
                "2",
                "--coupling",
                "1K",
                "--boundary",
                "open",
                "--temps",
                "1:3:3",
            ],
        )
        assert code == 0
        _, rows, _ = parse_csv(out)
        assert [float(r["temperature_kelvin"]) for r in rows] == [1.0, 2.0, 3.0]

    def test_log_range_grammar(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "chain",
                "--spin",
                "1/2",
                "--sites",
                "2",
                "--coupling",
                "1K",
                "--boundary",
                "open",
                "--temps",
                "log:1:100:3",
            ],
        )
        assert code == 0
        _, rows, _ = parse_csv(out)
        assert [float(r["temperature_kelvin"]) for r in rows] == pytest.approx(
            [1.0, 10.0, 100.0]
        )

    def test_bad_temps_exit_2(self, capsys):
        code, _, err = run(
            capsys,
            [
                "chain",
                "--spin",
                "1/2",
                "--coupling",
                "1K",
                "--temps",
                "1:2",
            ],
        )
        assert code == 2
        assert "START:STOP:COUNT" in err

    def test_dim_cap_env_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("MIXEDSPIN_DIM_CAP", "10")
        code, _, err = run(
            capsys,
            [
                "chain",
                "--spin",
                "1/2",
                "--sites",
                "6",
                "--coupling",
                "1K",
                "--temps",
                "1.0",
            ],
        )
        assert code == 3
        assert "cap" in err

    def test_bad_dim_cap_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("MIXEDSPIN_DIM_CAP", "lots")
        code, _, err = run(
            capsys,
            [
                "chain",
                "--spin",
                "1/2",
                "--sites",
                "2",
                "--coupling",
                "1K",
                "--temps",
                "1.0",
            ],
        )
        assert code == 2
        assert "MIXEDSPIN_DIM_CAP" in err


class TestFitAndSynth:
    def test_synth_writes_measurement_csv(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        code, out, _ = run(
            capsys,
            [
                "synth",
                "--spin",
                "1/2",
                "--j",
                "10.2cm-1",
                "--g",
                "2.06",
                "--temps",
                "2:300:20",
                "--output",
                str(path),
            ],
        )
        assert code == 0
        assert out == ""
        text = path.read_text()
        assert "# spin: 1/2" in text
        assert "# g_factor: 2.06" in text
        assert "temperature_kelvin,chi_emu_per_mol" in text
        assert len(text.splitlines()) == 25

    def test_synth_then_fit_round_trip(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        run(
            capsys,
            [
                "synth",
                "--spin",
                "1/2",
                "--j",
                "14.7K",
                "--g",
                "2.06",
                "--temps",
                "2:300:40",
                "--output",
                str(path),
            ],
        )
        code, out, _ = run(
            capsys,
            [
                "fit",
                "--input",
                str(path),
                "--spin",
                "1/2",
                "--init-j",
                "10K",
                "--init-g",
                "2.0",
            ],
        )
        assert code == 0
        _, rows, _ = parse_csv(out)
        (row,) = rows
        assert float(row["coupling_kelvin"]) == pytest.approx(14.7, rel=1e-4)
        assert float(row["g_factor"]) == pytest.approx(2.06, rel=1e-4)
        assert row["converged"] == "true"
        assert int(row["n_points"]) == 40

    def test_fit_window_restricts_points(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        run(
            capsys,
            [
                "synth",
                "--spin",
                "1/2",
                "--j",
                "14.7K",
                "--g",
                "2.06",
                "--temps",
                "2:300:40",
                "--output",
                str(path),
            ],
        )
        code, out, _ = run(
            capsys,
            [
                "fit",
                "--input",
                str(path),
                "--spin",
                "1/2",
                "--init-j",
                "10K",
                "--window",
                "50:200",
            ],
        )
        assert code == 0
        _, rows, _ = parse_csv(out)
        (row,) = rows
        assert float(row["window_min_kelvin"]) >= 50.0
        assert float(row["window_max_kelvin"]) <= 200.0
        assert int(row["n_points"]) < 40
        assert float(row["coupling_kelvin"]) == pytest.approx(14.7, rel=1e-3)

    def test_too_few_points_exits_2(self, capsys, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "temperature_kelvin,chi_emu_per_mol\n"
            "10.0,0.01\n20.0,0.02\n30.0,0.015\n"
        )
        code, _, err = run(
            capsys,
            ["fit", "--input", str(path), "--spin", "1/2", "--init-j", "10K"],
        )
        assert code == 2
        assert "4" in err

    def test_missing_input_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            [
                "fit",
                "--input",
                str(tmp_path / "absent.csv"),
                "--spin",
                "1/2",
                "--init-j",
                "10K",
            ],
        )
        assert code == 2
        assert "error:" in err

    def test_bad_window_grammar_exits_2(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        run(
            capsys,
            [
                "synth",
                "--spin",
                "1/2",
                "--j",
                "14.7K",
                "--g",
                "2.0",
                "--temps",
                "2:300:10",
                "--output",
                str(path),
            ],
        )
        code, _, err = run(
            capsys,
            [
                "fit",
                "--input",
                str(path),
                "--spin",
                "1/2",
                "--init-j",
                "10K",
                "--window",
                "50",
            ],
        )
        assert code == 2
        assert "TMIN:TMAX" in err


    # Re-recorded when `diagonalize` began to mirror the 2Sz < 0 sectors
    # and the fit's spectrum became eigenvalue-only. The ±Sz levels are
    # now exactly equal instead of equal to roundoff, which moves where
    # the simplex stops inside its rel_tol of 1e-9: the 9th printed digit
    # of J, and 62 -> 64 iterations in the JSON case. g and residual_rms
    # did not move. Re-recorded again when `diagonalize` began to snap
    # the ground multiplet to one exact energy: the CSV J moved
    # 8.50373875 -> 8.50373871 and 68 -> 67 iterations, the JSON
    # wavenumber 7.93765277 -> 7.93765279 and 64 -> 60 iterations.
    # Re-recorded again when ring spectra without eigenvectors began to be
    # solved as momentum blocks: the CSV J moved 8.50373871 -> 8.50373873
    # and its wavenumber 5.91039434 -> 5.91039435, at 67 iterations.
    # Re-recorded again when the momentum blocks became real reflection
    # blocks: the CSV J moved 8.50373873 -> 8.50373872, at 68 iterations
    # instead of 67. Re-recorded again when every thermal sum became one
    # weighted sum over the level table: the CSV J moved 8.50373872 ->
    # 8.50373873 at 66 iterations instead of 68, the JSON wavenumber
    # 7.93765279 -> 7.93765277 at 62 instead of 60. Re-recorded again when
    # open chains without eigenvectors began to be solved per SU(2)
    # multiplet: the JSON J moved 11.4205113 -> 11.4205112 and its
    # wavenumber 7.93765277 -> 7.93765273, at 64 iterations instead of 62.
    # Re-recorded again when each multiplet block began to be built on the
    # coupling paths from 6j symbols: the JSON J moved 11.4205112 ->
    # 11.4205113 and its wavenumber 7.93765273 -> 7.93765277, at 61
    # iterations instead of 64. Re-recorded again when the thermal means
    # stopped normalizing the Boltzmann weights (chi from dot products of
    # the factors with (m Sz^2, m)): the CSV row holds its values at 67
    # iterations instead of 66, the JSON wavenumber moved 7.93765277 ->
    # 7.9376528, at 65 iterations instead of 61. Re-recorded again when the
    # level table began to hold one entry per SU(2) multiplet: the CSV J
    # moved 8.50373873 -> 8.50373871 and its wavenumber 5.91039435 ->
    # 5.91039434, at 68 iterations instead of 67, the JSON wavenumber
    # 7.9376528 -> 7.93765278, at 63 iterations instead of 65. Re-recorded
    # again when the simplex began to search log J alone, with g solved at
    # each J: the CSV J moved 8.50373871 -> 8.50373874 and its wavenumber
    # 5.91039434 -> 5.91039436, at 31 iterations instead of 68, the JSON J
    # 11.4205113 -> 11.4205112 and its wavenumber 7.93765278 -> 7.93765275,
    # at 27 iterations instead of 63. Still compared byte for byte; the values recorded before the mirroring are
    # pinned to a relative 5e-8 just below.
    @pytest.mark.parametrize(
        "extra,expected",
        [
            (
                ["--init-j", "5K"],
                "coupling_kelvin,coupling_wavenumber,g_factor,residual_rms,"
                "iterations,converged,window_min_kelvin,window_max_kelvin,n_points\n"
                "8.50373874,5.91039436,2.03016955,0.000440954126,31,true,2,80,16\n",
            ),
            (
                ["--init-j", "12K", "--init-g", "1.9", "--boundary", "open"]
                + ["--window", "3:60", "--format", "json"],
                '{"coupling_kelvin": 11.4205112, "coupling_wavenumber": 7.93765275, '
                '"g_factor": 2.02125744, "residual_rms": 0.00097679332, '
                '"iterations": 27, "converged": true, "window_min_kelvin": 3.27068, '
                '"window_max_kelvin": 48.9195, "n_points": 12}\n',
            ),
        ],
        ids=["csv", "json"],
    )
    def test_chain_fit_golden_output(self, capsys, extra, expected):
        argv = ["fit", "--input", CHAIN_SERIES, "--spin", "1"]
        code, out, _ = run(capsys, argv + ["--model", "chain", "--sites", "4"] + extra)
        assert code == 0
        assert out == expected

    # J, g and residual_rms as printed before the ±Sz mirroring, when each
    # sector was solved on its own with eigenvectors
    @pytest.mark.parametrize(
        "extra,j,g,rms",
        [
            (["--init-j", "5K"], 8.50373872, 2.03016955, 0.000440954126),
            (
                ["--init-j", "12K", "--init-g", "1.9", "--boundary", "open"]
                + ["--window", "3:60"],
                11.4205112,
                2.02125744,
                0.00097679332,
            ),
        ],
        ids=["periodic", "open-window"],
    )
    def test_chain_fit_keeps_values_recorded_before_mirroring(
        self, capsys, extra, j, g, rms
    ):
        argv = ["fit", "--input", CHAIN_SERIES, "--spin", "1"]
        code, out, _ = run(capsys, argv + ["--model", "chain", "--sites", "4"] + extra)
        assert code == 0
        _, (row,), _ = parse_csv(out)
        assert float(row["coupling_kelvin"]) == pytest.approx(j, rel=5e-8, abs=0.0)
        assert float(row["g_factor"]) == pytest.approx(g, rel=5e-8, abs=0.0)
        assert float(row["residual_rms"]) == pytest.approx(rms, rel=5e-8, abs=0.0)


class TestValueErrors:
    """Values argparse accepts as strings but the command cannot read."""

    CHAIN = ["chain", "--spin", "1", "--coupling", "10K", "--temps"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["tc", "--spin", "1", "--coupling", "tenK"], "cannot parse coupling value in 'tenK'"),
            (["tc", "--spin", "1", "--coupling", "cm-1"], "cannot parse coupling value in 'cm-1'"),
            ([*CHAIN, "1:x:3"], "cannot parse temperature range '1:x:3'"),
            ([*CHAIN, "log:1:10:2.5"], "cannot parse temperature range 'log:1:10:2.5'"),
            ([*CHAIN, "1:10:0"], "temperature count must be >= 1, got 0"),
            ([*CHAIN, "1,x,3"], "cannot parse temperatures '1,x,3'"),
            ([*CHAIN, ", ,"], "no temperatures given"),
            (["tc", "--coupling", "5K"], "need --spin and --coupling (or --compound)"),
            (["tc", "--spin", "1"], "need --spin and --coupling (or --compound)"),
        ],
    )
    def test_exits_2_with_its_message(self, capsys, argv, message):
        assert run(capsys, argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("window", ["5:x", "a:80", ":"])
    def test_unparsable_window_exits_2(self, capsys, window):
        argv = ["fit", "--input", CHAIN_SERIES, "--spin", "1", "--init-j", "5K"]
        code, out, err = run(capsys, [*argv, "--window", window])
        assert (code, out, err) == (2, "", f"error: cannot parse window {window!r}\n")


class TestParser:
    """`main` builds the parser of the subcommand it runs, and it reads and
    prints exactly what the whole parser does."""

    COMMANDS = ["tc", "sweep", "witness", "bound", "chain", "fit", "synth"]

    @staticmethod
    def whole_parser(capsys, argv):
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(
        "argv",
        [[], ["--help"], ["-h"], ["bogus"], ["bogus", "--help"]]
        + [[name, "--help"] for name in COMMANDS]
        + [[name] for name in COMMANDS[2:]]  # each missing a required option
        + [[name, "--bogus", "1"] for name in COMMANDS]
        + [["tc", "--format", "xml"], ["chain", "--spin", "1", "--twice-spin", "2"]],
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )
    def test_help_and_errors_are_the_whole_parsers(self, capsys, argv):
        assert run(capsys, argv) == self.whole_parser(capsys, argv)

    def test_whole_parser_lists_every_subcommand(self):
        [sub] = [a for a in cli.build_parser()._actions if a.dest == "command"]
        assert list(sub.choices) == self.COMMANDS

    @pytest.mark.parametrize(
        "argv,built",
        [
            (["tc", "--spin", "1", "--coupling", "10K"], ["tc"]),
            (["sweep", "--spins", "1"], ["sweep"]),
            (["--help"], COMMANDS),
            (["bogus"], COMMANDS),
            ([], COMMANDS),
        ],
    )
    def test_main_builds_only_the_subcommand_it_runs(
        self, capsys, monkeypatch, argv, built
    ):
        parsers = []

        def recording(command=None):
            parsers.append(build(command))
            return parsers[-1]

        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", recording)
        run(capsys, argv)
        [parser] = parsers
        [sub] = [a for a in parser._actions if a.dest == "command"]
        assert list(sub.choices) == built

    def test_coupling_flags_are_constant_options_of_the_parser(self):
        flags = cli._COUPLING_FLAGS
        assert isinstance(flags, frozenset)
        parser = cli.build_parser()
        [sub] = [a for a in parser._actions if a.dest == "command"]
        options = {
            option
            for p in sub.choices.values()
            for action in p._actions
            for option in action.option_strings
        }
        assert flags <= options


class TestOutputContract:
    def test_repeat_runs_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, ["sweep"])
        _, second, _ = run(capsys, ["sweep"])
        assert first == second

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        _, stdout_text, _ = run(capsys, ["sweep"])
        code, out, _ = run(capsys, ["sweep", "--output", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_text() == stdout_text

    def test_json_none_becomes_null(self, capsys):
        code, out, _ = run(capsys, ["tc", "--report", "--format", "json"])
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        by_name = {r["compound"]: r for r in records}
        assert by_name["Cu-HTS"]["reported_tc_kelvin"] is None
        assert by_name["Cu-HTS"]["matches_reported"] is None
        assert by_name["NiCu"]["matches_reported"] is True

    def test_missing_subcommand_exits_2(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 2
        assert "usage" in err or "command" in err

    def test_nine_significant_digits(self, capsys):
        _, out, _ = run(capsys, ["tc", "--spin", "5/2", "--coupling", "1K"])
        _, rows, _ = parse_csv(out)
        text = rows[0]["tc_kelvin"]
        digits = text.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) <= 9


HUGE = str(10**400)  # an integer beyond the float range


class TestHugeIntegers:
    """A spin, a spin list, a site count or --n beyond the float range exits
    2 with a message naming it, or 3 where the dimension cap refuses the
    chain first; each of these once raised OverflowError (exit 1)."""

    WITNESS = ["--chi", "1", "--temp", "1"]
    FIT = ["fit", "--input", CHAIN_SERIES, "--init-j", "5K"]

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["tc", "--spin", HUGE, "--coupling", "1K"], 2, "spin is too large"),
            (["tc", "--spin", f"{HUGE}/2", "--coupling", "1K", "--model", "chain"], 2,
             "spin is too large"),
            (["tc", "--spin", "1", "--coupling", "1K", "--model", "chain", "--sites", HUGE],
             3, "exceeds cap"),
            (["witness", *WITNESS, "--spin", HUGE], 2, "spin is too large"),
            (["witness", *WITNESS, "--spin", "1", "--n", HUGE], 2, "n_sites is too large"),
            (["bound", *WITNESS, "--spin", HUGE], 2, "spin is too large"),
            (["bound", *WITNESS, "--spin", "1", "--n", HUGE, "--unit", "reduced"], 2,
             "n_sites is too large"),
            (["sweep", "--spins", f"1,{HUGE}"], 2, "spin is too large"),
            (["synth", "--spin", HUGE, "--j", "1K", "--g", "2", "--temps", "1"], 2,
             "spin is too large"),
            (["synth", "--spin", "1", "--j", "1K", "--g", "2", "--temps", "1"]
             + ["--model", "chain", "--sites", HUGE], 3, "exceeds cap"),
            (["chain", "--spin", HUGE, "--coupling", "1K", "--temps", "1"], 2,
             "spin is too large"),
            (["chain", "--spin", "1", "--coupling", "1K", "--temps", "1", "--sites", HUGE],
             3, "exceeds cap"),
            ([*FIT, "--spin", HUGE], 2, "spin is too large"),
            ([*FIT, "--spin", "1", "--model", "chain", "--sites", HUGE, "--boundary", "open"],
             3, "exceeds cap"),
        ],
    )
    def test_exits_2_or_3_with_a_message(self, capsys, argv, code, message):
        got, out, err = run(capsys, argv)
        assert (got, out) == (code, "")
        assert err.startswith("error: ") and message in err


class TestJsonFollowsCsv:
    """A table's columns are named once: JSON keys follow the CSV header."""

    COMMANDS = {
        "tc": ["tc", "--spin", "1", "--coupling", "81.4cm-1"],
        "tc-compound": ["tc", "--compound", "CN"],
        "tc-report": ["tc", "--report"],
        "sweep": ["sweep"],
        "witness": ["witness", "--chi", "0.05", "--unit", "reduced", "--temp", "2",
                    "--spin", "1/2"],
        "bound": ["bound", "--chi", "0.0145659", "--temp", "100", "--g", "2.15",
                  "--spin", "1"],
        "chain": ["chain", "--spin", "1", "--sites", "2", "--coupling", "2K",
                  "--boundary", "open", "--temps", "1.0,2.0"],
        "fit": ["fit", "--input", CHAIN_SERIES, "--spin", "1", "--init-j", "8K"],
    }

    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
    def test_json_keys_follow_csv_header(self, capsys, argv):
        _, csv_out, _ = run(capsys, argv)
        code, json_out, _ = run(capsys, [*argv, "--format", "json"])
        assert code == 0
        header, rows, comments = parse_csv(csv_out)
        lines = json_out.splitlines()
        prefix = "# summary "
        summaries = [c[len(prefix) :] for c in comments if c.startswith(prefix)]
        if summaries:
            (summary,) = summaries
            assert lines.pop() == '{"summary": ' + summary + "}"
        assert len(lines) == len(rows) > 0
        for line in lines:
            assert list(json.loads(line)) == header


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(command, expected stdout) for each `$ ` line of the README's code blocks.

    The expected output is every following line up to the next `$ `
    line, blank line or end of block.
    """
    examples = []
    in_block = False
    current = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
            current = None
        elif in_block and line.startswith("$ "):
            current = [line[2:], ""]
            examples.append(current)
        elif in_block and line and current is not None:
            current[1] += line + "\n"
        else:
            current = None
    return examples


class TestReadmeExamples:
    # the n=12 ring takes several seconds; the CI smoke step checks its row
    SLOW = (
        "MIXEDSPIN_DIM_CAP=46656 mixedspin tc --model chain --spin 1 --sites 12"
        " --coupling 10K"
    )

    def test_every_example_prints_what_the_readme_shows(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)  # `synth --output series.csv` writes here
        examples = readme_examples()
        assert [c for c, _ in examples].count(self.SLOW) == 1
        ran = 0
        for command, expected in examples:
            if command == self.SLOW:
                continue
            argv = shlex.split(command)
            if argv[0] == "head":
                count, path = int(argv[1].lstrip("-")), argv[2]
                lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
                assert "".join(lines[:count]) == expected, command
                continue
            assert argv[0] == "mixedspin", command
            code, out, err = run(capsys, argv[1:])
            assert (code, err) == (0, ""), command
            assert out == expected, command
            ran += 1
        assert ran == 9
