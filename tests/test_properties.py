"""Property tests: out-of-domain CLI input exits 2 and never prints nan.

A huge but finite coupling either gives finite rows or exits 2. No
subcommand exits 1 or raises, whatever its numeric flags. No input may
warn: every run treats warnings as errors.

Hypothesis is not a declared dependency; without it this module skips.
Values go in as `--flag=VALUE`, so that a negative number is not read
as an option.
"""

import contextlib
import io
import math
import re
import warnings

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mixedspin.cli import main  # noqa: E402

PROPERTY = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

NON_FINITE = st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "+inf", "Infinity"])
NON_POSITIVE = st.floats(max_value=0.0, allow_nan=False).map(repr)
NEGATIVE = st.floats(max_value=-5e-324, allow_nan=False).map(repr)
# in kelvin: a subnormal value in cm^-1 may be a normal one in K
SUBNORMAL_KELVIN = st.floats(
    min_value=5e-324, max_value=2.2250738585072014e-308, exclude_max=True
).map(lambda x: f"{x!r}K")
NOT_POSITIVE = NON_FINITE | NON_POSITIVE
# from 1e300 up to the largest float, either sign, in either unit
HUGE_COUPLING = st.tuples(
    st.floats(min_value=1e300, max_value=1.7976931348623157e308),
    st.sampled_from([1.0, -1.0]),
    st.sampled_from(["K", "cm-1"]),
).map(lambda p: f"{p[0] * p[1]!r}{p[2]}")
GOOD_TEMPS = st.lists(st.sampled_from(["0.5", "1", "2.5", "40"]), max_size=3)
UNIT = st.sampled_from(["K", "cm-1"])


def bad_temps(bad_value):
    """A comma list with one bad value among good ones, or a bad range end."""
    listed = st.tuples(GOOD_TEMPS, bad_value, GOOD_TEMPS).map(
        lambda parts: ",".join([*parts[0], parts[1], *parts[2]])
    )
    ranged = st.tuples(st.sampled_from(["", "log:"]), bad_value, st.booleans()).map(
        lambda p: f"{p[0]}{p[1]}:5:3" if p[2] else f"{p[0]}1:{p[1]}:3"
    )
    return listed | ranged


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    return code, out.getvalue()


def assert_rejected(argv):
    code, out = run(argv)
    assert code == 2, (argv, out)
    assert "nan" not in out.lower(), (argv, out)


def assert_finite_rows_or_rejected(argv):
    code, out = run(argv)
    assert code in (0, 2), (argv, out)
    assert "nan" not in out.lower(), (argv, out)
    if code == 2:
        assert out == "", (argv, out)
        return
    header, *rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert rows, (argv, out)
    for row in rows:
        for name, cell in zip(header.split(","), row.split(","), strict=True):
            if name not in ("spin", "model", "correlator"):
                assert math.isfinite(float(cell)), (argv, out)


WITNESS_BASE = ["--spin=1", "--chi=1.2", "--temp=3", "--g=2.0"]


def with_flag(base, flag, value):
    return [arg for arg in base if not arg.startswith(flag + "=")] + [f"{flag}={value}"]


@pytest.mark.parametrize("command", ["witness", "bound"])
class TestWitnessAndBound:
    @PROPERTY
    @given(value=NOT_POSITIVE)
    def test_temp(self, command, value):
        assert_rejected([command, *with_flag(WITNESS_BASE, "--temp", value)])

    @PROPERTY
    @given(value=NOT_POSITIVE)
    def test_g(self, command, value):
        assert_rejected([command, *with_flag(WITNESS_BASE, "--g", value)])

    @PROPERTY
    @given(value=NON_FINITE | NEGATIVE, unit=st.sampled_from(["emu/mol", "reduced"]))
    def test_chi(self, command, value, unit):
        assert_rejected([command, *with_flag(WITNESS_BASE, "--chi", value), f"--unit={unit}"])


class TestChain:
    BASE = ["chain", "--spin=1", "--sites=4", "--coupling=1K", "--temps=1,2"]

    @PROPERTY
    @given(temps=bad_temps(NOT_POSITIVE))
    def test_temps(self, temps):
        assert_rejected(with_flag(self.BASE, "--temps", temps))

    @PROPERTY
    @given(
        coupling=st.tuples(NON_FINITE | st.sampled_from(["0", "-0.0"]), UNIT).map("".join)
        | SUBNORMAL_KELVIN,
        boundary=st.sampled_from(["periodic", "open"]),
    )
    def test_coupling(self, coupling, boundary):
        # a negative coupling is a ferromagnet, which the chain accepts
        argv = with_flag(self.BASE, "--coupling", coupling)
        assert_rejected([*argv, f"--boundary={boundary}"])

    @PROPERTY
    @given(coupling=HUGE_COUPLING, boundary=st.sampled_from(["periodic", "open"]))
    def test_huge_coupling(self, coupling, boundary):
        argv = with_flag(self.BASE, "--coupling", coupling)
        argv = with_flag(argv, "--temps", "1e-300,1,1e300,1.7976931348623157e308")
        assert_finite_rows_or_rejected([*argv, f"--boundary={boundary}"])


class TestTc:
    @PROPERTY
    @given(coupling=HUGE_COUPLING, boundary=st.sampled_from(["periodic", "open"]))
    def test_huge_coupling(self, coupling, boundary):
        argv = ["tc", "--spin=1", f"--coupling={coupling}", "--model=chain"]
        assert_finite_rows_or_rejected([*argv, "--sites=4", f"--boundary={boundary}"])

    @PROPERTY
    @given(
        coupling=st.tuples(NOT_POSITIVE, UNIT).map("".join) | SUBNORMAL_KELVIN,
        model=st.sampled_from(["pair", "chain"]),
    )
    def test_coupling(self, coupling, model):
        argv = ["tc", "--spin=1", f"--coupling={coupling}", f"--model={model}"]
        assert_rejected([*argv, "--sites=4"])


class TestSynth:
    BASE = ["synth", "--spin=1", "--j=8K", "--g=2.0", "--temps=2,5"]

    @PROPERTY
    @given(temps=bad_temps(NOT_POSITIVE), model=st.sampled_from(["pair", "chain"]))
    def test_temps(self, temps, model):
        assert_rejected([*with_flag(self.BASE, "--temps", temps), f"--model={model}"])

    @PROPERTY
    @given(value=NOT_POSITIVE, model=st.sampled_from(["pair", "chain"]))
    def test_g(self, value, model):
        assert_rejected([*with_flag(self.BASE, "--g", value), f"--model={model}"])

    @PROPERTY
    @given(value=NOT_POSITIVE, unit=UNIT, model=st.sampled_from(["pair", "chain"]))
    def test_coupling(self, value, unit, model):
        assert_rejected([*with_flag(self.BASE, "--j", value + unit), f"--model={model}"])


# every numeric flag: the float extremes, then any float at all
EXTREME = st.sampled_from(
    ["0", "-0.0", "5e-324", "-5e-324", "1e-310", "-1e-310", "1.7e308", "-1.7e308"]
    + [f"{sign}1e{exp}" for sign in ("", "-") for exp in (100, 150, 200, 300)]
    + [f"{sign}1e-{exp}" for sign in ("", "-") for exp in (100, 150, 200, 300)]
    + ["nan", "inf", "-inf"]
)
NUMBER = EXTREME | st.floats().map(repr)
COUPLING = st.tuples(NUMBER, UNIT).map("".join)
TEMPS = st.lists(NUMBER, min_size=1, max_size=3).map(",".join)
SPIN = st.sampled_from(["1/2", "1", "3/2"])
CHAIN = st.sampled_from(
    [
        ["--model=chain", "--sites=4"],
        ["--model=chain", "--sites=4", "--boundary=open"],
    ]
)
MODEL = st.just(["--model=pair"]) | CHAIN
# a run that succeeds prints no non-finite cell, in CSV or in JSON
NON_FINITE_CELL = re.compile(r"(?i)(?<![\w.])-?(nan|inf|infinity)(?![\w.])")


def assert_documented_exit(argv):
    code, out = run(argv)
    assert code in (0, 2, 3), (argv, code, out)
    if code == 0:
        assert NON_FINITE_CELL.search(out) is None, (argv, out)


@pytest.fixture(scope="module")
def series_csv(tmp_path_factory):
    """A small noiseless pair-model series (S = 1, J = 12 K, g = 2.05)."""
    path = tmp_path_factory.mktemp("series") / "series.csv"
    argv = ["synth", "--spin=1", "--j=12K", "--g=2.05", "--temps=2,5,10,20,50,100"]
    assert run([*argv, f"--output={path}"]) == (0, "")
    return str(path)


class TestNoSubcommandExits1:
    """Every subcommand exits 0, 2 or 3 on any numeric flag, and never raises."""

    @PROPERTY
    @given(
        spin=SPIN,
        coupling=COUPLING,
        form=st.sampled_from(
            [[], ["--correlator=literature"], ["--model=chain", "--sites=4"]]
            + [["--model=chain", "--sites=4", "--boundary=open"]]
        ),
    )
    def test_tc(self, spin, coupling, form):
        assert_documented_exit(["tc", f"--spin={spin}", f"--coupling={coupling}", *form])

    @PROPERTY
    @given(couplings=st.lists(COUPLING, min_size=1, max_size=2).map(",".join))
    def test_sweep(self, couplings):
        assert_documented_exit(["sweep", "--spins=1/2,1", f"--couplings={couplings}"])

    @PROPERTY
    @given(
        command=st.sampled_from(["witness", "bound"]),
        chi=NUMBER,
        temp=NUMBER,
        g=NUMBER,
        unit=st.sampled_from(["emu/mol", "reduced"]),
        correction=st.none() | COUPLING,
    )
    # each once exited 1: g^2 underflowed to 0, and (J/T)^2 overflowed
    @example("witness", "1", "1", "1e-200", "emu/mol", None)
    @example("bound", "1", "1e-300", "2", "reduced", "10K")
    def test_witness_and_bound(self, command, chi, temp, g, unit, correction):
        argv = [command, "--spin=1", f"--chi={chi}", f"--temp={temp}", f"--g={g}"]
        argv.append(f"--unit={unit}")
        if command == "bound" and correction is not None:
            argv.append(f"--correct-j={correction}")
        assert_documented_exit(argv)

    @PROPERTY
    @given(spin=SPIN, j=COUPLING, g=NUMBER, temps=TEMPS, model=MODEL)
    def test_synth(self, spin, j, g, temps, model):
        argv = ["synth", f"--spin={spin}", f"--j={j}", f"--g={g}", f"--temps={temps}"]
        assert_documented_exit([*argv, *model])

    @PROPERTY
    @given(
        spin=SPIN,
        coupling=COUPLING,
        temps=TEMPS,
        boundary=st.sampled_from(["periodic", "open"]),
    )
    def test_chain(self, spin, coupling, temps, boundary):
        argv = ["chain", f"--spin={spin}", "--sites=4", f"--coupling={coupling}"]
        assert_documented_exit([*argv, f"--temps={temps}", f"--boundary={boundary}"])

    @PROPERTY
    @given(
        init_j=COUPLING,
        init_g=NUMBER,
        window=st.none() | st.tuples(NUMBER, NUMBER).map(":".join),
        model=MODEL,
    )
    # each once exited 1: exp(log J) overflowed, and so did a squared residual
    @example("1e300K", "2", None, ["--model=pair"])
    @example("1e300K", "2", None, ["--model=chain", "--sites=4"])
    @example("12K", "1e100", None, ["--model=pair"])
    def test_fit(self, series_csv, init_j, init_g, window, model):
        argv = ["fit", f"--input={series_csv}", "--spin=1", f"--init-j={init_j}"]
        argv += [f"--init-g={init_g}", *model]
        if window is not None:
            argv.append(f"--window={window}")
        assert_documented_exit(argv)


class TestFitRecoversJOrExits2:
    """From any start, a fit either returns the generating J to 1e-3 or
    exits 2; it never reports a J that the data do not determine."""

    @pytest.fixture(scope="class", params=[[], ["--model=chain", "--sites=4"]])
    def series(self, request, tmp_path_factory):
        """A noiseless series (S = 1, J = 10 K, g = 2) and the model flags."""
        path = tmp_path_factory.mktemp("series") / "series.csv"
        argv = ["synth", "--spin=1", "--j=10K", "--g=2", "--temps=1:100:12"]
        assert run([*argv, *request.param, f"--output={path}"]) == (0, "")
        return str(path), request.param

    @PROPERTY
    @given(log_j=st.floats(min_value=-300.0, max_value=300.0))
    # the plateaus far above and below the data, and the pair's local
    # minimum near J = 1.73 K, g = 1.81 (reached from 1 K)
    @example(250.0)
    @example(-250.0)
    @example(0.0)
    def test_fit(self, series, log_j):
        path, model = series
        argv = ["fit", f"--input={path}", "--spin=1", f"--init-j={10.0**log_j!r}K"]
        code, out = run([*argv, *model])
        assert code in (0, 2), (argv, code, out)
        if code == 0:
            (row,) = out.splitlines()[1:]
            assert float(row.split(",")[0]) == pytest.approx(10.0, rel=1e-3), (argv, out)
