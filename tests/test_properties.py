"""Property tests: out-of-domain CLI input exits 2 and never prints nan.

A huge but finite coupling either gives finite rows or exits 2. No
subcommand exits 1 or raises, whatever its numeric flags. No input may
warn: every run treats warnings as errors. The model that `fit` binds
once per fit gives the profile residual of `model_chi`, bit for bit.

Hypothesis is not a declared dependency; without it this module skips.
Values go in as `--flag=VALUE`, so that a negative number is not read
as an option.
"""

import contextlib
import io
import math
import random
import re
import warnings
from functools import partial
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mixedspin import fitdata  # noqa: E402
from mixedspin.cli import main  # noqa: E402
from mixedspin.operators import SpinQuantum  # noqa: E402

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
# an integer beyond the float range, as a spin, a site count or --n
HUGE = str(10**400)
HUGE_INT = st.integers(min_value=2**1024, max_value=10**400).map(str)
SPIN = st.sampled_from(["1/2", "1", "3/2"]) | HUGE_INT | HUGE_INT.map(lambda n: f"{n}/2")
# chain sizes: 4 sites, or far past the dimension cap
SITES = st.just("4") | HUGE_INT
CHAIN = st.tuples(SITES, st.sampled_from([[], ["--boundary=open"]])).map(
    lambda p: ["--model=chain", f"--sites={p[0]}", *p[1]]
)
MODEL = st.just(["--model=pair"]) | CHAIN
N_SITES = st.integers(min_value=-2, max_value=12).map(str) | HUGE_INT
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
    @given(spin=SPIN, coupling=COUPLING, form=st.just([]) | CHAIN)
    # each once exited 1: 2S and the chain's size overflowed a float
    @example(HUGE, "1K", [])
    @example("1", "1K", ["--model=chain", f"--sites={HUGE}"])
    def test_tc(self, spin, coupling, form):
        assert_documented_exit(["tc", f"--spin={spin}", f"--coupling={coupling}", *form])

    @PROPERTY
    @given(
        spins=st.lists(SPIN, min_size=1, max_size=2).map(",".join),
        couplings=st.lists(COUPLING, min_size=1, max_size=2).map(",".join),
    )
    @example(f"1,{HUGE}", "1K")
    # (S - <S>)^2 once overflowed and exited 1
    @example(f"1,{6 * 10**154}", "1K")
    @example(f"1,{2 * 10**154}", "1K")
    def test_sweep(self, spins, couplings):
        assert_documented_exit(["sweep", f"--spins={spins}", f"--couplings={couplings}"])

    @PROPERTY
    @given(
        command=st.sampled_from(["witness", "bound"]),
        chi=NUMBER,
        temp=NUMBER,
        g=NUMBER,
        unit=st.sampled_from(["emu/mol", "reduced"]),
        spin=SPIN,
        n=N_SITES,
    )
    # each once exited 1: g^2 underflowed to 0, 2S and n overflowed a float
    @example("witness", "1", "1", "1e-200", "emu/mol", "1", "2")
    @example("bound", "1", "1", "2", "emu/mol", HUGE, "2")
    @example("bound", "1", "1", "2", "reduced", "1", HUGE)
    def test_witness_and_bound(self, command, chi, temp, g, unit, spin, n):
        argv = [command, f"--spin={spin}", f"--chi={chi}", f"--temp={temp}", f"--g={g}"]
        assert_documented_exit([*argv, f"--unit={unit}", f"--n={n}"])

    @PROPERTY
    @given(spin=SPIN, j=COUPLING, g=NUMBER, temps=TEMPS, model=MODEL)
    @example(HUGE, "1K", "2", "1", ["--model=pair"])
    @example("1", "1K", "2", "1", ["--model=chain", f"--sites={HUGE}"])
    def test_synth(self, spin, j, g, temps, model):
        argv = ["synth", f"--spin={spin}", f"--j={j}", f"--g={g}", f"--temps={temps}"]
        assert_documented_exit([*argv, *model])

    @PROPERTY
    @given(
        spin=SPIN,
        sites=SITES,
        coupling=COUPLING,
        temps=TEMPS,
        boundary=st.sampled_from(["periodic", "open"]),
    )
    @example(HUGE, "4", "1K", "1", "periodic")
    @example("1", HUGE, "1K", "1", "open")
    def test_chain(self, spin, sites, coupling, temps, boundary):
        argv = ["chain", f"--spin={spin}", f"--sites={sites}", f"--coupling={coupling}"]
        assert_documented_exit([*argv, f"--temps={temps}", f"--boundary={boundary}"])

    @PROPERTY
    @given(
        spin=SPIN,
        init_j=COUPLING,
        init_g=NUMBER,
        window=st.none() | st.tuples(NUMBER, NUMBER).map(":".join),
        model=MODEL,
    )
    # each once exited 1: exp(log J) overflowed, and so did a squared residual
    @example("1", "1e300K", "2", None, ["--model=pair"])
    @example("1", "1e300K", "2", None, ["--model=chain", "--sites=4"])
    @example("1", "12K", "1e100", None, ["--model=pair"])
    @example("1", "12K", "2", None, ["--model=chain", f"--sites={HUGE}"])
    def test_fit(self, series_csv, spin, init_j, init_g, window, model):
        argv = ["fit", f"--input={series_csv}", f"--spin={spin}", f"--init-j={init_j}"]
        argv += [f"--init-g={init_g}", *model]
        if window is not None:
            argv.append(f"--window={window}")
        assert_documented_exit(argv)


class TestFitRecoversJOrExits2:
    """From any start, a fit either returns the generating J or exits 2; it
    never reports a J that the data do not determine. The J must agree to
    1e-3 on a noiseless series and to 2% with 1e-3 relative noise."""

    @pytest.fixture(
        scope="class",
        params=[
            (model, noise)
            for model in (
                [],
                ["--model=chain", "--sites=4"],
                ["--model=chain", "--sites=4", "--boundary=open"],
            )
            for noise in (0.0, 1e-3)
        ],
    )
    def series(self, request, tmp_path_factory):
        """A series (S = 1, J = 10 K, g = 2) from the model it is fitted
        with, the model flags and the tolerance on J."""
        model, noise = request.param
        path = tmp_path_factory.mktemp("series") / "series.csv"
        argv = ["synth", "--spin=1", "--j=10K", "--g=2", "--temps=1:100:12"]
        assert run([*argv, *model, f"--output={path}"]) == (0, "")
        if noise:
            # seeded Gaussian noise on every chi, relative, as in the benchmark
            rng = random.Random(12)
            lines = [line for line in path.read_text().splitlines() if line[0] != "#"]
            rows = (line.split(",") for line in lines[1:])
            noisy = [f"{t},{float(x) * (1 + noise * rng.gauss(0, 1))!r}" for t, x in rows]
            path.write_text("\n".join([lines[0], *noisy]) + "\n")
        return str(path), model, 2e-2 if noise else 1e-3

    @PROPERTY
    @given(log_j=st.floats(min_value=-300.0, max_value=300.0))
    # the plateaus far above and below the data, and the pair's local
    # minimum near J = 1.73 K, g = 1.81 (reached from 1 K), and a start at
    # the generating J
    @example(250.0)
    @example(-250.0)
    @example(0.0)
    @example(1.0)
    def test_fit(self, series, log_j):
        path, model, rel = series
        argv = ["fit", f"--input={path}", "--spin=1", f"--init-j={10.0**log_j!r}K"]
        code, out = run([*argv, *model])
        assert code in (0, 2), (argv, code, out)
        if code == 0:
            (row,) = out.splitlines()[1:]
            assert float(row.split(",")[0]) == pytest.approx(10.0, rel=rel), (argv, out)


# the corpus series, each with the model that made it and its J in kelvin
BOUND_MODELS = {
    "pair": ("corpus_pair_s1.csv", SpinQuantum(2), {}, 10.0),
    "ring4": ("corpus_ring4_s3half.csv", SpinQuantum(3), {"n_sites": 4}, 12.0),
    "open6": (
        "corpus_open6_s1.csv", SpinQuantum(2), {"n_sites": 6, "boundary": "open"}, 6.0
    ),
}


@PROPERTY
@given(
    name=st.sampled_from(sorted(BOUND_MODELS)),
    coupling=st.one_of(
        # 1e-6 to 1e6 times the J of the data
        st.floats(min_value=-6.0, max_value=6.0).map(lambda u: ("scale", 10.0**u)),
        # T/J above the float range, or J near it (pair: J(2S+1) overflows)
        st.floats(min_value=5e-324, max_value=1e-300).map(lambda j: ("kelvin", j)),
        st.floats(min_value=1e300, max_value=1.7976931348623157e308).map(
            lambda j: ("kelvin", j)
        ),
        st.sampled_from([0.0, -1.0, math.inf, math.nan]).map(lambda j: ("kelvin", j)),
    ),
    step=st.sampled_from([1, 3]),
)
@example(name="ring4", coupling=("kelvin", 1e-306), step=1)
@example(name="pair", coupling=("kelvin", 5e-324), step=1)
def test_the_bound_model_gives_model_chis_profile_bit_for_bit(name, coupling, step):
    # `fit` evaluates p(J) through the model it binds once; the profile,
    # its (inf, nan) out of the float range included, is the one of
    # `model_chi`, on the whole series and on a subset as the refusal
    # grid takes it
    csv, spin, model, scale = BOUND_MODELS[name]
    series = fitdata.load_measurements(Path(__file__).with_name("data") / csv)
    temps, chi = series.temperatures_kelvin[::step], series.chi[::step]
    j = coupling[1] * scale if coupling[0] == "scale" else coupling[1]
    bound = fitdata._bind_model(spin, **model)
    checked = partial(fitdata.model_chi, spin, **model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fitdata._profile(bound, temps, chi, j)
        expected = fitdata._profile(checked, temps, chi, j)
    assert [x.hex() for x in got] == [x.hex() for x in expected]
