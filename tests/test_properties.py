"""Property tests: out-of-domain CLI input exits 2 and never prints nan.

A huge but finite coupling either gives finite rows or exits 2. No input
may warn: every run treats warnings as errors.

Hypothesis is not a declared dependency; without it this module skips.
Values go in as `--flag=VALUE`, so that a negative number is not read
as an option.
"""

import contextlib
import io
import math
import warnings

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
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
