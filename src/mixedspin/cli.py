"""Command-line front end: every computation as a subcommand.

Subcommands emit CSV (default) or line-delimited JSON with
9-significant-digit numeric formatting, so output is byte-identical
across runs with identical flags. Each table is a list of row dicts
whose keys are its columns, named once: the CSV header is the first
row's keys, and every JSON line has the same keys in the same order.

Exit codes: 0 success, 2 usage or validation errors, 3 computational
failures (solver found no crossing, Hilbert-dimension cap exceeded, out
of memory). The environment variable MIXEDSPIN_DIM_CAP overrides the
default cap on exact-diagonalization Hilbert-space dimension. The chain
model's G1 is `thermal_mean(data, data.bond, T)` on both boundaries.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .chain import (
    DEFAULT_DIM_CAP,
    ChainSpec,
    diagonalize,
    susceptibility_exact,
    thermal_mean,
)

# unused here; the bench layer tracer wraps them by these names
from .chain import (  # noqa: F401
    correlator_matrix,
    negativity_bruteforce,
    reduced_pair_state,
)
from .fitdata import fit, load_measurements, synth_series
from .operators import SpinQuantum
from .pair import (
    characteristic_temperature,
    negativity_from_g1,
    pair_correlator_literature,
)
from .units import check_normal, kelvin_to_wavenumber, wavenumber_to_kelvin
from .witness import (
    compound_report,
    lookup_compound,
    solve_tc,
    susceptibility_nn_approx,
    sweep_tc,
    witness_report,
)

__all__ = ["main", "build_parser"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _parse_coupling(text: str) -> float:
    """'81.4cm-1' or '5.12K' -> kelvin."""
    s = text.strip()
    if s.endswith("cm-1"):
        value, to_kelvin = s[:-4], wavenumber_to_kelvin
    elif s.endswith("K"):
        value, to_kelvin = s[:-1], lambda v: v
    else:
        raise ValueError(f"coupling {text!r} needs a unit suffix 'K' or 'cm-1'")
    try:
        kelvin = to_kelvin(float(value))
    except ValueError:
        raise ValueError(f"cannot parse coupling value in {text!r}") from None
    check_normal("coupling", kelvin)
    return kelvin


# every option whose value is a coupling such as '5.12K' or '-3K'
_COUPLING_FLAGS = frozenset({"--coupling", "--couplings", "--correct-j", "--init-j", "--j"})


def _join_negative_couplings(argv: list[str]) -> list[str]:
    """Write '--coupling -3K' as '--coupling=-3K'.

    argparse reads a token that starts with '-' and is not a plain number
    as an option, so it would refuse a ferromagnetic coupling given as
    the next token. A token after a coupling flag joins it if it starts
    with '-' and a digit or '.', as no option name does.
    """
    joined: list[str] = []
    for tok in argv:
        if joined and joined[-1] in _COUPLING_FLAGS and re.match(r"-[\d.]", tok):
            joined[-1] += "=" + tok
        else:
            joined.append(tok)
    return joined


def _parse_temps(text: str) -> list[float]:
    """'START:STOP:COUNT', 'log:START:STOP:COUNT', or 'T1,T2,...'."""
    s = text.strip()
    if ":" in s:
        parts = s.split(":")
        log_spaced = False
        if parts[0] == "log":
            log_spaced = True
            parts = parts[1:]
        if len(parts) != 3:
            raise ValueError(
                f"temperature range {text!r} must be START:STOP:COUNT or log:START:STOP:COUNT"
            )
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise ValueError(f"cannot parse temperature range {text!r}") from None
        if count < 1:
            raise ValueError(f"temperature count must be >= 1, got {count}")
        if not (0.0 < start < math.inf and 0.0 < stop < math.inf):
            raise ValueError("temperatures must be finite and > 0")
        if log_spaced:
            return [float(t) for t in np.geomspace(start, stop, count)]
        return [float(t) for t in np.linspace(start, stop, count)]
    try:
        temps = [float(tok) for tok in s.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"cannot parse temperatures {text!r}") from None
    if not temps:
        raise ValueError("no temperatures given")
    return temps


def _add_spin_flags(parser: argparse.ArgumentParser, required: bool = True) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--spin", help="spin as '1/2', '1', '3/2', ...")
    group.add_argument("--twice-spin", type=int, help="integer 2S")


def _spin_from_args(args) -> SpinQuantum | None:
    if args.twice_spin is not None:
        return SpinQuantum(args.twice_spin)
    if args.spin is not None:
        return SpinQuantum.parse(args.spin)
    return None


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    parser.add_argument(
        "--output", default="-", help="output path, '-' for standard output"
    )


def _dim_cap() -> int:
    raw = os.environ.get("MIXEDSPIN_DIM_CAP")
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"MIXEDSPIN_DIM_CAP must be an integer, got {raw!r}") from None


def _add_chain_flags(
    parser: argparse.ArgumentParser, sites: int, help: str | None
) -> None:
    """--model, --sites (default `sites`) and --boundary, read by `_chain_model`."""
    parser.add_argument("--model", choices=("pair", "chain"), default="pair")
    parser.add_argument("--sites", type=int, default=sites, help=help)
    parser.add_argument("--boundary", choices=("periodic", "open"), default="periodic")


def _chain_model(args) -> dict:
    """`ChainSpec` fields, and `fitdata` keywords, of the chain model; {} for the pair.

    `chain` has no --model flag; its parser sets model to "chain". The
    dimension cap is read only here, so a bad MIXEDSPIN_DIM_CAP leaves a
    pair-model command alone.
    """
    if args.model == "pair":
        return {}
    return {"n_sites": args.sites, "boundary": args.boundary, "dim_cap": _dim_cap()}


def _fields(record) -> dict:
    """A dataclass's fields as a row, in declaration order; unlike `asdict`,
    a field that is itself a dataclass (a `SpinQuantum`) stays whole."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, SpinQuantum):
        return str(obj)
    return obj


def _json(obj) -> str:
    return json.dumps(_jsonify(obj), separators=(", ", ": "))


def _emit(args, rows, summary=None, comments=()) -> None:
    """Write `rows` (dicts whose keys are the columns), one row or JSON line
    each; a nan or inf cell raises ValueError before anything is written."""
    for row in rows:
        for name, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} is {value}, not a finite number")
    lines = []
    if args.format == "csv":
        header = list(rows[0])
        lines.extend(f"# {c}" for c in comments)
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(row[name]) for name in header) for row in rows)
        if summary is not None:
            lines.append("# summary " + _json(summary))
    else:
        lines.extend(_json(row) for row in rows)
        if summary is not None:
            lines.append(_json({"summary": summary}))
    text = "\n".join(lines) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_tc(args) -> None:
    if args.report:
        rows = [_fields(r) for r in compound_report()]
        _emit(args, [{"compound": row.pop("name"), **row} for row in rows])
        return
    spin = _spin_from_args(args)
    coupling = _parse_coupling(args.coupling) if args.coupling else None
    compound = None
    reported = None
    if args.compound:
        if spin is not None or coupling is not None:
            raise ValueError("--compound replaces --spin/--coupling; give one or the other")
        compound = lookup_compound(args.compound)
        spin = compound.spin
        coupling = compound.coupling_kelvin
        reported = compound.reported_tc_kelvin
    if spin is None or coupling is None:
        raise ValueError("need --spin and --coupling (or --compound)")
    if args.model == "pair":
        if args.correlator == "exact":
            tc = characteristic_temperature(spin, coupling)
        else:
            tc = solve_tc(
                lambda t: pair_correlator_literature(spin, coupling, t), spin, coupling
            )
    else:
        if args.correlator == "literature":
            raise ValueError("--correlator literature applies to the pair model only")
        spec = ChainSpec(spin=spin, coupling_kelvin=coupling, **_chain_model(args))
        data = diagonalize(spec, vectors=False)
        tc = solve_tc(functools.partial(thermal_mean, data, data.bond), spin, coupling)
    row = {
        "spin": spin,
        "coupling_kelvin": coupling,
        "model": args.model,
        "correlator": args.correlator,
        "tc_kelvin": tc,
    }
    if compound is not None:
        row = {
            "compound": compound.name,
            **row,
            "reported_tc_kelvin": reported,
            "relative_deviation": (
                (tc - reported) / reported if reported is not None else None
            ),
        }
    _emit(args, [row])


def _cmd_sweep(args) -> None:
    spins = [SpinQuantum.parse(tok) for tok in args.spins.split(",") if tok.strip()]
    couplings = [
        _parse_coupling(tok) for tok in args.couplings.split(",") if tok.strip()
    ]
    if not spins or not couplings:
        raise ValueError("sweep needs at least one spin and one coupling")
    result = sweep_tc(spins, couplings)
    rows = [
        {**_fields(r), "tc_over_j": r.tc_kelvin / r.coupling_kelvin}
        for r in result.rows
    ]
    summary = {
        "least_squares": _fields(result.least_squares_fit),
        "endpoints": _fields(result.endpoint_fit),
        "degenerate": result.degenerate,
    }
    _emit(args, rows, summary=summary)


def _cmd_witness(args, with_bound: bool) -> None:
    spin = _spin_from_args(args)
    correction = (
        _parse_coupling(args.correct_j)
        if with_bound and args.correct_j is not None
        else None
    )
    report = witness_report(
        chi_value=args.chi,
        chi_unit=args.unit,
        temperature_kelvin=args.temp,
        g_factor=args.g,
        n_sites=args.n,
        spin=spin,
        correction_coupling_kelvin=correction,
    )
    row = {
        "temperature_kelvin": report.temperature_kelvin,
        "chi": report.chi_input,
        "unit": report.chi_unit,
        "threshold": report.threshold,
        "witness_value": report.witness_value,
        "entangled": report.entangled,
        "verdict": report.verdict,
    }
    if with_bound:
        row["negativity_lower_bound"] = report.negativity_lower_bound
        row["correction_applied"] = report.correction_applied
    _emit(args, [row])


def _cmd_chain(args) -> None:
    spin = _spin_from_args(args)
    coupling = _parse_coupling(args.coupling)
    spec = ChainSpec(spin=spin, coupling_kelvin=coupling, **_chain_model(args))
    data = diagonalize(spec, vectors=False)
    temps = _parse_temps(args.temps)
    g1 = thermal_mean(data, data.bond, np.asarray(temps))
    # each column in one call on the array, each cell bitwise the scalar call's
    columns = {
        "temperature_kelvin": temps,
        "chi_exact_reduced": susceptibility_exact(data, np.asarray(temps)).tolist(),
        "chi_nn_reduced": susceptibility_nn_approx(args.sites, spin, g1).tolist(),
        "g1": g1.tolist(),
        "negativity": negativity_from_g1(spin, g1).tolist(),
    }
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    _emit(args, rows)


def _cmd_fit(args) -> None:
    series = load_measurements(args.input)
    spin = _spin_from_args(args)
    window = None
    if args.window is not None:
        parts = args.window.split(":")
        if len(parts) != 2:
            raise ValueError(f"window {args.window!r} must be 'TMIN:TMAX'")
        try:
            window = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise ValueError(f"cannot parse window {args.window!r}") from None
    result = fit(
        series,
        spin,
        init_coupling_kelvin=_parse_coupling(args.init_j),
        init_g_factor=args.init_g,
        window=window,
        **_chain_model(args),
    )
    row = {
        "coupling_kelvin": result.coupling_kelvin,
        "coupling_wavenumber": kelvin_to_wavenumber(result.coupling_kelvin),
        "g_factor": result.g_factor,
        "residual_rms": result.residual_rms,
        "iterations": result.iterations,
        "converged": result.converged,
        "window_min_kelvin": result.fit_window[0],
        "window_max_kelvin": result.fit_window[1],
        "n_points": result.n_points,
    }
    _emit(args, [row])


def _cmd_synth(args) -> None:
    spin = _spin_from_args(args)
    coupling = _parse_coupling(args.j)
    temps = _parse_temps(args.temps)
    series = synth_series(spin, coupling, args.g, temps, **_chain_model(args))
    comments = (
        f"model: {args.model}",
        f"spin: {spin}",
        f"coupling_kelvin: {_fmt(coupling)}",
        f"g_factor: {_fmt(float(args.g))}",
    )
    rows = [
        {"temperature_kelvin": t, "chi_emu_per_mol": x}
        for t, x in zip(series.temperatures_kelvin.tolist(), series.chi.tolist())
    ]
    _emit(args, rows, comments=comments)


def _add_tc(p_tc: argparse.ArgumentParser) -> None:
    _add_spin_flags(p_tc, required=False)
    p_tc.add_argument("--coupling", help="e.g. '81.4cm-1' or '5.12K'")
    p_tc.add_argument("--compound", help="built-in compound name")
    _add_chain_flags(p_tc, 6, "chain model size")
    p_tc.add_argument(
        "--correlator",
        choices=("exact", "literature"),
        default="exact",
        help="pair correlator form",
    )
    p_tc.add_argument(
        "--report",
        action="store_true",
        help="print computed vs reported T_c for every built-in compound",
    )
    _add_output_flags(p_tc)
    p_tc.set_defaults(run=_cmd_tc)


def _add_sweep(p_sweep: argparse.ArgumentParser) -> None:
    p_sweep.add_argument("--spins", default="1/2,1,3/2,2,5/2", help="comma list")
    p_sweep.add_argument("--couplings", default="1K", help="comma list with units")
    _add_output_flags(p_sweep)
    p_sweep.set_defaults(run=_cmd_sweep)


def _add_witness(p_w: argparse.ArgumentParser, with_bound: bool) -> None:
    p_w.add_argument("--chi", type=float, required=True)
    p_w.add_argument("--unit", choices=("emu/mol", "reduced"), default="emu/mol")
    p_w.add_argument("--temp", type=float, required=True, help="temperature in K")
    p_w.add_argument("--g", type=float, default=2.0, help="g-factor")
    p_w.add_argument("--n", type=int, default=2, help="spins per formula unit")
    _add_spin_flags(p_w)
    if with_bound:
        p_w.add_argument(
            "--correct-j",
            help="apply the finite-correlation correction at this coupling",
        )
    _add_output_flags(p_w)
    p_w.set_defaults(run=functools.partial(_cmd_witness, with_bound=with_bound))


def _add_chain(p_chain: argparse.ArgumentParser) -> None:
    _add_spin_flags(p_chain)
    p_chain.add_argument("--sites", type=int, default=4)
    p_chain.add_argument("--coupling", required=True)
    p_chain.add_argument("--boundary", choices=("periodic", "open"), default="periodic")
    p_chain.add_argument(
        "--temps",
        required=True,
        help="'START:STOP:COUNT', 'log:START:STOP:COUNT', or comma list (K)",
    )
    _add_output_flags(p_chain)
    p_chain.set_defaults(model="chain", run=_cmd_chain)


def _add_fit(p_fit: argparse.ArgumentParser) -> None:
    p_fit.add_argument("--input", required=True, help="measurement CSV path")
    _add_spin_flags(p_fit)
    _add_chain_flags(p_fit, 4, "chain model size")
    p_fit.add_argument("--init-j", required=True, help="initial coupling, e.g. '10K'")
    p_fit.add_argument("--init-g", type=float, default=2.0)
    p_fit.add_argument("--window", help="'TMIN:TMAX' in K")
    _add_output_flags(p_fit)
    p_fit.set_defaults(run=_cmd_fit)


def _add_synth(p_synth: argparse.ArgumentParser) -> None:
    _add_spin_flags(p_synth)
    p_synth.add_argument("--j", required=True, help="coupling, e.g. '10.2cm-1'")
    p_synth.add_argument("--g", type=float, required=True)
    p_synth.add_argument("--temps", required=True)
    _add_chain_flags(p_synth, 4, None)
    p_synth.add_argument("--output", default="-", help="output path, '-' for stdout")
    p_synth.set_defaults(format="csv", run=_cmd_synth)


# every subcommand, in the order --help lists it: its help and its options
_SUBCOMMANDS = {
    "tc": ("characteristic temperature", _add_tc),
    "sweep": ("T_c over a (spin, coupling) grid", _add_sweep),
    "witness": (
        "witness for one measurement",
        functools.partial(_add_witness, with_bound=False),
    ),
    "bound": (
        "negativity lower bound from one measurement",
        functools.partial(_add_witness, with_bound=True),
    ),
    "chain": ("exact diagonalization columns", _add_chain),
    "fit": ("fit J and g to a measurement CSV", _add_fit),
    "synth": ("write a noiseless model series CSV", _add_synth),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole parser, or with `command` one holding only that subcommand.

    Both print the same usage, help and errors for that subcommand: a
    parser for one spells out every subcommand in its usage line.
    """
    parser = argparse.ArgumentParser(
        prog="mixedspin",
        description="Thermal entanglement in mixed-spin (S, 1/2) Heisenberg chains.",
        epilog="Environment: MIXEDSPIN_DIM_CAP overrides the Hilbert-dimension cap.",
    )
    every = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name, (summary, add_options) in _SUBCOMMANDS.items():
        if command in (None, name):
            add_options(sub.add_parser(name, help=summary))
    return parser


def main(argv=None) -> int:
    argv = _join_negative_couplings(sys.argv[1:] if argv is None else list(argv))
    # a job runs one subcommand, so only its options are built; no
    # subcommand, --help or an unknown one takes the whole parser
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory; lower MIXEDSPIN_DIM_CAP", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
