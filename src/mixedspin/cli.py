"""Command-line front end: every computation as a subcommand.

Subcommands emit CSV (default) or line-delimited JSON with stable column
order and 9-significant-digit numeric formatting, so output is
byte-identical across runs with identical flags.

Exit codes: 0 success, 2 usage or validation errors, 3 computational
failures (solver found no crossing, Hilbert-dimension cap exceeded).
The environment variable MIXEDSPIN_DIM_CAP overrides the default cap on
exact-diagonalization Hilbert-space dimension.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .chain import (
    DEFAULT_DIM_CAP,
    ChainSpec,
    bond_levels,
    diagonalize,
    mean_energy,
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
from .units import kelvin_to_wavenumber, wavenumber_to_kelvin
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


def _json_value(value):
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, SpinQuantum):
        return str(value)
    return value


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
        return to_kelvin(float(value))
    except ValueError:
        raise ValueError(f"cannot parse coupling value in {text!r}") from None


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
    if getattr(args, "twice_spin", None) is not None:
        return SpinQuantum(args.twice_spin)
    if getattr(args, "spin", None) is not None:
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


def _emit(args, fieldnames, rows, summary=None, comments=()) -> None:
    lines = []
    if args.format == "csv":
        lines.extend(f"# {c}" for c in comments)
        lines.append(",".join(fieldnames))
        for row in rows:
            lines.append(",".join(_fmt(row[name]) for name in fieldnames))
        if summary is not None:
            lines.append(
                "# summary " + json.dumps(_jsonify(summary), separators=(", ", ": "))
            )
    else:
        for row in rows:
            lines.append(json.dumps(_jsonify(row), separators=(", ", ": ")))
        if summary is not None:
            lines.append(
                json.dumps({"summary": _jsonify(summary)}, separators=(", ", ": "))
            )
    text = "\n".join(lines) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    return _json_value(obj)


def _chain_spectrum(spec: ChainSpec):
    return diagonalize(spec, vectors=spec.boundary == "open")


def _chain_g1(data):
    """G1(T) = <S_0 . S_1> as a function of one temperature or an array.

    On a ring every bond is equivalent, so G1 = <H>/(nJ) from the levels
    alone. On an open chain the edge bond's per-level values are computed
    here, once per spectrum; every G1(T) is then a Boltzmann average
    over the levels.
    """
    spec = data.spec
    if spec.boundary == "periodic":
        scale = spec.n_sites * spec.coupling_kelvin
        return lambda t: mean_energy(data, t) / scale
    edge = bond_levels(data, (0, 1))
    return lambda t: thermal_mean(data, edge, t)


def _cmd_tc(args) -> None:
    if args.report:
        fieldnames = [
            "compound",
            "spin",
            "coupling_kelvin",
            "computed_tc_kelvin",
            "literature_variant_tc_kelvin",
            "reported_tc_kelvin",
            "relative_deviation",
            "matches_reported",
        ]
        rows = [
            {
                "compound": r.name,
                "spin": str(r.spin),
                "coupling_kelvin": r.coupling_kelvin,
                "computed_tc_kelvin": r.computed_tc_kelvin,
                "literature_variant_tc_kelvin": r.literature_variant_tc_kelvin,
                "reported_tc_kelvin": r.reported_tc_kelvin,
                "relative_deviation": r.relative_deviation,
                "matches_reported": r.matches_reported,
            }
            for r in compound_report()
        ]
        _emit(args, fieldnames, rows)
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
        spec = ChainSpec(
            n_sites=args.sites,
            spin=spin,
            coupling_kelvin=coupling,
            boundary=args.boundary,
            dim_cap=_dim_cap(),
        )
        data = _chain_spectrum(spec)
        tc = solve_tc(_chain_g1(data), spin, coupling)
    row = {
        "spin": str(spin),
        "coupling_kelvin": coupling,
        "model": args.model,
        "correlator": args.correlator,
        "tc_kelvin": tc,
    }
    fieldnames = list(row)
    if compound is not None:
        row["compound"] = compound.name
        row["reported_tc_kelvin"] = reported
        row["relative_deviation"] = (
            (tc - reported) / reported if reported is not None else None
        )
        fieldnames = ["compound", *fieldnames, "reported_tc_kelvin", "relative_deviation"]
    _emit(args, fieldnames, [row])


def _cmd_sweep(args) -> None:
    spins = [SpinQuantum.parse(tok) for tok in args.spins.split(",") if tok.strip()]
    couplings = [
        _parse_coupling(tok) for tok in args.couplings.split(",") if tok.strip()
    ]
    if not spins or not couplings:
        raise ValueError("sweep needs at least one spin and one coupling")
    result = sweep_tc(spins, couplings)
    fieldnames = ["spin", "coupling_kelvin", "tc_kelvin", "tc_over_j"]
    rows = [
        {
            "spin": str(r.spin),
            "coupling_kelvin": r.coupling_kelvin,
            "tc_kelvin": r.tc_kelvin,
            "tc_over_j": r.tc_kelvin / r.coupling_kelvin,
        }
        for r in result.rows
    ]
    summary = {
        "least_squares": {
            "slope": result.least_squares_fit.slope,
            "intercept": result.least_squares_fit.intercept,
            "r_squared": result.least_squares_fit.r_squared,
        },
        "endpoints": {
            "slope": result.endpoint_fit.slope,
            "intercept": result.endpoint_fit.intercept,
            "r_squared": result.endpoint_fit.r_squared,
        },
        "degenerate": result.degenerate,
    }
    _emit(args, fieldnames, rows, summary=summary)


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
    if report.witness_value < 0.0:
        verdict = "entangled"
    elif report.witness_value == 0.0:
        verdict = "separable boundary"
    else:
        verdict = "not detected"
    row = {
        "temperature_kelvin": report.temperature_kelvin,
        "chi": report.chi_input,
        "unit": report.chi_unit,
        "threshold": report.threshold,
        "witness_value": report.witness_value,
        "entangled": report.entangled,
        "verdict": verdict,
    }
    if with_bound:
        row["negativity_lower_bound"] = report.negativity_lower_bound
        row["correction_applied"] = report.correction_applied
    _emit(args, list(row), [row])


def _cmd_chain(args) -> None:
    spin = _spin_from_args(args)
    coupling = _parse_coupling(args.coupling)
    spec = ChainSpec(
        n_sites=args.sites,
        spin=spin,
        coupling_kelvin=coupling,
        boundary=args.boundary,
        dim_cap=_dim_cap(),
    )
    data = _chain_spectrum(spec)
    temps = _parse_temps(args.temps)
    fieldnames = [
        "temperature_kelvin",
        "chi_exact_reduced",
        "chi_nn_reduced",
        "g1",
        "negativity",
    ]
    chis = susceptibility_exact(data, np.asarray(temps)).tolist()
    g1s = _chain_g1(data)(np.asarray(temps)).tolist()
    rows = [
        {
            "temperature_kelvin": t,
            "chi_exact_reduced": chi,
            "chi_nn_reduced": susceptibility_nn_approx(args.sites, spin, g1),
            "g1": g1,
            "negativity": negativity_from_g1(spin, g1),
        }
        for t, chi, g1 in zip(temps, chis, g1s)
    ]
    _emit(args, fieldnames, rows)


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
        model=args.model,
        n_sites=args.sites if args.model == "chain" else None,
        boundary=args.boundary,
        dim_cap=_dim_cap() if args.model == "chain" else None,
        window=window,
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
    _emit(args, list(row), [row])


def _cmd_synth(args) -> None:
    spin = _spin_from_args(args)
    coupling = _parse_coupling(args.j)
    temps = _parse_temps(args.temps)
    series = synth_series(
        spin,
        coupling,
        args.g,
        temps,
        model=args.model,
        n_sites=args.sites if args.model == "chain" else None,
        boundary=args.boundary,
        dim_cap=_dim_cap() if args.model == "chain" else None,
    )
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
    _emit(args, ["temperature_kelvin", "chi_emu_per_mol"], rows, comments=comments)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedspin",
        description="Thermal entanglement in mixed-spin (S, 1/2) Heisenberg chains.",
        epilog="Environment: MIXEDSPIN_DIM_CAP overrides the Hilbert-dimension cap.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tc = sub.add_parser("tc", help="characteristic temperature")
    _add_spin_flags(p_tc, required=False)
    p_tc.add_argument("--coupling", help="e.g. '81.4cm-1' or '5.12K'")
    p_tc.add_argument("--compound", help="built-in compound name")
    p_tc.add_argument("--model", choices=("pair", "chain"), default="pair")
    p_tc.add_argument("--sites", type=int, default=6, help="chain model size")
    p_tc.add_argument("--boundary", choices=("periodic", "open"), default="periodic")
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

    p_sweep = sub.add_parser("sweep", help="T_c over a (spin, coupling) grid")
    p_sweep.add_argument("--spins", default="1/2,1,3/2,2,5/2", help="comma list")
    p_sweep.add_argument("--couplings", default="1K", help="comma list with units")
    _add_output_flags(p_sweep)

    for name, with_bound in (("witness", False), ("bound", True)):
        p_w = sub.add_parser(
            name,
            help=(
                "negativity lower bound from one measurement"
                if with_bound
                else "witness for one measurement"
            ),
        )
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

    p_chain = sub.add_parser("chain", help="exact diagonalization columns")
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

    p_fit = sub.add_parser("fit", help="fit J and g to a measurement CSV")
    p_fit.add_argument("--input", required=True, help="measurement CSV path")
    _add_spin_flags(p_fit)
    p_fit.add_argument("--model", choices=("pair", "chain"), default="pair")
    p_fit.add_argument("--sites", type=int, default=4, help="chain model size")
    p_fit.add_argument("--boundary", choices=("periodic", "open"), default="periodic")
    p_fit.add_argument("--init-j", required=True, help="initial coupling, e.g. '10K'")
    p_fit.add_argument("--init-g", type=float, default=2.0)
    p_fit.add_argument("--window", help="'TMIN:TMAX' in K")
    _add_output_flags(p_fit)

    p_synth = sub.add_parser("synth", help="write a noiseless model series CSV")
    _add_spin_flags(p_synth)
    p_synth.add_argument("--j", required=True, help="coupling, e.g. '10.2cm-1'")
    p_synth.add_argument("--g", type=float, required=True)
    p_synth.add_argument("--temps", required=True)
    p_synth.add_argument("--model", choices=("pair", "chain"), default="pair")
    p_synth.add_argument("--sites", type=int, default=4)
    p_synth.add_argument("--boundary", choices=("periodic", "open"), default="periodic")
    p_synth.add_argument("--output", default="-", help="output path, '-' for stdout")
    p_synth.set_defaults(format="csv")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if args.command == "tc":
            _cmd_tc(args)
        elif args.command == "sweep":
            _cmd_sweep(args)
        elif args.command == "witness":
            _cmd_witness(args, with_bound=False)
        elif args.command == "bound":
            _cmd_witness(args, with_bound=True)
        elif args.command == "chain":
            _cmd_chain(args)
        elif args.command == "fit":
            _cmd_fit(args)
        elif args.command == "synth":
            _cmd_synth(args)
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
