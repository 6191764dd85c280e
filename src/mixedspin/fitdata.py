"""Measured-susceptibility ingestion, model curves, and (J, g) fitting.

CSV input: header `temperature_kelvin,chi_emu_per_mol` (or `chi_reduced`),
comma-separated, `#` comment lines ignored, UTF-8 (a leading byte-order
mark is dropped), decimal point only. Comment lines of the form
`# key: value` are collected as metadata.

Molar susceptibilities are per mole of formula units, one (S, 1/2) cell
of 2 spins per formula unit. Chain models with more sites are rescaled
to that 2-spin cell so every model is comparable to the same data.

Fitting minimizes the plain sum of squared residuals in emu/mol over
(log J, g) with a deterministic derivative-free simplex. log J keeps the
coupling positive without constraints. Reduced-unit series cannot be
fitted: the g-factor divides out of reduced susceptibility, so g would
be unidentifiable.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .chain import (
    DEFAULT_DIM_CAP,
    ChainSpec,
    SectorSpectralData,
    diagonalize,
    susceptibility_exact,
)
from .operators import SpinQuantum
from .pair import pair_correlator
from .units import (
    _reduced_to_emu_per_mol,
    check_finite,
    check_positive,
    chi_emu_per_mol_to_reduced,
)
from .witness import WitnessReport, susceptibility_nn_approx, witness_report

__all__ = [
    "MeasurementSeries",
    "load_measurements",
    "model_chi",
    "synth_series",
    "nelder_mead",
    "FitResult",
    "fit",
    "bound_series",
]

_HEADERS = {
    "chi_emu_per_mol": "emu/mol",
    "chi_reduced": "reduced",
}

SPINS_PER_FORMULA_UNIT = 2


@dataclass(frozen=True, eq=False)
class MeasurementSeries:
    """A susceptibility-vs-temperature series in one declared unit."""

    temperatures_kelvin: np.ndarray
    chi: np.ndarray
    unit: str
    metadata: dict[str, str]

    def __post_init__(self) -> None:
        if self.unit not in ("emu/mol", "reduced"):
            raise ValueError(f"unit must be 'emu/mol' or 'reduced', got {self.unit!r}")
        t = self.temperatures_kelvin
        if t.size != self.chi.size:
            raise ValueError("temperature and chi arrays differ in length")
        check_positive("temperature", t)
        check_finite("susceptibility", self.chi)
        if np.any(np.diff(t) <= 0.0):
            k = int(np.flatnonzero(np.diff(t) <= 0.0)[0])
            raise ValueError(
                f"temperatures must be strictly increasing, got {t[k]} then {t[k + 1]}"
            )

    def __len__(self) -> int:
        return int(self.temperatures_kelvin.size)


def load_measurements(source) -> MeasurementSeries:
    """Parse a measurement CSV from a path, text, or binary stream.

    Malformed rows fail with their line number; temperatures must be
    positive and strictly increasing.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8-sig")
    else:
        raw = source.read()
        text = raw.decode("utf-8-sig") if isinstance(raw, bytes) else raw
    metadata: dict[str, str] = {}
    unit: str | None = None
    temps: list[float] = []
    chis: list[float] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if ":" in body:
                key, _, value = body.partition(":")
                metadata[key.strip()] = value.strip()
            continue
        fields = next(csv.reader(io.StringIO(stripped)))
        fields = [f.strip() for f in fields]
        if unit is None:
            if len(fields) != 2 or fields[0] != "temperature_kelvin" or fields[1] not in _HEADERS:
                raise ValueError(
                    f"line {lineno}: expected header 'temperature_kelvin,chi_emu_per_mol'"
                    f" or 'temperature_kelvin,chi_reduced', got {stripped!r}"
                )
            unit = _HEADERS[fields[1]]
            continue
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 2 fields, got {len(fields)}")
        try:
            t = float(fields[0])
            x = float(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: cannot parse {stripped!r}") from None
        if not math.isfinite(t) or not math.isfinite(x):
            raise ValueError(f"line {lineno}: non-finite value in {stripped!r}")
        if t <= 0.0:
            raise ValueError(f"line {lineno}: temperature must be > 0, got {t}")
        if temps and t <= temps[-1]:
            raise ValueError(
                f"line {lineno}: temperatures must be strictly increasing, "
                f"got {temps[-1]} then {t}"
            )
        temps.append(t)
        chis.append(x)
    if unit is None:
        raise ValueError("no header line found")
    return MeasurementSeries(
        temperatures_kelvin=np.asarray(temps),
        chi=np.asarray(chis),
        unit=unit,
        metadata=metadata,
    )


@lru_cache(maxsize=8)
def _unit_coupling_spectrum(
    twice_spin: int, n_sites: int, boundary: str, dim_cap: int | None
) -> SectorSpectralData:
    # H is linear in J, so the J=1 spectrum serves every coupling:
    # observables at (J, T) equal observables at (1, T/J). chi needs only
    # the levels and their Sz, so no eigenvectors are computed.
    spec = ChainSpec(
        n_sites=n_sites,
        spin=SpinQuantum(twice_spin),
        coupling_kelvin=1.0,
        boundary=boundary,
        dim_cap=dim_cap or DEFAULT_DIM_CAP,
    )
    return diagonalize(spec, vectors=False)


def model_chi(
    spin: SpinQuantum,
    coupling_kelvin: float,
    g_factor: float,
    temperature_kelvin: float | np.ndarray,
    *,
    n_sites: int | None = None,
    boundary: str = "periodic",
    dim_cap: int | None = None,
) -> float | np.ndarray:
    """Model susceptibility in emu per mole of 2-spin formula units.

    n_sites picks the model. None: the pair model, the nearest-neighbor
    form with the exact pair correlator, chi_tilde = 2 (1/8 + S^2/2 +
    G1/3) per cell; `boundary` and `dim_cap` are unused. An integer: the
    chain model, exact diagonalization of n_sites sites with the given
    boundary and dimension cap, rescaled by 2/n_sites to the same
    per-cell convention.

    A float for a scalar temperature; for an array of temperatures, an
    array of the same shape whose elements equal the scalar calls
    bitwise. The pair correlator takes the whole array in one call, and
    stays a per-point `math.exp` closed form (`pair_correlator`).

    Each input is checked once per call: J and the temperatures by
    `pair_correlator` in the pair model and here in the chain model,
    T/J by `susceptibility_exact`, and g by the conversion to emu/mol.
    """
    temps = np.asarray(temperature_kelvin, dtype=float)
    if n_sites is None:
        g1 = pair_correlator(spin, coupling_kelvin, temps)
        chi_cell = susceptibility_nn_approx(SPINS_PER_FORMULA_UNIT, spin, g1)
    else:
        check_positive("temperature", temps)
        check_positive("coupling", coupling_kelvin)
        data = _unit_coupling_spectrum(spin.twice_spin, n_sites, boundary, dim_cap)
        with np.errstate(over="ignore", under="ignore"):  # rejected just below
            reduced_temps = temps / coupling_kelvin
        try:
            # `susceptibility_exact` checks T/J, as it checks every
            # temperature; the message names T and J instead
            chi_total = susceptibility_exact(data, reduced_temps)
        except ValueError:
            bad = ~((reduced_temps > 0.0) & np.isfinite(reduced_temps))
            k = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"T/J at T = {float(temps.flat[k])} K, J = {coupling_kelvin} K "
                f"is {float(reduced_temps.flat[k])}; it must be finite and > 0"
            ) from None
        chi_cell = chi_total * SPINS_PER_FORMULA_UNIT / n_sites
    # the temperatures are checked above, and chi_cell is finite
    chi = _reduced_to_emu_per_mol(chi_cell, temps, g_factor)
    return chi if temps.ndim else float(chi)


def synth_series(
    spin: SpinQuantum,
    coupling_kelvin: float,
    g_factor: float,
    temperatures_kelvin: Sequence[float],
    *,
    n_sites: int | None = None,
    boundary: str = "periodic",
    dim_cap: int | None = None,
) -> MeasurementSeries:
    """Noiseless `model_chi` series in emu/mol, for round-trip tests and demos."""
    temps = np.asarray(sorted(float(t) for t in temperatures_kelvin))
    chi = model_chi(
        spin,
        coupling_kelvin,
        g_factor,
        temps,
        n_sites=n_sites,
        boundary=boundary,
        dim_cap=dim_cap,
    )
    return MeasurementSeries(
        temperatures_kelvin=temps, chi=chi, unit="emu/mol", metadata={}
    )


_MAX_ITERATIONS = 2000
_REL_TOL = 1e-9


def nelder_mead(
    objective: Callable[[np.ndarray], float], x0: Sequence[float]
) -> tuple[np.ndarray, float, int, bool, list[float]]:
    """Deterministic derivative-free simplex descent.

    Standard reflection/expansion/contraction/shrink coefficients
    (1, 2, 0.5, 0.5). Initial simplex: x0 plus a 5% step per coordinate
    (0.00025 absolute for zero coordinates). Converged when the simplex
    diameter falls below _REL_TOL relative to the best vertex, else
    stopped after _MAX_ITERATIONS iterations. Returns
    (x_best, f_best, iterations, converged, best_history); best_history
    is non-increasing by construction; a step that breaks this (a NaN
    objective value) raises RuntimeError.
    """
    x0 = np.asarray(x0, dtype=float)
    ndim = x0.size
    simplex = [x0.copy()]
    for k in range(ndim):
        vertex = x0.copy()
        # a Python float product: an overflow is inf, with no numpy warning
        vertex[k] = float(x0[k]) * 1.05 if x0[k] != 0.0 else 0.00025
        simplex.append(vertex)
    values = [float(objective(v)) for v in simplex]
    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if history and not values[0] <= history[-1]:
            raise RuntimeError(
                f"simplex best worsened from {history[-1]} to {values[0]}"
            )
        history.append(values[0])
        scale = max(1.0, float(np.max(np.abs(simplex[0]))))
        diameter = max(
            float(np.max(np.abs(v - simplex[0]))) for v in simplex[1:]
        )
        if diameter <= _REL_TOL * scale:
            converged = True
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_reflected = float(objective(reflected))
        if f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_expanded = float(objective(expanded))
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
                f_contracted = float(objective(contracted))
                if f_contracted <= f_reflected:
                    simplex[-1], values[-1] = contracted, f_contracted
                else:
                    simplex, values = _shrink(objective, simplex, values)
            else:
                contracted = centroid - 0.5 * (centroid - worst)
                f_contracted = float(objective(contracted))
                if f_contracted < values[-1]:
                    simplex[-1], values[-1] = contracted, f_contracted
                else:
                    simplex, values = _shrink(objective, simplex, values)
    best = int(np.argmin(values))
    return simplex[best].copy(), float(values[best]), iterations, converged, history


def _shrink(objective, simplex, values):
    best = simplex[0]
    new_simplex = [best]
    new_values = [values[0]]
    for vertex in simplex[1:]:
        shrunk = best + 0.5 * (vertex - best)
        new_simplex.append(shrunk)
        new_values.append(float(objective(shrunk)))
    return new_simplex, new_values


def _rms(values: np.ndarray) -> float:
    """Root mean square, with no overflow in the squares."""
    return math.hypot(*values.tolist()) / math.sqrt(values.size)


def _fit_g_squared(unit: np.ndarray, chi: np.ndarray) -> tuple[float, float]:
    """(|g^2 unit - chi|, g^2) at the least-squares g^2 of chi ~ g^2 unit,
    or (inf, nan) where that g^2 is not positive and finite."""
    with np.errstate(over="ignore"):
        norm, overlap = float(unit @ unit), float(chi @ unit)
    if not (0.0 < norm < math.inf and 0.0 < overlap < math.inf):
        return math.inf, math.nan
    g_squared = overlap / norm
    return math.hypot(*(g_squared * unit - chi).tolist()), g_squared


def _moves(
    model: Callable[..., np.ndarray],
    coupling: float,
    g_factor: float,
    temps: np.ndarray,
) -> list[float]:
    """The rms by which scaling J by 2 and by 1/2 moves `model(J, g, temps)`,
    nan where the scaled model leaves the float range (no evidence either
    way)."""
    at = model(coupling, g_factor, temps)
    moves = []
    for factor in (2.0, 0.5):
        try:
            moves.append(_rms(model(coupling * factor, g_factor, temps) - at))
        except (OverflowError, ValueError):
            moves.append(math.nan)
    return moves


def _check_determined(
    model: Callable[..., np.ndarray],
    temps: np.ndarray,
    chi: np.ndarray,
    coupling: float,
    g_factor: float,
    residual_rms: float,
    reached: str,
) -> None:
    """Raise ValueError, starting with `reached`, unless the data pin the
    fitted J. `model(J, g, temps)` is the fit's model.

    Plateau: far above or below the data's temperatures chi no longer
    depends on J, and the simplex shrinks along g until it passes its
    diameter test. So scaling J by 2 or by 1/2 must move the model by more
    than the residual rms. Other minimum: no other minimum of the residual
    over J may fit the data better. chi is g^2 times the g = 1 model, so
    the best g at a given J is a linear least-squares fit, and the residual
    over J costs one model evaluation per J: it is sampled on a log grid of
    4 points per decade, from T_min/100 to 100 T_max. A grid point outside
    [J/2, 2J] counts as another minimum if its residual is below the fit's
    and no larger than its two neighbours', and if it passes the plateau
    test at its own residual rms: where the residual only falls toward a
    plateau, a fit started nearer would end there and be refused too. A
    narrower minimum between grid points goes unseen. The residual over
    every k-th point alone, at its own best g, is no larger than the whole
    one, so a J that this subset of about 8 points already puts above the
    fit's residual is not evaluated on the whole series: it cannot be
    another minimum, and as a neighbour its bound compares the same way.
    """
    moves = _moves(model, coupling, g_factor, temps)
    if not any(move > residual_rms for move in moves):
        raise ValueError(
            f"{reached}, where the data do not determine J: scaling J by 2 or by "
            f"1/2 moves the model by no more than the residual rms {residual_rms} "
            f"emu/mol (by {moves[0]} and {moves[1]})"
        )
    # residuals compared as |r| = rms sqrt(n)
    bound = residual_rms * math.sqrt(temps.size) * (1.0 - 1e-6)
    lo, hi = math.log(temps[0]) - math.log(100.0), math.log(temps[-1]) + math.log(100.0)
    steps = math.ceil(4.0 * (hi - lo) / math.log(10.0))
    grid = [math.exp(lo + (hi - lo) * k / steps) for k in range(steps + 1)]
    sub = slice(None, None, max(1, temps.size // 8))
    profile = []
    for j in grid:
        try:
            point = _fit_g_squared(model(j, 1.0, temps[sub]), chi[sub])
            if not bound <= point[0] < math.inf:
                point = _fit_g_squared(model(j, 1.0, temps), chi)
        except (OverflowError, ValueError):
            point = (math.inf, math.nan)
        profile.append(point)
    residuals = [residual for residual, _ in profile]
    for k in sorted(range(1, steps), key=residuals.__getitem__):
        j, (residual, g_squared) = grid[k], profile[k]
        if not residual < bound:
            return
        if j / 2.0 <= coupling <= 2.0 * j or residual > min(
            residuals[k - 1], residuals[k + 1]
        ):
            continue
        g, rms = math.sqrt(g_squared), residual / math.sqrt(temps.size)
        try:
            if not any(move > rms for move in _moves(model, j, g, temps)):
                continue
        except (OverflowError, ValueError):
            continue
        raise ValueError(
            f"{reached}, a local minimum: J = {j} K, g = {g} fits the data better "
            f"(residual rms {rms} against {residual_rms} emu/mol); start nearer "
            "to it"
        )


@dataclass(frozen=True)
class FitResult:
    """Fitted coupling and g-factor with convergence diagnostics."""

    coupling_kelvin: float
    g_factor: float
    residual_rms: float
    iterations: int
    converged: bool
    fit_window: tuple[float, float]
    n_points: int


def fit(
    series: MeasurementSeries,
    spin: SpinQuantum,
    init_coupling_kelvin: float,
    init_g_factor: float,
    *,
    n_sites: int | None = None,
    boundary: str = "periodic",
    dim_cap: int | None = None,
    window: tuple[float, float] | None = None,
) -> FitResult:
    """Least-squares fit of (J, g) to a molar susceptibility series.

    The model is `model_chi`'s: the pair for n_sites None, else the
    n_sites chain. Non-convergence is not an exception: the best-so-far
    parameters come back with converged=False. A step that leaves the
    float range raises ValueError, naming the start values, and so does
    a result whose J the data do not pin (`_check_determined`): one where
    scaling J by 2 and by 1/2 moves the model by no more than the residual
    rms, or where another minimum of the residual over J, outside
    [J/2, 2J] and off such a plateau, fits the data better.
    """
    if series.unit != "emu/mol":
        raise ValueError(
            "fit needs an emu/mol series; reduced susceptibility has the "
            "g-factor divided out, so g would be unidentifiable"
        )
    check_positive("initial coupling", init_coupling_kelvin)
    check_positive("initial g-factor", init_g_factor)
    temps = series.temperatures_kelvin
    chi = series.chi
    if window is not None:
        t_lo, t_hi = window
        if t_lo > t_hi:
            raise ValueError(f"window {window} has min above max")
        mask = (temps >= t_lo) & (temps <= t_hi)
        temps = temps[mask]
        chi = chi[mask]
    if temps.size < 4:
        raise ValueError(
            f"need at least 4 points for a 2-parameter fit, got {temps.size}"
        )

    if n_sites is not None:  # a bad chain spec fails here, with its own message
        _unit_coupling_spectrum(spin.twice_spin, n_sites, boundary, dim_cap)
    measured = chi.tolist()

    def model(
        coupling_kelvin: float, g_factor: float, at: np.ndarray = temps
    ) -> np.ndarray:
        return model_chi(
            spin,
            coupling_kelvin,
            g_factor,
            at,
            n_sites=n_sites,
            boundary=boundary,
            dim_cap=dim_cap,
        )

    def objective(params: np.ndarray) -> float:
        if not params[1] > 0.0:
            # chi depends on g^2 only; keep the simplex on the g > 0 branch
            return math.inf
        try:
            model_values = model(math.exp(params[0]), params[1])
            # left to right, and ** (libm pow) rather than an array square,
            # so every value is bitwise that of a point-by-point loop
            total = sum((m - x) ** 2 for m, x in zip(model_values.tolist(), measured))
            if total < math.inf:
                return total
        except (OverflowError, ValueError):
            pass
        # an inf objective could let the simplex "converge" far from the data
        raise ValueError(
            f"the fit from J = {init_coupling_kelvin} K, g = {init_g_factor} reached "
            f"J = exp({params[0]}) K, g = {params[1]}, where J, the model or a "
            "squared residual leaves the float range"
        )

    x_best, f_best, iterations, converged, _ = nelder_mead(
        objective, [math.log(init_coupling_kelvin), init_g_factor]
    )
    coupling, g_factor = math.exp(x_best[0]), float(x_best[1])
    residual_rms = math.sqrt(f_best / temps.size)
    reached = (
        f"the fit from J = {init_coupling_kelvin} K, g = {init_g_factor} reached "
        f"J = {coupling} K, g = {g_factor}"
    )
    _check_determined(model, temps, chi, coupling, g_factor, residual_rms, reached)
    return FitResult(
        coupling_kelvin=coupling,
        g_factor=g_factor,
        residual_rms=residual_rms,
        iterations=iterations,
        converged=converged,
        fit_window=(float(temps[0]), float(temps[-1])),
        n_points=int(temps.size),
    )


def bound_series(
    series: MeasurementSeries,
    spin: SpinQuantum,
    g_factor: float,
    *,
    correction_coupling_kelvin: float | None = None,
) -> tuple[WitnessReport, ...]:
    """Per-point `witness_report` of a measured series, in reduced units.

    Each formula unit carries SPINS_PER_FORMULA_UNIT spins. Points with a
    nonpositive bound certify nothing ("no entanglement detected"), they
    are still reported. The optional correction applies the
    finite-correlation polynomial with the pair correlator at the given
    coupling. A negative susceptibility raises ValueError, as in
    `witness_report`.
    """
    emu = series.unit == "emu/mol"
    return tuple(
        witness_report(
            chi_emu_per_mol_to_reduced(x, t, g_factor) if emu else x,
            "reduced",
            t,
            g_factor,
            SPINS_PER_FORMULA_UNIT,
            spin,
            correction_coupling_kelvin=correction_coupling_kelvin,
        )
        for t, x in zip(series.temperatures_kelvin.tolist(), series.chi.tolist())
    )
