"""Measured-susceptibility ingestion, model curves, and (J, g) fitting.

CSV input: header `temperature_kelvin,chi_emu_per_mol` (or `chi_reduced`),
comma-separated, `#` comment lines ignored, UTF-8, decimal point only.
Comment lines of the form `# key: value` are collected as metadata.

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

from .chain import ChainSpec, SectorSpectralData, diagonalize, susceptibility_exact
from .operators import SpinQuantum
from .pair import pair_correlator
from .units import (
    check_finite,
    check_positive,
    chi_emu_per_mol_to_reduced,
    chi_reduced_to_emu_per_mol,
)
from .witness import corrected_bound, negativity_lower_bound, witness_value

__all__ = [
    "MeasurementSeries",
    "load_measurements",
    "model_chi",
    "synth_series",
    "nelder_mead",
    "FitResult",
    "fit",
    "BoundPoint",
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
        text = Path(source).read_text(encoding="utf-8")
    else:
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
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
    twice_spin: int, n_sites: int, boundary: str, dim_cap: int
) -> SectorSpectralData:
    # H is linear in J, so the J=1 spectrum serves every coupling:
    # observables at (J, T) equal observables at (1, T/J). chi needs only
    # the levels and their Sz, so no eigenvectors are computed.
    spec = ChainSpec(
        n_sites=n_sites,
        spin=SpinQuantum(twice_spin),
        coupling_kelvin=1.0,
        boundary=boundary,
        dim_cap=dim_cap,
    )
    return diagonalize(spec, vectors=False)


def model_chi(
    spin: SpinQuantum,
    coupling_kelvin: float,
    g_factor: float,
    temperature_kelvin: float | np.ndarray,
    *,
    model: str = "pair",
    n_sites: int | None = None,
    boundary: str = "periodic",
    dim_cap: int | None = None,
) -> float | np.ndarray:
    """Model susceptibility in emu per mole of 2-spin formula units.

    model 'pair': nearest-neighbor form with the exact pair correlator,
    chi_tilde = 2 (1/8 + S^2/2 + G1/3) per cell. model 'chain': exact
    diagonalization of n_sites sites, rescaled by 2/n_sites to the same
    per-cell convention.

    A float for a scalar temperature; for an array of temperatures, an
    array of the same shape whose elements equal the scalar calls
    bitwise. The pair correlator stays a per-point `math.exp` closed
    form, since `np.exp` may round differently.
    """
    check_positive("temperature", temperature_kelvin)
    check_positive("coupling", coupling_kelvin)
    temps = np.asarray(temperature_kelvin, dtype=float)
    if model == "pair":
        g1 = np.array(
            [pair_correlator(spin, coupling_kelvin, t) for t in temps.ravel().tolist()]
        ).reshape(temps.shape)
        s = spin.value
        chi_cell = SPINS_PER_FORMULA_UNIT * (0.125 + s * s / 2.0 + g1 / 3.0)
    elif model == "chain":
        if n_sites is None:
            raise ValueError("chain model needs n_sites")
        from .chain import DEFAULT_DIM_CAP

        data = _unit_coupling_spectrum(
            spin.twice_spin, n_sites, boundary, dim_cap or DEFAULT_DIM_CAP
        )
        with np.errstate(over="ignore", under="ignore"):  # rejected just below
            reduced_temps = temps / coupling_kelvin
        bad = ~((reduced_temps > 0.0) & np.isfinite(reduced_temps))
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"T/J at T = {float(temps.flat[k])} K, J = {coupling_kelvin} K "
                f"is {float(reduced_temps.flat[k])}; it must be finite and > 0"
            )
        chi_total = susceptibility_exact(data, reduced_temps)
        chi_cell = chi_total * SPINS_PER_FORMULA_UNIT / n_sites
    else:
        raise ValueError(f"model must be 'pair' or 'chain', got {model!r}")
    chi = chi_reduced_to_emu_per_mol(chi_cell, temps, g_factor)
    return chi if temps.ndim else float(chi)


def synth_series(
    spin: SpinQuantum,
    coupling_kelvin: float,
    g_factor: float,
    temperatures_kelvin: Sequence[float],
    *,
    model: str = "pair",
    n_sites: int | None = None,
    boundary: str = "periodic",
    dim_cap: int | None = None,
    metadata: dict[str, str] | None = None,
) -> MeasurementSeries:
    """Noiseless model series in emu/mol, for round-trip tests and demos."""
    temps = np.asarray(sorted(float(t) for t in temperatures_kelvin))
    chi = model_chi(
        spin,
        coupling_kelvin,
        g_factor,
        temps,
        model=model,
        n_sites=n_sites,
        boundary=boundary,
        dim_cap=dim_cap,
    )
    return MeasurementSeries(
        temperatures_kelvin=temps,
        chi=chi,
        unit="emu/mol",
        metadata=dict(metadata or {}),
    )


def nelder_mead(
    objective: Callable[[np.ndarray], float],
    x0: Sequence[float],
    *,
    max_iterations: int = 2000,
    rel_tol: float = 1e-9,
) -> tuple[np.ndarray, float, int, bool, list[float]]:
    """Deterministic derivative-free simplex descent.

    Standard reflection/expansion/contraction/shrink coefficients
    (1, 2, 0.5, 0.5). Initial simplex: x0 plus a 5% step per coordinate
    (0.00025 absolute for zero coordinates). Converged when the simplex
    diameter falls below rel_tol relative to the best vertex. Returns
    (x_best, f_best, iterations, converged, best_history); best_history
    is non-increasing by construction; a step that breaks this (a NaN
    objective value) raises RuntimeError.
    """
    x0 = np.asarray(x0, dtype=float)
    ndim = x0.size
    simplex = [x0.copy()]
    for k in range(ndim):
        vertex = x0.copy()
        vertex[k] = vertex[k] * 1.05 if vertex[k] != 0.0 else 0.00025
        simplex.append(vertex)
    values = [float(objective(v)) for v in simplex]
    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
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
        if diameter <= rel_tol * scale:
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
    model: str = "pair",
    n_sites: int | None = None,
    boundary: str = "periodic",
    dim_cap: int | None = None,
    window: tuple[float, float] | None = None,
    max_iterations: int = 2000,
    rel_tol: float = 1e-9,
) -> FitResult:
    """Least-squares fit of (J, g) to a molar susceptibility series.

    Non-convergence is not an exception: the best-so-far parameters come
    back with converged=False.
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

    measured = chi.tolist()

    def objective(params: np.ndarray) -> float:
        j = math.exp(params[0])
        g = params[1]
        if not g > 0.0:
            # chi depends on g^2 only; keep the simplex on the g > 0 branch
            return math.inf
        model_values = model_chi(
            spin,
            j,
            g,
            temps,
            model=model,
            n_sites=n_sites,
            boundary=boundary,
            dim_cap=dim_cap,
        )
        # left to right, and ** (libm pow) rather than an array square, so
        # every value is bitwise that of a point-by-point loop
        return sum((m - x) ** 2 for m, x in zip(model_values.tolist(), measured))

    x_best, f_best, iterations, converged, _ = nelder_mead(
        objective,
        [math.log(init_coupling_kelvin), init_g_factor],
        max_iterations=max_iterations,
        rel_tol=rel_tol,
    )
    return FitResult(
        coupling_kelvin=math.exp(x_best[0]),
        g_factor=float(x_best[1]),
        residual_rms=math.sqrt(f_best / temps.size),
        iterations=iterations,
        converged=converged,
        fit_window=(float(temps[0]), float(temps[-1])),
        n_points=int(temps.size),
    )


@dataclass(frozen=True)
class BoundPoint:
    """Witness and negativity bound derived from one measured point."""

    temperature_kelvin: float
    witness_reduced: float
    negativity_bound: float
    entangled: bool


def bound_series(
    series: MeasurementSeries,
    spin: SpinQuantum,
    g_factor: float,
    *,
    n_per_mole: int = SPINS_PER_FORMULA_UNIT,
    correction_coupling_kelvin: float | None = None,
) -> tuple[BoundPoint, ...]:
    """Per-point witness and negativity lower bound for a measured series.

    Points with a nonpositive bound certify nothing ("no entanglement
    detected"), they are still reported. The optional correction applies
    the finite-correlation polynomial with the pair correlator at the
    given coupling.
    """
    out = []
    for t, x in zip(series.temperatures_kelvin, series.chi):
        t = float(t)
        if series.unit == "emu/mol":
            chi_reduced = chi_emu_per_mol_to_reduced(float(x), t, g_factor)
        else:
            chi_reduced = float(x)
        w = witness_value(chi_reduced, n_per_mole, spin)
        bound = negativity_lower_bound(w, n_per_mole, spin)
        if correction_coupling_kelvin is not None:
            g1 = pair_correlator(spin, correction_coupling_kelvin, t)
            bound = corrected_bound(bound, correction_coupling_kelvin, t, g1)
        out.append(
            BoundPoint(
                temperature_kelvin=t,
                witness_reduced=w,
                negativity_bound=bound,
                entangled=w < 0.0,
            )
        )
    return tuple(out)
