"""Measured-susceptibility ingestion, model curves, and (J, g) fitting.

CSV input: header `temperature_kelvin,chi_emu_per_mol`, comma-separated,
`#` comment lines ignored, UTF-8 (a leading byte-order mark is dropped),
decimal point only. Only molar susceptibility is read: reduced
susceptibility has the g-factor divided out, so g could not be fitted.

Molar susceptibilities are per mole of formula units, one (S, 1/2) cell
of 2 spins per formula unit. Chain models with more sites are rescaled
to that 2-spin cell so every model is comparable to the same data.

Fitting minimizes the plain sum of squared residuals in emu/mol over
(J, g). chi is g^2 times the g = 1 model, so the best g^2 at each J is
a linear least-squares solution (variable projection), and a
two-point Nelder-Mead simplex on plain floats (`nelder_mead`) searches
log J alone. log J keeps the coupling positive without constraints.

Checks run once where they can: a series when it is built, the start
values and the chain spec once per fit. The search starts from J alone:
the start g is checked finite and > 0 and named in messages, but never
evaluated, so it does not change the result. `fit` binds its model once
(`_bind_model`), and each J of the search then guards only what J can
push out of range. `model_chi` puts the public checks in front of the
same model.
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
    _susceptibility,
    diagonalize,
)
from .operators import SpinQuantum
from .pair import _check_coupling, _correlator
from .units import _check_converted, _emu_per_mol, check_finite, check_normal, check_positive
from .witness import susceptibility_nn_approx

# unused here; the bench layer tracer wraps them by these names
from .chain import susceptibility_exact  # noqa: F401
from .pair import pair_correlator  # noqa: F401

__all__ = [
    "MeasurementSeries",
    "load_measurements",
    "model_chi",
    "synth_series",
    "FitResult",
    "fit",
]

SPINS_PER_FORMULA_UNIT = 2


@dataclass(frozen=True, eq=False)
class MeasurementSeries:
    """A molar susceptibility (emu/mol) vs temperature (K) series.

    Temperatures must be finite, > 0, normal (not subnormal) and strictly
    increasing, and every chi finite.
    """

    temperatures_kelvin: np.ndarray
    chi: np.ndarray

    def __post_init__(self) -> None:
        t = self.temperatures_kelvin
        if t.size != self.chi.size:
            raise ValueError("temperature and chi arrays differ in length")
        check_positive("temperature", t)
        check_normal("temperature", float(t.min(initial=math.inf)))
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
    positive and strictly increasing, and `MeasurementSeries` refuses a
    subnormal one.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8-sig")
    else:
        raw = source.read()
        text = raw.decode("utf-8-sig") if isinstance(raw, bytes) else raw
    header = False
    temps: list[float] = []
    chis: list[float] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = next(csv.reader(io.StringIO(stripped)))
        fields = [f.strip() for f in fields]
        if not header:
            if fields != ["temperature_kelvin", "chi_emu_per_mol"]:
                raise ValueError(
                    f"line {lineno}: expected header 'temperature_kelvin,chi_emu_per_mol', "
                    f"got {stripped!r}; fit needs molar chi, as reduced chi has the "
                    "g-factor divided out"
                )
            header = True
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
    if not header:
        raise ValueError("no header line found")
    return MeasurementSeries(temperatures_kelvin=np.asarray(temps), chi=np.asarray(chis))


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


def _bind_model(
    spin: SpinQuantum,
    n_sites: int | None = None,
    boundary: str = "periodic",
    dim_cap: int = DEFAULT_DIM_CAP,
) -> Callable[[float, float, np.ndarray], np.ndarray]:
    """`model_chi`'s model as model(J, g, T) on an array T, with its
    constants bound once: the spin for the pair, the J = 1 spectrum's
    `_gaps` and `_chi_columns` for the chain (a bad chain spec fails here).

    T and g are taken as checked, g by the conversion (`_squared`). Each
    call guards only what J can push out of range, with a ValueError: J
    finite and > 0 in the pair model, T/J finite and > 0 (so J too) in the
    chain model. A result out of the float range is inf or nan, with no
    warning.
    """
    if n_sites is None:

        def cell(coupling: float, temps: np.ndarray) -> np.ndarray:
            _check_coupling(coupling)
            g1 = _correlator(spin, coupling, temps)
            return susceptibility_nn_approx(SPINS_PER_FORMULA_UNIT, spin, g1)

    else:
        data = _unit_coupling_spectrum(spin.twice_spin, n_sites, boundary, dim_cap)
        gaps, columns = data._gaps, data._chi_columns

        def cell(coupling: float, temps: np.ndarray) -> np.ndarray:
            reduced = temps / coupling
            if not (reduced.min() > 0.0 and reduced.max() < math.inf):
                k = int(np.flatnonzero(~((reduced > 0.0) & np.isfinite(reduced)))[0])
                raise ValueError(
                    f"T/J at T = {float(temps.flat[k])} K, J = {coupling} K "
                    f"is {float(reduced.flat[k])}; it must be finite and > 0"
                )
            chi_total = _susceptibility(gaps, columns, reduced)
            return chi_total * SPINS_PER_FORMULA_UNIT / n_sites

    def model(coupling: float, g_factor: float, temps: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            return _emu_per_mol(cell(coupling, temps), temps, g_factor)

    return model


def model_chi(
    spin: SpinQuantum,
    coupling_kelvin: float,
    g_factor: float,
    temperature_kelvin: float | np.ndarray,
    *,
    n_sites: int | None = None,
    boundary: str = "periodic",
    dim_cap: int = DEFAULT_DIM_CAP,
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

    The checks run here, in front of the model that `fit` evaluates
    (`_bind_model`): J and the temperatures, then T/J (chain model) and g
    inside the model, then the result. So a call is refused with the
    message, and in the order, of `pair_correlator`,
    `susceptibility_exact` and `chi_reduced_to_emu_per_mol`. `fit`
    checks its series once, when it is built; each J of its search runs
    only the model's guards on J.
    """
    temps = np.asarray(temperature_kelvin, dtype=float)
    if n_sites is None:
        _check_coupling(coupling_kelvin)
        check_positive("temperature", temps)
    else:
        check_positive("temperature", temps)
        check_positive("coupling", coupling_kelvin)
    model = _bind_model(spin, n_sites, boundary, dim_cap)
    chi = _check_converted(model(coupling_kelvin, g_factor, temps), temps, g_factor)
    return chi if temps.ndim else float(chi)


def synth_series(
    spin: SpinQuantum,
    coupling_kelvin: float,
    g_factor: float,
    temperatures_kelvin: Sequence[float],
    *,
    n_sites: int | None = None,
    boundary: str = "periodic",
    dim_cap: int = DEFAULT_DIM_CAP,
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
    return MeasurementSeries(temperatures_kelvin=temps, chi=chi)


_MAX_ITERATIONS = 2000
_REL_TOL = 1e-9


def nelder_mead(
    objective: Callable[[float], float], x0: float
) -> tuple[float, float, int, bool]:
    """Deterministic derivative-free simplex descent in one dimension.

    The simplex is two points, `best` and `worst`, from x0 and x0 plus
    5% (0.00025 at x0 = 0). Standard reflection/expansion/contraction/
    shrink coefficients (1, 2, 0.5, 0.5); in one dimension the centroid
    is the best point, and a shrink moves the worst point halfway to it.
    Each iteration, and the result, takes the worst point as the best
    only if its value is lower (`<`), so a tie keeps the best. Converged
    when |worst - best| falls below _REL_TOL relative to max(1, |best|),
    else stopped after _MAX_ITERATIONS iterations.
    Returns (x_best, f_best, iterations, converged). The best value never
    rises and is never NaN: no value is `<` NaN, so a NaN start raises
    RuntimeError, and the result holds the lowest value evaluated.
    """
    best = float(x0)
    # a Python float product: an overflow is inf, with no warning
    worst = best * 1.05 if best != 0.0 else 0.00025
    f_best, f_worst = float(objective(best)), float(objective(worst))
    converged = False
    iterations = 0
    previous = f_best
    for iterations in range(1, _MAX_ITERATIONS + 1):
        if f_worst < f_best:
            best, worst, f_best, f_worst = worst, best, f_worst, f_best
        if not f_best <= previous:
            raise RuntimeError(f"simplex best worsened from {previous} to {f_best}")
        previous = f_best
        if abs(worst - best) <= _REL_TOL * max(1.0, abs(best)):
            converged = True
            break
        reflected = best + (best - worst)
        f_reflected = float(objective(reflected))
        if f_reflected < f_best:
            expanded = best + 2.0 * (best - worst)
            f_expanded = float(objective(expanded))
            if f_expanded < f_reflected:
                worst, f_worst = expanded, f_expanded
            else:
                worst, f_worst = reflected, f_reflected
            continue
        # contract outside, toward the reflected point, or inside, toward the worst
        outside = f_reflected < f_worst
        if outside:
            contracted = best + 0.5 * (reflected - best)
        else:
            contracted = best - 0.5 * (best - worst)
        f_contracted = float(objective(contracted))
        if f_contracted <= f_reflected if outside else f_contracted < f_worst:
            worst, f_worst = contracted, f_contracted
        else:  # shrink: the worst point moves halfway to the best
            worst = best + 0.5 * (worst - best)
            f_worst = float(objective(worst))
    if f_worst < f_best:
        return worst, f_worst, iterations, converged
    return best, f_best, iterations, converged


def _profile(
    model: Callable[..., np.ndarray], temps: np.ndarray, chi: np.ndarray, coupling: float
) -> tuple[float, float]:
    """(|g^2 m - chi|, g^2) at the least-squares g^2 of chi ~ g^2 m, where m
    is the g = 1 model at J = `coupling`; (inf, nan) where the model or
    that g^2 leaves the float range or g^2 is not positive."""
    try:
        unit = model(coupling, 1.0, temps)
    except (OverflowError, ValueError):
        return math.inf, math.nan
    with np.errstate(over="ignore"):
        norm, overlap = float(unit @ unit), float(chi @ unit)
    if not (0.0 < norm < math.inf and 0.0 < overlap < math.inf):
        return math.inf, math.nan
    g_squared = overlap / norm
    return math.hypot(*(g_squared * unit - chi).tolist()), g_squared


def _determined(
    model: Callable[..., np.ndarray],
    temps: np.ndarray,
    chi: np.ndarray,
    coupling: float,
    residual: float,
) -> tuple[bool, float, float, float]:
    """Whether the data determine J = `coupling`, fitted with residual norm
    `residual`, and the p(2J), p(J/2) and threshold that decided it.

    p is the `_profile` residual, each at its own best g. J is determined
    if p(2J) or p(J/2) exceeds residual sqrt(1 + 1/n): moving J by a factor
    2 raises the sum of squares by at least one point's mean square. An
    inf p left the float range and is no evidence.
    """
    threshold = residual * math.sqrt(1.0 + 1.0 / temps.size)
    up, down = (_profile(model, temps, chi, coupling * f)[0] for f in (2.0, 0.5))
    return any(threshold < p < math.inf for p in (up, down)), up, down, threshold


def _check_determined(
    model: Callable[..., np.ndarray],
    temps: np.ndarray,
    chi: np.ndarray,
    coupling: float,
    residual: float,
    reached: str,
) -> None:
    """Raise ValueError, starting with `reached`, unless the data pin the
    fitted J; `residual` is the fit's residual norm. Both refusals ask
    `_determined`.

    Plateau: far above or below the data's temperatures chi no longer
    depends on J, so p is flat and the simplex over log J shrinks until
    it passes its diameter test. Other minimum: p(J) is sampled on a log
    grid of 4 points per decade, from T_min/100 to 100 T_max. A grid
    point outside [J/2, 2J] is named if p there is below the fit's
    residual and no larger than at its two neighbours, and J is
    determined there at its own residual: where p only falls toward a
    plateau, a fit started nearer would be refused too. A narrower
    minimum goes unseen. p over every k-th point alone, about 8 points,
    bounds the whole p from below, so a J that it already puts above the
    fit's residual is not evaluated on the whole series.
    """
    determined, up, down, threshold = _determined(model, temps, chi, coupling, residual)
    if not determined:
        raise ValueError(
            f"{reached}, where the data do not determine J: at 2J and at J/2, each "
            f"at its best g, the residual norm is {up} and {down} emu/mol, not above "
            f"{threshold} (the fit's {residual} times sqrt(1 + 1/{temps.size}))"
        )
    bound = residual * (1.0 - 1e-6)
    lo, hi = math.log(temps[0]) - math.log(100.0), math.log(temps[-1]) + math.log(100.0)
    steps = math.ceil(4.0 * (hi - lo) / math.log(10.0))
    grid = [math.exp(lo + (hi - lo) * k / steps) for k in range(steps + 1)]
    sub = slice(None, None, max(1, temps.size // 8))
    profile = []
    for j in grid:
        point = _profile(model, temps[sub], chi[sub], j)
        if not bound <= point[0] < math.inf:
            point = _profile(model, temps, chi, j)
        profile.append(point)
    residuals = [p for p, _ in profile]
    for k in sorted(range(1, steps), key=residuals.__getitem__):
        j, (p, g_squared) = grid[k], profile[k]
        if not p < bound:
            return
        if j / 2.0 <= coupling <= 2.0 * j or p > min(residuals[k - 1], residuals[k + 1]):
            continue
        if not _determined(model, temps, chi, j, p)[0]:
            continue
        rms, residual_rms = (x / math.sqrt(temps.size) for x in (p, residual))
        raise ValueError(
            f"{reached}, a local minimum: J = {j} K, g = {math.sqrt(g_squared)} fits "
            f"the data better (residual rms {rms} against {residual_rms} emu/mol); "
            "start nearer to it"
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
    dim_cap: int = DEFAULT_DIM_CAP,
    window: tuple[float, float] | None = None,
) -> FitResult:
    """Least-squares fit of (J, g) to a molar susceptibility series.

    The model is `model_chi`'s, bound once (`_bind_model`): the pair for
    n_sites None, else the n_sites chain. The simplex minimizes the
    `_profile` residual p over log J from log init_coupling_kelvin, with
    g solved at each J. init_g_factor must be finite and > 0, but no
    model is evaluated at it: it names the start in messages and does
    not change the result. Non-convergence is not an exception: the
    best-so-far parameters come back with converged=False. A step that
    leaves the float range (the first is the start J) raises
    ValueError, naming the start values, and so does
    a result whose J the data do not pin (`_check_determined`): one where
    neither 2J nor J/2, each at its best g, raises the residual by one
    point's share, or where another minimum of the residual over J,
    outside [J/2, 2J] and off such a plateau, fits the data better.
    """
    check_positive("initial coupling", init_coupling_kelvin)
    check_positive("initial g-factor", init_g_factor)
    temps = series.temperatures_kelvin
    chi = series.chi
    if window is not None:
        t_lo, t_hi = window
        if math.isnan(t_lo) or math.isnan(t_hi):
            raise ValueError(f"window {window} has a nan bound; it selects no temperature")
        if t_lo > t_hi:
            raise ValueError(f"window {window} has min above max")
        mask = (temps >= t_lo) & (temps <= t_hi)
        temps = temps[mask]
        chi = chi[mask]
    if temps.size < 4:
        raise ValueError(
            f"need at least 4 points for a 2-parameter fit, got {temps.size}"
        )

    # a bad chain spec fails here, with its own message
    model = _bind_model(spin, n_sites, boundary, dim_cap)
    origin = f"the fit from J = {init_coupling_kelvin} K, g = {init_g_factor}"
    # chi is g^2 times the g = 1 model, so g^2 is solved at each J
    # (`_profile`) and the simplex searches log J alone; it proposes some
    # log J twice, and each is evaluated once
    profiles: dict[float, tuple[float, float]] = {}

    def objective(log_j: float) -> float:
        try:
            if log_j not in profiles:
                profiles[log_j] = _profile(model, temps, chi, math.exp(log_j))
            p = profiles[log_j][0]
        except OverflowError:
            p = math.inf
        if p < math.inf:
            return p
        # an inf objective could let the simplex "converge" far from the data
        raise ValueError(
            f"{origin} reached J = exp({log_j}) K, where J or the model leaves the "
            "float range or no positive g^2 fits"
        )

    log_j, residual, iterations, converged = nelder_mead(
        objective, math.log(init_coupling_kelvin)
    )
    coupling, g_factor = math.exp(log_j), math.sqrt(profiles[log_j][1])
    reached = f"{origin} reached J = {coupling} K, g = {g_factor}"
    _check_determined(model, temps, chi, coupling, residual, reached)
    return FitResult(
        coupling_kelvin=coupling,
        g_factor=g_factor,
        residual_rms=residual / math.sqrt(temps.size),
        iterations=iterations,
        converged=converged,
        fit_window=(float(temps[0]), float(temps[-1])),
        n_points=int(temps.size),
    )
