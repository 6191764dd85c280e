"""Workload inputs and output checks for the mixedspin benchmark.

A workload is a fixed cycle of CLI jobs. The seed draws the physical
inputs (J, g, temperature-grid jitter, measurement noise); the sizes
(n, 2S, boundary, number of points) are fixed, and every temperature
grid is a fixed grid in T/J scaled by the drawn J, so each job does the
same work on every seed.

No reference a job's output is checked against is computed by the code
being measured. They come from the dense Kronecker oracle
`chain.dense_hamiltonian` with `numpy.linalg.eigh` where the dimension
allows (n=8 and n=6), and otherwise from the n=10 spectrum and
negativities recorded in
`reference_chain_n10_s1.json` (see `record_reference.py`), validated here
against the exact trace sum rules of H before use. Tolerances are no
tighter than the 9 significant digits the CLI prints.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mixedspin.chain import ChainSpec, dense_hamiltonian
from mixedspin.operators import SPIN_HALF, SpinQuantum, spin_matrices

RTOL = 1e-7  # 9 printed significant digits round at 5e-9 relative
# N_A mu_B^2 / k_B in emu K/mol, from the CODATA 2018 constants
CURIE_EMU_K_PER_MOL = 6.02214076e23 * 9.2740100783e-21**2 / 1.380649e-16
REFERENCE_N10 = Path(__file__).with_name("reference_chain_n10_s1.json")


class CheckError(Exception):
    """A job's output disagrees with its reference."""


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple[str, ...]
    check: Callable[[str], None]


def _close(what: str, got: float, want: float, rtol: float = RTOL, atol: float = 0.0):
    if not abs(got - want) <= rtol * abs(want) + atol:
        raise CheckError(f"{what}: got {got!r}, reference {want!r}")


def _rows(stdout: str, header: str) -> list[list[str]]:
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != header:
        raise CheckError(f"expected header {header!r}, got {lines[:1]!r}")
    return [ln.split(",") for ln in lines[1:]]


def _thermal_mean(levels: np.ndarray, values: np.ndarray, t: float) -> float:
    """Boltzmann average of `values` over `levels` (shifted, min 0) at T/J = t."""
    w = np.exp(-levels / t)
    return float(w @ values / w.sum())


def _grid(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """Log-spaced T/J grid, each point jittered by under half a spacing."""
    step = math.log(hi / lo) / (count - 1)
    return [
        lo * math.exp(step * (k + rng.uniform(-0.25, 0.25))) for k in range(count)
    ]


def _dense_eigh(n: int, twice_spin: int, boundary: str):
    spec = ChainSpec(
        n_sites=n, spin=SpinQuantum(twice_spin), coupling_kelvin=1.0, boundary=boundary
    )
    energies, vectors = np.linalg.eigh(dense_hamiltonian(spec))
    return spec, energies - energies[0], vectors


def _dense_bond_g1(n: int, twice_spin: int, boundary: str):
    """Levels (J=1, ground at 0) and <k| S_0 . S_1 |k> from the dense oracle."""
    spec, levels, vectors = _dense_eigh(n, twice_spin, boundary)
    big, half = spin_matrices(SpinQuantum(twice_spin)), spin_matrices(SPIN_HALF)
    bond = np.kron(big.sz, half.sz) + 0.5 * (
        np.kron(big.sp, half.sm) + np.kron(big.sm, half.sp)
    )
    op = np.kron(bond, np.eye(spec.total_dimension // bond.shape[0]))
    return levels, np.einsum("bk,bk->k", vectors, op @ vectors)


def _dense_total_sz2(n: int, twice_spin: int, boundary: str):
    """Levels (J=1, ground at 0) and <k| (Sz_total)^2 |k> from the dense oracle."""
    spec, levels, vectors = _dense_eigh(n, twice_spin, boundary)
    sz = np.zeros(1)
    for ts in spec.site_twice_spins:  # Kronecker order, m descending per site
        sz = (sz[:, None] + (ts / 2.0 - np.arange(ts + 1))[None, :]).ravel()
    return levels, (vectors**2).T @ sz**2


def _tc_over_j(levels: np.ndarray, g1: np.ndarray, twice_spin: int) -> float:
    """T/J where the bond correlator crosses -S/2, bisected to roundoff."""
    half_s = twice_spin / 4.0
    lo, hi = 1e-3, 1e3
    if not _thermal_mean(levels, g1, lo) + half_s < 0.0 < _thermal_mean(levels, g1, hi) + half_s:
        raise CheckError("dense reference correlator does not cross -S/2")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _thermal_mean(levels, g1, mid) + half_s < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tc_chain(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for n, twice_spin, boundary in ((8, 2, "periodic"), (6, 5, "periodic"), (8, 2, "open")):
        coupling = rng.uniform(2.0, 60.0)
        tc = coupling * _tc_over_j(*_dense_bond_g1(n, twice_spin, boundary), twice_spin)

        def check(stdout, coupling=coupling, tc=tc):
            (row,) = _rows(stdout, "spin,coupling_kelvin,model,correlator,tc_kelvin")
            _close("coupling_kelvin", float(row[1]), coupling)
            _close("tc_kelvin", float(row[4]), tc)

        argv = (
            "tc", "--spin", str(SpinQuantum(twice_spin)), "--coupling", f"{coupling!r}K",
            "--model", "chain", "--sites", str(n), "--boundary", boundary,
        )
        jobs.append(Job(f"tc_{boundary}_n{n}_2S{twice_spin}", argv, check))
    return jobs


def _pair_chi_emu(twice_spin: int, coupling: float, g: float, temps: np.ndarray) -> np.ndarray:
    """Closed-form (S, 1/2) pair model in emu/mol, written out independently."""
    s = twice_spin / 2.0
    x = np.exp(-coupling * (twice_spin + 1) / (2.0 * temps))
    g1 = s * (s + 1.0) * (x - 1.0) / (2.0 * ((s + 1.0) * x + s))
    return CURIE_EMU_K_PER_MOL * g**2 / temps * 2.0 * (0.125 + s * s / 2.0 + g1 / 3.0)


FIT_HEADER = (
    "coupling_kelvin,coupling_wavenumber,g_factor,residual_rms,iterations,"
    "converged,window_min_kelvin,window_max_kelvin,n_points"
)


def fit_chain(rng: random.Random, workdir: Path) -> list[Job]:
    n, twice_spin, points, noise = 8, 2, 60, 1e-3
    coupling = rng.uniform(3.0, 6.0)
    g = rng.uniform(1.95, 2.25)
    levels, sz2 = _dense_total_sz2(n, twice_spin, "periodic")
    ts = _grid(rng, 0.3, 20.0, points)
    temps = np.array([coupling * t for t in ts])
    chi = np.array(
        [
            CURIE_EMU_K_PER_MOL * g**2 / temp * _thermal_mean(levels, sz2, t) * 2.0 / n
            * (1.0 + noise * rng.gauss(0.0, 1.0))
            for temp, t in zip(temps, ts)
        ]
    )
    series = workdir / "fit_chain_series.csv"
    series.write_text(
        "temperature_kelvin,chi_emu_per_mol\n"
        + "".join(f"{float(temp)!r},{float(x)!r}\n" for temp, x in zip(temps, chi)),
        encoding="utf-8",
    )
    common = (
        "fit", "--input", str(series), "--spin", str(SpinQuantum(twice_spin)),
        "--init-j", f"{1.25 * coupling!r}K", "--init-g", "2.0",
    )

    def check_chain(stdout):
        (row,) = _rows(stdout, FIT_HEADER)
        if row[5] != "true" or int(row[8]) != points:
            raise CheckError(f"chain fit did not converge on {points} points: {row}")
        _close("fitted coupling_kelvin", float(row[0]), coupling, rtol=1e-2)
        _close("fitted g_factor", float(row[2]), g, rtol=1e-2)

    def check_pair(stdout):
        (row,) = _rows(stdout, FIT_HEADER)
        if row[5] != "true" or int(row[8]) != points:
            raise CheckError(f"pair fit did not converge on {points} points: {row}")
        model = _pair_chi_emu(twice_spin, float(row[0]), float(row[2]), temps)
        rms = math.sqrt(float(np.mean((model - chi) ** 2)))
        _close("pair residual_rms", float(row[3]), rms, rtol=1e-5)

    return [
        Job("fit_chain_n8", (*common, "--model", "chain", "--sites", str(n)), check_chain),
        Job("fit_pair_floor", (*common, "--model", "pair"), check_pair),
    ]


def _recorded_n10():
    """Levels, energies and (Sz_total)^2 of the recorded n=10, S=1 ring at J=1.

    The file stores the 2Sz > 0 sectors; 2Sz < 0 mirror them under the
    global spin flip. Before use the spectrum must satisfy the exact sum
    rules Tr H = 0 and Tr H^2 / dim = n_bonds S(S+1) s(s+1) / 3.
    """
    ref = json.loads(REFERENCE_N10.read_text(encoding="utf-8"))
    spec = ChainSpec(
        n_sites=ref["n_sites"], spin=SpinQuantum(ref["twice_spin"]), coupling_kelvin=1.0
    )
    energies, sz2 = [], []
    for twice_sz, values in ref["sector_eigenvalues"].items():
        energies.extend(values * 2)
        sz2.extend([(int(twice_sz) / 2.0) ** 2] * (2 * len(values)))
    energies = np.array(energies)
    casimir = spec.spin.casimir * SPIN_HALF.casimir
    if (
        energies.size != spec.total_dimension
        or abs(energies.mean()) > 1e-9
        or abs(float(np.mean(energies**2)) - len(spec.bonds()) * casimir / 3.0) > 1e-9
    ):
        raise CheckError(f"{REFERENCE_N10.name} violates the trace sum rules of H")
    return spec, energies - energies.min(), energies, np.array(sz2), ref


def table_large(rng: random.Random, workdir: Path) -> list[Job]:
    spec, levels, energies, sz2, ref = _recorded_n10()
    n, twice_spin = spec.n_sites, spec.spin.twice_spin
    coupling = rng.uniform(2.0, 60.0)
    g = rng.uniform(1.9, 2.3)

    ts = _grid(rng, 0.2, 30.0, 60)
    temps = [coupling * t for t in ts]

    def check_synth(stdout):
        rows = _rows(stdout, "temperature_kelvin,chi_emu_per_mol")
        if len(rows) != len(ts):
            raise CheckError(f"synth printed {len(rows)} rows, expected {len(ts)}")
        for (temp_text, chi_text), temp, t in zip(rows, temps, ts):
            _close("synth temperature", float(temp_text), temp)
            chi = CURIE_EMU_K_PER_MOL * g**2 / temp * _thermal_mean(levels, sz2, t) * 2.0 / n
            _close(f"synth chi at T={temp_text}", float(chi_text), chi)

    negativity = {float(t): v for t, v in ref["negativity_bond_0_1"].items()}

    def check_chain(stdout):
        rows = _rows(stdout, "temperature_kelvin,chi_exact_reduced,chi_nn_reduced,g1,negativity")
        if len(rows) != len(negativity):
            raise CheckError(f"chain printed {len(rows)} rows, expected {len(negativity)}")
        for row, (t, neg) in zip(rows, negativity.items()):
            # every bond of the periodic ring is equivalent, so G1 = <H> / (n J)
            g1 = _thermal_mean(levels, energies, t) / n
            s = spec.spin.value
            _close("chain temperature", float(row[0]), coupling * t)
            _close(f"chi_exact_reduced at T/J={t}", float(row[1]), _thermal_mean(levels, sz2, t))
            _close(f"chi_nn_reduced at T/J={t}", float(row[2]), n * (0.125 + s * s / 2 + g1 / 3))
            _close(f"g1 at T/J={t}", float(row[3]), g1)
            _close(f"negativity at T/J={t}", float(row[4]), neg, atol=1e-9)

    spin = str(SpinQuantum(twice_spin))
    return [
        Job(
            "synth_chain_n10",
            (
                "synth", "--spin", spin, "--j", f"{coupling!r}K", "--g", repr(g),
                "--temps", ",".join(map(repr, temps)), "--model", "chain", "--sites", str(n),
            ),
            check_synth,
        ),
        Job(
            "chain_table_n10",
            (
                "chain", "--spin", spin, "--sites", str(n), "--coupling", f"{coupling!r}K",
                "--temps", ",".join(repr(coupling * t) for t in negativity),
            ),
            check_chain,
        ),
    ]


WORKLOADS = {"tc_chain": tc_chain, "fit_chain": fit_chain, "table_large": table_large}
# The reference kernel (see job.py) whose time tracks each workload's
# under host speed drift best: a fit is thousands of small-array thermal
# sums; the eigensolve-bound table and the gather-bound correlator of
# tc_chain followed the dense eigensolve kernel more closely than the
# small-array one.
KERNELS = {"tc_chain": "eigh", "fit_chain": "thermal", "table_large": "eigh"}
