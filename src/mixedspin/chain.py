"""Exact diagonalization of mixed-spin (S, 1/2) Heisenberg chains.

Sites alternate spin S on even indices and spin 1/2 on odd indices
(0-indexed), coupled by isotropic antiferromagnetic exchange
H = sum_bonds J S_i . S_j. The boundary is periodic by default; note
that a periodic 2-site ring carries two bonds between its sites and so
doubles the exchange, which is why the open boundary exists for
comparing against single-pair results.

H commutes with total Sz, so the Hilbert space splits into magnetization
sectors that are enumerated and assembled independently. A global spin
flip maps sector -M onto +M, so only the 2Sz >= 0 sectors are
diagonalized (see `diagonalize`). On a ring, translation by one
(S, 1/2) cell also commutes with H, and a spectrum without eigenvectors
solves each sector as n/2 momentum blocks instead (`_momentum_levels`).
The Sz blocks are real symmetric by construction (see `operators`), the
momentum blocks exactly Hermitian, and thermal averages are taken with
Boltzmann weights shifted by the global ground energy so that no
temperature underflows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .operators import SpinQuantum, eig_sym, embed, spin_matrices
from .units import check_normal, check_positive

__all__ = [
    "DEFAULT_DIM_CAP",
    "ChainSpec",
    "SectorBlock",
    "SectorSpectrum",
    "SectorSpectralData",
    "build_hamiltonian",
    "dense_hamiltonian",
    "diagonalize",
    "thermal_weights",
    "CorrelatorMatrix",
    "correlator_matrix",
    "susceptibility_exact",
    "thermal_mean",
    "mean_energy",
    "bond_levels",
    "reduced_pair_state",
    "negativity_bruteforce",
]

DEFAULT_DIM_CAP = 32768


@dataclass(frozen=True)
class ChainSpec:
    """Geometry and coupling of one alternating (S, 1/2) chain."""

    n_sites: int
    spin: SpinQuantum
    coupling_kelvin: float
    boundary: str = "periodic"
    dim_cap: int = DEFAULT_DIM_CAP

    def __post_init__(self) -> None:
        if not isinstance(self.n_sites, int) or isinstance(self.n_sites, bool):
            raise ValueError(f"n_sites must be an integer, got {self.n_sites!r}")
        if self.n_sites < 2 or self.n_sites % 2:
            raise ValueError(
                f"n_sites must be even and >= 2 to alternate (S, 1/2), got {self.n_sites}"
            )
        if self.spin.twice_spin < 1:
            raise ValueError("chain spin must have twice_spin >= 1")
        if not math.isfinite(self.coupling_kelvin) or self.coupling_kelvin == 0.0:
            raise ValueError(
                f"coupling must be finite and nonzero, got {self.coupling_kelvin}"
            )
        check_normal("coupling", self.coupling_kelvin)
        if self.boundary not in ("periodic", "open"):
            raise ValueError(
                f"boundary must be 'periodic' or 'open', got {self.boundary!r}"
            )
        # each (S, 1/2) bond spans S/2 down to -(S+1)/2, so no level, no
        # difference of two levels and no partial sum of one exceeds this
        spread = abs(self.coupling_kelvin) * (
            len(self.bonds()) * (self.spin.twice_spin + 1) / 2
        )
        if not math.isfinite(spread):
            raise ValueError(
                f"coupling {self.coupling_kelvin} K is too large: the level "
                "spread |J| n_bonds (2S+1)/2 of this chain overflows"
            )
        if self.dim_cap < 2:
            raise ValueError(f"dim_cap must be >= 2, got {self.dim_cap}")

    @property
    def site_twice_spins(self) -> tuple[int, ...]:
        return tuple(
            self.spin.twice_spin if k % 2 == 0 else 1 for k in range(self.n_sites)
        )

    @property
    def site_dimensions(self) -> tuple[int, ...]:
        return tuple(ts + 1 for ts in self.site_twice_spins)

    @property
    def total_dimension(self) -> int:
        return math.prod(self.site_dimensions)

    def bonds(self) -> tuple[tuple[int, int], ...]:
        n = self.n_sites
        if self.boundary == "open":
            return tuple((i, i + 1) for i in range(n - 1))
        return tuple((i, (i + 1) % n) for i in range(n))


def _check_cap(spec: ChainSpec) -> None:
    if spec.total_dimension > spec.dim_cap:
        raise RuntimeError(
            f"Hilbert space dimension {spec.total_dimension} exceeds cap "
            f"{spec.dim_cap}; raise dim_cap explicitly to proceed"
        )


@dataclass(frozen=True, eq=False)
class SectorBlock:
    """One total-Sz sector: basis labels and the Hamiltonian block.

    `labels` has shape (d, n) and holds twice the local m value of each
    site, enumerated lexicographically with m descending per site (the
    same ordering as the dense Kronecker basis). `codes` are the mixed
    radix ranks of the labels in that dense basis, strictly increasing.
    """

    twice_total_sz: int
    labels: np.ndarray
    codes: np.ndarray
    hamiltonian: np.ndarray


@dataclass(frozen=True, eq=False)
class SectorSpectrum:
    """One sector's levels; `eigenvectors` is None for an eigenvalue-only
    spectrum (`diagonalize(spec, vectors=False)`)."""

    twice_total_sz: int
    labels: np.ndarray
    codes: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None


@dataclass(frozen=True, eq=False)
class SectorSpectralData:
    """Full blocked spectrum of a chain."""

    spec: ChainSpec
    sectors: tuple[SectorSpectrum, ...]

    @property
    def total_dimension(self) -> int:
        return sum(sec.eigenvalues.size for sec in self.sectors)

    @property
    def ground_energy_kelvin(self) -> float:
        return min(float(sec.eigenvalues[0]) for sec in self.sectors)

    def all_eigenvalues(self) -> np.ndarray:
        return np.sort(np.concatenate([sec.eigenvalues for sec in self.sectors]))


def _strides(dims: tuple[int, ...]) -> np.ndarray:
    """Mixed-radix strides, first site most significant."""
    strides = np.ones(len(dims), dtype=np.int64)
    for k in range(len(dims) - 2, -1, -1):
        strides[k] = strides[k + 1] * dims[k + 1]
    return strides


def _enumerate_sectors(spec: ChainSpec) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Group the product basis by total Sz, preserving lexicographic order.

    Returns (2Sz, labels, codes) per sector, 2Sz descending; see
    `SectorBlock` for labels and codes.
    """
    site_m_lists = [
        range(ts, -ts - 1, -2) for ts in spec.site_twice_spins
    ]  # m descending, matching the matrix convention
    sectors: dict[int, list[tuple[int, ...]]] = {}
    for label in itertools.product(*site_m_lists):
        sectors.setdefault(sum(label), []).append(label)
    tspins = np.asarray(spec.site_twice_spins, dtype=np.int64)
    strides = _strides(spec.site_dimensions)
    out = []
    for tsz in sorted(sectors, reverse=True):
        labels = np.asarray(sectors[tsz], dtype=np.int16)
        digits = (tspins[None, :] - labels.astype(np.int64)) // 2
        # ascending because enumeration is lexicographic
        out.append((tsz, labels, digits @ strides))
    return out


def _zz_energy(lab: np.ndarray, bonds, j: float) -> np.ndarray:
    """Diagonal of H: sum over bonds of J m_i m_j, per basis state."""
    m = lab / 2.0
    diag = np.zeros(lab.shape[0])
    for i, k in bonds:
        diag += j * m[:, i] * m[:, k]
    return diag


def _hops(
    labels: np.ndarray,
    codes: np.ndarray,
    tspins: np.ndarray,
    strides: np.ndarray,
    a: int,
    b: int,
    into: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero elements of S_a^+ S_b^- from the states `labels` / `codes`.

    Returns (src, tgt, coeff) with <tgt| S_a^+ S_b^- |src> = coeff: src
    indexes the rows of `labels`, tgt the sorted sector codes `into`
    (default `codes`, the whole sector). The roots are taken of exact
    integers and multiplied in the order of
    `raise_coefficient(...) * lower_coefficient(...)`, so every coeff is
    bitwise equal to the scalar form.
    """
    ta, tb = tspins[a], tspins[b]
    ma = labels[:, a].astype(np.int64)
    mb = labels[:, b].astype(np.int64)
    src = np.flatnonzero((ma < ta) & (mb > -tb))
    # raising m_a lowers its mixed-radix digit, lowering m_b raises its digit
    tgt = np.searchsorted(
        codes if into is None else into, codes[src] - strides[a] + strides[b]
    )
    ma, mb = ma[src], mb[src]
    coeff = (0.5 * np.sqrt(ta * (ta + 2) - ma * (ma + 2))) * (
        0.5 * np.sqrt(tb * (tb + 2) - mb * (mb - 2))
    )
    return src, tgt, coeff


def build_hamiltonian(spec: ChainSpec) -> list[SectorBlock]:
    """Assemble the Hamiltonian blocked by total Sz.

    Diagonal part: sum over bonds of J m_i m_j. Off-diagonal part: the
    flip-flop J/2 (S+ S- + S- S+), whose matrix elements come in exactly
    equal transpose pairs (the same square root both ways), so each block
    is bitwise symmetric.
    """
    _check_cap(spec)
    tspins = np.asarray(spec.site_twice_spins, dtype=np.int64)
    strides = _strides(spec.site_dimensions)
    j = spec.coupling_kelvin
    bonds = spec.bonds()
    blocks: list[SectorBlock] = []
    for tsz, labels, codes in _enumerate_sectors(spec):
        d = labels.shape[0]
        lab = labels.astype(np.int64)
        h = np.zeros((d, d))
        h[np.diag_indices(d)] = _zz_energy(lab, bonds, j)
        for i, k in bonds:
            for a, b in ((i, k), (k, i)):
                src, tgt, coeff = _hops(lab, codes, tspins, strides, a, b)
                h[tgt, src] += 0.5 * j * coeff
        blocks.append(
            SectorBlock(twice_total_sz=tsz, labels=labels, codes=codes, hamiltonian=h)
        )
    return blocks


def dense_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Unblocked Hamiltonian via Kronecker products; cross-check path."""
    _check_cap(spec)
    dims = spec.site_dimensions
    ops = [spin_matrices(SpinQuantum(ts)) for ts in spec.site_twice_spins]
    j = spec.coupling_kelvin
    h = np.zeros((spec.total_dimension, spec.total_dimension))
    for i, k in spec.bonds():
        h += j * embed(ops[i].sz, i, dims) @ embed(ops[k].sz, k, dims)
        cross = embed(ops[i].sp, i, dims) @ embed(ops[k].sm, k, dims)
        h += 0.5 * j * (cross + cross.T)
    return h


def _momentum_levels(
    spec: ChainSpec, labels: np.ndarray, codes: np.ndarray
) -> np.ndarray:
    """Ascending levels of one ring sector, solved block by block in momentum.

    T, which moves every site one (S, 1/2) cell (two sites) on, commutes
    with H and Sz, so the sector splits into n/2 momentum blocks
    k = 2 pi q / (n/2). Each translation orbit is held by its lowest-code
    representative a with orbit length L_a, and it carries momentum k
    only if k L_a is a multiple of 2 pi. Every flip-flop from a lands on
    some T^s b, giving <b,k|H|a,k> = sqrt(L_a/L_b) sum h e^{iks}
    (A. W. Sandvik, AIP Conf. Proc. 1297, 135 (2010)). The -k block is
    the complex conjugate of the k block, so only 0 <= k <= pi is solved
    and every other block counts twice; k = 0 and k = pi are real.

    A flip-flop changes one S site and one spin-1/2 site. A translation
    permutes the S sites among themselves and the 1/2 sites among
    themselves, so a state and another state of its orbit differ on no
    site or on at least two sites of each kind. No hop therefore stays
    within an orbit, and the diagonal is the Sz Sz energy alone. Each
    block is filled below its diagonal and mirrored, so it is exactly
    Hermitian for `eig_sym`.
    """
    cells = spec.n_sites // 2
    tspins = np.asarray(spec.site_twice_spins, dtype=np.int64)
    strides = _strides(spec.site_dimensions)
    j = spec.coupling_kelvin
    lab = labels.astype(np.int64)
    # images[r] holds the codes of T^r x for every state x
    images = np.stack(
        [((tspins - np.roll(lab, 2 * r, axis=1)) // 2) @ strides for r in range(cells)]
    )
    lowest = images.argmin(axis=0)  # T^lowest x is the representative of x
    reps = np.flatnonzero(lowest == 0)
    rep_of = np.searchsorted(codes[reps], images[lowest, np.arange(codes.size)])
    shift = -lowest % cells  # x = T^shift rep_of(x)
    period = cells // np.count_nonzero(images[:, reps] == codes[reps], axis=0)
    hops = [
        _hops(lab[reps], codes[reps], tspins, strides, a, b, into=codes)
        for i, k in spec.bonds()
        for a, b in ((i, k), (k, i))
    ]
    src = np.concatenate([h[0] for h in hops])
    tgt_state = np.concatenate([h[1] for h in hops])
    tgt, turns = rep_of[tgt_state], shift[tgt_state]
    amp = 0.5 * j * np.concatenate([h[2] for h in hops])
    amp *= np.sqrt(period[src] / period[tgt])
    zz = _zz_energy(lab[reps], spec.bonds(), j)
    levels = []
    for q in range(cells // 2 + 1):
        keep = q * period % cells == 0
        dim = int(np.count_nonzero(keep))
        if dim == 0:
            continue
        pos = np.cumsum(keep) - 1
        row, col = pos[tgt], pos[src]
        lower = keep[src] & keep[tgt] & (row > col)
        flat = row[lower] * dim + col[lower]
        # e^{iks} = e^{2 pi i phase_turns / cells}
        phase_turns = q * turns[lower] % cells
        real = 2 * q % cells == 0
        block = np.empty(dim * dim, dtype=float if real else complex)
        if real:  # k = 0 or pi: every phase is exactly +1 or -1
            block[:] = np.bincount(
                flat, np.where(phase_turns == 0, amp[lower], -amp[lower]), dim * dim
            )
        else:
            z = amp[lower] * np.exp(2j * np.pi * phase_turns / cells)
            block.real = np.bincount(flat, z.real, dim * dim)
            block.imag = np.bincount(flat, z.imag, dim * dim)
        block = block.reshape(dim, dim)
        block = block + block.conj().T
        block[np.diag_indices(dim)] = zz[keep]
        evals, _ = eig_sym(block, vectors=False)
        levels += [evals] if real else [evals, evals]
    return np.sort(np.concatenate(levels))


# Eigensolver roundoff splits the ground multiplet by up to 6.1e-14 |J|
# (eigvalsh, n=6, 2S=5, open chain), while the smallest excitation gap
# above it is 0.15 |J| (n=10, 2S=2, open); both measured with eigh and
# eigvalsh over every chain of dimension <= 8,000. A tolerance of
# 1e-12 |J| n sits about 100x above the first and 1e10x below the second.
_GROUND_SNAP = 1e-12


def diagonalize(spec: ChainSpec, vectors: bool = True) -> SectorSpectralData:
    """Per-sector spectra, with eigenvectors unless vectors=False.

    Only the 2Sz >= 0 blocks are solved. The global spin flip maps the
    basis of sector -M onto that of +M in reverse order (labels
    -labels[::-1]), and the -M block is bitwise the +M block reversed in
    rows and columns. So sector -M shares its partner's eigenvalue array
    and takes the row-reversed view V[::-1] of its eigenvectors; the
    ±Sz levels are then exactly degenerate. The solved arrays are made
    read-only because they are shared. Sectors keep their order (2Sz
    descending), so every sum over sectors keeps its order.

    An eigenvalue-only spectrum of a ring (vectors=False, periodic)
    solves each sector as its translation-momentum blocks (see
    `_momentum_levels`) instead of one dense block; its levels agree
    with the dense sector's to rounding. Open chains and spectra with
    eigenvectors solve the Sz blocks of `build_hamiltonian`. Either way
    `dim_cap` bounds the total dimension.

    Every level within 1e-12 |J| n of the global ground energy is set to
    exactly that energy. Below T ~ 1e-13 J the Boltzmann factors would
    otherwise resolve the roundoff split of the ground multiplet; snapped,
    the multiplet keeps equal weights down to any T, so every thermal
    average reaches its T -> 0 limit.
    """
    if vectors or spec.boundary == "open":
        blocks = build_hamiltonian(spec)
        bases = [(b.twice_total_sz, b.labels, b.codes) for b in blocks]
        solved = {
            b.twice_total_sz: eig_sym(b.hamiltonian, vectors=vectors)
            for b in blocks
            if b.twice_total_sz >= 0
        }
    else:
        _check_cap(spec)
        bases = _enumerate_sectors(spec)
        solved = {
            tsz: (_momentum_levels(spec, labels, codes), None)
            for tsz, labels, codes in bases
            if tsz >= 0
        }
    e0 = min(float(evals[0]) for evals, _ in solved.values())
    tol = _GROUND_SNAP * abs(spec.coupling_kelvin) * spec.n_sites
    for evals, evecs in solved.values():
        evals[evals - e0 <= tol] = e0
        for arr in (evals, evecs):
            if arr is not None:
                arr.flags.writeable = False
    sectors = []
    for tsz, labels, codes in bases:
        evals, evecs = solved[abs(tsz)]
        if tsz < 0 and evecs is not None:
            evecs = evecs[::-1]
        sectors.append(
            SectorSpectrum(
                twice_total_sz=tsz,
                labels=labels,
                codes=codes,
                eigenvalues=evals,
                eigenvectors=evecs,
            )
        )
    return SectorSpectralData(spec=spec, sectors=tuple(sectors))


def _check_vectors(data: SectorSpectralData, what: str) -> None:
    if any(sec.eigenvectors is None for sec in data.sectors):
        raise ValueError(
            f"{what} needs eigenvectors; this spectrum holds eigenvalues only, "
            "diagonalize with vectors=True"
        )


def thermal_weights(
    data: SectorSpectralData, temperature_kelvin: float | np.ndarray
) -> tuple[np.ndarray, ...]:
    """Normalized Boltzmann weights per sector, in sector order.

    For a temperature array each sector's weights have shape T.shape +
    (d,). Exponents are shifted by the ground energy so that low
    temperatures never overflow. Each element goes through the same
    operations in the same order as a scalar call (per-sector exp and
    sum, sectors summed in order), so the two agree bitwise.
    """
    check_positive("temperature", temperature_kelvin)
    t = np.asarray(temperature_kelvin, dtype=float)[..., None]
    e0 = data.ground_energy_kelvin
    # (E - E0)/T overflows to inf at subnormal T; exp(-inf) = 0 is the limit
    with np.errstate(over="ignore"):
        raw = [np.exp(-(sec.eigenvalues - e0) / t) for sec in data.sectors]
    z = sum(r.sum(-1) for r in raw)
    return tuple(r / z[..., None] for r in raw)


@dataclass(frozen=True, eq=False)
class CorrelatorMatrix:
    """Thermal two-site correlators for every site pair.

    g_zz[i, j] = <Sz_i Sz_j>, g_dot[i, j] = <S_i . S_j>; diagonal entries
    are on-site moments, so g_dot[i, i] = S_i(S_i + 1). Isotropy of the
    Hamiltonian makes g_dot = 3 g_zz. Off-diagonal g_dot entries of pairs
    that `correlator_matrix` was not asked for are NaN.
    """

    temperature_kelvin: float
    g_zz: np.ndarray
    g_dot: np.ndarray


_CHUNK = 2048


def _flip_flop(
    sector: SectorSpectrum,
    amp: np.ndarray,
    tspins: np.ndarray,
    strides: np.ndarray,
    i: int,
    k: int,
) -> float:
    """Thermal <S_i^+ S_k^-> within one sector.

    amp = V * sqrt(w) column-scaled eigenvectors, so rho = amp @ amp.T;
    the expectation gathers rho[target, source] rows without forming rho.
    """
    src, tgt, coeff = _hops(sector.labels, sector.codes, tspins, strides, i, k)
    total = 0.0
    for lo in range(0, src.size, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        rows = np.einsum("ij,ij->i", amp[tgt[sl]], amp[src[sl]])
        total += float(rows @ coeff[sl])
    return total


def correlator_matrix(
    data: SectorSpectralData,
    temperature_kelvin: float,
    pairs: Iterable[tuple[int, int]] | None = None,
) -> CorrelatorMatrix:
    """Two-site thermal correlators at one temperature.

    Diagonal operators (Sz_i Sz_j and the on-site part) only need the
    basis-state occupation probabilities P_b = sum_k w_k V[b,k]^2; the
    transverse part is assembled from flip-flop expectations. Sectors do
    not mix because every operator involved conserves total Sz.

    `pairs` limits the flip-flop part, the costly one, to the given site
    pairs; (i, k) and (k, i) both fill g_dot[i, k] and g_dot[k, i]. The
    default None computes every pair. The requested entries are bitwise
    equal to the full matrix's; the other off-diagonal entries of g_dot
    are NaN, while g_zz and the diagonal of g_dot are always complete.
    """
    _check_vectors(data, "correlator_matrix")
    spec = data.spec
    n = spec.n_sites
    if pairs is None:
        pairs = itertools.combinations(range(n), 2)
    todo = set()
    for i, k in pairs:
        if i == k or i not in range(n) or k not in range(n):
            raise ValueError(
                f"pair {(i, k)} is not two distinct sites of a {n}-site chain"
            )
        todo.add((min(i, k), max(i, k)))
    todo = sorted(todo)
    tspins = np.asarray(spec.site_twice_spins, dtype=np.int64)
    strides = _strides(spec.site_dimensions)
    casimirs = tspins * (tspins + 2) / 4.0
    g_zz = np.zeros((n, n))
    flip = np.zeros((n, n))
    for sector, w in zip(data.sectors, thermal_weights(data, temperature_kelvin)):
        prob = (sector.eigenvectors**2) @ w
        m = sector.labels / 2.0
        g_zz += (m * prob[:, None]).T @ m
        # on-site (S+S- + S-S+)/2 is diagonal: S(S+1) - m^2
        flip[np.diag_indices(n)] += casimirs * prob.sum() - (m**2 * prob[:, None]).sum(
            axis=0
        )
        amp = sector.eigenvectors * np.sqrt(w)[None, :]
        for i, k in todo:
            # <S_i^+ S_k^-> = <S_i^- S_k^+> for a real symmetric rho
            val = _flip_flop(sector, amp, tspins, strides, i, k)
            flip[i, k] += val
            flip[k, i] += val
    g_zz = 0.5 * (g_zz + g_zz.T)  # BLAS output is not bitwise symmetric
    g_dot = g_zz + flip
    computed = np.eye(n, dtype=bool)
    for i, k in todo:
        computed[i, k] = computed[k, i] = True
    g_dot[~computed] = np.nan
    return CorrelatorMatrix(
        temperature_kelvin=temperature_kelvin, g_zz=g_zz, g_dot=g_dot
    )


def susceptibility_exact(
    data: SectorSpectralData, temperature_kelvin: float | np.ndarray
) -> float | np.ndarray:
    """Reduced susceptibility chi k_B T / (g^2 mu_B^2) = sum_ij <Sz_i Sz_j>.

    Eigenstates carry definite total Sz, so the double sum collapses to
    <(Sz_total)^2> = sum over sectors of (weight in sector) * Sz_total^2.
    A float for a scalar temperature; for an array, an array of the same
    shape whose elements equal the scalar calls bitwise.
    """
    total = 0.0
    for sector, w in zip(data.sectors, thermal_weights(data, temperature_kelvin)):
        total = total + (sector.twice_total_sz / 2.0) ** 2 * w.sum(-1)
    return total if np.ndim(temperature_kelvin) else float(total)


def thermal_mean(
    data: SectorSpectralData,
    values: Iterable[np.ndarray],
    temperature_kelvin: float | np.ndarray,
) -> float | np.ndarray:
    """Boltzmann average of a per-level quantity.

    `values` holds one array per sector, in sector order, of the
    quantity's value in each eigenstate: the eigenvalues for <H>,
    `bond_levels` for a bond correlator. Sums sector by sector, in
    order, (w * values).sum(-1). A float for a scalar temperature; for
    an array, an array of the same shape whose elements equal the scalar
    calls bitwise.
    """
    total = 0.0
    for w, v in zip(thermal_weights(data, temperature_kelvin), values, strict=True):
        total = total + (w * v).sum(-1)
    return total if np.ndim(temperature_kelvin) else float(total)


def mean_energy(
    data: SectorSpectralData, temperature_kelvin: float | np.ndarray
) -> float | np.ndarray:
    """Thermal <H> in kelvin, from the levels alone.

    On a ring every bond is equivalent under translation and reflection,
    so the bond correlator <S_i . S_i+1> is <H> / (n J). Takes one
    temperature or an array, as `thermal_mean` does.
    """
    return thermal_mean(
        data, [sec.eigenvalues for sec in data.sectors], temperature_kelvin
    )


def bond_levels(
    data: SectorSpectralData, bond: tuple[int, int]
) -> tuple[np.ndarray, ...]:
    """Per-level values <k| S_i . S_j |k> of one site pair, one array per sector.

    The Sz Sz part is sum_b V[b,k]^2 m_i m_j. The flip-flop part
    (S_i^+ S_j^- + S_i^- S_j^+)/2 is sum coeff V[tgt,k] V[src,k] over the
    hops of S_i^+ S_j^-: for real eigenvectors its two halves are equal,
    as in `correlator_matrix`. The hops are gathered in chunks, like
    `_flip_flop`, so the temporaries stay bounded. S_i . S_j is invariant
    under the global spin flip, so only the 2Sz >= 0 sectors are computed
    and sector -M shares its partner's read-only array, as it does the
    eigenvalues. `thermal_mean(data, bond_levels(data, bond), T)` is then
    the thermal bond correlator at any temperature.
    """
    _check_vectors(data, "bond_levels")
    spec = data.spec
    n = spec.n_sites
    i, k = bond
    if i == k or i not in range(n) or k not in range(n):
        raise ValueError(
            f"bond {bond} is not two distinct sites of a {n}-site chain"
        )
    tspins = np.asarray(spec.site_twice_spins, dtype=np.int64)
    strides = _strides(spec.site_dimensions)
    solved = {}
    for sector in data.sectors:
        if sector.twice_total_sz < 0:
            continue
        vecs = sector.eigenvectors
        m = sector.labels / 2.0
        values = (m[:, i] * m[:, k]) @ vecs**2
        src, tgt, coeff = _hops(sector.labels, sector.codes, tspins, strides, i, k)
        for lo in range(0, src.size, _CHUNK):
            sl = slice(lo, lo + _CHUNK)
            rows = vecs[tgt[sl]]
            rows *= vecs[src[sl]]
            values += coeff[sl] @ rows
        values.flags.writeable = False
        solved[sector.twice_total_sz] = values
    return tuple(solved[abs(sec.twice_total_sz)] for sec in data.sectors)


def reduced_pair_state(
    data: SectorSpectralData, temperature_kelvin: float, bond: tuple[int, int]
) -> np.ndarray:
    """Reduced thermal density matrix of one bond, ordered (bond[0], bond[1]).

    Traces out the other n-2 sites by grouping basis states on their
    rest-configuration: within each group the reduced contribution is a
    plain Gram matrix of amp rows. Output is exactly symmetric.
    """
    _check_vectors(data, "reduced_pair_state")
    spec = data.spec
    a, b = bond
    n = spec.n_sites
    if not (0 <= a < n and 0 <= b < n) or a == b:
        raise ValueError(f"bond {bond} is not a pair of distinct sites")
    adjacent = abs(a - b) == 1 or (
        spec.boundary == "periodic" and {a, b} == {0, n - 1}
    )
    if not adjacent:
        raise ValueError(f"bond {bond} is not adjacent under {spec.boundary} boundary")
    dims = spec.site_dimensions
    tspins = np.asarray(spec.site_twice_spins, dtype=np.int64)
    strides = _strides(dims)
    da, db = dims[a], dims[b]
    rho = np.zeros((da * db, da * db))
    for sector, w in zip(data.sectors, thermal_weights(data, temperature_kelvin)):
        amp = sector.eigenvectors * np.sqrt(w)[None, :]
        lab = sector.labels.astype(np.int64)
        dig_a = (tspins[a] - lab[:, a]) // 2
        dig_b = (tspins[b] - lab[:, b]) // 2
        pair_idx = dig_a * db + dig_b
        rest = sector.codes - dig_a * strides[a] - dig_b * strides[b]
        order = np.argsort(rest, kind="stable")
        rest_sorted = rest[order]
        cuts = np.flatnonzero(np.diff(rest_sorted)) + 1
        for group in np.split(order, cuts):
            p = pair_idx[group]
            block = amp[group] @ amp[group].T
            rho[np.ix_(p, p)] += block
    return 0.5 * (rho + rho.T)


def negativity_bruteforce(rho: np.ndarray, dim_a: int, dim_b: int) -> float:
    """Negativity from the partial transpose of a bipartite density matrix.

    Sum of |negative eigenvalues| of the transpose on the second factor.
    The input must be exactly symmetric with unit trace.
    """
    rho = np.asarray(rho, dtype=float)
    d = dim_a * dim_b
    if rho.shape != (d, d):
        raise ValueError(f"state shape {rho.shape} does not match {dim_a}x{dim_b}")
    if not np.array_equal(rho, rho.T):
        raise ValueError("density matrix is not symmetric")
    if abs(float(np.trace(rho)) - 1.0) > 1e-9:
        raise ValueError(f"density matrix trace {np.trace(rho)} is not 1")
    pt = (
        rho.reshape(dim_a, dim_b, dim_a, dim_b)
        .transpose(0, 3, 2, 1)
        .reshape(d, d)
    )
    evals = np.linalg.eigvalsh(pt)
    # + 0.0 normalizes the -0.0 that arises from negating an empty sum
    return float(-evals[evals < 0.0].sum() + 0.0)
