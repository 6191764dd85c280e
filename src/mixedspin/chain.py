"""Exact diagonalization of mixed-spin (S, 1/2) Heisenberg chains.

Sites alternate spin S on even indices and spin 1/2 on odd indices
(0-indexed), coupled by isotropic antiferromagnetic exchange
H = sum_bonds J S_i . S_j. The boundary is periodic by default; note
that a periodic 2-site ring carries two bonds between its sites and so
doubles the exchange, which is why the open boundary exists for
comparing against single-pair results.

H commutes with total Sz, so the Hilbert space splits into magnetization
sectors that are assembled and solved independently. A global spin
flip maps sector -M onto +M, so only the 2Sz >= 0 sectors are
diagonalized (see `diagonalize`). A spectrum with eigenvectors solves
each sector's Sz block (`_sector_blocks`). Translation by one (S, 1/2)
cell also commutes with H: the eigenvalue-only spectrum of a ring
solves n/2 momentum blocks per sector, made real by the site
reflection, with k = 0 and k = pi split by parity, all built by
`_ring_blocks` from one pass over the 2Sz >= 0 states. An open chain has
no lattice symmetry, but H commutes with total spin: its eigenvalue-only
spectrum solves each SU(2) multiplet once, on the coupling paths that
couple the sites in chain order (`_coupling_paths`). Each block H_J is
built from 6j symbols in closed form (`_spin_half_6j`: each has a
spin-1/2 entry) with no product basis
(K. Baerwinkel, H.-J. Schmidt and J. Schnack, J. Magn. Magn. Mater. 212,
240 (2000)), and the edge bond S_0 . S_1 is diagonal on the paths.
Every block is real symmetric by construction (see `operators`).

H also commutes with total spin, so every level belongs to an SU(2)
multiplet of 2J + 1 states, one in each sector |2Sz| <= 2J.
`diagonalize` records each multiplet once in a flat level table
(`SectorSpectralData.levels`), with its 2J and the number of states it
stands for (on a ring, times its momentum copies). Every thermal sum
starts from the Boltzmann factors of that table (`_factors`):
one exp per table entry and temperature, shifted by the ground energy
so that no temperature underflows. A thermal mean then takes the
numerator and Z from those factors at once, with no normalized
weights: chi from dot products with the columns (m J(J+1)/3, m), a
traceless quantity from pairwise sums. An eigenvalue-only spectrum is
that table and the bond S_0 . S_1 on it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

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
    "thermal_mean_and_slope",
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
        if not math.isfinite(self.coupling_kelvin) or self.coupling_kelvin == 0.0:
            raise ValueError(
                f"coupling must be finite and nonzero, got {self.coupling_kelvin}"
            )
        check_normal("coupling", self.coupling_kelvin)
        if self.boundary not in ("periodic", "open"):
            raise ValueError(
                f"boundary must be 'periodic' or 'open', got {self.boundary!r}"
            )
        if self.dim_cap < 2:
            raise ValueError(f"dim_cap must be >= 2, got {self.dim_cap}")
        if not math.isfinite(self.level_spread_kelvin):
            _check_cap(self)  # a chain too long for a float spread stops here
            raise ValueError(
                f"coupling {self.coupling_kelvin} K is too large: the level "
                "spread |J| n_bonds (2S+1)/2 of this chain overflows"
            )

    @cached_property
    def level_spread_kelvin(self) -> float:
        """|J| n_bonds (2S+1)/2. Each (S, 1/2) bond spans S/2 down to
        -(S+1)/2, so no level, no difference of two levels and no partial
        sum of one exceeds this. inf where it leaves the float range."""
        n_bonds = self.n_sites - (self.boundary == "open")
        try:
            return abs(self.coupling_kelvin) * (n_bonds * (self.spin.twice_spin + 1) / 2)
        except OverflowError:  # n_bonds (2S+1)/2 itself
            return math.inf

    @cached_property
    def site_twice_spins(self) -> tuple[int, ...]:
        return tuple(
            self.spin.twice_spin if k % 2 == 0 else 1 for k in range(self.n_sites)
        )

    @cached_property
    def site_dimensions(self) -> tuple[int, ...]:
        return tuple(ts + 1 for ts in self.site_twice_spins)

    @cached_property
    def site_strides(self) -> tuple[int, ...]:
        """Place value of each site's digit in a basis code (mixed radix,
        first site most significant)."""
        dims = self.site_dimensions
        return tuple(math.prod(dims[k + 1 :]) for k in range(len(dims)))

    @property
    def total_dimension(self) -> int:
        return math.prod(self.site_dimensions)

    def bonds(self) -> tuple[tuple[int, int], ...]:
        n = self.n_sites
        if self.boundary == "open":
            return tuple((i, i + 1) for i in range(n - 1))
        return tuple((i, (i + 1) % n) for i in range(n))


def _check_cap(spec: ChainSpec) -> None:
    # multiplied out cell by cell only until it passes the cap and 10^18
    dim, stop = 1, max(spec.dim_cap, 10**18)
    for _ in range(spec.n_sites // 2):
        dim *= 2 * (spec.spin.twice_spin + 1)
        if dim > stop:
            break
    if dim > spec.dim_cap:
        size = dim if dim <= stop else f"above {stop}"
        raise RuntimeError(
            f"Hilbert space dimension {size} exceeds cap "
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
    """One sector of a spectrum with eigenvectors: its basis (see
    `SectorBlock`), sorted levels and eigenvectors. The levels are the
    level-table entries of every multiplet with 2J >= |2Sz|, so each
    multiplet has one energy in every sector; the read-only array is
    shared by +-M."""

    twice_total_sz: int
    labels: np.ndarray
    codes: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True, eq=False)
class SectorSpectralData:
    """A chain's blocked spectrum: its level table, and its sectors too
    if it holds eigenvectors.

    The level table holds each SU(2) multiplet once: `levels[i]` is the
    energy of a multiplet of total spin J = `twice_j[i]` / 2, and
    `multiplicity[i]` counts its 2J + 1 states times its copies (2 for
    a ring's 0 < k < pi momentum, whose -k partner has its levels, else
    1), so np.repeat(levels, multiplicity) is the whole spectrum. The
    table runs 2J descending, each run sorted ascending, and is what
    every thermal sum runs over. `sectors` holds every sector's basis,
    levels and eigenvectors (`SectorSpectrum`) for a spectrum with
    eigenvectors, and is None for an eigenvalue-only one.

    `bond`, for an eigenvalue-only spectrum, holds <k| S_0 . S_1 |k> on
    each table entry (read-only), so `thermal_mean(data, data.bond, T)`
    is G1 on either boundary: levels / (n J) on a ring, where every bond
    is equivalent, and the coupling paths' j_1 values on an open chain.
    It is None with eigenvectors, where `bond_levels` gives any bond.
    """

    spec: ChainSpec
    sectors: tuple[SectorSpectrum, ...] | None
    levels: np.ndarray
    multiplicity: np.ndarray
    twice_j: np.ndarray
    ground_energy_kelvin: float
    bond: np.ndarray | None = None

    def all_eigenvalues(self) -> np.ndarray:
        return np.sort(np.repeat(self.levels, self.multiplicity))

    @cached_property
    def _gaps(self) -> np.ndarray:
        """E0 - E of each table entry, the exponent of its Boltzmann
        factor at T = 1."""
        return self.ground_energy_kelvin - self.levels

    @cached_property
    def _weights(self) -> np.ndarray:
        """The multiplicities as floats."""
        return self.multiplicity.astype(float)

    @cached_property
    def _chi_columns(self) -> np.ndarray:
        """The columns (m J(J+1)/3, m) of `susceptibility_exact`'s product,
        as the rows of a (2, m) array. m J(J+1)/3 = copies sum Sz^2 over
        the multiplet, a multiple of 1/2 computed exactly from the integer
        m 2J (2J + 2)."""
        sz2 = self.multiplicity * self.twice_j * (self.twice_j + 2) / 12.0
        return np.stack([sz2, self._weights])


def _basis(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every code of the dense basis, ascending, with its labels (see
    `SectorBlock`) and its 2Sz. `dim_cap` is checked before anything is
    allocated."""
    _check_cap(spec)
    # the labels and twice the digits lie within +-2 (2S): int16 where
    # that fits, else the narrowest width that holds them
    width = np.promote_types(np.int16, np.min_scalar_type(-2 * spec.spin.twice_spin))
    tspins = np.asarray(spec.site_twice_spins, dtype=width)
    # row k of the index grid is site k's mixed-radix digit of each code
    digits = np.indices(spec.site_dimensions, dtype=width).reshape(spec.n_sites, -1)
    labels = np.ascontiguousarray((tspins[:, None] - 2 * digits).T)  # m descending
    twice_sz = labels.sum(axis=1, dtype=np.int64)
    return np.arange(labels.shape[0], dtype=np.int64), labels, twice_sz


def _enumerate_sectors(spec: ChainSpec) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Group the product basis by total Sz, preserving lexicographic order.

    Returns (2Sz, labels, codes) per sector, 2Sz descending; see
    `SectorBlock` for labels and codes. A stable sort on 2Sz keeps the
    codes ascending within each sector.
    """
    codes, labels, twice_sz = _basis(spec)
    order = np.argsort(-twice_sz, kind="stable")
    cuts = np.flatnonzero(np.diff(twice_sz[order])) + 1
    return [
        (int(twice_sz[part[0]]), labels[part], codes[part])
        for part in np.split(order, cuts)
    ]


def _zz_energy(lab: np.ndarray, bonds, j: float) -> np.ndarray:
    """Diagonal of H: sum over bonds of J m_i m_j, per basis state."""
    m = lab / 2.0
    diag = np.zeros(lab.shape[0])
    for i, k in bonds:
        diag += j * m[:, i] * m[:, k]
    return diag


def _hop_radicands(
    spec: ChainSpec,
    labels: np.ndarray,
    codes: np.ndarray,
    a: int | np.ndarray,
    b: int | np.ndarray,
    into: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero elements of S_a^+ S_b^- from the states `labels` / `codes`.

    `a` and `b` are two sites, or two equal-length arrays of sites whose
    pairs (a[p], b[p]) are taken in turn, all in one pass. Returns (src,
    tgt, x, y) with <tgt| S_a^+ S_b^- |src> = sqrt(x) sqrt(y) / 4 and x, y
    integers, concatenated over the pairs: src indexes the rows of
    `labels`, tgt the sorted sector codes `into` (default `codes`, the
    whole sector).
    """
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    tspins = np.asarray(spec.site_twice_spins)
    strides = np.asarray(spec.site_strides)
    ma, mb = labels.T[a], labels.T[b]
    ta, tb = tspins[a], tspins[b]
    pair, src = np.nonzero((ma < ta[:, None]) & (mb > -tb[:, None]))
    # raising m_a lowers its mixed-radix digit, lowering m_b raises its digit
    tgt = np.searchsorted(
        codes if into is None else into,
        codes[src] - strides[a][pair] + strides[b][pair],
    )
    ma, mb = ma[pair, src].astype(np.int64), mb[pair, src].astype(np.int64)
    ta, tb = ta[pair], tb[pair]
    return src, tgt, ta * (ta + 2) - ma * (ma + 2), tb * (tb + 2) - mb * (mb - 2)


def _hops(
    spec: ChainSpec,
    labels: np.ndarray,
    codes: np.ndarray,
    a: int | np.ndarray,
    b: int | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, tgt, coeff) of `_hop_radicands`, <tgt| S_a^+ S_b^- |src> = coeff.

    The roots are multiplied in the order of `raise_coefficient(...) *
    lower_coefficient(...)`, so every coeff is bitwise equal to the
    scalar form.
    """
    src, tgt, x, y = _hop_radicands(spec, labels, codes, a, b)
    return src, tgt, (0.5 * np.sqrt(x)) * (0.5 * np.sqrt(y))


def _flip_flop_sites(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sites (a, b) of every S_a^+ S_b^- in the flip-flop part J/2 (S_i^+ S_k^-
    + h.c.) of H: both directions of every bond.

    The 2-site ring's two bonds reach each element twice, so a fill must
    sum the entries, not assign them.
    """
    return np.array([hop for i, k in spec.bonds() for hop in ((i, k), (k, i))]).T


def _sector_blocks(
    spec: ChainSpec, labels: np.ndarray, codes: np.ndarray
) -> np.ndarray:
    """One sector's Sz block of `build_hamiltonian`, real symmetric.

    The diagonal is the Sz Sz energy, and each flip-flop below the
    diagonal is mirrored above it. The hop amplitudes come in exactly
    equal transpose pairs (the same square roots both ways), so this is
    also the full fill, bit for bit.
    """
    zz = _zz_energy(labels, spec.bonds(), spec.coupling_kelvin)
    src, tgt, coeff = _hops(spec, labels, codes, *_flip_flop_sites(spec))
    lower = tgt > src
    amp = 0.5 * spec.coupling_kelvin * coeff[lower]
    return _symmetric(tgt[lower], src[lower], amp, zz)


def _ring_blocks(spec: ChainSpec) -> Iterator[tuple[int, int, int, np.ndarray, int]]:
    """Yield a ring's Hamiltonian as real symmetric momentum blocks,
    (2Sz, q, parity, block, copies), one block at a time, for every
    2Sz >= 0; parity is +-1 at k = 0 and pi, else 0.

    T, which moves every site one (S, 1/2) cell (two sites) on, commutes
    with H and Sz, and the n/2 = c cells split each sector into momentum
    blocks k = 2 pi q / c. Each translation orbit is held by its
    lowest-code representative a with orbit length L_a, and it carries
    momentum k only if k L_a is a multiple of 2 pi. Every flip-flop from
    a lands on some T^s b, giving <b,k|H|a,k> = sqrt(L_a/L_b) sum h e^{iks}
    (A. W. Sandvik, AIP Conf. Proc. 1297, 135 (2010)).

    The site reflection P: i -> -i mod n fixes S site 0, maps S sites to
    S sites, commutes with H, and P T P = T^-1. If P a = T^g a', then
    Theta = K P (complex conjugation after P) maps |a,k> to
    e^{ikg} |a',k>; it commutes with H and squares to 1, so the k block
    is real in a basis of Theta-invariant states (Sandvik's semimomentum
    and parity basis): e^{ikg/2} |a,k> for an orbit with a' = a, and for
    a pair of orbits a < a' the + state (|a,k> + e^{ikg} |a',k>)/sqrt 2,
    placed at a, and the - state i(|a,k> - e^{ikg} |a',k>)/sqrt 2,
    placed at a'. The -k block has the k block's levels, so only
    0 <= k <= pi is yielded, with copies = 2 for 0 < k < pi. At k = 0
    and k = pi, Theta acts as P: the + states, the - states and the
    orbits with a' = a (parity e^{-ikg}) fall into a P = +1 and a P = -1
    block, each with copies = 1. A hop scatters into at most 4 elements
    of this basis, each the real part of its phase.

    A flip-flop changes one S site and one spin-1/2 site. A translation
    or a reflection of the ring (T^s P) permutes the S sites among
    themselves and the 1/2 sites among themselves, so a state and its
    image differ on no site or on at least two sites of each kind. No
    hop therefore stays within an orbit or reaches its mirror orbit, and
    the diagonal is the Sz Sz energy alone. Each block takes the hops
    below its diagonal and their mirror images above it, so it is
    exactly symmetric for `eig_sym`.

    Orbits, reflection partners and hops are found for every sector in
    one pass over the 2Sz >= 0 states (codes ascending), and each q in
    one pass over the hops. A stable sort on 2Sz, and at k = 0 and pi on
    parity, hands each block its elements in the order of a
    sector-by-sector build, so every duplicate is summed in the same
    order and the block is the same to the bit. The largest blocks come
    first (0 < k < pi before k = 0 and pi, 2Sz ascending within one q),
    so that each later block fits in memory an earlier one freed. The
    product basis is never split into sectors.
    """
    cells = spec.n_sites // 2
    codes, labels, twice_sz = _basis(spec)
    up = twice_sz >= 0
    codes, labels, twice_sz = codes[up], labels[up], twice_sz[up]
    # translating by r cells rotates the base-p cell digits of a code by r
    p = 2 * (spec.spin.twice_spin + 1)
    images = np.stack(
        [codes // p**r + codes % p**r * p ** (cells - r) for r in range(cells)]
    )
    lowest = images.argmin(axis=0)  # T^lowest x is the representative of x
    reps = np.flatnonzero(lowest == 0)
    rep_of = np.searchsorted(codes[reps], images[lowest, np.arange(codes.size)])
    shift = -lowest % cells  # x = T^shift rep_of(x)
    period = cells // np.count_nonzero(images[:, reps] == codes[reps], axis=0)
    del images, lowest
    rep_labels = labels[reps]
    reflected = rep_labels[:, -np.arange(spec.n_sites) % spec.n_sites]
    digits = (np.asarray(spec.site_twice_spins) - reflected) // 2
    mirror = np.searchsorted(codes, digits @ np.asarray(spec.site_strides))
    partner, turn = rep_of[mirror], shift[mirror]  # P a = T^turn partner
    own = np.arange(reps.size)
    lone, first = partner == own, own < partner
    src, tgt_state, x, y = _hop_radicands(
        spec, rep_labels, codes[reps], *_flip_flop_sites(spec), into=codes
    )
    tgt, turns = rep_of[tgt_state], shift[tgt_state]
    rep_sz = twice_sz[reps]
    # the sector numbers, and the groups 2 sector + 1 below, in int16
    # where that fits, else the narrowest width that holds them
    width = np.promote_types(np.int16, np.min_scalar_type(int(rep_sz.max()) + 1))
    sector = (rep_sz // 2).astype(width)
    zz = _zz_energy(rep_labels, spec.bonds(), spec.coupling_kelvin)
    del codes, labels, twice_sz, rep_of, shift, reflected, digits, tgt_state
    # J/2 sqrt(x) sqrt(y) / 4 sqrt(L_a / L_b), and 1/sqrt 2 for each end of
    # the hop on an orbit P pairs with another, taken as one root of an
    # exact integer, so that each amplitude is rounded at most three times
    radicand = x * y * period[src] * period[tgt] << (lone[src] + lone[tgt].astype(int))
    amp = np.sqrt(radicand) / period[tgt] * (spec.coupling_kelvin / 16)
    del x, y, radicand
    # A phase e^{i pi t / (2 cells)} is held as the integer t mod 4 cells.
    # Orbit a's coefficient in the state at its own position and in the
    # one at its partner's (a - state placed at a' if a < a', else a +
    # state) has the phase base + q slope at k = 2 pi q / cells.
    full = 4 * cells
    cos = np.cos(np.pi / (2 * cells) * np.arange(full))
    cos[::cells] = 1.0, 0.0, -1.0, 0.0
    at = np.stack([own, np.where(lone, -1, partner)]).astype(np.int32)
    base = np.stack([np.where(first | lone, 0, -cells), np.where(first, cells, 0)])
    slope = np.where(first, 0, 4 * turn)
    slope = np.stack([np.where(lone, 2 * turn, slope), slope])
    # hop a -> T^s b: <beta|H|alpha> gains Re(conj(u_b) u_a h e^{iks}),
    # for each state alpha of a and beta of b; the states keep their order
    # within a block, so only the elements below its diagonal are taken
    row, col = np.broadcast_arrays(at[:, None, tgt], at[None, :, src])
    hit = (col >= 0) & (row > col)
    # the elements grouped by 2Sz, each group in the order of a
    # sector-by-sector build, kept in int32 through the blocks
    order = np.argsort(sector[row[hit]], kind="stable")
    row, col = row[hit][order], col[hit][order]
    amp = np.broadcast_to(amp, hit.shape)[hit][order]
    angle = (base[None, :, src] - base[:, None, tgt])[hit][order].astype(np.int32)
    step = slope[None, :, src] + 4 * turns - slope[:, None, tgt]
    step = step[hit][order].astype(np.int32)
    del at, base, slope, src, tgt, turns, hit, order
    for q in sorted(range(cells // 2 + 1), key=lambda q: 2 * q % cells == 0):
        keep = q * period % cells == 0
        inside = keep[row] & keep[col]
        # at k = 0 and pi the P = +1 and P = -1 states form two blocks
        real = 2 * q % cells == 0
        odd = keep & real & np.where(lone, cos[4 * q * turn % full] < 0, ~first)
        group = 2 * sector + odd
        # each kept state's position in its block: its rank there
        kept = np.flatnonzero(keep)
        kept = kept[np.argsort(group[kept], kind="stable")]
        starts = np.flatnonzero(np.diff(group[kept], prepend=-1))
        sizes = np.diff(starts, append=kept.size)
        pos = np.empty(reps.size, dtype=np.int64)
        pos[kept] = np.arange(kept.size) - np.repeat(starts, sizes)
        if real:  # the elements between the two parities are dropped
            inside &= odd[row] == odd[col]
        inside = np.flatnonzero(inside)
        if real:
            inside = inside[np.argsort(group[row[inside]], kind="stable")]
        r, c = row[inside], col[inside]
        z = amp[inside] * cos[(angle[inside] + q * step[inside]) % full]
        cuts = np.searchsorted(group[r], group[kept[starts]]).tolist() + [inside.size]
        r, c, diagonal = pos[r], pos[c], zz[kept]
        del inside
        for k, (lo, size) in enumerate(zip(starts.tolist(), sizes.tolist())):
            a, b = cuts[k], cuts[k + 1]
            block = _symmetric(r[a:b], c[a:b], z[a:b], diagonal[lo : lo + size])
            parity = (-1 if odd[kept[lo]] else 1) if real else 0
            yield int(rep_sz[kept[lo]]), q, parity, block, 1 if real else 2
            del block  # free it before the next one is filled


def _symmetric(
    row: np.ndarray, col: np.ndarray, z: np.ndarray, diagonal: np.ndarray
) -> np.ndarray:
    """The block with z at (row, col) below its diagonal, the same values
    mirrored above it and `diagonal` on it; duplicate elements are summed."""
    dim = diagonal.size
    # each element below the diagonal, then its mirror image above it
    flat = np.concatenate([row * dim + col, col * dim + row])
    # (a bincount of no hops is an integer array)
    block = np.bincount(flat, np.concatenate([z, z]), dim * dim)
    block = block.astype(float, copy=False).reshape(dim, dim)
    block[np.diag_indices(dim)] = diagonal
    return block


def _coupling_paths(spec: ChainSpec) -> np.ndarray:
    """Every coupling path of an open chain, one row each, in
    lexicographic order.

    Site 0 is coupled with site 1 to j_1, that with site 2 to j_2, and so
    on to the total spin J = j_{n-1}; row p holds twice (j_0 = S, j_1, ...,
    j_{n-1}) of path p. The paths of one J label its multiplets, so there
    are D(J) - D(J + 1) of them for sector dimensions D.
    """
    paths = np.array([[spec.site_twice_spins[0]]])
    for ts in spec.site_twice_spins[1:]:
        tj = paths[:, -1:]
        reach = tj + np.arange(-ts, ts + 1, 2)
        parent, step = np.nonzero(reach >= np.abs(tj - ts))
        paths = np.column_stack([paths[parent], reach[parent, step]])
    return paths


def _spin_half_6j(ta: np.ndarray, ts: int, tc: np.ndarray, tm: np.ndarray) -> np.ndarray:
    """The 6j symbols {A S C; 1/2 M S - 1/2} with M = C -+ 1/2, each spin
    given as twice its value, in closed form (A. R. Edmonds, Angular
    Momentum in Quantum Mechanics, Table 5).

    With s = A + S + C, the sign is (-1)^s and the square is
    (s + 1)(s - 2A) / [2S (2S + 1) 2C (2C + 1)] for M = C - 1/2 and
    (s - 2C)(s - 2S + 1) / [(2C + 1)(2C + 2) 2S (2S + 1)] for M = C + 1/2:
    zero where (A M S - 1/2) breaks the triangle rule. The square is one
    ratio of integers, so one correctly rounded division and one square
    root give the magnitude, the same float as from any exact form of that
    ratio (Racah's sum). Numerator and denominator are int64 products
    while the largest denominator is below 2^53, where floats hold them
    exactly, and Python integers beyond.
    """
    s = (ta + ts + tc) // 2
    down = tm < tc
    a = np.where(down, s + 1, s - tc)
    b = np.where(down, s - ta, s - ts + 1)
    c = np.where(down, tc * (tc + 1), (tc + 1) * (tc + 2))
    # a * b <= c * 2S (2S + 1): the numerator is at most the denominator
    if int(c.max(initial=0)) * ts * (ts + 1) >= 2**53:
        a, c = a.astype(object), c.astype(object)
    root = np.sqrt((a * b / (c * (ts * (ts + 1)))).astype(float))
    return np.where(s % 2 == 1, -root, root)


def _multiplet_runs(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The level table of an open chain, one run per total spin J: each
    multiplet's level, its 2J and the edge bond's value on it.

    H commutes with total spin, so each multiplet is solved once, as a
    level of the block H_J on the coupling paths of total spin J
    (`_coupling_paths`), with no product basis (K. Baerwinkel, H.-J.
    Schmidt and J. Schnack, J. Magn. Magn. Mater. 212, 240 (2000)). Each
    bond pairs an S site with a spin-1/2 site, so S_k . S_k+1 =
    S/2 - (2S + 1)/2 P, with P the projector of the pair onto spin
    sigma = S - 1/2. The edge bond S_0 . S_1 is diagonal,
    [j1(j1 + 1) - S(S + 1) - 3/4] / 2. For k >= 1, P changes only j_k,
    and on the paths that share every other j (at most two) it is u u^T,
    u = sqrt((2 j_k + 1) 2S) {j_k-1 s_k j_k; s_k+1 j_k+1 sigma}; one of s_k
    and s_k+1 is 1/2, so the symbol has a closed form (`_spin_half_6j`),
    and the recoupling phase is common to the paths, so it cancels. A
    level's edge-bond value is the diagonal weighted by its eigenvector
    squared. Each level is one multiplet and one table entry: run 2J
    holds the sorted levels of H_J, 2J descending. No product basis is
    enumerated.
    """
    ts = spec.spin.twice_spin
    coupling = spec.coupling_kelvin
    twice = np.asarray(spec.site_twice_spins)
    strides = np.asarray(spec.site_strides)
    paths = _coupling_paths(spec)
    inner = paths[:, 1:-1]  # j_k of the bonds (k, k + 1), 1 <= k <= n - 2
    # the steps d_k = j_k - j_k-1 + s_k of a path, each in 0 ... 2s_k
    steps = (np.diff(paths, axis=1) + twice[1:]) // 2
    # column permutations make each symbol {A S j_k; 1/2 M sigma}: (A, M) is
    # (j_k+1, j_k-1) where s_k = 1/2 (k odd), else (j_k-1, j_k+1)
    half = np.arange(1, spec.n_sites - 1) % 2 == 1
    below, above = paths[:, :-2], paths[:, 2:]
    six = _spin_half_6j(np.where(half, above, below), ts, inner, np.where(half, below, above))
    u = np.sqrt((inner + 1) * ts) * six
    edge = (paths[:, 1] * (paths[:, 1] + 2) - ts * (ts + 2) - 3) / 8.0
    diagonal = coupling * (
        edge + (spec.n_sites - 2) * ts / 4 - (ts + 1) / 2 * (u * u).sum(1)
    )
    # the steps d_k of a path are digits in the sites' mixed radix, so its
    # code ranks it among the paths; raising j_k by 1 (d_k + 1, d_k+1 - 1)
    # adds stride_k - stride_k+1 to the code
    codes = steps @ strides[1:]
    raises = (steps[:, :-1] < twice[1:-1]) & (steps[:, 1:] > 0)
    levels, twice_j, edges = [], [], []
    # the paths of each J in path order, 2J descending
    order = np.argsort(-paths[:, -1], kind="stable")
    for block in np.split(order, np.flatnonzero(np.diff(paths[order, -1])) + 1):
        own = codes[block]
        target = own[:, None] + (strides[1:-1] - strides[2:])
        partner = np.minimum(np.searchsorted(own, target), own.size - 1)
        col, bond = np.nonzero(raises[block] & (own[partner] == target))
        row = partner[col, bond]
        z = -coupling * (ts + 1) / 2 * u[block[row], bond] * u[block[col], bond]
        evals, vecs = eig_sym(_symmetric(row, col, z, diagonal[block]))
        levels.append(evals)
        twice_j.append(np.full(evals.size, paths[block[0], -1]))
        edges.append((vecs * vecs).T @ edge[block])
    return np.concatenate(levels), np.concatenate(twice_j), np.concatenate(edges)


def build_hamiltonian(spec: ChainSpec) -> list[SectorBlock]:
    """The Hamiltonian blocked by total Sz: `_sector_blocks` for every
    sector, bitwise symmetric."""
    return [
        SectorBlock(tsz, labels, codes, _sector_blocks(spec, labels, codes))
        for tsz, labels, codes in _enumerate_sectors(spec)
    ]


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


# Eigensolver roundoff splits the ground multiplet by up to 1.1e-13 |J|
# (eigvalsh of the Sz blocks, n=10, 2S=2 ring, J < 0; 6.1e-14 |J| for
# J > 0, at n=6, 2S=5, open), and by up to 5.0e-14 |J| in the real
# momentum blocks of the rings (n=6, 2S=6, J > 0), while the smallest
# excitation gap above it is 0.049 |J| (n=10, 2S=1, open, J < 0); all
# measured with eigh and eigvalsh over every chain of dimension <= 8,000
# with 2S <= 7 and J = +-1. A tolerance of 1e-12 |J| n sits at least 50x
# above the first and 1e9x below the second. `_multiplets` clusters with
# it too: over the same chains, the levels of one multiplet in all its
# blocks span at most 6.0e-14 |J| (momentum blocks, n=6, 2S=7) and
# 3.8e-14 |J| (Sz blocks, n=10, 2S=2), while two distinct levels of one
# group lie at least 9.7e-7 |J| apart (Sz blocks of the n=12, 2S=1 ring).
# Roundoff grows with the levels, which |J| n (S + 1)/2 bounds (a bond's
# eigenvalues are S/2 and -(S + 1)/2), so the tolerance grows with
# (S + 1)/2 from S = 1 on: at 2S = 32767 one ulp of the n=2 ring's
# levels, 3.6e-12 |J|, exceeds 1e-12 |J| n.
_GROUND_SNAP = 1e-12


def _level_tolerance(spec: ChainSpec) -> float:
    """1e-12 |J| n max(1, (S + 1)/2): the ground snap's and `_multiplets`'
    tolerance."""
    scale = max(1.0, (spec.spin.twice_spin + 2) / 4.0)
    return _GROUND_SNAP * abs(spec.coupling_kelvin) * spec.n_sites * scale


def _multiplets(
    spec: ChainSpec, blocks: list[tuple[int, int, int, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(levels, 2J, copies) of every SU(2) multiplet, from the eigenvalues
    of the blocks (2Sz, group, copies, eigenvalues) of the 2Sz >= 0
    sectors.

    S^-_tot commutes with H and with the symmetries that a group stands
    for (a ring's translation T and reflection P), so the levels of block
    (2Sz + 2, group) are among those of (2Sz, group), and a multiplet of
    spin J has one level in each 2Sz <= 2J. The eigenvalues of one group
    are clustered, levels less than `_level_tolerance` apart (the ground
    snap's tolerance) falling in one cluster. A cluster with c_M levels in
    2Sz = M holds c_M - c_{M+2} multiplets of 2J = M, and its lowest
    c_M - c_{M+2} levels in 2Sz = M are their energies, each taken from
    the smallest block that holds it: one vectorized pass over every
    eigenvalue. A negative count means that the blocks do not hold SU(2)
    multiplets to the solver's accuracy, and raises RuntimeError.
    """
    sizes = [evals.size for *_, evals in blocks]
    twice_sz, group, copies = np.repeat([b[:3] for b in blocks], sizes, axis=0).T
    energy = np.concatenate([evals for *_, evals in blocks])
    order = np.lexsort((energy, group))
    twice_sz, group, copies, energy = (
        twice_sz[order], group[order], copies[order], energy[order]
    )
    tol = _level_tolerance(spec)
    starts = np.diff(energy, prepend=-np.inf) > tol
    starts[1:] |= group[1:] != group[:-1]
    cluster = np.cumsum(starts) - 1
    # levels[key] counts a cluster's levels in one 2Sz, with one empty 2Sz
    # above the highest, so that each has a c_{M+2}
    lowest = min(b[0] for b in blocks)
    rungs = (max(b[0] for b in blocks) - lowest) // 2 + 2
    rung = (twice_sz - lowest) // 2
    key = cluster * rungs + rung
    levels = np.bincount(key, minlength=(cluster[-1] + 1) * rungs)
    counts = levels.reshape(-1, rungs)
    multiplets = counts[:, :-1] - counts[:, 1:]
    if (multiplets < 0).any():
        c, r = np.argwhere(multiplets < 0)[0]
        raise RuntimeError(
            f"the 2Sz = {lowest + 2 * r + 2} block holds a level at "
            f"{float(energy[cluster == c][0])!r} K that the 2Sz = {lowest + 2 * r} "
            "block of its symmetry lacks: the levels are not SU(2) multiplets "
            f"to within {tol!r} K"
        )
    # each level's rank among its cluster's levels of its 2Sz, by energy (a
    # stable sort on the key); the lowest ones are the multiplets
    by_key = np.argsort(key, kind="stable")
    rank = np.arange(key.size) - (np.cumsum(levels) - levels)[key[by_key]]
    keep = by_key[rank < multiplets[cluster, rung][by_key]]
    return energy[keep], twice_sz[keep], copies[keep]


def diagonalize(spec: ChainSpec, vectors: bool = True) -> SectorSpectralData:
    """The level table, and with eigenvectors (unless vectors=False) the
    per-sector spectra.

    Only the 2Sz >= 0 sectors are assembled and solved, one block at a
    time, every block real symmetric. An eigenvalue-only spectrum of a
    ring (vectors=False, periodic) solves each sector as its real
    translation-momentum blocks (`_ring_blocks`), with k = 0 and k = pi
    split by reflection parity. An eigenvalue-only spectrum of an open
    chain (vectors=False, open) solves one block per total spin J, on its
    D(J) - D(J + 1) coupling paths for sector dimensions D, built from 6j
    symbols (`_multiplet_runs`: 76 levels against an Sz block of 262 at
    n=8, S=1) with no product basis. Either way the levels agree with
    the dense sector's to rounding, `sectors` is None, `bond` is set
    (on a ring after the ground snap below), and the product basis is
    never split into sectors (`_enumerate_sectors`). Spectra with
    eigenvectors solve the one Sz block per sector (`_sector_blocks`).
    `dim_cap` is checked against the total dimension before anything is
    built.

    The level table (`SectorSpectralData`) holds each multiplet once.
    The open multiplet path solves each once and knows its J. Otherwise
    `_multiplets` takes the multiplets from the eigenvalues of every
    block: a ring's momentum blocks grouped by (q, P), a spectrum with
    eigenvectors as one group of Sz blocks. An entry's energy is its
    level in the smallest block that holds it (2Sz = 2J), and its copies
    are 2 for a ring's 0 < k < pi block and 1 otherwise. On every path
    the table runs 2J descending, each run sorted, and RuntimeError is
    raised unless its multiplicities add up to the dimension.

    The global spin flip maps the basis of sector -M onto that of +M in
    reverse order (labels -labels[::-1]), and the -M block is bitwise the
    +M block reversed in rows and columns. So with eigenvectors sector -M
    takes the row-reversed view V[::-1] of its partner's eigenvectors.
    The levels of sectors +-M are one array, the table entries of
    2J >= |2Sz| sorted: the clusters of `_multiplets` keep their order,
    so each entry lands on an eigenvector of its own cluster, and each
    multiplet has one exact energy in all its sectors. The arrays are
    made read-only because they are shared. Sectors keep their order
    (2Sz descending).

    Every level within `_level_tolerance` of the global ground energy,
    1e-12 |J| n max(1, (S + 1)/2), is set to
    exactly that energy. Below T ~ 1e-13 J the Boltzmann factors would
    otherwise resolve the roundoff split of the ground multiplet; snapped,
    the multiplet keeps equal weights down to any T, so every thermal
    average reaches its T -> 0 limit.
    """
    _check_cap(spec)
    bases, evecs, bond = None, {}, None
    if spec.boundary == "open" and not vectors:
        levels, twice_j, bond = _multiplet_runs(spec)
        copies = np.ones_like(twice_j)
    else:
        blocks = []
        if not vectors:
            for tsz, q, parity, block, copies in _ring_blocks(spec):
                evals, _ = eig_sym(block, vectors=False)
                del block  # free it before the next one is filled
                blocks.append((tsz, 3 * q + parity, copies, evals))  # group (q, P)
        else:
            bases = _enumerate_sectors(spec)
            for tsz, labels, codes in bases:
                if tsz >= 0:
                    evals, evecs[tsz] = eig_sym(_sector_blocks(spec, labels, codes))
                    blocks.append((tsz, 0, 1, evals))
        levels, twice_j, copies = _multiplets(spec, blocks)
    order = np.lexsort((levels, -twice_j))  # 2J descending, then ascending
    levels, twice_j = levels[order], twice_j[order]
    multiplicity = copies[order] * (twice_j + 1)
    if bond is not None:
        bond = bond[order]
    if int(multiplicity.sum()) != spec.total_dimension:
        raise RuntimeError(
            f"the level table holds {int(multiplicity.sum())} states, not the "
            f"dimension {spec.total_dimension}"
        )
    e0 = float(levels.min())
    levels[levels - e0 <= _level_tolerance(spec)] = e0
    if spec.boundary == "periodic" and not vectors:
        bond = levels / (spec.n_sites * spec.coupling_kelvin)
    spectra = {tsz: np.sort(levels[twice_j >= tsz]) for tsz in evecs}
    for arr in (levels, multiplicity, twice_j, bond, *evecs.values(), *spectra.values()):
        if arr is not None:
            arr.flags.writeable = False
    sectors = None
    if vectors:
        sectors = tuple(
            SectorSpectrum(
                tsz, labels, codes, spectra[abs(tsz)],
                evecs[tsz] if tsz >= 0 else evecs[-tsz][::-1],
            )
            for tsz, labels, codes in bases
        )
    return SectorSpectralData(
        spec=spec,
        sectors=sectors,
        levels=levels,
        multiplicity=multiplicity,
        twice_j=twice_j,
        ground_energy_kelvin=e0,
        bond=bond,
    )


def _check_vectors(data: SectorSpectralData, what: str) -> None:
    if data.sectors is None:
        raise ValueError(
            f"{what} needs eigenvectors; this spectrum holds eigenvalues only, "
            "diagonalize with vectors=True"
        )


def _boltzmann_factors(gaps: np.ndarray, temperature_kelvin: float | np.ndarray) -> np.ndarray:
    """`_factors` at temperatures checked here."""
    check_positive("temperature", temperature_kelvin)
    with np.errstate(over="ignore"):  # see `_factors`
        return _factors(gaps, temperature_kelvin)


def _factors(gaps: np.ndarray, temperature_kelvin: float | np.ndarray) -> np.ndarray:
    """exp(gaps / T), gaps = E0 - E_i, shape T.shape + gaps.shape, unchecked.

    Exponents are shifted by the ground energy so that low temperatures
    never overflow, and divided by T rather than multiplied by 1/T: at a
    subnormal T, 1/T is inf, and 0 inf would make the ground entries nan.
    There (E0 - E)/T overflows to -inf, whose exp = 0 is the limit; the
    overflow warns unless the caller ignores it.
    """
    f = gaps / np.asarray(temperature_kelvin, dtype=float)[..., None]
    return np.exp(f, out=f)


def thermal_weights(
    data: SectorSpectralData, temperature_kelvin: float | np.ndarray
) -> np.ndarray:
    """Normalized Boltzmann weights of the level table, shape T.shape + (m,).

    Entry i is multiplicity[i] exp(-(E_i - E0)/T) / Z, the total weight
    of the multiplicity[i] states of its multiplet (and their momentum
    copies), so the weights sum to 1: one exp per table entry and
    temperature (`_boltzmann_factors`). A row of a temperature array goes
    through the same operations as a scalar call (elementwise, then one
    sum over the last axis), so the two agree bitwise. The thermal means
    (`susceptibility_exact`, `thermal_mean`) do not normalize.
    """
    w = _boltzmann_factors(data._gaps, temperature_kelvin)
    w *= data.multiplicity
    w /= w.sum(-1)[..., None]
    return w


def _sector_weights(
    data: SectorSpectralData, temperature_kelvin: float
) -> list[np.ndarray]:
    """Boltzmann weights of each sector's levels, in sector order, from
    the sectors' own levels (`SectorSpectrum.eigenvalues`) in one
    `_boltzmann_factors` call, normalized over every state."""
    levels = [sec.eigenvalues for sec in data.sectors]
    gaps = data.ground_energy_kelvin - np.concatenate(levels)
    w = _boltzmann_factors(gaps, temperature_kelvin)
    w /= w.sum()
    return np.split(w, np.cumsum([x.size for x in levels])[:-1])


@dataclass(frozen=True, eq=False)
class CorrelatorMatrix:
    """Thermal two-site correlators for every site pair.

    g_zz[i, j] = <Sz_i Sz_j>, g_dot[i, j] = <S_i . S_j>; diagonal entries
    are on-site moments, so g_dot[i, i] = S_i(S_i + 1). Isotropy of the
    Hamiltonian makes g_dot = 3 g_zz.
    """

    temperature_kelvin: float
    g_zz: np.ndarray
    g_dot: np.ndarray


_CHUNK = 2048


def _flip_flop_levels(
    spec: ChainSpec, sector: SectorSpectrum, a: int, b: int
) -> np.ndarray:
    """<k| S_a^+ S_b^- |k> on each level k of one sector: sum coeff
    V[tgt,k] V[src,k] over the hops of S_a^+ S_b^-, gathered in chunks
    so that the temporaries stay bounded."""
    vecs = sector.eigenvectors
    src, tgt, coeff = _hops(spec, sector.labels, sector.codes, a, b)
    values = np.zeros(vecs.shape[1])
    for lo in range(0, src.size, _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        rows = vecs[tgt[sl]]
        rows *= vecs[src[sl]]
        values += coeff[sl] @ rows
    return values


def correlator_matrix(
    data: SectorSpectralData, temperature_kelvin: float
) -> CorrelatorMatrix:
    """Two-site thermal correlators at one temperature, for every site pair.

    Diagonal operators (Sz_i Sz_j and the on-site part) only need the
    basis-state occupation probabilities P_b = sum_k w_k V[b,k]^2; the
    transverse part is assembled from flip-flop expectations. Sectors do
    not mix because every operator involved conserves total Sz.
    """
    _check_vectors(data, "correlator_matrix")
    spec = data.spec
    n = spec.n_sites
    tspins = np.asarray(spec.site_twice_spins, dtype=np.int64)
    casimirs = tspins * (tspins + 2) / 4.0
    g_zz = np.zeros((n, n))
    flip = np.zeros((n, n))
    for sector, w in zip(data.sectors, _sector_weights(data, temperature_kelvin)):
        prob = (sector.eigenvectors**2) @ w
        m = sector.labels / 2.0
        g_zz += (m * prob[:, None]).T @ m
        # on-site (S+S- + S-S+)/2 is diagonal: S(S+1) - m^2
        flip[np.diag_indices(n)] += casimirs * prob.sum() - (m**2 * prob[:, None]).sum(
            axis=0
        )
        for i, k in itertools.combinations(range(n), 2):
            # <S_i^+ S_k^-> = <S_i^- S_k^+> for a real symmetric rho
            val = _flip_flop_levels(spec, sector, i, k) @ w
            flip[i, k] += val
            flip[k, i] += val
    g_zz = 0.5 * (g_zz + g_zz.T)  # BLAS output is not bitwise symmetric
    return CorrelatorMatrix(
        temperature_kelvin=temperature_kelvin, g_zz=g_zz, g_dot=g_zz + flip
    )


def susceptibility_exact(
    data: SectorSpectralData, temperature_kelvin: float | np.ndarray
) -> float | np.ndarray:
    """Reduced susceptibility chi k_B T / (g^2 mu_B^2) = sum_ij <Sz_i Sz_j>.

    Eigenstates carry definite total Sz, so the double sum collapses to
    <(Sz_total)^2>. The 2J + 1 states of a multiplet have sum Sz^2 =
    (2J + 1) J(J + 1)/3, so over the table it is sum m f J(J + 1)/3 /
    sum m f, with the Boltzmann factors f (`_boltzmann_factors`). Both
    sums come from one stacked matrix product of the factors with the
    columns (m J(J + 1)/3, m):
    each (row, column) pair is its own dot product (BLAS ddot), so an
    element of a temperature array equals its scalar call bitwise. Every
    term is >= 0, so no cancellation amplifies the dot product's
    rounding. A float for a scalar temperature; for an array, an array
    of the same shape. The temperatures are checked here, then
    `_susceptibility` computes.
    """
    check_positive("temperature", temperature_kelvin)
    with np.errstate(over="ignore"):  # see `_factors`
        chi = _susceptibility(data._gaps, data._chi_columns, temperature_kelvin)
    return chi if np.ndim(temperature_kelvin) else float(chi)


def _susceptibility(
    gaps: np.ndarray, columns: np.ndarray, temperature_kelvin: float | np.ndarray
) -> np.ndarray:
    """`susceptibility_exact` of the table with these `_gaps` and
    `_chi_columns`, unchecked (`_factors`)."""
    f = _factors(gaps, temperature_kelvin)
    sums = (f[..., None, None, :] @ columns[:, :, None])[..., 0, 0]
    return sums[..., 0] / sums[..., 1]


def _weighted_sums(
    factors: np.ndarray, weights: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(sum w f v, sum w f) over the last axis of `factors`, which it
    overwrites: two products in place and two pairwise sums, each row
    summed on its own."""
    factors *= weights
    z = factors.sum(-1)
    factors *= values
    return factors.sum(-1), z


def _per_entry(data: SectorSpectralData, values: np.ndarray) -> np.ndarray:
    """`values` as floats, one per level-table entry, or ValueError."""
    values = np.asarray(values, dtype=float)
    if values.shape != data.levels.shape:
        raise ValueError(
            f"values must hold one number per level-table entry, shape "
            f"{data.levels.shape}; got shape {values.shape}"
        )
    return values


def thermal_mean(
    data: SectorSpectralData,
    values: np.ndarray,
    temperature_kelvin: float | np.ndarray,
) -> float | np.ndarray:
    """Boltzmann average of a traceless per-level quantity.

    `values` holds the quantity's value at each entry of the level table
    (`SectorSpectralData.levels`): the levels themselves for <H>,
    `SectorSpectralData.bond` or `bond_levels` for a bond correlator.
    Each sums to zero over the whole spectrum (multiplicity m times
    value), because H and every S_i . S_j are traceless. The mean is
    sum m f values / sum m f, with the Boltzmann factors f
    (`_boltzmann_factors`), both sums pairwise (`_weighted_sums`): the
    terms cancel where the mean is small, and a pairwise sum keeps the
    rounding that the cancellation amplifies smaller than a dot product
    does. Above the level spread (`ChainSpec.level_spread_kelvin`) the
    factors are nearly equal and the mean falls like 1/T, while that
    ratio keeps an absolute error near 1e-16; there it is taken as
    sum m expm1(-E/T) values / (sum m expm1(-E/T) + d), d = sum m the
    dimension, which is sum m exp(-E/T) values / sum m exp(-E/T) for a
    traceless quantity, to full relative accuracy. A float for a scalar
    temperature; for an array, an array of the same shape whose elements
    equal the scalar calls bitwise.
    """
    values = _per_entry(data, values)
    scalar = np.ndim(temperature_kelvin) == 0
    t = np.asarray(temperature_kelvin, dtype=float)
    hot = t > data.spec.level_spread_kelvin

    def ratio(values: np.ndarray) -> float | np.ndarray:
        num, z = _weighted_sums(
            _boltzmann_factors(data._gaps, temperature_kelvin), data._weights, values
        )
        mean = num / z
        if hot.any():
            mean = np.array(mean)
            num, z = _weighted_sums(
                np.expm1(-data.levels / t[hot][:, None]), data._weights, values
            )
            mean[hot] = num / (z + data.spec.total_dimension)
        return mean

    # Every partial sum is at most d max|values|, which overflows only for a
    # coupling above about 1e270 K. There the sums are redone on values
    # scaled by a power of two below 1, which changes no bit.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = ratio(values)
    if not (math.isfinite(mean) if scalar else np.isfinite(mean).all()):
        _, scale = np.frexp(np.abs(values).max())
        mean = np.ldexp(ratio(np.ldexp(values, -scale)), scale)
    return float(mean) if scalar else mean


def thermal_mean_and_slope(
    data: SectorSpectralData, values: np.ndarray, temperature_kelvin: float
) -> tuple[float, float | None]:
    """`thermal_mean` at one temperature, bitwise, and its derivative in T.

    From the same Boltzmann factors f, the slope is d<b>/dT = (<bE> -
    <b><E>)/T^2, taken as -sum m f (b - <b>) (E0 - E) / (Z T^2): on a
    ring, where the bond values are E/(nJ), that is Var(E)/(nJT^2) > 0.
    Above the level spread, where `thermal_mean` takes its expm1 form,
    and where its sums overflow, the mean is `thermal_mean`'s own and
    the slope is None, as it is wherever it is not a finite number.
    """
    values = _per_entry(data, values)
    t = float(temperature_kelvin)
    if t > data.spec.level_spread_kelvin:
        return thermal_mean(data, values, t), None
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = _boltzmann_factors(data._gaps, t)
        weighted *= data._weights
        z = weighted.sum()
        # the products and pairwise sums of `_weighted_sums`, bit for bit
        mean = float((weighted * values).sum() / z)
        if not math.isfinite(mean):
            return thermal_mean(data, values, t), None
        slope = float(-(((values - mean) * weighted) @ data._gaps) / z / t / t)
    return mean, (slope if math.isfinite(slope) else None)


def bond_levels(data: SectorSpectralData, bond: tuple[int, int]) -> np.ndarray:
    """Values of S_i . S_j for one site pair, one per level-table entry:
    each multiplet's mean over its 2J + 1 states.

    On level k of a sector the value is <k| S_i . S_j |k>: the Sz Sz part
    is sum_b V[b,k]^2 m_i m_j, the flip-flop part (S_i^+ S_j^- +
    S_i^- S_j^+)/2 is sum coeff V[tgt,k] V[src,k] over the hops of
    S_i^+ S_j^- (`_flip_flop_levels`): for real eigenvectors its two
    halves are equal, as in `correlator_matrix`. Sector 2Sz's levels are
    the entries of 2J >= |2Sz| in ascending order (`diagonalize`), so
    each level adds its value to its entry, and the sum over the entry's
    2J + 1 sectors is divided by 2J + 1; S_i . S_j is invariant under the
    global spin flip, so a mirrored sector -M counts its partner's values
    twice. Within a cluster of equal levels the sum is a trace, whatever
    basis the eigensolver chose, so `thermal_mean(data, bond_levels(data,
    bond), T)` is the thermal bond correlator at any temperature. The
    array is read-only.
    """
    _check_vectors(data, "bond_levels")
    spec = data.spec
    n = spec.n_sites
    i, k = bond
    if i == k or i not in range(n) or k not in range(n):
        raise ValueError(
            f"bond {bond} is not two distinct sites of a {n}-site chain"
        )
    out = np.zeros_like(data.levels)
    for sector in data.sectors:
        tsz = sector.twice_total_sz
        if tsz < 0:
            continue
        entries = np.flatnonzero(data.twice_j >= tsz)
        entries = entries[np.argsort(data.levels[entries], kind="stable")]
        m = sector.labels / 2.0
        zz = (m[:, i] * m[:, k]) @ sector.eigenvectors**2
        out[entries] += (zz + _flip_flop_levels(spec, sector, i, k)) * (2 if tsz else 1)
    out /= data.twice_j + 1
    out.flags.writeable = False
    return out


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
    da, db = dims[a], dims[b]
    stride_a, stride_b = spec.site_strides[a], spec.site_strides[b]
    rho = np.zeros((da * db, da * db))
    for sector, w in zip(data.sectors, _sector_weights(data, temperature_kelvin)):
        amp = sector.eigenvectors * np.sqrt(w)[None, :]
        lab = sector.labels.astype(np.int64)
        dig_a = (tspins[a] - lab[:, a]) // 2
        dig_b = (tspins[b] - lab[:, b]) // 2
        pair_idx = dig_a * db + dig_b
        rest = sector.codes - dig_a * stride_a - dig_b * stride_b
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
