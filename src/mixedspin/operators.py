"""Exact real spin-operator algebra.

Spin magnitudes are stored as the integer 2S so that half-integer spins
never touch floating point. All operator matrices are real: the isotropic
exchange S.S' is assembled as Sz Sz' + (S+ S-' + S- S+')/2, so Sy never
has to be materialized and every Hamiltonian stays real symmetric.

Basis convention: index 0 is m = S, index k is m = S - k, down to m = -S.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpinQuantum",
    "SPIN_HALF",
    "SpinOperators",
    "spin_matrices",
    "raise_coefficient",
    "lower_coefficient",
    "embed",
    "eig_sym",
]


@dataclass(frozen=True, order=True)
class SpinQuantum:
    """A spin magnitude S >= 1/2, stored exactly as the integer 2S."""

    twice_spin: int

    def __post_init__(self) -> None:
        if isinstance(self.twice_spin, bool) or not isinstance(
            self.twice_spin, (int, np.integer)
        ):
            raise ValueError(
                f"twice_spin must be an integer, got {self.twice_spin!r}"
            )
        if self.twice_spin < 1:
            # spin 0 carries no magnetic moment, and no site of this package has it
            raise ValueError(f"twice_spin must be >= 1, got {self.twice_spin}")
        try:  # the formulas take S and 2S + 1 as floats
            float(self.twice_spin + 1)
        except OverflowError:
            raise ValueError("spin is too large: 2S + 1 leaves the float range") from None
        object.__setattr__(self, "twice_spin", int(self.twice_spin))

    @classmethod
    def parse(cls, text: str) -> "SpinQuantum":
        """Parse '2' or '5/2'. Decimal forms like '2.5' are rejected."""
        s = text.strip()
        if m := re.fullmatch(r"(\d+)\s*/\s*2", s):
            return cls(int(m.group(1)))
        if re.fullmatch(r"\d+", s):
            return cls(2 * int(s))
        raise ValueError(f"cannot parse spin {text!r}; use forms like '2' or '5/2'")

    @property
    def dimension(self) -> int:
        return self.twice_spin + 1

    @property
    def value(self) -> float:
        """S as a float (exact: 2S/2 is a dyadic rational)."""
        return self.twice_spin / 2.0

    @property
    def casimir(self) -> float:
        """S(S+1), computed from integers."""
        return self.twice_spin * (self.twice_spin + 2) / 4.0

    def __str__(self) -> str:
        if self.twice_spin % 2:
            return f"{self.twice_spin}/2"
        return str(self.twice_spin // 2)


SPIN_HALF = SpinQuantum(1)


def raise_coefficient(twice_spin: int, twice_m: int) -> float:
    """<m+1| S+ |m> = sqrt(S(S+1) - m(m+1)), integer arithmetic under the root."""
    return 0.5 * math.sqrt(twice_spin * (twice_spin + 2) - twice_m * (twice_m + 2))


def lower_coefficient(twice_spin: int, twice_m: int) -> float:
    """<m-1| S- |m> = sqrt(S(S+1) - m(m-1)), integer arithmetic under the root."""
    return 0.5 * math.sqrt(twice_spin * (twice_spin + 2) - twice_m * (twice_m - 2))


@dataclass(frozen=True, eq=False)
class SpinOperators:
    """Dense real matrices for one spin: Sz, S+, S-."""

    spin: SpinQuantum
    sz: np.ndarray
    sp: np.ndarray
    sm: np.ndarray


def spin_matrices(spin: SpinQuantum) -> SpinOperators:
    """Build the real spin matrices for S >= 1/2.

    Sz is diagonal with entries S, S-1, ..., -S. S- is exactly the
    transpose of S+ (same square roots, no recomputation), so symmetry
    of derived Hamiltonians holds bitwise rather than to rounding.
    """
    ts = spin.twice_spin
    d = spin.dimension
    twice_m = ts - 2 * np.arange(d)
    sz = np.diag(twice_m / 2.0)
    sp = np.zeros((d, d))
    for k in range(d - 1):
        # column k+1 holds m = S-(k+1); S+ maps it up to row k
        sp[k, k + 1] = raise_coefficient(ts, ts - 2 * (k + 1))
    return SpinOperators(spin=spin, sz=sz, sp=sp, sm=sp.T.copy())


def embed(op: np.ndarray, site: int, dims: tuple[int, ...] | list[int]) -> np.ndarray:
    """Embed a single-site operator into the tensor product of `dims`.

    `site` indexes `dims` from 0. Identity acts everywhere else.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"dims must be positive integers, got {dims}")
    if not 0 <= site < len(dims):
        raise ValueError(f"site {site} out of range for {len(dims)} sites")
    op = np.asarray(op, dtype=float)
    if op.shape != (dims[site], dims[site]):
        raise ValueError(
            f"operator shape {op.shape} does not match site dimension {dims[site]}"
        )
    out = np.eye(1)
    for k, d in enumerate(dims):
        out = np.kron(out, op if k == site else np.eye(d))
    return out


def eig_sym(
    matrix: np.ndarray, vectors: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecomposition of a real symmetric matrix, ascending eigenvalues.

    Rejects complex input (casting it to float would drop the imaginary
    part), non-finite entries and anything not exactly symmetric; every
    matrix this package produces is assembled exactly symmetric, so
    exact equality is the correct check, not a tolerance. With
    vectors=False only the eigenvalues are computed (`eigvalsh`, which
    may differ from `eigh`'s in the last bits) and the eigenvectors come
    back as None.
    """
    m = np.asarray(matrix)
    if np.iscomplexobj(m):
        raise ValueError("matrix is complex; eig_sym takes real symmetric input")
    m = m.astype(float, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix is not symmetric")
    if not vectors:
        return np.linalg.eigvalsh(m), None
    evals, evecs = np.linalg.eigh(m)
    return evals, evecs
