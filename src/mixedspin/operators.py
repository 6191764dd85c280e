"""Exact real spin-operator algebra.

Spin magnitudes are stored as the integer 2S so that half-integer spins
never touch floating point. All operator matrices are real: the isotropic
exchange S.S' is assembled as Sz Sz' + (S+ S-' + S- S+')/2, so Sy never
has to be materialized and every Hamiltonian stays real symmetric.

Basis convention: index 0 is m = S, index k is m = S - k, down to m = -S.
"""

from __future__ import annotations

import functools
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
    "clebsch_gordan",
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


def clebsch_gordan(
    twice_j1: int, twice_m1: int, twice_j2: int, twice_m2: int, twice_j: int, twice_m: int
) -> float:
    """<j1 m1; j2 m2 | j m>, every quantum number given as twice its value.

    Racah's formula with Condon-Shortley phases, evaluated in exact
    integers: the alternating sum over a common denominator, squared into
    one ratio of integers, then one (correctly rounded) division and one
    square root, so the result is within an ulp of the exact value. Zero
    wherever a selection rule fails. The m < 0 half is the m > 0 half
    times (-1)^(j1 + j2 - j), and the m >= 0 half is cached: a chain's
    coupled basis asks for the same few hundred coefficients many times.
    """
    j1, m1, j2, m2, j, m = twice_j1, twice_m1, twice_j2, twice_m2, twice_j, twice_m
    if (
        m1 + m2 != m
        or abs(m1) > j1
        or abs(m2) > j2
        or abs(m) > j
        or not abs(j1 - j2) <= j <= j1 + j2
        or (j1 + j2 + j) % 2
        or (j1 + m1) % 2
        or (j2 + m2) % 2
    ):
        return 0.0
    if m > 0 or m == 0 and m1 >= 0:
        return _racah(j1, m1, j2, m2, j, m)
    value = _racah(j1, -m1, j2, -m2, j, -m)
    return -value if (j1 + j2 - j) // 2 % 2 else value


@functools.lru_cache(maxsize=None)
def _racah(j1: int, m1: int, j2: int, m2: int, j: int, m: int) -> float:
    """`clebsch_gordan` for arguments that pass its selection rules."""
    f = math.factorial
    # j1 + j2 - j, j1 - m1, j2 + m2, j - j2 + m1, j - j1 - m2
    a, b, c = (j1 + j2 - j) // 2, (j1 - m1) // 2, (j2 + m2) // 2
    d, e = (j - j2 + m1) // 2, (j - j1 - m2) // 2
    lo, hi = max(0, -d, -e), min(a, b, c)
    # the k-th term of the sum, 1 / (k! (a-k)! (b-k)! (c-k)! (d+k)! (e+k)!),
    # times the common denominator a! b! c! (d+hi)! (e+hi)!, is an integer
    total = sum(
        (-1) ** k
        * math.comb(a, k) * math.perm(b, k) * math.perm(c, k)
        * math.perm(d + hi, hi - k) * math.perm(e + hi, hi - k)
        for k in range(lo, hi + 1)
    )
    num = (
        (j + 1)
        * f((j + j1 - j2) // 2) * f((j - j1 + j2) // 2) * f(a)
        * f((j + m) // 2) * f((j - m) // 2)
        * f(b) * f((j1 + m1) // 2) * f((j2 - m2) // 2) * f(c)
        * total**2
    )
    den = f((j1 + j2 + j) // 2 + 1) * (f(a) * f(b) * f(c) * f(d + hi) * f(e + hi)) ** 2
    return math.copysign(math.sqrt(num / den), total)


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
