"""Pauli strings in binary-symplectic form.

A string on N qubits is stored as an overall phase (one of +1, -1, +i, -i)
together with two N-bit masks: the operator is

    phase * (product of X_n over x_mask) * (product of Z_n over z_mask),

so a site carrying both bits holds X*Z = -iY.  Site 1 is the most
significant bit of a mask (and of every basis-state index in this package).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I = np.eye(2, dtype=complex)


def site_bit(n_sites: int, site: int) -> int:
    """Mask bit for a 1-based site index (site 1 = MSB).

    The site rule of hilbert.check_sites, as a scalar check: a whole number
    in 1..N, so 2.0 is site 2, while 1.7, NaN and inf are refused.
    """
    if not (1 <= site <= n_sites and site == int(site)):
        raise ValueError(f"site {site} out of range: need a whole number in 1..{n_sites}")
    return 1 << (n_sites - int(site))


def mask_of_sites(n_sites: int, sites) -> int:
    m = 0
    for s in sites:
        m |= site_bit(n_sites, s)
    return m


def popcount(v: int) -> int:
    return int(v).bit_count()


def z_sign(masked: np.ndarray) -> np.ndarray:
    """(-1)^{popcount}: the sign a Z string picks up on the basis states `masked` by it."""
    return 1.0 - 2.0 * (np.bitwise_count(masked) & 1)


@dataclass(frozen=True)
class PauliString:
    n_sites: int
    x_mask: int
    z_mask: int
    phase: complex = 1 + 0j

    def __post_init__(self):
        if self.phase not in _PHASES:
            raise ValueError("phase must be one of +1, -1, +i, -i")
        top = 1 << self.n_sites
        if not (0 <= self.x_mask < top and 0 <= self.z_mask < top):
            raise ValueError("mask exceeds qubit count")

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n_sites != other.n_sites:
            raise ValueError("size mismatch")
        # moving other's X part through self's Z part gives one -1 per overlap
        sign = -1 if popcount(self.z_mask & other.x_mask) & 1 else 1
        return PauliString(
            self.n_sites,
            self.x_mask ^ other.x_mask,
            self.z_mask ^ other.z_mask,
            _canon(self.phase * other.phase * sign),
        )

    def commutes_with(self, other: "PauliString") -> bool:
        k = popcount(self.x_mask & other.z_mask) + popcount(self.z_mask & other.x_mask)
        return k % 2 == 0

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0 and self.phase == 1

    def weight(self) -> int:
        return popcount(self.x_mask | self.z_mask)

    def x_weight(self) -> int:
        return popcount(self.x_mask)

    def sites(self) -> tuple[int, ...]:
        m = self.x_mask | self.z_mask
        return tuple(s for s in range(1, self.n_sites + 1) if m & site_bit(self.n_sites, s))

    def dense(self) -> np.ndarray:
        """Full 2^N x 2^N matrix; only sensible for small N."""
        if self.n_sites > 14:
            raise ValueError("dense() limited to N <= 14")
        facs = []
        for s in range(1, self.n_sites + 1):
            b = site_bit(self.n_sites, s)
            x, z = bool(self.x_mask & b), bool(self.z_mask & b)
            facs.append(_X @ _Z if x and z else _X if x else _Z if z else _I)
        return self.phase * reduce(np.kron, facs)

    def label(self) -> str:
        """Human-readable form: phase prefix then one letter per site, site 1 first."""
        out = []
        extra = self.phase
        for s in range(1, self.n_sites + 1):
            b = site_bit(self.n_sites, s)
            x, z = bool(self.x_mask & b), bool(self.z_mask & b)
            if x and z:
                out.append("Y")
                extra = _canon(extra * -1j)  # stored XZ = -iY
            else:
                out.append("X" if x else "Z" if z else "I")
        pre = {1 + 0j: "+", -1 + 0j: "-", 1j: "+i", -1j: "-i"}[_canon(extra)]
        return pre + "".join(out)

    def __str__(self) -> str:
        return self.label()


def _canon(p: complex) -> complex:
    for q in _PHASES:
        if abs(p - q) < 1e-9:
            return q
    raise ValueError(f"phase {p} not a fourth root of unity")


def identity(n_sites: int) -> PauliString:
    return PauliString(n_sites, 0, 0)


def pauli_x(n_sites: int, site: int) -> PauliString:
    return PauliString(n_sites, site_bit(n_sites, site), 0)


def pauli_y(n_sites: int, site: int) -> PauliString:
    b = site_bit(n_sites, site)
    return PauliString(n_sites, b, b, 1j)  # Y = i * XZ


def pauli_z(n_sites: int, site: int) -> PauliString:
    return PauliString(n_sites, 0, site_bit(n_sites, site))


def from_sites(n_sites: int, xs=(), ys=(), zs=()) -> PauliString:
    """Hermitian string with X/Y/Z at the listed (disjoint) 1-based sites."""
    p = identity(n_sites)
    for s in xs:
        p = p * pauli_x(n_sites, s)
    for s in ys:
        p = p * pauli_y(n_sites, s)
    for s in zs:
        p = p * pauli_z(n_sites, s)
    return p


def product(strings) -> PauliString:
    strings = list(strings)
    if not strings:
        raise ValueError("empty product")
    return reduce(lambda a, b: a * b, strings)


def symplectic_rank(strings) -> int:
    """Rank over GF(2) of the [x|z] rows, i.e. the number of independent strings."""
    rows = [(p.x_mask << p.n_sites) | p.z_mask for p in strings]
    rank = 0
    for pivot_bit in reversed(range(2 * strings[0].n_sites)) if strings else []:
        b = 1 << pivot_bit
        pivot = next((i for i in range(rank, len(rows)) if rows[i] & b), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & b:
                rows[i] ^= rows[rank]
        rank += 1
    return rank
