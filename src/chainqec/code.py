"""Stabilizer-code constructions used on the chain.

Both families here are CSS-type block codes: an inner repetition inside each
block stacked with an outer repetition across blocks.  The two constructors
use opposite inner bases (a documented `orientation` field):

* minimal15 - inner computational-basis repetition (checks Z_i Z_{i+1},
  bit flips detected with distance 5), outer phase code across three blocks
  (checks X^{x10}, one residual Z error correctable).
* shor_code(d) - the transposed nesting on d blocks of d: inner
  Hadamard-basis repetition (checks X_i X_{i+1}, distance d against Z),
  outer majority vote (checks Z^{x2d}, distance d against X).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ResourceLimitError
from .hilbert import StateVector, _read_only
from .pauli import PauliString, from_sites, symplectic_rank

_ENCODE_MAX_QUBITS = 20


@dataclass(frozen=True)
class StabilizerCode:
    n_qubits: int
    x_detecting_generators: tuple[PauliString, ...]  # Z-type checks
    z_detecting_generators: tuple[PauliString, ...]  # X-type checks
    logical_x: PauliString
    logical_z: PauliString
    blocks: tuple[tuple[int, ...], ...]
    dx: int  # distance against X errors
    dz: int  # distance against Z errors
    orientation: str  # "inner-bitflip" or "inner-phaseflip"
    # (basis indices ascending, |0_L> values, |1_L> values) on the union of
    # the two codewords' supports
    codeword_builder: Callable[[], tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        repr=False, compare=False, default=None
    )

    @property
    def generators(self) -> tuple[PauliString, ...]:
        return self.x_detecting_generators + self.z_detecting_generators

    @property
    def n_logical(self) -> int:
        return self.n_qubits - symplectic_rank(self.generators)

    def validate(self) -> None:
        gens = self.generators
        for i, g in enumerate(gens):
            for h in gens[i + 1 :]:
                if not g.commutes_with(h):
                    raise ValueError("generators do not commute")
        for logical in (self.logical_x, self.logical_z):
            for g in gens:
                if not logical.commutes_with(g):
                    raise ValueError("logical operator fails to commute with a generator")
        if self.logical_x.commutes_with(self.logical_z):
            raise ValueError("logical X and Z must anticommute")
        if symplectic_rank(gens) != len(gens):
            raise ValueError("generators are not independent")

    def codewords(self) -> tuple[StateVector, StateVector]:
        if self.n_qubits > _ENCODE_MAX_QUBITS:
            raise ResourceLimitError(
                f"dense codewords limited to {_ENCODE_MAX_QUBITS} qubits"
            )
        indices, zero, one = self.codeword_builder()
        dense = np.zeros((2, 1 << self.n_qubits), dtype=complex)
        dense[:, indices] = zero, one
        return StateVector(dense[0], self.n_qubits), StateVector(dense[1], self.n_qubits)

    def to_tableau(self) -> str:
        """Text tableau: sign then x/z masks in hex, one operator per line."""
        lines = [
            f"# n_qubits {self.n_qubits}",
            f"# blocks {';'.join(','.join(str(s) for s in b) for b in self.blocks)}",
            f"# dx {self.dx}",
            f"# dz {self.dz}",
            f"# orientation {self.orientation}",
        ]

        def fmt(p: PauliString) -> str:
            sign = {1 + 0j: "+1", -1 + 0j: "-1", 1j: "+i", -1j: "-i"}[p.phase]
            return f"{sign} {p.x_mask:#x} {p.z_mask:#x}"

        lines.append("# x-detecting")
        lines.extend(fmt(g) for g in self.x_detecting_generators)
        lines.append("# z-detecting")
        lines.extend(fmt(g) for g in self.z_detecting_generators)
        lines.append("# logical-x")
        lines.append(fmt(self.logical_x))
        lines.append("# logical-z")
        lines.append(fmt(self.logical_z))
        return "\n".join(lines) + "\n"


def _ghz_block(size: int, sign: int) -> np.ndarray:
    v = np.zeros(1 << size, dtype=complex)
    v[0] = 1 / np.sqrt(2)
    v[(1 << size) - 1] = sign / np.sqrt(2)
    return v


def _block_product(blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indices, |0_L> values, |1_L> values) of a product of blocks, indices ascending.

    Each block is (its number of sites, its basis indices ascending, the
    |0_L> and |1_L> factors' values there), the first block on the
    leftmost sites.  The values are multiplied pairwise as np.kron
    multiplies the dense factors, so each equals the dense product's at
    its index, bit for bit.
    """
    indices, zero = np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex)
    one = zero
    for size, block, block_zero, block_one in blocks:
        indices = ((indices[:, None] << size) | block).ravel()
        zero, one = np.kron(zero, block_zero), np.kron(one, block_one)
    return indices, zero, one


def minimal15() -> StabilizerCode:
    """The 15-qubit working example: 3 blocks of 5, sites numbered left to right.

    Codewords are the block products (|00000> +/- |11111>)/sqrt(2) over all
    three blocks; the sign is the logical bit.
    """
    n = 15
    blocks = tuple(tuple(range(5 * b + 1, 5 * b + 6)) for b in range(3))
    xdet = tuple(
        from_sites(n, zs=(blk[i], blk[i + 1])) for blk in blocks for i in range(4)
    )
    zdet = tuple(
        from_sites(n, xs=blocks[b] + blocks[b + 1]) for b in range(2)
    )

    def build():
        # each block holds (|00000> +/- |11111>)/sqrt(2): two entries
        ends = np.array([0, 31])
        zero, one = (_ghz_block(5, sign)[ends] for sign in (+1, -1))
        return _block_product([(5, ends, zero, one)] * 3)

    return StabilizerCode(
        n_qubits=n,
        x_detecting_generators=xdet,
        z_detecting_generators=zdet,
        logical_x=from_sites(n, zs=(1, 6, 11)),  # flips every block sign
        logical_z=from_sites(n, xs=blocks[0]),
        blocks=blocks,
        dx=5,
        dz=3,
        orientation="inner-bitflip",
        codeword_builder=build,
    )


def shor_code(d: int) -> StabilizerCode:
    """Nested repetition on d blocks of d qubits, inner Hadamard basis.

    The inner level protects against Z errors with distance d, the outer
    majority vote against X errors with distance d.  Every generator and
    both logicals commute with the all-sites Z parity exactly when d is
    even.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    n = d * d
    blocks = tuple(tuple(range(d * b + 1, d * b + d + 1)) for b in range(d))
    zdet = tuple(
        from_sites(n, xs=(blk[i], blk[i + 1])) for blk in blocks for i in range(d - 1)
    )
    xdet = tuple(
        from_sites(n, zs=blocks[b] + blocks[b + 1]) for b in range(d - 1)
    )

    def build():
        if n > _ENCODE_MAX_QUBITS:
            raise ResourceLimitError(f"dense codewords limited to {_ENCODE_MAX_QUBITS} qubits")
        had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        hd = np.ones((1, 1), dtype=complex)
        for _ in range(d):
            hd = np.kron(hd, had)
        block = np.arange(1 << d)
        return _block_product([(d, block, hd @ _ghz_block(d, +1), hd @ _ghz_block(d, -1))] * d)

    return StabilizerCode(
        n_qubits=n,
        x_detecting_generators=xdet,
        z_detecting_generators=zdet,
        logical_x=from_sites(n, xs=tuple(blk[0] for blk in blocks)),
        logical_z=from_sites(n, zs=blocks[0]),
        blocks=blocks,
        dx=d,
        dz=d,
        orientation="inner-phaseflip",
        codeword_builder=build,
    )


def parity_condition(codeobj: StabilizerCode) -> bool:
    """True iff every generator and both logicals commute with Z on all qubits.

    Commutation with the global Z parity is an even X-weight condition; when
    it holds the code space has a fixed excitation parity.
    """
    ops = codeobj.generators + (codeobj.logical_x, codeobj.logical_z)
    return all(p.x_weight() % 2 == 0 for p in ops)


def encode_entries(codeobj: StabilizerCode, alpha: complex,
                   beta: complex) -> tuple[np.ndarray, np.ndarray]:
    """alpha |0_L> + beta |1_L> as its nonzero entries, (basis indices ascending, amplitudes).

    Built from the codewords' entries (codeword_builder), never from a 2^N
    array, and read-only.  Each amplitude is alpha z + beta o of the
    codewords' values z and o, the products and sum numpy forms on the
    dense codewords; those values are real, so each complex product is one
    rounded real product plus exact zeros in every kernel, and the entries
    are the dense sum's nonzero ones, bit for bit.  Refuses amplitudes
    that are not finite or not normalised.
    """
    if not abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= 1e-12:  # False for NaN too
        raise ValueError(
            "logical amplitudes must be finite and normalised: |alpha|^2 + |beta|^2 = 1"
        )
    indices, zero, one = codeobj.codeword_builder()
    amps = alpha * zero + beta * one
    keep = amps != 0
    return _read_only(indices[keep], amps[keep])


def encode(codeobj: StabilizerCode, alpha: complex, beta: complex) -> StateVector:
    """Return alpha |0_L> + beta |1_L>: encode_entries scattered into a 2^N vector."""
    indices, values = encode_entries(codeobj, alpha, beta)
    if codeobj.n_qubits > _ENCODE_MAX_QUBITS:
        raise ResourceLimitError(f"dense codewords limited to {_ENCODE_MAX_QUBITS} qubits")
    amps = np.zeros(1 << codeobj.n_qubits, dtype=complex)
    amps[indices] = values
    return StateVector(amps, codeobj.n_qubits)


def logical_readout(
    codeobj: StabilizerCode, state: StateVector
) -> tuple[complex, complex, bool]:
    """Project onto the code space; amplitudes are valid only if the flag is set."""
    if state.n_sites != codeobj.n_qubits:
        raise ValueError("size mismatch")
    zero, one = codeobj.codewords()
    a0 = complex(np.vdot(zero.amps, state.amps))
    a1 = complex(np.vdot(one.amps, state.amps))
    weight = abs(a0) ** 2 + abs(a1) ** 2
    in_codespace = bool(weight >= 1.0 - 1e-10)
    return a0, a1, in_codespace
