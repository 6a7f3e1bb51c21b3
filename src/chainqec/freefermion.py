"""Majorana mode algebra and error propagation.

The chain Hamiltonian is quadratic in the 2N Majorana modes

    c_n     = Z_1 ... Z_{n-1} X_n          (n = 1..N)
    c_{N+n} = Z_1 ... Z_{n-1} Y_n,

so a mode evolves into a real linear combination of modes: the coefficients
form a 2N x 2N orthogonal matrix with block structure
[[cos(H1 t), sin(H1 t)], [-sin(H1 t), cos(H1 t)]], H1 being the
single-excitation matrix.  Operators are stored as complex combinations of
normal-ordered Majorana monomials (strictly increasing mode indices, sign
tracked by transposition parity); every Pauli string corresponds to exactly
one monomial and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain import ChainSpec, single_excitation_matrix
from .errors import ResourceLimitError
from .pauli import PauliString, identity as pauli_identity, product as pauli_product

_PRUNE = 1e-14  # coefficients below this are numerical dust
_DEFAULT_TERM_CAP = 10**6


class MajoranaMonomial(NamedTuple):
    coefficient: complex
    modes: tuple[int, ...]  # strictly increasing, in 1..2N


def _merge_modes(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Normal-order the concatenation a+b.

    Returns (sign, modes).  Equal modes square to the identity; the sign is
    the parity of adjacent transpositions needed to sort, counted by a merge.
    """
    sign = 1
    out: list[int] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        elif a[i] > b[j]:
            # b[j] moves left past the remaining len(a)-i elements of a
            if (len(a) - i) & 1:
                sign = -sign
            out.append(b[j])
            j += 1
        else:
            # contraction: b[j] moves past len(a)-i-1 elements to meet a[i]
            if (len(a) - i - 1) & 1:
                sign = -sign
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


class FermionOperator:
    """Complex combination of normal-ordered Majorana monomials."""

    def __init__(self, n_sites: int, terms=None):
        self.n_sites = n_sites
        self.terms: dict[tuple[int, ...], complex] = {}
        if terms:
            for modes, coeff in dict(terms).items():
                self._add(tuple(modes), complex(coeff))
        self._prune()

    def _add(self, modes: tuple[int, ...], coeff: complex) -> None:
        for m in modes:
            if not 1 <= m <= 2 * self.n_sites:
                raise ValueError(f"mode {m} out of range 1..{2 * self.n_sites}")
        if any(modes[i] >= modes[i + 1] for i in range(len(modes) - 1)):
            raise ValueError("modes must be strictly increasing")
        self.terms[modes] = self.terms.get(modes, 0.0) + coeff

    def _prune(self) -> None:
        self.terms = {m: c for m, c in self.terms.items() if abs(c) > _PRUNE}

    @classmethod
    def identity(cls, n_sites: int) -> "FermionOperator":
        return cls(n_sites, {(): 1.0})

    @classmethod
    def mode(cls, index: int, n_sites: int) -> "FermionOperator":
        return cls(n_sites, {(index,): 1.0})

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        if self.n_sites != other.n_sites:
            raise ValueError("size mismatch")
        out = FermionOperator(self.n_sites, self.terms)
        for m, c in other.terms.items():
            out._add(m, c)
        out._prune()
        return out

    def __sub__(self, other: "FermionOperator") -> "FermionOperator":
        return self + other.scaled(-1)

    def scaled(self, factor: complex) -> "FermionOperator":
        return FermionOperator(self.n_sites, {m: c * factor for m, c in self.terms.items()})

    def __mul__(self, other: "FermionOperator") -> "FermionOperator":
        if self.n_sites != other.n_sites:
            raise ValueError("size mismatch")
        out = FermionOperator(self.n_sites)
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                sign, modes = _merge_modes(ma, mb)
                out.terms[modes] = out.terms.get(modes, 0.0) + sign * ca * cb
        out._prune()
        return out

    def monomials(self) -> list[MajoranaMonomial]:
        return [MajoranaMonomial(c, m) for m, c in sorted(self.terms.items())]

    def isclose(self, other: "FermionOperator", tol: float = 1e-10) -> bool:
        keys = set(self.terms) | set(other.terms)
        return all(abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) <= tol for k in keys)

    def to_pauli_sum(self) -> list[tuple[complex, PauliString]]:
        return [
            (c, fermion_to_pauli(MajoranaMonomial(1.0, m), self.n_sites))
            for m, c in sorted(self.terms.items())
        ]

    def dense(self) -> np.ndarray:
        """Dense reconstruction through the Pauli dictionary (small N only)."""
        dim = 1 << self.n_sites
        out = np.zeros((dim, dim), dtype=complex)
        for c, p in self.to_pauli_sum():
            out += c * p.dense()
        return out

    def to_text(self) -> str:
        """Canonical serialisation: "re im mode mode ..." per term, sorted."""
        lines = [f"# n_sites {self.n_sites}"]
        for modes, coeff in sorted(self.terms.items()):
            lines.append(
                f"{coeff.real:.17g} {coeff.imag:.17g} " + " ".join(str(m) for m in modes)
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FermionOperator":
        n_sites = None
        terms = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                toks = line[1:].split()
                if toks[:1] == ["n_sites"]:
                    n_sites = int(toks[1])
                continue
            toks = line.split()
            coeff = float(toks[0]) + 1j * float(toks[1])
            terms[tuple(int(m) for m in toks[2:])] = coeff
        if n_sites is None:
            raise ValueError("missing n_sites header")
        return cls(n_sites, terms)

    def __repr__(self) -> str:
        return f"FermionOperator(n_sites={self.n_sites}, terms={len(self.terms)})"


@dataclass(frozen=True)
class ModePropagator:
    """Orthogonal 2N x 2N matrix carrying the Majorana modes through time t."""

    matrix: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.matrix.shape[0] // 2


def mode_propagator(h1: np.ndarray, t: float) -> ModePropagator:
    """exp(t [[0, H1], [-H1, 0]]) built from the eigenbasis of H1.

    The cos/sin functional-calculus form makes the block structure exact by
    construction; orthogonality then holds to roundoff.
    """
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    h1 = np.asarray(h1, dtype=float)
    if h1.ndim != 2 or h1.shape[0] != h1.shape[1]:
        raise ValueError("H1 must be square")
    if np.abs(h1 - h1.T).max() > 1e-10:
        raise ValueError("H1 must be symmetric")
    evals, evecs = np.linalg.eigh(h1)
    cos = (evecs * np.cos(evals * t)) @ evecs.T
    sin = (evecs * np.sin(evals * t)) @ evecs.T
    mat = np.block([[cos, sin], [-sin, cos]])
    return ModePropagator(matrix=mat)


def mode_propagator_for(spec: ChainSpec, t: float) -> ModePropagator:
    return mode_propagator(single_excitation_matrix(spec), t)


def jordan_wigner(mode: int, n_sites: int) -> PauliString:
    """Pauli form of a single Majorana mode."""
    if not 1 <= mode <= 2 * n_sites:
        raise ValueError(f"mode {mode} out of range 1..{2 * n_sites}")
    if mode <= n_sites:
        site, letter = mode, "X"
    else:
        site, letter = mode - n_sites, "Y"
    from .pauli import from_sites

    return from_sites(n_sites, xs=[site] if letter == "X" else [], ys=[site] if letter == "Y" else [], zs=range(1, site))


def pauli_to_fermion(p: PauliString) -> FermionOperator:
    """Rewrite a Pauli string as its (single) Majorana monomial.

    Site operators translate as X_n = Z_1..Z_{n-1} c_n, Y_n = Z_1..Z_{n-1}
    c_{N+n} and Z_n = -i c_n c_{N+n}; multiplying these out and
    normal-ordering yields exactly one term.
    """
    n = p.n_sites
    out = FermionOperator(n, {(): p.phase})
    for site in range(1, n + 1):
        bit = 1 << (n - site)
        has_x = bool(p.x_mask & bit)
        has_z = bool(p.z_mask & bit)
        if not has_x and not has_z:
            continue
        factor = FermionOperator.identity(n)
        if has_x:  # stored site factor is X (then Z if also set)
            for m in range(1, site):
                factor = factor * FermionOperator(n, {(m, n + m): -1j})
            factor = factor * FermionOperator.mode(site, n)
        if has_z:
            factor = factor * FermionOperator(n, {(site, n + site): -1j})
        out = out * factor
    assert len(out.terms) == 1
    return out


def fermion_to_pauli(monomial: MajoranaMonomial, n_sites: int) -> PauliString:
    """Inverse dictionary: multiply out the mode strings of one monomial."""
    if not monomial.modes:
        base = pauli_identity(n_sites)
    else:
        base = pauli_product(jordan_wigner(m, n_sites) for m in monomial.modes)
    coeff = monomial.coefficient * base.phase
    if abs(abs(coeff) - 1) > 1e-9 or abs(coeff - np.round(coeff.real) - 1j * np.round(coeff.imag)) > 1e-9:
        raise ValueError("monomial coefficient must be a fourth root of unity for a Pauli result")
    canon = complex(np.round(coeff.real) + 1j * np.round(coeff.imag))
    return PauliString(n_sites, base.x_mask, base.z_mask, canon)


def propagate(
    op: FermionOperator, prop: ModePropagator, term_cap: int = _DEFAULT_TERM_CAP
) -> FermionOperator:
    """Heisenberg-propagate: each mode c_n becomes sum_m O[m,n] c_m.

    Products are expanded one mode factor at a time with immediate
    normal-ordering, so like terms combine as they appear.  An intermediate
    expansion larger than term_cap raises ResourceLimitError.
    """
    if prop.n_sites != op.n_sites:
        raise ValueError("size mismatch")
    o = prop.matrix
    two_n = 2 * op.n_sites
    out_terms: dict[tuple[int, ...], complex] = {}
    for modes, coeff in op.terms.items():
        acc: dict[tuple[int, ...], complex] = {(): coeff}
        for src in modes:
            col = o[:, src - 1]
            nxt: dict[tuple[int, ...], complex] = {}
            for cur_modes, cur_coeff in acc.items():
                for m in range(1, two_n + 1):
                    w = col[m - 1]
                    if abs(w) < 1e-16:
                        continue
                    sign, merged = _merge_modes(cur_modes, (m,))
                    nxt[merged] = nxt.get(merged, 0.0) + sign * w * cur_coeff
            acc = {k: v for k, v in nxt.items() if abs(v) > _PRUNE}
            if len(acc) > term_cap:
                raise ResourceLimitError(f"propagation exceeded {term_cap} terms")
        for k, v in acc.items():
            out_terms[k] = out_terms.get(k, 0.0) + v
    return FermionOperator(op.n_sites, out_terms)


def chi_decay(gamma: float, t: float) -> tuple[float, float]:
    """Closed-form dephasing of a mode coherence: (e^{-2 gamma t}, error prob)."""
    if gamma < 0 or t < 0:
        raise ValueError("gamma and t must be nonnegative")
    chi_factor = float(np.exp(-2.0 * gamma * t))
    return chi_factor, 0.5 * (1.0 - chi_factor)


class BudgetReport(NamedTuple):
    expected_total: float
    expected_on_region: float
    feasible: bool


def error_budget(
    gamma: float, t0: float, n_sites: int, region: int, correctable_fermions: int
) -> BudgetReport:
    """Expected fermionic error counts over a transfer and a feasibility flag."""
    if min(gamma, t0) < 0 or min(n_sites, region, correctable_fermions) <= 0:
        raise ValueError("arguments must be positive (gamma, t0 nonnegative)")
    total = 2.0 * gamma * n_sites * t0
    on_region = 2.0 * gamma * region * t0
    return BudgetReport(total, on_region, bool(on_region <= correctable_fermions))
