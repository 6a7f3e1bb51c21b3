"""Spin-chain definitions and transfer analysis.

A chain is a set of nearest-neighbour couplings J_n and on-site fields B_n on
N qubits.  The single-excitation dynamics are governed by the real symmetric
tridiagonal matrix with B on the diagonal and J on the off-diagonals; perfect
transfer means that at some time t0 this matrix maps site 1 to site N with
unit probability (and, by mirror symmetry, every site n to site N+1-n).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar


@dataclass(frozen=True)
class ChainSpec:
    """Chain geometry: N sites, N-1 couplings, N on-site fields (energy units)."""

    n_sites: int
    couplings: tuple[float, ...]
    fields: tuple[float, ...]

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError("need at least 2 sites")
        object.__setattr__(self, "couplings", tuple(float(j) for j in self.couplings))
        object.__setattr__(self, "fields", tuple(float(b) for b in self.fields))
        if len(self.couplings) != self.n_sites - 1:
            raise ValueError("couplings must have length n_sites - 1")
        if len(self.fields) != self.n_sites:
            raise ValueError("fields must have length n_sites")
        if not all(np.isfinite(self.couplings)) or not all(np.isfinite(self.fields)):
            raise ValueError("chain parameters must be finite")

    def to_json(self) -> str:
        return json.dumps(
            {"n_sites": self.n_sites, "couplings": list(self.couplings), "fields": list(self.fields)}
        )

    @classmethod
    def from_json(cls, text: str) -> "ChainSpec":
        d = json.loads(text)
        return cls(int(d["n_sites"]), tuple(d["couplings"]), tuple(d["fields"]))

    def to_config(self) -> str:
        """Plain key = value form; lists are comma separated."""
        return (
            f"n_sites = {self.n_sites}\n"
            f"couplings = {', '.join(repr(j) for j in self.couplings)}\n"
            f"fields = {', '.join(repr(b) for b in self.fields)}\n"
        )

    @classmethod
    def from_config(cls, text: str) -> "ChainSpec":
        vals: dict[str, str] = {}
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, _, rhs = line.partition("=")
            vals[key.strip()] = rhs.strip()
        for key in ("n_sites", "couplings", "fields"):
            if key not in vals:
                raise ValueError(f"config missing key {key!r}")
        parse = lambda s: tuple(float(tok) for tok in s.replace(",", " ").split())
        return cls(int(vals["n_sites"]), parse(vals["couplings"]), parse(vals["fields"]))


@dataclass(frozen=True)
class TransferReport:
    """Result of analysing a chain for the mirror-transfer property."""

    transfer_time: float
    global_phase: complex  # <N| U(t0) |1>, normalised to unit modulus
    mirror_phases: tuple[complex, ...]  # <N+1-n| U(t0) |n> for n = 1..N
    mirror_fidelity: float  # |<N| U(t0) |1>|
    spectral_bound: float  # largest singular value of the tridiagonal matrix
    is_perfect: bool


def pst_couplings(n_sites: int, scale: float = 1.0) -> ChainSpec:
    """Standard perfect-transfer chain: J_n = scale * sqrt(n (N - n)), zero fields."""
    if n_sites < 2:
        raise ValueError("need at least 2 sites")
    if not (scale > 0 and np.isfinite(scale)):
        raise ValueError("scale must be positive and finite")
    js = tuple(scale * np.sqrt(n * (n_sites - n)) for n in range(1, n_sites))
    return ChainSpec(n_sites, js, (0.0,) * n_sites)


def single_excitation_matrix(spec: ChainSpec) -> np.ndarray:
    """Symmetric tridiagonal matrix: fields on the diagonal, couplings off it."""
    m = np.diag(np.array(spec.fields, dtype=float))
    for n in range(spec.n_sites - 1):
        m[n, n + 1] = m[n + 1, n] = spec.couplings[n]
    return m


def _u_of_t(evals: np.ndarray, evecs: np.ndarray, t: float) -> np.ndarray:
    return (evecs * np.exp(-1j * evals * t)) @ evecs.T


def _uniform_gap(evals: np.ndarray, rel_tol: float = 1e-8) -> float | None:
    """If all eigenvalue gaps are integer multiples of the smallest, return it."""
    diffs = np.diff(np.sort(evals))
    diffs = diffs[diffs > 1e-12]
    if diffs.size == 0:
        return None
    g = diffs.min()
    ratios = diffs / g
    if np.all(np.abs(ratios - np.round(ratios)) < rel_tol * np.max(ratios)):
        return float(g)
    return None


def analyze_transfer(spec: ChainSpec, tolerance: float = 1e-10) -> TransferReport:
    """Locate the earliest transfer time and report mirror data.

    For a spectrum whose gaps are commensurate (the engineered chains), the
    candidate t0 = pi / (smallest gap) is checked directly.  Otherwise the
    end-to-end amplitude is scanned over a bounded window and the best local
    maximum is refined numerically; chains that never reach 1 - tolerance are
    reported with is_perfect = False rather than raising.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    h1 = single_excitation_matrix(spec)
    evals, evecs = np.linalg.eigh(h1)
    n = spec.n_sites
    lam_max = float(np.max(np.abs(evals)))

    def end_amp(t: float) -> complex:
        return complex(_u_of_t(evals, evecs, t)[n - 1, 0])

    t0 = None
    g = _uniform_gap(evals)
    if g is not None:
        cand = np.pi / g
        if abs(end_amp(cand)) >= 1 - tolerance:
            t0 = cand
    if t0 is None:
        spread = max(float(evals[-1] - evals[0]), 1e-12)
        window = 8 * np.pi * n / spread
        grid = np.linspace(0, window, 4001)[1:]
        amps = np.abs([end_amp(t) for t in grid])
        k = int(np.argmax(amps))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, len(grid) - 1)]
        res = minimize_scalar(lambda t: -abs(end_amp(t)), bounds=(lo, hi), method="bounded")
        t0 = float(res.x)
        # prefer the earliest grid time that already reaches the same quality
        best = abs(end_amp(t0))
        hits = np.nonzero(amps >= 1 - tolerance)[0]
        if hits.size and best >= 1 - tolerance:
            k0 = int(hits[0])
            res0 = minimize_scalar(
                lambda t: -abs(end_amp(t)),
                bounds=(grid[max(k0 - 1, 0)], grid[min(k0 + 1, len(grid) - 1)]),
                method="bounded",
            )
            if abs(end_amp(float(res0.x))) >= 1 - tolerance:
                t0 = float(res0.x)

    u = _u_of_t(evals, evecs, t0)
    mirror = tuple(complex(u[n - k, k - 1]) for k in range(1, n + 1))
    fid = abs(mirror[0])
    phase = mirror[0] / fid if fid > 0 else complex(1)
    return TransferReport(
        transfer_time=float(t0),
        global_phase=phase,
        mirror_phases=mirror,
        mirror_fidelity=float(fid),
        spectral_bound=lam_max,
        is_perfect=bool(fid >= 1 - tolerance),
    )
