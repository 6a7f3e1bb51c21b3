"""Spin-chain definitions and transfer analysis.

A chain is a set of nearest-neighbour couplings J_n and on-site fields B_n on
N qubits.  The single-excitation dynamics are governed by the real symmetric
tridiagonal matrix with B on the diagonal and J on the off-diagonals; perfect
transfer means that at some time t0 this matrix maps site 1 to site N with
unit probability (and, by mirror symmetry, every site n to site N+1-n).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np


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
        """The chain of a JSON object with exactly the keys of to_json.

        n_sites must be a JSON integer and couplings and fields lists of
        JSON numbers.
        """
        d = _chain_keys(json.loads(text, object_pairs_hook=_unique_keys))
        n_sites = d["n_sites"]
        # int() would read 4.9 as 4 and true as 1
        if isinstance(n_sites, bool) or not isinstance(n_sites, int):
            raise ValueError(f"n_sites must be an integer, got {n_sites!r}")
        for key in ("couplings", "fields"):
            # tuple() would split the string "12" into two couplings
            if not isinstance(d[key], list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in d[key]
            ):
                raise ValueError(f"{key} must be a list of numbers, got {d[key]!r}")
        return cls(n_sites, tuple(d["couplings"]), tuple(d["fields"]))

    def to_config(self) -> str:
        """Plain key = value form; lists are comma separated."""
        return (
            f"n_sites = {self.n_sites}\n"
            f"couplings = {', '.join(repr(j) for j in self.couplings)}\n"
            f"fields = {', '.join(repr(b) for b in self.fields)}\n"
        )

    @classmethod
    def from_config(cls, text: str) -> "ChainSpec":
        """The chain of the key = value form of to_config: each of its keys once, no other.

        A list is comma separated; an empty entry is refused, naming its key.
        """
        pairs = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, _, rhs = line.partition("=")
            pairs.append((key.strip(), rhs.strip()))
        vals = _chain_keys(_unique_keys(pairs))
        for key in ("couplings", "fields"):
            if not all(entry.strip() for entry in vals[key].split(",")):  # "1,,1" once read as 1, 1
                raise ValueError(f"empty entry in {key}: {vals[key]!r}")
        parse = lambda s: tuple(float(tok) for tok in s.replace(",", " ").split())
        return cls(int(vals["n_sites"]), parse(vals["couplings"]), parse(vals["fields"]))


_CHAIN_KEYS = ("n_sites", "couplings", "fields")


def _unique_keys(pairs) -> dict:
    """The (key, value) pairs of a chain file as a dict, refusing a repeated key."""
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise ValueError(f"chain file repeats key {key!r}")
    return dict(pairs)


def _chain_keys(d) -> dict:
    """d itself, once it holds exactly the keys of a chain: none missing and none unknown."""
    if not isinstance(d, dict):
        raise ValueError("chain file must hold one object")
    for key in _CHAIN_KEYS:
        if key not in d:
            raise ValueError(f"chain file missing key {key!r}")
    unknown = sorted(set(d) - set(_CHAIN_KEYS))
    if unknown:
        raise ValueError(f"chain file has unknown key {unknown[0]!r}")
    return d


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
    return tridiagonal(spec.fields, spec.couplings)


def tridiagonal(diagonal, off) -> np.ndarray:
    """Symmetric tridiagonal matrices (..., N, N), built as one stack.

    `diagonal` (..., N) is the diagonal and `off` (..., N - 1) the entries
    beside it; their leading axes broadcast.  Every other entry is +0.
    """
    diagonal, off = np.asarray(diagonal, dtype=float), np.asarray(off, dtype=float)
    n = diagonal.shape[-1]
    m = np.zeros((*np.broadcast_shapes(diagonal.shape[:-1], off.shape[:-1]), n, n))
    i = np.arange(n)
    m[..., i, i] = diagonal
    m[..., i[:-1], i[1:]] = m[..., i[1:], i[:-1]] = off
    return m


def _u_of_t(evals: np.ndarray, evecs: np.ndarray, t) -> np.ndarray:
    """V e^{-i lambda t} V^T from the eigenpairs (evals, evecs) of real symmetric H1.

    The one formula of every single-particle unitary: evals (..., N), evecs
    (..., N, N) and t, a time or an array broadcasting with evals, so a stack
    of times on one chain (hilbert.mode_unitaries) or one time on a stack of
    chains (hilbert.stack_mode_unitaries) is one stacked product.  numpy
    multiplies each member of a stacked product alone (one GEMM per member),
    so a member does not depend on its stack.
    """
    return (evecs * np.exp(-1j * evals * t)[..., None, :]) @ np.swapaxes(evecs, -1, -2)


# the gap ratios of engineered chains are fractions of small denominator; a
# false match only costs a rejected candidate, since analyze_transfer checks it
_GAP_DENOMINATOR_MAX = 32


def _uniform_gap(evals: np.ndarray, rel_tol: float = 1e-8) -> float | None:
    """The common unit of the eigenvalue gaps, if they are commensurate.

    Each gap over the smallest is matched to a fraction of small
    denominator; the unit is the smallest gap over the lcm of those
    denominators, so every gap is an integer multiple of it.
    """
    diffs = np.diff(np.sort(evals))
    diffs = diffs[diffs > 1e-12]
    if diffs.size == 0:
        return None
    g = diffs.min()
    ratios = diffs / g
    fracs = [Fraction(float(r)).limit_denominator(_GAP_DENOMINATOR_MAX) for r in ratios]
    if np.all(np.abs(ratios - np.array([float(f) for f in fracs])) < rel_tol * np.max(ratios)):
        return float(g / math.lcm(*(f.denominator for f in fracs)))
    return None


@lru_cache(maxsize=16)
def analyze_transfer(spec: ChainSpec, tolerance: float = 1e-10) -> TransferReport:
    """Locate the earliest transfer time and report mirror data.

    Every candidate is judged by the end amplitude in closed form,
    a(t) = sum_k V_{N,k} V_{1,k} e^{-i lambda_k t}, from the eigenpairs
    (lambda, V) of the single-excitation matrix.  For a spectrum whose gaps
    are commensurate (the engineered chains), t0 = pi / (common unit of the
    gaps) is checked directly: it is the earliest time that can make every
    gap times t0 an odd multiple of pi, as mirror transfer needs.  Otherwise
    |a| is scanned on 4000 points of the window (0, 8 pi N / spread], spread
    the width of the spectrum.  The first grid point with |a| >= 1 -
    tolerance, or failing that the grid maximum, is refined by nested grids
    of 65 points, each spanning the two neighbours of the last round's best,
    so the refined |a| never ends below the grid point's.  A chain that
    never reaches 1 - tolerance is reported with is_perfect = False rather
    than raising.  The mirror data are U(t0) itself, and no step loads
    scipy.  The report is frozen and kept for the last 16 (chain,
    tolerance) keys, so repeated sweeps on one chain analyse it once.
    """
    if not 0 < tolerance < 1:  # also refuses NaN
        raise ValueError(f"tolerance must be a number in (0, 1), got {tolerance}")
    h1 = single_excitation_matrix(spec)
    evals, evecs = np.linalg.eigh(h1)
    n = spec.n_sites
    lam_max = float(np.max(np.abs(evals)))
    weights = evecs[n - 1] * evecs[0]

    def end_fidelity(t):
        """|a(t)| at every time of t, a time or an array of them."""
        return np.abs(np.exp(-1j * np.multiply.outer(t, evals)) @ weights)

    g = _uniform_gap(evals)
    t0 = np.pi / g if g is not None else None
    if t0 is None or end_fidelity(t0) < 1 - tolerance:
        spread = max(float(evals[-1] - evals[0]), 1e-12)
        ts = np.linspace(0, 8 * np.pi * n / spread, 4001)[1:]
        amps = end_fidelity(ts)
        # prefer the earliest grid time that already reaches the same quality
        hits = np.nonzero(amps >= 1 - tolerance)[0]
        k = int(hits[0]) if hits.size else int(np.argmax(amps))
        for _ in range(8):
            ts = np.linspace(ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)], 65)
            k = int(np.argmax(end_fidelity(ts)))
        t0 = ts[k]

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
