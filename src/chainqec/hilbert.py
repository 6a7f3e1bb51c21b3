"""Exact full-Hilbert-space simulation of the chain.

State vectors are indexed so that qubit 1 is the most significant bit of the
basis index: |1,0,...,0> on N sites is index 2^(N-1).  The chain Hamiltonian
used throughout couples the field B_n to the local excitation number
(I - Z_n)/2, which makes the single-excitation block equal the tridiagonal
matrix of chain.single_excitation_matrix exactly and keeps the fermionic
mode evolution of the freefermion module exact for nonzero fields.

Evolution is excitation-number resolved and reads one pair table per sector.
method="givens" rotates each occupied sector through the Givens factorisation
of the single-particle unitary; method="expm", the default, applies each
occupied sector's sparse Hamiltonian with scipy's expm_multiply and serves as
the exact N = 15 oracle.  Neither caches anything that depends on the
chain's couplings or fields.  A phase flip during transport is one rotated
mode about the error-free arrival state (single_z_sectors): N - 1 rotations
carry that mode to site 1, where Z is diagonal, and the inverse rotations
carry it back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .chain import ChainSpec, _u_of_t, single_excitation_matrix
from .errors import ResourceLimitError
from .pauli import PauliString, site_bit

_DENSITY_MATRIX_MAX_SITES = 8
_DENSE_H_MAX_SITES = 12


@dataclass
class StateVector:
    amps: np.ndarray  # 2^N complex amplitudes
    n_sites: int

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.shape != (1 << self.n_sites,):
            raise ValueError("amplitude count must be 2^n_sites")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def copy(self) -> "StateVector":
        return StateVector(self.amps.copy(), self.n_sites)


@dataclass
class DensityMatrix:
    mat: np.ndarray  # 2^N x 2^N, Hermitian, unit trace
    n_sites: int

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        dim = 1 << self.n_sites
        if self.mat.shape != (dim, dim):
            raise ValueError("matrix must be 2^n x 2^n")

    def validate(self, tol: float = 1e-10) -> None:
        if np.abs(self.mat - self.mat.conj().T).max() > tol:
            raise ValueError("density matrix not Hermitian")
        if abs(np.trace(self.mat) - 1) > tol:
            raise ValueError("density matrix trace != 1")
        if np.linalg.eigvalsh(self.mat).min() < -tol:
            raise ValueError("density matrix not positive")


def basis_state(n_sites: int, excited_sites=()) -> StateVector:
    amps = np.zeros(1 << n_sites, dtype=complex)
    idx = 0
    for s in excited_sites:
        idx |= site_bit(n_sites, s)
    amps[idx] = 1.0
    return StateVector(amps, n_sites)


def from_density(state: StateVector) -> DensityMatrix:
    return DensityMatrix(np.outer(state.amps, state.amps.conj()), state.n_sites)


def apply_pauli(state: StateVector, p: PauliString) -> StateVector:
    """Return p|psi>."""
    if p.n_sites != state.n_sites:
        raise ValueError("size mismatch")
    idx = np.arange(state.amps.size, dtype=np.int64)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & p.z_mask) & 1)
    out = np.empty_like(state.amps)
    out[idx ^ p.x_mask] = p.phase * signs * state.amps
    return StateVector(out, state.n_sites)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2."""
    if a.n_sites != b.n_sites:
        raise ValueError("size mismatch")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def cz_network(state: StateVector, region) -> StateVector:
    """Controlled-phase between every unordered pair of qubits in `region`.

    Diagonal: a basis state with w excitations inside the region picks up
    (-1)^(w(w-1)/2).
    """
    mask = 0
    for s in region:
        mask |= site_bit(state.n_sites, s)
    idx = np.arange(state.amps.size, dtype=np.int64)
    w = np.bitwise_count(idx & mask).astype(np.int64)
    phase = 1 - 2 * ((w * (w - 1) // 2) & 1)
    return StateVector(state.amps * phase, state.n_sites)


# ---------------------------------------------------------------------------
# excitation-sector machinery
# ---------------------------------------------------------------------------


def sector_indices(n_sites: int, weight: int) -> np.ndarray:
    """Basis indices with `weight` excited sites, descending (ascending combination order)."""
    idx = np.arange((1 << n_sites) - 1, -1, -1, dtype=np.int64)
    return idx[np.bitwise_count(idx) == weight]


@lru_cache(maxsize=None)
def _sector_table(n_sites: int, weight: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(basis indices, pair tables) of one excitation sector; shared, so read-only.

    pairs[m][0] are the sector positions with site m+1 occupied and site m+2
    empty, pairs[m][1] the positions the hop across that bond takes them to.
    """
    states = sector_indices(n_sites, weight)
    pairs = []
    for m in range(n_sites - 1):
        b1, b2 = 1 << (n_sites - 1 - m), 1 << (n_sites - 2 - m)
        lo = np.nonzero((states & b1 != 0) & (states & b2 == 0))[0]
        hi = states.size - 1 - np.searchsorted(states[::-1], states[lo] ^ (b1 | b2))
        pairs.append(np.stack([lo, hi]))
    for a in (states, *pairs):
        a.flags.writeable = False
    return states, tuple(pairs)


def _occupation_sum(values, states: np.ndarray) -> np.ndarray:
    """Per basis state, the sum of values[n] over its occupied sites n + 1."""
    out = np.zeros(states.size)
    for n, v in enumerate(values):
        if v != 0.0:
            out += v * ((states >> (len(values) - 1 - n)) & 1)
    return out


def sector_sparse(spec: ChainSpec, weight: int) -> sp.csr_matrix:
    """The chain Hamiltonian restricted to one excitation sector."""
    states, pairs = _sector_table(spec.n_sites, weight)
    both = np.hstack(pairs)
    hops = np.tile(np.repeat(spec.couplings, [p.shape[1] for p in pairs]), 2)
    m = sp.csr_matrix((hops, (both.ravel(), both[::-1].ravel())), shape=(states.size,) * 2)
    return m + sp.diags(_occupation_sum(spec.fields, states))


def clear_evolution_cache() -> None:
    """Drop the cached dense eigendecompositions behind dense_unitary."""
    _dense_eig.cache_clear()


def sector_eig(spec: ChainSpec, weight: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(basis indices, eigenvalues, eigenvectors) of one excitation sector, uncached."""
    states = _sector_table(spec.n_sites, weight)[0]
    return (states, *np.linalg.eigh(sector_sparse(spec, weight).toarray()))


def _occupied_weights(state: StateVector) -> list[int]:
    return np.unique(np.bitwise_count(np.flatnonzero(np.abs(state.amps) ** 2 > 0.0))).tolist()


def _givens_factor(u1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reck factorisation u1 = G_1^dag ... G_K^dag D; returns (m_k, blocks G_k, diag D).

    Column by column from the left, each lower-triangle entry is zeroed from the
    bottom up by an SU(2) rotation G_k of rows (m_k, m_k + 1), leaving the
    diagonal D.  Entries already zero get none, so K <= N(N-1)/2.
    """
    rows = [[complex(v) for v in row] for row in u1]
    n = len(rows)
    modes, blocks = [], []
    for j in range(n - 1):
        for i in range(n - 1, j, -1):
            top, bot = rows[i - 1], rows[i]
            x, y = top[j], bot[j]
            if y == 0:
                continue
            r = math.hypot(abs(x), abs(y))
            xc, yc, x, y = x.conjugate() / r, y.conjugate() / r, x / r, y / r
            for k in range(j + 1, n):
                top[k], bot[k] = xc * top[k] + yc * bot[k], x * bot[k] - y * top[k]
            top[j], bot[j] = r, 0j
            modes.append(i - 1)
            blocks.append(((xc, yc), (-y, x)))
    return np.array(modes, dtype=np.int64), np.array(blocks).reshape(-1, 2, 2), np.diag(rows)


def evolve(
    state: StateVector,
    spec: ChainSpec,
    t: float,
    method: str = "expm",
) -> StateVector:
    """Return e^{-iHt}|psi>.

    Excitation-sector weights are preserved identically because each sector
    is propagated in isolation.
    method="expm" applies each occupied sector's sparse Hamiltonian with
    scipy's expm_multiply (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
    (2011)); it keeps no cache and never factorises the single-particle
    unitary, so it serves as an oracle independent of the Givens engine.
    method="givens" is O(N^2 * sector size) with no set-up: with
    exp(-i H1 t) = G_1^dag ... G_K^dag D, basis states take D's phases on their
    occupied sites, then each G_k^dag on modes (m, m+1) mixes the (|10>, |01>)
    amplitude pairs by its 2x2 block (|11> takes det G_k = 1; no JW signs).
    """
    if spec.n_sites != state.n_sites:
        raise ValueError("size mismatch")
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    if method not in ("expm", "givens"):
        raise ValueError(f"unknown method {method!r}")
    amps = state.amps.copy()
    if method == "expm":
        # expm_multiply's norm estimates (onenormest) draw from numpy's global
        # legacy generator; restore it so the caller's np.random stream is untouched
        rng_state = np.random.get_state()
        try:
            for w in _occupied_weights(state):
                states = _sector_table(spec.n_sites, w)[0]
                amps[states] = expm_multiply(-1j * t * sector_sparse(spec, w), amps[states])
        finally:
            np.random.set_state(rng_state)
    else:
        evals, evecs = np.linalg.eigh(single_excitation_matrix(spec))
        modes, blocks, phases = _givens_factor(_u_of_t(evals, evecs, t))
        for w in _occupied_weights(state):
            states, pairs = _sector_table(spec.n_sites, w)
            sub = amps[states] * np.exp(1j * _occupation_sum(np.angle(phases), states))
            for m, g in zip(modes[::-1], blocks[::-1].conj().transpose(0, 2, 1)):
                if pairs[m].size:
                    sub[pairs[m]] = g @ sub[pairs[m]]
            amps[states] = sub
    return StateVector(amps, state.n_sites)


def _rotations_to_first(w: np.ndarray) -> np.ndarray:
    """SU(2) blocks G_m of bonds (m, m + 1) with G_0 ... G_{N-2} w = e^{i theta} e_1.

    Bond m = N-2 first: each block zeroes entry m + 1 into entry m, as in
    _givens_factor; an entry already zero gets the identity.
    """
    blocks = np.empty((w.size - 1, 2, 2), dtype=complex)
    y = complex(w[-1])
    for m in range(w.size - 2, -1, -1):
        x = complex(w[m])
        if y == 0:
            blocks[m] = np.eye(2)
            y = x
            continue
        r = math.hypot(abs(x), abs(y))
        x, y = x / r, y / r
        blocks[m] = ((x.conjugate(), y.conjugate()), (-y, x))
        y = r
    return blocks


def _rotate_rows(x: np.ndarray, pair: np.ndarray, g: np.ndarray) -> None:
    """Row k of the (S, n_sector) block x: its (|10>, |01>) pairs of one bond times g[k]."""
    if pair.size:
        flat = x.reshape(-1)  # 1-D gathers and scatters are far cheaper than x[:, pair]
        idx = (np.arange(0, flat.size, x.shape[1])[:, None] + pair.reshape(1, -1)).ravel()
        flat[idx] = (g @ flat[idx].reshape(x.shape[0], *pair.shape)).ravel()


def single_z_sectors(
    arrival: StateVector, spec: ChainSpec, sites, taus
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per occupied sector of `arrival`: (basis indices, (S, n_sector) block).

    Row k of a block is e^{iH tau_k} Z_{s_k} e^{-iH tau_k} |arrival>.  With
    |arrival> = e^{-iHT}|psi> and tau = t - T that is the readout
    e^{-iH(T-t)} Z_s e^{-iHt}|psi> of a phase flip on site s at time t.
    H is quadratic and number conserving, so the conjugated flip is
    1 - 2 n_v with n_v = a_v^dag a_v, a_v = sum_j v_j c_j and v row s of
    exp(-i H1 tau): the N - 1 bond rotations G that carry conj(v) to e_1
    give n_v = G^dag n_1 G, read from the one pair table per sector.  Every
    operation acts within a row, so a sample's value does not depend on
    the batch it is evaluated in.
    """
    n = spec.n_sites
    if arrival.n_sites != n:
        raise ValueError("size mismatch")
    sites = np.asarray(sites, dtype=np.int64)
    taus = np.asarray(taus, dtype=float)
    if sites.ndim != 1 or sites.shape != taus.shape:
        raise ValueError("need one site per time")
    if np.any((sites < 1) | (sites > n)):
        raise ValueError("site out of range")
    if not np.all(np.isfinite(taus)):
        raise ValueError("time must be finite")
    evals, evecs = np.linalg.eigh(single_excitation_matrix(spec))
    g = np.empty((sites.size, n - 1, 2, 2), dtype=complex)
    for k, (s, tau) in enumerate(zip(sites, taus)):
        v = (evecs[s - 1] * np.exp(-1j * evals * tau)) @ evecs.T
        g[k] = _rotations_to_first(v.conj())
    g_inv = g.conj().transpose(0, 1, 3, 2)
    blocks = []
    for w in _occupied_weights(arrival):
        states, pairs = _sector_table(n, w)
        phi = arrival.amps[states]
        x = np.tile(phi, (sites.size, 1))
        for m in range(n - 2, -1, -1):
            _rotate_rows(x, pairs[m], g[:, m])
        x[:, (states >> (n - 1)) & 1 == 0] = 0.0  # n_1: keep site 1 occupied
        for m in range(n - 1):
            _rotate_rows(x, pairs[m], g_inv[:, m])
        blocks.append((states, phi - 2.0 * x))
    return blocks


# ---------------------------------------------------------------------------
# dense Hamiltonian, Lindblad dephasing, mode coherences
# ---------------------------------------------------------------------------


def dense_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Full 2^N x 2^N chain Hamiltonian (resource-guarded)."""
    n = spec.n_sites
    if n > _DENSE_H_MAX_SITES:
        raise ResourceLimitError(f"dense Hamiltonian limited to N <= {_DENSE_H_MAX_SITES}")
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim, dtype=np.int64)
    for k in range(1, n):
        b1, b2 = site_bit(n, k), site_bit(n, k + 1)
        one_exc = ((idx & b1) != 0) != ((idx & b2) != 0)
        src = idx[one_exc]
        h[src ^ (b1 | b2), src] += spec.couplings[k - 1]
    diag = np.zeros(dim)
    for k in range(1, n + 1):
        diag += spec.fields[k - 1] * ((idx >> (n - k)) & 1)
    h[idx, idx] += diag
    return h


@lru_cache(maxsize=8)
def _dense_eig(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(dense_hamiltonian(spec))


def dense_unitary(spec: ChainSpec, t: float) -> np.ndarray:
    evals, evecs = _dense_eig(spec)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def lindblad_evolve(rho: DensityMatrix, spec: ChainSpec, gamma: float, t: float) -> DensityMatrix:
    """Exact solution of drho/dt = -i[H,rho] - N gamma rho + gamma sum_n Z_n rho Z_n.

    On the row-major vec(rho) the Liouvillian is the sparse 4^N x 4^N matrix
    L = -i(H (x) I - I (x) H^T) - 2 gamma diag(popcount(i ^ j)): the
    dissipator is diagonal on |i><j|, where sum_n z_n(i) z_n(j) - N counts
    -2 per site that differs.  vec(rho(t)) = e^{Lt} vec(rho) is applied by
    scipy's expm_multiply (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
    (2011)), which picks its own Taylor degree and step count.
    """
    n = rho.n_sites
    if n != spec.n_sites:
        raise ValueError("size mismatch")
    if n > _DENSITY_MATRIX_MAX_SITES:
        raise ResourceLimitError(f"Lindblad evolution limited to N <= {_DENSITY_MATRIX_MAX_SITES}")
    if not (np.isfinite(gamma) and np.isfinite(t)):
        raise ValueError("gamma and t must be finite")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return DensityMatrix(rho.mat.copy(), n)
    h = sp.csr_matrix(dense_hamiltonian(spec))
    eye = sp.identity(1 << n, format="csr")
    idx = np.arange(1 << n, dtype=np.int64)
    flips = np.bitwise_count(idx[:, None] ^ idx[None, :]).ravel()
    liouvillian = -1j * (sp.kron(h, eye) - sp.kron(eye, h.T)) - sp.diags(2.0 * gamma * flips)
    vec = expm_multiply(liouvillian.tocsr() * t, rho.mat.ravel())
    return DensityMatrix(vec.reshape(rho.mat.shape), n)


def mirror_mode(n_sites: int, mode: int) -> int:
    """Index of the spatially mirrored fermion mode (within each block of N)."""
    if 1 <= mode <= n_sites:
        return n_sites + 1 - mode
    if n_sites < mode <= 2 * n_sites:
        return 3 * n_sites + 1 - mode
    raise ValueError("mode out of range")


def chi(rho: DensityMatrix, spec: ChainSpec, n: int, t: float) -> complex:
    """Coherence of the mode that is headed for position n at the readout.

    Computed as Tr(rho_int c_{N+1-n}) with rho_int the interaction-picture
    state e^{iHt} rho e^{-iHt}; equivalently the expectation of the
    Heisenberg mode e^{-iHt} c_{N+1-n} e^{iHt} in rho.  Written this way the
    unitary dynamics drop out exactly, which is what makes the closed-form
    dephasing decay hold for every mode and initial state.  The mode is a
    Pauli string, c|i> = phase (-1)^|i & z| |i ^ x>, so the trace is one
    gather: phase * sum_i rho_int[i, i ^ x] (-1)^|i & z|.
    """
    from .freefermion import jordan_wigner

    u = dense_unitary(spec, t)
    rho_int = u.conj().T @ rho.mat @ u
    c = jordan_wigner(mirror_mode(spec.n_sites, n), spec.n_sites)
    idx = np.arange(rho_int.shape[0], dtype=np.int64)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & c.z_mask) & 1)
    return complex(c.phase * np.sum(rho_int[idx, idx ^ c.x_mask] * signs))


def sample_rng(*words: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, counter, ...), each word taken mod 2^64.

    Draws for one key do not depend on any other key, so samples are
    order-independent.  The key is built as a uint64 array: numpy reads a
    Python list holding a word of 2^63 or more through float64, which maps
    every seed in [-1024, -1] to key word 0.
    """
    key = np.array([int(w) & (2**64 - 1) for w in words], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def trajectory_sample(
    state: StateVector,
    gamma: float,
    duration: float,
    rng_seed: int,
    spec: ChainSpec,
) -> tuple[StateVector, tuple[tuple[float, int], ...]]:
    """One stochastic unravelling of the dephasing channel.

    Each site flips phase at Poisson rate gamma; unitary evolution (the
    Givens engine) runs between jumps.  Averaging over seeds converges to
    lindblad_evolve.
    """
    if not (np.isfinite(gamma) and np.isfinite(duration)):
        raise ValueError("gamma and duration must be finite")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    rng = sample_rng(rng_seed, 0)
    events: list[tuple[float, int]] = []
    for site in range(1, spec.n_sites + 1):
        for t_j in rng.uniform(0, duration, rng.poisson(gamma * duration)):
            events.append((float(t_j), site))
    events.sort()
    psi = state
    t_prev = 0.0
    for t_j, site in events:
        if t_j > t_prev:
            psi = evolve(psi, spec, t_j - t_prev, method="givens")
        psi = apply_pauli(psi, PauliString(spec.n_sites, 0, site_bit(spec.n_sites, site)))
        t_prev = t_j
    if duration > t_prev:
        psi = evolve(psi, spec, duration - t_prev, method="givens")
    return psi, tuple(events)


# ---------------------------------------------------------------------------
# golden-file serialisation
# ---------------------------------------------------------------------------


def state_to_text(state: StateVector) -> str:
    """One "index real imag" line per amplitude; index bit k is site N-k."""
    lines = [f"# n_sites {state.n_sites}"]
    for i, a in enumerate(state.amps):
        lines.append(f"{i} {a.real:.17g} {a.imag:.17g}")
    return "\n".join(lines) + "\n"


def state_from_text(text: str) -> StateVector:
    n_sites = None
    amps = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            toks = line[1:].split()
            if toks[:1] == ["n_sites"]:
                n_sites = int(toks[1])
                amps = np.zeros(1 << n_sites, dtype=complex)
            continue
        if amps is None:
            raise ValueError("missing n_sites header")
        i, re_s, im_s = line.split()
        amps[int(i)] = float(re_s) + 1j * float(im_s)
    if amps is None:
        raise ValueError("empty state file")
    return StateVector(amps, n_sites)
