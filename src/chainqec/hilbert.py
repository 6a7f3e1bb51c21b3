"""Exact full-Hilbert-space simulation of the chain.

State vectors are indexed so that qubit 1 is the most significant bit of the
basis index: |1,0,...,0> on N sites is index 2^(N-1).  The chain Hamiltonian
used throughout couples the field B_n to the local excitation number
(I - Z_n)/2, which makes the single-excitation block equal the tridiagonal
matrix of chain.single_excitation_matrix exactly and keeps the fermionic
mode evolution of the freefermion module exact for nonzero fields.

The chain is quadratic and number-conserving, so every noiseless or
phase-flipped run is Gamma(M) for one N x N single-particle unitary M:
exp(-i H1 t) for an evolution (mode_unitaries), and a product of those
and reflections for a run with phase flips (jump_unitary).  One engine
computes Gamma(M)|psi>: each amplitude <y|Gamma(M)|psi> is
sum_x c_x det M[y, x] (Terhal & DiVincenzo, PRA 65, 032325 (2002)), a sum
of minors of M planned once for a set of targets and sources as one
Laplace expansion over shared sub-minors (minor_plan), evaluated
elementwise for a whole stack of M (mode_minors) and folded with the
sources' amplitudes (amplitude_plan).  apply_mode_unitary plans the whole
occupied sectors of one state, and the revival set-up plans once either
the few amplitudes the decoder reads or the whole support.  evolve
applies each occupied sector's sparse Hamiltonian with scipy's
expm_multiply and serves as the exact N = 15 oracle, independent of the
minors.  Neither caches anything that depends on the chain's couplings
or fields.  A single phase flip during transport is one rotated mode v
about the error-free arrival state phi, read out as phi - 2 n_v phi,
with v the flipped site's row of a mode unitary (mode_unitaries).  Since
n_v = sum_ij conj(v_i) v_j c_i^dag c_j, that state is a quadratic form
in v over the N^2 hopped states c_i^dag c_j phi (hop_rows), from which
the revival set-up builds pruned samples' rows and scores exact samples
without building any.  lindblad_evolve, the exact dephasing oracle,
keeps only the Liouvillian's blocks that the state occupies; up to
_DENSE_LIOUVILLIAN_MAX_DIM kept positions it gathers them densely and
exponentiates each distinct time step once by scaling-and-squaring Pade
(scipy.linalg.expm), and above that it steps a sparse Liouvillian, built
block by block from the sector Hamiltonians, with expm_multiply.  Both
exact oracles (evolve and lindblad_evolve) leave a state unchanged when
no entry of their generator times t reaches the smallest normal float
(_negligible), and neither moves numpy's global random state
(_expm_apply).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .chain import ChainSpec, single_excitation_matrix
from .errors import ResourceLimitError
from .pauli import PauliString, site_bit, z_sign

_DENSITY_MATRIX_MAX_SITES = 8
_DENSE_H_MAX_SITES = 12
_LINDBLAD_MAX_WORK = 1e7
_DENSE_LIOUVILLIAN_MAX_DIM = 100
# a dense N = 10 state to itself is 184 756 pairs: a 220 ms plan peaking at
# 36 MiB (one BLAS thread, 2-core Xeon), the largest the limit admits; the
# revival set-up's support plan is 9010
_MINOR_PLAN_MAX_PAIRS = 200_000


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
    out = np.empty_like(state.amps)
    out[idx ^ p.x_mask] = p.phase * z_sign(idx & p.z_mask) * state.amps
    return StateVector(out, state.n_sites)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2."""
    if a.n_sites != b.n_sites:
        raise ValueError("size mismatch")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


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
    # != 0, not |a|^2 > 0: the square of an amplitude below ~1.5e-162 underflows to 0
    return np.unique(np.bitwise_count(np.flatnonzero(state.amps != 0))).tolist()


def evolve(state: StateVector, spec: ChainSpec, t: float) -> StateVector:
    """Return e^{-iHt}|psi>, the exact oracle independent of the minors engine.

    Each occupied sector's sparse Hamiltonian is applied with scipy's
    expm_multiply (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)),
    so excitation-sector weights are preserved identically; it keeps no
    cache and never reads the single-particle unitary or its minors.
    """
    if spec.n_sites != state.n_sites:
        raise ValueError("size mismatch")
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    amps = state.amps.copy()
    for w in _occupied_weights(state):
        states = _sector_table(spec.n_sites, w)[0]
        amps[states] = _expm_apply(-1j * t * sector_sparse(spec, w), amps[states])
    return StateVector(amps, state.n_sites)


def _negligible(a) -> bool:
    """True when no entry of the generator A (-iHt or Lt) reaches the smallest normal.

    There (A at t = 0 included) ||A||_1 < dim * 2.2e-308, so no entry of
    e^A v differs from v by more than that, and both exact oracles leave v
    as it is: a repeated time stays exact, and expm_multiply, at a
    subnormal ||A||_1, would take zero steps and divide by that count (a
    RuntimeWarning).  The largest entry, not the 1-norm, is tested: on a
    sparse A it is one pass over the stored values, where the sparse
    1-norm builds |A|.
    """
    entries = a.data if sp.issparse(a) else a
    return np.abs(entries).max(initial=0.0) < np.finfo(float).tiny


def _expm_apply(a: sp.csr_matrix, v: np.ndarray) -> np.ndarray:
    """e^A v by scipy's expm_multiply, or v copied when A is negligible (_negligible).

    expm_multiply's norm estimates (onenormest, at large ||A||_1) draw from
    numpy's global legacy generator; its state is restored so the caller's
    np.random stream is untouched.
    """
    if _negligible(a):
        return v.copy()
    rng_state = np.random.get_state()
    try:
        return expm_multiply(a, v)
    finally:
        np.random.set_state(rng_state)


def check_mode_unitaries(m, n: int) -> np.ndarray:
    """m as a complex stack (S, N, N), refused unless every member is a finite N x N unitary."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (n, n):
        raise ValueError(f"size mismatch: need a stack of {n} x {n} mode unitaries, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("mode unitaries must be finite")
    if m.size and np.abs(m @ m.conj().swapaxes(-1, -2) - np.eye(n)).max() > 1e-8:
        raise ValueError("mode matrices must be unitary")
    return m


def apply_mode_unitary(state: StateVector, m) -> StateVector:
    """Return Gamma(M)|psi> for one N x N single-particle unitary M on the state's N sites.

    Gamma(M) is the number-conserving Gaussian unitary with Gamma(M) c_j^dag
    Gamma(M)^dag = sum_i M_ij c_i^dag (minor_plan), so Gamma(exp(-i H1 t)) =
    e^{-iHt} and Gamma(R) = Z_s for the reflection R = I - 2 e_s e_s^T
    (jump_unitary).  Each amplitude of the occupied sectors is
    sum_x c_x det M[y, x] over the state's nonzero entries x: one plan for
    those targets and their fold (amplitude_plan), times the minors
    (mode_minors).  Refuses an M of another size, or one that is not a
    finite unitary (the complementary minors hold only for a unitary), and
    a state whose plan outgrows the pair limit (minor_plan).
    """
    n = state.n_sites
    m = check_mode_unitaries([m], n)
    weight = np.bitwise_count(np.arange(1 << n, dtype=np.int64))
    targets = np.flatnonzero(np.isin(weight, weight[state.amps != 0]))
    plan, fold = amplitude_plan(n, targets, state.amps)
    amps = np.zeros_like(state.amps)
    amps[targets] = (mode_minors(m, plan) @ fold)[0]
    return StateVector(amps, n)


def check_sites(n_sites: int, sites) -> np.ndarray:
    """sites as int64, refused unless each is a whole number in 1..N.

    An int64 cast alone would read 1.7 as site 1, and an index of 0 would
    read site N through a negative index.
    """
    sites = np.asarray(sites, dtype=float)
    if np.any((sites < 1) | (sites > n_sites) | (sites != np.floor(sites))):
        raise ValueError("site out of range: need a whole number in 1..N")
    return sites.astype(np.int64)


def mode_unitaries(spec: ChainSpec, times) -> np.ndarray:
    """(S, N, N) single-particle unitaries exp(-i H1 t), one per time, from one eigh.

    Gamma(M)|psi> = e^{-iHt}|psi> for each (apply_mode_unitary,
    minor_plan).  One stacked product, in which numpy multiplies each
    member alone (the GEMM chain._u_of_t makes), so a member does not
    depend on the stack.  Refuses a non-finite time.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("need a 1-D array of times")
    if not np.all(np.isfinite(times)):
        raise ValueError("time must be finite")
    evals, evecs = np.linalg.eigh(single_excitation_matrix(spec))
    return (evecs * np.exp(-1j * evals * times[:, None])[:, None, :]) @ evecs.T


def jump_unitary(spec: ChainSpec, duration: float, jumps) -> np.ndarray:
    """U(D - t_k) R_k ... U(t_2 - t_1) R_1 U(t_1): the mode unitary of a run with phase flips.

    `jumps` lists (t, site) pairs, 0 <= t_1 <= ... <= t_k <= D = duration;
    U(t) = exp(-i H1 t) (mode_unitaries) and R = I - 2 e_s e_s^T is the
    mode matrix of Z_s = exp(i pi n_s), so Gamma of the product is the
    chain's evolution with Z on site s_j at time t_j.  Refuses a site that
    is not a whole number in 1..N (check_sites) and times out of order or
    outside [0, D].
    """
    times = np.array([0.0, *(t for t, _ in jumps), duration], dtype=float)
    sites = check_sites(spec.n_sites, [s for _, s in jumps])
    if np.any(np.diff(times) < 0):
        raise ValueError("jump times must be ordered within [0, duration]")
    steps = mode_unitaries(spec, np.diff(times))
    m = steps[0]
    for site, step in zip(sites, steps[1:]):
        m = step @ (m * np.where(np.arange(1, spec.n_sites + 1) == site, -1.0, 1.0)[:, None])
    return m


@dataclass(frozen=True)
class MinorPlan:
    """How to read <y|Gamma(M)|x> for the pairs of minor_plan, every array read-only.

    pairs (2, P): target and source positions of each pair;
    complementary (P,): whether the pair is read from its complement, and
    sign (P,): (-1)^{sum y + sum x} there, 1 elsewhere;
    entries[l - 1], children[l - 1] (n_l, l): per sub-minor of level l,
    the flat index r N + c into M and the child node of level l - 1 of
    each term of its expansion; node (P,): each pair's node among levels
    0..K stacked (level 0 is the one constant 1).
    """

    pairs: np.ndarray
    complementary: np.ndarray
    sign: np.ndarray
    entries: tuple[np.ndarray, ...]
    children: tuple[np.ndarray, ...]
    node: np.ndarray


def _set_sites(masks: np.ndarray, n: int, count: int) -> np.ndarray:
    """(len(masks), count) positions of the set bits of each mask, ascending; each has count."""
    return np.nonzero((masks[:, None] >> np.arange(n)) & 1)[1].reshape(-1, count)


def minor_plan(n_sites: int, targets, sources) -> MinorPlan:
    """Plan <y|Gamma(M)|x> for every target y and source x of equal weight.

    Gamma(M) is the number-conserving Gaussian unitary with Gamma(M) c_j^dag
    Gamma(M)^dag = sum_i M_ij c_i^dag, so <y|Gamma(M)|x> = det M[y, x],
    sites ascending (the sign convention of hop_rows; Knill,
    quant-ph/0108033; Terhal & DiVincenzo, PRA 65, 032325 (2002)).  For
    weight w > N - w, Jacobi's complementary-minor identity for unitary M,
    det M[y, x] = (-1)^{sum y + sum x} det M conj(det M[y^c, x^c]), keeps
    every minor at size min(w, N - w).

    Each minor is expanded along its last column (Laplace), and so is each
    sub-minor in turn: a node of level l is a sub-minor det M[R, C], R a
    set of l rows and C the first l columns of some pair's column list, and
    its value is sum_i (-1)^{i + l} M[r_i, c_l] det M[R - r_i, C - c_l]
    over its rows r_1 < ... < r_l.  Pairs that share a sub-minor share its
    node, so the plan holds each once (45, 315, 990, 945 and 459 nodes at
    levels 1..5 for the revival set-up's 460 pairs).  The sign of term i is
    the same at every node of a level, so it is not stored.  Built with bit
    masks, np.unique and searchsorted, never a loop over pairs or nodes
    (about 2-3 ms for those 460 pairs); refuses N > 31, where a node's key
    outgrows an int64, and, with ResourceLimitError, more pairs than
    _MINOR_PLAN_MAX_PAIRS, counted from the two weight histograms before
    the (targets x sources) comparison is allocated.
    """
    n = n_sites
    if n > 31:
        raise ValueError("minor_plan keys a sub-minor by 2N bits of an int64: need N <= 31")
    bits = 1 << (n - 1 - np.arange(n, dtype=np.int64))  # b_i of site i + 1
    targets, sources = np.asarray(targets, dtype=np.int64), np.asarray(sources, dtype=np.int64)
    weight_y, weight_x = np.bitwise_count(targets), np.bitwise_count(sources)
    count = int(np.bincount(weight_y, minlength=65) @ np.bincount(weight_x, minlength=65))
    if count > _MINOR_PLAN_MAX_PAIRS:
        raise ResourceLimitError(
            f"minor plan of {count} pairs exceeds the limit of {_MINOR_PLAN_MAX_PAIRS}"
        )
    target, source = np.nonzero(weight_y[:, None] == weight_x)
    occ_y = (targets[target, None] & bits) != 0  # (pair, site)
    occ_x = (sources[source, None] & bits) != 0
    weight = occ_y.sum(axis=1)
    complementary = weight > n - weight
    site_sums = occ_y @ np.arange(n) + occ_x @ np.arange(n)
    sign = np.where(complementary, 1.0 - 2.0 * (site_sums & 1), 1.0)
    occ_y ^= complementary[:, None]
    occ_x ^= complementary[:, None]
    size = occ_y.sum(axis=1)
    # node (R, C) as the key R << N | C, bit s of R or C for site s + 1
    place = np.int64(1) << np.arange(n, dtype=np.int64)
    pair_keys = ((occ_y @ place) << n) | (occ_x @ place)
    low = (np.int64(1) << n) - 1
    keys, entries, child_keys = [], [], []
    wanted = np.empty(0, dtype=np.int64)  # the children the level above reads
    for level in range(int(size.max(initial=0)), 0, -1):
        key = np.unique(np.concatenate([pair_keys[size == level], wanted]))
        r, c = key >> n, key & low
        rows = _set_sites(r, n, level)
        last = _set_sites(c, n, level)[:, -1]
        # term i drops row r_i and the last column
        child = ((r[:, None] ^ (1 << rows)) << n) | (c ^ (1 << last))[:, None]
        keys.append(key)
        entries.append(rows * n + last[:, None])
        child_keys.append(child)
        wanted = child.ravel()
    keys.append(np.zeros(1, dtype=np.int64))  # level 0, the empty minor
    keys, entries, child_keys = keys[::-1], entries[::-1], child_keys[::-1]
    children = [np.searchsorted(keys[level], child) for level, child in enumerate(child_keys)]
    offsets = np.cumsum([0] + [k.size for k in keys])
    node = np.empty(size.size, dtype=np.int64)
    for level, key in enumerate(keys):
        at = size == level
        node[at] = offsets[level] + np.searchsorted(key, pair_keys[at])
    plan = MinorPlan(np.stack([target, source]), complementary, sign,
                     tuple(entries), tuple(children), node)
    for a in (plan.pairs, plan.complementary, plan.sign, plan.node, *plan.entries, *plan.children):
        a.flags.writeable = False
    return plan


def mode_minors(m: np.ndarray, plan: MinorPlan) -> np.ndarray:
    """(S, P) amplitudes det M[y, x] of the pairs the plan holds, per unitary of the stack m.

    Level by level from the constant 1 of level 0: a node of level l is l
    gathered products M[r_i, c_l] times a node of level l - 1, added in a
    fixed order (last row first), and a complementary pair takes det M
    (one LU per member) times the conjugate of its minor.

    All of it is elementwise across the stack, so each member's values are
    computed alone, whatever the stack.  Each complex product multiplies
    two contiguous arrays of one shape into a fresh output: numpy rounds a
    product with a broadcast operand, or one written over an operand (as
    its temporary elision does to a product of two large temporaries), with
    another kernel, so a member's value would change with S.

    No pivot, no division: at M = U(2T) most minors are exactly singular,
    and the expansion stays accurate in absolute terms there.  Every
    sub-minor of a unitary has modulus <= 1 (Hadamard), and the entries of
    one column of M have squared moduli summing to <= 1, so with u = 2^-53
    the error of a level-l node is at most sqrt(l) times that of level
    l - 1 plus (l + 1.3) sqrt(l) u: at most about 130 u (1.5e-14) at level
    5, before det M's own rounding in a complementary pair; 3.3e-16 was
    measured against np.linalg.det.
    """
    s, n = m.shape[0], m.shape[1]
    flat = np.ascontiguousarray(m.reshape(s, n * n).T)  # (N^2, S): a gather takes whole rows
    below = np.ones((1, s), dtype=complex)
    levels = [below]
    for entry, child in zip(plan.entries, plan.children):
        last = entry.shape[1] - 1
        node, term = np.empty((2, len(entry), s), dtype=complex)
        np.multiply(flat[entry[:, last]], below[child[:, last]], out=node)
        for i in range(last - 1, -1, -1):
            np.multiply(flat[entry[:, i]], below[child[:, i]], out=term)
            if (last - i) % 2:
                node -= term
            else:
                node += term
        levels.append(node)
        below = node
    minors = np.concatenate(levels)[plan.node]  # (P, S)
    det = np.repeat(np.linalg.det(m)[None, :], len(minors), axis=0)
    jacobi = np.multiply(det, minors.conj(), out=np.empty_like(minors))
    return np.where(plan.complementary[:, None], jacobi, minors).T


def amplitude_plan(n_sites: int, targets, amps: np.ndarray) -> tuple[MinorPlan, sp.csr_array]:
    """The minor plan of <y|Gamma(M)|psi> for each target y, and its fold, read-only.

    psi is the 2^N amplitudes `amps`; the plan (minor_plan) pairs each
    target with the nonzero entries x of psi of its weight, and the fold is
    a sparse (pair x target) table whose row p holds sign_p c_x in target
    y's column.  So mode_minors(m, plan) @ fold is sum_x c_x det M[y, x]
    per member and target, each target summed over its pairs in plan
    order, a fixed order: a member's amplitudes do not depend on its stack.
    """
    sources = np.flatnonzero(amps)
    plan = minor_plan(n_sites, targets, sources)
    target, source = plan.pairs
    fold = sp.csr_array((plan.sign * amps[sources[source]], (np.arange(target.size), target)),
                        shape=(target.size, len(targets)))
    for a in (fold.data, fold.indices, fold.indptr):
        a.flags.writeable = False
    return plan, fold


def hop_rows(state: StateVector, support: np.ndarray) -> sp.csr_array:
    """(N^2, support) sparse table: row N i + j holds c_{i+1}^dag c_{j+1} |state> on `support`.

    `support` lists basis indices.  c_i^dag c_i is n_i.  For i != j,
    c_i^dag c_j takes |x>, site j occupied and site i empty, to
    (-1)^{|x & sites strictly between i and j|} |x ^ b_i ^ b_j>, so each
    row is one signed gather from the state.  Rows are built one at a time:
    the whole table at once holds several (N, N, support) temporaries.
    """
    n = state.n_sites
    bits = 1 << (n - 1 - np.arange(n, dtype=np.int64))  # b_i of site i + 1
    y = np.asarray(support, dtype=np.int64)
    cols, vals = [], []
    for b_i, b_j in product(bits, bits):
        lo, hi = max(b_i, b_j), min(b_i, b_j)
        between = lo - 2 * hi if lo > hi else 0  # the bits strictly between sites i and j
        hit = np.flatnonzero(((y & b_i) != 0) & (((y & b_j) == 0) | (b_i == b_j)))
        cols.append(hit)
        vals.append(z_sign(y[hit] & between) * state.amps[y[hit] ^ b_i ^ b_j])
    indptr = np.cumsum([0] + [c.size for c in cols])
    return sp.csr_array((np.concatenate(vals), np.concatenate(cols), indptr), shape=(n * n, y.size))


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


def check_lindblad_work(spec: ChainSpec, gamma: float, t: float) -> None:
    """Refuse a Lindblad run up to time t whose work bound is not finite or above the limit.

    ||L||_1 <= 2 (sum |J| + sum |B| + gamma N): a column of H holds at most
    one hop per bond and one sum of fields, and the dissipator is at most
    2 gamma N on the diagonal.  expm_multiply's step count grows linearly
    with ||L t||_1, so the bound times t measures the sparse path's work
    before any matrix is built; the dense path's grows only with
    log ||L dt|| and stays far below it.  Measured on the sparse path (one
    BLAS thread, 2-core Xeon) at gamma = 1e2 and 1e3 from full-rank rho on
    N = 4 and 5 and from pure states on two or three excitation sectors
    (N = 4 and 6, 121 to 1024 kept positions): 37-84 microseconds per unit
    of the bound times t, linear in it.  So the limit of 1e7 refuses only
    calls that would run for about 6 minutes or more there.  The dense
    path runs the N = 5 sweep from |0...0+> in about 4 ms per gamma from
    1e4 up to 6e5, the largest the limit admits.
    """
    norm = sum(map(abs, spec.couplings)) + sum(map(abs, spec.fields)) + gamma * spec.n_sites
    work = 2.0 * norm * t
    if not work <= _LINDBLAD_MAX_WORK:
        raise ResourceLimitError(
            f"Lindblad work bound ||L||_1 t = {work:.3g} exceeds {_LINDBLAD_MAX_WORK:.0e}"
        )


def lindblad_evolve(rho: DensityMatrix, spec: ChainSpec, gamma: float, times) -> list[DensityMatrix]:
    """Exact solutions of drho/dt = -i[H,rho] - N gamma rho + gamma sum_n Z_n rho Z_n, one per time.

    `times` is a nondecreasing list of times >= 0, as for mode_unitaries.
    On the row-major vec(rho) the Liouvillian is the sparse 4^N x 4^N matrix
    L = -i(H (x) I - I (x) H^T) - 2 gamma diag(popcount(i ^ j)): the
    dissipator is diagonal on |i><j|, where sum_n z_n(i) z_n(j) - N counts
    -2 per site that differs.  H conserves the excitation number, so L is
    block-diagonal on the weight pairs (|i|, |j|), and a block on which rho
    is zero stays exactly zero.  L is built once per call, restricted to
    the positions (i, j) of the weight pairs where rho has a nonzero entry
    (36 of 1024 from |0...0+> on N = 5), and that shorter vector is
    stepped through the time differences on one of two paths, chosen by
    the kept dimension alone:

    - up to _DENSE_LIOUVILLIAN_MAX_DIM positions, L is gathered densely
      on them from the dense Hamiltonian (_kept_liouvillian), e^{L dt} is
      computed once per distinct step dt by scipy.linalg.expm
      (scaling-and-squaring Pade; Al-Mohy & Higham, SIAM J. Matrix Anal.
      Appl. 31, 970 (2009)) and multiplied into the vector.  Only steps
      equal as floats share an exponential: the steps of a linspace differ
      in their last bits.  Its cost grows with log ||L dt||, not ||L dt||.
    - above it, L is built sparse on the kept positions, one Kronecker sum
      of sector Hamiltonians per occupied weight pair
      (_sector_liouvillian), and applied by scipy's expm_multiply
      (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)), which picks
      its own Taylor degree and step count per step.  It is the only path
      that runs a large kept dimension: over eight steps from a full-rank
      rho on N = 5 (1024 positions) dense Pade took 6.9 s against 24 ms,
      and at 4^8 it cannot allocate L.

    The limit is the measured break-even (one BLAS thread, 2-core Xeon,
    sweep-like steps): dense won at 100 kept positions (2.8 against
    4.4 ms for one step) and lost at 121 (4.6 against 3.3 ms).  A step
    whose generator L dt is negligible (_negligible) leaves the vector as
    it is on both paths.  Refuses a run whose work bound is not finite or
    too large (check_lindblad_work) before H is built.
    """
    n = rho.n_sites
    if n != spec.n_sites:
        raise ValueError("size mismatch")
    if n > _DENSITY_MATRIX_MAX_SITES:
        raise ResourceLimitError(f"Lindblad evolution limited to N <= {_DENSITY_MATRIX_MAX_SITES}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("need a 1-D array of times")
    if not (np.isfinite(gamma) and np.all(np.isfinite(times))):
        raise ValueError("gamma and t must be finite")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if np.any(times < 0):
        raise ValueError("t must be nonnegative")
    steps = np.diff(times, prepend=0.0)
    if np.any(steps < 0):
        raise ValueError("t must be nondecreasing")
    check_lindblad_work(spec, gamma, times.max(initial=0.0))
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    weight = np.bitwise_count(idx)
    occupied = np.zeros((n + 1, n + 1), dtype=bool)
    rows, cols = np.nonzero(rho.mat)
    occupied[weight[rows], weight[cols]] = True
    keep = np.flatnonzero(occupied[weight[:, None], weight[None, :]])
    if keep.size <= _DENSE_LIOUVILLIAN_MAX_DIM:
        liouvillian = _kept_liouvillian(dense_hamiltonian(spec), gamma, keep)
        expms = {}
        for dt in np.unique(steps):
            if not _negligible(a := liouvillian * dt):
                expms[dt] = scipy.linalg.expm(a)

        def advance(dt, vec):
            return expms[dt] @ vec if dt in expms else vec
    else:
        keep, liouvillian = _sector_liouvillian(spec, gamma, occupied)

        def advance(dt, vec):
            return _expm_apply(liouvillian * dt, vec)
    vec, out = rho.mat.ravel()[keep], []
    for dt in steps:
        vec = advance(dt, vec)
        full = np.zeros(dim * dim, dtype=complex)
        full[keep] = vec
        out.append(DensityMatrix(full.reshape(dim, dim), n))
    return out


def _sector_liouvillian(spec: ChainSpec, gamma: float,
                        occupied: np.ndarray) -> tuple[np.ndarray, sp.csr_matrix]:
    """(kept row-major positions, sparse Liouvillian on them) of lindblad_evolve, block by block.

    The positions (i, j) of each occupied weight pair (a, b), i-major, hold
    one block: the Kronecker sum -i(H_a (x) I - I (x) H_b^T) of the sector
    Hamiltonians (sector_sparse) minus 2 gamma popcount(i ^ j) on the
    diagonal, which is _kept_liouvillian's formula on those positions.  No
    4^N x 4^N operator is built.
    """
    n, keep, blocks = spec.n_sites, [], []
    for a, b in zip(*np.nonzero(occupied)):
        (s_a, h_a), (s_b, h_b) = ((_sector_table(n, w)[0], sector_sparse(spec, w)) for w in (a, b))
        hamiltonian = sp.kron(h_a, sp.identity(s_b.size)) - sp.kron(sp.identity(s_a.size), h_b.T)
        flips = np.bitwise_count(s_a[:, None] ^ s_b).ravel()
        blocks.append(-1j * hamiltonian - sp.diags(2.0 * gamma * flips))
        keep.append(((s_a[:, None] << n) | s_b).ravel())
    return np.concatenate(keep), sp.block_diag(blocks, format="csr")


def _kept_liouvillian(h: np.ndarray, gamma: float, keep: np.ndarray) -> np.ndarray:
    """The dense Liouvillian of lindblad_evolve on the kept row-major positions (i, j).

    L[(i,j),(k,l)] = -i(h[i,k] delta[j,l] - delta[i,k] h[l,j])
    - 2 gamma popcount(i ^ j) delta[(i,j),(k,l)], gathered from the dense
    2^N x 2^N Hamiltonian h without building the 4^N x 4^N operator.
    """
    i, j = np.divmod(keep, len(h))
    same_i, same_j = i[:, None] == i[None, :], j[:, None] == j[None, :]
    liouvillian = -1j * (h[np.ix_(i, i)] * same_j - same_i * h[np.ix_(j, j)].T)
    liouvillian[np.diag_indices_from(liouvillian)] -= 2.0 * gamma * np.bitwise_count(i ^ j)
    return liouvillian


def mirror_mode(n_sites: int, mode: int) -> int:
    """Index of the spatially mirrored fermion mode (within each block of N)."""
    if 1 <= mode <= n_sites:
        return n_sites + 1 - mode
    if n_sites < mode <= 2 * n_sites:
        return 3 * n_sites + 1 - mode
    raise ValueError("mode out of range")


@lru_cache(maxsize=8)
def _mode_strings(n_sites: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x masks (2N, 1), z masks (2N, 1), phases (2N,)) of the modes chi reads, read-only.

    Row n - 1 is the Jordan-Wigner string of c_{N+1-n} (mirror_mode); they
    depend on N alone, so chi builds them once per chain length.
    """
    from .freefermion import jordan_wigner

    modes = [jordan_wigner(mirror_mode(n_sites, m), n_sites) for m in range(1, 2 * n_sites + 1)]
    x = np.array([c.x_mask for c in modes], dtype=np.int64)[:, None]
    z = np.array([c.z_mask for c in modes], dtype=np.int64)[:, None]
    phase = np.array([c.phase for c in modes])
    for a in (x, z, phase):
        a.flags.writeable = False
    return x, z, phase


def chi(rho: DensityMatrix, spec: ChainSpec, t: float) -> np.ndarray:
    """(2N,) coherences: entry n - 1 is that of the mode headed for position n at the readout.

    Entry n - 1 is Tr(rho_int c_{N+1-n}) with rho_int the interaction-picture
    state e^{iHt} rho e^{-iHt}; equivalently the expectation of the
    Heisenberg mode e^{-iHt} c_{N+1-n} e^{iHt} in rho.  Written this way the
    unitary dynamics drop out exactly, which is what makes the closed-form
    dephasing decay hold for every mode and initial state.  Each mode is a
    Pauli string, c|i> = phase (-1)^|i & z| |i ^ x> (_mode_strings), so
    each trace is one row of a single gather from one rho_int:
    phase * sum_i rho_int[i, i ^ x] (-1)^|i & z|.
    """
    u = dense_unitary(spec, t)
    rho_int = u.conj().T @ rho.mat @ u
    x, z, phase = _mode_strings(spec.n_sites)
    idx = np.arange(rho_int.shape[0], dtype=np.int64)
    gathered = rho_int[idx, idx ^ x] * z_sign(idx & z)
    return phase * np.sum(gathered, axis=1)


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

    Each site flips phase at Poisson rate gamma over [0, duration].  The
    run, jumps included, is one mode unitary (jump_unitary), applied once
    from its minors (apply_mode_unitary).  Averaging over seeds converges
    to lindblad_evolve.
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
    return apply_mode_unitary(state, jump_unitary(spec, duration, events)), tuple(events)


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
