"""Exact full-Hilbert-space simulation of the chain.

State vectors are indexed so that qubit 1 is the most significant bit of the
basis index: |1,0,...,0> on N sites is index 2^(N-1).  The chain Hamiltonian
used throughout couples the field B_n to the local excitation number
(I - Z_n)/2, which makes the single-excitation block equal the tridiagonal
matrix of chain.single_excitation_matrix exactly and keeps the fermionic
mode evolution of the freefermion module exact for nonzero fields.

The chain is quadratic and number-conserving, so every noiseless or
phase-flipped run is Gamma(M) for one N x N single-particle unitary M:
exp(-i H1 t) for an evolution (mode_unitaries, or stack_mode_unitaries
for one time on a stack of chains), and a product of those and
reflections for a run with phase flips (jump_unitary).  One engine
computes Gamma(M)|psi>: each amplitude <y|Gamma(M)|psi> is
sum_x c_x det M[y, x] (Terhal & DiVincenzo, PRA 65, 032325 (2002)), a sum
of minors of M planned once for a set of targets and sources as one
Laplace expansion over shared sub-minors (minor_plan), evaluated
elementwise for a whole stack of M (mode_minors) and folded with the
sources' amplitudes (amplitude_plan, from the state's nonzero entries:
no 2^N array).  amplitudes_at plans a set of targets in a fixed number
of blocks, each plan freed once read: apply_mode_unitary reads one
state's whole occupied sectors through it, and each revival read-out its
arrival state where its hop plan asks for it.  No plan outlives its call
but a read-out's own plan of the amplitudes at its positions (those the
decoder reads, or the whole support).  The fold, like every
sparse table an exact sweep reads, is a FixedOrderTable: numpy entry
arrays whose product sums each column in stored order and rounds each
complex product as scipy's sparse kernels do, so it keeps their bits and
computes each member of a stack alone.  evolve applies each occupied
sector's sparse Hamiltonian with scipy's expm_multiply and serves as the
exact N = 15 oracle, independent of the minors.  Neither caches anything
that depends on the chain's couplings or fields; in this module only
mode_unitaries (H1's eigendecomposition), the dense oracle dense_unitary
(its eigendecomposition) and lindblad_evolve (the Hamiltonian parts of
its blocks) do, in bounded caches that
clear_evolution_cache drops.  A single phase flip during transport is
one rotated mode v about the error-free arrival state phi, read out as
phi - 2 n_v phi, with v the flipped site's row of a mode unitary
(mode_unitaries).  n_v = sum_ij conj(v_i) v_j c_i^dag c_j, and apply_hops
applies any such sum_ij a_i b_j c_i^dag c_j to a fixed state on a
support, per member of a stack, by a route through a neighbouring
excitation weight that hop_plan tables once, asking for the state's
amplitudes only at the indices its tables read: each revival read-out
builds its single-Z rows with it, at its own positions.
lindblad_evolve, the exact dephasing oracle, evolves each excitation
weight-pair block of the Liouvillian that the state occupies on its own,
exponentiating every (block, distinct time step) of one block size in a
stacked scaling-and-squaring [13/13] Pade (_expm, in numpy).  chi reads
the mode coherences of a stack of states as the single-particle rotation
of their bare ones, so the dephasing sweep builds no 2^N x 2^N unitary.
Both exact oracles (evolve and lindblad_evolve) leave a state unchanged
when no entry of their generator times t reaches the smallest normal
float (_negligible), and neither moves numpy's global random state
(_expm_apply).  No scipy loads with this module: scipy.sparse is
imported in sector_sparse and scipy.sparse.linalg in _expm_apply, where
evolve calls them.  So every sweep, the dephasing sweep included, loads
numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .chain import ChainSpec, _u_of_t, single_excitation_matrix
from .errors import ResourceLimitError
from .pauli import PauliString, site_bit, z_sign

_DENSITY_MATRIX_MAX_SITES = 6
_DENSE_H_MAX_SITES = 12
_LINDBLAD_MAX_WORK = 1e7
# complex entries of one stack of Lindblad exponentials (4 MiB); _expm peaks
# near ten times its input, and an N = 6 block holds at most 400^2 entries
_EXPM_STACK_ENTRIES = 1 << 18
# a dense N = 10 state to itself is 184 756 pairs, the largest plan the limit
# admits; the revival set-up's support plan is 9010
_MINOR_PLAN_MAX_PAIRS = 200_000

if TYPE_CHECKING:
    import scipy.sparse as sp


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


def _read_only(*arrays):
    """The arrays, each marked read-only: one array alone, several as a tuple."""
    for a in arrays:
        a.flags.writeable = False
    return arrays[0] if len(arrays) == 1 else arrays


def _sorted_unique(a) -> np.ndarray:
    """The distinct values of `a`, flattened and ascending: np.unique(a) for values without NaN.

    np.unique without return_* arguments asks whether `a` is masked, which
    imports numpy.ma; nothing here uses it, so no sweep loads it.
    """
    a = np.sort(np.ravel(a))
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _lookup(keys: np.ndarray, values: np.ndarray, at, default) -> np.ndarray:
    """values[k] where keys[k] equals `at`, elementwise, and `default` where no key does.

    `keys` are distinct, in any order; found by searchsorted on their
    sorted order, so no table over the key range is built.
    """
    at = np.asarray(at)
    if not keys.size:
        return np.full(at.shape, default, dtype=values.dtype)
    order = np.argsort(keys)
    k = order[np.minimum(np.searchsorted(keys, at, sorter=order), keys.size - 1)]
    return np.where(keys[k] == at, values[k], default)


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
    """Basis indices with `weight` excited sites, descending (ascending combination order).

    Built from the last site up: weight k on the last m + 1 sites is the
    first of them occupied over weight k - 1 on the rest, then empty over
    weight k, each part descending.  Only the weights the sites still to
    come can complete are kept, so no array holds all 2^N indices.
    """
    empty = np.zeros(0, dtype=np.int64)
    rows = {0: np.zeros(1, dtype=np.int64)}  # weight -> indices on the sites built so far
    for m in range(n_sites):
        bit = np.int64(1) << m
        rows = {k: np.concatenate([bit | rows.get(k - 1, empty), rows.get(k, empty)])
                for k in range(max(weight - (n_sites - 1 - m), 0), min(m + 1, weight) + 1)}
    return rows.get(weight, empty)


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
    _read_only(states, *pairs)
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
    import scipy.sparse as sp  # here, not at load: only the oracles need it

    states, pairs = _sector_table(spec.n_sites, weight)
    both = np.hstack(pairs)
    hops = np.tile(np.repeat(spec.couplings, [p.shape[1] for p in pairs]), 2)
    m = sp.csr_matrix((hops, (both.ravel(), both[::-1].ravel())), shape=(states.size,) * 2)
    return m + sp.diags(_occupation_sum(spec.fields, states))


def clear_evolution_cache() -> None:
    """Drop the caches that depend on a chain's couplings and fields.

    Those are mode_unitaries' eigendecompositions of H1 (_h1_eigh),
    dense_unitary's (_dense_eig) and lindblad_evolve's blocks
    (_lindblad_blocks).
    """
    _h1_eigh.cache_clear()
    _dense_eig.cache_clear()
    _lindblad_blocks.cache_clear()


def sector_eig(spec: ChainSpec, weight: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(basis indices, eigenvalues, eigenvectors) of one excitation sector, uncached."""
    states = _sector_table(spec.n_sites, weight)[0]
    return (states, *np.linalg.eigh(sector_sparse(spec, weight).toarray()))


def _occupied_weights(state: StateVector) -> list[int]:
    # != 0, not |a|^2 > 0: the square of an amplitude below ~1.5e-162 underflows to 0
    return _sorted_unique(np.bitwise_count(np.flatnonzero(state.amps != 0))).tolist()


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


def _negligible(a, axis=None):
    """True when no entry of the generator A (-iHt or Lt) reaches the smallest normal.

    There (A at t = 0 included) ||A||_1 < dim * 2.2e-308, so no entry of
    e^A v differs from v by more than that, and both exact oracles leave v
    as it is: a repeated time stays exact, and expm_multiply, at a
    subnormal ||A||_1, would take zero steps and divide by that count (a
    RuntimeWarning).  The largest entry, not the 1-norm, is tested: a
    sparse A passes its stored values (_expm_apply), one pass where the
    sparse 1-norm builds |A|.  With `axis`, a dense stack of generators is
    tested member by member.
    """
    return np.abs(a).max(axis=axis, initial=0.0) < np.finfo(float).tiny


def _expm_apply(a: sp.csr_matrix, v: np.ndarray) -> np.ndarray:
    """e^A v by scipy's expm_multiply, or v copied when A is negligible (_negligible).

    expm_multiply's norm estimates (onenormest, at large ||A||_1) draw from
    numpy's global legacy generator; its state is restored so the caller's
    np.random stream is untouched.
    """
    if _negligible(a.data):
        return v.copy()
    from scipy.sparse.linalg import expm_multiply  # here, not at load: only the evolve oracle needs it

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
    sum_x c_x det M[y, x] over the state's nonzero entries x
    (amplitudes_at, which plans those targets afresh on every call).
    Refuses an M of another size, or one that is not a finite unitary (the
    complementary minors hold only for a unitary), and a state whose plan
    of a block of targets outgrows the pair limit (minor_plan).
    """
    n = state.n_sites
    m = check_mode_unitaries([m], n)
    weight = np.bitwise_count(np.arange(1 << n, dtype=np.int64))
    targets = np.flatnonzero(np.isin(weight, weight[state.amps != 0]))
    sources = np.flatnonzero(state.amps)
    amps = np.zeros_like(state.amps)
    amps[targets] = amplitudes_at(m, (sources, state.amps[sources]), targets)[0]
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


@lru_cache(maxsize=8)
def _h1_eigh(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of the chain's H1, read-only, kept for the last 8 chains.

    eigh of one matrix returns the same bits on every call, so a cached
    pair gives mode_unitaries the values of a fresh one.
    clear_evolution_cache drops them.
    """
    return _read_only(*np.linalg.eigh(single_excitation_matrix(spec)))


def mode_unitaries(spec: ChainSpec, times) -> np.ndarray:
    """(S, N, N) single-particle unitaries exp(-i H1 t), one per time, from H1's cached eigh.

    Gamma(M)|psi> = e^{-iHt}|psi> for each (apply_mode_unitary,
    minor_plan).  One stacked product (chain._u_of_t, the formula
    stack_mode_unitaries shares), in which numpy multiplies each member
    alone, so a member does not depend on the stack.  The
    eigendecomposition is computed once per chain (_h1_eigh): a dephasing
    sweep and every single-Z chunk call this on one chain.  Refuses a
    non-finite time.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("need a 1-D array of times")
    if not np.all(np.isfinite(times)):
        raise ValueError("time must be finite")
    return _u_of_t(*_h1_eigh(spec), times[:, None])


def stack_mode_unitaries(h1: np.ndarray, t: float) -> np.ndarray:
    """(S, N, N) single-particle unitaries exp(-i H1_k t), one per matrix of the stack h1.

    h1 holds S real symmetric single-excitation matrices (S, N, N), such as
    the disorder instances of noise.disorder_stack.  One stacked eigh and
    one stacked product (chain._u_of_t, the formula mode_unitaries
    shares); numpy runs LAPACK and GEMM per member, so member k equals
    mode_unitaries(chain_k, [t])[0] bit for bit, whatever the stack.
    Refuses a non-finite time.
    """
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    evals, evecs = np.linalg.eigh(h1)
    # t as an (S, 1) array, as mode_unitaries passes times[:, None]: the
    # phases then come from the same broadcast product, to the same bits
    return _u_of_t(evals, evecs, np.full((len(h1), 1), float(t)))


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
    """How to read <y|Gamma(M)|x> for the pairs of minor_plan, every planned array read-only.

    pairs (2, P): target and source positions of each pair;
    complementary (P,): whether the pair is read from its complement, and
    sign (P,): (-1)^{sum y + sum x} there, 1 elsewhere;
    entries[l - 1], children[l - 1] (n_l, l): per sub-minor of level l,
    the flat index r N + c into M and the child node of level l - 1 of
    each term of its expansion; node (P,): each pair's node among levels
    0..K stacked (level 0 is the one constant 1).

    `work` holds mode_minors' writable work buffers (_work_array): one
    per name, sized by the largest stack seen, reused by every later call,
    so a warm call maps no fresh memory.  They grow with the plan's node
    count times the stack size, so a caller that holds a large plan
    evaluates it on a few members at a time (the pruned revival read-out
    does).  A plan is its caller's alone (amplitude_plan); nothing caches
    one.  It is not for concurrent use: two threads evaluating one plan at
    once would write over each other's levels.
    """

    pairs: np.ndarray
    complementary: np.ndarray
    sign: np.ndarray
    entries: tuple[np.ndarray, ...]
    children: tuple[np.ndarray, ...]
    node: np.ndarray
    work: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _work_array(work: dict, name: str, rows: int, cols: int, dtype=complex) -> np.ndarray:
    """A contiguous (rows, cols) view, complex by default, of the work buffer `name` in `work`.

    The buffer is grown to the largest size asked and never shrunk, so its
    owner holds one buffer per name, sized by the largest array it asked
    for; asked for another dtype, it is replaced.  A MinorPlan's and a
    FixedOrderTable's grow with the stack they are called on; apply_hops'
    (the work dict its caller keeps) and the revival evaluator's pruned
    masses (RevivalEvaluator._pruned) ask for fixed blocks of positions or
    states, so theirs stay bounded whatever the support.
    """
    buf = work.get(name)
    if buf is None or buf.size < rows * cols or buf.dtype != dtype:
        buf = work[name] = np.empty(rows * cols, dtype=dtype)
    return buf[:rows * cols].reshape(rows, cols)


def _set_sites(masks: np.ndarray, count: int) -> np.ndarray:
    """(len(masks), count) positions of the set bits of each mask, ascending; each has count.

    Lowest bit first, one (len(masks),) step per bit: no (masks x N) array.
    """
    sites = np.empty((masks.size, count), dtype=np.int64)
    for k in range(count):
        low = masks & -masks
        sites[:, k] = np.bitwise_count(low - 1)
        masks = masks ^ low
    return sites


def minor_plan(n_sites: int, targets, sources) -> MinorPlan:
    """Plan <y|Gamma(M)|x> for every target y and source x of equal weight.

    Gamma(M) is the number-conserving Gaussian unitary with Gamma(M) c_j^dag
    Gamma(M)^dag = sum_i M_ij c_i^dag, so <y|Gamma(M)|x> = det M[y, x],
    sites ascending (the sign convention of hop_plan; Knill,
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
    masks, never a loop over pairs or nodes nor a (pairs x N) array: one
    np.unique per level, from level K down to the constant 1 of level 0,
    gives its nodes and places its pairs and the level above's children
    among them, so each level's child keys are resolved and freed before
    the level below is expanded;
    refuses N > 31, where a node's key outgrows an int64, and, with
    ResourceLimitError, more pairs than _MINOR_PLAN_MAX_PAIRS, counted
    from the two weight histograms before the (targets x sources)
    comparison is allocated.
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
    # per target and per source, not per pair: the sum of its site numbers
    # less one, and its mask with bit s for site s + 1
    place = np.int64(1) << np.arange(n, dtype=np.int64)
    occ_y, occ_x = ((idx[:, None] & bits) != 0 for idx in (targets, sources))  # (index, site)
    sum_y, sum_x = occ_y @ np.arange(n), occ_x @ np.arange(n)
    mask_y, mask_x = occ_y @ place, occ_x @ place
    weight = weight_y[target].astype(np.int64)
    complementary = weight > n - weight
    site_sums = sum_y[target] + sum_x[source]
    sign = np.where(complementary, 1.0 - 2.0 * (site_sums & 1), 1.0)
    size = np.where(complementary, n - weight, weight)
    # node (R, C) as the key R << N | C, bit s of R or C for site s + 1; a
    # complementary pair takes the complements
    low = (np.int64(1) << n) - 1
    flip = np.where(complementary, low, 0)
    pair_keys = ((mask_y[target] ^ flip) << n) | (mask_x[source] ^ flip)
    entries, children, counts = [], [], []
    node = np.empty(size.size, dtype=np.int64)  # each pair's node in its level, then among all
    wanted = np.empty((0, 0), dtype=np.int64)  # the keys of the children the level above reads
    for level in range(int(size.max(initial=0)), -1, -1):
        at = size == level
        # this level's nodes, and where its pairs and the level above's children sit among them
        key, where = np.unique(np.concatenate([pair_keys[at], wanted.ravel()]), return_inverse=True)
        placed = np.count_nonzero(at)  # this level's pairs, then the children
        node[at] = where[:placed]
        children.append(where[placed:].reshape(wanted.shape))
        counts.append(key.size)
        r, c = key >> n, key & low
        rows = _set_sites(r, level)
        last = _set_sites(c, level)[:, level - 1:]  # the last column, none at level 0
        entries.append(rows * n + last)
        # term i drops row r_i and the last column
        wanted = ((r[:, None] ^ (1 << rows)) << n) | (c[:, None] ^ (1 << last))
    # levels 1..K: entries[-1] expanded level 0, children[0] placed no level above K
    entries, children = entries[-2::-1], children[:0:-1]
    node += np.cumsum([0] + counts[::-1])[size]
    plan = MinorPlan(np.stack([target, source]), complementary, sign,
                     tuple(entries), tuple(children), node)
    _read_only(plan.pairs, plan.complementary, plan.sign, plan.node, *plan.entries, *plan.children)
    return plan


def mode_minors(m: np.ndarray, plan: MinorPlan) -> np.ndarray:
    """(S, P) amplitudes det M[y, x] of the pairs the plan holds, per unitary of the stack m.

    Level by level from the constant 1 of level 0: a node of level l is l
    gathered products M[r_i, c_l] times a node of level l - 1, added in a
    fixed order (last row first), and a complementary pair takes det M
    (one LU per member) times the conjugate of its minor.

    All of it is elementwise across the stack, so each member's values are
    computed alone, whatever the stack.  Each complex product multiplies
    two contiguous arrays of one shape into a contiguous output of that
    shape that overlaps neither: numpy rounds a product with a broadcast
    operand, or one written over an operand (as its temporary elision does
    to a product of two large temporaries), with another kernel, so a
    member's value would change with S.  The levels, the gathered operands
    (np.take into a buffer) and M's transposed entries live in the plan's
    work buffers (MinorPlan), so a warm call allocates only its (P, S)
    result and a few small arrays: no call maps fresh pages for its
    temporaries, and a call after one with another S reads the buffers'
    leading parts, to the same values.

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
    counts = [len(entry) for entry in plan.entries]
    nodes = _work_array(plan.work, "nodes", 1 + sum(counts), s)  # levels 0..K stacked
    flat = _work_array(plan.work, "flat", n * n, s)  # (N^2, S): a gather takes whole rows
    flat[...] = m.reshape(s, n * n).T
    nodes[0] = 1.0
    below, start = nodes[:1], 1
    for entry, child, count in zip(plan.entries, plan.children, counts):
        node = nodes[start:start + count]
        a, b, term = (_work_array(plan.work, name, count, s) for name in ("a", "b", "term"))
        last = entry.shape[1] - 1
        for i in range(last, -1, -1):
            # mode="clip": with the default, take buffers its out= afresh
            np.take(flat, entry[:, i], axis=0, out=a, mode="clip")
            np.take(below, child[:, i], axis=0, out=b, mode="clip")
            if i == last:
                np.multiply(a, b, out=node)
                continue
            np.multiply(a, b, out=term)
            if (last - i) % 2:
                node -= term
            else:
                node += term
        below, start = node, start + count
    minors = np.take(nodes, plan.node, axis=0)  # (P, S), the result
    # the gather and term buffers are free again: they hold det M, the
    # conjugated minors and their products
    det, conj, jacobi = (_work_array(plan.work, name, len(minors), s)
                         for name in ("a", "b", "term"))
    det[...] = np.linalg.det(m)
    np.conjugate(minors, out=conj)
    np.multiply(det, conj, out=jacobi)
    np.copyto(minors, jacobi, where=plan.complementary[:, None])
    return minors.T


def _complex_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b as (ac - bd) + i(ad + bc), rounded part by part in real arithmetic.

    scipy's sparse kernels form a complex product this way.  numpy's own
    complex multiply fuses it (FMA) in kernels chosen by the operands'
    layout, so its bits differ from scipy's and can change with a stack's
    size; real products and sums are exact IEEE operations in every kernel.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


class FixedOrderTable:
    """A sparse (n_in, n_out) matrix B as numpy entry arrays, read-only; x @ B adds in stored order.

    Built from its entries (row, col, value); each column keeps its entries
    in the order given (a stable sort by column), the stored order.  x @ B,
    for x of shape (n_in,) or (S, n_in), is per row of x and column c the
    sum from 0 of value * x[row] over column c's entries in stored order,
    each complex product formed as _complex_product forms it.  That is how
    scipy's sparse products compute it, so x @ B equals scipy's product of
    the same matrix, entries in the same order, bit for bit, and every
    step is elementwise across the rows of x: a row's result does not
    depend on the rows computed with it.

    The product gathers x once for all entries, as interleaved real and
    imaginary parts, and multiplies them by the values tiled to the same
    shape: a product of two arrays of one shape runs numpy's fastest loop
    (one with a broadcast operand takes a slower loop).  The
    imaginary parts of the values take a second such product, with x's
    parts swapped, which a table of real values skips: its terms are
    exact zeros.  A real x times a table of real values is computed in
    real arithmetic and returned real, as scipy's real product is.
    Internally the entries are held slot-major: slot j holds the j-th
    entry of each column with more than j, the columns ranked by entry
    count, most first, so the columns a slot adds to are a leading block
    of that ranking, and the sums are taken slot by slot into contiguous
    slices.  The gathers, products, tiled values and sums live in work
    buffers (_work_array), so a warm call maps no fresh pages for them and
    allocates only its result: a table is not for concurrent use.
    """

    __array_ufunc__ = None  # so that ndarray @ table calls __rmatmul__

    def __init__(self, row, col, value, shape: tuple[int, int]):
        order = np.argsort(np.asarray(col, dtype=np.int64), kind="stable")
        self.shape = (int(shape[0]), int(shape[1]))
        self.row = np.asarray(row, dtype=np.int64)[order]
        self.col = np.asarray(col, dtype=np.int64)[order]
        self.value = np.asarray(value, dtype=complex)[order]
        counts = np.bincount(self.col, minlength=self.shape[1])
        self._place = np.argsort(np.argsort(-counts, kind="stable"))  # each column's rank
        slot = np.arange(self.col.size) - np.repeat(np.cumsum(counts) - counts, counts)
        major = np.lexsort((self._place[self.col], slot))
        self._gather = self.row[major]
        value = self.value[major]
        # per entry, what multiplies its (re, im) and its swapped (im, re)
        self._scale = np.stack([value.real, value.real], axis=1)
        self._cross = np.stack([-value.imag, value.imag], axis=1) if value.imag.any() else None
        widths = np.bincount(slot, minlength=int(counts.max(initial=0)))  # entries per slot
        self._ends = tuple(np.cumsum(widths).tolist())
        _read_only(*(a for a in vars(self).values() if isinstance(a, np.ndarray)))
        self._work: dict = {}

    @property
    def nnz(self) -> int:
        return self.col.size

    def toarray(self) -> np.ndarray:
        """Dense (n_in, n_out); repeated entries are summed."""
        out = np.zeros(self.shape, dtype=complex)
        np.add.at(out, (self.row, self.col), self.value)
        return out

    def _tiled(self, name: str, parts: np.ndarray, s: int) -> np.ndarray:
        """(nnz, k s) float: each entry's k parts repeated for s members, kept for the last s."""
        tiled = self._work.get(name)
        if tiled is None or tiled.shape[1] != parts.shape[1] * s:
            tiled = self._work[name] = np.tile(parts, s)
        return tiled

    def __rmatmul__(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim > 2 or x.shape[-1] != self.shape[0]:
            raise ValueError(f"size mismatch: need (S, {self.shape[0]}) rows, got {x.shape}")
        dtype = float if self._cross is None and not np.iscomplexobj(x) else complex
        xt = np.ascontiguousarray(np.atleast_2d(x).T, dtype=dtype)  # (n_in, S)
        n, s = self.nnz, xt.shape[1]
        gathered, prod = (_work_array(self._work, name, n, s, dtype) for name in ("gathered", "prod"))
        # mode="clip": with the default, take buffers its out= afresh
        np.take(xt, self._gather, axis=0, out=gathered, mode="clip")
        # (re, im) of each entry's product, as _complex_product forms it
        scale = self._tiled("scale", self._scale if dtype is complex else self._scale[:, :1], s)
        np.multiply(scale, gathered.view(float), out=prod.view(float))
        if self._cross is not None:
            swapped = _work_array(self._work, "swapped", len(xt), s)
            swapped.real, swapped.imag = xt.imag, xt.real
            np.take(swapped, self._gather, axis=0, out=gathered, mode="clip")
            term = _work_array(self._work, "term", n, s)
            np.multiply(self._tiled("cross", self._cross, s), gathered.view(float),
                        out=term.view(float))
            prod += term
        sums = _work_array(self._work, "sums", self.shape[1], s, dtype)
        sums[...] = 0
        start = 0
        for end in self._ends:
            sums[:end - start] += prod[start:end]
            start = end
        out = sums[self._place]  # (n_out, S), columns in place
        return out.T if x.ndim == 2 else out[:, 0]


def amplitude_plan(n_sites: int, targets, entries) -> tuple[MinorPlan, FixedOrderTable]:
    """The minor plan of <y|Gamma(M)|psi> for each target y, and its fold, read-only.

    psi is given by its nonzero entries, `entries` = (basis indices
    ascending, amplitudes), as code.encode_entries gives them: no 2^N
    array is read.  The plan (minor_plan) pairs each target with the
    entries x of its weight, and the fold is a (pair x target) table whose
    row p holds sign_p c_x in target y's column.  So mode_minors(m, plan)
    @ fold is sum_x c_x det M[y, x] per member and target, each target
    summed over its pairs in plan order (FixedOrderTable): a member's
    amplitudes do not depend on its stack, and a target's do not depend
    on the targets planned with it.  Nothing is cached: the plan and its
    work buffers are the caller's alone and are freed with it.  A caller
    that reads its targets once takes amplitudes_at; a revival read-out
    keeps its own plan (harness.Readout).
    """
    sources, values = (np.asarray(a) for a in entries)
    targets = np.asarray(targets, dtype=np.int64)
    plan = minor_plan(n_sites, targets, sources)
    target, source = plan.pairs
    fold = FixedOrderTable(np.arange(target.size), target, plan.sign * values[source],
                           (target.size, len(targets)))
    return plan, fold


_TARGET_BLOCKS = 4  # amplitudes_at plans its targets in this many blocks


def amplitudes_at(m: np.ndarray, entries, targets) -> np.ndarray:
    """(S, targets) amplitudes <y|Gamma(M)|psi> per member M of the stack m, at the int64 targets.

    psi is given by its nonzero entries, as amplitude_plan takes them.  The
    targets are planned in _TARGET_BLOCKS blocks, each plan the block's
    alone and freed once it is read, so no plan of all their pairs is held
    at once.  A target's amplitude does not depend on the targets planned
    with it (amplitude_plan), so every target has the bits one plan of
    them all gives it.
    """
    blocks = (amplitude_plan(m.shape[-1], block, entries)
              for block in np.array_split(targets, _TARGET_BLOCKS))
    return np.concatenate([mode_minors(m, plan) @ fold for plan, fold in blocks], axis=1)


def hop_plan(n_sites: int, amplitudes, support: np.ndarray) -> tuple:
    """Read-only tables of sum_ij a_i b_j c_i^dag c_j |state> on `support`, for apply_hops.

    `amplitudes(indices)` gives the state's amplitudes at an int64 array
    of basis indices.  It is called once, with every index the tables
    read, ascending and distinct: the support's own and every index one
    particle move c_i^dag c_j from one of them.  So no 2^N array is read,
    and two states that agree there have the same hop plan, bit for bit.
    `support` is an int64 array of basis indices, in any order.  Each
    excitation weight w of it takes the route with min(w, N - w) gathers a
    position, as minor_plan does: for w > N - w the anticommutator,
    sum_ij a_i b_j c_i^dag c_j = sum_i a_i b_i - (sum_j b_j c_j)(sum_i
    a_i c_i^dag), through weight w + 1, and otherwise (sum_i a_i c_i^dag)
    (sum_j b_j c_j) through weight w - 1, so the vacuum reads 0.  One
    group per weight: (its positions on the support, whether it goes
    through w + 1, the (N, intermediate) table of c_i^dag |state> or c_i
    |state> on the intermediate states its positions reach, the state's
    amplitudes at its positions, and two (slots, positions) arrays: slot
    k of a position y is its k-th empty (through w + 1) or occupied site
    i, read at y ^ b_i's column of the table and multiplied by row i or
    N + i of the stacked factors [f; -f], f = b through w + 1 and a
    through w - 1, as the sign of c_i, (-1)^{|y & sites before i|}, and
    the anticommutator's minus require).  The tables hold the state's
    amplitudes with exact signs, so for unit a and b every entry is the
    state's to the bit, and c_i^dag c_i through w + 1 is phi - phi = 0
    or phi - 0 = phi exactly.  While `amplitudes` runs only each
    weight's route is held; the tables are built after it.
    """
    n = n_sites
    bits = 1 << (n - 1 - np.arange(n, dtype=np.int64))  # b_i of site i + 1
    before = ~((bits << 1) - 1)  # the sites before site i + 1
    weights = np.bitwise_count(support)
    routes = []
    for w in _sorted_unique(weights).tolist():
        at = np.flatnonzero(weights == w)
        y, create = support[at], w > n - w
        site = np.nonzero(((y[:, None] & bits) != 0) != create)[1].reshape(y.size, -1).T
        mid, pos = np.unique(y ^ bits[site], return_inverse=True)  # the intermediates slots read
        hop = ((mid[:, None] & bits) != 0) == create  # c_i^dag or c_i back to weight w
        routes.append((at, create, site, pos, mid[:, None], hop))
    # every index the tables read, once: the support's and each hop back from an intermediate
    reach, read = np.unique(
        np.concatenate([support] + [(mid ^ bits)[hop] for *_, mid, hop in routes]),
        return_inverse=True)
    state = amplitudes(reach)
    plan, start = [], support.size
    for at, create, site, pos, mid, hop in routes:
        stop = start + np.count_nonzero(hop)
        table = np.zeros((n, mid.size), dtype=state.dtype)
        table.T[hop] = z_sign(mid & before)[hop] * state[read[start:stop]]
        factor = site + n * ((z_sign(support[at] & before[site]) < 0) != create)
        plan.append((at, create, *_read_only(table, state[read[at]], pos, factor)))
        start = stop
    return tuple(plan)


_HOP_BLOCK = 384  # positions per block of apply_hops' (block, S) work buffers


def apply_hops(plan: tuple, a: np.ndarray, b: np.ndarray, work: dict,
               shift: float = 0.0) -> np.ndarray:
    """(support, S): (shift + sum_ij a_i b_j c_i^dag c_j)|state> per row of the (S, N) a and b.

    `plan` is the state's hop_plan.  With a = conj(v) and b = v the sum
    is n_v, so a = -2 conj(v), b = v and shift 1 give (1 - 2 n_v)|state>
    (scaling by -2 is exact).  Per group, the table times each member's
    factor is one stacked np.matmul (a GEMV per member), and the slots
    are elementwise gathers, products and sums in slot order, taken over
    the group's positions in blocks of _HOP_BLOCK, so a member's values
    depend neither on its stack nor on the block size.  The
    (intermediate, S) and (block, S) work arrays live in `work`'s buffers
    (_work_array), which the caller keeps across calls, so they are not
    for concurrent use, and their size does not grow with the support;
    beyond them only the result and a few (S, N)-sized arrays are
    allocated.
    """
    s, n = a.shape
    norm = _complex_product(a, b).sum(axis=1)  # sum_i a_i b_i: {c_i, c_i^dag} = 1
    out = np.empty((sum(group[0].size for group in plan), s), dtype=complex)
    for at, create, table, amps, pos, factor in plan:
        coef, other = (a, b) if create else (b, a)
        mid, mid_t = (_work_array(work, name, table.shape[1], s) for name in ("mid", "mid_t"))
        np.matmul(coef[:, None, :], table, out=mid.reshape(s, 1, table.shape[1]))  # a GEMV each
        mid_t[...] = mid.reshape(s, table.shape[1]).T
        signed = np.concatenate([other.T, -other.T])  # (2N, S)
        diagonal = norm * create + shift
        for start in range(0, at.size, _HOP_BLOCK):
            block = slice(start, start + _HOP_BLOCK)
            rows = min(_HOP_BLOCK, at.size - start)
            acc, x, f, term = (_work_array(work, name, rows, s) for name in ("acc", "x", "f", "term"))
            np.multiply(amps[block, None], diagonal, out=acc)
            for p, g in zip(pos[:, block], factor[:, block]):
                # mode="clip": with the default, take buffers its out= afresh
                np.take(mid_t, p, axis=0, out=x, mode="clip")
                np.take(signed, g, axis=0, out=f, mode="clip")
                np.multiply(x, f, out=term)
                acc += term
            out[at[block]] = acc
    return out


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
    """e^{-iHt} on the full 2^N-dimensional space: the dense oracle of the tests.

    Built from the chain's cached dense eigendecomposition (_dense_eig);
    no sweep calls it.
    """
    evals, evecs = _dense_eig(spec)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def check_lindblad_work(spec: ChainSpec, gamma: float, t: float) -> None:
    """Refuse a Lindblad run up to time t whose work bound is not finite or above the limit.

    The refusal is a ResourceLimitError.  The bound is
    2 (sum |J| + sum |B| + gamma N) t >= ||L t||_1: a column of H holds at
    most one hop per bond and one sum of fields, and the dissipator is at
    most 2 gamma N on the diagonal.  It is computed from the chain alone,
    before any matrix is built.  The limit,
    _LINDBLAD_MAX_WORK = 1e7, admits gamma up to about 6e5 on the
    dephasing sweep's N = 5 chain, where each step's Pade takes at most 21
    squarings (_expm); an infinite bound (gamma = 1e308) or a scanned
    transfer time of 6e10 is refused.
    """
    norm = sum(map(abs, spec.couplings)) + sum(map(abs, spec.fields)) + gamma * spec.n_sites
    work = 2.0 * norm * t
    if not work <= _LINDBLAD_MAX_WORK:
        raise ResourceLimitError(
            f"Lindblad work bound ||L||_1 t = {work:.3g} exceeds {_LINDBLAD_MAX_WORK:.0e}"
        )


def lindblad_evolve(rho: DensityMatrix, spec: ChainSpec, gamma: float, times) -> list[DensityMatrix]:
    """Exact solutions of drho/dt = -i[H,rho] - N gamma rho + gamma sum_n Z_n rho Z_n, one per time.

    `times` is a nondecreasing 1-D list of times >= 0, as for
    mode_unitaries; the result holds one DensityMatrix per time.  The map
    rho -> rho(t) is linear, and `rho` may hold any 2^N x 2^N operator,
    not only a density matrix: a traceless, non-Hermitian part of a state
    (the weight-pair blocks chi reads, chi_support) evolves as it would
    inside the whole state.

    On the row-major vec(rho) the Liouvillian is
    L = -i(H (x) I - I (x) H^T) - 2 gamma diag(popcount(i ^ j)): the
    dissipator is diagonal on |i><j|, where sum_n z_n(i) z_n(j) - N counts
    -2 per site that differs.  H conserves the excitation number, so L is
    block-diagonal on the weight pairs (a, b) = (|i|, |j|), a block of
    C(N, a) C(N, b) positions (at most 400 at N = 6).  A block on which rho
    is zero stays exactly zero, and each block rho occupies is evolved on
    its own: its values do not depend on the other blocks rho holds.  A
    block's Hamiltonian part, -i(H_a (x) I - I (x) H_b^T) from the sector
    Hamiltonians, comes from a read-only cache per chain and occupied
    pattern (_lindblad_blocks), and each call subtracts the dissipator.
    e^{L dt} is computed once per block and distinct step dt (only steps
    equal as floats share one), the blocks of one size and their steps
    stacked in a scaling-and-squaring [13/13] Pade (_expm; Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005)) that computes each member alone,
    and each block's vector is stepped through the time differences.  A
    stack holds at most _EXPM_STACK_ENTRIES entries, chunked before it is
    allocated (_step_blocks), so memory does not grow with the number of
    distinct steps.  A step whose generator L dt is negligible
    (_negligible) leaves the block's vector as it is.

    Refuses a size mismatch, N > _DENSITY_MATRIX_MAX_SITES
    (ResourceLimitError), times that are not a 1-D nondecreasing list of
    finite numbers >= 0, a gamma that is negative or not finite, and a run
    whose work bound is not finite or too large (check_lindblad_work), all
    before any block is built.  Runs on numpy alone.
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
    weight = np.bitwise_count(np.arange(dim)).astype(np.int64)
    occupied = np.zeros((n + 1) ** 2, dtype=bool)  # weight pair (a, b) at a (N + 1) + b
    rows, cols = np.nonzero(rho.mat)
    occupied[weight[rows] * (n + 1) + weight[cols]] = True
    flat, out = rho.mat.ravel(), np.zeros((steps.size, dim * dim), dtype=complex)
    blocks = _lindblad_blocks(spec, tuple(np.flatnonzero(occupied).tolist()))
    for keep, flips, hamiltonian in blocks:
        liouvillian = hamiltonian - 2.0 * gamma * flips[..., None] * np.eye(keep.shape[1])
        out[:, keep] = _step_blocks(liouvillian, flat[keep], steps)
    return [DensityMatrix(mat.reshape(dim, dim), n) for mat in out]


def _step_blocks(liouvillian: np.ndarray, vecs: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """(T, m, d): the m blocks' vectors (m, d) after each of the T steps, stepped by e^{L_k dt}.

    A stack of exponentials holds at most _EXPM_STACK_ENTRIES entries: as
    many blocks as fit with all their distinct steps, or else one block
    and windows of as many consecutive steps as fit, a step in two windows
    exponentiated in each.  _expm and np.matmul compute each member alone,
    so a block's values do not depend on the blocks or windows it is
    stepped with.
    """
    m, d = vecs.shape
    fit = max(1, _EXPM_STACK_ENTRIES // (d * d))  # exponentials per stack
    distinct = len(set(steps.tolist()))
    blocks = max(1, min(m, fit // max(1, distinct)))
    window = max(1, steps.size if distinct <= fit else fit)
    out = np.empty((steps.size, m, d), dtype=complex)
    for first in range(0, m, blocks):
        at = slice(first, first + blocks)
        vec = vecs[at]
        for start in range(0, steps.size, window):
            dts, index = np.unique(steps[start:start + window], return_inverse=True)
            expms = liouvillian[at, None] * dts[:, None, None]  # L dt, (blocks, steps, d, d)
            live = ~_negligible(expms, axis=(2, 3))
            expms[live] = _expm(expms[live])  # a negligible L dt, a zero step's, is never applied
            all_live = live.all(axis=0).tolist()
            for t, k in enumerate(index.tolist(), start):
                stepped = np.matmul(expms[:, k], vec[..., None])[..., 0]
                vec = stepped if all_live[k] else np.where(live[:, k, None], stepped, vec)
                out[t, at] = vec
    return out


# [13/13] Pade coefficients b_0..b_13 and the 1-norm up to which that
# approximant is accurate to double precision (Higham 2005, Table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
           40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """e^A for each member of a stack (K, n, n): scaling and squaring with the [13/13] Pade.

    Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005): each member is
    scaled by 2^-s, s the least >= 0 that brings its 1-norm to _THETA13 or
    below, its Pade approximant is one solve of (V - U) X = V + U, and X
    is squared s times.  Scaling by a power of two and multiplying by a
    real coefficient are exact, and numpy runs LAPACK and GEMM per member,
    so a member's result does not depend on its stack.
    """
    b = _PADE13
    norm = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    s = np.ceil(np.log2(np.maximum(norm, np.finfo(float).tiny) / _THETA13)).clip(0).astype(np.int64)
    a = a * np.ldexp(1.0, -s)[:, None, None]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
             + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    x = np.linalg.solve(v - u, v + u)
    for i in range(int(s.max(initial=0))):
        squared = s > i
        x[squared] = x[squared] @ x[squared]
    return x


@lru_cache(maxsize=8)
def _lindblad_blocks(spec: ChainSpec, occupied: tuple[int, ...]) -> tuple:
    """Per block size, (positions (m, d), flips (m, d), Hamiltonian parts (m, d, d)), read-only.

    `occupied` lists weight pairs (a, b) as a (N + 1) + b.  The block of
    (a, b) holds the row-major positions i 2^N + j of i in sector a and j
    in sector b, i-major, popcount(i ^ j) at each, and
    -i(H_a (x) I - I (x) H_b^T) on them, H_a the dense Hamiltonian on
    sector a: the Liouvillian of lindblad_evolve without the dissipator.
    No 4^N x 4^N operator is built.  Kept for the last 8 (chain, pattern):
    a full-rank N = 6 pattern is 13.7 MB, and a dephasing sweep reads one
    per chain for all its gammas.  clear_evolution_cache drops them.
    """
    n, h, groups = spec.n_sites, dense_hamiltonian(spec), {}
    for pair in occupied:
        s_a, s_b = (_sector_table(n, w)[0] for w in divmod(pair, n + 1))
        h_a, h_b = h[np.ix_(s_a, s_a)], h[np.ix_(s_b, s_b)]
        part = -1j * (np.kron(h_a, np.eye(s_b.size)) - np.kron(np.eye(s_a.size), h_b.T))
        positions = ((s_a[:, None] << n) | s_b).ravel()
        flips = np.bitwise_count(s_a[:, None] ^ s_b).ravel()
        groups.setdefault(part.shape[0], []).append((positions, flips, part))
    return tuple(_read_only(*map(np.stack, zip(*blocks))) for blocks in groups.values())


def mirror_mode(n_sites: int, mode: int) -> int:
    """Index of the spatially mirrored fermion mode (within each block of N)."""
    if 1 <= mode <= n_sites:
        return n_sites + 1 - mode
    if n_sites < mode <= 2 * n_sites:
        return 3 * n_sites + 1 - mode
    raise ValueError("mode out of range")


@lru_cache(maxsize=8)
def _mode_gathers(n_sites: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat positions (2N, 2^N), signs (2N, 2^N), phases (2N,)) of Tr(rho c_m), read-only.

    Row m - 1 reads the Majorana mode c_m, a Jordan-Wigner Pauli string
    with c|i> = phase (-1)^|i & z| |i ^ x>, so Tr(rho c_m) is
    phase * sum_i rho[i, i ^ x] (-1)^|i & z|: the flat C-order positions
    i 2^N + (i ^ x) and their signs.  They depend on N alone, so chi
    builds them once per chain length.
    """
    from .freefermion import jordan_wigner

    modes = [jordan_wigner(m, n_sites) for m in range(1, 2 * n_sites + 1)]
    x = np.array([c.x_mask for c in modes], dtype=np.int64)[:, None]
    z = np.array([c.z_mask for c in modes], dtype=np.int64)[:, None]
    idx = np.arange(1 << n_sites, dtype=np.int64)
    at, sign, phase = (idx << n_sites) | (idx ^ x), z_sign(idx & z), np.array([c.phase for c in modes])
    return _read_only(at, sign, phase)


def chi_support(n_sites: int) -> np.ndarray:
    """(2^N, 2^N) mask of the entries chi reads: those (i, j) whose weights differ by one.

    Each mode flips one site (its x mask has one bit), so chi reads
    rho[i, i ^ x] only across weights w(i) - w(j) = +-1, and chi(rho * mask)
    equals chi(rho) exactly for every 2^N x 2^N operator rho and time.  The
    weights are made signed before they are subtracted: np.bitwise_count
    returns uint8, whose difference wraps and would drop the (w - 1, w)
    blocks.
    """
    w = np.bitwise_count(np.arange(1 << n_sites)).astype(np.int64)
    return np.abs(w[:, None] - w[None, :]) == 1


def chi(rhos, spec: ChainSpec, times) -> np.ndarray:
    """(S, 2N) coherences of a stack of S states at their times; entry n - 1 is the mode headed for n.

    rhos is a sequence of S DensityMatrix and times S finite times.  Entry
    (s, n - 1) is Tr(rho_int c_k), k = mirror_mode(N, n) (c_{N+1-n} for
    n <= N), with rho_int the interaction-picture state e^{iHt} rho e^{-iHt};
    equivalently the expectation of the Heisenberg mode
    e^{-iHt} c_k e^{iHt} in rho.  Written this way the unitary dynamics
    drop out exactly, which is what makes the closed-form dephasing decay
    hold for every mode and initial state.

    The chain is quadratic, so the Heisenberg Majorana modes are a real
    rotation of the bare ones by the single-particle unitary
    U = exp(-i H1 t) (mode_unitaries; Christandl et al., PRL 92, 187902
    (2004)): e^{-iHt} c_k e^{iHt} = sum_m O_km c_m with
    O = [[Re U, Im U], [-Im U, Re U]].  So the 2N coherences of a state
    are O times its 2N bare ones Tr(rho c_m), and no 2^N x 2^N unitary is
    built.  Each mode is a Pauli string, c|i> = phase (-1)^|i & z| |i ^ x>,
    so the bare ones are one gather per state (_mode_gathers):
    phase * sum_i rho[i, i ^ x] (-1)^|i & z|.  It reads only the entries of
    rho in chi_support.  Every step is per member of the stack, so a
    state's coherences do not depend on the stack.  Refuses states of
    another size, a count of times other than the count of states, and a
    non-finite time.
    """
    n = spec.n_sites
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(rhos) != times.size:
        raise ValueError("need one time per state")
    if any(rho.n_sites != n for rho in rhos):
        raise ValueError("size mismatch")
    # rows reversed: row n - 1 is the mode headed for position n
    u = mode_unitaries(spec, times)[:, ::-1]
    rotation = np.concatenate([np.concatenate([u.real, u.imag], 2),
                               np.concatenate([-u.imag, u.real], 2)], 1)
    at, sign, phase = _mode_gathers(n)
    # take's (S, 2N, 2^N) result is C-contiguous, so the sum runs alike for every S
    gathered = np.take(np.stack([rho.mat.ravel() for rho in rhos]), at, axis=1)
    bare = phase * np.sum(gathered * sign, axis=2)
    return (rotation @ bare[..., None])[..., 0]


def sample_rng(*words: int, reuse: np.random.Generator | None = None) -> np.random.Generator:
    """Counter-based generator keyed by (seed, counter), each word taken mod 2^64.

    Draws for one key do not depend on any other key, so samples are
    order-independent.  The key is built as a uint64 array: numpy reads a
    Python list holding a word of 2^63 or more through float64, which maps
    every seed in [-1024, -1] to key word 0.

    With `reuse`, a generator this function built, that generator is
    re-keyed in place and returned instead: its Philox state is set to the
    key with counter 0 and an empty buffer, as a new one starts, so it
    draws what sample_rng(*words) would.  A batch of keyed draws then
    builds one generator, not one per key, and draws no OS-entropy
    SeedSequence, which a new generator builds before the key replaces it.
    """
    key = np.array([int(w) & (2**64 - 1) for w in words], dtype=np.uint64)
    if reuse is None:
        return np.random.Generator(np.random.Philox(key=key))
    if key.size != 2:  # as Philox(key=) refuses it
        raise ValueError("key must have 2 elements when using array form")
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return reuse


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
