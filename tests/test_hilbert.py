import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from chainqec.chain import ChainSpec, analyze_transfer, pst_couplings
from chainqec.errors import ResourceLimitError
from chainqec.hilbert import (
    DensityMatrix,
    StateVector,
    _sorted_unique,
    apply_mode_unitary,
    apply_pauli,
    basis_state,
    chi,
    chi_support,
    clear_evolution_cache,
    dense_hamiltonian,
    dense_unitary,
    evolve,
    fidelity,
    from_density,
    lindblad_evolve,
    mode_unitaries,
    state_from_text,
    state_to_text,
    trajectory_sample,
)
from chainqec.pauli import from_sites, pauli_x, pauli_y, pauli_z


def random_state(rng, n):
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(v / np.linalg.norm(v), n)


def random_chain(rng, n, with_fields=False):
    js = tuple(rng.uniform(0.3, 1.4, n - 1))
    bs = tuple(rng.uniform(-0.8, 0.8, n)) if with_fields else (0.0,) * n
    return ChainSpec(n, js, bs)


# --- apply_pauli -----------------------------------------------------------


def test_apply_pauli_examples():
    psi = basis_state(3)  # |000>
    out = apply_pauli(psi, pauli_x(3, 1))
    assert out.amps[0b100] == 1.0
    out = apply_pauli(out, pauli_z(3, 1))
    assert out.amps[0b100] == -1.0
    out = apply_pauli(basis_state(1), pauli_y(1, 1))
    assert out.amps[1] == 1j


def test_apply_pauli_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        psi = random_state(rng, n)
        p = from_sites(
            n,
            xs=[s for s in range(1, n + 1) if rng.random() < 0.3],
            zs=[s for s in range(1, n + 1) if rng.random() < 0.3],
        )
        np.testing.assert_allclose(
            apply_pauli(psi, p).amps, p.dense() @ psi.amps, atol=1e-12
        )


def test_apply_pauli_size_mismatch():
    with pytest.raises(ValueError):
        apply_pauli(basis_state(2), pauli_x(3, 1))


# --- fidelity --------------------------------------------------------------


def test_fidelity_values():
    psi = basis_state(2, [1])
    assert fidelity(psi, psi) == pytest.approx(1.0)
    assert fidelity(psi, basis_state(2, [2])) == pytest.approx(0.0)
    plus = StateVector(np.array([1, 1]) / np.sqrt(2), 1)
    assert fidelity(basis_state(1), plus) == pytest.approx(0.5)


# --- evolve ----------------------------------------------------------------


def test_evolve_identity_at_zero_time():
    rng = np.random.default_rng(3)
    psi = random_state(rng, 4)
    out = evolve(psi, random_chain(rng, 4), 0.0)
    np.testing.assert_allclose(out.amps, psi.amps, atol=1e-14)


def test_evolve_matches_dense_unitary():
    rng = np.random.default_rng(4)
    for with_fields in (False, True):
        for _ in range(6):
            n = int(rng.integers(2, 6))
            spec = random_chain(rng, n, with_fields)
            psi = random_state(rng, n)
            t = float(rng.uniform(-2, 2))
            expected = dense_unitary(spec, t) @ psi.amps
            np.testing.assert_allclose(evolve(psi, spec, t).amps, expected, atol=1e-10)
            np.testing.assert_allclose(
                apply_mode_unitary(psi, mode_unitaries(spec, [t])[0]).amps, expected, atol=1e-9
            )


def test_evolve_two_site_rabi():
    spec = ChainSpec(2, (1.0,), (0.0, 0.0))
    psi = basis_state(2, [1])  # |10>
    for t in (0.3, 1.2):
        out = evolve(psi, spec, t)
        np.testing.assert_allclose(out.amps[0b10], np.cos(t), atol=1e-12)
        np.testing.assert_allclose(out.amps[0b01], -1j * np.sin(t), atol=1e-12)


def test_evolve_perfect_transfer_with_phase():
    for n in (5, 8):
        spec = pst_couplings(n)
        out = evolve(basis_state(n, [1]), spec, np.pi / 2)
        amp_end = out.amps[1]
        assert abs(amp_end) ** 2 >= 1 - 1e-10
        np.testing.assert_allclose(amp_end, (-1j) ** (n - 1), atol=1e-9)


def test_evolve_preserves_norm_and_sectors():
    rng = np.random.default_rng(5)
    spec = random_chain(rng, 5)
    psi = random_state(rng, 5)
    out = evolve(psi, spec, 1.7)
    assert abs(out.norm() - 1) < 1e-12
    idx = np.arange(32)
    for w in range(6):
        sel = np.bitwise_count(idx) == w
        np.testing.assert_allclose(
            np.sum(np.abs(out.amps[sel]) ** 2),
            np.sum(np.abs(psi.amps[sel]) ** 2),
            atol=1e-12,
        )


def test_evolve_composes():
    rng = np.random.default_rng(6)
    spec = random_chain(rng, 4, with_fields=True)
    psi = random_state(rng, 4)
    a = evolve(evolve(psi, spec, 0.4), spec, 0.9)
    b = evolve(psi, spec, 1.3)
    np.testing.assert_allclose(a.amps, b.amps, atol=1e-10)


def test_evolve_cache_complement_consistency():
    # the weight-4 sector of a 6-site zero-field chain
    rng = np.random.default_rng(8)
    spec = random_chain(rng, 6)
    amps = np.zeros(64, dtype=complex)
    idx = np.arange(64)
    four = idx[np.bitwise_count(idx) == 4]
    vals = rng.standard_normal(four.size) + 1j * rng.standard_normal(four.size)
    amps[four] = vals / np.linalg.norm(vals)
    psi = StateVector(amps, 6)
    expected = dense_unitary(spec, 0.9) @ psi.amps
    np.testing.assert_allclose(evolve(psi, spec, 0.9).amps, expected, atol=1e-10)


def test_expm_evolve_leaves_global_rng_alone(chain15, plus_logical15):
    # scipy's expm_multiply estimates norms with onenormest, which draws np.random
    np.random.seed(0)
    want = np.random.random()
    np.random.seed(0)
    evolve(plus_logical15, chain15, 1.234)
    assert np.random.random() == want


# --- dense Hamiltonian / lindblad / chi -------------------------------------


def test_dense_hamiltonian_single_excitation_block():
    from chainqec.chain import single_excitation_matrix

    rng = np.random.default_rng(12)
    spec = random_chain(rng, 5, with_fields=True)
    h = dense_hamiltonian(spec)
    basis = [1 << (5 - n) for n in range(1, 6)]
    block = np.array([[h[a, b] for b in basis] for a in basis])
    np.testing.assert_allclose(block, single_excitation_matrix(spec), atol=1e-12)


def test_dense_hamiltonian_guard():
    with pytest.raises(ResourceLimitError):
        dense_hamiltonian(pst_couplings(13))


def test_lindblad_gamma_zero_is_unitary():
    rng = np.random.default_rng(13)
    spec = random_chain(rng, 3)
    psi = random_state(rng, 3)
    (rho,) = lindblad_evolve(from_density(psi), spec, 0.0, [0.8])
    expected = from_density(evolve(psi, spec, 0.8)).mat
    np.testing.assert_allclose(rho.mat, expected, atol=1e-8)


def test_lindblad_single_qubit_dephasing():
    # H = 0: off-diagonal of |+><+| decays as e^{-2 gamma t}
    spec = ChainSpec(2, (0.0,), (0.0, 0.0))
    plus = StateVector(np.array([1, 0, 1, 0]) / np.sqrt(2), 2)  # qubit1 |+>, qubit2 |0>
    gamma, t = 0.3, 0.7
    (rho,) = lindblad_evolve(from_density(plus), spec, gamma, [t])
    np.testing.assert_allclose(rho.mat[0, 2], 0.5 * np.exp(-2 * gamma * t), atol=1e-9)
    rho.validate(tol=1e-8)


def test_lindblad_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(14)
    spec = random_chain(rng, 4, with_fields=True)
    (rho,) = lindblad_evolve(from_density(random_state(rng, 4)), spec, 0.12, [1.1])
    assert abs(np.trace(rho.mat) - 1) < 1e-8
    assert np.abs(rho.mat - rho.mat.conj().T).max() < 1e-8


def _unbuilt(spec):
    pytest.fail("Hamiltonian built before the guard")


def test_lindblad_guard(monkeypatch):
    # the refusal fires before the Hamiltonian or the Liouvillian is built
    monkeypatch.setattr("chainqec.hilbert.dense_hamiltonian", _unbuilt)
    spec = pst_couplings(9)
    rho = DensityMatrix(np.eye(512) / 512, 9)
    with pytest.raises(ResourceLimitError):
        lindblad_evolve(rho, spec, 0.1, [0.1])


@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_exact_oracles_at_a_subnormal_time_return_the_state_without_warning(gamma):
    # expm_multiply took zero steps there and warned of a 0 / 0
    spec = pst_couplings(2)
    psi = StateVector(np.full(4, 0.5), 2)
    rho = from_density(psi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (5e-324, 1e-323, 1e-321):
            np.testing.assert_array_equal(lindblad_evolve(rho, spec, gamma, [t])[0].mat, rho.mat)
            np.testing.assert_array_equal(evolve(psi, spec, t).amps, psi.amps)


def test_lindblad_rejects_non_finite_and_negative(monkeypatch):
    monkeypatch.setattr("chainqec.hilbert.dense_hamiltonian", _unbuilt)
    spec = pst_couplings(3)
    rho = from_density(basis_state(3, [1]))
    for gamma, t in ((np.nan, 1.0), (np.inf, 1.0), (0.1, np.nan), (0.1, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            lindblad_evolve(rho, spec, gamma, [t])
    with pytest.raises(ValueError, match="gamma"):
        lindblad_evolve(rho, spec, -0.1, [1.0])
    for times in ([-1.0], [0.5, 0.2]):  # negative, then decreasing
        with pytest.raises(ValueError, match="t must"):
            lindblad_evolve(rho, spec, 0.1, times)
    with pytest.raises(ValueError, match="1-D"):
        lindblad_evolve(rho, spec, 0.1, 1.0)


def test_lindblad_times_list_steps_through_the_differences():
    rng = np.random.default_rng(18)
    spec = random_chain(rng, 3, with_fields=True)
    rho = from_density(random_state(rng, 3))
    first, second, again = lindblad_evolve(rho, spec, 0.2, [0.4, 1.3, 1.3])
    (alone,) = lindblad_evolve(rho, spec, 0.2, [1.3])
    np.testing.assert_allclose(second.mat, alone.mat, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(again.mat, second.mat)  # a repeated time is a zero step
    np.testing.assert_allclose(first.mat, lindblad_evolve(rho, spec, 0.2, [0.4])[0].mat, atol=1e-12)
    assert lindblad_evolve(rho, spec, 0.2, []) == []


def _full_rank(rng, n):
    g = rng.standard_normal((1 << n, 1 << n)) + 1j * rng.standard_normal((1 << n, 1 << n))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho), n)


def test_lindblad_leaves_global_rng_alone():
    # full rank on N = 4 occupies every weight-pair block, at gamma = 100
    # where ||L t||_1 is large; the Pade draws nothing, so the caller's
    # np.random stream is where it was
    rho = _full_rank(np.random.default_rng(21), 4)
    np.random.seed(0)
    want = np.random.random()
    np.random.seed(0)
    lindblad_evolve(rho, pst_couplings(4), 100.0, [1.0])
    assert np.random.random() == want


def _plus_last(n):
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[1] = 1 / np.sqrt(2)  # |0...0+>: the dephasing sweep's start
    return from_density(StateVector(amps, n))


def _with_diagonal(part, flips, gamma):
    """A stack of blocks' Liouvillians: Hamiltonian parts minus 2 gamma flips on the diagonal."""
    liouvillian = part.copy()
    diagonal = np.arange(part.shape[-1])
    liouvillian[..., diagonal, diagonal] -= 2.0 * gamma * flips
    return liouvillian


def test_lindblad_hamiltonian_part_is_cached_read_only_and_bit_identical():
    # each occupied weight-pair block's -i(H_a (x) I - I (x) H_b^T) is built
    # once per (chain, occupied pattern) and only the dissipator is added per
    # gamma: a gamma after another on the same chain gives the bits of a
    # cold-cache run, and those of one _expm per block and step (scipy's
    # expm, its oracle, to roundoff)
    from chainqec import hilbert

    n, gamma = 5, 0.3
    spec = random_chain(np.random.default_rng(31), n, with_fields=True)
    rho = _plus_last(n)
    times = [0.2, 0.2, 0.7, 1.3, 1.3, 1.9]
    clear_evolution_cache()
    cold = [r.mat.tobytes() for r in lindblad_evolve(rho, spec, gamma, times)]
    lindblad_evolve(rho, spec, 0.05, times)
    hits = hilbert._lindblad_blocks.cache_info().hits
    warm = [r.mat.tobytes() for r in lindblad_evolve(rho, spec, gamma, times)]
    assert hilbert._lindblad_blocks.cache_info().hits == hits + 1
    assert warm == cold

    # |0...0+> occupies the weight pairs (0, 0), (0, 1), (1, 0) and (1, 1),
    # keyed a (N + 1) + b: 36 positions in blocks of 1, 5, 5 and 25
    groups = hilbert._lindblad_blocks(spec, (0, 1, n + 1, n + 2))
    assert sorted(keep.shape for keep, _, _ in groups) == [(1, 1), (1, 25), (2, 5)]
    cold = np.array([np.frombuffer(c, dtype=complex) for c in cold])
    for keep, flips, part in groups:
        for block, liouvillian in zip(keep, _with_diagonal(part, flips, gamma)):
            vec = oracle = rho.mat.ravel()[block]
            for dt, got in zip(np.diff(times, prepend=0.0), cold[:, block]):
                # a zero step, or any step of the (0, 0) block, whose L is 0, is negligible
                if not hilbert._negligible(liouvillian * dt):
                    vec = hilbert._expm((liouvillian * dt)[None])[0] @ vec
                    oracle = scipy.linalg.expm(liouvillian * dt) @ oracle
                assert got.tobytes() == vec.tobytes()
                np.testing.assert_allclose(vec, oracle, rtol=0, atol=1e-15)

    for array in (a for group in groups for a in group):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        groups[0][2][0, 0, 0] = 0
    clear_evolution_cache()
    assert hilbert._lindblad_blocks.cache_info().currsize == 0


@pytest.mark.parametrize("n", [3, 4])
def test_lindblad_evolves_each_block_on_its_own(n):
    # rho masked to one weight-pair block evolves to the bits that block
    # has inside the whole rho: no block's values depend on the others
    rng = np.random.default_rng(40 + n)
    spec = random_chain(rng, n, with_fields=True)
    rho = _full_rank(rng, n).mat
    weight = np.bitwise_count(np.arange(1 << n))
    times = [0.3, 0.3, 1.1, 1.7]
    whole = lindblad_evolve(DensityMatrix(rho, n), spec, 0.2, times)
    for a in range(n + 1):
        for b in range(n + 1):
            mask = (weight[:, None] == a) & (weight[None, :] == b)
            alone = lindblad_evolve(DensityMatrix(rho * mask, n), spec, 0.2, times)
            for w, one in zip(whole, alone):
                assert one.mat[mask].tobytes() == w.mat[mask].tobytes()
                assert not one.mat[~mask].any()


def _kronecker_sum_oracle(rho: DensityMatrix, spec, gamma, times):
    """rho at each time from one sparse Kronecker-sum Liouvillian on rho's weight-pair blocks.

    Per occupied weight pair (a, b): -i(H_a (x) I - I (x) H_b^T) from
    scipy's sparse sector Hamiltonians, minus 2 gamma popcount(i ^ j) on the
    diagonal, all blocks in one block-diagonal matrix stepped by scipy's
    expm_multiply.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply

    from chainqec.hilbert import sector_indices, sector_sparse

    n, dim = rho.n_sites, 1 << rho.n_sites
    weight = np.bitwise_count(np.arange(dim))
    rows, cols = np.nonzero(rho.mat)
    keep, blocks = [], []
    for a, b in sorted(set(zip(weight[rows].tolist(), weight[cols].tolist()))):
        s_a, s_b = sector_indices(n, a), sector_indices(n, b)
        h_a, h_b = sector_sparse(spec, a), sector_sparse(spec, b)
        hamiltonian = sp.kron(h_a, sp.identity(s_b.size)) - sp.kron(sp.identity(s_a.size), h_b.T)
        flips = np.bitwise_count(s_a[:, None] ^ s_b).ravel()
        blocks.append(-1j * hamiltonian - sp.diags(2.0 * gamma * flips))
        keep.append(((s_a[:, None] << n) | s_b).ravel())
    keep, liouvillian = np.concatenate(keep), sp.block_diag(blocks, format="csr")
    vec, out = rho.mat.ravel()[keep], []
    for dt in np.diff(times, prepend=0.0):
        if dt:
            vec = expm_multiply(liouvillian * dt, vec)
        full = np.zeros(dim * dim, dtype=complex)
        full[keep] = vec
        out.append(full.reshape(dim, dim))
    return out


@pytest.mark.parametrize("n, sectors", [(5, None), (6, (2, 3, 4))])
def test_lindblad_matches_a_sparse_kronecker_sum_oracle(n, sectors):
    # full rank on N = 5 (blocks up to 100 positions), and a pure state on
    # N = 6's middle sectors (blocks of 225 to 400 positions)
    rng = np.random.default_rng(70 + n)
    spec = random_chain(rng, n, with_fields=True)
    if sectors is None:
        rho = _full_rank(rng, n)
    else:
        inside = np.isin(np.bitwise_count(np.arange(1 << n)), sectors)
        psi = (rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)) * inside
        rho = from_density(StateVector(psi / np.linalg.norm(psi), n))
    times = [0.5, 0.5, 1.0] if sectors else [0.25, 0.5, 0.5, 1.5]
    got = lindblad_evolve(rho, spec, 0.3, times)
    for g, want in zip(got, _kronecker_sum_oracle(rho, spec, 0.3, times)):
        np.testing.assert_allclose(g.mat, want, rtol=0, atol=1e-12)


def test_lindblad_site_limit_fires_before_anything_is_built(monkeypatch):
    # N = 7's middle blocks hold 1225 and 4900 positions: refused before the
    # Hamiltonian or a block is built
    from chainqec import hilbert

    for name in ("dense_hamiltonian", "_lindblad_blocks"):
        monkeypatch.setattr(hilbert, name, lambda *args: pytest.fail("built before the limit"))
    rho = DensityMatrix(np.eye(128) / 128, 7)
    with pytest.raises(ResourceLimitError, match="N <= 6"):
        lindblad_evolve(rho, pst_couplings(7), 0.1, [0.1])


def test_lindblad_stacks_of_exponentials_are_bounded(monkeypatch):
    # a full-rank rho on N = 6 over 120 distinct steps: every (block, step)
    # exponential at once would be 120 x 853776 entries (1.6 GB); each stack
    # is chunked to _EXPM_STACK_ENTRIES before it is allocated.  The Pade is
    # replaced by a stand-in that allocates its result as _expm does, so the
    # traced peak is the engine's own (the real Pade would run for tens of
    # seconds here); the real _expm's own peak on one full stack is bounded
    # below, and the real call peaks at most near the sum of the two bounds
    import tracemalloc

    from chainqec import hilbert

    stacks = []

    def expm(a):
        stacks.append(a.size)
        return np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape).copy()

    rng = np.random.default_rng(90)
    spec = random_chain(rng, 6, with_fields=True)
    rho = _full_rank(rng, 6)
    times = np.cumsum(rng.uniform(0.01, 0.02, 120))
    assert _sorted_unique(np.diff(times, prepend=0.0)).size == 120
    clear_evolution_cache()
    with monkeypatch.context() as m:
        m.setattr(hilbert, "_expm", expm)
        tracemalloc.start()
        try:
            lindblad_evolve(rho, spec, 0.1, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    clear_evolution_cache()
    assert max(stacks) <= hilbert._EXPM_STACK_ENTRIES
    assert peak < 48 * 2**20  # 38 MiB measured

    largest = rng.normal(size=(1, 400, 400)) * 1j
    tracemalloc.start()
    try:
        hilbert._expm(largest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 16 * hilbert._EXPM_STACK_ENTRIES


@pytest.mark.parametrize("seed", range(6))
def test_fixed_order_table_is_scipys_product_on_random_tables(seed):
    # random shapes and entry counts, empty columns, repeated (row, column)
    # entries, real or complex values: x @ table equals scipy's CSC product
    # of the same stored entries bit for bit, for 1-D x and any stack size,
    # and a real x times real values is summed in real arithmetic, as scipy's
    # real product is
    import scipy.sparse as sp

    from chainqec.hilbert import FixedOrderTable

    rng = np.random.default_rng(seed)
    n_in, n_out, nnz = (int(k) for k in rng.integers(1, 30, 3))
    row, col = rng.integers(0, n_in, nnz), rng.integers(0, n_out, nnz)
    value = rng.normal(size=nnz) + (1j * rng.normal(size=nnz) if seed % 2 else 0)
    table = FixedOrderTable(row, col, value, (n_in, n_out))
    # the same entries in the same stored order: stable by column
    order = np.argsort(col, kind="stable")
    indptr = np.searchsorted(col[order], np.arange(n_out + 1))
    want = sp.csc_array((value[order], row[order], indptr), shape=(n_in, n_out))
    np.testing.assert_array_equal(table.toarray(), want.toarray())
    assert table.nnz == nnz
    for s in (1, 3, 16):
        x = rng.normal(size=(s, n_in)) + 1j * rng.normal(size=(s, n_in))
        got = x @ table
        assert got.tobytes() == (want.T @ np.ascontiguousarray(x.T)).T.tobytes()
        assert (x[0] @ table).tobytes() == got[0].tobytes()
        real = x.real.copy()
        got = real @ table
        assert got.dtype == (float if seed % 2 == 0 else complex)
        assert got.tobytes() == (want.T @ np.ascontiguousarray(real.T)).T.tobytes()
        assert (real[0] @ table).tobytes() == got[0].tobytes()


def test_sorted_unique_is_numpys_unique():
    # np.unique(a) alone imports numpy.ma; its replacement gives the same values
    rng = np.random.default_rng(12)
    cases = [
        np.empty(0, dtype=np.int64),
        np.array([7]),
        rng.integers(-5, 5, 40),
        rng.integers(0, 2**40, (6, 7)),  # flattened, as np.unique flattens
        np.bitwise_count(rng.integers(0, 2**15, 300)),  # uint8
        np.round(rng.uniform(0.0, 1.0, 50), 1),
        np.array([0.0, -0.0, 0.5, 0.0]),
    ]
    for a in cases:
        got, want = _sorted_unique(a), np.unique(a)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    a = rng.integers(0, 9, 20)
    before = a.copy()
    _sorted_unique(a)
    assert np.array_equal(a, before)  # the input is not sorted in place


def test_mode_unitaries_reuse_one_eigendecomposition_per_chain():
    # a dephasing sweep and every exact single-Z chunk call mode_unitaries on
    # one chain: H1's eigh runs once per chain, is held read-only, and the
    # unitaries keep the bits of a fresh eigh
    from chainqec import hilbert
    from chainqec.chain import _u_of_t, single_excitation_matrix
    from chainqec.harness import exp_dephasing

    spec = random_chain(np.random.default_rng(33), 6, with_fields=True)
    times = [0.0, 0.4, 1.7]
    clear_evolution_cache()
    first = mode_unitaries(spec, times)
    assert mode_unitaries(spec, times).tobytes() == first.tobytes()
    assert hilbert._h1_eigh.cache_info()[:2] == (1, 1)  # hits, misses
    evals, evecs = np.linalg.eigh(single_excitation_matrix(spec))
    assert _u_of_t(evals, evecs, np.array(times)[:, None]).tobytes() == first.tobytes()
    assert not any(a.flags.writeable for a in hilbert._h1_eigh(spec))
    clear_evolution_cache()
    assert hilbert._h1_eigh.cache_info().currsize == 0
    exp_dephasing(pst_couplings(5), (0.01, 0.1))  # three chi calls, one eigh
    assert hilbert._h1_eigh.cache_info().misses == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pade_matches_scipy_expm_on_the_dephasing_sweeps_generators(n):
    # the Lindblad steps exponentiate with numpy's [13/13] Pade; on every
    # generator a dephasing sweep builds (the chi support of |0...0+>, the
    # weight pairs (0, 1) and (1, 0) of N positions each, and the sweep's
    # eight times) it agrees with scipy's expm, its oracle, to 1e-15, and a
    # member alone equals its stack
    from chainqec import hilbert

    spec = pst_couplings(n)
    times = np.linspace(0.0, analyze_transfer(spec).transfer_time, 9)[1:]
    ((keep, flips, part),) = hilbert._lindblad_blocks(spec, (1, n + 1))
    assert keep.shape == (2, n)
    dts = np.unique(np.diff(times, prepend=0.0))
    for gamma in (0.0, 0.01, 0.1, 1.0, 1e2, 1e4, 1e5):
        generators = (_with_diagonal(part, flips, gamma)[:, None] * dts[:, None, None]).reshape(-1, n, n)
        got = hilbert._expm(generators)
        np.testing.assert_allclose(got, scipy.linalg.expm(generators), rtol=0, atol=1e-15)
        for k in range(len(generators)):
            assert hilbert._expm(generators[k:k + 1])[0].tobytes() == got[k].tobytes()


def test_pade_matches_scipy_expm_on_random_dissipative_generators():
    # G = -iA - D, A Hermitian and D >= 0 diagonal, dimension 2 to 100 and
    # ||G||_1 from 1e-3 to 1e3: relative agreement 1e-14 up to ||G||_1 = 100
    # (measured at most 3.9e-15) and 1e-16 ||G||_1 above it, the relative
    # condition of e^G there (measured at most 0.45 of that bound, 1.8e-14
    # at ||G||_1 = 399; scipy itself is off a 60-digit reference by ~1e-14)
    from chainqec import hilbert

    rng = np.random.default_rng(68)
    for _ in range(200):
        d = int(rng.integers(2, 101))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        g = -0.5j * (a + a.conj().T) - np.diag(rng.uniform(0.0, 1.0, d))
        norm = 10 ** rng.uniform(-3, 3)
        g *= norm / np.abs(g).sum(axis=0).max()
        got, want = hilbert._expm(g[None])[0], scipy.linalg.expm(g)
        assert np.linalg.norm(got - want) <= 1e-16 * max(100.0, norm) * np.linalg.norm(want)


def test_dephasing_sweep_at_large_gamma_stays_at_roundoff():
    # ||L dt|| up to about 1e5: the Pade's scaling and squaring
    from chainqec.harness import exp_dephasing

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        devs = exp_dephasing(pst_couplings(5), (1e4, 1e5)).max_deviation
    assert np.all(np.isfinite(devs)) and max(devs) <= 1e-12


@pytest.mark.parametrize(
    "gamma, scale",
    [
        (1e308, 1.0),  # 2 gamma N overflows; inf * 0 once gave NaN inside expm_multiply
        (1e300, 1.0),  # onenormest divided inf by inf (a RuntimeWarning)
        (0.05, 1e-300),  # a slow chain: T = pi / (2 scale) is about 1.6e300
    ],
)
def test_lindblad_work_guard_refuses_before_building(monkeypatch, gamma, scale):
    monkeypatch.setattr("chainqec.hilbert.dense_hamiltonian", _unbuilt)
    spec = pst_couplings(5, scale=scale)
    # pst_couplings transfers at pi / (2 scale); analyze_transfer refuses to
    # scan the 1e-300 chain's spectrum (spread 8e-300)
    t = np.pi / (2 * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResourceLimitError, match="work bound"):
            lindblad_evolve(_plus_last(5), spec, gamma, [t / 2, t])


def test_lindblad_work_guard_admits_the_measured_side():
    # gamma = 1e4 on the dephasing sweep's chain: a bound of 1.6e5, well
    # under the limit; the sweep keeps 10 positions, so it takes the dense
    # path and runs in about 0.25 ms a gamma (one BLAS thread, 2-core Xeon)
    from chainqec.hilbert import check_lindblad_work

    check_lindblad_work(pst_couplings(5), 1e4, np.pi / 2)
    with pytest.raises(ResourceLimitError):
        check_lindblad_work(pst_couplings(5), 1e4 * 100, np.pi / 2)
    with pytest.raises(ResourceLimitError):
        check_lindblad_work(pst_couplings(5), 1e308, 0.0)  # the bound itself is infinite


_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0 + 0j, -1.0]),
}


def _on_sites(n, ops):
    """Dense product of single-qubit Paulis {site: label}; qubit 1 is the most significant."""
    out = np.eye(1)
    for site in range(1, n + 1):
        out = np.kron(out, _PAULI[ops[site]] if site in ops else np.eye(2))
    return out


def _drawn_chain_and_superoperator(n, data, gamma):
    """A drawn chain, and its row-major superoperator from Pauli-built H and jump terms."""
    js = data.draw(st.lists(st.floats(-1.5, 1.5), min_size=n - 1, max_size=n - 1))
    bs = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    dim = 1 << n
    eye = np.eye(dim)
    h = sum(
        js[k - 1] * (_on_sites(n, {k: "X", k + 1: "X"}) + _on_sites(n, {k: "Y", k + 1: "Y"})) / 2
        for k in range(1, n)
    ) + sum(bs[k - 1] * (eye - _on_sites(n, {k: "Z"})) / 2 for k in range(1, n + 1))
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T)) + gamma * sum(
        np.kron(_on_sites(n, {k: "Z"}), _on_sites(n, {k: "Z"})) - np.eye(dim * dim)
        for k in range(1, n + 1)
    )
    return ChainSpec(n, tuple(js), tuple(bs)), sup


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 4),
    data=st.data(),
    gamma=st.floats(0.0, 0.5),
    t=st.floats(0.0, 2.0),
)
def test_lindblad_matches_pauli_built_superoperator(n, data, gamma, t):
    # independent oracle: H and the jump terms from Pauli products, the
    # row-major superoperator from them, dense Pade expm; a full-rank rho
    # keeps every weight-pair block
    spec, sup = _drawn_chain_and_superoperator(n, data, gamma)
    dim = 1 << n
    rho0 = _full_rank(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n).mat
    want = (scipy.linalg.expm(sup * t) @ rho0.ravel()).reshape(dim, dim)
    (got,) = lindblad_evolve(DensityMatrix(rho0, n), spec, gamma, [t])
    np.testing.assert_allclose(got.mat, want, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 4),
    data=st.data(),
    gamma=st.floats(0.0, 0.5),
    t=st.floats(0.0, 2.0),
)
def test_lindblad_on_occupied_sectors_matches_superoperator(n, data, gamma, t):
    # a pure state on a few excitation sectors keeps only their weight-pair
    # blocks: the kept ones match the dense oracle, the dropped ones stay 0.
    # lindblad_evolve is linear and takes any operator, so the third input is
    # traceless and non-Hermitian: the blocks chi reads, as exp_dephasing
    # evolves them
    spec, sup = _drawn_chain_and_superoperator(n, data, gamma)
    dim = 1 << n
    weight = np.bitwise_count(np.arange(dim))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    case = data.draw(st.sampled_from(["plus", "sectors", "coherences"]))
    if case == "coherences":
        kept = chi_support(n)
        rho0 = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) * kept
        assert np.trace(rho0) == 0 and np.abs(rho0 - rho0.conj().T).max() > 0.1
    else:
        if case == "plus":
            sectors = {0, 1}
            psi = np.zeros(dim, dtype=complex)
            psi[0] = psi[1] = 1 / np.sqrt(2)  # |0...0+>
        else:
            sectors = data.draw(st.sets(st.integers(0, n), min_size=1, max_size=n))
            psi = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) * np.isin(weight, list(sectors))
            psi /= np.linalg.norm(psi)
        rho0 = np.outer(psi, psi.conj())
        inside = np.isin(weight, list(sectors))
        kept = np.outer(inside, inside)
    want = (scipy.linalg.expm(sup * t) @ rho0.ravel()).reshape(dim, dim)
    (got,) = lindblad_evolve(DensityMatrix(rho0, n), spec, gamma, [t])
    np.testing.assert_allclose(got.mat, want, rtol=0, atol=1e-12)
    assert (~kept).any()
    assert np.all(got.mat[~kept] == 0)


@pytest.mark.parametrize("n", [3, 4])
def test_lindblad_commutes_with_the_chi_support_projection(n):
    # L keeps every weight-pair block apart, so projecting before or after
    # the evolution agrees, on N = 3 and on N = 4 (blocks of up to 36 positions)
    rng = np.random.default_rng(50 + n)
    spec = random_chain(rng, n, with_fields=True)
    dim, mask = 1 << n, chi_support(n)
    op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    times = [0.3, 1.1]
    whole = lindblad_evolve(DensityMatrix(op, n), spec, 0.2, times)
    part = lindblad_evolve(DensityMatrix(op * mask, n), spec, 0.2, times)
    for a, b in zip(whole, part):
        np.testing.assert_allclose(b.mat, a.mat * mask, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_chi_support_keeps_both_blocks_one_weight_apart(n):
    # np.bitwise_count is uint8: an unsigned w(i) - w(j) wraps, and |.| == 1
    # would then keep (w, w - 1) but drop (w - 1, w)
    weight = [bin(i).count("1") for i in range(1 << n)]
    want = np.array([[abs(a - b) == 1 for b in weight] for a in weight])
    mask = chi_support(n)
    assert mask.dtype == bool
    np.testing.assert_array_equal(mask, want)
    assert np.array_equal(mask, mask.T)


@pytest.mark.parametrize("n", [3, 4])
def test_chi_reads_only_its_support(n):
    # every bare coherence is a gather inside the support, so the parts
    # inside and outside it give exactly the whole and exactly 0
    rng = np.random.default_rng(60 + n)
    spec = random_chain(rng, n, with_fields=True)
    dim, mask = 1 << n, chi_support(n)
    times = [0.0, 0.8]
    for _ in range(3):
        op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        whole = chi([DensityMatrix(op, n)] * 2, spec, times)
        np.testing.assert_array_equal(chi([DensityMatrix(op * mask, n)] * 2, spec, times), whole)
        np.testing.assert_array_equal(chi([DensityMatrix(op * ~mask, n)] * 2, spec, times), 0.0)


def test_chi_initial_values():
    n = 4
    spec = pst_couplings(n)
    # qubit N in |+>, rest |0>: the site-N mode pair has unit coherence
    amps = np.zeros(1 << n, dtype=complex)
    amps[0b0000] = amps[0b0001] = 1 / np.sqrt(2)
    rho = from_density(StateVector(amps, n))
    assert chi([rho], spec, [0.0])[0, 0] == pytest.approx(1.0)  # mode c_N via mirror
    mixed = DensityMatrix(np.eye(1 << n) / (1 << n), n)
    assert np.abs(chi([mixed], spec, [0.4])).max() < 1e-12


def test_chi_plus_on_first_site():
    n = 3
    spec = pst_couplings(n)
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = amps[0b100] = 1 / np.sqrt(2)  # qubit 1 in |+>
    rho = from_density(StateVector(amps, n))
    assert chi([rho], spec, [0.0])[0, n - 1] == pytest.approx(1.0)  # n=N picks mode c_1 = X_1


def test_chi_matches_dense_trace_on_chains_with_fields():
    # the single-particle rotation against Tr(rho_int c), rho_int conjugated
    # by the dense unitary and c the dense Jordan-Wigner matrix.  Both sides
    # round differently, so the bound is roundoff: 8.3e-16 was the worst
    # measured for unit-trace rho on 100 such chains (20 per N = 2 to 6)
    from chainqec.freefermion import jordan_wigner
    from chainqec.hilbert import mirror_mode

    rng = np.random.default_rng(41)
    times = [0.0, 0.7, 3.1]
    for n in range(2, 7):
        modes = [jordan_wigner(mirror_mode(n, mode), n).dense() for mode in range(1, 2 * n + 1)]
        for _ in range(2):
            spec = random_chain(rng, n, with_fields=True)
            rho = _full_rank(rng, n)
            got = chi([rho] * len(times), spec, times)
            assert got.shape == (len(times), 2 * n)
            for t, row in zip(times, got):
                u = dense_unitary(spec, t)
                rho_int = u.conj().T @ rho.mat @ u
                want = [np.trace(rho_int @ c) for c in modes]
                assert np.abs(row - want).max() <= 1e-14
                # a member of the stack is the one-member call, bit for bit
                np.testing.assert_array_equal(chi([rho], spec, [t])[0], row)


def test_chi_refuses_mismatched_stacks():
    spec = pst_couplings(3)
    rho = from_density(basis_state(3, [1]))
    with pytest.raises(ValueError, match="one time per state"):
        chi([rho, rho], spec, [0.1])
    with pytest.raises(ValueError, match="one time per state"):
        chi([rho], spec, 0.1)
    with pytest.raises(ValueError, match="size mismatch"):
        chi([from_density(basis_state(4, [1]))], spec, [0.1])
    with pytest.raises(ValueError, match="finite"):
        chi([rho], spec, [np.nan])


def test_chi_dephasing_decay_small_chain():
    # full cross-check of the closed form on N=4
    n, gamma = 4, 0.05
    spec = pst_couplings(n)
    rng = np.random.default_rng(15)
    psi = random_state(rng, n)
    rho0 = from_density(psi)
    times = [0.4, 1.1]
    got = chi(lindblad_evolve(rho0, spec, gamma, times), spec, times)
    expected = np.exp(-2 * gamma * np.array(times))[:, None] * chi([rho0], spec, [0.0])
    assert np.abs(got - expected).max() < 1e-7


# --- trajectories ----------------------------------------------------------


def test_trajectory_gamma_zero():
    rng = np.random.default_rng(16)
    spec = pst_couplings(4)
    psi = random_state(rng, 4)
    out, jumps = trajectory_sample(psi, 0.0, 1.3, 42, spec)
    assert jumps == ()
    np.testing.assert_allclose(out.amps, evolve(psi, spec, 1.3).amps, atol=1e-10)


def test_trajectory_jump_count_statistics():
    spec = pst_couplings(3)
    psi = basis_state(3, [1])
    gamma, t = 0.4, 2.0
    counts = [
        len(trajectory_sample(psi, gamma, t, seed, spec)[1]) for seed in range(600)
    ]
    mean = np.mean(counts)
    expected = gamma * 3 * t
    assert abs(mean - expected) < 3 * np.sqrt(expected / 600)


def test_trajectory_average_matches_lindblad():
    spec = pst_couplings(4)
    rng = np.random.default_rng(17)
    psi = random_state(rng, 4)
    gamma, t = 0.05, 1.0
    n_traj = 3000
    acc = np.zeros((16, 16), dtype=complex)
    for seed in range(n_traj):
        out, _ = trajectory_sample(psi, gamma, t, seed, spec)
        acc += np.outer(out.amps, out.amps.conj())
    acc /= n_traj
    direct = lindblad_evolve(from_density(psi), spec, gamma, [t])[0].mat
    assert np.abs(acc - direct).max() < 2e-2


def test_trajectory_reproducible():
    spec = pst_couplings(4)
    psi = basis_state(4, [1])
    a = trajectory_sample(psi, 0.2, 1.0, 7, spec)
    b = trajectory_sample(psi, 0.2, 1.0, 7, spec)
    assert a[1] == b[1]
    np.testing.assert_allclose(a[0].amps, b[0].amps)


# --- golden-file io ---------------------------------------------------------


def test_state_text_roundtrip():
    rng = np.random.default_rng(18)
    psi = random_state(rng, 3)
    again = state_from_text(state_to_text(psi))
    assert again.n_sites == 3
    np.testing.assert_allclose(again.amps, psi.amps, atol=1e-16)


def test_state_text_bit_ordering():
    text = state_to_text(basis_state(3, [1]))
    assert "\n4 1 0" in text  # |100> is index 4
