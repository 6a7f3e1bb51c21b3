import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from chainqec.chain import ChainSpec, pst_couplings
from chainqec.errors import ResourceLimitError
from chainqec.hilbert import (
    DensityMatrix,
    StateVector,
    apply_mode_unitary,
    apply_pauli,
    basis_state,
    chi,
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
    # full rank on N = 4 keeps all 256 positions, so it steps by expm_multiply,
    # whose onenormest draws np.random once ||L t||_1 is large (gamma = 100)
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


def _refuse(*args):
    pytest.fail("the other path ran")


@pytest.mark.parametrize("rho", [_full_rank(np.random.default_rng(22), 3), _plus_last(5)])
def test_lindblad_dense_and_sparse_paths_agree(monkeypatch, rho):
    # The kept dimension picks the path: a dense Pade exponential per distinct
    # step up to _DENSE_LIOUVILLIAN_MAX_DIM positions, expm_multiply above it.
    # The two inputs here keep 64 and 36 positions; each side is forced.  Of
    # the hypothesis oracle tests above, full rank on n = 2 and 3 (16 and 64
    # positions) lands on the dense path, n = 4 (256) on the sparse one.
    from chainqec import hilbert

    assert 64 <= hilbert._DENSE_LIOUVILLIAN_MAX_DIM < 256
    spec = random_chain(np.random.default_rng(23), rho.n_sites, with_fields=True)
    times = [0.3, 0.3, 1.1, 1.1, 1.7]
    got = {}
    for side, cap, other in (("dense", 10**9, "_expm_apply"), ("sparse", 0, "_kept_liouvillian")):
        with monkeypatch.context() as m:
            m.setattr(hilbert, "_DENSE_LIOUVILLIAN_MAX_DIM", cap)
            m.setattr(hilbert, other, _refuse)
            got[side] = [r.mat for r in lindblad_evolve(rho, spec, 0.3, times)]
            assert lindblad_evolve(rho, spec, 0.3, []) == []
        np.testing.assert_array_equal(got[side][1], got[side][0])  # a repeated time is a zero step
        np.testing.assert_array_equal(got[side][3], got[side][2])
    np.testing.assert_allclose(got["dense"], got["sparse"], rtol=0, atol=1e-13)


def test_sparse_liouvillian_is_the_dense_gather_without_the_full_operator(monkeypatch):
    # block by block from the sector Hamiltonians: _kept_liouvillian's values
    # on the same positions, with no 2^N x 2^N Hamiltonian behind them
    from chainqec import hilbert

    n, gamma = 5, 0.4
    spec = random_chain(np.random.default_rng(29), n, with_fields=True)
    occupied = np.zeros((n + 1, n + 1), dtype=bool)
    occupied[[1, 2, 2, 0], [2, 2, 1, 3]] = True
    dense = hilbert.dense_hamiltonian(spec)
    with monkeypatch.context() as m:
        m.setattr(hilbert, "dense_hamiltonian", lambda spec: pytest.fail("2^N x 2^N H built"))
        keep, sparse = hilbert._sector_liouvillian(spec, gamma, occupied)
    weight = np.bitwise_count(np.arange(1 << n))
    order = np.argsort(keep)
    np.testing.assert_array_equal(keep[order], np.flatnonzero(occupied[weight[:, None], weight]))
    want = hilbert._kept_liouvillian(dense, gamma, keep[order])
    np.testing.assert_array_equal(sparse.toarray()[np.ix_(order, order)], want)


def test_dephasing_sweep_at_large_gamma_stays_at_roundoff():
    # ||L dt|| up to about 1e5: expm's scaling and squaring branch
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
        (0.05, 1e-300),  # no perfect transfer: the scanned T is about 6.3e10
    ],
)
def test_lindblad_work_guard_refuses_before_building(monkeypatch, gamma, scale):
    from chainqec.chain import analyze_transfer

    monkeypatch.setattr("chainqec.hilbert.dense_hamiltonian", _unbuilt)
    spec = pst_couplings(5, scale=scale)
    t = analyze_transfer(spec).transfer_time
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResourceLimitError, match="work bound"):
            lindblad_evolve(_plus_last(5), spec, gamma, [t / 2, t])


def test_lindblad_work_guard_admits_the_measured_side():
    # gamma = 1e4 on the dephasing sweep's chain: a bound of 1.6e5, well
    # under the limit; the sweep keeps 36 positions, so it takes the dense
    # path and runs in about 4 ms (one BLAS thread, 2-core Xeon)
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
    # blocks: the kept ones match the dense oracle, the dropped ones stay 0
    spec, sup = _drawn_chain_and_superoperator(n, data, gamma)
    dim = 1 << n
    weight = np.bitwise_count(np.arange(dim))
    if data.draw(st.booleans()):
        sectors = {0, 1}
        psi = np.zeros(dim, dtype=complex)
        psi[0] = psi[1] = 1 / np.sqrt(2)  # |0...0+>
    else:
        sectors = data.draw(st.sets(st.integers(0, n), min_size=1, max_size=n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        psi = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) * np.isin(weight, list(sectors))
        psi /= np.linalg.norm(psi)
    rho0 = np.outer(psi, psi.conj())
    want = (scipy.linalg.expm(sup * t) @ rho0.ravel()).reshape(dim, dim)
    (got,) = lindblad_evolve(DensityMatrix(rho0, n), spec, gamma, [t])
    np.testing.assert_allclose(got.mat, want, rtol=0, atol=1e-12)
    inside = np.isin(weight, list(sectors))
    dropped = ~np.outer(inside, inside)
    assert dropped.any()
    assert np.all(got.mat[dropped] == 0)


def test_chi_initial_values():
    n = 4
    spec = pst_couplings(n)
    # qubit N in |+>, rest |0>: the site-N mode pair has unit coherence
    amps = np.zeros(1 << n, dtype=complex)
    amps[0b0000] = amps[0b0001] = 1 / np.sqrt(2)
    rho = from_density(StateVector(amps, n))
    assert chi(rho, spec, 0.0)[0] == pytest.approx(1.0)  # mode c_N via mirror
    mixed = DensityMatrix(np.eye(1 << n) / (1 << n), n)
    assert np.abs(chi(mixed, spec, 0.4)).max() < 1e-12


def test_chi_plus_on_first_site():
    n = 3
    spec = pst_couplings(n)
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = amps[0b100] = 1 / np.sqrt(2)  # qubit 1 in |+>
    rho = from_density(StateVector(amps, n))
    assert chi(rho, spec, 0.0)[n - 1] == pytest.approx(1.0)  # n=N picks mode c_1 = X_1


def test_chi_matches_dense_trace_exactly():
    # the gather against Tr(rho_int c) with c the dense Jordan-Wigner matrix
    from chainqec.freefermion import jordan_wigner
    from chainqec.hilbert import mirror_mode

    rng = np.random.default_rng(41)
    for n in (2, 3, 4):
        spec = pst_couplings(n)
        for _ in range(3):
            a = rng.standard_normal((1 << n, 1 << n)) + 1j * rng.standard_normal((1 << n, 1 << n))
            rho = DensityMatrix(a @ a.conj().T / np.trace(a @ a.conj().T), n)
            for t in (0.0, 0.7):
                u = dense_unitary(spec, t)
                rho_int = u.conj().T @ rho.mat @ u
                got = chi(rho, spec, t)
                assert got.shape == (2 * n,)
                for mode in range(1, 2 * n + 1):
                    c = jordan_wigner(mirror_mode(n, mode), n).dense()
                    assert got[mode - 1] == complex(np.trace(rho_int @ c))


def test_chi_dephasing_decay_small_chain():
    # full cross-check of the closed form on N=4
    n, gamma = 4, 0.05
    spec = pst_couplings(n)
    rng = np.random.default_rng(15)
    psi = random_state(rng, n)
    rho0 = from_density(psi)
    for t, rho_t in zip((0.4, 1.1), lindblad_evolve(rho0, spec, gamma, [0.4, 1.1])):
        expected = np.exp(-2 * gamma * t) * chi(rho0, spec, 0.0)
        assert np.abs(chi(rho_t, spec, t) - expected).max() < 1e-7


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
