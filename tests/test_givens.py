"""The free-fermion engine Gamma(M)|psi> from planned minors (apply_mode_unitary) and jump
unitaries, checked against the exact expm and dense oracles; the quadratic-form single-Z
read-out, the shared pair table and the planned minors of a mode unitary.

"givens" in this module's name and in a test name is apply_mode_unitary, the
mode-unitary engine, named for the Givens factorisation it was first built on.
"""

import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainqec.chain import (
    ChainSpec,
    _u_of_t,
    analyze_transfer,
    pst_couplings,
    single_excitation_matrix,
)
from chainqec.code import encode, minimal15
from chainqec.errors import ResourceLimitError
from chainqec.hilbert import (
    StateVector,
    _occupied_weights,
    _sector_table,
    apply_hops,
    apply_mode_unitary,
    apply_pauli,
    basis_state,
    dense_hamiltonian,
    dense_unitary,
    evolve,
    hop_plan,
    jump_unitary,
    minor_plan,
    mode_minors,
    mode_unitaries,
    sample_rng,
    sector_indices,
    sector_sparse,
    trajectory_sample,
)
from chainqec.pauli import pauli_z, site_bit


def random_chain(rng, n, with_fields):
    js = tuple(rng.uniform(0.3, 1.4, n - 1))
    bs = tuple(rng.uniform(-0.8, 0.8, n)) if with_fields else (0.0,) * n
    return ChainSpec(n, js, bs)


def sector_state(rng, n, weight):
    amps = np.zeros(1 << n, dtype=complex)
    states = sector_indices(n, weight)
    v = rng.standard_normal(states.size) + 1j * rng.standard_normal(states.size)
    amps[states] = v / np.linalg.norm(v)
    return StateVector(amps, n)


def single_particle_unitary(spec, t):
    evals, evecs = np.linalg.eigh(single_excitation_matrix(spec))
    return _u_of_t(evals, evecs, t)


# --- oracles -------------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 9))
def test_givens_matches_dense_unitary_every_weight(n):
    rng = np.random.default_rng(100 + n)
    for with_fields in (False, True):
        spec = random_chain(rng, n, with_fields)
        for t in (-1.7, 0.0, 0.9):
            u = dense_unitary(spec, t)
            for weight in range(n + 1):
                psi = sector_state(rng, n, weight)
                m = mode_unitaries(spec, [t])[0]
                for name, got in (("expm", evolve(psi, spec, t)),
                                  ("givens", apply_mode_unitary(psi, m))):
                    np.testing.assert_allclose(got.amps, u @ psi.amps, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("n", range(2, 9))
def test_sector_sparse_is_dense_hamiltonian_block(n):
    # the expm path's sector matrices come from the same pair table
    spec = random_chain(np.random.default_rng(n), n, True)
    h = dense_hamiltonian(spec)
    for weight in range(n + 1):
        states = sector_indices(n, weight)
        np.testing.assert_array_equal(
            sector_sparse(spec, weight).toarray(), h[np.ix_(states, states)].real
        )


# --- properties ----------------------------------------------------------------

finite = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def chains(draw, max_sites=10):
    n = draw(st.integers(2, max_sites))
    js = draw(st.lists(finite, min_size=n - 1, max_size=n - 1))
    bs = draw(st.lists(finite, min_size=n, max_size=n))
    return ChainSpec(n, tuple(js), tuple(bs))


@settings(max_examples=40, deadline=None)
@given(spec=chains(max_sites=8), t=st.floats(-6.0, 6.0, allow_nan=False))
def test_single_excitation_block_is_single_particle_unitary(spec, t):
    n = spec.n_sites
    states = sector_indices(n, 1)  # site k is states[k - 1]
    m = mode_unitaries(spec, [t])[0]
    for engine in (lambda psi: apply_mode_unitary(psi, m), lambda psi: evolve(psi, spec, t)):
        block = np.column_stack([engine(basis_state(n, [k])).amps[states] for k in range(1, n + 1)])
        np.testing.assert_allclose(block, single_particle_unitary(spec, t), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(spec=chains(max_sites=8), data=st.data())
def test_single_z_quadratic_form_matches_dense_flip(spec, data):
    # phi - 2 n_v phi with n_v = c_v^dag c_v, from hop_plan and apply_hops on
    # every basis index in a random order: each weight w takes its route,
    # through w + 1 when w > N - w and through w - 1 otherwise, so both run on
    # every chain.  The state lies on one weight (the vacuum, weights below
    # and above N / 2) or on several at once
    n = spec.n_sites
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    weights = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=3, unique=True))
    amps = sum(sector_state(rng, n, weight).amps for weight in weights)
    psi = StateVector(amps / np.linalg.norm(amps), n)
    total = data.draw(st.floats(0.0, 4.0))
    t = data.draw(st.floats(0.0, total))
    site = data.draw(st.integers(1, n))
    arrival = apply_mode_unitary(psi, mode_unitaries(spec, [total])[0])
    v = mode_unitaries(spec, [t - total])[0, site - 1]
    support = rng.permutation(1 << n)
    plan = hop_plan(n, lambda reach: arrival.amps[reach], support)
    n_v = apply_hops(plan, v.conj()[None], v[None], {})[:, 0]
    zsign = np.where(np.arange(1 << n) & site_bit(n, site), -1.0, 1.0)
    want = dense_unitary(spec, total - t) @ (zsign * (dense_unitary(spec, t) @ psi.amps))
    np.testing.assert_allclose(arrival.amps[support] - 2.0 * n_v, want[support], rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_hop_plan_reads_the_state_only_on_its_hop_reach(n, data):
    # hop_plan asks for the state once, on its hop reach: each support index
    # and every one-particle move of it, ascending and distinct; a state that
    # agrees with another there has the same hop plan, bit for bit.  The
    # revival set-up builds phi only there
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    support = rng.permutation(1 << n)[:data.draw(st.integers(1, 1 << n))]
    asked = []

    def recorded(state):
        def amplitudes(indices):
            asked.append(indices.copy())
            return state[indices]
        return amplitudes

    full = hop_plan(n, recorded(amps), support)
    assert len(asked) == 1
    reach = asked[0]
    moves = {y ^ (1 << i) ^ (1 << j) for y in support.tolist() for i in range(n) for j in range(n)
             if i == j or (y >> i & 1) != (y >> j & 1)}
    assert reach.tolist() == sorted(moves)
    # and the (position, i, j) cube of every y ^ b_i ^ b_j of the same weight,
    # bit for bit
    bits = 1 << np.arange(n, dtype=np.int64)
    cube = support[:, None, None] ^ bits[:, None] ^ bits
    cube = np.unique(cube[np.bitwise_count(cube) == np.bitwise_count(support)[:, None, None]])
    assert reach.dtype == cube.dtype and reach.tobytes() == cube.tobytes()
    agreeing = np.where(np.isin(np.arange(1 << n), reach), amps, rng.standard_normal(1 << n))
    part = hop_plan(n, recorded(agreeing), support)
    assert len(asked) == 2 and asked[1].tobytes() == reach.tobytes()
    assert len(full) == len(part)
    for group, other in zip(full, part):
        for a, b in zip(group, other):
            a, b = np.asarray(a), np.asarray(b)
            assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(spec=chains(max_sites=7), data=st.data())
def test_jump_unitary_applied_once_matches_expm_between_flips(spec, data):
    # Gamma(U(D - t_k) R_k ... R_1 U(t_1)) against expm evolutions and Z_s between them
    n = spec.n_sites
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    weight = data.draw(st.integers(-1, n))  # -1: a state over every weight at once
    if weight < 0:
        v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        psi = StateVector(v / np.linalg.norm(v), n)
    else:
        psi = sector_state(rng, n, weight)
    duration = data.draw(st.floats(0.0, 4.0))
    k = data.draw(st.integers(0, 3))
    times = sorted(data.draw(st.lists(st.floats(0.0, duration), min_size=k, max_size=k)))
    jumps = list(zip(times, data.draw(st.lists(st.integers(1, n), min_size=k, max_size=k))))
    want, prev = psi, 0.0
    for t, site in jumps:
        want = apply_pauli(evolve(want, spec, t - prev), pauli_z(n, site))
        prev = t
    want = evolve(want, spec, duration - prev)
    got = apply_mode_unitary(psi, jump_unitary(spec, duration, jumps))
    np.testing.assert_allclose(got.amps, want.amps, rtol=0, atol=1e-12)


def _trajectory_loop(state, gamma, duration, rng_seed, spec):
    """trajectory_sample as it once ran, on the expm oracle: evolves between the jumps' flips."""
    rng = sample_rng(rng_seed, 0)
    events = []
    for site in range(1, spec.n_sites + 1):
        for t_j in rng.uniform(0, duration, rng.poisson(gamma * duration)):
            events.append((float(t_j), site))
    events.sort()
    psi, t_prev = state, 0.0
    for t_j, site in events:
        if t_j > t_prev:
            psi = evolve(psi, spec, t_j - t_prev)
        psi = apply_pauli(psi, pauli_z(spec.n_sites, site))
        t_prev = t_j
    if duration > t_prev:
        psi = evolve(psi, spec, duration - t_prev)
    return psi, tuple(events)


def test_trajectory_is_the_loop_between_jumps():
    # same Poisson draws, so the same events; one Gamma(M) in place of k + 1 evolves
    spec = pst_couplings(15)
    psi = encode(minimal15(), 2**-0.5, 2**-0.5)
    counts = set()
    for seed in range(12):
        got, events = trajectory_sample(psi, 0.05, np.pi, seed, spec)
        want, want_events = _trajectory_loop(psi, 0.05, np.pi, seed, spec)
        assert events == want_events, seed
        np.testing.assert_allclose(got.amps, want.amps, rtol=0, atol=1e-12, err_msg=str(seed))
        counts.add(len(events))
    assert len(counts) >= 3  # trajectories with several jump counts, zero included
    assert 0 in counts


def test_mode_unitary_engine_refuses_bad_input():
    spec = ChainSpec(3, (1.0, 1.0), (0.0,) * 3)
    psi = basis_state(3, [1])
    u = jump_unitary(spec, 1.0, [])
    # a smaller M would rotate the first modes of the state and leave the rest
    for bad in (u[:2, :2], np.eye(4), u[None]):
        with pytest.raises(ValueError, match="size mismatch"):
            apply_mode_unitary(psi, bad)
    with pytest.raises(ValueError, match="finite"):
        apply_mode_unitary(psi, np.where(np.eye(3), np.nan, u))
    with pytest.raises(ValueError, match="unitary"):
        apply_mode_unitary(psi, 2.0 * u)
    for site in (0, 4, 1.5):
        with pytest.raises(ValueError, match="whole number in 1..N"):
            jump_unitary(spec, 1.0, [(0.5, site)])
    for jumps in ([(0.6, 1), (0.2, 2)], [(-0.1, 1)], [(1.2, 1)]):
        with pytest.raises(ValueError, match="ordered within"):
            jump_unitary(spec, 1.0, jumps)
    with pytest.raises(ValueError, match="ordered within"):
        jump_unitary(spec, -1.0, [])
    with pytest.raises(ValueError, match="finite"):
        jump_unitary(spec, 1.0, [(np.nan, 1)])
    # a trajectory on a chain of another length, with or without jumps
    for gamma in (0.0, 5.0):
        with pytest.raises(ValueError, match="size mismatch"):
            trajectory_sample(basis_state(4, [1]), gamma, 1.0, 0, spec)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 11), data=st.data())
def test_pair_tables_are_involutions_over_singly_occupied_bonds(n, data):
    weight = data.draw(st.integers(0, n))
    states, pairs = _sector_table(n, weight)
    np.testing.assert_array_equal(states, sector_indices(n, weight))
    assert len(pairs) == n - 1
    for m, pair in enumerate(pairs):
        b1, b2 = 1 << (n - 1 - m), 1 << (n - 2 - m)
        rows, cols = pair.ravel(), pair[::-1].ravel()
        partner = np.full(states.size, -1)
        partner[rows] = cols
        assert np.all(partner[cols] == rows)  # an involution on its support
        assert np.all(partner[partner[rows]] == rows)
        assert np.all(states[cols] == states[rows] ^ (b1 | b2))
        assert np.all(states[pair[0]] & b1) and not np.any(states[pair[0]] & b2)
        one_occupied = ((states & b1) != 0) != ((states & b2) != 0)
        assert sorted(rows.tolist()) == np.nonzero(one_occupied)[0].tolist()


@pytest.mark.parametrize("n", range(1, 11))
def test_sector_indices_match_combination_loop(n):
    for weight in range(n + 1):
        loop = [
            sum(1 << (n - s) for s in combo)
            for combo in combinations(range(1, n + 1), weight)
        ]
        np.testing.assert_array_equal(sector_indices(n, weight), np.array(loop, dtype=np.int64))
    for weight in (-1, n + 1):  # no such sector
        got = sector_indices(n, weight)
        assert got.dtype == np.int64 and got.size == 0


def test_occupied_weights_match_loop():
    rng = np.random.default_rng(8)
    for n in (1, 4, 9):
        amps = rng.standard_normal(1 << n) * (rng.random(1 << n) < 0.3)
        idx = np.nonzero(amps != 0)[0]
        loop = sorted({bin(int(i)).count("1") for i in idx})
        assert _occupied_weights(StateVector(amps, n)) == loop
    # |a|^2 of 1e-200 underflows to 0, but the sector is occupied
    tiny = np.zeros(16)
    tiny[0], tiny[0b1000] = 1.0, 1e-200
    assert _occupied_weights(StateVector(tiny, 4)) == [0, 1]


@pytest.mark.parametrize("engine", ["mode-unitary", "expm"])
def test_evolve_moves_amplitudes_whose_square_underflows(engine):
    spec = ChainSpec(4, (1.0, 0.7, 1.2), (0.0, 0.3, 0.0, -0.2))
    amps = np.zeros(16, dtype=complex)
    amps[0], amps[0b1000] = 1.0, 1e-200
    psi = StateVector(amps, 4)
    if engine == "mode-unitary":
        got = apply_mode_unitary(psi, mode_unitaries(spec, [0.9])[0]).amps
    else:
        got = evolve(psi, spec, 0.9).amps
    want = dense_unitary(spec, 0.9) @ amps
    assert np.all(want[[8, 4, 2, 1]] != 0)  # spread over all four sites
    np.testing.assert_allclose(got * 1e200, want * 1e200, rtol=0, atol=1e-12)


def test_pair_table_is_cached_and_read_only():
    a = _sector_table(9, 4)
    assert _sector_table(9, 4) is a
    with pytest.raises(ValueError):
        a[0][0] = 0
    with pytest.raises(ValueError):
        a[1][0][0, 0] = 0


# --- planned minors ----------------------------------------------------------------


def _haar(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _direct_minors(m, n, targets, sources, pairs):
    """det M[y, x] per pair, one np.linalg.det call per weight."""
    occ = lambda states: (states[:, None] >> (n - 1 - np.arange(n))) & 1 == 1  # noqa: E731
    occ_y, occ_x = occ(targets[pairs[0]]), occ(sources[pairs[1]])
    weight = occ_y.sum(axis=1)
    out = np.ones(pairs.shape[1], dtype=complex)
    for w in range(1, n + 1):
        at = np.flatnonzero(weight == w)
        if at.size:
            rows = np.nonzero(occ_y[at])[1].reshape(-1, w)
            cols = np.nonzero(occ_x[at])[1].reshape(-1, w)
            out[at] = np.linalg.det(m[rows[:, :, None], cols[:, None, :]])
    return out


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_planned_minors_match_direct_determinants(n, seed, data):
    # every equal-weight pair, read directly and (for w > N - w) from its
    # complement; at U(2T) and the identity most minors are exactly singular
    states = st.lists(st.integers(0, 2**n - 1), min_size=1, unique=True)
    everything = data.draw(st.booleans())
    targets = np.arange(2**n) if everything else np.array(data.draw(states))
    sources = np.arange(2**n) if everything else np.array(data.draw(states))
    plan = minor_plan(n, targets, sources)
    spec = pst_couplings(n)
    stack = np.array([
        _haar(np.random.default_rng(seed), n),
        mode_unitaries(spec, [2 * analyze_transfer(spec).transfer_time])[0],
        np.eye(n),
    ])
    got = mode_minors(stack, plan)
    assert got.shape == (3, plan.pairs.shape[1])
    for k, m in enumerate(stack):
        want = _direct_minors(m, n, targets, sources, plan.pairs)
        np.testing.assert_allclose(plan.sign * got[k], want, rtol=0, atol=1e-13)
        # each member is computed alone, whatever the stack
        np.testing.assert_array_equal(mode_minors(stack[k:k + 1], plan)[0], got[k])


@pytest.mark.parametrize("targets, sources, pairs", [
    ([0b00001, 0b00100], [0b00011, 0b11000], 0),  # weights 1 and 2: no equal-weight pair
    ([0], [0], 1),  # the vacuum alone: the empty minor, 1
    ([0b11111], [0b11111], 1),  # weight N alone: det M, from the empty complement
    ([0, 0b00110, 0b01010], [0b10100, 0], 3),  # the vacuum and weight 2, planned directly
    ([0b11011, 0], [0, 0b01111, 0b10111], 3),  # the vacuum and weight 4, from complements
], ids=["no-pair", "vacuum", "weight-n", "vacuum-and-weight-2", "vacuum-and-weight-4"])
def test_minor_plan_of_few_levels_matches_direct_determinants(targets, sources, pairs):
    # plans with no pair, or only level 0 and at most one level above it;
    # np.linalg.det per pair, and 1 for the vacuum's empty minor
    n = 5
    targets, sources = np.array(targets), np.array(sources)
    plan = minor_plan(n, targets, sources)
    assert plan.pairs.shape == (2, pairs)
    spec = pst_couplings(n)
    stack = np.array([
        _haar(np.random.default_rng(7), n),
        mode_unitaries(spec, [2 * analyze_transfer(spec).transfer_time])[0],
        np.eye(n),
    ])
    got = mode_minors(stack, plan)
    assert got.shape == (3, pairs)
    for k, m in enumerate(stack):
        want = _direct_minors(m, n, targets, sources, plan.pairs)
        np.testing.assert_allclose(plan.sign * got[k], want, rtol=0, atol=1e-13)


def test_minor_plan_shares_sub_minors_and_is_read_only():
    # all 36 pairs of weight 2 on 4 sites: a level-1 node is (row, first
    # column), shared by every pair with that first column, and the first of
    # two columns is never site 4, so 4 x 3 nodes; level 2 is one per pair
    states = sector_indices(4, 2)
    plan = minor_plan(4, states, states)
    assert [e.shape for e in plan.entries] == [(12, 1), (36, 2)]
    assert sorted(plan.node) == list(range(1 + 12, 1 + 12 + 36))
    assert not plan.complementary.any() and np.all(plan.sign == 1.0)
    for a in (plan.pairs, plan.complementary, plan.sign, plan.node, *plan.entries, *plan.children):
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0
    with pytest.raises(ValueError, match="N <= 31"):
        minor_plan(32, [0], [0])


def test_minor_plan_refuses_too_many_pairs_before_allocating():
    # dense N = 12 is C(24, 12) = 2 704 156 pairs, whose (targets x sources)
    # comparison alone is 16 MiB; the revival set-up's support plan is 9010
    everything = np.arange(1 << 12)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="2704156 pairs"):
            minor_plan(12, everything, everything)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 and elapsed < 0.5
    with pytest.raises(ResourceLimitError):  # the spread weight-10 sector of N = 15, to itself
        minor_plan(15, sector_indices(15, 10), sector_indices(15, 10))
    psi = encode(minimal15(), 2**-0.5, 2**-0.5)
    support = np.concatenate([sector_indices(15, 0), sector_indices(15, 10)])
    assert minor_plan(15, support, np.flatnonzero(psi.amps)).pairs.shape == (2, 9010)
    # apply_mode_unitary plans a state's whole occupied sectors, so it is refused alike
    with pytest.raises(ResourceLimitError):
        apply_mode_unitary(StateVector(np.ones(1 << 12), 12), np.eye(12))
