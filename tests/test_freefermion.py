import numpy as np
import pytest

from chainqec.chain import ChainSpec, pst_couplings, single_excitation_matrix
from chainqec.errors import ResourceLimitError
from chainqec.freefermion import (
    FermionOperator,
    MajoranaMonomial,
    chi_decay,
    error_budget,
    fermion_to_pauli,
    jordan_wigner,
    mode_propagator,
    mode_propagator_for,
    pauli_to_fermion,
    propagate,
)
from chainqec.hilbert import dense_unitary
from chainqec.pauli import PauliString, from_sites, pauli_x, pauli_z


def random_chain(rng, n, with_fields=False):
    js = tuple(rng.uniform(0.3, 1.4, n - 1))
    bs = tuple(rng.uniform(-0.8, 0.8, n)) if with_fields else (0.0,) * n
    return ChainSpec(n, js, bs)


# --- jordan_wigner -----------------------------------------------------------


def test_jordan_wigner_examples():
    assert jordan_wigner(1, 4).label() == "+XIII"
    assert jordan_wigner(5, 4).label() == "+YIII"
    assert jordan_wigner(3, 4).label() == "+ZZXI"
    assert jordan_wigner(7, 4).label() == "+ZZYI"


def test_jordan_wigner_out_of_range():
    with pytest.raises(ValueError):
        jordan_wigner(9, 4)
    with pytest.raises(ValueError):
        jordan_wigner(0, 4)


def test_jordan_wigner_anticommutation():
    # {c_a, c_b} = 2 delta_ab on dense matrices
    n = 3
    cs = [jordan_wigner(a, n).dense() for a in range(1, 2 * n + 1)]
    for a in range(2 * n):
        for b in range(2 * n):
            anti = cs[a] @ cs[b] + cs[b] @ cs[a]
            expected = 2 * np.eye(1 << n) if a == b else 0 * anti
            np.testing.assert_allclose(anti, expected, atol=1e-12)


# --- pauli <-> fermion dictionary -------------------------------------------


def test_pauli_to_fermion_examples():
    op = pauli_to_fermion(pauli_z(3, 2))
    assert op.terms == {(2, 5): -1j}
    op = pauli_to_fermion(pauli_x(3, 1))
    assert op.terms == {(1,): 1.0 + 0j}
    op = pauli_to_fermion(pauli_x(3, 3))
    (modes,) = op.terms
    assert len(modes) == 5  # 2n-1 modes for a bit flip at site n


def test_pauli_fermion_roundtrip_random():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        p = PauliString(
            n,
            int(rng.integers(0, 1 << n)),
            int(rng.integers(0, 1 << n)),
            [1, -1, 1j, -1j][rng.integers(0, 4)],
        )
        op = pauli_to_fermion(p)
        assert len(op.terms) == 1
        ((modes, coeff),) = op.terms.items()
        back = fermion_to_pauli(MajoranaMonomial(coeff, modes), n)
        assert back == p


def test_pauli_to_fermion_dense_equivalence():
    rng = np.random.default_rng(22)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        p = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        np.testing.assert_allclose(pauli_to_fermion(p).dense(), p.dense(), atol=1e-10)


# --- fermion operator algebra ------------------------------------------------


def test_operator_product_anticommutation():
    n = 3
    c2c5 = FermionOperator(n, {(2, 5): 1.0})
    c5c2 = FermionOperator.mode(5, n) * FermionOperator.mode(2, n)
    assert c5c2.terms == {(2, 5): -1.0}
    sq = c2c5 * c2c5
    assert sq.terms == {(): -1.0}  # (c2 c5)^2 = -1


def test_operator_dense_multiplication():
    rng = np.random.default_rng(23)
    n = 3
    for _ in range(10):
        a = FermionOperator(n, {tuple(sorted(rng.choice(np.arange(1, 7), 2, replace=False))): complex(rng.standard_normal())})
        b = FermionOperator(n, {tuple(sorted(rng.choice(np.arange(1, 7), 3, replace=False))): complex(rng.standard_normal())})
        np.testing.assert_allclose((a * b).dense(), a.dense() @ b.dense(), atol=1e-10)


def test_text_roundtrip():
    op = FermionOperator(4, {(1, 5): 0.25 - 1j, (): 0.5, (2, 3, 6, 7): 1e-3})
    again = FermionOperator.from_text(op.to_text())
    assert again.n_sites == 4
    assert again.isclose(op, tol=1e-15)


# --- mode propagator ----------------------------------------------------------


def test_mode_propagator_identity_at_zero():
    h1 = single_excitation_matrix(pst_couplings(4))
    np.testing.assert_allclose(mode_propagator(h1, 0.0).matrix, np.eye(8), atol=1e-14)


def test_mode_propagator_two_site_blocks():
    # J=[1]: H1^2 = I so the blocks are cos(t) I and sin(t) H1
    h1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    t = 0.77
    o = mode_propagator(h1, t).matrix
    np.testing.assert_allclose(o[:2, :2], np.cos(t) * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(o[:2, 2:], np.sin(t) * h1, atol=1e-12)


def test_mode_propagator_orthogonal():
    rng = np.random.default_rng(24)
    for _ in range(8):
        n = int(rng.integers(2, 7))
        spec = random_chain(rng, n, with_fields=True)
        o = mode_propagator_for(spec, float(rng.uniform(-3, 3))).matrix
        np.testing.assert_allclose(o.T @ o, np.eye(2 * n), atol=1e-10)


def test_mode_propagator_mirror_at_transfer_time_odd():
    # odd chains: each mode maps onto its spatial mirror within the same block
    n = 5
    o = mode_propagator_for(pst_couplings(n), np.pi / 2).matrix
    perm = np.abs(o)
    for mode in range(1, 2 * n + 1):
        target = n - mode + 1 if mode <= n else 3 * n + 1 - mode
        col = perm[:, mode - 1]
        assert col[target - 1] == pytest.approx(1.0, abs=1e-10)
        assert np.sum(col > 1e-8) == 1


@pytest.mark.parametrize("n", [4, 6])
def test_mode_propagator_mirror_at_transfer_time_even(n):
    # even chains: the arrival exchanges the two mode species as well,
    # giving the full anti-diagonal permutation
    o = mode_propagator_for(pst_couplings(n), np.pi / 2).matrix
    perm = np.abs(o)
    for mode in range(1, 2 * n + 1):
        col = perm[:, mode - 1]
        assert col[2 * n - mode] == pytest.approx(1.0, abs=1e-10)
        assert np.sum(col > 1e-8) == 1


def test_mode_propagator_matches_generic_expm():
    # independent oracle: generic matrix exponential of the mode generator
    from scipy.linalg import expm

    rng = np.random.default_rng(29)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        spec = random_chain(rng, n, with_fields=True)
        h1 = single_excitation_matrix(spec)
        t = float(rng.uniform(-2, 2))
        gen = np.block([[np.zeros((n, n)), h1], [-h1, np.zeros((n, n))]])
        np.testing.assert_allclose(
            mode_propagator(h1, t).matrix, expm(t * gen), atol=1e-10
        )


def test_heisenberg_expectation_consistency():
    # <psi| e^{iHt} P e^{-iHt} |psi> two ways: full-space evolution vs the
    # fermion-propagated operator evaluated in place
    from chainqec.hilbert import StateVector, apply_pauli, evolve

    rng = np.random.default_rng(30)
    for n in (3, 4, 5):
        spec = random_chain(rng, n)
        v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        psi = StateVector(v / np.linalg.norm(v), n)
        t = float(rng.uniform(0, 2))
        p = pauli_z(n, int(rng.integers(1, n + 1)))
        moved = evolve(psi, spec, t)
        lhs = np.vdot(moved.amps, apply_pauli(moved, p).amps)
        op = propagate(pauli_to_fermion(p), mode_propagator_for(spec, -t))
        rhs = 0.0
        for coeff, q in op.to_pauli_sum():
            rhs += coeff * np.vdot(psi.amps, apply_pauli(psi, q).amps)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_propagator_group_property():
    rng = np.random.default_rng(25)
    spec = random_chain(rng, 4, with_fields=True)
    a = mode_propagator_for(spec, 0.6).matrix
    b = mode_propagator_for(spec, 1.1).matrix
    np.testing.assert_allclose(a @ b, mode_propagator_for(spec, 1.7).matrix, atol=1e-10)


# --- propagation ---------------------------------------------------------------


def test_propagate_identity():
    spec = pst_couplings(3)
    prop = mode_propagator_for(spec, 0.9)
    ident = FermionOperator.identity(3)
    assert propagate(ident, prop).terms == {(): 1.0 + 0j}


def test_propagate_single_mode_zero_time():
    spec = pst_couplings(3)
    prop = mode_propagator_for(spec, 0.0)
    c1 = FermionOperator.mode(1, 3)
    assert propagate(c1, prop).isclose(c1)


def test_propagate_matches_dense_conjugation():
    # e^{-iHt} P e^{iHt} computed two ways, for the quadratic error types
    rng = np.random.default_rng(26)
    for _ in range(12):
        n = int(rng.integers(2, 6))
        spec = random_chain(rng, n, with_fields=bool(rng.integers(0, 2)))
        t = float(rng.uniform(-2, 2))
        site = int(rng.integers(1, n + 1))
        pair = int(rng.integers(1, n))
        p = [
            pauli_z(n, site),
            from_sites(n, xs=[pair, pair + 1]),
            from_sites(n, ys=[pair, pair + 1]),
        ][rng.integers(0, 3)]
        prop = mode_propagator_for(spec, t)
        out = propagate(pauli_to_fermion(p), prop)
        u = dense_unitary(spec, t)
        np.testing.assert_allclose(out.dense(), u @ p.dense() @ u.conj().T, atol=1e-10)


def test_propagate_homomorphism_on_quadratics():
    rng = np.random.default_rng(27)
    spec = random_chain(rng, 4)
    s, t = 0.45, 0.85
    op = FermionOperator(4, {(1, 6): 0.3 + 0.2j, (2, 5): -0.7j, (3, 4): 0.1})
    once = propagate(op, mode_propagator_for(spec, s + t))
    twice = propagate(propagate(op, mode_propagator_for(spec, s)), mode_propagator_for(spec, t))
    assert once.isclose(twice, tol=1e-10)


def test_propagate_quadratic_closure():
    rng = np.random.default_rng(28)
    spec = random_chain(rng, 5)
    out = propagate(FermionOperator(5, {(2, 7): 1.0}), mode_propagator_for(spec, 1.3))
    assert all(len(m) in (0, 2) for m in out.terms)


def test_propagate_term_cap():
    spec = pst_couplings(5)
    op = FermionOperator(5, {(1, 2, 3, 4, 5, 6, 7, 8): 1.0})
    with pytest.raises(ResourceLimitError):
        propagate(op, mode_propagator_for(spec, 0.7), term_cap=10)


# --- arrival structure -----------------------------------------------------------


def _flip_and_z_sites(modes, n):
    """(X/Y sites, Z-only sites) of a monomial's Pauli form."""
    p = fermion_to_pauli(MajoranaMonomial(1.0, modes), n)
    flips = tuple(s for s in range(1, n + 1) if p.x_mask >> (n - s) & 1)
    zs = tuple(s for s in range(1, n + 1) if p.z_mask >> (n - s) & 1 and s not in flips)
    return flips, zs


def test_classify_identity():
    assert _flip_and_z_sites((), 4) == ((), ())


def test_classify_monomial_term():
    # parity rule: the sites between two X/Y sites carry the Z string
    assert _flip_and_z_sites((3, 7), 7) == ((3, 7), (4, 5, 6))


def test_classify_region_restriction():
    # mode 11 on six sites is the Y-type mode of site 5: of the last two
    # sites only site 5 flips
    flips, _ = _flip_and_z_sites((2, 11), 6)
    assert flips == (2, 5)
    assert [s for s in flips if s >= 5] == [5]


def test_propagated_single_z_stays_quadratic():
    # a propagated phase error is at most two modes, so at most two flips
    spec = pst_couplings(6)
    for t in (0.3, 1.1, np.pi / 2):
        out = propagate(pauli_to_fermion(pauli_z(6, 3)), mode_propagator_for(spec, t))
        assert out.terms and all(len(modes) <= 2 for modes in out.terms)
        assert all(len(_flip_and_z_sites(modes, 6)[0]) <= 2 for modes in out.terms)


# --- closed forms ---------------------------------------------------------------


def test_chi_decay_values():
    assert chi_decay(0.7, 0.0) == (1.0, 0.0)
    f, p = chi_decay(0.5, 1.0)
    np.testing.assert_allclose(f, np.exp(-1.0))
    np.testing.assert_allclose(p, 0.5 * (1 - np.exp(-1.0)))
    f, p = chi_decay(2.0, 1e9)
    assert f == pytest.approx(0.0, abs=1e-12)
    assert p == pytest.approx(0.5, abs=1e-12)


def test_error_budget():
    rep = error_budget(0.0, 1.0, 10, 5, 1)
    assert rep.expected_total == 0.0 and rep.feasible
    rep = error_budget(0.01, 1.0, 100, 15, 2)
    np.testing.assert_allclose(rep.expected_total, 2.0)
    np.testing.assert_allclose(rep.expected_on_region, 0.3)
    assert rep.feasible
    # marginal case: gamma t0 = 1/(2M) makes the on-region expectation exactly 1
    m = 15
    rep = error_budget(1.0 / (2 * m), 1.0, 30, m, 1)
    np.testing.assert_allclose(rep.expected_on_region, 1.0)
