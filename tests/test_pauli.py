import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainqec.pauli import (
    PauliString,
    from_sites,
    identity,
    pauli_x,
    pauli_y,
    pauli_z,
    product,
    site_bit,
    symplectic_rank,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1, -1]).astype(complex)


def test_single_site_matrices():
    assert np.allclose(pauli_x(1, 1).dense(), X)
    assert np.allclose(pauli_y(1, 1).dense(), Y)
    assert np.allclose(pauli_z(1, 1).dense(), Z)


def test_label_roundtrip():
    # one string per phase prefix: a scalar phase times a Hermitian string
    cases = {
        "+XIZY": (1, dict(xs=[1], zs=[3], ys=[4])),
        "-YYXZ": (-1, dict(ys=[1, 2], xs=[3], zs=[4])),
        "+iZZZZ": (1j, dict(zs=[1, 2, 3, 4])),
        "-iIXYI": (-1j, dict(xs=[2], ys=[3])),
        "+IIII": (1, {}),
    }
    for lbl, (phase, sites) in cases.items():
        assert (PauliString(4, 0, 0, phase) * from_sites(4, **sites)).label() == lbl


def random_pauli(rng, n):
    return PauliString(
        n,
        int(rng.integers(0, 1 << n)),
        int(rng.integers(0, 1 << n)),
        [1, -1, 1j, -1j][rng.integers(0, 4)],
    )


@st.composite
def pauli_strings(draw, n):
    return PauliString(
        n,
        draw(st.integers(0, (1 << n) - 1)),
        draw(st.integers(0, (1 << n) - 1)),
        draw(st.sampled_from([1, -1, 1j, -1j])),
    )


@st.composite
def pauli_pairs(draw):
    n = draw(st.integers(1, 4))
    return draw(pauli_strings(n)), draw(pauli_strings(n))


@given(pauli_pairs())
def test_multiplication_matches_dense(pair):
    a, b = pair
    assert np.allclose((a * b).dense(), a.dense() @ b.dense(), atol=1e-12)


def test_square_is_plus_minus_identity():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        p = random_pauli(rng, n)
        sq = (p * p).dense()
        assert np.allclose(sq, np.eye(1 << n)) or np.allclose(sq, -np.eye(1 << n))


@given(pauli_pairs())
def test_commutes_with_matches_dense(pair):
    a, b = pair
    comm = a.dense() @ b.dense() - b.dense() @ a.dense()
    assert a.commutes_with(b) == bool(np.allclose(comm, 0, atol=1e-12))


def test_from_sites_and_weight():
    p = from_sites(5, xs=[1], ys=[3], zs=[5])
    assert p.label() == "+XIYIZ"
    assert p.weight() == 3
    assert p.x_weight() == 2  # X and Y both carry an X bit
    assert p.sites() == (1, 3, 5)


def test_product_and_identity():
    ps = [pauli_z(3, 1), pauli_z(3, 1), pauli_x(3, 2)]
    assert product(ps).label() == "+IXI"
    assert identity(3).is_identity()


def test_symplectic_rank():
    gens = [from_sites(3, zs=(1, 2)), from_sites(3, zs=(2, 3)), from_sites(3, zs=(1, 3))]
    assert symplectic_rank(gens) == 2  # third is the product of the first two
    assert symplectic_rank([from_sites(2, xs=(1, 2)), from_sites(2, zs=(1, 2))]) == 2


def test_bad_phase_rejected():
    with pytest.raises(ValueError):
        PauliString(2, 0, 0, 0.5 + 0.5j)


def test_mask_range_checked():
    with pytest.raises(ValueError):
        PauliString(2, 1 << 2, 0)


@pytest.mark.parametrize("site", [0, 1, 1.7, 2.0, 4, 5, np.nan, np.inf])
def test_site_bit_follows_the_check_sites_rule(site):
    # a fractional site once failed on the shift with a TypeError
    from chainqec.hilbert import basis_state, check_sites

    try:
        want = 1 << (4 - int(check_sites(4, [site])[0]))
    except ValueError:
        with pytest.raises(ValueError, match="site"):
            site_bit(4, site)
        with pytest.raises(ValueError, match="site"):
            pauli_z(4, site)
        with pytest.raises(ValueError, match="site"):
            basis_state(4, [site])
        return
    assert site_bit(4, site) == want and type(site_bit(4, site)) is int
    assert pauli_z(4, site) == pauli_z(4, int(site))
