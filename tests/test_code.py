import numpy as np
import pytest

from chainqec.code import encode, logical_readout, minimal15, parity_condition, shor_code
from chainqec.errors import ResourceLimitError
from chainqec.hilbert import apply_pauli, basis_state
from chainqec.pauli import from_sites, pauli_x, pauli_z, symplectic_rank


def expectation(state, p):
    return np.vdot(state.amps, apply_pauli(state, p).amps).real


# --- minimal15 ----------------------------------------------------------------


def test_minimal15_structure():
    code = minimal15()
    code.validate()
    assert code.n_qubits == 15
    assert len(code.x_detecting_generators) == 12
    assert len(code.z_detecting_generators) == 2
    assert len(code.generators) == 14
    assert code.n_logical == 1
    assert symplectic_rank(code.generators) == 14
    assert (code.dx, code.dz) == (5, 3)
    assert code.blocks == (tuple(range(1, 6)), tuple(range(6, 11)), tuple(range(11, 16)))


def test_minimal15_codewords_are_stabilized():
    code = minimal15()
    zero, one = code.codewords()
    for state in (zero, one):
        for g in code.generators:
            assert expectation(state, g) == pytest.approx(1.0, abs=1e-12)
    assert expectation(zero, code.logical_z) == pytest.approx(1.0, abs=1e-12)
    assert expectation(one, code.logical_z) == pytest.approx(-1.0, abs=1e-12)
    flipped = apply_pauli(zero, code.logical_x)
    np.testing.assert_allclose(flipped.amps, one.amps, atol=1e-12)


def test_minimal15_codeword_structure():
    zero, _ = minimal15().codewords()
    # |0_L> = tensor of three (|00000>+|11111>)/sqrt(2) blocks
    expected = np.zeros(1 << 15, dtype=complex)
    for b1 in (0, 0b11111 << 10):
        for b2 in (0, 0b11111 << 5):
            for b3 in (0, 0b11111):
                expected[b1 | b2 | b3] = 2 ** -1.5
    np.testing.assert_allclose(zero.amps, expected, atol=1e-14)


def test_minimal15_distinct_two_flip_syndromes():
    # all C(15,1) + C(15,2) = 120 bit-flip patterns give distinct syndromes
    code = minimal15()
    from itertools import combinations

    seen = {}
    patterns = [(s,) for s in range(1, 16)] + list(combinations(range(1, 16), 2))
    for sites in patterns:
        synd = tuple(
            0 if from_sites(15, xs=sites).commutes_with(g) else 1
            for g in code.x_detecting_generators
        )
        assert synd not in seen, (sites, seen[synd])
        assert any(synd)
        seen[synd] = sites
    assert len(seen) == 120


def test_minimal15_outer_syndromes_identify_block():
    code = minimal15()
    expected = {2: (1, 0), 8: (1, 1), 13: (0, 1)}
    for site, synd in expected.items():
        got = tuple(
            0 if pauli_z(15, site).commutes_with(g) else 1
            for g in code.z_detecting_generators
        )
        assert got == synd


def test_minimal15_single_z_block2_syndrome():
    code = minimal15()
    z = pauli_z(15, 7)
    got = tuple(0 if z.commutes_with(g) else 1 for g in code.z_detecting_generators)
    assert got == (1, 1)


# --- shor family ----------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_shor_code_structure(d):
    code = shor_code(d)
    code.validate()
    assert code.n_qubits == d * d
    assert len(code.generators) == d * d - 1
    assert code.n_logical == 1
    assert (code.dx, code.dz) == (d, d)


def test_shor_code_d2_generator_count():
    assert len(shor_code(2).generators) == 3


def test_shor_code_rejects_d1():
    with pytest.raises(ValueError):
        shor_code(1)


def test_shor_codewords_stabilized():
    for d in (2, 3):
        code = shor_code(d)
        zero, one = code.codewords()
        for state in (zero, one):
            assert abs(state.norm() - 1) < 1e-12
            for g in code.generators:
                assert expectation(state, g) == pytest.approx(1.0, abs=1e-12)
        assert expectation(zero, code.logical_z) == pytest.approx(1.0, abs=1e-12)
        assert expectation(one, code.logical_z) == pytest.approx(-1.0, abs=1e-12)


def test_shor_d3_is_nine_qubit_code_up_to_hadamards():
    # conjugating the generator group by H on every qubit must give the
    # standard nesting: Z-pair checks inside blocks, X^6 across block pairs
    code = shor_code(3)
    transposed = set()
    for g in code.generators:
        transposed.add((g.z_mask, g.x_mask))  # swap roles = Hadamard conjugation
    expected = set()
    for blk in code.blocks:
        for i in range(2):
            p = from_sites(9, zs=(blk[i], blk[i + 1]))
            expected.add((p.x_mask, p.z_mask))
    for b in range(2):
        p = from_sites(9, xs=code.blocks[b] + code.blocks[b + 1])
        expected.add((p.x_mask, p.z_mask))
    assert transposed == expected


def test_shor_inner_distance_against_z():
    # any single Z anticommutes with some generator (detected)
    code = shor_code(3)
    for site in range(1, 10):
        z = pauli_z(9, site)
        assert any(not z.commutes_with(g) for g in code.generators)


def test_shor_single_x_detected():
    code = shor_code(3)
    for site in range(1, 10):
        x = pauli_x(9, site)
        assert any(not x.commutes_with(g) for g in code.generators)


# --- parity condition -------------------------------------------------------------


def test_parity_condition_shor_even_odd():
    assert parity_condition(shor_code(4)) is True
    assert parity_condition(shor_code(3)) is False
    assert parity_condition(shor_code(2)) is True


def test_parity_condition_minimal15():
    assert parity_condition(minimal15()) is False


def test_parity_implies_fixed_excitation_parity():
    # codewords of a parity-satisfying code live on one excitation parity
    for d in (2, 4):
        code = shor_code(d)
        zero, one = code.codewords()
        for state in (zero, one):
            idx = np.nonzero(np.abs(state.amps) > 1e-12)[0]
            parities = {int(np.bitwise_count(np.int64(i))) % 2 for i in idx}
            assert len(parities) == 1


# --- encode / readout --------------------------------------------------------------


def test_encode_plus_state_minimal15():
    code = minimal15()
    a = b = 1 / np.sqrt(2)
    psi = encode(code, a, b)
    for g in code.generators:
        assert expectation(psi, g) == pytest.approx(1.0, abs=1e-12)
    assert expectation(psi, code.logical_x) == pytest.approx(1.0, abs=1e-12)


def test_encode_rejects_unnormalised():
    with pytest.raises(ValueError):
        encode(minimal15(), 1.0, 0.5)


def test_readout_roundtrip():
    rng = np.random.default_rng(31)
    code = minimal15()
    for _ in range(5):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a, b = v / np.linalg.norm(v)
        got_a, got_b, ok = logical_readout(code, encode(code, a, b))
        assert ok
        # equal up to a global phase
        phase = got_a / a if abs(a) > 0.3 else got_b / b
        np.testing.assert_allclose(got_a, phase * a, atol=1e-10)
        np.testing.assert_allclose(got_b, phase * b, atol=1e-10)


def test_readout_flags_errors():
    code = minimal15()
    psi = encode(code, 1.0, 0.0)
    _, _, ok = logical_readout(code, apply_pauli(psi, pauli_x(15, 1)))
    assert not ok
    orthogonal = basis_state(15, (14, 15))  # basis index 3
    _, _, ok = logical_readout(code, orthogonal)
    assert not ok


def test_encode_resource_guard():
    with pytest.raises(ResourceLimitError):
        shor_code(6).codewords()


def test_shor6_symbolic_construction():
    # smallest even-d instance with distance >= 5: usable symbolically even
    # though its dense codewords are out of reach
    code = shor_code(6)
    code.validate()
    assert code.n_qubits == 36
    assert (code.dx, code.dz) == (6, 6)
    assert parity_condition(code) is True
    assert code.n_logical == 1


# --- serialization ------------------------------------------------------------------


def test_tableau_format():
    text = minimal15().to_tableau()
    assert "# n_qubits 15" in text
    assert "# dx 5" in text
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(lines) == 16  # 14 generators + 2 logicals
    assert all(l.split()[0] in ("+1", "-1", "+i", "-i") for l in lines)
