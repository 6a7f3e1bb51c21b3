"""Byte-stable serialisations, pinned against oracle-validated golden files."""

import os

import numpy as np

from chainqec.chain import pst_couplings, single_excitation_matrix
from chainqec.freefermion import FermionOperator, mode_propagator, pauli_to_fermion, propagate
from chainqec.harness import brute_force_conjugate
from chainqec.hilbert import basis_state, dense_unitary, evolve, state_from_text, state_to_text
from chainqec.pauli import pauli_z

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_propagated_operator_golden_bytes():
    spec = pst_couplings(3)
    prop = mode_propagator(single_excitation_matrix(spec), np.pi / 4)
    op = propagate(pauli_to_fermion(pauli_z(3, 2)), prop)
    with open(os.path.join(GOLDEN, "z2_pst3_halfway.txt")) as fh:
        assert op.to_text() == fh.read()


def test_propagated_operator_golden_content():
    # the frozen file itself must still match the dense conjugation oracle
    with open(os.path.join(GOLDEN, "z2_pst3_halfway.txt")) as fh:
        op = FermionOperator.from_text(fh.read())
    oracle = brute_force_conjugate(pauli_z(3, 2), pst_couplings(3), np.pi / 4)
    assert np.abs(op.dense() - oracle).max() < 1e-12


def test_state_golden():
    out = evolve(basis_state(4, [1]), pst_couplings(4), np.pi / 2)
    with open(os.path.join(GOLDEN, "pst4_transferred.txt")) as fh:
        text = fh.read()
    assert state_to_text(out) == text
    frozen = state_from_text(text)
    assert abs(abs(frozen.amps[1]) - 1) < 1e-12  # arrived at the last site
    # the frozen file itself must still match the dense unitary oracle
    oracle = dense_unitary(pst_couplings(4), np.pi / 2) @ basis_state(4, [1]).amps
    assert np.abs(frozen.amps - oracle).max() < 1e-12
