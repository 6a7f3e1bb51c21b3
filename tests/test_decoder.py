import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainqec import decoder
from chainqec.chain import pst_couplings
from chainqec.code import StabilizerCode, encode, minimal15, shor_code
from chainqec.decoder import (
    DecodeOptions,
    RevivalEvaluator,
    decode_pipeline,
    decoder_tables,
)
from chainqec.freefermion import MajoranaMonomial, fermion_to_pauli, jordan_wigner
from chainqec.harness import RevivalSetup
from chainqec.hilbert import (
    StateVector,
    apply_mode_unitary,
    apply_pauli,
    basis_state,
    evolve,
    mode_unitaries,
    trajectory_sample,
)
from chainqec.noise import disordered_spec, inject_single_z
from chainqec.pauli import (
    PauliString,
    from_sites,
    identity,
    mask_of_sites,
    pauli_x,
    pauli_z,
    symplectic_rank,
)

T0 = np.pi / 2
TABLE_CODES = {"minimal15": minimal15(), "shor:2": shor_code(2), "shor:3": shor_code(3)}


def _options(alpha=1 / np.sqrt(2), beta=1 / np.sqrt(2), **kw):
    return DecodeOptions(mode="revival", alpha=alpha, beta=beta, **kw)


# --- measuring the checks (decode_pipeline branches) ---------------------------


def test_measure_stabilizer_eigenstate_single_branch(code15, plus_logical15):
    report = decode_pipeline(plus_logical15, code15, _options())
    assert report.discarded_mass == 0.0
    assert len(report.branches) == 1
    b = report.branches[0]
    assert b.x_outcomes + b.z_outcomes == (0,) * 14
    assert b.probability == pytest.approx(1.0, abs=1e-12)


def test_measure_deterministic_error_syndrome(code15, plus_logical15):
    noisy = apply_pauli(plus_logical15, pauli_x(15, 3))
    report = decode_pipeline(noisy, code15, _options())
    # X_3 anticommutes with Z2Z3 and Z3Z4 (generators 1 and 2 of block one)
    assert {b.x_outcomes for b in report.branches} == {(0, 1, 1, 0) + (0,) * 8}
    assert sum(b.probability for b in report.branches) == pytest.approx(1.0, abs=1e-12)


def test_measure_born_rule():
    # shor_code(2) has one bit-flip check, Z on all four sites: a mix of an
    # even and an odd basis state splits between its outcomes by the Born rule
    code = shor_code(2)
    for p_odd in (0.5, 0.3):
        amps = np.sqrt(1 - p_odd) * basis_state(4).amps + np.sqrt(p_odd) * basis_state(4, [4]).amps
        report = decode_pipeline(StateVector(amps, 4), code, _options())
        by_out = {(0,): 0.0, (1,): 0.0}
        for b in report.branches:
            by_out[b.x_outcomes] += b.probability
        assert by_out[(0,)] == pytest.approx(1 - p_odd)
        assert by_out[(1,)] == pytest.approx(p_odd)


def test_measure_probabilities_sum_to_one():
    rng = np.random.default_rng(41)
    code = shor_code(2)
    for trial in range(6):
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state = StateVector(v / np.linalg.norm(v), 4)
        report = decode_pipeline(state, code, _options(prune_below=0.05 * (trial % 2)))
        total = sum(b.probability for b in report.branches) + report.discarded_mass
        assert total == pytest.approx(1.0, abs=1e-12)


# --- X stage: the bit-flip table and its per-key arrays -------------------------


def _key(gens, err):
    """Syndrome key of `err`: bit g set iff it anticommutes with gens[g]."""
    return sum(1 << g for g, gen in enumerate(gens) if not err.commutes_with(gen))


def _x_stage(code, err):
    """(correction, flips) the tables give for the bit-flip syndrome of `err`."""
    t = decoder_tables(code)
    key = _key(code.x_detecting_generators, err)
    flips = t.x_table.get(key)
    assert t.correctable[key] == (flips is not None)
    if flips is None:
        assert t.x_mask[key] == 0 and t.z_trail[key] == 0
        return None, ()
    return PauliString(code.n_qubits, int(t.x_mask[key]), int(t.z_trail[key])), flips


def test_x_stage_trivial(code15):
    corr, flips = _x_stage(code15, identity(15))
    assert corr.is_identity()
    assert flips == ()


def test_x_stage_two_flips_trailing_string(code15):
    corr, flips = _x_stage(code15, from_sites(15, xs=(2, 9)))
    assert flips == (2, 9)
    assert corr == from_sites(15, xs=(2, 9), zs=(3, 4, 5, 6, 7, 8))


def test_x_stage_single_flip(code15):
    corr, flips = _x_stage(code15, from_sites(15, xs=(5,)))
    assert flips == (5,)
    assert corr == from_sites(15, xs=(5,), zs=(1, 2, 3, 4))


def test_x_stage_inverts_every_mode_string(code15):
    # the correction built from a single flip is exactly the site's mode string
    for k in range(1, 16):
        err = jordan_wigner(k, 15)
        corr, flips = _x_stage(code15, err)
        assert flips == (k,)
        prod = corr * err
        assert prod.x_mask == 0 and prod.z_mask == 0


def test_x_stage_uncorrectable(code15):
    # three flips across blocks: syndrome outside the weight-2 table
    corr, flips = _x_stage(code15, from_sites(15, xs=(2, 7, 12)))
    assert corr is None and flips == ()


@pytest.mark.parametrize("code_id", sorted(TABLE_CODES))
def test_table_entries_reproduce_their_keys(code_id):
    code = TABLE_CODES[code_id]
    t = decoder_tables(code)
    n = code.n_qubits
    for key, flips in t.x_table.items():
        assert _key(code.x_detecting_generators, from_sites(n, xs=flips)) == key
        assert t.x_mask[key] == mask_of_sites(n, flips)
    for key, sites in t.z_table.items():
        assert _key(code.z_detecting_generators, from_sites(n, zs=sites)) == key
    np.testing.assert_array_equal(np.flatnonzero(t.correctable), sorted(t.x_table))
    for arr in (t.correctable, t.x_mask, t.z_trail):
        assert not arr.flags.writeable
    assert decoder_tables(code) is t


def _pattern(n, distance):
    """Up to floor((distance-1)/2) distinct sites: an error pattern the code corrects."""
    return st.lists(st.integers(1, n), max_size=(distance - 1) // 2, unique=True)


def _is_stabilizer(code, p):
    """p adds nothing to the span of the checks (signs aside)."""
    return symplectic_rank(code.generators + (p,)) == len(code.generators)


@settings(max_examples=80, deadline=None)
@given(
    code_id=st.sampled_from(sorted(TABLE_CODES)),
    data=st.data(),
)
def test_drawn_correctable_pattern_decodes_up_to_a_stabilizer(code_id, data):
    code = TABLE_CODES[code_id]
    t = decoder_tables(code)
    n = code.n_qubits
    flips = data.draw(_pattern(n, code.dx), "flips")
    key = _key(code.x_detecting_generators, from_sites(n, xs=flips))
    assert _is_stabilizer(code, from_sites(n, xs=t.x_table[key]) * from_sites(n, xs=flips))
    # the trailing string is the Z part of the decoded flips' mode strings,
    # which run from site 1, with the flip sites left out
    expect = 0
    for k in t.x_table[key]:
        expect ^= mask_of_sites(n, range(1, k))
    assert t.z_trail[key] == expect & ~int(t.x_mask[key])
    zs = data.draw(_pattern(n, code.dz), "phase errors")
    z_key = _key(code.z_detecting_generators, from_sites(n, zs=zs))
    assert _is_stabilizer(code, from_sites(n, zs=t.z_table[z_key]) * from_sites(n, zs=zs))


def test_tables_guard_fires_before_allocation(monkeypatch):
    # 21 bit-flip checks would need 2^21-entry key arrays
    n = 22
    code = StabilizerCode(
        n_qubits=n,
        x_detecting_generators=tuple(from_sites(n, zs=(k, k + 1)) for k in range(1, n)),
        z_detecting_generators=(),
        logical_x=from_sites(n, xs=range(1, n + 1)),
        logical_z=pauli_z(n, 1),
        blocks=(tuple(range(1, n + 1)),),
        dx=3,
        dz=1,
        orientation="inner-bitflip",
    )
    monkeypatch.setattr(decoder, "np", None)  # any array call would fail differently
    with pytest.raises(ValueError, match="at most 20"):
        decoder_tables(code)
    with pytest.raises(ValueError, match="at most 20"):
        RevivalEvaluator(code, 1.0, 0.0)


# --- Z stage: the phase table and the cross-reference rule ----------------------


def _z_key(code, zsites):
    return _key(code.z_detecting_generators, from_sites(code.n_qubits, zs=zsites))


def test_z_stage_trivial(code15):
    assert decoder_tables(code15).cross_reference(0, ()) == ()


def test_z_stage_single_z_block2(code15):
    key = _z_key(code15, (7,))
    assert key == 0b11
    sites = decoder_tables(code15).cross_reference(key, ())
    assert len(sites) == 1 and sites[0] in code15.blocks[1]


def test_z_stage_cross_reference(code15):
    # phase syndrome points at block 3 but the flips sat in blocks 1 and 2
    sites = decoder_tables(code15).cross_reference(_z_key(code15, (12,)), (2, 9))
    assert sites == (2, 9)


def test_z_stage_no_cross_reference_when_block_has_flip(code15):
    sites = decoder_tables(code15).cross_reference(_z_key(code15, (7,)), (7,))
    assert sites == (7,)


# --- decode_pipeline: revival mode ----------------------------------------------


def test_pipeline_clean_state(code15, plus_logical15):
    report = decode_pipeline(plus_logical15, code15, _options())
    assert report.success_probability == pytest.approx(1.0, abs=1e-12)
    assert len(report.branches) == 1
    assert report.branches[0].corrected


def test_pipeline_fig1_single_z(code15, plus_logical15):
    # (a) one phase error: detected by the outer code and corrected
    for site in (1, 7, 15):
        noisy = apply_pauli(plus_logical15, pauli_z(15, site))
        report = decode_pipeline(noisy, code15, _options())
        assert report.success_probability == pytest.approx(1.0, abs=1e-9)


def test_pipeline_fig1_two_z_same_block(code15, plus_logical15):
    # (b) two phase errors in one block cancel at the logical level
    noisy = apply_pauli(plus_logical15, from_sites(15, zs=(6, 9)))
    report = decode_pipeline(noisy, code15, _options())
    assert report.success_probability == pytest.approx(1.0, abs=1e-9)


def test_pipeline_fig1_two_z_cross_reference(code15, plus_logical15):
    # (c) a pair of mode strings with flips in two blocks leaves phase errors
    # whose syndrome points at the third block; the cross-reference rule fires
    err = fermion_to_pauli(MajoranaMonomial(1.0, (15 + 2, 15 + 12)), 15)
    noisy = apply_pauli(plus_logical15, err)
    report = decode_pipeline(noisy, code15, _options())
    assert report.success_probability == pytest.approx(1.0, abs=1e-9)


def test_pipeline_corrects_every_two_mode_monomial(code15, plus_logical15):
    # any two-mode error (a full fermion pair) is corrected exactly
    rng = np.random.default_rng(42)
    for _ in range(12):
        a, b = sorted(rng.choice(np.arange(1, 31), size=2, replace=False))
        err = fermion_to_pauli(MajoranaMonomial(1.0, (int(a), int(b))), 15)
        noisy = apply_pauli(plus_logical15, err)
        report = decode_pipeline(noisy, code15, _options())
        assert report.success_probability >= 1 - 1e-9, (a, b)


def test_single_mode_errors_corrected_for_any_logical_state(code15):
    # one Majorana mode is parity-odd: only here does the side of the trailing
    # string matter, and the wrong side leaves a logical X, which a state other
    # than |+_L> exposes
    alpha, beta = 0.6, 0.8j
    psi0 = encode(code15, alpha, beta)
    # a single mode changes the excitation number: score on every basis index
    ev = RevivalEvaluator(code15, alpha, beta, np.arange(2**15))
    for mode in range(1, 31):
        noisy = apply_pauli(psi0, jordan_wigner(mode, 15))
        report = decode_pipeline(noisy, code15, _options(alpha, beta))
        assert report.success_probability == pytest.approx(1.0, abs=1e-12), mode
        assert ev.success(noisy.amps)[0] == pytest.approx(1.0, abs=1e-12), mode


def test_pipeline_deterministic(code15, plus_logical15):
    noisy = apply_pauli(plus_logical15, from_sites(15, ys=(7,)))
    r1 = decode_pipeline(noisy, code15, _options())
    r2 = decode_pipeline(noisy, code15, _options())
    assert r1.to_json() == r2.to_json()


def test_pipeline_branch_probabilities_sum(code15, chain15, plus_logical15):
    psi = inject_single_z(plus_logical15, chain15, 4, 0.7, 2 * T0)
    report = decode_pipeline(psi, code15, _options())
    total = sum(b.probability for b in report.branches) + report.discarded_mass
    assert total == pytest.approx(1.0, abs=1e-10)


def test_pipeline_single_z_mid_transfer(code15, chain15, plus_logical15):
    psi = inject_single_z(plus_logical15, chain15, 11, 1.234, 2 * T0)
    report = decode_pipeline(psi, code15, _options())
    assert report.success_probability >= 1 - 1e-9


def test_pipeline_prune_reports_discarded(code15, chain15, plus_logical15):
    psi = evolve(plus_logical15, chain15, 2 * T0 + 0.05)
    report = decode_pipeline(psi, code15, _options(prune_below=1e-6))
    assert report.discarded_mass > 0
    full = decode_pipeline(psi, code15, _options())
    assert abs(
        full.success_probability - report.success_probability
    ) <= report.discarded_mass + 1e-12


def test_pipeline_json_schema(code15, plus_logical15):
    report = decode_pipeline(plus_logical15, code15, _options())
    payload = json.loads(report.to_json())
    assert set(payload) == {"success_probability", "discarded_mass", "branches"}
    assert payload["branches"][0]["correction"].startswith("+")


# --- evaluator equivalence -------------------------------------------------------


def test_evaluator_matches_pipeline(code15, chain15, plus_logical15):
    # the X errors leave the encoded sectors: score on every basis index
    ev = RevivalEvaluator(code15, 1 / np.sqrt(2), 1 / np.sqrt(2), np.arange(2**15))
    states = [
        evolve(plus_logical15, chain15, 2 * T0 + 0.03),
        inject_single_z(plus_logical15, chain15, 8, 0.9, 2 * T0),
        apply_pauli(plus_logical15, from_sites(15, xs=(2, 9), zs=(4,))),
    ]
    for psi in states:
        slow = decode_pipeline(psi, code15, _options()).success_probability
        fast, _ = ev.success(psi.amps)
        assert fast == pytest.approx(slow, abs=1e-11)


def test_complex_weights_product_is_scipys_bit_for_bit(code15):
    # a complex reference gives W complex values, so its table takes the
    # cross term of the complex product; the product keeps scipy's bits on
    # the same matrix, and a row alone equals the same row in a stack of 16
    import scipy.sparse as sp

    ev = RevivalEvaluator(code15, 0.6, 0.48 + 0.64j)
    w = ev.weights
    assert np.abs(w.value.imag).max() > 0
    scipy_w = sp.csc_array((w.value, (w.row, w.col)), w.shape)
    scipy_w.sum_duplicates()
    rng = np.random.default_rng(67)
    rows = rng.normal(size=(16, ev.support.size)) + 1j * rng.normal(size=(16, ev.support.size))
    whole = rows @ w
    assert whole.tobytes() == (scipy_w.T @ np.ascontiguousarray(rows.T)).T.tobytes()
    np.testing.assert_array_equal(w.toarray(), scipy_w.toarray())
    for k in range(16):
        assert (rows[k] @ w).tobytes() == whole[k].tobytes()
    with pytest.raises(ValueError, match="size mismatch"):
        rows[:, 1:] @ w


def test_every_weight_column_matches_the_pipeline(code15):
    # every decodable flip pattern on the encoded state, plus a Z on one site
    # of each block (amplitudes 0.3, 0.03, 0.02): all four phase outcomes
    # occur, and two leaves fall below the 1e-3 threshold.  A reference with
    # <ref|X_L|ref> != 0, so that no column's overlap vanishes by symmetry
    alpha, beta = 0.6, 0.48 + 0.64j
    ref = encode(code15, alpha, beta)
    ev = RevivalEvaluator(code15, alpha, beta, np.arange(2**15))
    x_table = decoder_tables(code15).x_table
    assert len(x_table) == 121
    z_amps = (0.3, 0.03, 0.02)
    hit = np.zeros(ev.weights.shape[1], dtype=bool)
    for key, flips in x_table.items():
        flipped = apply_pauli(ref, from_sites(15, xs=flips))
        amps = np.sqrt(1 - sum(a**2 for a in z_amps)) * flipped.amps
        for blk, a in zip(code15.blocks, z_amps):
            amps = amps + a * apply_pauli(flipped, pauli_z(15, blk[key % len(blk)])).amps
        psi = StateVector(amps, 15)
        hit |= np.abs(amps @ ev.weights) > 1e-3
        for p in (0.0, 1e-3):
            want = decode_pipeline(psi, code15, _options(alpha, beta, prune_below=p))
            success, discarded = ev.success(amps, p)
            assert success == pytest.approx(want.success_probability, abs=1e-12), (flips, p)
            assert discarded == pytest.approx(want.discarded_mass, abs=1e-12), (flips, p)
            assert (discarded > 0) == (p > 0), (flips, p)
    assert hit.all()


def test_evaluator_clean(code15, plus_logical15):
    ev = RevivalEvaluator(code15, 1 / np.sqrt(2), 1 / np.sqrt(2))
    assert ev.success(plus_logical15.amps[ev.support])[0] == pytest.approx(1.0, abs=1e-12)


def test_evaluator_matches_pipeline_on_disorder_state(code15, chain15, plus_logical15):
    # the exact path exercised by the disorder sweeps
    from chainqec.noise import coupling_disorder

    perturbed, _ = coupling_disorder(chain15, 0.06, 17)
    psi = apply_mode_unitary(plus_logical15, mode_unitaries(perturbed, [np.pi])[0])
    ev = RevivalEvaluator(code15, 1 / np.sqrt(2), 1 / np.sqrt(2))
    slow = decode_pipeline(psi, code15, _options()).success_probability
    assert ev.success(psi.amps[ev.support])[0] == pytest.approx(slow, abs=1e-10)


def test_undecodable_branch_scores_exactly_zero(code15, plus_logical15):
    # the reference has bit-flip key 0, so its overlap with an undecodable
    # branch is exactly 0: the evaluator's weights need no column for one
    flips = from_sites(15, xs=(2, 7, 12))  # one flip per block: beyond the tables
    x_table = decoder_tables(code15).x_table
    assert _key(code15.x_detecting_generators, flips) not in x_table
    psi = apply_pauli(plus_logical15, flips)
    mass = float(np.sum(np.abs(psi.amps) ** 2))
    report = decode_pipeline(psi, code15, _options())
    assert [b.corrected for b in report.branches] == [False]
    ev = RevivalEvaluator(code15, 1 / np.sqrt(2), 1 / np.sqrt(2), np.arange(2**15))
    assert report.success_probability == 0.0
    assert ev.success(psi.amps) == (0.0, 0.0)
    # a threshold above the branch mass discards the whole branch
    pruned = decode_pipeline(psi, code15, _options(prune_below=2 * mass))
    for success, discarded in (
        (pruned.success_probability, pruned.discarded_mass), ev.success(psi.amps, 2 * mass),
    ):
        assert success == 0.0
        assert discarded == pytest.approx(mass, abs=1e-15)


def test_pruned_evaluator_matches_pipeline(code15, chain15, plus_logical15):
    from chainqec.noise import coupling_disorder

    perturbed, _ = coupling_disorder(chain15, 0.08, 3)
    # a decodable branch of mass 0.9 holding a phase leaf of mass 1e-4, and an
    # undecodable branch of mass 0.1 that pruning must not split into its leaves
    flipped = apply_pauli(plus_logical15, from_sites(15, xs=(2, 7, 12)))
    constructed = StateVector(
        np.sqrt(0.9 - 1e-4) * plus_logical15.amps
        + 1e-2 * apply_pauli(plus_logical15, pauli_z(15, 3)).amps
        + np.sqrt(0.1 - 1e-5) * flipped.amps
        + np.sqrt(1e-5) * apply_pauli(flipped, pauli_z(15, 3)).amps,
        15,
    )
    states = {
        "single_z": inject_single_z(plus_logical15, chain15, 6, 2.1, 2 * T0),
        "timing": apply_mode_unitary(plus_logical15, mode_unitaries(chain15, [2 * T0 + 0.05])[0]),
        "coupling": apply_mode_unitary(plus_logical15, mode_unitaries(perturbed, [2 * T0])[0]),
        "constructed": constructed,
    }
    # the constructed state's X flips leave the encoded sectors; the others
    # stay in them and are also scored on the default support
    full = RevivalEvaluator(code15, 1 / np.sqrt(2), 1 / np.sqrt(2), np.arange(2**15))
    ev = RevivalEvaluator(code15, 1 / np.sqrt(2), 1 / np.sqrt(2))
    whole_branch = leaves_only = False
    for name, psi in states.items():
        branch_mass: dict[tuple[int, ...], float] = {}
        for b in decode_pipeline(psi, code15, _options()).branches:
            branch_mass[b.x_outcomes] = branch_mass.get(b.x_outcomes, 0.0) + b.probability
        for p in (0.0, 1e-12, 1e-6, 1e-3, 3e-2):
            want = decode_pipeline(psi, code15, _options(prune_below=p, reference=plus_logical15))
            scored = [full.success(psi.amps, p)]
            if name != "constructed":
                scored.append(ev.success(psi.amps[ev.support], p))
            for success, discarded in scored:
                assert success == pytest.approx(want.success_probability, abs=1e-12), (name, p)
                assert discarded == pytest.approx(want.discarded_mass, abs=1e-12), (name, p)
            if want.discarded_mass > 0:
                if min(branch_mass.values()) < p:
                    whole_branch = True
                else:
                    leaves_only = True
    assert whole_branch and leaves_only


def test_expm_and_givens_agree_at_scale(code15, chain15, plus_logical15):
    # the expm oracle and the minors engine on the full 15-site encoded state
    for t in (1.1, -0.4, 2 * np.pi):
        a = evolve(plus_logical15, chain15, t)
        b = apply_mode_unitary(plus_logical15, mode_unitaries(chain15, [t])[0])
        assert np.abs(a.amps - b.amps).max() < 1e-10


def test_pipeline_and_evaluator_refuse_bad_prune_floors(code15, plus_logical15):
    # inf once discarded every branch, nan silently ran exactly
    evaluator = RevivalEvaluator(code15, 1 / np.sqrt(2), 1 / np.sqrt(2))
    row = plus_logical15.amps[evaluator.support]
    for prune in (np.inf, np.nan, -1e-3):
        with pytest.raises(ValueError, match="finite and >= 0"):
            decode_pipeline(plus_logical15, code15, _options(prune_below=prune))
        with pytest.raises(ValueError, match="finite and >= 0"):
            evaluator.success(row, prune)
    for prune in (0.0, -0.0, 1e-12):
        report = decode_pipeline(plus_logical15, code15, _options(prune_below=prune))
        assert report.success_probability == pytest.approx(1.0, abs=1e-12)
        assert evaluator.success(row, prune)[0] == pytest.approx(1.0, abs=1e-12)


def test_restricted_evaluator_refuses_pruned_calls(code15, chain15, plus_logical15):
    # pruned masses read the whole support, and the restricted evaluator once
    # built its pruning tables on its own 154 positions: on U(2T + 0.05) it
    # gave 9.18e-12 of discarded mass at 1e-12 where the pipeline gives 3.20e-11
    ev = RevivalEvaluator(code15, 1 / np.sqrt(2), 1 / np.sqrt(2))
    read = ev.restricted()
    psi = apply_mode_unitary(plus_logical15, mode_unitaries(chain15, [2 * T0 + 0.05])[0])
    row = psi.amps[ev.support]
    at_read = row[np.unique(ev.weights.row)]
    for p in (1e-12, 1e-3):
        with pytest.raises(ValueError, match="restricted evaluator scores exact calls only"):
            read.success(at_read, p)
        want = decode_pipeline(psi, code15, _options(prune_below=p))
        success, discarded = ev.success(row, p)
        assert success == pytest.approx(want.success_probability, abs=1e-12)
        assert discarded == pytest.approx(want.discarded_mass, abs=1e-12)
    # exact calls score as the whole-support evaluator does, bit for bit
    for p in (0.0, -0.0):
        assert read.success(at_read, p) == ev.success(row)
    assert read.restricted_from is ev and ev.restricted_from is None


def test_pipeline_and_evaluator_refuse_x_type_bit_flip_checks(code15, plus_logical15):
    checks = code15.x_detecting_generators[:-1] + (from_sites(15, xs=(14, 15)),)
    code = replace(code15, x_detecting_generators=checks)
    with pytest.raises(ValueError, match="Z-type"):
        decode_pipeline(plus_logical15, code, _options())
    with pytest.raises(ValueError, match="Z-type"):
        RevivalEvaluator(code, 1 / np.sqrt(2), 1 / np.sqrt(2))


@pytest.mark.parametrize("support", [
    [-1, 0],  # once read as basis index 2^15 - 1 through a negative index
    [0, 0, 5],  # the second 0 once took the first one's position
    [0, 2**15],  # once a bare IndexError
    [0, 2.5],
    [[0, 5]],
], ids=["negative", "repeated", "past-the-end", "fraction", "not-flat"])
def test_evaluator_refuses_a_bad_support_before_building_tables(code15, support, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(RevivalEvaluator, "_positions", refuse)
    monkeypatch.setattr(decoder, "FixedOrderTable", refuse)
    with pytest.raises(ValueError, match=r"distinct whole numbers in \[0, 2\^N\), N = 15"):
        RevivalEvaluator(code15, 1 / np.sqrt(2), 1 / np.sqrt(2), support=support)


def test_evaluator_on_a_support_in_any_order_scores_as_on_the_default(code15, plus_logical15):
    # the default support is descending within each sector: order is not part
    # of the rule, and a reordered support scores the same state alike
    ev = RevivalEvaluator(code15, 1 / np.sqrt(2), 1 / np.sqrt(2))
    shuffled = np.random.default_rng(7).permutation(ev.support)
    other = RevivalEvaluator(code15, 1 / np.sqrt(2), 1 / np.sqrt(2), support=shuffled.astype(float))
    assert other.support.dtype == np.int64
    rng = np.random.default_rng(8)
    amps = rng.standard_normal(2**15) + 1j * rng.standard_normal(2**15)
    want = ev.success(amps[ev.support])[0]
    assert other.success(amps[other.support])[0] == pytest.approx(want, rel=1e-12)


def test_pipeline_rejects_reference_of_wrong_size(code15, plus_logical15):
    # a 16-qubit reference for the 15-qubit code
    with pytest.raises(ValueError, match="reference"):
        decode_pipeline(plus_logical15, code15, _options(reference=basis_state(16)))


def test_pipeline_refuses_unknown_mode(code15):
    # the revival read-out is the only one: any other mode is refused before
    # the state is read (None would fail on its first attribute)
    with pytest.raises(ValueError, match="unknown mode"):
        decode_pipeline(None, code15, DecodeOptions(mode="general"))


def test_pipeline_honest_beyond_capability(code15, plus_logical15):
    # three flips alias a lighter syndrome or get flagged; either way the
    # report stays a valid probability account and the success is honest
    noisy = apply_pauli(plus_logical15, from_sites(15, xs=(2, 7, 12)))
    report = decode_pipeline(noisy, code15, _options())
    total = sum(b.probability for b in report.branches)
    assert total == pytest.approx(1.0, abs=1e-10)
    assert 0.0 <= report.success_probability <= 1.0 + 1e-12
    assert report.success_probability < 0.5


def test_revival_mode_on_phaseflip_inner_code():
    # detection-only code on a 4-site chain: clean revival decodes cleanly,
    # a mid-transfer phase flip produces undecodable branches, not errors
    code = shor_code(2)
    spec = pst_couplings(4)
    enc = encode(code, 0.6, 0.8)
    opts = DecodeOptions(mode="revival", alpha=0.6, beta=0.8)
    assert decode_pipeline(enc, code, opts).success_probability == pytest.approx(1.0, abs=1e-10)
    noisy = inject_single_z(enc, spec, 2, 0.9, np.pi)
    report = decode_pipeline(noisy, code, opts)
    assert 0.0 <= report.success_probability <= 1.0 + 1e-12
    r2 = decode_pipeline(noisy, code, opts)
    assert r2.to_json() == report.to_json()


# --- success probability end to end: RevivalSetup and trajectories -------------


def test_success_probability_noiseless(chain15):
    setup = RevivalSetup(chain15, 1 / np.sqrt(2), 1 / np.sqrt(2))
    success, discarded = setup.success_mode_unitaries(mode_unitaries(chain15, [setup.duration]))
    assert success[0] == pytest.approx(1.0, abs=1e-9)
    assert discarded[0] == 0.0


def test_success_probability_single_z_input_independent(chain15):
    s = 1 / np.sqrt(2)
    vals = [
        RevivalSetup(chain15, *logical).success_single_z([6], [1.1])[0][0]
        for logical in [(1, 0), (0, 1), (s, s), (s, 1j * s)]
    ]
    for v in vals:
        assert v == pytest.approx(1.0, abs=1e-9)
    assert max(vals) - min(vals) < 1e-9


def test_success_probability_timing_between_zero_and_one(chain15):
    setup = RevivalSetup(chain15, 1 / np.sqrt(2), 1 / np.sqrt(2))
    val = setup.success_mode_unitaries(mode_unitaries(chain15, [setup.duration + 0.3 / 14]))[0][0]
    assert 0.0 < val < 1.0


def test_success_probability_coupling_reproducible(chain15):
    setup = RevivalSetup(chain15, 1, 0)
    a, b = (
        setup.success_mode_unitaries(
            mode_unitaries(disordered_spec(chain15, 0.02, 11)[0], [setup.duration])
        )[0][0]
        for _ in range(2)
    )
    assert a == b
    assert 0.0 < a <= 1.0


def test_success_probability_dephasing_trajectory(code15, chain15, plus_logical15):
    psi, _ = trajectory_sample(plus_logical15, 0.002, 2 * T0, 3, chain15)
    val = decode_pipeline(psi, code15, _options()).success_probability
    assert 0.0 <= val <= 1.0 + 1e-12
