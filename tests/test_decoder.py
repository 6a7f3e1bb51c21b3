import numpy as np
import pytest

from chainqec.chain import analyze_transfer, pst_couplings
from chainqec.code import encode, shor_code
from chainqec.decoder import (
    DecodeOptions,
    RevivalEvaluator,
    clean_arrival_frame,
    decode_pipeline,
    measure_generators,
    mirror_code,
    success_probability,
    x_stage,
    z_stage,
    SyndromeBranch,
)
from chainqec.freefermion import MajoranaMonomial, fermion_to_pauli, jordan_wigner
from chainqec.hilbert import StateVector, apply_pauli, basis_state, evolve
from chainqec.noise import (
    coupling_scenario,
    dephasing_trajectory_scenario,
    inject_single_z,
    single_z_scenario,
    timing_scenario,
)
from chainqec.pauli import from_label, from_sites, pauli_x, pauli_z

T0 = np.pi / 2


# --- measure_generators -------------------------------------------------------


def test_measure_stabilizer_eigenstate_single_branch(code15, plus_logical15):
    branches, discarded = measure_generators(plus_logical15, code15.generators)
    assert discarded == 0.0
    assert len(branches) == 1
    b = branches[0]
    assert b.outcomes == (0,) * 14
    assert b.probability == pytest.approx(1.0, abs=1e-12)


def test_measure_deterministic_error_syndrome(code15, plus_logical15):
    noisy = apply_pauli(plus_logical15, pauli_x(15, 3))
    branches, _ = measure_generators(noisy, code15.x_detecting_generators)
    assert len(branches) == 1
    # X_3 anticommutes with Z2Z3 and Z3Z4 (generators 1 and 2 of block one)
    assert branches[0].outcomes == (0, 1, 1, 0) + (0,) * 8


def test_measure_born_rule():
    # (|00> + |11>)/sqrt(2): measuring Z1 gives both outcomes at 1/2
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = amps[0b11] = 1 / np.sqrt(2)
    state = StateVector(amps, 2)
    branches, _ = measure_generators(state, [pauli_z(2, 1)])
    probs = sorted(b.probability for b in branches)
    assert probs == [pytest.approx(0.5), pytest.approx(0.5)]
    mixed = np.sqrt(0.3) * basis_state(2, [1]).amps + np.sqrt(0.7) * basis_state(2).amps
    branches, _ = measure_generators(StateVector(mixed, 2), [pauli_z(2, 1)])
    by_out = {b.outcomes: b.probability for b in branches}
    assert by_out[(0,)] == pytest.approx(0.7)
    assert by_out[(1,)] == pytest.approx(0.3)


def test_measure_rejects_noncommuting():
    with pytest.raises(ValueError):
        measure_generators(basis_state(2), [pauli_x(2, 1), pauli_z(2, 1)])


def test_measure_probabilities_sum_to_one():
    rng = np.random.default_rng(41)
    code = shor_code(2)
    for _ in range(5):
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        state = StateVector(v / np.linalg.norm(v), 4)
        branches, discarded = measure_generators(state, code.generators)
        assert sum(b.probability for b in branches) + discarded == pytest.approx(1.0, abs=1e-12)


# --- x_stage -------------------------------------------------------------------


def _branch_with_outcomes(outcomes):
    return SyndromeBranch(tuple(outcomes), 1.0, basis_state(15))


def _x_syndrome(code, sites):
    err = from_sites(15, xs=sites)
    return tuple(0 if err.commutes_with(g) else 1 for g in code.x_detecting_generators)


def test_x_stage_trivial(code15):
    corr, flips = x_stage(_branch_with_outcomes((0,) * 12), code15)
    assert corr.is_identity()
    assert flips == ()


def test_x_stage_two_flips_trailing_string(code15):
    corr, flips = x_stage(_branch_with_outcomes(_x_syndrome(code15, (2, 9))), code15)
    assert flips == (2, 9)
    assert corr == from_sites(15, xs=(2, 9), zs=(3, 4, 5, 6, 7, 8))


def test_x_stage_single_flip(code15):
    corr, flips = x_stage(_branch_with_outcomes(_x_syndrome(code15, (5,))), code15)
    assert flips == (5,)
    assert corr == from_sites(15, xs=(5,), zs=(1, 2, 3, 4))


def test_x_stage_inverts_every_mode_string(code15):
    # the correction built from a single flip is exactly the site's mode string
    for k in range(1, 16):
        err = jordan_wigner(k, 15)
        synd = tuple(0 if err.commutes_with(g) else 1 for g in code15.x_detecting_generators)
        corr, flips = x_stage(_branch_with_outcomes(synd), code15)
        assert flips == (k,)
        prod = corr * err
        assert prod.x_mask == 0 and prod.z_mask == 0


def test_x_stage_trailing_side_above(code15):
    synd = _x_syndrome(code15, (5,))
    corr, _ = x_stage(_branch_with_outcomes(synd), code15, trailing_side="above")
    assert corr == from_sites(15, xs=(5,), zs=tuple(range(6, 16)))


def test_x_stage_uncorrectable(code15):
    # three flips across blocks: syndrome outside the weight-2 table
    synd = _x_syndrome(code15, (2, 7, 12))
    corr, flips = x_stage(_branch_with_outcomes(synd), code15)
    assert corr is None and flips == ()


# --- z_stage -------------------------------------------------------------------


def _z_syndrome(code, zsites):
    err = from_sites(15, zs=zsites)
    return tuple(0 if err.commutes_with(g) else 1 for g in code.z_detecting_generators)


def test_z_stage_trivial(code15):
    corr = z_stage(SyndromeBranch((0, 0), 1.0, basis_state(15)), code15, ())
    assert corr.is_identity()


def test_z_stage_single_z_block2(code15):
    synd = _z_syndrome(code15, (7,))
    assert synd == (1, 1)
    corr = z_stage(SyndromeBranch(synd, 1.0, basis_state(15)), code15, ())
    sites = corr.sites()
    assert len(sites) == 1 and sites[0] in code15.blocks[1]


def test_z_stage_cross_reference(code15):
    # phase syndrome points at block 3 but the flips sat in blocks 1 and 2
    synd = _z_syndrome(code15, (12,))
    corr = z_stage(SyndromeBranch(synd, 1.0, basis_state(15)), code15, (2, 9))
    assert corr == from_sites(15, zs=(2, 9))


def test_z_stage_no_cross_reference_when_block_has_flip(code15):
    synd = _z_syndrome(code15, (7,))
    corr = z_stage(SyndromeBranch(synd, 1.0, basis_state(15)), code15, (7,))
    assert corr == from_sites(15, zs=(7,))


# --- decode_pipeline: revival mode ----------------------------------------------


def _options(alpha=1 / np.sqrt(2), beta=1 / np.sqrt(2), **kw):
    return DecodeOptions(mode="revival", alpha=alpha, beta=beta, **kw)


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


def test_pipeline_deterministic(code15, plus_logical15):
    noisy = apply_pauli(plus_logical15, from_label("+" + "I" * 6 + "Y" + "I" * 8))
    r1 = decode_pipeline(noisy, code15, _options())
    r2 = decode_pipeline(noisy, code15, _options())
    assert r1.to_json() == r2.to_json()


def test_pipeline_branch_probabilities_sum(code15, chain15, plus_logical15, warm_cache15):
    psi = inject_single_z(plus_logical15, chain15, 4, 0.7, 2 * T0)
    report = decode_pipeline(psi, code15, _options())
    total = sum(b.probability for b in report.branches) + report.discarded_mass
    assert total == pytest.approx(1.0, abs=1e-10)


def test_pipeline_single_z_mid_transfer(code15, chain15, plus_logical15, warm_cache15):
    psi = inject_single_z(plus_logical15, chain15, 11, 1.234, 2 * T0)
    report = decode_pipeline(psi, code15, _options())
    assert report.success_probability >= 1 - 1e-9


def test_pipeline_threshold_metric(code15, chain15, plus_logical15, warm_cache15):
    psi = evolve(plus_logical15, chain15, 2 * T0 + 0.02)
    fid_report = decode_pipeline(psi, code15, _options())
    thr_report = decode_pipeline(psi, code15, _options(success_metric="threshold"))
    assert 0 < thr_report.success_probability <= 1
    # counting metric cannot exceed the fidelity-weighted one by construction here
    assert thr_report.success_probability == pytest.approx(
        sum(b.probability for b in fid_report.branches if b.fidelity >= 1 - 1e-6), abs=1e-12
    )


def test_pipeline_prune_reports_discarded(code15, chain15, plus_logical15, warm_cache15):
    psi = evolve(plus_logical15, chain15, 2 * T0 + 0.05)
    report = decode_pipeline(psi, code15, _options(prune_below=1e-6))
    assert report.discarded_mass > 0
    full = decode_pipeline(psi, code15, _options())
    assert abs(
        full.success_probability - report.success_probability
    ) <= report.discarded_mass + 1e-12


def test_pipeline_json_schema(code15, plus_logical15):
    import json

    report = decode_pipeline(plus_logical15, code15, _options())
    payload = json.loads(report.to_json())
    assert set(payload) == {"success_probability", "discarded_mass", "metric", "branches"}
    assert payload["branches"][0]["correction"].startswith("+")


# --- evaluator equivalence -------------------------------------------------------


def test_evaluator_matches_pipeline(code15, chain15, plus_logical15, warm_cache15):
    ev = RevivalEvaluator(code15, 1 / np.sqrt(2), 1 / np.sqrt(2))
    states = [
        evolve(plus_logical15, chain15, 2 * T0 + 0.03),
        inject_single_z(plus_logical15, chain15, 8, 0.9, 2 * T0),
        apply_pauli(plus_logical15, from_sites(15, xs=(2, 9), zs=(4,))),
    ]
    for psi in states:
        slow = decode_pipeline(psi, code15, _options()).success_probability
        fast = ev.success(psi.amps)
        assert fast == pytest.approx(slow, abs=1e-11)


def test_evaluator_clean(code15, plus_logical15):
    ev = RevivalEvaluator(code15, 1 / np.sqrt(2), 1 / np.sqrt(2))
    assert ev.success(plus_logical15.amps) == pytest.approx(1.0, abs=1e-12)


def test_evaluator_matches_pipeline_on_disorder_state(code15, chain15, plus_logical15):
    # the exact path exercised by the disorder sweeps
    from chainqec.noise import coupling_disorder

    perturbed, _ = coupling_disorder(chain15, 0.06, 17)
    psi = evolve(plus_logical15, perturbed, np.pi, method="givens")
    ev = RevivalEvaluator(code15, 1 / np.sqrt(2), 1 / np.sqrt(2))
    slow = decode_pipeline(psi, code15, _options()).success_probability
    assert ev.success(psi.amps) == pytest.approx(slow, abs=1e-10)


def test_eig_and_givens_agree_at_scale(code15, chain15, plus_logical15, warm_cache15):
    # both production evolution paths on the full 15-site encoded state
    for t in (1.1, -0.4, 2 * np.pi):
        a = evolve(plus_logical15, chain15, t, method="eig")
        b = evolve(plus_logical15, chain15, t, method="givens")
        assert np.abs(a.amps - b.amps).max() < 1e-10


# --- general mode ----------------------------------------------------------------


def _general_setup(n_chain=6, seed=5):
    """shor_code(2) on the first 4 sites of a 6-site engineered chain."""
    code = shor_code(2)
    spec = pst_couplings(n_chain)
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
    enc = encode(code, a / norm, b / norm)
    rest = np.zeros(1 << (n_chain - code.n_qubits), dtype=complex)
    rest[0] = 1.0
    # code on sites 1..4 (high bits), uninitialised tail on sites 5,6
    joint = StateVector(np.kron(enc.amps, rest), n_chain)
    return code, spec, joint


def _general_reference(arrived, code, phase):
    """Pure region state of the clean arrival after undoing the dressing."""
    from chainqec.decoder import _restore_region

    m = code.n_qubits
    restored = _restore_region(arrived, m, phase)
    mat = restored.reshape(-1, 1 << m)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    assert s[0] == pytest.approx(1.0, abs=1e-10)  # region is pure
    return StateVector(vh[0], m)


def test_general_mode_clean_arrival():
    code, spec, joint = _general_setup()
    rep = analyze_transfer(spec)
    arrived = evolve(joint, spec, rep.transfer_time)
    frame = clean_arrival_frame(arrived, code, rep.global_phase)
    ref = _general_reference(arrived, code, rep.global_phase)
    opts = DecodeOptions(
        mode="general", reference=ref, syndrome_frame=frame, arrival_phase=rep.global_phase
    )
    report = decode_pipeline(arrived, code, opts)
    assert report.success_probability == pytest.approx(1.0, abs=1e-9)


def test_general_mode_detects_injected_error():
    code, spec, joint = _general_setup()
    rep = analyze_transfer(spec)
    clean = evolve(joint, spec, rep.transfer_time)
    frame = clean_arrival_frame(clean, code, rep.global_phase)
    ref = _general_reference(clean, code, rep.global_phase)
    opts = DecodeOptions(
        mode="general", reference=ref, syndrome_frame=frame, arrival_phase=rep.global_phase
    )
    # an X on an arrived code qubit: distance 2 detects but cannot correct
    noisy = apply_pauli(clean, pauli_x(spec.n_sites, 5))
    report = decode_pipeline(noisy, code, opts)
    assert report.success_probability < 0.5
    assert any(not b.corrected for b in report.branches)


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


def test_mirror_code_structure(code15):
    m = mirror_code(code15)
    m.validate()
    assert m.blocks[0] == tuple(range(1, 6))
    # mirroring twice restores the original generators
    again = mirror_code(m)
    assert again.x_detecting_generators == code15.x_detecting_generators


# --- success_probability ----------------------------------------------------------


def test_success_probability_noiseless(code15, chain15, warm_cache15):
    val = success_probability(
        (1 / np.sqrt(2), 1 / np.sqrt(2)), timing_scenario(0.0), code15, chain15
    )
    assert val == pytest.approx(1.0, abs=1e-9)


def test_success_probability_single_z_input_independent(code15, chain15, warm_cache15):
    s = 1 / np.sqrt(2)
    scn = single_z_scenario(6, 1.1)
    vals = [
        success_probability(logical, scn, code15, chain15)
        for logical in [(1, 0), (0, 1), (s, s), (s, 1j * s)]
    ]
    for v in vals:
        assert v == pytest.approx(1.0, abs=1e-9)
    assert max(vals) - min(vals) < 1e-9


def test_success_probability_timing_between_zero_and_one(code15, chain15, warm_cache15):
    val = success_probability(
        (1 / np.sqrt(2), 1 / np.sqrt(2)), timing_scenario(0.3 / 14), code15, chain15
    )
    assert 0.0 < val < 1.0


def test_success_probability_coupling_reproducible(code15, chain15, warm_cache15):
    scn = coupling_scenario(0.02, seed=11)
    a = success_probability((1, 0), scn, code15, chain15, evolve_method="givens")
    b = success_probability((1, 0), scn, code15, chain15, evolve_method="givens")
    assert a == b
    assert 0.0 < a <= 1.0


def test_success_probability_dephasing_trajectory(code15, chain15, warm_cache15):
    scn = dephasing_trajectory_scenario(0.002, seed=3)
    val = success_probability((1 / np.sqrt(2), 1 / np.sqrt(2)), scn, code15, chain15)
    assert 0.0 <= val <= 1.0 + 1e-12
