import numpy as np
import pytest

from chainqec.chain import ChainSpec, pst_couplings, single_excitation_matrix
from chainqec.freefermion import mode_propagator_for, pauli_to_fermion, propagate
from chainqec.hilbert import StateVector, apply_pauli, basis_state, evolve, fidelity
from chainqec.noise import (
    ErrorScenario,
    coupling_disorder,
    coupling_scenario,
    dephasing_trajectory_scenario,
    disordered_spec,
    inject_single_z,
    single_z_scenario,
    timing_offset,
    timing_scenario,
)
from chainqec.pauli import pauli_z


def random_state(rng, n):
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(v / np.linalg.norm(v), n)


def test_scenario_json_roundtrip():
    for scn in [
        single_z_scenario(3, 0.7, 2.0),
        timing_scenario(0.01),
        coupling_scenario(0.05, 9),
        dephasing_trajectory_scenario(0.1, 3.0, 4),
    ]:
        again = ErrorScenario.from_json(scn.to_json())
        assert again == scn


def test_scenario_validation():
    with pytest.raises(ValueError):
        ErrorScenario("flux_noise", {})
    with pytest.raises(ValueError):
        coupling_scenario(1.5, 0)
    with pytest.raises(ValueError):
        dephasing_trajectory_scenario(-0.1)


def test_inject_single_z_at_end_is_plain_z():
    rng = np.random.default_rng(51)
    spec = pst_couplings(4)
    psi = random_state(rng, 4)
    out = inject_single_z(psi, spec, 2, 1.0, 1.0)
    expected = apply_pauli(evolve(psi, spec, 1.0), pauli_z(4, 2))
    np.testing.assert_allclose(out.amps, expected.amps, atol=1e-10)


def test_inject_single_z_at_start():
    rng = np.random.default_rng(52)
    spec = pst_couplings(4)
    psi = random_state(rng, 4)
    out = inject_single_z(psi, spec, 1, 0.0, 0.8)
    expected = evolve(apply_pauli(psi, pauli_z(4, 1)), spec, 0.8)
    np.testing.assert_allclose(out.amps, expected.amps, atol=1e-10)


def test_inject_single_z_range_checks():
    spec = pst_couplings(3)
    psi = basis_state(3)
    with pytest.raises(ValueError):
        inject_single_z(psi, spec, 4, 0.1, 1.0)
    with pytest.raises(ValueError):
        inject_single_z(psi, spec, 1, 2.0, 1.0)


def test_inject_single_z_matches_propagated_operator():
    # e^{-iH(T-t)} Z_s e^{-iHt} psi equals the Heisenberg-propagated error
    # applied to the cleanly evolved state
    rng = np.random.default_rng(53)
    for n in (3, 4, 5):
        spec = ChainSpec(n, tuple(rng.uniform(0.4, 1.3, n - 1)), (0.0,) * n)
        psi = random_state(rng, n)
        site, t_err, total = int(rng.integers(1, n + 1)), 0.6, 1.7
        direct = inject_single_z(psi, spec, site, t_err, total)
        prop = mode_propagator_for(spec, total - t_err)
        err_op = propagate(pauli_to_fermion(pauli_z(n, site)), prop)
        clean = evolve(psi, spec, total)
        indirect = np.zeros_like(clean.amps)
        for coeff, p in err_op.to_pauli_sum():
            indirect += coeff * apply_pauli(clean, p).amps
        np.testing.assert_allclose(direct.amps, indirect, atol=1e-10)


def test_timing_offset_zero_delta():
    rng = np.random.default_rng(54)
    spec = pst_couplings(5)
    psi = random_state(rng, 5)
    out, smallness = timing_offset(psi, spec, 0.9, 0.0)
    assert smallness == 0.0
    np.testing.assert_allclose(out.amps, evolve(psi, spec, 0.9).amps, atol=1e-12)


def test_timing_offset_smallness_report():
    spec = pst_couplings(15)
    psi = basis_state(15, [1])
    _, smallness = timing_offset(psi, spec, 0.0, 0.01)
    np.testing.assert_allclose(smallness, 0.14, atol=1e-10)  # 0.01 * (N-1)


def test_timing_offset_fidelity_decreases_continuously():
    spec = pst_couplings(5)
    psi = basis_state(5, [1, 3])
    nominal = np.pi / 2
    ref, _ = timing_offset(psi, spec, nominal, 0.0)
    fids = []
    for delta in (0.0, 0.01, 0.03, 0.08):
        out, _ = timing_offset(psi, spec, nominal, delta)
        fids.append(fidelity(ref, out))
    assert fids[0] == pytest.approx(1.0, abs=1e-12)
    assert all(fids[i] > fids[i + 1] for i in range(len(fids) - 1))


def test_coupling_disorder_zero_fraction():
    spec = pst_couplings(6)
    perturbed, zeta = coupling_disorder(spec, 0.0, 123)
    assert perturbed == spec
    assert zeta == 0.0


def test_coupling_disorder_bounds_and_reproducibility():
    spec = pst_couplings(8)
    f = 0.07
    p1, z1 = coupling_disorder(spec, f, 99)
    p2, z2 = coupling_disorder(spec, f, 99)
    assert p1 == p2 and z1 == z2
    p3, _ = coupling_disorder(spec, f, 100)
    assert p3 != p1
    for j, j0 in zip(p1.couplings, spec.couplings):
        assert (1 - f) * j0 <= j <= (1 + f) * j0
    assert p1.fields == spec.fields
    # perturbation norm bounded by the worst tridiagonal row sum
    assert z1 <= 2 * f * max(spec.couplings) + 1e-12


def test_coupling_disorder_zeta_matches_matrix_norm():
    spec = pst_couplings(5)
    perturbed, zeta = coupling_disorder(spec, 0.05, 7)
    dh = single_excitation_matrix(perturbed) - single_excitation_matrix(spec)
    np.testing.assert_allclose(zeta, np.max(np.abs(np.linalg.eigvalsh(dh))), atol=1e-12)


def test_disordered_spec_field_option():
    spec = ChainSpec(4, (1.0, 1.0, 1.0), (0.5, 0.5, 0.5, 0.5))
    perturbed, _ = disordered_spec(spec, 0.1, 5, perturb_fields=True)
    assert perturbed.fields != spec.fields


def test_single_z_time_sweep_always_corrected(code15, chain15, plus_logical15, warm_cache15):
    # the headline invariant: the pipeline wins at every injection time
    from chainqec.decoder import DecodeOptions, decode_pipeline

    for t_err in np.linspace(0.0, np.pi, 7):
        psi = inject_single_z(plus_logical15, chain15, 9, float(t_err), np.pi)
        report = decode_pipeline(psi, code15, DecodeOptions(mode="revival"))
        assert report.success_probability >= 1 - 1e-9, t_err


def test_coupling_success_converges_as_disorder_vanishes(code15, chain15, warm_cache15):
    from chainqec.decoder import success_probability

    logical = (1 / np.sqrt(2), 1 / np.sqrt(2))
    vals = [
        success_probability(
            logical, coupling_scenario(f, seed=3), code15, chain15,
            evolve_method="givens",
        )
        for f in (3e-3, 1e-3, 3e-4)
    ]
    assert all(np.diff(vals) > 0) or vals[-1] > 1 - 1e-5
    assert vals[-1] > 1 - 1e-4


def test_trajectory_region_errors_match_mode_estimate():
    # each jump errors two fermionic modes, so for small rates the expected
    # fermionic-error count on an M-site region approaches 2M * p_mode
    from chainqec.freefermion import chi_decay
    from chainqec.hilbert import basis_state, trajectory_sample

    spec = pst_couplings(4)
    psi = basis_state(4)
    gamma, duration, m_region = 0.01, 1.5, 2
    n_traj = 1500
    jump_count = 0
    for seed in range(n_traj):
        _, jumps = trajectory_sample(psi, gamma, duration, seed, spec)
        jump_count += sum(1 for _, site in jumps if site > spec.n_sites - m_region)
    mode_errors = 2 * jump_count / n_traj
    _, p_mode = chi_decay(gamma, duration)
    estimate = 2 * m_region * p_mode
    sigma = 2 * np.sqrt(gamma * duration * m_region / n_traj)
    assert abs(mode_errors - estimate) < 4 * sigma + 0.05 * estimate
