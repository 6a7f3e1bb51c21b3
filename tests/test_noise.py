import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chainqec
from chainqec.chain import ChainSpec, pst_couplings, single_excitation_matrix
from chainqec.freefermion import mode_propagator, pauli_to_fermion, propagate
from chainqec.hilbert import (
    StateVector,
    apply_pauli,
    basis_state,
    evolve,
    fidelity,
    mode_unitaries,
    trajectory_sample,
)
from chainqec.noise import coupling_disorder, disordered_spec, inject_single_z
from chainqec.pauli import pauli_z


def random_state(rng, n):
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(v / np.linalg.norm(v), n)


def test_scenario_validation():
    spec = pst_couplings(3)
    with pytest.raises(ValueError):
        coupling_disorder(spec, 1.5, 0)
    with pytest.raises(ValueError, match="gamma must be nonnegative"):
        trajectory_sample(basis_state(3), -0.1, 1.0, 0, spec)
    # refused by name before any draw, not by the Poisson sampler
    for gamma, duration in ((np.nan, 1.0), (np.inf, 1.0), (0.1, np.nan), (0.1, np.inf)):
        with pytest.raises(ValueError, match="gamma and duration must be finite"):
            trajectory_sample(basis_state(3), gamma, duration, 0, spec)
    with pytest.raises(ValueError, match="duration must be nonnegative"):
        trajectory_sample(basis_state(3), 0.1, -1.0, 0, spec)


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
    # the site rule of every single-Z entry: 1.7 is not truncated to site 1,
    # nor 0 read as site N through a negative index
    for site in (1.7, 0, 4):
        with pytest.raises(ValueError, match="whole number in 1..N"):
            inject_single_z(psi, spec, site, 0.1, 1.0)
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
        prop = mode_propagator(single_excitation_matrix(spec), total - t_err)
        err_op = propagate(pauli_to_fermion(pauli_z(n, site)), prop)
        clean = evolve(psi, spec, total)
        indirect = np.zeros_like(clean.amps)
        for coeff, p in err_op.to_pauli_sum():
            indirect += coeff * apply_pauli(clean, p).amps
        np.testing.assert_allclose(direct.amps, indirect, atol=1e-10)


def test_timing_offset_fidelity_decreases_continuously():
    # a readout offset delta is evolve to nominal + delta
    spec = pst_couplings(5)
    psi = basis_state(5, [1, 3])
    nominal = np.pi / 2
    ref = evolve(psi, spec, nominal)
    fids = []
    for delta in (0.0, 0.01, 0.03, 0.08):
        out = evolve(psi, spec, nominal + delta)
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


# ru_maxrss is no use here: on Linux a spawned child inherits the spawning
# process's peak through exec, so under pytest it reads pytest's own peak.
# VmHWM is the peak resident size of this interpreter's memory map alone.
_COLD_DEFAULT = """
import json
import numpy as np
from chainqec import encode, inject_single_z, minimal15, pst_couplings
from chainqec.hilbert import apply_mode_unitary, jump_unitary

spec = pst_couplings(15)
psi = encode(minimal15(), 1 / np.sqrt(2), 1 / np.sqrt(2))
noisy = inject_single_z(psi, spec, site=7, t_err=1.1, total_time=np.pi)
with open("/proc/self/status") as fh:
    peak_kib = int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
fast = apply_mode_unitary(psi, jump_unitary(spec, np.pi, [(1.1, 7)]))
print(json.dumps({"peak_kib": peak_kib, "diff": float(np.abs(noisy.amps - fast.amps).max())}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_cold_default_inject_single_z_is_cheap():
    # the README's call with the default method, in a fresh interpreter
    src = str(Path(chainqec.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _COLD_DEFAULT], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    out = json.loads(run.stdout)
    assert out["peak_kib"] < 200 * 1024
    assert out["diff"] < 1e-12


def test_single_z_time_sweep_always_corrected(code15, chain15, plus_logical15):
    # the headline invariant: the pipeline wins at every injection time
    from chainqec.decoder import DecodeOptions, decode_pipeline

    for t_err in np.linspace(0.0, np.pi, 7):
        psi = inject_single_z(plus_logical15, chain15, 9, float(t_err), np.pi)
        report = decode_pipeline(psi, code15, DecodeOptions(mode="revival"))
        assert report.success_probability >= 1 - 1e-9, t_err


def test_coupling_success_converges_as_disorder_vanishes(chain15):
    from chainqec.harness import RevivalSetup

    setup = RevivalSetup(chain15, 1 / np.sqrt(2), 1 / np.sqrt(2))
    vals = [
        setup.success_mode_unitaries(
            mode_unitaries(disordered_spec(chain15, f, 3)[0], [setup.duration])
        )[0][0]
        for f in (3e-3, 1e-3, 3e-4)
    ]
    assert all(np.diff(vals) > 0) or vals[-1] > 1 - 1e-5
    assert vals[-1] > 1 - 1e-4


def test_trajectory_region_errors_match_mode_estimate():
    # each jump errors two fermionic modes, so for small rates the expected
    # fermionic-error count on an M-site region approaches 2M * p_mode
    from chainqec.freefermion import chi_decay
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
