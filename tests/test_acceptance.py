"""Acceptance suite: one test per top-level criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with pytest -s or on
failure).  Criterion 8's full 1000-instance sweep is gated behind
CHAINQEC_FULL_ACCEPTANCE=1; the default run uses the 50-instance smoke
variant with its own 2-minute wall-clock bound.
"""

import os
import time
from itertools import combinations

import numpy as np
import pytest

from chainqec.chain import ChainSpec, pst_couplings, single_excitation_matrix
from chainqec.code import minimal15, parity_condition, shor_code
from chainqec.decoder import DecodeOptions, decode_pipeline
from chainqec.freefermion import (
    MajoranaMonomial,
    fermion_to_pauli,
    mode_propagator,
    pauli_to_fermion,
    propagate,
)
from chainqec.harness import (
    _revival_setup,
    brute_force_conjugate,
    exp_coupling,
    exp_dephasing,
    exp_single_z,
    exp_timing,
)
from chainqec.hilbert import StateVector, apply_hops, apply_pauli, basis_state, evolve, trajectory_sample
from chainqec.noise import inject_single_z
from chainqec.pauli import from_sites, pauli_z, symplectic_rank

T0 = np.pi / 2


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_perfect_transfer():
    worst = 1.0
    for n in range(2, 13):
        out = evolve(basis_state(n, [1]), pst_couplings(n), T0)
        worst = min(worst, abs(out.amps[1]) ** 2)
    _report(1, "perfect-transfer", worst >= 1 - 1e-10, f"worst end fidelity = {worst:.3e}")


def test_criterion_2_mode_evolution_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 6))
        if rng.random() < 0.5:
            spec = pst_couplings(n)
        else:
            spec = ChainSpec(
                n, tuple(rng.uniform(0.3, 1.4, n - 1)), tuple(rng.uniform(-0.7, 0.7, n))
            )
        t = float(rng.uniform(-np.pi, np.pi))
        kind = trial % 3
        if kind == 0:
            p = pauli_z(n, int(rng.integers(1, n + 1)))
        elif kind == 1:
            k = int(rng.integers(1, n))
            p = from_sites(n, xs=(k, k + 1))
        else:
            k = int(rng.integers(1, n))
            p = from_sites(n, ys=(k, k + 1))
        dense = brute_force_conjugate(p, spec, t)
        prop = mode_propagator(single_excitation_matrix(spec), t)
        ferm = propagate(pauli_to_fermion(p), prop).dense()
        worst = max(worst, float(np.abs(dense - ferm).max()))
    _report(2, "mode-evolution-oracle", worst <= 1e-10, f"worst max-norm gap = {worst:.3e}")


def test_criterion_3_single_z_1024_samples():
    summary = exp_single_z(samples=1024, seed=0)
    worst = summary.min_success
    _report(
        3, "single-z-1024", worst >= 1 - 1e-8,
        f"min success over 1024 samples = 1 - {1 - worst:.3e}",
    )


def test_criterion_3_every_site_on_the_exact_time_grid():
    # 1 - success(s, t) is a trigonometric polynomial of degree <= 28 in t
    # with period D (the gaps of the spectrum -14, -12, ..., 14), so its
    # values at 57 equispaced times fix it: every flip at every time, not a sample
    setup = _revival_setup(pst_couplings(15))
    n, d = 15, setup.duration
    sites = np.repeat(np.arange(1, n + 1), 57)
    success, _ = setup.success_single_z(sites, np.tile(np.arange(57) * d / 57, n))
    worst = float(np.abs(1 - success).max())
    _report(3, "single-z-every-site-grid", worst <= 1e-13, f"max |1 - success| on 15 x 57 = {worst:.3e}")


def test_criterion_3_grid_degree_claim():
    # the rows phi - 2 n_v phi that the exact evaluator scores are of degree
    # <= 14 in t: interpolation from 29 equispaced times predicts any time,
    # and from 27 it does not
    setup = _revival_setup(pst_couplings(15))
    d = setup.duration
    rng = np.random.default_rng(3)

    def rows(site, times):
        # the rows at W's read positions, as success_single_z builds them
        v = setup._modes(np.full(len(times), site), times)
        return apply_hops(setup.exact.hops, -2.0 * v.conj(), v, {}, shift=1.0).T

    def worst_miss(points):
        worst = 0.0
        for site in range(1, 16):
            grid = rows(site, np.arange(points) * d / points)
            assert np.abs(grid - grid[0]).max() > 0.5  # the rows do move with t
            coef = np.fft.fft(grid, axis=0) / points
            freq = np.fft.fftfreq(points, 1 / points)
            t = rng.uniform(0, d, 40)
            pred = np.exp(2j * np.pi * np.outer(t, freq) / d) @ coef
            worst = max(worst, float(np.abs(pred - rows(site, t)).max()))
        return worst

    assert worst_miss(29) <= 1e-12
    assert worst_miss(27) > 1e-3


def test_criterion_4_mode_decay_closed_form():
    report = exp_dephasing(pst_couplings(5), (0.01, 0.1))
    worst = max(report.max_deviation)
    _report(
        4, "dephasing-closed-form", worst <= 1e-6,
        f"max |chi(t) - decay * chi(0)| = {worst:.3e} over gammas {report.gammas}",
    )


def test_criterion_5_code_structure():
    code = minimal15()
    code.validate()
    checks = {
        "generators": len(code.generators) == 14,
        "rank": symplectic_rank(code.generators) == 14,
        "logical": code.n_logical == 1,
    }
    seen = set()
    patterns = [(s,) for s in range(1, 16)] + list(combinations(range(1, 16), 2))
    for sites in patterns:
        err = from_sites(15, xs=sites)
        seen.add(tuple(0 if err.commutes_with(g) else 1 for g in code.x_detecting_generators))
    checks["distinct-syndromes"] = len(seen) == 120 and (0,) * 12 not in seen
    checks["parity-shor4"] = parity_condition(shor_code(4)) is True
    checks["parity-shor3"] = parity_condition(shor_code(3)) is False
    ok = all(checks.values())
    _report(5, "code-structure", ok, ", ".join(f"{k}={v}" for k, v in checks.items()))


def test_criterion_6_block_rule_cases(code15, plus_logical15):
    opts = DecodeOptions(mode="revival")
    cases = {}
    # (a) one phase error on a single block
    noisy = apply_pauli(plus_logical15, pauli_z(15, 7))
    cases["single-z"] = decode_pipeline(noisy, code15, opts).success_probability
    # (b) two phase errors in the same block cancel
    noisy = apply_pauli(plus_logical15, from_sites(15, zs=(6, 9)))
    cases["same-block-pair"] = decode_pipeline(noisy, code15, opts).success_probability
    # (c) flips in two blocks whose residual phase errors point at the third
    err = fermion_to_pauli(MajoranaMonomial(1.0, (15 + 2, 15 + 12)), 15)
    noisy = apply_pauli(plus_logical15, err)
    cases["cross-reference"] = decode_pipeline(noisy, code15, opts).success_probability
    ok = all(v >= 1 - 1e-9 for v in cases.values())
    _report(6, "block-rule-cases", ok, ", ".join(f"{k}={v:.12f}" for k, v in cases.items()))


def test_criterion_7_timing_sweep():
    curve = exp_timing()
    s = np.array(curve.successes)
    at_zero = abs(s[0] - 1.0) <= 1e-9
    continuous = bool(np.all(np.abs(np.diff(s)) <= 0.2))
    perturbative = np.array(curve.smallness) <= 1.0
    infid = 1.0 - s[perturbative]
    growing = bool(np.all(np.diff(infid) >= -1e-12))
    ok = at_zero and continuous and growing
    _report(
        7, "timing-sweep", ok,
        f"s(0)=1-{1 - s[0]:.1e}, max step {np.abs(np.diff(s)).max():.3f}, "
        f"monotone infidelity over {int(perturbative.sum())} perturbative points: {growing}",
    )


def _coupling_checks(curves) -> tuple[bool, str]:
    mean = np.array(curves.mean_success)
    mn = np.array(curves.min_success)
    at_zero = abs(mean[0] - 1) <= 1e-9 and abs(mn[0] - 1) <= 1e-9
    ordered = bool(np.all(mn <= mean + 1e-12))
    # decreasing trend over the grid, allowing sampling noise on neighbours
    trend = bool(mean[0] > mean[-1] and np.all(np.diff(mean) <= 0.02))
    ok = at_zero and ordered and trend
    detail = (
        f"mean(0)=1-{1 - mean[0]:.1e}, min(0)=1-{1 - mn[0]:.1e}, "
        f"min<=mean: {ordered}, mean {mean[0]:.4f}->{mean[-1]:.4f} decreasing: {trend}"
    )
    return ok, detail


def test_criterion_8_coupling_sweep_smoke():
    start = time.monotonic()
    curves = exp_coupling(instances=50, seed=0)
    elapsed = time.monotonic() - start
    ok, detail = _coupling_checks(curves)
    ok = ok and elapsed < 120.0
    _report(8, "coupling-sweep-smoke", ok, f"{detail}, wall {elapsed:.0f}s < 120s")


@pytest.mark.skipif(
    os.environ.get("CHAINQEC_FULL_ACCEPTANCE") != "1",
    reason="full 1000-instance sweep: set CHAINQEC_FULL_ACCEPTANCE=1",
)
def test_criterion_8_coupling_sweep_full():
    curves = exp_coupling(instances=1000, seed=0)
    ok, detail = _coupling_checks(curves)
    _report(8, "coupling-sweep-full", ok, detail)


def test_criterion_9_branch_completeness(code15, chain15, plus_logical15):
    rng = np.random.default_rng(9)
    worst = 0.0
    opts = DecodeOptions(mode="revival", prune_below=0.0)
    for trial in range(20):
        kind = trial % 4
        if kind == 0:
            psi = evolve(plus_logical15, chain15, 2 * T0 + float(rng.uniform(-0.05, 0.05)))
        elif kind == 1:
            psi = inject_single_z(
                plus_logical15, chain15, int(rng.integers(1, 16)),
                float(rng.uniform(0, 2 * T0)), 2 * T0,
            )
        elif kind == 2:
            psi, _ = trajectory_sample(
                plus_logical15, 0.01, 2 * T0, int(rng.integers(0, 2**32)), chain15
            )
        else:
            sites = rng.choice(np.arange(1, 16), size=2, replace=False)
            noise = from_sites(15, xs=(int(sites[0]),), zs=(int(sites[1]),))
            mixed = plus_logical15.amps + 0.3 * apply_pauli(plus_logical15, noise).amps
            psi = StateVector(mixed / np.linalg.norm(mixed), 15)
        report = decode_pipeline(psi, code15, opts)
        total = sum(b.probability for b in report.branches) + report.discarded_mass
        worst = max(worst, abs(total - 1.0))
    _report(9, "branch-completeness", worst <= 1e-10, f"worst |sum p - 1| = {worst:.3e}")
